"""Serving read-path invariants: the hedge window, snapshot aggregates, absorb.

The read path answers from incrementally maintained state instead of
recomputing per shard read: the hedge percentile comes from a sorted
copy of the latency window, snapshot aggregates read list lengths
wherever no tombstone mask applies, and absorbs partition a sealed
segment's postings instead of re-tokenizing its documents.  Each
property here checks that state against a brute-force evaluation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SentimentMiner, Subject
from repro.core.model import Polarity
from repro.obs import Obs
from repro.platform.datastore import DataStore
from repro.platform.entity import Annotation, Entity
from repro.platform.indexer import InvertedIndex, SentimentEntry
from repro.platform.ingestion import (
    DELTA_ADD,
    DELTA_DELETE,
    DELTA_UPDATE,
    DocumentDelta,
)
from repro.platform.query import And, Near, Not, Or, Phrase, Range, Regex, Term
from repro.platform.segments import DeltaIndexer, ReplicaSnapshot, ShardSegment
from repro.platform.serving import ReplicatedIndex, ServingRouter, shard_of
from repro.platform.vinci import VinciBus

pytestmark = pytest.mark.serving

# -- hedge window --------------------------------------------------------------

WINDOW = 128


def bare_router(**kwargs) -> ServingRouter:
    return ServingRouter(ReplicatedIndex(1, 1, 1), DataStore(), VinciBus(), **kwargs)


def brute_threshold(samples, percentile, warmup):
    window = samples[-WINDOW:]
    if len(window) < warmup:
        return float("inf")
    return sorted(window)[int(percentile * (len(window) - 1))]


# A small value pool forces duplicate latencies; up to 300 samples wraps
# the 128-sample window more than twice.
_latencies = st.lists(
    st.sampled_from([0.04, 0.05, 0.05, 0.07, 0.1, 0.12, 0.4, 0.96]), max_size=300
)


class TestHedgeWindow:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        samples=_latencies,
        percentile=st.floats(min_value=0.01, max_value=0.99),
        warmup=st.integers(min_value=0, max_value=40),
    )
    def test_threshold_is_the_window_order_statistic(self, samples, percentile, warmup):
        router = bare_router(hedge_percentile=percentile, hedge_warmup=warmup)
        for i, latency in enumerate(samples):
            router._record_latency(latency)
            seen = samples[: i + 1]
            assert router._current_hedge_threshold() == brute_threshold(
                seen, percentile, warmup
            )
        assert router._latency_sorted == sorted(samples[-WINDOW:])

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(samples=_latencies, fixed=st.sampled_from([0.0, 0.1, 0.5]))
    def test_fixed_threshold_ignores_the_window(self, samples, fixed):
        router = bare_router(hedge_threshold=fixed)
        assert router._current_hedge_threshold() == fixed
        for latency in samples:
            router._record_latency(latency)
            assert router._current_hedge_threshold() == fixed

    def test_no_hedging_before_warmup(self):
        router = bare_router(hedge_warmup=3)
        router._record_latency(0.1)
        router._record_latency(0.1)
        assert router._current_hedge_threshold() == float("inf")
        router._record_latency(0.2)
        assert router._current_hedge_threshold() == 0.1


# -- snapshot aggregates -------------------------------------------------------

_DOCS = [f"d{i}" for i in range(6)]
_SUBJECTS = ["nr70", "g3", "zoom"]
_WORDS = ["camera", "flash", "zoom", "battery"]

# One batch: per touched document, either a delete (None) or its new
# version — a text and the (subject, polarity) findings mined from it.
_versions = st.tuples(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=5).map(" ".join),
    st.lists(
        st.tuples(
            st.sampled_from(_SUBJECTS),
            st.sampled_from([Polarity.POSITIVE, Polarity.NEGATIVE]),
        ),
        max_size=4,
    ),
)
_batches = st.lists(
    st.dictionaries(
        st.sampled_from(_DOCS), st.one_of(st.none(), _versions), min_size=1, max_size=4
    ),
    min_size=1,
    max_size=5,
)

_queries = st.one_of(
    st.sampled_from(_WORDS).map(Term),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)).map(Phrase),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)).map(
        lambda pair: Or(Term(pair[0]), Not(Term(pair[1])))
    ),
    st.tuples(st.sampled_from(_WORDS), st.sampled_from(_WORDS)).map(
        lambda pair: And(Term(pair[0]), Term(pair[1]))
    ),
    st.just(Regex("[a-z]+")),
)


def segment_log(batches):
    """A base segment plus one sealed slice per batch, the way absorb builds them.

    Every touched id is tombstoned by its batch, so earlier copies are
    masked; the batch's own documents are net of it.
    """
    segments = [ShardSegment(version=0)]
    for version, batch in enumerate(batches, start=1):
        segment = ShardSegment(version=version, tombstones=frozenset(batch))
        for doc_id, new in batch.items():
            if new is None:
                continue
            text, findings = new
            segment.inverted.add_entity(Entity(entity_id=doc_id, content=text))
            for offset, (subject, polarity) in enumerate(findings):
                segment.sentiment.add_entry(
                    SentimentEntry(subject, polarity, doc_id, offset, offset + 1)
                )
        segments.append(segment)
    return segments


def live_state(batches):
    """Brute force: replay the batches into the current text and findings."""
    texts: dict[str, str] = {}
    entries: dict[str, list[SentimentEntry]] = {}
    for batch in batches:
        for doc_id, new in batch.items():
            texts.pop(doc_id, None)
            entries.pop(doc_id, None)
            if new is None:
                continue
            text, findings = new
            texts[doc_id] = text
            entries[doc_id] = [
                SentimentEntry(subject, polarity, doc_id, offset, offset + 1)
                for offset, (subject, polarity) in enumerate(findings)
            ]
    return texts, [entry for doc in entries.values() for entry in doc]


class TestSnapshotAggregates:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(batches=_batches, query=_queries)
    def test_snapshot_reads_equal_a_scan_of_live_entries(self, batches, query):
        segments = segment_log(batches)
        snapshot = ReplicaSnapshot(len(batches), segments)
        texts, live = live_state(batches)

        totals: dict[str, int] = {}
        for entry in live:
            totals[entry.subject] = totals.get(entry.subject, 0) + 1
        assert snapshot.sentiment.subject_counts() == dict(sorted(totals.items()))
        assert len(snapshot.sentiment) == len(live)
        for subject in _SUBJECTS + ["absent"]:
            about = [e for e in live if e.subject == subject]
            assert sorted(snapshot.sentiment.query(subject), key=repr) == sorted(
                about, key=repr
            )
            assert snapshot.sentiment.counts(subject) == {
                polarity: sum(1 for e in about if e.polarity is polarity)
                for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE)
            }
            for polarity in (Polarity.POSITIVE, Polarity.NEGATIVE):
                assert sorted(
                    snapshot.sentiment.query(subject, polarity), key=repr
                ) == sorted((e for e in about if e.polarity is polarity), key=repr)

        one_pass = InvertedIndex()
        for doc_id, text in texts.items():
            one_pass.add_entity(Entity(entity_id=doc_id, content=text))
        assert snapshot.inverted.search(query) == one_pass.search(query)


# -- absorb partitions postings --------------------------------------------------

_VOCAB = ["NR70", "G3", "zoom", "flash", "battery", "is", "great", "awful", "the"]


def seeded_entity(rng: random.Random, doc_id: str) -> Entity:
    words = [rng.choice(_VOCAB) for _ in range(rng.randint(3, 9))]
    entity = Entity(
        entity_id=doc_id,
        content=" ".join(words) + " .",
        metadata={"year": rng.randint(2000, 2005), "title": doc_id},
    )
    entity.annotate(
        Annotation.make(
            "geo", 0, 1, label=rng.choice(["paris", "tokyo"]),
            lat=rng.uniform(-60, 60), lon=rng.uniform(-120, 120),
        )
    )
    entity.annotate(Annotation.make("spot", 0, 1, label=words[0].lower()))
    return entity


def seeded_batches(seed: int):
    rng = random.Random(seed)
    first = [
        DocumentDelta(kind=DELTA_ADD, entity_id=f"d{i}", entity=seeded_entity(rng, f"d{i}"))
        for i in range(10)
    ]
    second = [
        DocumentDelta(kind=DELTA_ADD, entity_id="d10", entity=seeded_entity(rng, "d10")),
        DocumentDelta(kind=DELTA_UPDATE, entity_id="d3", entity=seeded_entity(rng, "d3")),
        DocumentDelta(kind=DELTA_DELETE, entity_id="d5"),
        # An intra-batch chain: added, then updated in the same batch.
        DocumentDelta(kind=DELTA_UPDATE, entity_id="d10", entity=seeded_entity(rng, "d10")),
    ]
    return [first, second]


def index_state(index: InvertedIndex):
    """Everything an inverted index answers from, order-insensitively."""
    return (
        index.doc_ids,
        {token: dict(postings) for token, postings in index._postings.items() if postings},
        {key: set(ids) for key, ids in index._concepts.items() if ids},
        {name: dict(values) for name, values in index._metadata.items() if values},
        {eid: list(points) for eid, points in index._locations.items() if points},
    )


class TestAbsorbPartition:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_partitioned_slices_equal_re_tokenized_slices(self, seed):
        miner = SentimentMiner(subjects=[Subject("NR70"), Subject("G3")], obs=Obs.default())
        delta_indexer = DeltaIndexer(miner, obs=Obs.default())
        index = ReplicatedIndex(num_shards=4, num_nodes=3, replication=2)
        for batch in seeded_batches(seed):
            segment = delta_indexer.index_batch(batch)
            version = index.absorb(segment)
            # The batch's net documents, re-tokenized the old way.
            net = {}
            for delta in batch:
                net.pop(delta.entity_id, None)
                if delta.kind != DELTA_DELETE:
                    net[delta.entity_id] = delta.entity
            rebuilt = [InvertedIndex() for _ in range(index.num_shards)]
            for entity_id, entity in net.items():
                rebuilt[shard_of(entity_id, index.num_shards)].add_entity(entity)
            for shard_id in index.shard_ids():
                for replica in index.replicas_for(shard_id):
                    (absorbed,) = [s for s in replica.segments if s.version == version]
                    assert index_state(absorbed.inverted) == index_state(rebuilt[shard_id])
        # Geo and metadata lookups over the partitioned slices see every
        # live document exactly once.
        live = {f"d{i}" for i in range(11)} - {"d5"}
        for query in (Near(0.0, 0.0, 20000.0), Range("year", 2000, 2005)):
            found = [
                index.replicas_for(shard_id)[0].view().inverted.search(query)
                for shard_id in index.shard_ids()
            ]
            assert sum(len(ids) for ids in found) == len(live)
            assert set().union(*found) == live
