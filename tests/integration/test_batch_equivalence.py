"""Batched entry points must be invisible: same bytes out.

Two batch/single pairs survive, each a thin wrapper over one body:

* the miner's ``mine_batch`` and ``mine_document`` both run the one
  stage-major mode-A body, so any partition of a corpus into
  ``mine_batch`` calls must equal one call and the naive reference
  miner's ``mine_corpus`` in judgments, stats and audit records.  The
  only visible difference is the sim-clock charge: one ``STAGE_COST``
  per charged stage per call, pinned here exactly;
* the platform pipeline's ``process_entity`` is ``process_batch`` on a
  batch of one.  The chaos-marked test goes further: a replicated
  cluster running batches under a seeded node death must leave exactly
  the same per-entity sentiment annotations as a fault-free,
  entity-at-a-time baseline.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Subject
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.core.miner import STAGE_COST, MiningResult, SentimentMiner
from repro.corpora import DIGITAL_CAMERA, ReviewGenerator
from repro.miners import (
    DisambiguatorMiner,
    SentimentEntityMiner,
    SpotterMiner,
    TokenizerMiner,
)
from repro.miners.base import SENTIMENT_LAYER
from repro.obs import Obs
from repro.platform import Cluster, DataStore, Entity, FaultPlan, MinerPipeline
from tests.support.reference import reference_miner

NODES = 4
PARTITIONS = 8
DOCS = 20


def camera_documents(count: int = DOCS, seed: int = 2026) -> list[tuple[str, str]]:
    docs = ReviewGenerator(DIGITAL_CAMERA, seed=seed).generate_dplus(count)
    return [(d.doc_id, d.text) for d in docs]


def camera_subjects() -> list[Subject]:
    return [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]


def camera_disambiguator() -> Disambiguator:
    terms = TopicTermSet.build(
        on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
    )
    return Disambiguator(terms)


def camera_miner(obs: Obs | None = None) -> SentimentMiner:
    return SentimentMiner(
        subjects=camera_subjects(),
        disambiguator=camera_disambiguator(),
        obs=obs if obs is not None else Obs.default(),
    )


def report(result: MiningResult) -> tuple:
    return result.judgments, result.stats, [e.to_record() for e in result.audit]


class TestMineBatch:
    def test_matches_mine_corpus(self):
        documents = camera_documents()
        batched = camera_miner(Obs.enabled()).mine_batch(documents)
        unbatched = camera_miner(Obs.enabled()).mine_corpus(documents)
        assert report(batched) == report(unbatched)

    def test_batch_charges_one_stage_cost_per_stage(self):
        # Spot, disambiguate and analyze each charge once per call,
        # whatever the batch size; mine_corpus pays per document.
        for size in (0, 1, 3, 10):
            documents = camera_documents(size)
            assert sim_charge(plain_miner, "mine_batch", documents) == 2 * STAGE_COST
            assert sim_charge(camera_miner, "mine_batch", documents) == 3 * STAGE_COST
        documents = camera_documents(10)
        charged = sim_charge(camera_miner, "mine_corpus", documents)
        assert charged == 10 * 3 * STAGE_COST

    def test_empty_batch(self):
        result = camera_miner().mine_batch([])
        assert result.judgments == []
        assert result.stats.documents == 0


def plain_miner(obs: Obs) -> SentimentMiner:
    return SentimentMiner(subjects=camera_subjects(), obs=obs)


def sim_charge(miner_for, method: str, *args) -> float:
    """Sim time one ``method(*args)`` call on a fresh miner charges."""
    obs = Obs.default()
    getattr(miner_for(obs), method)(*args)
    return obs.clock.now


class TestSimCostRule:
    """Per-document charges: one ``STAGE_COST`` per charged stage.

    ``DeltaIndexer``, freshness, the SLOs and the recovery timelines are
    calibrated against these figures.
    """

    def test_mine_document(self):
        text = camera_documents(1)[0][1]
        assert sim_charge(plain_miner, "mine_document", text, "d") == 0.5
        assert sim_charge(camera_miner, "mine_document", text, "d") == 0.75

    def test_mine_open_document(self):
        text = camera_documents(1)[0][1]
        charged = sim_charge(
            lambda obs: SentimentMiner(obs=obs), "mine_open_document", text, "d"
        )
        assert charged == 0.25


COMPOSITION_DOCS = 8


@lru_cache(maxsize=None)
def composition_corpus() -> tuple[tuple[str, str], ...]:
    return tuple(camera_documents(COMPOSITION_DOCS, seed=7))


@lru_cache(maxsize=None)
def composition_expected() -> tuple:
    documents = list(composition_corpus())
    single = report(camera_miner(Obs.enabled()).mine_batch(documents))
    reference = reference_miner(
        camera_subjects(), obs=Obs.enabled(), disambiguator=camera_disambiguator()
    ).mine_corpus(documents)
    assert single == report(reference)
    return single


@lru_cache(maxsize=None)
def warm_miner() -> SentimentMiner:
    """One miner shared by every example, so its memos stay warm."""
    return camera_miner(Obs.enabled())


class TestBatchComposition:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        cuts=st.lists(
            st.integers(min_value=0, max_value=COMPOSITION_DOCS), max_size=6
        )
    )
    def test_any_partition_equals_one_batch_and_reference(self, cuts):
        documents = list(composition_corpus())
        bounds = [0, *sorted(cuts), len(documents)]
        total = MiningResult()
        for start, end in zip(bounds, bounds[1:]):
            result = warm_miner().mine_batch(documents[start:end])
            total.judgments.extend(result.judgments)
            total.stats.merge(result.stats)
            total.audit.extend(result.audit)
        assert report(total) == composition_expected()


def sentiment_pipeline() -> MinerPipeline:
    return MinerPipeline(
        [
            TokenizerMiner(),
            SpotterMiner(camera_subjects()),
            DisambiguatorMiner(camera_disambiguator()),
            SentimentEntityMiner(),
        ]
    )


def make_store() -> DataStore:
    store = DataStore(num_partitions=PARTITIONS)
    store.store_all(
        Entity(entity_id=doc_id, content=text) for doc_id, text in camera_documents()
    )
    return store


def annotations_by_entity(store: DataStore) -> dict[str, list]:
    return {
        entity.entity_id: entity.layer(SENTIMENT_LAYER) for entity in store.scan()
    }


class TestProcessBatch:
    def test_matches_process_entity(self):
        batched_store, unbatched_store = make_store(), make_store()

        sentiment_pipeline().process_batch(list(batched_store.scan()))
        pipeline = sentiment_pipeline()
        for entity in unbatched_store.scan():
            pipeline.process_entity(entity)

        batched = annotations_by_entity(batched_store)
        unbatched = annotations_by_entity(unbatched_store)
        assert batched == unbatched
        assert any(batched.values())  # the corpus must actually yield sentiment

    def test_report_counts_whole_batch(self):
        store = make_store()
        pipeline = sentiment_pipeline()
        report = pipeline.process_batch(list(store.scan()))
        assert report.entities_processed == len(store)


@pytest.mark.chaos
class TestBatchedClusterUnderChaos:
    def test_failover_batches_byte_identical_to_unbatched_baseline(self):
        # Fault-free, entity-at-a-time baseline.
        baseline_store = make_store()
        pipeline = sentiment_pipeline()
        for entity in baseline_store.scan():
            pipeline.process_entity(entity)
        expected = annotations_by_entity(baseline_store)
        assert any(expected.values())

        # Replicated cluster on the batched path, one seeded node death:
        # orphaned partitions fail over and are re-batched on replicas.
        plan = FaultPlan(seed=17).kill_node(2, after_partitions=1)
        chaotic_store = make_store()
        report = Cluster(
            chaotic_store,
            num_nodes=NODES,
            replication=2,
            fault_plan=plan,
        ).run_pipeline(sentiment_pipeline())

        assert report.coverage == 1.0
        assert not report.degraded
        assert report.failovers > 0  # the death actually rerouted work
        assert annotations_by_entity(chaotic_store) == expected

    @pytest.mark.parametrize("dead_node", range(NODES))
    def test_every_single_death_preserves_annotations(self, dead_node):
        baseline_store = make_store()
        pipeline = sentiment_pipeline()
        for entity in baseline_store.scan():
            pipeline.process_entity(entity)
        expected = annotations_by_entity(baseline_store)

        plan = FaultPlan(seed=dead_node).kill_node(dead_node, after_partitions=0)
        store = make_store()
        report = Cluster(
            store, num_nodes=NODES, replication=2, fault_plan=plan
        ).run_pipeline(sentiment_pipeline())
        assert report.coverage == 1.0
        assert annotations_by_entity(store) == expected
