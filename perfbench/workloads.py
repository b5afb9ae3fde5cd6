"""The four benchmark workloads: seeded inputs, set-up, timed rounds, checks.

Each workload turns a seed into its inputs (documents, deltas,
requests) before anything is timed, then repeats identical *rounds* of
work against the program's public APIs.  A round returns the wall time
of its operations, one latency sample per operation, and the number of
operations whose output failed a check.  Checks run outside the timed
spans and compare each checked output's :func:`fingerprint` with the
one ``oracle.py`` computed for it in a child process: the differential
oracle in ``tests/support/reference.py`` for mining, and unsharded
indexes built from the same documents for serving.

All timing is ``time.perf_counter`` wall clock.  Simulated-clock figures
are never reported.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.core import SentimentMiner, Subject
from repro.core.model import SentimentJudgment
from repro.corpora import DIGITAL_CAMERA, PHARMACEUTICAL, ReviewGenerator
from repro.corpora.webpages import WebPageGenerator
from repro.nlp.sentences import SentenceSplitter
from repro.platform.api import validate_envelope
from repro.platform.datastore import DataStore
from repro.platform.entity import Entity
from repro.platform.ingestion import DELTA_ADD, DELTA_DELETE, DELTA_UPDATE, DocumentDelta
from repro.platform.segments import CompactionPolicy, DeltaIndexer, LiveIndexer
from repro.platform.serving import LoadProfile, ReplicatedIndex, ServingRouter
from repro.platform.vinci import VinciBus

from perfbench.calibration import HostClock
from perfbench.tracing import Recorder, installed

#: Read budget in simulated units.  A no-fault read charges at most one
#: slow draw per shard (8 × 0.96) plus the request overhead, so no
#: request can expire under this budget and every read must answer ok.
READ_BUDGET = 16.0
SHARDS, NODES, REPLICATION = 8, 4, 2
#: Documents per mine_unique arrival batch.
ARRIVAL_BATCH = 4
#: Copies per mine_syndicated mine_batch call; one base's worth keeps
#: every call's mix of first copies and repeats alike.
SYNDICATED_BATCH = 8


@dataclass(frozen=True)
class Sizes:
    """How much work one round does, per workload."""

    unique_reviews: int = 96
    unique_pages: int = 32
    syndicated_bases: int = 32
    copies: int = 8
    #: Copies of one base arrive within this many document slots.
    window: int = 16
    serve_docs: int = 120
    round_requests: int = 1000
    ingest_base_docs: int = 48
    ingest_batches: int = 24
    reads_per_batch: int = 12
    #: Set-ups repeated before serve_read's rounds (others set up per round).
    setup_reps: int = 5
    #: Documents per mining round checked against the oracle.
    oracle_sample: int = 16
    #: Batches per serve_ingest round whose reads are checked mid-stream.
    checked_batches: int = 3


@dataclass
class Round:
    """What one round of timed operations did.

    ``rates`` holds the round's throughputs and ``samples`` its
    per-operation latencies as (milliseconds, ``clock`` operation index)
    pairs, both under the names the report uses; ``wall_s`` is the time
    spent inside timed operations.
    """

    clock: HostClock = field(default_factory=HostClock)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rates: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[tuple[float, int]]] = field(default_factory=dict)
    digest: str = ""

    def sample(self, key: str, seconds: float, op: int) -> None:
        self.samples.setdefault(key, []).append((seconds * 1000.0, op))


def sub_seed(seed: int, name: str) -> int:
    """A named, independent 32-bit stream seed derived from *seed*."""
    return random.Random(f"{seed}/{name}").getrandbits(32)


def sha256_json(obj: Any) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> Any:
    """*obj* with dict items and set members sorted, so equal values print alike."""
    if isinstance(obj, dict):
        return ("dict", sorted((repr(k), _canonical(v)) for k, v in obj.items()))
    if isinstance(obj, (set, frozenset)):
        return ("set", sorted(repr(_canonical(v)) for v in obj))
    if isinstance(obj, (list, tuple)):
        return type(obj)(_canonical(v) for v in obj)
    return obj


def fingerprint(obj: Any) -> str:
    """sha256 of a program output (judgments, answer data), order-free in dicts."""
    return hashlib.sha256(repr(_canonical(obj)).encode("utf-8")).hexdigest()


def camera_subjects() -> list[Subject]:
    return [Subject(p) for p in DIGITAL_CAMERA.products] + [
        Subject(f) for f in DIGITAL_CAMERA.features
    ]


def _distinct(make, count: int, prefix: str, exclude=frozenset()) -> list[tuple[str, str]]:
    """*count* (id, text) documents from *make* with pairwise distinct texts."""
    out: list[tuple[str, str]] = []
    seen = set(exclude)
    serial = 0
    while len(out) < count:
        doc = make(f"{prefix}{serial:05d}")
        serial += 1
        if doc.text not in seen:
            seen.add(doc.text)
            out.append((doc.doc_id, doc.text))
    return out


def unique_reviews(seed: int, count: int, prefix: str, exclude=frozenset()) -> list[tuple[str, str]]:
    """*count* camera reviews with pairwise distinct texts."""
    generator = ReviewGenerator(DIGITAL_CAMERA, seed=seed)
    return _distinct(generator.generate_review, count, prefix, exclude)


def unique_pages(seed: int, count: int) -> list[tuple[str, str]]:
    """*count* pharmaceutical general-web pages with distinct texts."""
    generator = WebPageGenerator(PHARMACEUTICAL, seed=seed)
    return _distinct(generator.generate_page, count, "pharma:web:")


def memo_capacities() -> dict[str, int]:
    """Entry bounds of the split, tag and parse memos in a default miner."""
    miner = SentimentMiner(subjects=camera_subjects())
    return {
        "split": SentenceSplitter().memo_stats()["maxsize"],
        "tag": miner.analyzer.tagger.memo_stats()["maxsize"],
        "parse": miner.analyzer.parse_memo.memo_stats()["maxsize"],
    }


def _batches(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def judgments_by_doc(judgments: list[SentimentJudgment]) -> dict[str, list[SentimentJudgment]]:
    out: dict[str, list[SentimentJudgment]] = {}
    for judgment in judgments:
        out.setdefault(judgment.spot.document_id, []).append(judgment)
    return out


def relabel(judgments: list[SentimentJudgment], document_id: str) -> list[SentimentJudgment]:
    return [
        dataclasses.replace(j, spot=dataclasses.replace(j.spot, document_id=document_id))
        for j in judgments
    ]


def _digest_judgments(judgments: list[SentimentJudgment]) -> str:
    return hashlib.sha256(repr(judgments).encode("utf-8")).hexdigest()


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Workload:
    """Base: seeded inputs, a set-up, and repeated identical rounds.

    A round is :meth:`begin_round`, then :meth:`operate` (the timed
    operations, which only collect outputs), then :meth:`verify` (the
    checks against :attr:`expected`), so a traced round can record spans
    around the operations alone.
    """

    name = ""
    #: Round rate reported as the end-to-end throughput, and the samples
    #: of the operations whose time it divides by.
    throughput_key = ""
    throughput_samples = ""
    #: Latency samples reported as the end-to-end p50 and tail.
    latency_key = ""
    #: The tail percentile.  serve_read's 1000-read rounds leave ten
    #: samples beyond p99 in every round; elsewhere a round is smaller and
    #: p90 is the highest percentile a run's rounds together leave at
    #: least ten samples beyond.
    tail_percentile = 0.9
    #: True when every round needs a fresh set-up because it mutates it.
    setup_per_round = True

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes
        #: Check key → oracle fingerprint, from ``oracle.expected``.
        self.expected: dict[str, Any] = {}

    def inputs(self) -> dict[str, Any]:
        """Everything the program will receive, for the input hash."""
        raise NotImplementedError

    def manifest_extra(self) -> dict[str, Any]:
        return {}

    def setup(self) -> Any:
        raise NotImplementedError

    def begin_round(self, ctx: Any) -> Any:
        """The context one round runs against; *ctx* itself by default."""
        return ctx

    def operate(self, ctx: Any, out: Round, rec: Recorder | None = None) -> Any:
        """Run the timed operations into *out*; return outputs to verify."""
        raise NotImplementedError

    def verify(self, ctx: Any, out: Round, outputs: Any) -> None:
        """Count failed checks into ``out.failed`` and set ``out.digest``."""
        raise NotImplementedError

    def run_round(self, ctx: Any, rec: Recorder | None = None, clock: HostClock | None = None) -> Round:
        if not self.expected:
            raise RuntimeError("no oracle fingerprints loaded; nothing to check against")
        ctx = self.begin_round(ctx)
        out = Round(clock=clock or HostClock())
        if rec is None:
            outputs = self.operate(ctx, out)
        else:
            rec.clear()
            with installed(rec):
                outputs = self.operate(ctx, out, rec)
        self.verify(ctx, out, outputs)
        return out


# -- mining -----------------------------------------------------------------------


class MineWorkload(Workload):
    """Shared mining round: arrival batches through one miner per mode.

    Mode A batches go through ``mine_batch``, mode B batches through
    ``mine_open_corpus``.  Latency samples are whole mining calls, one
    per arrival batch.
    """

    throughput_key = "docs_per_s"
    throughput_samples = latency_key = "mine_call_ms"

    def mine_calls(self) -> list[tuple[str, list[tuple[str, str]]]]:
        """(mode, arrival batch) in arrival order."""
        raise NotImplementedError

    def setup(self) -> dict[str, SentimentMiner]:
        """One default miner per mode the workload mines in."""
        modes = {mode for mode, _ in self.mine_calls()}
        miners = {}
        if "A" in modes:
            miners["A"] = SentimentMiner(subjects=camera_subjects())
        if "B" in modes:
            miners["B"] = SentimentMiner()
        return miners

    def operate(self, ctx: dict[str, SentimentMiner], out: Round, rec: Recorder | None = None):
        produced: list[SentimentJudgment] = []
        docs = chars = 0
        for call_index, (mode, batch) in enumerate(self.mine_calls()):
            miner = ctx[mode]
            mine = miner.mine_batch if mode == "A" else miner.mine_open_corpus
            if rec is not None:
                rec.request_id = call_index
            out.attempted += len(batch)
            try:
                result, elapsed, op = out.clock.time(lambda: mine(batch))
            except Exception:  # noqa: BLE001 — a failed call fails its documents
                out.failed += len(batch)
                continue
            out.wall_s += elapsed
            out.sample("mine_call_ms", elapsed, op)
            docs += len(batch)
            chars += sum(len(text) for _, text in batch)
            produced.extend(result.judgments)
        out.rates["docs_per_s"] = _rate(docs, out.wall_s)
        out.rates["kchars_per_s"] = _rate(chars / 1000.0, out.wall_s)
        return produced

    def verify(self, ctx, out: Round, produced: list[SentimentJudgment]) -> None:
        """Each checked document's judgments must match the oracle's."""
        by_doc = judgments_by_doc(produced)
        for doc_id, expected in self.expected.items():
            if fingerprint(by_doc.get(doc_id, [])) != expected:
                out.failed += 1
        out.digest = _digest_judgments(produced)


class MineUnique(MineWorkload):
    """Unique reviews (mode A) and unique pharmaceutical pages (mode B).

    The oracle re-mines a seeded sample of each mode's documents.
    """

    name = "mine_unique"

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        super().__init__(seed, sizes)
        self.reviews = unique_reviews(
            sub_seed(seed, "unique/reviews"), sizes.unique_reviews, "camera:review:"
        )
        self.pages = unique_pages(sub_seed(seed, "unique/pages"), sizes.unique_pages)

    def checked(self) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
        """The seeded (mode A, mode B) document samples the oracle re-mines."""
        rng = random.Random(sub_seed(self.seed, "unique/oracle"))
        sample = self.sizes.oracle_sample
        return (
            sorted(rng.sample(self.reviews, min(sample, len(self.reviews)))),
            sorted(rng.sample(self.pages, min(sample, len(self.pages)))),
        )

    def inputs(self) -> dict[str, Any]:
        return {"mode_a": self.reviews, "mode_b": self.pages}

    def mine_calls(self):
        return [("A", b) for b in _batches(self.reviews, ARRIVAL_BATCH)] + [
            ("B", b) for b in _batches(self.pages, ARRIVAL_BATCH)
        ]


def syndicated_arrivals(
    seed: int, bases: list[tuple[str, str]], copies: int, window: int
) -> list[tuple[str, str, str]]:
    """(copy id, text, base id) in arrival order.

    Base *b* starts publishing at slot ``b × copies``; each of its copies
    lands at a seeded offset inside ``window`` slots of that start.
    """
    rng = random.Random(seed)
    timed = []
    for position, (base_id, text) in enumerate(bases):
        start = position * copies
        for copy in range(copies):
            copy_id = f"{base_id}~syn{copy}"
            timed.append((start + rng.uniform(0, window), copy_id, text, base_id))
    timed.sort()
    return [(copy_id, text, base_id) for _, copy_id, text, base_id in timed]


def reuse_distances(arrivals: list[tuple[str, str, str]], sentences: dict[str, int]) -> dict[str, Any]:
    """Distinct other documents, and their sentences, between consecutive copies.

    The split memo is keyed on whole documents, the tag and parse memos
    on sentences, so both units are reported next to the capacities.
    """
    last_seen: dict[str, int] = {}
    docs: list[int] = []
    sents: list[int] = []
    for position, (_, _, base_id) in enumerate(arrivals):
        if base_id in last_seen:
            between = {b for _, _, b in arrivals[last_seen[base_id] + 1 : position]}
            between.discard(base_id)
            docs.append(len(between))
            sents.append(sum(sentences[b] for b in between))
        last_seen[base_id] = position

    def summary(values: list[int]) -> dict[str, int]:
        values = sorted(values)
        return {"median": values[len(values) // 2], "max": values[-1]} if values else {"median": 0, "max": 0}

    return {"documents": summary(docs), "sentences": summary(sents)}


class MineSyndicated(MineWorkload):
    """A few base reviews republished under distinct ids, mode A.

    Every copy is checked: its judgments must equal the oracle's
    judgments of its base document, relabelled with the copy's id.
    """

    name = "mine_syndicated"

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        super().__init__(seed, sizes)
        self.bases = unique_reviews(
            sub_seed(seed, "syndicated/bases"), sizes.syndicated_bases, "camera:base:"
        )
        self.arrivals = syndicated_arrivals(
            sub_seed(seed, "syndicated/arrivals"), self.bases, sizes.copies, sizes.window
        )

    def inputs(self) -> dict[str, Any]:
        return {"mode_a": [(copy_id, text) for copy_id, text, _ in self.arrivals]}

    def manifest_extra(self) -> dict[str, Any]:
        splitter = SentenceSplitter(memo_size=0)
        sentences = {base_id: len(splitter.split_text(text)) for base_id, text in self.bases}
        return {"reuse_distance": reuse_distances(self.arrivals, sentences)}

    def mine_calls(self):
        docs = [(copy_id, text) for copy_id, text, _ in self.arrivals]
        return [("A", b) for b in _batches(docs, SYNDICATED_BATCH)]


# -- serving ------------------------------------------------------------------------


def request_stream(seed: int, count: int, subjects: list[str], queries: list[str]) -> list[tuple[str, dict, int]]:
    """(op, payload, priority) with the LoadProfile op mix, in seeded order.

    The mix is stratified rather than drawn: each op gets its exact share
    of *count* and the search queries take turns, so seeds change which
    subjects are asked about and in what order, not how much work a round
    holds.
    """
    profile = LoadProfile()
    rng = random.Random(seed)
    ops: list[str] = []
    for op, weight in profile.op_weights:
        ops.extend([op] * round(weight * count))
    ops = (ops + [profile.op_weights[0][0]] * count)[:count]
    rng.shuffle(ops)
    out = []
    searches = 0
    for op in ops:
        payload: dict[str, Any] = {}
        if op in ("counts", "sentences"):
            payload["subject"] = rng.choice(subjects)
            if op == "sentences" and rng.random() < 0.4:
                payload["polarity"] = rng.choice(["+", "-"])
        elif op == "search":
            payload["q"] = queries[searches % len(queries)]
            searches += 1
        out.append((op, payload, rng.choice(profile.priorities)))
    return out


def serving_queries() -> list[str]:
    feature, product = DIGITAL_CAMERA.features[0], DIGITAL_CAMERA.products[0]
    return [feature, f"{product} AND {feature}", f'"{feature}"', "re:/[a-z]+/"]


def request_key(op: str, payload: dict) -> str:
    return json.dumps([op, payload], sort_keys=True)


def _answer_ok(envelope: Any) -> bool:
    """A valid envelope with status ``ok``."""
    return envelope is not None and not validate_envelope(envelope) and envelope["meta"]["status"] == "ok"


def _answer_data(envelope: Any) -> Any:
    return envelope.get("data") if isinstance(envelope, dict) else envelope


def _serve(router: ServingRouter, op: str, payload: dict, priority: int, out: Round) -> Any:
    """One timed read; ``None`` when the call raised."""
    out.attempted += 1
    try:
        envelope, elapsed, op = out.clock.time(
            lambda: router.serve(op, payload, priority=priority, budget=READ_BUDGET)
        )
    except Exception:  # noqa: BLE001 — counted as a failed request by the caller
        return None
    out.wall_s += elapsed
    out.sample("read_ms", elapsed, op)
    return envelope


def wire_router(index: ReplicatedIndex, store: DataStore, latency_seed: int) -> ServingRouter:
    """A fresh router on a fresh bus: same latency stream, empty hedge window."""
    return ServingRouter(index, store, VinciBus(), latency_seed=latency_seed)


def build_static(documents: list[tuple[str, str]], latency_seed: int):
    """Mine, shard and wire a static index: the serving set-up."""
    miner = SentimentMiner(subjects=camera_subjects())
    index = ReplicatedIndex(SHARDS, NODES, replication=REPLICATION)
    store = DataStore()
    result = miner.mine_corpus(documents)
    index.add_judgments(result.polar_judgments())
    entities = [Entity(entity_id=doc_id, content=text) for doc_id, text in documents]
    index.add_entities(entities)
    store.store_all(Entity(entity_id=e.entity_id, content=e.content) for e in entities)
    return miner, index, store, wire_router(index, store, latency_seed)


class ServeRead(Workload):
    """Closed-loop reads, one client, against a static sharded index.

    Every round gets a freshly wired router over the set-up's index, so
    every round draws the same simulated latencies and hedges alike.
    """

    name = "serve_read"
    throughput_key = "req_per_s"
    throughput_samples = latency_key = "read_ms"
    tail_percentile = 0.99
    setup_per_round = False

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        super().__init__(seed, sizes)
        self.documents = unique_reviews(
            sub_seed(seed, "serve/docs"), sizes.serve_docs, "camera:review:"
        )
        subjects = [s.canonical for s in camera_subjects()]
        self.requests = request_stream(
            sub_seed(seed, "serve/requests"), sizes.round_requests, subjects, serving_queries()
        )

    def inputs(self) -> dict[str, Any]:
        return {"documents": self.documents, "requests": self.requests}

    def setup(self) -> tuple[ReplicatedIndex, DataStore, ServingRouter]:
        return build_static(self.documents, sub_seed(self.seed, "serve/latency"))[1:]

    def begin_round(self, ctx) -> ServingRouter:
        index, store, _ = ctx
        return wire_router(index, store, sub_seed(self.seed, "serve/latency"))

    def operate(self, router: ServingRouter, out: Round, rec: Recorder | None = None):
        envelopes = []
        for request_id, (op, payload, priority) in enumerate(self.requests):
            if rec is not None:
                rec.request_id = request_id
            envelopes.append(_serve(router, op, payload, priority, out))
        out.rates["req_per_s"] = _rate(len(out.samples.get("read_ms", ())), out.wall_s)
        return envelopes

    def verify(self, router, out: Round, envelopes: list) -> None:
        """Every answer must equal the unsharded services' answer."""
        digest = hashlib.sha256()
        for (op, payload, _), envelope in zip(self.requests, envelopes):
            data = _answer_data(envelope)
            if not _answer_ok(envelope) or fingerprint(data) != self.expected.get(request_key(op, payload)):
                out.failed += 1
            digest.update(repr(data).encode("utf-8"))
        out.digest = digest.hexdigest()


def delta_stream(
    seed: int, base: list[tuple[str, str]], batches: int, fresh: list[tuple[str, str]]
) -> list[list[tuple[str, str, str | None]]]:
    """Batches of (kind, id, text) deltas: two adds, one update, one delete.

    Adds take new ids, updates give a live document a new text, deletes
    remove a live document; no id is touched twice in one batch.
    Texts come from *fresh*, which holds texts not used anywhere else.
    """
    rng = random.Random(seed)
    live = [doc_id for doc_id, _ in base]
    texts = iter(text for _, text in fresh)
    next_id = 0
    out = []
    for _ in range(batches):
        batch = []
        touched: set[str] = set()
        for _ in range(2):
            doc_id = f"camera:added:{next_id:05d}"
            next_id += 1
            batch.append((DELTA_ADD, doc_id, next(texts)))
            touched.add(doc_id)
        candidates = [d for d in live if d not in touched]
        updated = rng.choice(candidates)
        batch.append((DELTA_UPDATE, updated, next(texts)))
        touched.add(updated)
        deleted = rng.choice([d for d in live if d not in touched])
        batch.append((DELTA_DELETE, deleted, None))
        live.remove(deleted)
        live.extend(doc_id for kind, doc_id, _ in batch if kind == DELTA_ADD)
        out.append(batch)
    return out


def replay(base: list[tuple[str, str]], batches: list[list[tuple[str, str, str | None]]]) -> list[tuple[str, str]]:
    """Final document versions in one-pass order: a write moves a doc last."""
    state: OrderedDict[str, str] = OrderedDict(base)
    for batch in batches:
        for kind, doc_id, text in batch:
            state.pop(doc_id, None)
            if kind != DELTA_DELETE:
                state[doc_id] = text
    return list(state.items())


class ServeIngest(Workload):
    """Delta batches through the live indexer, reads between batches."""

    name = "serve_ingest"
    throughput_key = "ingest_deltas_per_s"
    throughput_samples = "ingest_visible_ms"
    latency_key = "read_ms"

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        super().__init__(seed, sizes)
        self.base = unique_reviews(
            sub_seed(seed, "ingest/base"), sizes.ingest_base_docs, "camera:review:"
        )
        fresh = unique_reviews(
            sub_seed(seed, "ingest/fresh"),
            3 * sizes.ingest_batches,
            "camera:fresh:",
            exclude={text for _, text in self.base},
        )
        self.batches = delta_stream(
            sub_seed(seed, "ingest/deltas"), self.base, sizes.ingest_batches, fresh
        )
        subjects = [s.canonical for s in camera_subjects()]
        self.queries = serving_queries()
        self.subjects = subjects
        self.requests = request_stream(
            sub_seed(seed, "ingest/requests"),
            sizes.ingest_batches * sizes.reads_per_batch,
            subjects,
            self.queries,
        )
        rng = random.Random(sub_seed(seed, "ingest/checked"))
        self.checked = set(
            rng.sample(range(sizes.ingest_batches - 1), min(sizes.checked_batches, sizes.ingest_batches - 1))
        )

    def inputs(self) -> dict[str, Any]:
        return {"base": self.base, "deltas": self.batches, "requests": self.requests}

    def reads_after(self, batch_index: int) -> list[tuple[str, dict, int]]:
        """The reads served once batches 0..batch_index are visible."""
        per = self.sizes.reads_per_batch
        return self.requests[batch_index * per : (batch_index + 1) * per]

    def setup(self) -> tuple[ServingRouter, LiveIndexer, DataStore]:
        miner, index, store, router = build_static(self.base, sub_seed(self.seed, "ingest/latency"))
        live = LiveIndexer(index, DeltaIndexer(miner), policy=CompactionPolicy())
        return router, live, store

    def end_state_requests(self) -> list[tuple[str, dict]]:
        out: list[tuple[str, dict]] = [("subjects", {})]
        for subject in self.subjects:
            out.append(("counts", {"subject": subject}))
            out.append(("sentences", {"subject": subject}))
            out.append(("sentences", {"subject": subject, "polarity": "-"}))
        out.extend(("search", {"q": q}) for q in self.queries)
        return out

    def operate(self, ctx, out: Round, rec: Recorder | None = None):
        router, live, store = ctx
        reads = iter(self.requests)
        answers: list[tuple[int, str, dict, Any]] = []
        request_id = 0
        ingest_s = 0.0
        applied = 0
        for batch_index, batch in enumerate(self.batches):
            deltas = []
            for kind, doc_id, text in batch:
                if kind == DELTA_DELETE:
                    store.delete(doc_id)
                    deltas.append(DocumentDelta(kind=kind, entity_id=doc_id))
                else:
                    entity = Entity(entity_id=doc_id, content=text)
                    store.store(entity)
                    deltas.append(DocumentDelta(kind=kind, entity_id=doc_id, entity=entity))
            if rec is not None:
                rec.request_id = request_id
            request_id += 1
            out.attempted += len(deltas)
            try:
                _, elapsed, op = out.clock.time(lambda: live.apply_batch(deltas))
            except Exception:  # noqa: BLE001 — a failed batch fails its deltas
                out.failed += len(deltas)
                continue
            out.wall_s += elapsed
            out.sample("ingest_visible_ms", elapsed, op)
            ingest_s += elapsed
            applied += len(deltas)
            for _ in range(self.sizes.reads_per_batch):
                op, payload, priority = next(reads)
                if rec is not None:
                    rec.request_id = request_id
                request_id += 1
                answers.append((batch_index, op, payload, _serve(router, op, payload, priority, out)))
        out.rates["ingest_deltas_per_s"] = _rate(applied, ingest_s)
        out.rates["req_per_s"] = _rate(len(out.samples.get("read_ms", ())), out.wall_s - ingest_s)
        return answers

    def verify(self, ctx, out: Round, answers: list) -> None:
        """Every read answers ok; reads after the checked batches, and the
        end state, equal a one-pass build over the live document versions.

        :attr:`expected` maps a checked batch index, or ``"end"``, to
        request key → fingerprint.
        """
        router = ctx[0]
        digest = hashlib.sha256()
        for batch_index, op, payload, envelope in answers:
            data = _answer_data(envelope)
            if not _answer_ok(envelope):
                out.failed += 1
            elif batch_index in self.checked:
                if fingerprint(data) != self.expected[str(batch_index)].get(request_key(op, payload)):
                    out.failed += 1
            digest.update(repr(data).encode("utf-8"))
        final = self.expected["end"]
        for op, payload in self.end_state_requests():
            out.attempted += 1
            envelope = router.serve(op, payload, budget=READ_BUDGET)
            data = _answer_data(envelope)
            if not _answer_ok(envelope) or fingerprint(data) != final.get(request_key(op, payload)):
                out.failed += 1
            digest.update(repr(data).encode("utf-8"))
        out.digest = digest.hexdigest()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (MineUnique, MineSyndicated, ServeRead, ServeIngest)
}
