"""Wall-clock span recording around the program's public layer methods.

The program's own tracer runs on the simulated clock, so the benchmark
times layers from outside: :func:`installed` replaces each layer's
public methods (see :data:`PROBES`) with thin wrappers that record a
span per call on ``time.perf_counter`` into an in-memory
:class:`Recorder`, and puts the original methods back on exit.  Only
the traced run installs them; untraced runs call the program as it is.

A layer's *self time* is its span's duration minus the durations of
its direct child spans.  The program is single-threaded, so child
spans never overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.analyzer import SentimentAnalyzer
from repro.core.miner import SentimentMiner
from repro.core.spotting import AhoCorasickSpotter, NamedEntitySpotter
from repro.nlp.parse_cache import ParseMemo
from repro.nlp.parser import ShallowParser
from repro.nlp.postagger import PosTagger
from repro.nlp.sentences import SentenceSplitter
from repro.platform.indexer import InvertedIndex
from repro.platform.segments import (
    DeltaIndexer,
    InvertedSnapshot,
    LiveIndexer,
    SentimentSnapshot,
)
from repro.platform.serving.router import NodeIndexService, ServingRouter
from repro.platform.serving.shards import ReplicatedIndex, ShardReplica
from repro.platform.vinci import VinciBus

# Span record fields, kept as plain lists so recording stays cheap.
NAME, START, END, PARENT, REQUEST = range(5)


class Recorder:
    """In-memory span store: name, start, end, parent index, request id."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: Set by the benchmark loop before each request or mining call.
        self.request_id = 0
        #: (layer, counter) → total, for the per-layer work counts.
        self.counts: dict[tuple[str, str], float] = {}

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), 0.0, parent, self.request_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self._clock()
        self._stack.pop()

    def count(self, layer: str, counter: str, amount: float = 1) -> None:
        key = (layer, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()

    def write_jsonl(self, path: str) -> None:
        """Dump every span, times relative to the first span's start."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START] - origin,
                            "end": span[END] - origin,
                            "parent": span[PARENT],
                            "request_id": span[REQUEST],
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list[Any]]) -> dict[str, tuple[int, float]]:
    """Layer name → (calls, self seconds) over a finished span list."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, tuple[int, float]] = {}
    for index, span in enumerate(spans):
        calls, total = out.get(span[NAME], (0, 0.0))
        out[span[NAME]] = (
            calls + 1,
            total + (span[END] - span[START]) - child_time[index],
        )
    return out


# -- what each probe counts besides calls and time ------------------------------


def _memo_before(obj: Any) -> int:
    return obj.memo_hits


def _memo_hits_after(layer: str):
    def post(rec: Recorder, obj: Any, result: Any, before: int) -> None:
        rec.count(layer, "memo_hits", obj.memo_hits - before)

    return post


def _parse_memo_hit(rec: Recorder, obj: Any, result: Any, before: Any) -> None:
    rec.count("nlp.parse_cache", "memo_hits", 1 if result[1] else 0)


def _spots(rec: Recorder, obj: Any, result: Any, before: Any) -> None:
    rec.count("core.spotting", "spots", len(result))


def _judged(rec: Recorder, obj: Any, result: Any, before: Any) -> None:
    rec.count("core.analyzer", "judged", len(result))
    rec.count("core.analyzer", "polar", sum(1 for j in result if j.polarity.is_polar))


def _segments(rec: Recorder, obj: Any, result: Any, before: Any) -> None:
    rec.count("platform.segments.snapshot", "views", 1)
    rec.count("platform.segments.snapshot", "segments", len(result.segment_versions))


def _rewritten(rec: Recorder, obj: Any, result: Any, before: Any) -> None:
    rec.count("platform.serving.shards.compact", "rewritten_docs", result[1])


@dataclass(frozen=True)
class Probe:
    """One wrapped method: ``owner.attr`` timed as ``layer``."""

    owner: type
    attr: str
    layer: str
    pre: Callable[[Any], Any] | None = None
    post: Callable[[Recorder, Any, Any, Any], None] | None = None


#: Every wrapped public method, grouped by the layer it is timed as.
#: ``core.disambiguation`` is absent on purpose: no shipped pipeline
#: configures a disambiguator, so nothing would call it.
PROBES: tuple[Probe, ...] = (
    Probe(SentenceSplitter, "split_text", "nlp.sentences",
          _memo_before, _memo_hits_after("nlp.sentences")),
    Probe(PosTagger, "tag", "nlp.postagger",
          _memo_before, _memo_hits_after("nlp.postagger")),
    Probe(ParseMemo, "parse_with_status", "nlp.parse_cache", post=_parse_memo_hit),
    Probe(ShallowParser, "parse", "nlp.parser"),
    Probe(AhoCorasickSpotter, "spot_document", "core.spotting", post=_spots),
    Probe(NamedEntitySpotter, "spot_sentence", "core.spotting", post=_spots),
    Probe(SentimentAnalyzer, "judge_spots", "core.analyzer", post=_judged),
    Probe(SentimentMiner, "mine_batch", "core.miner"),
    Probe(SentimentMiner, "mine_document", "core.miner"),
    Probe(SentimentMiner, "mine_open_corpus", "core.miner"),
    Probe(SentimentMiner, "mine_open_document", "core.miner"),
    Probe(ServingRouter, "serve", "platform.serving.router"),
    Probe(VinciBus, "request", "platform.vinci"),
    # The router registers each node's bound ``handle`` on the bus when
    # it is built, before any probe is installed, so the node layer is
    # timed at the per-op answers ``handle`` dispatches to; the rest of
    # ``handle`` (liveness, deadline, replica lookup) counts as bus time.
    Probe(NodeIndexService, "answer_counts", "platform.serving.router.node"),
    Probe(NodeIndexService, "answer_sentences", "platform.serving.router.node"),
    Probe(NodeIndexService, "answer_subjects", "platform.serving.router.node"),
    Probe(NodeIndexService, "answer_search", "platform.serving.router.node"),
    Probe(ShardReplica, "view", "platform.segments.snapshot", post=_segments),
    Probe(SentimentSnapshot, "query", "platform.segments.snapshot"),
    Probe(SentimentSnapshot, "counts", "platform.segments.snapshot"),
    Probe(SentimentSnapshot, "subject_counts", "platform.segments.snapshot"),
    Probe(InvertedSnapshot, "search", "platform.segments.snapshot"),
    Probe(InvertedIndex, "search", "platform.indexer"),
    Probe(DeltaIndexer, "index_batch", "platform.segments.delta_indexer"),
    Probe(ReplicatedIndex, "absorb", "platform.serving.shards.absorb"),
    Probe(ReplicatedIndex, "compact", "platform.serving.shards.compact", post=_rewritten),
    Probe(LiveIndexer, "apply_batch", "platform.segments.live_indexer"),
)

#: Layer names in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p.layer for p in PROBES))


def _wrap(original: Callable, probe: Probe, rec: Recorder) -> Callable:
    layer, pre, post = probe.layer, probe.pre, probe.post

    @functools.wraps(original)
    def traced(self, *args, **kwargs):
        # A call re-entering its own layer (counts → query, mine_open_corpus
        # → mine_open_document) stays inside the outer span.
        if rec.current == layer:
            return original(self, *args, **kwargs)
        before = pre(self) if pre is not None else None
        index = rec.open(layer)
        try:
            result = original(self, *args, **kwargs)
        finally:
            rec.close(index)
        if post is not None:
            post(rec, self, result, before)
        return result

    return traced


@contextlib.contextmanager
def installed(rec: Recorder, probes: tuple[Probe, ...] = PROBES) -> Iterator[Recorder]:
    """Wrap every probe's method for the duration of the block.

    On exit each class gets back exactly what it had: the original
    function object where the class defined the method itself, and no
    attribute at all where it inherited it.
    """
    saved: list[tuple[type, str, Any]] = []
    try:
        for probe in probes:
            own = probe.owner.__dict__.get(probe.attr)
            saved.append((probe.owner, probe.attr, own))
            original = getattr(probe.owner, probe.attr)
            setattr(probe.owner, probe.attr, _wrap(original, probe, rec))
        yield rec
    finally:
        for owner, attr, own in reversed(saved):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer calls, self time and work counts for one traced round.

    ``unattributed_s`` is the round's wall time that no layer span
    covers: the benchmark's own loop plus program code outside every
    wrapped method.
    """
    times = self_times(rec.spans)
    counts = rec.counts
    out: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        calls, self_s = times.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
        attributed += self_s
    for layer in ("nlp.sentences", "nlp.postagger", "nlp.parse_cache"):
        out[f"{layer}.memo_hit_ratio"] = _ratio(
            counts.get((layer, "memo_hits"), 0), out[f"{layer}.calls"]
        )
    out["core.spotting.spots"] = counts.get(("core.spotting", "spots"), 0)
    out["core.analyzer.polar_ratio"] = _ratio(
        counts.get(("core.analyzer", "polar"), 0),
        counts.get(("core.analyzer", "judged"), 0),
    )
    out["platform.vinci.fanout"] = _ratio(
        out["platform.vinci.calls"], out["platform.serving.router.calls"]
    )
    out["platform.segments.snapshot.segments_per_read"] = _ratio(
        counts.get(("platform.segments.snapshot", "segments"), 0),
        counts.get(("platform.segments.snapshot", "views"), 0),
    )
    out["platform.serving.shards.compact.rewritten_docs"] = counts.get(
        ("platform.serving.shards.compact", "rewritten_docs"), 0
    )
    out["unattributed_s"] = max(0.0, wall_s - attributed)
    return out
