"""The serving front door: deadlines, shedding, breakers, hedged reads.

This is the query-time half of the paper's mode B hardened for the
ROADMAP's "heavy traffic from millions of users" target.  One
:class:`ServingRouter` fronts a :class:`~.shards.ReplicatedIndex` whose
replicas live on simulated nodes behind the Vinci bus:

* **admission control** — a bounded queue; when full, the lowest
  priority request is shed with an explicit ``503``-style envelope
  (never a silent drop, never an unbounded queue);
* **deadline propagation** — every request carries a budget; each
  downstream shard read gets the *remainder*; work that cannot finish
  inside the remainder is cancelled, and no response is ever surfaced
  after its deadline;
* **per-service circuit breakers** — one
  :class:`~.breaker.CircuitBreaker` per node endpoint; open breakers
  fast-fail without touching the bus (no retry budget consumed);
* **hedged reads** — when the drawn latency of the chosen replica is
  above the adaptive latency percentile, the read races a second
  replica and the first answer wins; the loser is cancelled and its
  cost never charged;
* **graceful degradation** — a shard with no live replica is reported
  in ``missing_shards`` and the response is flagged ``degraded`` with
  partial counts instead of erroring.

All timing is simulated (:class:`~repro.obs.clock.SimClock`) and all
randomness is seeded, so a chaos run produces byte-identical reports
for a given seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ...core.model import Polarity
from ...obs import Obs
from ...obs.context import ROOT, extract_context, with_trace
from ...obs.slo import SLOMonitor
from ..api import (
    ERR_BAD_CURSOR,
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_SHED,
    CursorError,
    Envelope,
    decode_cursor,
    error_envelope,
    make_meta,
    ok_envelope,
    paginate,
)
from ..datastore import DataStore
from ..faults import FaultPlan
from ..query import QueryParseError, parse_query
from ..segments import ReplicaSnapshot
from ..services import sentence_around
from ..vinci import VinciBus, VinciError
from .breaker import CircuitBreaker
from .deadline import Deadline
from .shards import ReplicatedIndex, ShardReplica

#: Response statuses and their HTTP-flavoured codes.
STATUS_OK = "ok"  # 200 — complete answer
STATUS_DEGRADED = "degraded"  # 206 — partial answer, shards missing
STATUS_ERROR = "error"  # 400 — malformed request
STATUS_SHED = "shed"  # 503 — load-shed by admission control
STATUS_EXPIRED = "expired"  # 504 — deadline passed, work cancelled

STATUS_CODES = {
    STATUS_OK: 200,
    STATUS_DEGRADED: 206,
    STATUS_ERROR: 400,
    STATUS_SHED: 503,
    STATUS_EXPIRED: 504,
}

#: Ops answered by the serving layer.
OPS = ("counts", "sentences", "subjects", "search")

#: Default request budget, in simulated work units.
DEFAULT_BUDGET = 4.0

#: Default per-op row limits (mirror the unsharded services).
_DEFAULT_LIMITS = {"sentences": 20, "subjects": 50, "search": 100}

#: Budget handed to recovery probes — tiny on purpose: a probe that
#: cannot answer a ping almost instantly should not be re-admitted.
PROBE_BUDGET = 0.5


def node_service(node_id: int) -> str:
    """Vinci service name of one node's serving endpoint."""
    return f"serving.node{node_id}"


@dataclass(frozen=True)
class LatencyProfile:
    """Seeded per-read latency distribution (simulated units).

    Reads cost ``uniform(base_min, base_max)``; a ``slow_fraction`` of
    them land on a slow replica/GC pause and cost ``slow_multiplier``
    times more — the tail hedged reads exist to cut.
    """

    base_min: float = 0.04
    base_max: float = 0.12
    slow_fraction: float = 0.08
    slow_multiplier: float = 8.0


class LatencyModel:
    """Draws deterministic read latencies from a seeded RNG."""

    def __init__(self, seed: int, profile: LatencyProfile | None = None):
        self._rng = random.Random(seed)
        self.profile = profile or LatencyProfile()

    def draw(self, node_id: int) -> float:
        p = self.profile
        latency = p.base_min + self._rng.random() * (p.base_max - p.base_min)
        if self._rng.random() < p.slow_fraction:
            latency *= p.slow_multiplier
        return latency


@dataclass(frozen=True)
class ServingRequest:
    """One front-door request."""

    request_id: int
    op: str
    payload: dict[str, Any]
    priority: int = 1  # higher = more important, shed last
    budget: float = DEFAULT_BUDGET


@dataclass
class _QueueEntry:
    request: ServingRequest
    deadline: Deadline
    submitted_at: float
    payload: dict[str, Any] = field(default_factory=dict)  # validated/normalised


class NodeIndexService:
    """One node's serving endpoint: every shard replica it hosts.

    The Vinci-facing :meth:`handle` unpacks the propagated budget into a
    :class:`Deadline` and dispatches to the per-op ``answer_*`` methods,
    all of which take the deadline explicitly (lint rule PLAT002).
    """

    def __init__(
        self,
        node_id: int,
        index: ReplicatedIndex,
        store: DataStore,
        obs: Obs,
        fault_plan: FaultPlan | None = None,
    ):
        self.node_id = node_id
        self._store = store
        self._obs = obs
        self._fault_plan = fault_plan
        # The index is consulted live (never cached): the recovery
        # manager adds and drops replicas while the cluster serves, and
        # a node must answer for whatever it hosts *now*.
        self._index = index

    @property
    def shard_ids(self) -> list[int]:
        return sorted(
            replica.shard_id for replica in self._index.replicas_on(self.node_id)
        )

    def handle(self, payload: dict[str, Any]) -> Envelope:
        """Vinci handler: dict payload in, v1 envelope out.

        The read goes through a :class:`~repro.platform.segments.ReplicaSnapshot`
        at the version the router pinned for the request, so an absorb or
        compaction racing the read never produces a torn view.  The span
        joins the caller's trace: in-process the bus's ``vinci.attempt``
        span is already on the stack; invoked out-of-band, the context
        threaded into the payload supplies the parent instead.
        """
        parent = (
            extract_context(payload) if self._obs.tracer.current is None else None
        )
        with self._obs.tracer.span(
            "serving.node_read",
            parent=parent,
            node=self.node_id,
            op=payload.get("op", ""),
            shard=payload.get("shard"),
        ):
            if self._fault_plan is not None and self._fault_plan.node_down(
                self.node_id, self._obs.clock.now
            ):
                raise VinciError(f"node {self.node_id} is down")
            deadline = Deadline(self._obs.clock, float(payload.get("budget", 0.0)))
            op = payload.get("op", "")
            if op == "ping":
                return self.answer_ping(payload, deadline)
            shard_id = payload.get("shard")
            replica = (
                self._index.replica_on(self.node_id, shard_id)
                if shard_id is not None
                else None
            )
            if replica is None:
                raise VinciError(
                    f"node {self.node_id} hosts no replica of shard {shard_id!r}"
                )
            snapshot = replica.view(payload.get("version"))
            if op == "counts":
                return self.answer_counts(snapshot, payload, deadline)
            if op == "sentences":
                return self.answer_sentences(snapshot, payload, deadline)
            if op == "subjects":
                return self.answer_subjects(snapshot, payload, deadline)
            if op == "search":
                return self.answer_search(snapshot, payload, deadline)
            raise VinciError(f"unknown serving op {op!r}")

    # -- per-op answers (each accepts and honours the propagated Deadline) ------

    def answer_ping(self, payload: dict[str, Any], deadline: Deadline) -> Envelope:
        """Liveness probe: reaching this line at all means the node is up."""
        deadline.check("ping")
        return ok_envelope({"node": self.node_id, "status": "up"})

    def answer_counts(
        self, snapshot: ReplicaSnapshot, payload: dict[str, Any], deadline: Deadline
    ) -> Envelope:
        deadline.check("counts")
        subject = payload["subject"]
        counts = snapshot.sentiment.counts(subject)
        return ok_envelope(
            {
                "subject": subject,
                "positive": counts[Polarity.POSITIVE],
                "negative": counts[Polarity.NEGATIVE],
            }
        )

    def answer_sentences(
        self, snapshot: ReplicaSnapshot, payload: dict[str, Any], deadline: Deadline
    ) -> Envelope:
        deadline.check("sentences")
        subject = payload["subject"]
        polarity = payload.get("polarity")
        wanted = Polarity.from_symbol(polarity) if polarity else None
        limit = payload.get("limit", _DEFAULT_LIMITS["sentences"])
        rows = []
        for entry in snapshot.sentiment.query(subject, wanted)[:limit]:
            entity = self._store.get(entry.entity_id)
            snippet = ""
            if entity is not None:
                snippet = sentence_around(entity.content, entry.start, entry.end)
            rows.append(
                {
                    "entity_id": entry.entity_id,
                    "polarity": entry.polarity.value,
                    "sentence": snippet,
                }
            )
        return ok_envelope({"subject": subject, "rows": rows})

    def answer_subjects(
        self, snapshot: ReplicaSnapshot, payload: dict[str, Any], deadline: Deadline
    ) -> Envelope:
        deadline.check("subjects")
        return ok_envelope({"counts": snapshot.sentiment.subject_counts()})

    def answer_search(
        self, snapshot: ReplicaSnapshot, payload: dict[str, Any], deadline: Deadline
    ) -> Envelope:
        deadline.check("search")
        ids = snapshot.inverted.search(payload["query_ast"])
        return ok_envelope({"ids": sorted(ids)})


class ServingRouter:
    """The resilient mode-B front door (see module docstring)."""

    def __init__(
        self,
        index: ReplicatedIndex,
        store: DataStore,
        bus: VinciBus,
        *,
        obs: Obs | None = None,
        fault_plan: FaultPlan | None = None,
        queue_limit: int = 32,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        hedge_threshold: float | None = None,
        hedge_percentile: float = 0.95,
        hedge_warmup: int = 20,
        latency_seed: int = 0,
        latency_model: LatencyModel | None = None,
        request_overhead: float = 0.01,
        slo: SLOMonitor | None = None,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if not 0.0 < hedge_percentile < 1.0:
            raise ValueError("hedge_percentile must lie in (0, 1)")
        self._index = index
        self._store = store
        self._bus = bus
        self._obs = obs if obs is not None else bus.obs
        self._fault_plan = fault_plan
        self._queue_limit = queue_limit
        # Bounded by construction (PLAT002): admission control below
        # sheds explicitly before this maxlen could ever evict silently.
        self._queue: deque[_QueueEntry] = deque(maxlen=queue_limit)
        self._pending: list[tuple[ServingRequest, dict[str, Any]]] = []
        self._latency = latency_model or LatencyModel(latency_seed)
        self._hedge_threshold = hedge_threshold
        self._hedge_percentile = hedge_percentile
        self._hedge_warmup = hedge_warmup
        # Recent winner latencies for the adaptive hedge percentile,
        # plus the same samples kept sorted so the percentile is one
        # index lookup rather than a sort per shard read.
        self._latency_window: deque[float] = deque(maxlen=128)
        self._latency_sorted: list[float] = []
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        # Fixed parse/dispatch cost charged per processed request.  It
        # keeps simulated time moving even when every read fast-fails,
        # so breaker cooldowns always eventually elapse (otherwise a
        # fully-open fleet would freeze the clock and never recover).
        self._request_overhead = max(0.0, request_overhead)
        self._next_request_id = 1
        self._slo = slo
        metrics = self._obs.metrics
        self._queue_depth = metrics.gauge("serving.queue_depth")
        self._queue_wait = metrics.histogram("serving.queue_wait")
        self._latency_hist = metrics.histogram("serving.latency")
        self._request_latency = metrics.histogram("serving.request_latency")
        self._hedges = metrics.counter("serving.hedges")
        self._hedge_wins = metrics.counter("serving.hedge_wins")
        self._failovers = metrics.counter("serving.failovers")
        for node_id in range(index.num_nodes):
            service = NodeIndexService(node_id, index, store, self._obs, fault_plan)
            bus.register(node_service(node_id), service.handle)
            self._breakers[node_service(node_id)] = CircuitBreaker(
                node_service(node_id),
                self._obs,
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
            )

    # -- introspection ----------------------------------------------------------

    @property
    def obs(self) -> Obs:
        return self._obs

    @property
    def bus(self) -> VinciBus:
        return self._bus

    @property
    def index(self) -> ReplicatedIndex:
        return self._index

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def slo(self) -> SLOMonitor | None:
        return self._slo

    def breaker(self, service: str) -> CircuitBreaker:
        return self._breakers[service]

    def breaker_snapshots(self) -> list[dict[str, Any]]:
        return [self._breakers[name].snapshot() for name in sorted(self._breakers)]

    def probe_node(self, node_id: int) -> bool:
        """Explicitly probe one node's endpoint for re-admission.

        The recovery manager calls this for rejoined nodes (in sorted
        node order, so re-admission is deterministic).  The breaker
        decides whether a probe may go out at all
        (:meth:`CircuitBreaker.probe`); the probe itself is a ``ping``
        through the bus, so it exercises the same fault plan and death
        checks as real traffic.  Returns True when the node answered
        and its breaker closed.
        """
        service = node_service(node_id)
        breaker = self._breakers[service]
        if not breaker.probe():
            return False
        with self._obs.tracer.span(
            "serving.probe", parent=ROOT, node=node_id
        ) as span:
            try:
                self._bus.request(
                    service,
                    with_trace(
                        {"op": "ping", "budget": PROBE_BUDGET},
                        self._obs.tracer.current_context,
                    ),
                )
            except VinciError as exc:
                breaker.record_failure()
                span.set_attribute("result", f"refused: {exc}")
                return False
            breaker.record_success()
            span.set_attribute("result", "admitted")
            return True

    # -- request construction ---------------------------------------------------

    def make_request(
        self,
        op: str,
        payload: dict[str, Any] | None = None,
        *,
        priority: int = 1,
        budget: float = DEFAULT_BUDGET,
    ) -> ServingRequest:
        request = ServingRequest(
            request_id=self._next_request_id,
            op=op,
            payload=dict(payload or {}),
            priority=priority,
            budget=budget,
        )
        self._next_request_id += 1
        return request

    # -- admission control ------------------------------------------------------

    def submit(self, request: ServingRequest) -> dict[str, Any] | None:
        """Admit a request; returns an envelope only when answered now.

        Malformed requests come back immediately as ``error`` envelopes;
        a full queue sheds either the lowest-priority queued request
        (its envelope surfaces on the next :meth:`drain`) or, when
        nothing queued is lower-priority, the incoming request itself.
        Returns ``None`` when the request was queued.
        """
        now = self._obs.clock.now
        self._obs.metrics.counter("serving.requests", op=request.op or "?").inc()
        error, payload = self._validate(request)
        if error is not None:
            code, message = error
            return self._finish_rooted(
                request, STATUS_ERROR, None, started_at=now,
                error_code=code, message=message,
            )
        deadline = Deadline(self._obs.clock, request.budget)
        entry = _QueueEntry(
            request=request, deadline=deadline, submitted_at=now, payload=payload
        )
        if len(self._queue) >= self._queue_limit:
            victim = min(
                self._queue,
                key=lambda e: (e.request.priority, -e.request.request_id),
            )
            if victim.request.priority < request.priority:
                # Shed the lowest-priority queued request to make room.
                self._queue.remove(victim)
                self._pending.append(
                    (
                        victim.request,
                        self._finish_rooted(
                            victim.request,
                            STATUS_SHED,
                            None,
                            started_at=victim.submitted_at,
                            message="shed by higher-priority arrival",
                        ),
                    )
                )
            else:
                return self._finish_rooted(
                    request,
                    STATUS_SHED,
                    None,
                    started_at=now,
                    message="queue full",
                )
        self._queue.append(entry)
        self._queue_depth.set(len(self._queue))
        return None

    def drain(self) -> list[tuple[ServingRequest, dict[str, Any]]]:
        """Serve every queued request FIFO; returns (request, envelope)."""
        out = list(self._pending)
        self._pending.clear()
        while self._queue:
            entry = self._queue.popleft()
            self._queue_depth.set(len(self._queue))
            out.append((entry.request, self._process(entry)))
        return out

    def serve(
        self,
        op: str,
        payload: dict[str, Any] | None = None,
        *,
        priority: int = 1,
        budget: float = DEFAULT_BUDGET,
    ) -> dict[str, Any]:
        """Submit one request and drain it — the single-caller fast path."""
        request = self.make_request(op, payload, priority=priority, budget=budget)
        immediate = self.submit(request)
        if immediate is not None:
            return immediate
        for drained, envelope in self.drain():
            if drained.request_id == request.request_id:
                return envelope
        raise AssertionError("submitted request vanished from the queue")

    # -- validation -------------------------------------------------------------

    def _validate(
        self, request: ServingRequest
    ) -> tuple[tuple[str, str] | None, dict[str, Any]]:
        """Returns ``((error_code, message), {})`` or ``(None, payload)``."""
        if request.op not in OPS:
            return (ERR_BAD_REQUEST, f"unknown op {request.op!r}"), {}
        if not isinstance(request.payload, dict):
            return (ERR_BAD_REQUEST, "payload must be a dict envelope"), {}
        if request.budget <= 0:
            return (ERR_BAD_REQUEST, "budget must be positive"), {}
        payload = dict(request.payload)
        limit = payload.get("limit", _DEFAULT_LIMITS.get(request.op))
        if limit is not None:
            if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
                return (
                    ERR_BAD_REQUEST,
                    f"limit must be a non-negative integer, got {limit!r}",
                ), {}
        payload["limit"] = limit
        cursor = payload.get("cursor")
        if cursor is not None:
            if request.op not in ("subjects", "search"):
                return (
                    ERR_BAD_REQUEST,
                    f"op {request.op!r} does not support cursors",
                ), {}
            try:
                body = decode_cursor(cursor)
            except CursorError as exc:
                return (ERR_BAD_CURSOR, str(exc)), {}
            if body.get("o") != request.op:
                return (
                    ERR_BAD_CURSOR,
                    f"cursor is for {body.get('o')!r} results, not {request.op!r}",
                ), {}
        if request.op in ("counts", "sentences"):
            subject = payload.get("subject")
            if not subject or not isinstance(subject, str):
                return (ERR_BAD_REQUEST, "missing required field 'subject'"), {}
            polarity = payload.get("polarity")
            if polarity not in (None, "+", "-"):
                return (
                    ERR_BAD_REQUEST,
                    f"polarity must be '+', '-' or absent, got {polarity!r}",
                ), {}
        if request.op == "search":
            query = payload.get("q")
            if not query or not isinstance(query, str):
                return (ERR_BAD_REQUEST, "missing required field 'q'"), {}
            try:
                payload["query_ast"] = parse_query(query)
            except QueryParseError as exc:
                return (ERR_BAD_REQUEST, f"bad query: {exc}"), {}
        return None, payload

    # -- the serving pipeline ---------------------------------------------------

    def _process(self, entry: _QueueEntry) -> Envelope:
        request, deadline = entry.request, entry.deadline
        # Every request is its own trace: parent=ROOT keeps a drain loop
        # from chaining unrelated requests under whatever span is open.
        with self._obs.tracer.span(
            "serving.request",
            parent=ROOT,
            op=request.op,
            request_id=request.request_id,
        ) as span:
            self._queue_wait.observe(
                self._obs.clock.now - entry.submitted_at, trace_id=span.trace_id
            )
            self._obs.clock.advance(self._request_overhead)
            if deadline.expired:
                envelope = self._finish(
                    request,
                    STATUS_EXPIRED,
                    None,
                    started_at=entry.submitted_at,
                    message="deadline expired while queued",
                )
            else:
                envelope = self._answer(entry)
            span.set_attribute("status", envelope["meta"]["status"])
            return envelope

    def _answer(self, entry: _QueueEntry) -> Envelope:
        request, deadline, payload = entry.request, entry.deadline, entry.payload
        if request.op in ("counts", "sentences"):
            shard_ids = [self._index.subject_shard(payload["subject"])]
        else:
            shard_ids = list(self._index.shard_ids())
        results: dict[int, dict[str, Any]] = {}
        missing: list[int] = []
        hedged = 0
        # Pin the segment set for the whole request: every shard read in
        # this fan-out sees the same version, and compaction cannot fold
        # segments a still-running read depends on (no torn views).
        version = self._index.pin()
        try:
            for shard_id in shard_ids:
                if deadline.expired:
                    break
                read = self._read_shard(
                    shard_id, request.op, payload, deadline, version
                )
                hedged += read["hedged"]
                if read["served"]:
                    results[shard_id] = read["data"]
                else:
                    missing.append(shard_id)
        finally:
            self._index.release(version)
        # The contract: nothing is ever served after its deadline.
        if deadline.expired:
            return self._finish(
                request,
                STATUS_EXPIRED,
                None,
                started_at=entry.submitted_at,
                hedged=hedged,
                message="deadline expired during shard reads",
            )
        data, cursor = self._merge(request.op, payload, shard_ids, results)
        status = STATUS_OK if not missing else STATUS_DEGRADED
        return self._finish(
            request,
            status,
            data,
            started_at=entry.submitted_at,
            missing=missing,
            hedged=hedged,
            cursor=cursor,
        )

    def _read_shard(
        self,
        shard_id: int,
        op: str,
        payload: dict[str, Any],
        deadline: Deadline,
        version: int,
    ) -> dict[str, Any]:
        """One shard read with breaker gating, hedging, and failover."""
        candidates = self._index.replicas_for(shard_id)
        hedged = 0
        with self._obs.tracer.span("serving.shard_read", shard=shard_id, op=op) as span:
            while candidates and not deadline.expired:
                replica = self._next_allowed(candidates)
                if replica is None:
                    break  # every breaker open: fast-fail the whole shard
                candidates.remove(replica)
                latency = self._latency.draw(replica.node_id)
                # Hedged read: a draw above the latency percentile races
                # the next healthy replica; first answer wins, the loser
                # is cancelled (its latency is never charged).
                if latency >= self._current_hedge_threshold():
                    alternate = self._next_allowed(candidates)
                    if alternate is not None:
                        self._hedges.inc()
                        hedged += 1
                        alt_latency = self._latency.draw(alternate.node_id)
                        with self._obs.tracer.span(
                            "serving.hedge",
                            shard=shard_id,
                            primary=replica.node_id,
                            alternate=alternate.node_id,
                        ) as hedge_span:
                            if alt_latency < latency:
                                self._hedge_wins.inc()
                                candidates.remove(alternate)
                                # cancelled, still healthy
                                candidates.insert(0, replica)
                                replica, latency = alternate, alt_latency
                            hedge_span.set_attribute("winner", replica.node_id)
                remaining = deadline.remaining
                if latency >= remaining:
                    # This replica cannot answer inside the budget:
                    # cancel before starting (no time charged, nothing
                    # served late) and let another replica try.
                    self._obs.metrics.counter("serving.cancelled_reads").inc()
                    continue
                self._obs.clock.advance(latency)
                self._record_latency(latency)
                self._latency_hist.observe(latency, trace_id=span.trace_id)
                service = node_service(replica.node_id)
                breaker = self._breakers[service]
                try:
                    response = self._bus.request(
                        service,
                        with_trace(
                            {
                                "op": op,
                                "shard": shard_id,
                                "budget": deadline.remaining,
                                "version": version,
                                **{
                                    k: v
                                    for k, v in payload.items()
                                    if k in ("subject", "polarity", "limit", "query_ast")
                                },
                            },
                            self._obs.tracer.current_context,
                        ),
                    )
                except VinciError:
                    breaker.record_failure()
                    self._failovers.inc()
                    continue  # fail over to the next replica
                breaker.record_success()
                span.set_attribute("node", replica.node_id)
                span.set_attribute("hedged", hedged)
                # Node services speak v1 envelopes too; unwrap the data.
                return {
                    "served": True,
                    "data": response["data"],
                    "node": replica.node_id,
                    "hedged": hedged,
                }
            span.set_attribute("missed", True)
            return {"served": False, "data": None, "node": None, "hedged": hedged}

    def _next_allowed(self, candidates: list[ShardReplica]) -> ShardReplica | None:
        """First replica whose breaker admits a request right now.

        Each denial is both counted (``serving.breaker_fastfails``, by
        the breaker) and traced (one ``serving.fastfail`` span), so a
        dump shows exactly which requests an open breaker turned away.
        """
        for replica in candidates:
            service = node_service(replica.node_id)
            if self._breakers[service].allow():
                return replica
            with self._obs.tracer.span("serving.fastfail", service=service):
                pass
        return None

    def _record_latency(self, latency: float) -> None:
        """Slide the hedge window, keeping its sorted copy in step."""
        window, ordered = self._latency_window, self._latency_sorted
        if len(window) == window.maxlen:
            del ordered[bisect_left(ordered, window[0])]
        window.append(latency)
        insort(ordered, latency)

    def _current_hedge_threshold(self) -> float:
        if self._hedge_threshold is not None:
            return self._hedge_threshold
        ordered = self._latency_sorted
        if len(ordered) < self._hedge_warmup:
            return float("inf")  # no hedging until the percentile is meaningful
        return ordered[int(self._hedge_percentile * (len(ordered) - 1))]

    # -- merging & envelopes ----------------------------------------------------

    def _merge(
        self,
        op: str,
        payload: dict[str, Any],
        shard_ids: list[int],
        results: dict[int, dict[str, Any]],
    ) -> tuple[dict[str, Any], str | None]:
        """Merge shard answers; returns ``(data, continuation_cursor)``.

        ``subjects`` and ``search`` paginate with opaque cursors keyed on
        the sort position of the last row (not an offset), so a cursor
        minted before a segment merge still resumes correctly after it.
        """
        if op == "counts":
            data = {"subject": payload["subject"], "positive": 0, "negative": 0}
            for shard_data in results.values():
                data["positive"] += shard_data["positive"]
                data["negative"] += shard_data["negative"]
            return data, None
        if op == "sentences":
            rows: list[dict[str, Any]] = []
            for shard_id in shard_ids:
                rows.extend(results.get(shard_id, {}).get("rows", ()))
            return (
                {"subject": payload["subject"], "rows": rows[: payload["limit"]]},
                None,
            )
        if op == "subjects":
            totals: dict[str, int] = {}
            for shard_id in shard_ids:
                for subject, count in results.get(shard_id, {}).get("counts", {}).items():
                    totals[subject] = totals.get(subject, 0) + count
            ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
            page, cursor = paginate(
                ranked,
                limit=payload["limit"],
                cursor=payload.get("cursor"),
                kind="subjects",
                sort_key=lambda kv: (-kv[1], kv[0]),
            )
            return {"subjects": [name for name, _ in page]}, cursor
        if op == "search":
            ids: set[str] = set()
            for shard_id in shard_ids:
                ids.update(results.get(shard_id, {}).get("ids", ()))
            page, cursor = paginate(
                sorted(ids),
                limit=payload["limit"],
                cursor=payload.get("cursor"),
                kind="search",
                sort_key=lambda entity_id: entity_id,
            )
            return {"q": payload["q"], "total": len(ids), "ids": page}, cursor
        raise AssertionError(f"unhandled op {op!r}")  # pragma: no cover

    def _finish(
        self,
        request: ServingRequest,
        status: str,
        data: dict[str, Any] | None,
        *,
        started_at: float,
        missing: list[int] | None = None,
        hedged: int = 0,
        cursor: str | None = None,
        error_code: str | None = None,
        message: str = "",
    ) -> Envelope:
        """Wrap an outcome in the v1 envelope (the only response shape)."""
        self._obs.metrics.counter("serving.responses", status=status).inc()
        current = self._obs.tracer.current
        trace_id = current.trace_id if current is not None else 0
        latency = self._obs.clock.now - started_at
        self._request_latency.observe(latency, trace_id=trace_id)
        if self._slo is not None:
            self._slo.record_request(status, latency)
        meta = make_meta(
            degraded=status == STATUS_DEGRADED,
            missing_shards=missing or [],
            shed=status == STATUS_SHED,
            cursor=cursor,
            status=status,
            code=STATUS_CODES[status],
            request_id=request.request_id,
            op=request.op,
            hedged=hedged,
            latency=latency,
            trace_id=trace_id,
        )
        if status in (STATUS_OK, STATUS_DEGRADED):
            return ok_envelope(data, meta=meta)
        if error_code is None:
            error_code = {
                STATUS_ERROR: ERR_BAD_REQUEST,
                STATUS_SHED: ERR_SHED,
                STATUS_EXPIRED: ERR_DEADLINE,
            }[status]
        return error_envelope(error_code, message, meta=meta)

    def _finish_rooted(
        self,
        request: ServingRequest,
        status: str,
        data: dict[str, Any] | None,
        **kwargs: Any,
    ) -> Envelope:
        """Finish a request answered outside :meth:`_process`.

        Immediate rejections (malformed, shed) never reach the queue, so
        they get their own root ``serving.request`` span here — every
        response, not just the served ones, belongs to exactly one trace.
        """
        with self._obs.tracer.span(
            "serving.request",
            parent=ROOT,
            op=request.op,
            request_id=request.request_id,
        ) as span:
            span.set_attribute("status", status)
            return self._finish(request, status, data, **kwargs)
