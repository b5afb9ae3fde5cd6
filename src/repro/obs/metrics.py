"""The metrics registry: counters, gauges, and fixed-bucket histograms.

One registry is the single sink for every counter the system keeps.
The legacy stats objects (``VinciBus.stats()``, ``RetryStats``,
``MiningStats``, ``ClusterRunReport``) are *views* over — or mirrors
into — a registry, so ``repro ... --metrics`` can print one unified
table instead of four ad-hoc reports.

Metric identity is a name plus a sorted label set, rendered
Prometheus-style as ``name{label=value,...}``.  Everything is plain
dicts and floats — no dependencies, cheap enough to leave enabled
always (tracing, by contrast, is opt-in; see :mod:`repro.obs.tracer`).
"""

from __future__ import annotations

import re
from typing import Iterator

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets, tuned for simulated-cost magnitudes.
DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)

#: Canonical metric-name shape: lowercase dot-separated segments, each
#: starting with a letter (``vinci.retry_backoff_cost``).  The registry
#: rejects anything else at creation time, and the ``repro lint``
#: OBS002 rule enforces the same regex statically on every literal name
#: in the source tree.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


def validate_metric_name(name: str) -> str:
    """Return *name* unchanged, or raise ``ValueError`` if ill-formed."""
    if not METRIC_NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: names must match {METRIC_NAME_RE.pattern}"
        )
    return name


def _label_key(labels: dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: LabelKey) -> str:
    """Canonical ``name{k=v,...}`` rendering of one metric series."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically-increasing count (``set`` exists for view adapters)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set(self, value: float) -> None:
        """Absolute update — used by view classes emulating ``+=``."""
        self.value = float(value)


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (cumulative counts, like Prometheus).

    Each bucket keeps one *exemplar*: the trace_id of the most recent
    observation that landed in it (0 when none, or when the caller
    traced nothing).  That links a slow percentile to one concrete
    trace in the JSONL dump without storing per-observation data.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "exemplars")
    kind = "histogram"

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be a sorted non-empty sequence")
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self.exemplars = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, trace_id: int = 0) -> None:
        self.count += 1
        self.sum += value
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        if trace_id:
            self.exemplars[index] = trace_id

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile_bound(self, q: float) -> float:
        """Smallest bucket upper bound covering quantile *q* (inf if tail)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            cumulative += bucket
            if cumulative >= target:
                return bound
        return float("inf")

    def exemplar_for_quantile(self, q: float) -> int:
        """Trace id exemplar of the bucket holding quantile *q* (0 if none)."""
        if self.count == 0:
            return 0
        target = q * self.count
        cumulative = 0
        for i, bucket in enumerate(self.bucket_counts):
            cumulative += bucket
            if cumulative >= target:
                return self.exemplars[i]
        return self.exemplars[-1]

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {"count": self.count, "sum": self.sum}
        cumulative = 0
        for bound, bucket in zip(self.buckets, self.bucket_counts):
            cumulative += bucket
            out[f"le_{bound:g}"] = cumulative
        out["le_inf"] = self.count
        return out


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named, labelled instruments created on first use."""

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, LabelKey], Instrument] = {}

    # -- instrument access ------------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(name, _label_key(labels), Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(name, _label_key(labels), Gauge)

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS, **labels: object
    ) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            validate_metric_name(name)
            instrument = Histogram(buckets)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def _get(self, name: str, key: LabelKey, cls: type) -> Instrument:
        instrument = self._instruments.get((name, key))
        if instrument is None:
            validate_metric_name(name)
            instrument = cls()
            self._instruments[(name, key)] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    # -- introspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def series(self, name: str) -> Iterator[tuple[LabelKey, Instrument]]:
        """All label sets registered under *name*."""
        for (metric, labels), instrument in sorted(self._instruments.items()):
            if metric == name:
                yield labels, instrument

    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter/gauge series (0.0 when absent)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} is a histogram; use series()")
        return instrument.value

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Flat ``series-name -> value`` map (histograms nest their own)."""
        out: dict[str, float | dict[str, float]] = {}
        for (name, labels), instrument in sorted(self._instruments.items()):
            key = format_series(name, labels)
            if isinstance(instrument, Histogram):
                out[key] = instrument.snapshot()
            else:
                out[key] = instrument.value
        return out

    def to_records(self) -> list[dict[str, object]]:
        """JSONL-ready records, one per series."""
        records: list[dict[str, object]] = []
        for (name, labels), instrument in sorted(self._instruments.items()):
            record: dict[str, object] = {
                "type": "metric",
                "name": name,
                "kind": instrument.kind,
                "labels": dict(labels),
            }
            if isinstance(instrument, Histogram):
                record["count"] = instrument.count
                record["sum"] = instrument.sum
                record["buckets"] = list(instrument.buckets)
                record["bucket_counts"] = list(instrument.bucket_counts)
                if any(instrument.exemplars):
                    record["exemplars"] = list(instrument.exemplars)
            else:
                record["value"] = instrument.value
            records.append(record)
        return records

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s series into this registry (sums counts)."""
        for (name, labels), instrument in other._instruments.items():
            if isinstance(instrument, Counter):
                self._get(name, labels, Counter).inc(instrument.value)
            elif isinstance(instrument, Gauge):
                self._get(name, labels, Gauge).set(instrument.value)
            else:
                mine = self._instruments.get((name, labels))
                if mine is None:
                    mine = Histogram(instrument.buckets)
                    self._instruments[(name, labels)] = mine
                if not isinstance(mine, Histogram) or mine.buckets != instrument.buckets:
                    raise TypeError(f"histogram {name!r} bucket mismatch in merge")
                mine.count += instrument.count
                mine.sum += instrument.sum
                for i, c in enumerate(instrument.bucket_counts):
                    mine.bucket_counts[i] += c
                    if instrument.exemplars[i]:
                        mine.exemplars[i] = instrument.exemplars[i]

    def render(self) -> str:
        """Human-readable metric dump, one series per line."""
        lines = []
        for key, value in self.snapshot().items():
            if isinstance(value, dict):
                lines.append(
                    f"{key}  count={value['count']:g} sum={value['sum']:g}"
                )
            else:
                lines.append(f"{key}  {value:g}")
        return "\n".join(lines)
