"""Host-speed calibration: a fixed pure-Python workload timed between rounds.

The reference host is shared: its speed moves by a quarter or more
between phases from under a second to several seconds long, in the
same direction for the program and for other interpreted code.  So
short :func:`calibrate` bursts run between a round's operations, and
the round's wall times are divided by the bursts' mean over
:data:`REFERENCE_UNIT_S`: they read as the same work would time at the
reference speed.

The calibration uses only the standard library and touches no program
code, so a change to the program cannot move it.  It mimics the
program's hot paths: regex tokenizing, small slotted objects, lowercase
keys, dict probes and tuple-keyed counting for mining; small dicts
merged and sorted for serving.
"""

from __future__ import annotations

import re
import time

_TOKEN = re.compile(r"[A-Za-z]+(?:'[a-z]+)?|[0-9]+|[^\sA-Za-z0-9]")
_TEXT = (
    "The zoom on the Canon is superb, but the battery life fails to impress. "
    "I tested the flash and it is great! Nikon's support was slow; the lens cap broke. "
    "If the screen were brighter, I would not complain about the menus at all. "
) * 3
_LEXICON = {
    word: index % 7
    for index, word in enumerate(
        "the zoom on canon is superb but battery life fails to impress i tested "
        "flash and it great nikon's support was slow lens cap broke if screen "
        "were brighter would not complain about menus at all".split()
    )
}

#: Seconds one calibration unit takes on the reference host (2 vCPUs,
#: CPython 3.11) at its typical speed; scaled figures read at that speed.
REFERENCE_UNIT_S = 0.00024
#: Op time between calibration bursts inside a round, and burst size.
INTERVAL_S = 0.05
BURST_UNITS = 20


class _Token:
    __slots__ = ("text", "lower", "start")

    def __init__(self, text: str, start: int):
        self.text = text
        self.lower = text.lower()
        self.start = start


def _unit() -> int:
    """One calibration unit: a tokenize-and-count pass and a merge pass."""
    tokens = [_Token(m.group(), m.start()) for m in _TOKEN.finditer(_TEXT)]
    tags = [_LEXICON.get(t.lower, -1) for t in tokens]
    pairs: dict[tuple[str, str], int] = {}
    for i in range(len(tokens) - 1):
        key = (tokens[i].lower, tokens[i + 1].lower)
        pairs[key] = pairs.get(key, 0) + tags[i]
    # Envelope-shaped dicts merged per shard and ranked, like a fan-out read.
    totals: dict[int, int] = {}
    for i in range(60):
        meta = {"status": "ok", "request_id": i, "shard": i % 8}
        data = {"subject": "zoom", "positive": i % 5, "negative": i % 3}
        if meta["status"] == "ok":
            totals[meta["shard"]] = totals.get(meta["shard"], 0) + data["positive"] - data["negative"]
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return len(pairs) + len(ranked)


def calibrate(units: int = BURST_UNITS) -> float:
    """Wall seconds per unit of the fixed calibration workload, right now."""
    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / units


class HostClock:
    """Times operations and interleaves calibration bursts between them.

    A burst runs when the clock is made and after every
    :data:`INTERVAL_S` of operation time, so the bursts sample the same
    seconds the operations ran in.  Each operation's host speed is the
    mean of the bursts on either side of it over the reference: 1.0 is
    the reference speed, 2.0 a host running twice as slow.  Scaled
    times divide by it.
    """

    def __init__(self):
        self._bursts: list[float] = [calibrate()]
        self._since = 0.0
        #: Per timed operation, the index of the burst just before it.
        self._before: list[int] = []

    def time(self, call):
        """Run *call*; return ``(result, wall seconds, operation index)``."""
        self._before.append(len(self._bursts) - 1)
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        self._since += elapsed
        if self._since >= INTERVAL_S:
            self._bursts.append(calibrate())
            self._since = 0.0
        return result, elapsed, len(self._before) - 1

    def finish(self) -> None:
        """Close the last window with a burst, so every operation has two."""
        if self._since > 0:
            self._bursts.append(calibrate())
            self._since = 0.0

    def speed(self, op: int) -> float:
        """Host speed around operation *op*."""
        k = self._before[op]
        after = self._bursts[min(k + 1, len(self._bursts) - 1)]
        return (self._bursts[k] + after) / 2.0 / REFERENCE_UNIT_S
