"""Run one benchmark workload and print its result as the last stdout line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mine_unique --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` alternates untraced and traced rounds of identical work
and prints the per-layer metrics of the traced ones, plus the tracing
overhead (median traced minus median untraced round time).  Each run
also writes its manifest and detailed report, and for traced runs the
span dump, under ``perfbench/out/``.

Before anything is timed, the oracle runs in a child process
(``perfbench/oracle.py``) and hands back one fingerprint per checked
output, so ``peak_rss_mb`` counts the program and its inputs, not the
oracle.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: A run keeps going past ``--seconds`` until it has this many rounds.
MIN_ROUNDS = 5
#: Seconds the oracle's child process may take.
ORACLE_TIMEOUT_S = 150


def oracle_fingerprints(name: str, seed: int, sizes) -> dict:
    """The workload's expected-output fingerprints, computed in a child process."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.oracle", "--workload", name, "--seed", str(seed),
         "--sizes", json.dumps(dataclasses.asdict(sizes))],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        capture_output=True,
        text=True,
        timeout=ORACLE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout)


def git_commit(root: str) -> str:
    """HEAD's commit read from ``.git`` files; no git process is started."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path, encoding="utf-8") as stream:
        head = stream.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as stream:
            return stream.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as stream:
            for line in stream:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return f"unknown ({ref})"


class Scaled:
    """One round's latency samples scaled to the reference host speed.

    Each operation is divided by the host speed around it (see
    ``calibration.py``).  A rate scales by the ratio of its operations'
    wall time to their scaled time, and :attr:`speed` is that ratio over
    every sampled operation of the round.
    """

    def __init__(self, round_, clock):
        self.round = round_
        self.samples = {
            key: [ms / clock.speed(op) for ms, op in values]
            for key, values in round_.samples.items()
        }
        raw = sum(ms for values in round_.samples.values() for ms, _ in values)
        self.speed = raw / sum(sum(values) for values in self.samples.values())

    def factor(self, key: str) -> float:
        """Wall time over scaled time of the operations sampled as *key*."""
        return sum(ms for ms, _ in self.round.samples[key]) / sum(self.samples[key])


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report with manifest)."""
    from perfbench.calibration import REFERENCE_UNIT_S, HostClock
    from perfbench.tracing import Recorder, layer_metrics
    from perfbench.workloads import WORKLOADS, Sizes, memo_capacities, sha256_json
    from repro.platform.serving.loadgen import percentile

    sizes = sizes or Sizes()
    workload = WORKLOADS[name](seed, sizes)
    workload.expected = oracle_fingerprints(name, seed, sizes)
    inputs = workload.inputs()
    manifest = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": {key: sha256_json(value) for key, value in sorted(inputs.items())},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "memo_capacities": memo_capacities(),
        "sizes": dataclasses.asdict(sizes),
        **workload.manifest_extra(),
    }

    setups: list[float] = []
    ctx = None
    if not workload.setup_per_round:
        for _ in range(sizes.setup_reps):
            clock = HostClock()
            ctx, elapsed, op = clock.time(workload.setup)
            clock.finish()
            setups.append(elapsed / clock.speed(op))

    rec = Recorder() if trace else None
    untraced: list[Scaled] = []
    traced: list[Scaled] = []
    layer_rows: list[dict[str, float]] = []
    start = time.perf_counter()
    while len(untraced) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if trace else (False,):
            gc.collect()
            clock = HostClock()
            if workload.setup_per_round:
                ctx, setup_elapsed, setup_op = clock.time(workload.setup)
            round_ = workload.run_round(ctx, rec if with_trace else None, clock)
            clock.finish()
            if workload.setup_per_round:
                setups.append(setup_elapsed / clock.speed(setup_op))
            scaled = Scaled(round_, clock)
            if with_trace:
                traced.append(scaled)
                layer_rows.append(
                    {
                        key: value / scaled.speed if key.endswith("_s") else value
                        for key, value in layer_metrics(rec, round_.wall_s).items()
                    }
                )
            else:
                untraced.append(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    rounds = [s.round for s in untraced + traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    # Every round repeats identical work, so every round's output digest
    # must equal the first one's.
    failed += sum(1 for r in rounds if r.digest != rounds[0].digest)

    latencies = [x for s in untraced for x in s.samples[workload.latency_key]]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (
            statistics.median(
                s.round.rates[workload.throughput_key] * s.factor(workload.throughput_samples)
                for s in untraced
            ),
            "1/s",
        ),
        "latency_p50_ms": (percentile(latencies, 0.5), "ms"),
        "latency_tail_ms": (percentile(latencies, workload.tail_percentile), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if trace:
        metrics = {
            key: (statistics.median(row[key] for row in layer_rows), _layer_unit(key))
            for key in layer_rows[0]
        }
        metrics["tracing_overhead_s"] = (
            statistics.median(s.round.wall_s / s.speed for s in traced)
            - statistics.median(s.round.wall_s / s.speed for s in untraced),
            "s",
        )
    else:
        metrics = end_to_end

    plain = [s.round for s in untraced]
    report = {
        "manifest": manifest,
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted if attempted else 1.0,
        "output_sha256": rounds[0].digest,
        "setup_s_samples": setups,
        # Peak resident set of the oracle's child process, kept out of peak_rss_mb.
        "oracle_peak_rss_mb": oracle_rss_mb,
        "host_speed": {
            "reference_unit_s": REFERENCE_UNIT_S,
            "median": statistics.median(s.speed for s in untraced + traced),
            "min": min(s.speed for s in untraced + traced),
            "max": max(s.speed for s in untraced + traced),
        },
        # Plain wall-clock figures, not scaled to the reference speed.
        "unscaled_rates": {key: statistics.median(r.rates[key] for r in plain) for key in plain[0].rates},
        "unscaled_latency_ms": {
            key: {
                "samples": len(values),
                "p50": percentile(values, 0.5),
                "p90": percentile(values, 0.9),
                "p99": percentile(values, 0.99),
            }
            for key in plain[0].samples
            for values in [[ms for r in plain for ms, _ in r.samples[key]]]
        },
        "metrics": {key: value for key, (value, _) in metrics.items()},
    }
    if trace:
        report["end_to_end_untraced"] = {k: v for k, (v, _) in end_to_end.items()}
        os.makedirs(OUT_DIR, exist_ok=True)
        rec.write_jsonl(os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, report


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio") or key.endswith(".fanout") or key.endswith("_per_read"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        path
        for path in ("src/repro/__init__.py", "tests/support/reference.py")
        if not os.path.isfile(os.path.join(ROOT, path))
    ]
    if missing:
        print(f"perfbench: not a source checkout, missing {missing}", file=sys.stderr)
        return 2
    # The script's own directory must not shadow top-level modules.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    detail = ("unscaled_rates", "unscaled_latency_ms", "host_speed", "failed_fraction")
    print(json.dumps({key: report[key] for key in detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
