"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests -q)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import tracing  # noqa: E402
from perfbench.run import run_workload  # noqa: E402
from perfbench.tracing import END, NAME, PARENT, START, Recorder, installed, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, Round, ServeRead, Sizes, fingerprint  # noqa: E402

TINY = Sizes(
    unique_reviews=8,
    unique_pages=4,
    syndicated_bases=3,
    copies=3,
    window=4,
    serve_docs=12,
    round_requests=40,
    ingest_base_docs=8,
    ingest_batches=6,
    reads_per_batch=3,
    setup_reps=1,
    oracle_sample=4,
    checked_batches=2,
)


def _run(name: str, seed: int, trace: bool = False):
    return run_workload(name, seed, 0.0, trace, TINY)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_outputs(name):
    first, first_report = _run(name, 3)
    second, second_report = _run(name, 3)
    other, other_report = _run(name, 4)
    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    inputs = first_report["manifest"]["inputs_sha256"]
    assert inputs == second_report["manifest"]["inputs_sha256"]
    assert first_report["output_sha256"] == second_report["output_sha256"]
    other_inputs = other_report["manifest"]["inputs_sha256"]
    assert all(inputs[key] != other_inputs[key] for key in inputs)


def test_result_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    assert sorted(WORKLOADS) == sorted(w["name"] for w in spec["workloads"])
    untraced, _ = _run("serve_ingest", 1)
    traced, _ = _run("serve_ingest", 1, trace=True)
    assert set(untraced["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        produced = (untraced if metric in spec["end_to_end"] else traced)["metrics"]
        assert produced[metric["name"]]["unit"] == metric["unit"]


def test_serve_read_rounds_draw_the_same_latencies():
    workload = ServeRead(3, TINY)
    ctx = workload.setup()
    metas = []
    for _ in range(2):
        envelopes = workload.operate(workload.begin_round(ctx), Round())
        metas.append([envelope["meta"] for envelope in envelopes])
    assert metas[0] == metas[1]
    assert any(meta["latency"] != metas[0][0]["latency"] for meta in metas[0])


def test_fingerprint_ignores_dict_order_only():
    assert fingerprint({"a": 1, "b": [1, 2]}) == fingerprint({"b": [1, 2], "a": 1})
    assert fingerprint({"a": 1, "b": [1, 2]}) != fingerprint({"a": 1, "b": [2, 1]})
    assert fingerprint([1, 2]) != fingerprint((1, 2))


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("router", 0.0, 10.0, -1),
        _span("bus", 1.0, 6.0, 0),
        _span("node", 2.0, 5.0, 1),
        _span("bus", 7.0, 9.0, 0),
        _span("node", 7.5, 8.0, 3),
    ]
    times = self_times(spans)
    assert times["router"] == (1, pytest.approx(3.0))  # 10 − (5 + 2)
    assert times["bus"] == (2, pytest.approx(2.0 + 1.5))  # (5 − 3) + (2 − 0.5)
    assert times["node"] == (2, pytest.approx(3.5))
    wall = 10.0
    assert sum(t for _, t in times.values()) == pytest.approx(wall)


def test_recorder_nests_spans_and_skips_reentry():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    outer = rec.open("a")
    inner = rec.open("b")
    rec.close(inner)
    rec.close(outer)
    assert rec.spans[inner][PARENT] == outer
    assert [s[NAME] for s in rec.spans] == ["a", "b"]
    assert rec.spans[outer][END] - rec.spans[outer][START] == 3.0


class _Base:
    def work(self):
        return "base"


class _Child(_Base):
    def own(self, x):
        return self.own_inner(x) + 1

    def own_inner(self, x):
        return x


def test_wrappers_restore_original_methods():
    before = {name: _Child.__dict__.get(name) for name in ("work", "own", "own_inner")}
    probes = (
        tracing.Probe(_Child, "work", "layer.work"),
        tracing.Probe(_Child, "own", "layer.own"),
        tracing.Probe(_Child, "own_inner", "layer.own"),
    )
    rec = Recorder()
    with installed(rec, probes):
        assert _Child().work() == "base"
        assert _Child().own(1) == 2
    assert [s[NAME] for s in rec.spans] == ["layer.work", "layer.own"]
    assert {name: _Child.__dict__.get(name) for name in before} == before
    assert "work" not in _Child.__dict__


def test_program_probes_restored():
    before = [(p.owner, p.attr, p.owner.__dict__.get(p.attr)) for p in tracing.PROBES]
    with pytest.raises(RuntimeError):
        with installed(Recorder()):
            raise RuntimeError("boom")
    assert [(o, a, o.__dict__.get(a)) for o, a, _ in before] == before


def test_fault_in_serving_output_raises_failed_fraction(monkeypatch):
    from repro.platform.serving.router import NodeIndexService

    original = NodeIndexService.answer_counts

    def off_by_one(self, snapshot, payload, deadline):
        envelope = original(self, snapshot, payload, deadline)
        envelope["data"]["positive"] += 1
        return envelope

    monkeypatch.setattr(NodeIndexService, "answer_counts", off_by_one)
    result, report = _run("serve_read", 5)
    assert not result["correct"]
    assert result["failed"] > 0 and report["failed_fraction"] > 0


def test_fault_in_mining_output_raises_failed_fraction(monkeypatch):
    from repro.core.spotting import AhoCorasickSpotter

    original = AhoCorasickSpotter.spot_document

    def drop_last(self, sentences, document_id=""):
        return original(self, sentences, document_id)[:-1]

    monkeypatch.setattr(AhoCorasickSpotter, "spot_document", drop_last)
    result, report = _run("mine_syndicated", 5)
    assert not result["correct"]
    assert report["failed_fraction"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine_unique", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
