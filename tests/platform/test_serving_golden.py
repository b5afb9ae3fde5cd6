"""Serving-read golden gate (tier-1).

Every envelope of a seeded request stream — data plus meta: status,
code, hedging, simulated latency and missing shards — against a small
static index with one killed node and scheduled service faults is
frozen in ``tests/fixtures/golden/serving_reads.json``.  A read-path
optimisation must reproduce it byte for byte: the hedge thresholds, the
per-shard aggregates and the fault handling all feed into it.

After an intentional serving-semantics change, regenerate with::

    PYTHONPATH=src python -m tests.support.golden
"""

import pytest

from tests.support import golden

pytestmark = pytest.mark.serving

FIXTURE = "serving_reads.json"


def test_serving_envelopes_are_byte_identical_to_the_fixture():
    with open(golden.fixture_path(FIXTURE), encoding="utf-8") as stream:
        frozen = stream.read()
    assert golden.dumps(golden.serving_report()) == frozen


def test_fixture_exercises_hedging_faults_and_degradation():
    # The pin is only worth having if the stream reaches the paths it
    # guards: adaptive hedges past the window's wraparound, degraded
    # fan-outs around the dead node, and every op.
    report = golden.load_fixture(FIXTURE)
    outcomes = report["outcomes"]
    metas = [o["envelope"]["meta"] for o in outcomes]
    assert report["dead_nodes"]
    assert sum(m["hedged"] for m in metas) > 0
    assert any(m["status"] == "degraded" and m["missing_shards"] for m in metas)
    assert {o["request"]["op"] for o in outcomes} == {
        "counts",
        "sentences",
        "subjects",
        "search",
    }
