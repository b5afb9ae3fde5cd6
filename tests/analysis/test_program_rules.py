"""Good/bad fixtures for every interprocedural rule (RES001..DEAD001)."""

import ast
import textwrap

from repro.analysis import (
    DeadSymbolRule,
    DeadlinePropagationRule,
    ResourcePairRule,
    RngFlowRule,
    TraceThreadingRule,
    WalOrderingRule,
    build_linter,
    build_program,
    default_program_rules,
    summarize_module,
)
from repro.analysis.program import content_digest


def make_program(modules):
    summaries = []
    for modpath, source in modules.items():
        source = textwrap.dedent(source)
        tree = ast.parse(source)
        summaries.append(
            summarize_module(modpath, modpath, tree, content_digest(source.encode()))
        )
    return build_program(summaries)


def run_rule(rule, modules):
    return list(rule.check(make_program(modules)))


class TestResourcePairRule:
    def test_release_in_finally_is_clean(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query):
                        version = self._index.pin()
                        try:
                            return version.search(query)
                        finally:
                            self._index.release(version)
                """
            },
        )
        assert findings == []

    def test_exception_path_leak_is_flagged(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query):
                        version = self._index.pin()
                        result = version.search(query)
                        self._index.release(version)
                        return result
                """
            },
        )
        assert [f.rule for f in findings] == ["RES001"]
        assert "exception paths" in findings[0].message

    def test_branch_without_release_is_flagged(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query, fast):
                        version = self._index.pin()
                        if fast:
                            return None
                        try:
                            return version.search(query)
                        finally:
                            self._index.release(version)
                """
            },
        )
        assert [f.rule for f in findings] == ["RES001"]

    def test_handoff_to_releasing_helper_is_clean(self):
        findings = run_rule(
            ResourcePairRule(),
            {
                "repro/serving/svc.py": """
                class Service:
                    def handle(self, query):
                        version = self._index.pin()
                        return self._finish(version)

                    def _finish(self, version):
                        self._index.release(version)
                        return None
                """
            },
        )
        assert findings == []


class TestDeadlinePropagationRule:
    GOOD = {
        "repro/platform/svc.py": """
        class Node:
            def answer_entity(self, payload, deadline):
                return self._fetch(deadline)

            def _fetch(self, deadline):
                return self._bus.request(
                    "node", {"budget": deadline.remaining()}
                )
        """
    }

    def test_threaded_deadline_is_clean(self):
        assert run_rule(DeadlinePropagationRule(), self.GOOD) == []

    def test_payload_without_budget_is_flagged(self):
        findings = run_rule(
            DeadlinePropagationRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def answer_entity(self, payload, deadline):
                        return self._fetch(deadline)

                    def _fetch(self, deadline):
                        return self._bus.request("node", {"kind": "q"})
                """
            },
        )
        assert [f.rule for f in findings] == ["SRV001"]
        assert "no remaining budget" in findings[0].message

    def test_hop_dropping_the_deadline_is_flagged(self):
        findings = run_rule(
            DeadlinePropagationRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def answer_entity(self, payload, deadline):
                        return self._fetch()

                    def _fetch(self):
                        return self._bus.request("node", {"budget": 1})
                """
            },
        )
        assert [f.rule for f in findings] == ["SRV001"]
        assert "without passing the deadline" in findings[0].message

    def test_unreachable_bus_read_is_ignored(self):
        # No answer* handler reaches the read; nothing to enforce.
        findings = run_rule(
            DeadlinePropagationRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def poll(self):
                        return self._bus.request("node", {"kind": "q"})
                """
            },
        )
        assert findings == []


class TestTraceThreadingRule:
    def test_wrapped_payload_is_clean(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                from ..obs import with_trace

                class Node:
                    def send(self, bus):
                        msg = with_trace({"kind": "q"})
                        return bus.request("node", msg)
                """
            },
        )
        assert findings == []

    def test_untraced_value_through_helper_is_flagged(self):
        # The per-file OBS003 had to trust the 'payload' parameter; the
        # interprocedural rule sees the caller pass an untraced dict.
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def send(self, bus):
                        return self._post(bus, {"kind": "q"})

                    def _post(self, bus, payload):
                        return bus.request("node", payload)
                """
            },
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "drops the trace context" in findings[0].message

    def test_traced_value_through_helper_is_clean(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def send(self, bus, ctx):
                        return self._post(bus, {"kind": "q", "trace": ctx})

                    def _post(self, bus, payload):
                        return bus.request("node", payload)
                """
            },
        )
        assert findings == []

    def test_span_without_consulting_context_is_flagged(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                class Node:
                    def handle(self, payload, tracer):
                        with tracer.span("handle"):
                            return payload["kind"]
                """
            },
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "never consults the incoming trace context" in findings[0].message

    def test_consulting_context_via_callee_is_clean(self):
        findings = run_rule(
            TraceThreadingRule(),
            {
                "repro/platform/svc.py": """
                from ..obs import extract_context

                class Node:
                    def handle(self, payload, tracer):
                        span_ctx = self._ctx(payload)
                        with tracer.span("handle"):
                            return span_ctx

                    def _ctx(self, payload):
                        return extract_context(payload)
                """
            },
        )
        assert findings == []

    # -- single-function fixtures ------------------------------------------
    # Module-level functions with no resolved callers: a payload parameter
    # keeps its trust, so these pin the verdicts one function body decides.

    def run(self, source, modpath="repro/platform/example.py"):
        return run_rule(TraceThreadingRule(), {modpath: source})

    def test_with_trace_wrapped_payload_is_clean(self):
        findings = self.run(
            """
            from repro.obs import with_trace

            def read(bus, tracer, op):
                return bus.request(
                    "node0", with_trace({"op": op}, tracer.current_context)
                )
            """
        )
        assert findings == []

    def test_dict_literal_with_trace_key_is_clean(self):
        findings = self.run(
            """
            def read(bus, ctx):
                return bus.request("node0", {"op": "counts", "trace": ctx})
            """
        )
        assert findings == []

    def test_local_from_with_trace_is_clean(self):
        findings = self.run(
            """
            from repro.obs import with_trace

            def read(bus, tracer):
                payload = with_trace({"op": "counts"}, tracer.current_context)
                return bus.request("node0", payload)
            """
        )
        assert findings == []

    def test_parameter_passthrough_is_clean(self):
        findings = self.run(
            """
            def forward(bus, payload):
                return bus.request("node0", payload)
            """
        )
        assert findings == []

    def test_bare_dict_payload_is_flagged(self):
        findings = self.run(
            """
            def read(bus, subject):
                return bus.request("node0", {"op": "counts", "subject": subject})
            """
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "with_trace" in findings[0].message

    def test_local_untraced_dict_is_flagged(self):
        findings = self.run(
            """
            def read(bus, subject):
                payload = {"op": "counts", "subject": subject}
                return bus.request("node0", payload)
            """
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "drops the trace context" in findings[0].message

    def test_out_of_scope_module_is_ignored(self):
        source = """
            def read(bus, subject):
                return bus.request("node0", {"op": "counts", "subject": subject})
            """
        rule = TraceThreadingRule()
        assert rule.applies_to("repro/platform/example.py")
        assert not rule.applies_to("repro/core/miner.py")
        assert not rule.applies_to("repro/obs/tracer.py")
        assert self.run(source, modpath="repro/core/miner.py") == []

    def test_joining_remote_context_is_clean(self):
        findings = self.run(
            """
            from repro.obs import extract_context

            def handle(self, payload, tracer):
                ctx = extract_context(payload)
                with tracer.span("node.read", parent=ctx):
                    return {"ok": True}
            """
        )
        assert findings == []

    def test_handler_with_trace_id_param_is_clean(self):
        findings = self.run(
            """
            def attempt(self, payload, trace_id):
                with self.tracer.span("vinci.attempt"):
                    return trace_id
            """
        )
        assert findings == []

    def test_disconnected_handler_span_is_flagged(self):
        findings = self.run(
            """
            def handle(self, payload, tracer):
                with tracer.span("node.read"):
                    return {"ok": True}
            """
        )
        assert [f.rule for f in findings] == ["OBS003i"]
        assert "never consults the incoming trace context" in findings[0].message


class TestRngFlowRule:
    SHUFFLER = """
    def shuffle_docs(docs, rng):
        rng.shuffle(docs)
        return docs
    """

    def test_rng_crossing_subsystems_is_flagged(self):
        findings = run_rule(
            RngFlowRule(),
            {
                "repro/nlp/shuffler.py": self.SHUFFLER,
                "repro/core/sampler.py": """
                import random

                from repro.nlp.shuffler import shuffle_docs

                def sample(docs):
                    rng = random.Random(7)
                    return shuffle_docs(docs, rng)
                """,
            },
        )
        assert [f.rule for f in findings] == ["DET002i"]
        assert "'core'" in findings[0].message and "'nlp'" in findings[0].message

    def test_rng_staying_in_its_subsystem_is_clean(self):
        findings = run_rule(
            RngFlowRule(),
            {
                "repro/core/shuffler.py": self.SHUFFLER,
                "repro/core/sampler.py": """
                import random

                from repro.core.shuffler import shuffle_docs

                def sample(docs):
                    rng = random.Random(7)
                    return shuffle_docs(docs, rng)
                """,
            },
        )
        assert findings == []

    def test_state_held_rng_crossing_is_flagged(self):
        findings = run_rule(
            RngFlowRule(),
            {
                "repro/nlp/shuffler.py": self.SHUFFLER,
                "repro/core/sampler.py": """
                import random

                from repro.nlp.shuffler import shuffle_docs

                class Sampler:
                    def __init__(self, seed):
                        self._rng = random.Random(seed)

                    def sample(self, docs):
                        return shuffle_docs(docs, self._rng)
                """,
            },
        )
        assert [f.rule for f in findings] == ["DET002i"]


class TestDeadSymbolRule:
    def test_unreferenced_public_function_is_flagged(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/util.py": """
                def used(x):
                    return x

                def dead(x):
                    return x
                """,
                "repro/core/user.py": """
                from repro.core.util import used

                def main():
                    return used(0)
                """,
            },
        )
        assert [f.rule for f in findings] == ["DEAD001"]
        assert "'dead'" in findings[0].message

    def test_underscore_and_main_are_exempt(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/util.py": """
                def _private(x):
                    return x

                def main():
                    return 0
                """
            },
        )
        assert findings == []

    def test_shim_reexport_nothing_imports_is_flagged(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/impl.py": """
                def helper(x):
                    return x

                def main():
                    return helper(0)
                """,
                "repro/platform/shim.py": """
                from ..core.impl import helper

                __all__ = ["helper"]
                """,
            },
        )
        assert [f.rule for f in findings] == ["DEAD001"]
        assert "re-export 'helper'" in findings[0].message

    def test_shim_reexport_with_importer_is_clean(self):
        findings = run_rule(
            DeadSymbolRule(),
            {
                "repro/core/impl.py": """
                def helper(x):
                    return x

                def main():
                    return helper(0)
                """,
                "repro/platform/shim.py": """
                from ..core.impl import helper

                __all__ = ["helper"]
                """,
                "repro/cli.py": """
                from repro.platform.shim import helper

                def main():
                    return helper(0)
                """,
            },
        )
        assert findings == []

    def test_reference_roots_count_as_users(self, tmp_path):
        tests_root = tmp_path / "tests"
        tests_root.mkdir()
        (tests_root / "test_util.py").write_text(
            "from repro.core.util import only_tested\n", encoding="utf-8"
        )
        modules = {
            "repro/core/util.py": """
            def only_tested(x):
                return x
            """
        }
        with_roots = run_rule(
            DeadSymbolRule(reference_roots=(str(tests_root),)), modules
        )
        without_roots = run_rule(DeadSymbolRule(), modules)
        assert with_roots == []
        assert [f.rule for f in without_roots] == ["DEAD001"]

    def test_build_linter_passes_perfbench_as_a_reference_root(self, tmp_path):
        config = tmp_path / "lint-suppressions.json"
        config.write_text('{"suppressions": []}', encoding="utf-8")
        for name in ("tests", "perfbench"):
            (tmp_path / name).mkdir()
        linter = build_linter(config, use_cache=False)
        [dead] = [r for r in linter.program_rules if isinstance(r, DeadSymbolRule)]
        assert dead.reference_roots == (
            str(tmp_path / "tests"),
            str(tmp_path / "perfbench"),
        )


class TestWalOrderingRule:
    def test_append_before_mutate_is_clean(self):
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def ingest(self, batch):
                        if batch:
                            lsn = self._wal.append(batch)
                            for delta in batch:
                                self._store.store(delta.entity)
                        return batch
                """
            },
        )
        assert findings == []

    def test_mutation_before_append_is_flagged(self):
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def ingest(self, batch):
                        for delta in batch:
                            self._store.store(delta.entity)
                        self._wal.append(batch)
                """
            },
        )
        assert len(findings) == 1
        assert findings[0].rule == "PLAT004"
        assert "no WAL append has happened yet" in findings[0].message

    def test_append_on_one_branch_only_is_flagged(self):
        # The append must dominate: reaching the mutation through the
        # durable=False arm is an un-logged mutation path.
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def ingest(self, batch, durable):
                        if durable:
                            self._wal.append(batch)
                        self._store.store_all(batch)
                """
            },
        )
        assert len(findings) == 1
        assert "store_all" in findings[0].message

    def test_functions_without_wal_appends_are_exempt(self):
        # The offline bootstrap path mutates without a WAL by design;
        # the contract binds only code that participates in logging.
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/ingestion.py": """
                class Manager:
                    def bootstrap(self, entities):
                        self._store.store_all(entities)
                """
            },
        )
        assert findings == []

    def test_out_of_scope_modules_are_exempt(self):
        findings = run_rule(
            WalOrderingRule(),
            {
                "repro/platform/serving/loadgen.py": """
                def build(batch, wal, store):
                    store.store_all(batch)
                    wal.append(batch)
                """
            },
        )
        assert findings == []

    def test_real_ingest_path_is_clean(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2] / "src"
        modules = {
            f"repro/platform/{name}": (
                root / "repro" / "platform" / name
            ).read_text(encoding="utf-8")
            for name in ("ingestion.py", "segments.py", "wal.py")
        }
        assert run_rule(WalOrderingRule(), modules) == []


class TestDefaultProgramRules:
    def test_all_six_rules_registered(self):
        ids = [r.rule_id for r in default_program_rules()]
        assert ids == [
            "RES001",
            "SRV001",
            "OBS003i",
            "DET002i",
            "PLAT004",
            "DEAD001",
        ]

    def test_findings_are_deterministically_ordered(self):
        modules = {
            "repro/core/b.py": "def dead_b(x):\n    return x\n",
            "repro/core/a.py": "def dead_a(x):\n    return x\n",
        }
        first = [f.message for f in run_rule(DeadSymbolRule(), modules)]
        second = [
            f.message
            for f in run_rule(
                DeadSymbolRule(), dict(reversed(list(modules.items())))
            )
        ]
        assert first == second == sorted(first)
