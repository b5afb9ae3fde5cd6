"""Rule engine for ``repro lint``.

The engine walks a set of python files, parses each once, and hands the
AST to every :class:`CodeRule` whose scope covers the file; then it
builds the whole-program model (:mod:`repro.analysis.program`) from the
per-file summaries and hands it to every :class:`ProgramRule`
(interprocedural invariants — resource pairing, deadline propagation,
dead symbols); finally it runs every :class:`DataRule` (pattern-database
and lexicon invariants, which need no files at all).  Findings pass
through the :class:`~repro.analysis.suppressions.SuppressionConfig`;
unsuppressed findings determine the exit code (max severity).

Parsing, per-file rule findings, and module summaries are cached by
source content hash (:mod:`repro.analysis.cache`): a warm run over an
unchanged tree re-analyzes nothing (``LintReport.files_reanalyzed`` is
0) and only re-runs the cheap program/data passes over cached
summaries.

The framework is dependency-free: stdlib ``ast`` + ``fnmatch`` only.
"""

from __future__ import annotations

import abc
import ast
import fnmatch
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .cache import LintCache, rule_fingerprint
from .findings import Finding, Severity
from .program import Program, build_program, content_digest, summarize_module
from .suppressions import SuppressionConfig, Suppression


class Rule(abc.ABC):
    """Base class: one named invariant with a default severity."""

    #: Stable id used in reports and suppression entries (e.g. ``DET001``).
    rule_id: str = "RULE000"
    #: Short human name (kebab-case).
    name: str = "rule"
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line statement of the invariant the rule protects.
    invariant: str = ""

    def finding(self, message: str, path: str = "", line: int = 0,
                severity: Severity | None = None) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity if severity is None else severity,
            message=message,
            path=path,
            line=line,
        )


class CodeRule(Rule):
    """A rule that inspects one parsed module at a time.

    ``scope`` is a tuple of fnmatch globs applied to the module path
    normalised to start at the ``repro`` package root (e.g.
    ``repro/platform/vinci.py``); files outside the scope are skipped.
    """

    scope: tuple[str, ...] = ("repro/*", "repro/*.py")

    def applies_to(self, modpath: str) -> bool:
        return any(fnmatch.fnmatch(modpath, pattern) for pattern in self.scope)

    @abc.abstractmethod
    def check(self, path: str, modpath: str, tree: ast.Module) -> Iterator[Finding]:
        """Yield findings for one module (``path`` is the display path)."""


class DataRule(Rule):
    """A rule over in-memory data tables (pattern DB, lexicons)."""

    @abc.abstractmethod
    def check(self) -> Iterator[Finding]:
        """Yield findings over the rule's (injectable) data tables."""


class ProgramRule(Rule):
    """A rule over the whole-program model (interprocedural).

    ``scope`` limits which modules a rule *reports on* — the program it
    queries always covers every linted file, so cross-module evidence is
    never scoped away.  Findings must be yielded in a deterministic
    order (sort by path, then line).
    """

    scope: tuple[str, ...] = ("repro/*", "repro/*.py")

    def applies_to(self, modpath: str) -> bool:
        return any(fnmatch.fnmatch(modpath, pattern) for pattern in self.scope)

    @abc.abstractmethod
    def check(self, program: Program) -> Iterator[Finding]:
        """Yield findings over the whole program."""


#: Rule id used for engine-level findings (parse failures, stale config).
ENGINE_RULE = "LINT001"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: int = 0
    #: Files parsed and rule-checked this run (cache misses); a warm run
    #: over an unchanged tree reports 0.
    files_reanalyzed: int = 0

    def unsuppressed(self, min_severity: Severity = Severity.INFO) -> list[Finding]:
        return [
            f
            for f in self.findings
            if not f.suppressed and f.severity >= min_severity
        ]

    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def exit_code(self, min_severity: Severity = Severity.INFO) -> int:
        """0 clean, 1 warnings, 2 errors — over unsuppressed findings."""
        live = self.unsuppressed(min_severity)
        if not live:
            return 0
        return int(max(f.severity for f in live))

    # -- rendering ---------------------------------------------------------------

    def render(self, min_severity: Severity = Severity.INFO,
               show_suppressed: bool = False) -> str:
        lines = []
        for finding in sorted(
            self.unsuppressed(min_severity),
            key=lambda f: (-int(f.severity), f.path, f.line, f.rule),
        ):
            lines.append(finding.render())
        if show_suppressed:
            for finding in self.suppressed():
                lines.append(finding.render())
        live = self.unsuppressed(min_severity)
        counts = {s: sum(1 for f in live if f.severity == s) for s in Severity}
        summary = (
            f"checked {self.files_checked} files, {self.rules_run} rules: "
            f"{counts[Severity.ERROR]} errors, {counts[Severity.WARNING]} warnings, "
            f"{counts[Severity.INFO]} info, {len(self.suppressed())} suppressed"
        )
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "files_reanalyzed": self.files_reanalyzed,
            "rules_run": self.rules_run,
            "exit_code": self.exit_code(),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _module_path(path: Path) -> str:
    """Normalise *path* to start at the ``repro`` package root.

    ``/root/repo/src/repro/platform/vinci.py`` → ``repro/platform/vinci.py``.
    Paths outside a ``repro`` tree are returned as-is (posix), so scope
    globs simply never match them.
    """
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.as_posix()


def _iter_python_files(roots: Iterable[Path]) -> Iterator[Path]:
    for root in roots:
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            yield root


class Linter:
    """Runs code, program and data rules; caches per-file work by digest."""

    def __init__(
        self,
        code_rules: Iterable[CodeRule] = (),
        data_rules: Iterable[DataRule] = (),
        suppressions: SuppressionConfig | None = None,
        program_rules: Iterable[ProgramRule] = (),
        cache_path: str | Path | None = None,
    ):
        self.code_rules = list(code_rules)
        self.data_rules = list(data_rules)
        self.program_rules = list(program_rules)
        self.suppressions = suppressions if suppressions is not None else SuppressionConfig()
        self.cache_path = cache_path
        #: The program model built by the most recent :meth:`lint` call
        #: (``--graph-out`` and ``--changed-only`` read it back).
        self.last_program: Program | None = None

    def _check_file(
        self, display: str, modpath: str, raw: bytes, digest: str
    ) -> tuple[object | None, list[Finding]]:
        """Parse + summarize + per-file rules for one cache miss."""
        try:
            tree = ast.parse(raw.decode("utf-8"), filename=display)
        except SyntaxError as exc:
            return None, [
                Finding(
                    rule=ENGINE_RULE,
                    severity=Severity.ERROR,
                    message=f"syntax error: {exc.msg}",
                    path=display,
                    line=exc.lineno or 0,
                )
            ]
        summary = summarize_module(modpath, display, tree, digest)
        findings = [
            finding
            for rule in self.code_rules
            if rule.applies_to(modpath)
            for finding in rule.check(display, modpath, tree)
        ]
        return summary, findings

    def lint(
        self,
        paths: Iterable[str | Path],
        restrict_to: set[str] | None = None,
    ) -> LintReport:
        """Lint *paths*; with *restrict_to*, report findings only for
        those module paths (the whole program is still summarized, so
        interprocedural evidence is never lost — only reporting narrows).
        """
        report = LintReport(
            rules_run=len(self.code_rules)
            + len(self.data_rules)
            + len(self.program_rules)
        )
        cache = LintCache(self.cache_path, rule_fingerprint(self.code_rules))
        summaries = []
        seen: set[str] = set()
        reported_displays: set[str] = set()
        for path in _iter_python_files(Path(p) for p in paths):
            display = path.as_posix()
            modpath = _module_path(path)
            if modpath in seen:
                continue
            seen.add(modpath)
            report.files_checked += 1
            raw = path.read_bytes()
            digest = content_digest(raw)
            cached = cache.lookup(modpath, digest, display)
            if cached is not None:
                summary, findings = cached
            else:
                report.files_reanalyzed += 1
                summary, findings = self._check_file(display, modpath, raw, digest)
                cache.store(modpath, digest, summary, findings)
            if summary is not None:
                summaries.append(summary)
            if restrict_to is None or modpath in restrict_to:
                reported_displays.add(display)
                report.findings.extend(findings)
        program = build_program(summaries)
        self.last_program = program
        for rule in self.program_rules:
            for finding in rule.check(program):
                if (
                    restrict_to is None
                    or finding.path in reported_displays
                    or finding.path.startswith("<")
                ):
                    report.findings.append(finding)
        for rule in self.data_rules:
            report.findings.extend(rule.check())
        for finding in report.findings:
            self.suppressions.apply(finding)
        stale_files = self.suppressions.stale_files()
        for entry in stale_files:
            report.findings.append(_stale_file_finding(entry))
        for stale in self.suppressions.unused():
            if stale in stale_files:
                continue
            report.findings.append(_stale_suppression_finding(stale))
        cache.save()
        return report


def _stale_suppression_finding(entry: Suppression) -> Finding:
    return Finding(
        rule=ENGINE_RULE,
        severity=Severity.WARNING,
        message=(
            f"suppression matched no finding ({entry.describe()}); "
            "remove it or fix its pattern"
        ),
        path="<suppressions>",
    )


def _stale_file_finding(entry: Suppression) -> Finding:
    return Finding(
        rule=ENGINE_RULE,
        severity=Severity.WARNING,
        message=(
            f"suppression points at a missing file ({entry.describe()}); "
            "run 'repro lint --prune-suppressions' to drop it"
        ),
        path="<suppressions>",
    )
