"""The pipeline audit trail: *why* each decision was made.

Two decision families are recorded:

* ``spot`` — the disambiguator kept or filtered a subject occurrence
  (which resolution passed/failed, with the scores involved);
* ``sentiment`` — a sentiment context resolved to +/-/0/no-match
  (which pattern matched, which lexicon entries fired, whether negation
  reversed the polarity, or why nothing matched).

Entries are plain records so they serialise straight to JSONL alongside
spans and metrics.  The default everywhere is :data:`NULL_AUDIT`, which
records nothing at zero cost; :class:`~repro.core.miner.SentimentMiner`
exposes the entries generated for a run on ``MiningResult.audit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

#: Entry kinds.
SPOT = "spot"
SENTIMENT = "sentiment"

#: Spot decisions.
KEPT = "kept"
FILTERED = "filtered"

#: Sentiment decision reasons.
PATTERN_MATCH = "pattern-match"
CONTEXT_WINDOW = "context-window"
NO_MATCH = "no-match"


@dataclass(frozen=True, slots=True)
class AuditEntry:
    """One recorded decision."""

    kind: str  # SPOT | SENTIMENT
    subject: str
    decision: str  # kept/filtered, or the polarity symbol +/-/0
    reason: str  # global-pass, combined-fail, pattern-match, no-match, ...
    document_id: str = ""
    sentence_index: int = -1
    pattern: str = ""
    predicate: str = ""
    lexicon_entries: tuple[str, ...] = ()
    negated: bool = False
    detail: tuple[tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.detail:
            if name == key:
                return value
        return default

    def to_record(self) -> dict[str, Any]:
        return {
            "type": "audit",
            "kind": self.kind,
            "subject": self.subject,
            "decision": self.decision,
            "reason": self.reason,
            "document_id": self.document_id,
            "sentence_index": self.sentence_index,
            "pattern": self.pattern,
            "predicate": self.predicate,
            "lexicon_entries": list(self.lexicon_entries),
            "negated": self.negated,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "AuditEntry":
        return cls(
            kind=record["kind"],
            subject=record.get("subject", ""),
            decision=record.get("decision", ""),
            reason=record.get("reason", ""),
            document_id=record.get("document_id", ""),
            sentence_index=record.get("sentence_index", -1),
            pattern=record.get("pattern", ""),
            predicate=record.get("predicate", ""),
            lexicon_entries=tuple(record.get("lexicon_entries", ())),
            negated=record.get("negated", False),
            detail=tuple(sorted(record.get("detail", {}).items())),
        )


class AuditTrail:
    """Append-only list of :class:`AuditEntry` with filtered views."""

    enabled = True

    def __init__(self) -> None:
        self._entries: list[AuditEntry] = []

    # -- recording --------------------------------------------------------------

    def record(self, entry: AuditEntry) -> None:
        self._entries.append(entry)

    def record_spot(
        self,
        subject: str,
        decision: str,
        reason: str,
        *,
        document_id: str = "",
        sentence_index: int = -1,
        **detail: Any,
    ) -> None:
        self._entries.append(
            AuditEntry(
                kind=SPOT,
                subject=subject,
                decision=decision,
                reason=reason,
                document_id=document_id,
                sentence_index=sentence_index,
                detail=tuple(sorted(detail.items())) if detail else (),
            )
        )

    def record_sentiment(
        self,
        subject: str,
        polarity: str,
        reason: str,
        *,
        document_id: str = "",
        sentence_index: int = -1,
        pattern: str = "",
        predicate: str = "",
        lexicon_entries: tuple[str, ...] = (),
        negated: bool = False,
        **detail: Any,
    ) -> None:
        self._entries.append(
            AuditEntry(
                kind=SENTIMENT,
                subject=subject,
                decision=polarity,
                reason=reason,
                document_id=document_id,
                sentence_index=sentence_index,
                pattern=pattern,
                predicate=predicate,
                lexicon_entries=lexicon_entries,
                negated=negated,
                detail=tuple(sorted(detail.items())) if detail else (),
            )
        )

    # -- bookmarks (per-document slices) ---------------------------------------

    def mark(self) -> int:
        """Position bookmark; pair with :meth:`since`."""
        return len(self._entries)

    def since(self, mark: int) -> list[AuditEntry]:
        return list(self._entries[mark:])

    # -- views ------------------------------------------------------------------

    @property
    def entries(self) -> list[AuditEntry]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(self._entries)

    def spots(self) -> list[AuditEntry]:
        return [e for e in self._entries if e.kind == SPOT]

    def sentiments(self) -> list[AuditEntry]:
        return [e for e in self._entries if e.kind == SENTIMENT]

    def for_subject(self, subject: str) -> list[AuditEntry]:
        return [e for e in self._entries if e.subject == subject]

    def merge(self, other: "AuditTrail") -> None:
        self._entries.extend(other._entries)

    def to_records(self) -> list[dict[str, Any]]:
        return [e.to_record() for e in self._entries]


class NullAuditTrail:
    """Zero-cost default: records nothing, reports nothing."""

    enabled = False

    def record(self, entry: AuditEntry) -> None:
        pass

    def record_spot(self, *args: Any, **kwargs: Any) -> None:
        pass

    def record_sentiment(self, *args: Any, **kwargs: Any) -> None:
        pass

    def mark(self) -> int:
        return 0

    def since(self, mark: int) -> list[AuditEntry]:
        return []

    @property
    def entries(self) -> list[AuditEntry]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[AuditEntry]:
        return iter(())

    def spots(self) -> list[AuditEntry]:
        return []

    def sentiments(self) -> list[AuditEntry]:
        return []

    def for_subject(self, subject: str) -> list[AuditEntry]:
        return []

    def merge(self, other: Any) -> None:
        pass

    def to_records(self) -> list[dict[str, Any]]:
        return []


NULL_AUDIT = NullAuditTrail()
