"""Hosted application services.

"It enables the deployment of a variety of document-level and
corpus-level miners in a scalable manner, and feeds information that
drives end-user applications through a set of hosted Web services."

These services sit behind the Vinci bus and answer the queries the
reputation-management GUI (paper Figures 4–5) issues: per-subject
sentiment counts, sentiment-bearing sentence listings, and boolean/phrase
document search.

Every handler returns the v1 envelope from :mod:`.api` — success as
``ok_envelope(data)``, client mistakes as ``error_envelope(code, msg)``
flowing through Vinci as data (raising would consume retry budget on a
call that can never succeed).  ``subjects`` and ``search`` paginate with
opaque cursors surfaced in ``meta.cursor``.
"""

from __future__ import annotations

from typing import Any

from ..core.model import Polarity
from .api import (
    ERR_BAD_CURSOR,
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    CursorError,
    Envelope,
    error_envelope,
    make_meta,
    ok_envelope,
    paginate,
)
from .datastore import DataStore
from .indexer import InvertedIndex, SentimentIndex
from .query import QueryParseError
from .vinci import VinciBus


def _bad_request(message: str) -> Envelope:
    return error_envelope(ERR_BAD_REQUEST, message)


def _checked_limit(
    payload: dict[str, Any], default: int
) -> tuple[int | None, Envelope | None]:
    """Validated row limit, or an error envelope for the caller to return."""
    limit = payload.get("limit", default)
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        return None, _bad_request(f"limit must be a non-negative integer, got {limit!r}")
    return limit, None


class SentimentQueryService:
    """Query-time access to the sentiment index (mode B's online half)."""

    def __init__(self, sentiment_index: SentimentIndex, store: DataStore):
        self._index = sentiment_index
        self._store = store

    def counts(self, payload: dict[str, Any]) -> Envelope:
        """``{"subject": name}`` → polarity counts."""
        if not isinstance(payload, dict):
            return _bad_request(f"payload must be a dict, got {type(payload).__name__}")
        subject = payload.get("subject")
        if not subject:
            return _bad_request("missing required field 'subject'")
        subject = str(subject)
        counts = self._index.counts(subject)
        return ok_envelope(
            {
                "subject": subject,
                "positive": counts[Polarity.POSITIVE],
                "negative": counts[Polarity.NEGATIVE],
            }
        )

    def sentences(self, payload: dict[str, Any]) -> Envelope:
        """``{"subject": name, "polarity": "+"|"-"|None, "limit": n}`` →
        sentiment-bearing sentences, the Figure-5 listing."""
        if not isinstance(payload, dict):
            return _bad_request(f"payload must be a dict, got {type(payload).__name__}")
        subject = payload.get("subject")
        if not subject:
            return _bad_request("missing required field 'subject'")
        subject = str(subject)
        polarity = payload.get("polarity")
        wanted = Polarity.from_symbol(polarity) if polarity else None
        limit, error = _checked_limit(payload, 20)
        if error is not None:
            return error
        rows = []
        for entry in self._index.query(subject, wanted)[:limit]:
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

    def subjects(self, payload: dict[str, Any]) -> Envelope:
        """Ranked subjects, one cursor-paginated page per call."""
        if not isinstance(payload, dict):
            return _bad_request(f"payload must be a dict, got {type(payload).__name__}")
        limit, error = _checked_limit(payload, 50)
        if error is not None:
            return error
        totals = self._index.subject_counts()
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        try:
            page, cursor = paginate(
                ranked,
                limit=limit,
                cursor=payload.get("cursor"),
                kind="subjects",
                sort_key=lambda kv: (-kv[1], kv[0]),
            )
        except CursorError as exc:
            return error_envelope(ERR_BAD_CURSOR, str(exc))
        return ok_envelope(
            {"subjects": [name for name, _ in page]},
            meta=make_meta(cursor=cursor),
        )


class SearchService:
    """Boolean/phrase/regex document search over the inverted index."""

    def __init__(self, index: InvertedIndex):
        self._index = index

    def search(self, payload: dict[str, Any]) -> Envelope:
        if not isinstance(payload, dict):
            return _bad_request(f"payload must be a dict, got {type(payload).__name__}")
        query = payload.get("q", "")
        if not query:
            return _bad_request("missing required field 'q'")
        limit, error = _checked_limit(payload, 100)
        if error is not None:
            return error
        try:
            ids = self._index.search(query)
        except QueryParseError as exc:
            return _bad_request(f"bad query: {exc}")
        try:
            page, cursor = paginate(
                sorted(ids),
                limit=limit,
                cursor=payload.get("cursor"),
                kind="search",
                sort_key=lambda entity_id: entity_id,
            )
        except CursorError as exc:
            return error_envelope(ERR_BAD_CURSOR, str(exc))
        return ok_envelope(
            {"q": query, "total": len(ids), "ids": page},
            meta=make_meta(cursor=cursor),
        )


class StoreService:
    """Entity retrieval for application front-ends."""

    def __init__(self, store: DataStore):
        self._store = store

    def get(self, payload: dict[str, Any]) -> Envelope:
        entity_id = payload.get("entity_id", "")
        entity = self._store.get(entity_id)
        if entity is None:
            return error_envelope(ERR_NOT_FOUND, f"no such entity: {entity_id!r}")
        return ok_envelope(entity.to_record())

    def stats(self, _payload: dict[str, Any]) -> Envelope:
        return ok_envelope(dict(self._store.stats()))


def register_services(
    bus: VinciBus,
    store: DataStore,
    index: InvertedIndex,
    sentiment_index: SentimentIndex,
) -> list[str]:
    """Wire the standard application services onto the bus."""
    sentiment = SentimentQueryService(sentiment_index, store)
    search = SearchService(index)
    storage = StoreService(store)
    bindings = {
        "sentiment.counts": sentiment.counts,
        "sentiment.sentences": sentiment.sentences,
        "sentiment.subjects": sentiment.subjects,
        "search.query": search.search,
        "store.get": storage.get,
        "store.stats": storage.stats,
    }
    for name, handler in bindings.items():
        bus.register(name, handler)
    return sorted(bindings)


def sentence_around(content: str, start: int, end: int) -> str:
    """Smallest period-bounded window around [start, end)."""
    lo = max(content.rfind(".", 0, start), content.rfind("!", 0, start), content.rfind("?", 0, start))
    lo = lo + 1 if lo >= 0 else 0
    his = [content.find(ch, end) for ch in ".!?"]
    his = [h for h in his if h >= 0]
    hi = min(his) + 1 if his else len(content)
    return content[lo:hi].strip()
