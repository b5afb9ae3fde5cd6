"""Core token and span data structures shared across the NLP substrate.

Every stage of the pipeline (tokenizer, tagger, chunker, parser, and the
WebFountain-style miners) exchanges these types.  Character offsets always
refer to the *original* document text, which lets miners annotate entities
without ever mutating the raw text — the WebFountain contract.

:class:`Span`, :class:`Token`, :class:`TaggedToken` and :class:`Chunk` are
built and read by the hundred thousand per corpus, so they are frozen,
slotted dataclasses that store each derived value once, in a field that
takes no part in equality, hashing or ``repr``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, Sequence


def _slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...]:
    """The ``__set__`` of each slot of frozen dataclass *cls*, in field order.

    Each class below writes its slots through these in its own
    ``__init__``, skipping the frozen ``__setattr__`` that a generated
    ``__init__`` calls once per field.  Construction sits on the memo-hit
    paths (a tag-memo hit builds one tagged token per token), so it must
    stay cheap.
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, order=True, slots=True, init=False)
class Span:
    """A half-open character interval ``[start, end)`` in a document."""

    start: int
    end: int

    def __init__(self, start: int, end: int) -> None:
        if start < 0 or end < start:
            raise ValueError(f"invalid span [{start}, {end})")
        _set_span_start(self, start)
        _set_span_end(self, end)

    def __len__(self) -> int:
        return self.end - self.start

    def contains(self, other: "Span") -> bool:
        """Return True when *other* lies entirely inside this span."""
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Span") -> bool:
        """Return True when the two spans share at least one character."""
        return self.start < other.end and other.start < self.end

    def text_of(self, document: str) -> str:
        """Slice this span out of *document*."""
        return document[self.start : self.end]


_set_span_start, _set_span_end = _slot_setters(Span)


@dataclass(frozen=True, slots=True, init=False)
class Token:
    """A single token with its surface form and source offsets."""

    text: str
    start: int
    end: int
    lower: str = field(init=False, repr=False, compare=False)

    def __init__(self, text: str, start: int, end: int) -> None:
        if end - start != len(text):
            raise ValueError(f"token text {text!r} does not fit span [{start}, {end})")
        _set_token_text(self, text)
        _set_token_start(self, start)
        _set_token_end(self, end)
        _set_token_lower(self, text.lower())

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    @property
    def is_capitalized(self) -> bool:
        """True when the first character is an uppercase letter."""
        return bool(self.text) and self.text[0].isupper()

    @property
    def is_alpha(self) -> bool:
        return self.text.isalpha()


_set_token_text, _set_token_start, _set_token_end, _set_token_lower = _slot_setters(Token)


@dataclass(frozen=True, slots=True, init=False)
class TaggedToken:
    """A token paired with its Penn Treebank part-of-speech tag.

    ``text``, ``lower``, ``start`` and ``end`` are copied from the token,
    so a read takes one attribute hop.
    """

    token: Token
    tag: str
    text: str = field(init=False, repr=False, compare=False)
    lower: str = field(init=False, repr=False, compare=False)
    start: int = field(init=False, repr=False, compare=False)
    end: int = field(init=False, repr=False, compare=False)

    def __init__(self, token: Token, tag: str) -> None:
        _set_tagged_token(self, token)
        _set_tagged_tag(self, tag)
        _set_tagged_text(self, token.text)
        _set_tagged_lower(self, token.lower)
        _set_tagged_start(self, token.start)
        _set_tagged_end(self, token.end)

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)

    @property
    def is_capitalized(self) -> bool:
        return self.token.is_capitalized

    @property
    def is_alpha(self) -> bool:
        return self.token.is_alpha


_set_tagged_token, _set_tagged_tag, _set_tagged_text, _set_tagged_lower, _set_tagged_start, _set_tagged_end = (
    _slot_setters(TaggedToken)
)


@dataclass
class Sentence:
    """A sentence: an ordered run of tokens plus its own span.

    ``index`` is the zero-based position of the sentence in the document,
    used by the sentiment context window rules to pull in neighbouring
    sentences.
    """

    tokens: list[Token]
    index: int = 0

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a sentence must contain at least one token")

    @property
    def span(self) -> Span:
        return Span(self.tokens[0].start, self.tokens[-1].end)

    @property
    def start(self) -> int:
        return self.tokens[0].start

    @property
    def end(self) -> int:
        return self.tokens[-1].end

    def text_of(self, document: str) -> str:
        return self.span.text_of(document)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)


@dataclass
class TaggedSentence:
    """A sentence whose tokens carry POS tags."""

    tokens: list[TaggedToken]
    index: int = 0

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a tagged sentence must contain at least one token")

    @property
    def span(self) -> Span:
        return Span(self.tokens[0].start, self.tokens[-1].end)

    @property
    def words(self) -> list[str]:
        return [t.text for t in self.tokens]

    @property
    def tags(self) -> list[str]:
        return [t.tag for t in self.tokens]

    def text_of(self, document: str) -> str:
        return self.span.text_of(document)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[TaggedToken]:
        return iter(self.tokens)


@dataclass(frozen=True, slots=True, init=False)
class Chunk:
    """A contiguous phrase chunk (e.g. a base noun phrase or verb group).

    ``label`` is a phrase category such as ``NP`` or ``VG``; ``tokens`` are
    the tagged tokens covered by the chunk, in order.
    """

    label: str
    tokens: tuple[TaggedToken, ...]
    span: Span = field(init=False, repr=False, compare=False)

    def __init__(self, label: str, tokens: tuple[TaggedToken, ...]) -> None:
        if not tokens:
            raise ValueError("a chunk must cover at least one token")
        _set_chunk_label(self, label)
        _set_chunk_tokens(self, tokens)
        _set_chunk_span(self, Span(tokens[0].start, tokens[-1].end))

    @property
    def text(self) -> str:
        """Surface form with single spaces (not offset-faithful)."""
        return " ".join(t.text for t in self.tokens)

    @property
    def lower(self) -> str:
        return self.text.lower()

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.tag for t in self.tokens)

    @property
    def head(self) -> TaggedToken:
        """Head token: the last token of the chunk (right-headed phrases)."""
        return self.tokens[-1]

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[TaggedToken]:
        return iter(self.tokens)


_set_chunk_label, _set_chunk_tokens, _set_chunk_span = _slot_setters(Chunk)


def tokens_text(tokens: Sequence[Token | TaggedToken]) -> str:
    """Join token surface forms with single spaces."""
    return " ".join(t.text for t in tokens)


def cover_span(spans: Iterable[Span]) -> Span:
    """Smallest span covering all *spans*; raises on empty input."""
    spans = list(spans)
    if not spans:
        raise ValueError("cover_span requires at least one span")
    return Span(min(s.start for s in spans), max(s.end for s in spans))
