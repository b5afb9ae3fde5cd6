"""Unit tests for the span/token data model."""

import dataclasses

import pytest

from repro.nlp.tokens import Chunk, Sentence, Span, TaggedSentence, TaggedToken, Token, cover_span, tokens_text


def tok(text, start=0):
    return Token(text, start, start + len(text))


def ttok(text, tag, start=0):
    return TaggedToken(tok(text, start), tag)


class TestSpan:
    def test_length(self):
        assert len(Span(2, 7)) == 5

    def test_empty_span_allowed(self):
        assert len(Span(3, 3)) == 0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Span(-1, 4)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            Span(5, 2)

    def test_contains(self):
        assert Span(0, 10).contains(Span(2, 5))
        assert Span(0, 10).contains(Span(0, 10))
        assert not Span(2, 5).contains(Span(0, 10))

    def test_overlaps(self):
        assert Span(0, 5).overlaps(Span(4, 8))
        assert not Span(0, 5).overlaps(Span(5, 8))

    def test_text_of(self):
        assert Span(4, 9).text_of("the camera works") == "camer"

    def test_ordering(self):
        assert Span(0, 3) < Span(1, 2)
        assert sorted([Span(5, 6), Span(0, 1)])[0] == Span(0, 1)


class TestToken:
    def test_span_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Token("abc", 0, 5)

    def test_properties(self):
        t = Token("Camera", 10, 16)
        assert t.lower == "camera"
        assert t.is_capitalized
        assert t.is_alpha
        assert t.span == Span(10, 16)

    def test_not_capitalized(self):
        assert not tok("camera").is_capitalized
        assert not tok("9mm").is_capitalized

    def test_tagged_token_delegates(self):
        tt = ttok("Flash", "NN", 3)
        assert tt.text == "Flash"
        assert tt.lower == "flash"
        assert tt.start == 3 and tt.end == 8


class TestSentence:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sentence([])

    def test_span_covers_tokens(self):
        s = Sentence([tok("the", 0), tok("camera", 4)])
        assert s.span == Span(0, 10)
        assert s.start == 0 and s.end == 10

    def test_iteration_and_len(self):
        s = Sentence([tok("a", 0), tok("b", 2)])
        assert len(s) == 2
        assert [t.text for t in s] == ["a", "b"]

    def test_text_of(self):
        doc = "the camera"
        s = Sentence([tok("the", 0), tok("camera", 4)])
        assert s.text_of(doc) == doc


class TestTaggedSentence:
    def test_words_and_tags(self):
        s = TaggedSentence([ttok("the", "DT", 0), ttok("camera", "NN", 4)])
        assert s.words == ["the", "camera"]
        assert s.tags == ["DT", "NN"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaggedSentence([])


class TestChunk:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Chunk("NP", ())

    def test_text_and_head(self):
        c = Chunk("NP", (ttok("battery", "NN", 0), ttok("life", "NN", 8)))
        assert c.text == "battery life"
        assert c.lower == "battery life"
        assert c.head.text == "life"
        assert c.tags == ("NN", "NN")
        assert len(c) == 2

    def test_span(self):
        c = Chunk("NP", (ttok("battery", "NN", 4), ttok("life", "NN", 12)))
        assert c.span == Span(4, 16)


class TestLeanModel:
    """Derived fields are stored once and stay out of identity."""

    def test_derived_fields_match_sources(self):
        t = tok("DoesN'T", 5)
        assert t.lower == t.text.lower() == "doesn't"
        tt = TaggedToken(t, "VBZ")
        assert (tt.text, tt.lower, tt.start, tt.end) == (t.text, t.lower, t.start, t.end)
        assert tt.span == t.span == Span(5, 12)

    def test_chunk_span_covers_tokens(self):
        tokens = (ttok("the", "DT", 2), ttok("battery", "NN", 6), ttok("life", "NN", 14))
        c = Chunk("NP", tokens)
        assert c.span == Span(2, 18)
        assert all(c.span.contains(t.span) for t in tokens)

    def test_equality_hash_and_repr_ignore_derived_fields(self):
        a, b = tok("Flash", 3), tok("Flash", 3)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Token(text='Flash', start=3, end=8)"
        assert [f.name for f in dataclasses.fields(Token) if f.compare] == ["text", "start", "end"]

        ta, tb = TaggedToken(a, "NN"), TaggedToken(b, "NN")
        assert ta == tb and hash(ta) == hash(tb)
        assert ta != TaggedToken(a, "NNP")
        assert repr(ta) == f"TaggedToken(token={a!r}, tag='NN')"
        assert [f.name for f in dataclasses.fields(TaggedToken) if f.compare] == ["token", "tag"]

        ca, cb = Chunk("NP", (ta,)), Chunk("NP", (tb,))
        assert ca == cb and hash(ca) == hash(cb)
        assert repr(ca) == f"Chunk(label='NP', tokens=({ta!r},))"
        assert [f.name for f in dataclasses.fields(Chunk) if f.compare] == ["label", "tokens"]

    @pytest.mark.parametrize(
        "obj",
        [
            Span(0, 4),
            tok("zoom"),
            ttok("zoom", "NN"),
            Chunk("NP", (ttok("zoom", "NN"),)),
        ],
        ids=["Span", "Token", "TaggedToken", "Chunk"],
    )
    def test_frozen_and_slotted(self, obj):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
        assert not hasattr(obj, "__dict__")

    def test_replace_recomputes_derived_fields(self):
        t = dataclasses.replace(tok("Flash", 3), text="ZOOMS", start=0, end=5)
        assert t.lower == "zooms"


class TestHelpers:
    def test_tokens_text(self):
        assert tokens_text([tok("a", 0), tok("b", 2)]) == "a b"

    def test_cover_span(self):
        assert cover_span([Span(3, 5), Span(0, 2), Span(4, 9)]) == Span(0, 9)

    def test_cover_span_empty(self):
        with pytest.raises(ValueError):
            cover_span([])
