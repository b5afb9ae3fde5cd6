"""Unit and property tests for the tokenizer."""

import string

from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.tokenizer import _CLITICS, Tokenizer, tokenize
from repro.nlp.tokens import Token


def words(text):
    return [t.text for t in tokenize(text)]


class TestBasicTokenization:
    def test_simple_sentence(self):
        assert words("The camera works well.") == ["The", "camera", "works", "well", "."]

    def test_punctuation_split(self):
        assert words("great!") == ["great", "!"]
        assert words("fast, light") == ["fast", ",", "light"]

    def test_question_and_quotes(self):
        assert words('Is it "good"?') == ["Is", "it", '"', "good", '"', "?"]

    def test_empty_and_whitespace(self):
        assert words("") == []
        assert words("   \n\t ") == []

    def test_parentheses(self):
        assert words("the (new) model") == ["the", "(", "new", ")", "model"]


class TestContractions:
    def test_nt(self):
        assert words("doesn't") == ["does", "n't"]
        assert words("don't work") == ["do", "n't", "work"]

    def test_possessive(self):
        assert words("Sony's camera") == ["Sony", "'s", "camera"]

    def test_will_and_would(self):
        assert words("it'll") == ["it", "'ll"]
        assert words("I'd") == ["I", "'d"]

    def test_are_and_have(self):
        assert words("they're") == ["they", "'re"]
        assert words("we've") == ["we", "'ve"]

    def test_am(self):
        assert words("I'm happy") == ["I", "'m", "happy"]


class TestAbbreviations:
    def test_title_keeps_period(self):
        assert words("Prof. Wilson") == ["Prof.", "Wilson"]
        assert words("Mr. Smith agrees.") == ["Mr.", "Smith", "agrees", "."]

    def test_acronym_with_internal_periods(self):
        assert words("the U.S. market") == ["the", "U.S.", "market"]

    def test_single_initial(self):
        assert words("J. Yi wrote it.") == ["J.", "Yi", "wrote", "it", "."]

    def test_regular_word_loses_period(self):
        assert words("It works.") == ["It", "works", "."]

    def test_custom_abbreviation(self):
        tk = Tokenizer(extra_abbreviations={"approx.", "config."})
        assert [t.text for t in tk.tokenize("config. file")] == ["config.", "file"]


class TestNumbersAndCompounds:
    def test_decimal(self):
        assert words("3.5 stars") == ["3.5", "stars"]

    def test_thousands(self):
        assert words("1,000 dollars") == ["1,000", "dollars"]

    def test_alphanumeric_model_names(self):
        assert words("the NR70 series") == ["the", "NR70", "series"]
        assert words("x335 and x350") == ["x335", "and", "x350"]

    def test_number_with_unit_suffix(self):
        assert words("72GB drive") == ["72GB", "drive"]

    def test_hyphenated_compound(self):
        assert words("add-on adapter") == ["add-on", "adapter"]
        assert words("state-of-the-art") == ["state-of-the-art"]


class TestOffsets:
    def test_offsets_roundtrip(self):
        text = "Prof. Wilson doesn't like Sony's NR70, does he?"
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.text

    def test_tokens_in_order_and_disjoint(self):
        text = "The flash, which I love, isn't bad."
        toks = tokenize(text)
        for a, b in zip(toks, toks[1:]):
            assert a.end <= b.start


# Printable text without surrogates; the invariants must hold on anything.
_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=200)


class TestProperties:
    @given(_text)
    def test_offsets_always_faithful(self, text):
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.text

    @given(_text)
    def test_tokens_ordered_and_nonoverlapping(self, text):
        toks = tokenize(text)
        for a, b in zip(toks, toks[1:]):
            assert a.end <= b.start

    @given(_text)
    def test_no_whitespace_inside_tokens(self, text):
        for tok in tokenize(text):
            assert not any(c.isspace() for c in tok.text)

    @given(st.lists(st.sampled_from(["camera", "great", "doesn't", "NR70", "U.S.", "3.5", "!"]), max_size=20))
    def test_word_material_preserved(self, parts):
        text = " ".join(parts)
        rebuilt = "".join(t.text for t in tokenize(text))
        assert rebuilt == text.replace(" ", "")


def _split_clitics_full(raw, start):
    """The clitic loop with no apostrophe fast path, as a reference."""
    lower = raw.lower()
    for clitic in _CLITICS:
        if lower.endswith(clitic) and len(raw) > len(clitic):
            head = raw[: -len(clitic)]
            if clitic == "'" and not head[-1].isalpha():
                continue
            if "'" in head:
                continue
            split_at = start + len(head)
            return [Token(head, start, split_at), Token(raw[len(head) :], split_at, start + len(raw))]
    return [Token(raw, start, start + len(raw))]


class TestClitics:
    def test_every_clitic_has_an_apostrophe(self):
        # The fast path in _split_clitics relies on this.
        assert all("'" in clitic for clitic in _CLITICS)

    @given(st.text(alphabet="aAdlmnNrsStTv'e9", min_size=1, max_size=12), st.integers(0, 50))
    def test_fast_path_matches_full_loop(self, raw, start):
        assert Tokenizer._split_clitics(raw, start) == _split_clitics_full(raw, start)
