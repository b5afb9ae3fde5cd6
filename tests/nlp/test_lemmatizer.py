"""Unit tests for the lemmatizer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.nlp.lemmatizer import Lemmatizer, lemmatize


class TestVerbLemmas:
    def test_be_forms(self):
        for form, tag in [("is", "VBZ"), ("are", "VBP"), ("was", "VBD"), ("been", "VBN"), ("being", "VBG"), ("am", "VBP")]:
            assert lemmatize(form, tag) == "be"

    def test_regular_s(self):
        assert lemmatize("works", "VBZ") == "work"
        assert lemmatize("offers", "VBZ") == "offer"

    def test_es_after_sibilant(self):
        assert lemmatize("crashes", "VBZ") == "crash"
        assert lemmatize("misses", "VBZ") == "miss"

    def test_ed_regular(self):
        assert lemmatize("worked", "VBD") == "work"
        assert lemmatize("impressed", "VBN") == "impress"

    def test_ed_silent_e(self):
        assert lemmatize("loved", "VBD") == "love"
        assert lemmatize("improved", "VBN") == "improve"

    def test_ed_doubling(self):
        assert lemmatize("stopped", "VBD") == "stop"

    def test_ied(self):
        assert lemmatize("tried", "VBD") == "try"

    def test_ing(self):
        assert lemmatize("working", "VBG") == "work"
        assert lemmatize("taking", "VBG") == "take"
        assert lemmatize("running", "VBG") == "run"

    def test_irregular_past(self):
        assert lemmatize("took", "VBD") == "take"
        assert lemmatize("broke", "VBD") == "break"
        assert lemmatize("felt", "VBD") == "feel"
        assert lemmatize("thought", "VBD") == "think"

    def test_uppercase_input(self):
        assert lemmatize("Impressed", "VBN") == "impress"

    def test_extra_verb_bases_reach_stem_repair(self):
        assert Lemmatizer({"zorbe"}).lemmatize("zorbing", "VBG") == "zorbe"
        assert Lemmatizer().lemmatize("zorbing", "VBG") == "zorb"


class TestNounLemmas:
    def test_regular_plural(self):
        assert lemmatize("cameras", "NNS") == "camera"
        assert lemmatize("pictures", "NNS") == "picture"

    def test_ies_plural(self):
        assert lemmatize("batteries", "NNS") == "battery"

    def test_es_plural(self):
        assert lemmatize("flashes", "NNS") == "flash"
        assert lemmatize("boxes", "NNS") == "box"

    def test_irregular_plural(self):
        assert lemmatize("people", "NNS") == "person"
        assert lemmatize("children", "NNS") == "child"
        assert lemmatize("lenses", "NNS") == "lens"

    def test_invariant_nouns(self):
        assert lemmatize("series", "NNS") == "series"
        assert lemmatize("species", "NNS") == "species"

    def test_ss_final_not_stripped(self):
        assert lemmatize("glass", "NNS") == "glass"

    def test_singular_untouched(self):
        assert lemmatize("camera", "NN") == "camera"


class TestGradedForms:
    def test_irregular_comparatives(self):
        assert lemmatize("better", "JJR") == "good"
        assert lemmatize("worst", "JJS") == "bad"

    def test_regular_comparative(self):
        assert lemmatize("faster", "JJR") == "fast"
        assert lemmatize("sharpest", "JJS") == "sharp"

    def test_y_comparative(self):
        assert lemmatize("happier", "JJR") == "happy"

    def test_doubling_comparative(self):
        assert lemmatize("bigger", "JJR") == "big"


class TestNonInflectedTags:
    def test_adjective_passthrough(self):
        assert lemmatize("excellent", "JJ") == "excellent"

    def test_preposition_passthrough(self):
        assert lemmatize("With", "IN") == "with"


class TestProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=15),
           st.sampled_from(["VB", "VBD", "VBZ", "VBG", "VBN", "NN", "NNS", "JJ", "JJR"]))
    def test_lemma_is_lowercase_and_nonempty(self, word, tag):
        lemma = lemmatize(word, tag)
        assert lemma == lemma.lower()
        assert lemma

    @given(st.sampled_from("work offer provide impress disappoint improve handle support".split()))
    def test_inflection_roundtrip(self, base):
        lem = Lemmatizer()
        vbz = base + ("es" if base.endswith(("s", "sh", "ch", "x", "z")) else "s")
        assert lem.lemmatize(vbz, "VBZ") == base
        vbd = base + ("d" if base.endswith("e") else "ed")
        assert lem.lemmatize(vbd, "VBD") == base
