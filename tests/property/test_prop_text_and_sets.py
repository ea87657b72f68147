"""Property-based tests: text transformations and set similarities."""

import math

from hypothesis import given, settings, strategies as st

from repro.schema.similarity import cosine, dice, jaccard
from repro.utils.tokenize import normalize, qgrams, tokenize

text = st.text(max_size=60)
# Every code point (surrogates included), weighted towards the separators,
# compatibility forms and case mappings tokenization has to agree on.
TRICKY = "\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2028\u2029\u3000\u200b_-. \u00dfﬁ①３\u0130\u0345"
unicode_text = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from(TRICKY)),
    max_size=40,
)
token_sets = st.sets(st.text(alphabet="abcdefg", min_size=1, max_size=4), max_size=12)


class TestNormalizeProperties:
    @given(text)
    def test_idempotent(self, value):
        assert normalize(normalize(value)) == normalize(value)

    @given(text)
    def test_output_alphabet(self, value):
        out = normalize(value)
        assert out == out.strip()
        assert "  " not in out

    @given(text)
    def test_case_insensitive(self, value):
        assert normalize(value.upper()) == normalize(value.lower())


class TestTokenizeProperties:
    @given(text, st.integers(min_value=1, max_value=5))
    def test_tokens_respect_min_length(self, value, min_length):
        assert all(len(t) >= min_length for t in tokenize(value, min_length))

    @given(text)
    def test_tokens_are_normalized_words(self, value):
        for token in tokenize(value):
            assert token == normalize(token)

    @settings(max_examples=500)
    @given(unicode_text, st.integers(min_value=0, max_value=4))
    def test_tokenize_is_split_of_normalize(self, value, min_length):
        expected = [t for t in normalize(value).split() if len(t) >= min_length]
        assert tokenize(value, min_length) == expected

    @given(text, st.integers(min_value=2, max_value=5))
    def test_qgrams_have_bounded_length(self, value, q):
        for gram in qgrams(value, q):
            assert 1 <= len(gram) <= q


class TestSimilarityProperties:
    @given(token_sets, token_sets)
    def test_bounds(self, a, b):
        for fn in (jaccard, dice, cosine):
            assert 0.0 <= fn(a, b) <= 1.0 + 1e-12

    @given(token_sets, token_sets)
    def test_symmetry(self, a, b):
        for fn in (jaccard, dice, cosine):
            assert fn(a, b) == fn(b, a)

    @given(token_sets)
    def test_identity(self, a):
        for fn in (jaccard, dice, cosine):
            assert fn(a, a) == (1.0 if a else 0.0)

    @given(token_sets, token_sets)
    def test_zero_iff_disjoint(self, a, b):
        disjoint = not (a & b) or not a or not b
        for fn in (jaccard, dice, cosine):
            assert (fn(a, b) == 0.0) == disjoint

    @given(token_sets, token_sets)
    def test_dice_dominates_jaccard(self, a, b):
        assert dice(a, b) >= jaccard(a, b) - 1e-12

    @given(token_sets, token_sets)
    def test_jaccard_triangle_via_distance(self, a, b):
        # jaccard distance d = 1 - j satisfies d(a,b) <= d(a,c) + d(c,b)
        # check the degenerate c = a case, which must always hold
        d_ab = 1 - jaccard(a, b)
        d_aa = 1 - jaccard(a, a) if a else 1.0
        assert d_ab <= d_aa + d_ab + 1e-12


class TestEntropyProperties:
    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=12))
    def test_entropy_bounds(self, counts):
        from repro.schema.entropy import shannon_entropy

        h = shannon_entropy(counts)
        assert h >= 0.0
        positive = [c for c in counts if c > 0]
        if positive:
            assert h <= math.log2(len(positive)) + 1e-9

    @given(st.integers(min_value=1, max_value=64))
    def test_uniform_is_maximal(self, n):
        from repro.schema.entropy import shannon_entropy

        assert shannon_entropy([5] * n) <= math.log2(n) + 1e-9
        assert shannon_entropy([5] * n) >= math.log2(n) - 1e-9
