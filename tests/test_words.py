from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterint.words import (
    EMPTY_WORD,
    GeneralizedWord,
    Word,
    decompose_at,
    decompose_leading,
    shuffle,
    shuffle_gw,
    word,
    word_power,
)
from oracles import brute_shuffle, strip_decomposition

words_st = st.lists(st.integers(0, 2), max_size=5).map(lambda ls: Word(tuple(ls)))
small_words_st = st.lists(st.integers(0, 2), max_size=3).map(lambda ls: Word(tuple(ls)))


def gw(*pairs):
    return GeneralizedWord({Word(t): c for t, c in pairs})


class TestShuffle:
    def test_single_letters(self):
        assert shuffle(word(0), word(1)) == gw(((0, 1), 1), ((1, 0), 1))

    def test_empty_is_identity(self):
        u = word(0, 1, 0)
        assert shuffle(EMPTY_WORD, u) == GeneralizedWord.of(u)
        assert shuffle(u, EMPTY_WORD) == GeneralizedWord.of(u)

    def test_w0w1_with_w0(self):
        # frozen expectation, confirmed by the positional oracle below
        got = shuffle(word(0, 1), word(0))
        assert got == gw(((0, 1, 0), 1), ((0, 0, 1), 2))
        assert brute_shuffle((0, 1), (0,)) == {(0, 1, 0): 1, (0, 0, 1): 2}

    @given(small_words_st, small_words_st)
    def test_matches_positional_oracle(self, u, v):
        got = shuffle(u, v)
        expect = brute_shuffle(u.letters, v.letters)
        assert {w.letters: c for w, c in got.terms.items()} == expect

    @given(words_st, words_st)
    def test_commutative(self, u, v):
        assert shuffle(u, v) == shuffle(v, u)

    @given(small_words_st, small_words_st, small_words_st)
    @settings(max_examples=40)
    def test_associative(self, u, v, w):
        lhs = shuffle_gw(shuffle(u, v), GeneralizedWord.of(w))
        rhs = shuffle_gw(GeneralizedWord.of(u), shuffle(v, w))
        assert lhs == rhs

    @given(words_st, words_st)
    def test_coefficient_mass(self, u, v):
        # number of interleavings is binomial(|u|+|v|, |u|)
        total = sum(shuffle(u, v).terms.values())
        import math

        assert total == math.comb(len(u) + len(v), len(u))

    @given(words_st, words_st)
    def test_lengths_add(self, u, v):
        assert all(len(w) == len(u) + len(v) for w in shuffle(u, v).terms)


class TestShuffleGw:
    def test_scalars_pull_out(self):
        u = 2 * GeneralizedWord.of(word(0))
        v = GeneralizedWord.of(word(1))
        assert shuffle_gw(u, v) == gw(((0, 1), 2), ((1, 0), 2))

    def test_zero_annihilates(self):
        assert shuffle_gw(GeneralizedWord.zero(), GeneralizedWord.of(word(0, 1))).is_zero

    def test_difference_example(self):
        # (a - b) shuffled with (a) -> 2aa - ab - ba
        u = GeneralizedWord.of(word(0)) - GeneralizedWord.of(word(1))
        got = shuffle_gw(u, GeneralizedWord.of(word(0)))
        assert got == gw(((0, 0), 2), ((0, 1), -1), ((1, 0), -1))

    def test_exact_fraction_coefficients(self):
        u = GeneralizedWord.of(word(0), Fraction(1, 3))
        v = GeneralizedWord.of(word(1), Fraction(2, 5))
        got = shuffle_gw(u, v)
        assert got.coefficient(word(0, 1)) == Fraction(2, 15)
        assert isinstance(got.coefficient(word(0, 1)), Fraction)


coeff_st = st.one_of(
    st.integers(-4, 4).filter(lambda n: n != 0),
    st.builds(Fraction, st.integers(-9, 9).filter(lambda n: n != 0), st.integers(1, 7)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    .map(lambda t: complex(*t))
    .filter(lambda z: z != 0),
)

gw_st = st.dictionaries(words_st, coeff_st, max_size=4).map(GeneralizedWord)


class TestDecomposeAt:
    def test_empty_word(self):
        assert decompose_at(EMPTY_WORD, 0) == [(0, GeneralizedWord.of(EMPTY_WORD))]

    def test_pure_power(self):
        assert decompose_at(word_power(1, 3), 1) == [
            (3, GeneralizedWord.of(EMPTY_WORD))
        ]

    def test_w0w1_at_1(self):
        got = decompose_at(word(0, 1), 1)
        assert got == [
            (0, gw(((1, 0), -1))),
            (1, gw(((0,), 1))),
        ]

    def test_word_not_ending_in_j_is_unchanged(self):
        w = word(1, 0)
        assert decompose_at(w, 1) == [(0, GeneralizedWord.of(w))]

    @given(gw_st, st.integers(0, 2))
    @settings(max_examples=80)
    def test_roundtrip_exact(self, g, j):
        parts = decompose_at(g, j)
        rebuilt = GeneralizedWord.zero()
        for i, part in parts:
            rebuilt = rebuilt + shuffle_gw(part, GeneralizedWord.of(word_power(j, i)))
        assert rebuilt == g

    @given(gw_st, st.integers(0, 2))
    @settings(max_examples=80)
    def test_no_part_ends_in_j(self, g, j):
        for _, part in decompose_at(g, j):
            for w in part.terms:
                assert w.is_empty or w[len(w) - 1] != j


    def test_mixed_fraction_coefficients(self):
        g = GeneralizedWord(
            {
                EMPTY_WORD: Fraction(1, 9),
                word(1, 1): 2,
                word(0, 1, 1): Fraction(1, 3),
                word(1, 0, 1): Fraction(-5, 7),
                word(0, 2, 1, 1): Fraction(3, 2),
                word(2, 1, 0): -3,
            }
        )
        for j in (1, 0, 1):
            parts = decompose_at(g, j)
            rebuilt = GeneralizedWord.zero()
            for i, part in parts:
                rebuilt = rebuilt + shuffle_gw(part, GeneralizedWord.of(word_power(j, i)))
                for c in part.terms.values():
                    assert type(c) in (int, Fraction)
            assert rebuilt == g
            assert any(type(c) is Fraction for _, p in parts for c in p.terms.values())
            # repeats give the same expansion
            assert decompose_at(g, j) == parts
            assert decompose_leading(g, j) == decompose_leading(g, j)


    def test_matches_stripping_oracle(self):
        # 1000 seeded words: the expansion recursion gives the parts of the
        # oracle that strips trailing runs with shuffles, in the same order
        rng = random.Random(1000)
        for _ in range(1000):
            n = rng.choice((2, 3))
            w = Word(tuple(rng.randrange(n) for _ in range(rng.randint(0, 9))))
            j = rng.randrange(n)
            got = [(i, [(u.letters, c) for u, c in g.items()]) for i, g in decompose_at(w, j)]
            assert got == strip_decomposition(w.letters, j), (w, j)
            mirrored = strip_decomposition(w.letters[::-1], j)
            got = [(i, {u.letters: c for u, c in g.items()}) for i, g in decompose_leading(w, j)]
            assert got == [(i, {t[::-1]: m for t, m in terms}) for i, terms in mirrored], (w, j)


class TestDecomposeLeading:
    def test_reversed_roundtrip(self):
        w = word(0, 1, 1, 2)
        assert w.reversed() == word(2, 1, 1, 0)
        assert w.reversed().reversed() == w

    def test_w1w0_at_1(self):
        got = decompose_leading(word(1, 0), 1)
        assert got == [
            (0, gw(((0, 1), -1))),
            (1, gw(((0,), 1))),
        ]

    @given(gw_st, st.integers(0, 2))
    @settings(max_examples=80)
    def test_roundtrip_exact(self, g, j):
        parts = decompose_leading(g, j)
        rebuilt = GeneralizedWord.zero()
        for i, part in parts:
            rebuilt = rebuilt + shuffle_gw(GeneralizedWord.of(word_power(j, i)), part)
        assert rebuilt == g

    @given(gw_st, st.integers(0, 2))
    @settings(max_examples=80)
    def test_no_part_starts_with_j(self, g, j):
        for _, part in decompose_leading(g, j):
            for w in part.terms:
                assert w.is_empty or w[0] != j


class TestSerialization:
    def test_word_validation(self):
        with pytest.raises(ValueError):
            Word((-1, 0))
