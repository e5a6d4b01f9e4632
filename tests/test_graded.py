"""Koszul sign engine and graded module elements."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import graded
from ainfty.ainfty import AInftyAlgebra, insertions
from ainfty.coeff import RingElement, RingSpec
from ainfty.errors import ConfigurationError
from ainfty.graded import (Element, GradedBasis, add_term, crossing_sign, maltese,
                           maltese_prefixes, marked_word_count, quotient, reduced, word_count,
                           words_over)
from ainfty.hochschild import HochschildChain, cyclic_t

from oracles import coderivation, koszul_sign_cyclic, reduced_mutant

SPEC = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(4))
BASIS = GradedBasis(("1", "x", "y", "z"), (0, 1, 2, 3), unit=0)
ONE = RingElement.one(SPEC)


@pytest.mark.parametrize("size", range(5))
def test_word_counts_are_the_sums_they_close(size):
    # the reports print these counts, so the closed forms must give the same integers
    for top in range(-1, 9):
        assert word_count(size, top) == sum(size ** n for n in range(top + 1))
        assert marked_word_count(size, top) == sum((n + 1) * size ** n for n in range(top + 1))
        if top <= 4:
            assert word_count(size, top) == sum(
                1 for n in range(top + 1) for _ in words_over(range(size), n))


def test_maltese_empty():
    assert maltese([], 0) == 0


def test_maltese_values():
    assert maltese([1, 2, 3], 2) == 1
    assert maltese([2, 2], 2) == 2


def test_maltese_out_of_range():
    with pytest.raises(ConfigurationError):
        maltese([1], 2)


def test_maltese_prefix_additivity():
    rng = random.Random(3)
    for _ in range(100):
        degs = [rng.randint(-2, 4) for _ in range(rng.randint(0, 6))]
        for i in range(len(degs) + 1):
            for j in range(len(degs) - i + 1):
                assert maltese(degs, i) + maltese(degs[i:], j) == maltese(degs, i + j)


def test_maltese_prefixes_read_maltese_at_every_position():
    rng = random.Random(5)
    for _ in range(100):
        degs = [rng.randint(-2, 4) for _ in range(rng.randint(0, 6))]
        base = rng.randint(-3, 3)
        assert maltese_prefixes(degs, base) == [base + maltese(degs, i)
                                                for i in range(len(degs) + 1)]
    assert maltese_prefixes([]) == [0]


# The two facts about the crossing sign that the twin pairing of
# ``hochschild.identity_residuals`` rests on, and the rotation sign of
# ``hochschild._rotations``, over words of BASIS letters.
WORDS = st.lists(st.sampled_from(range(len(BASIS))), max_size=7)


def _cut(data, word):
    """The shifted degrees of the blocks A, B, C of a word cut at two drawn
    places."""
    i = data.draw(st.integers(0, len(word)))
    j = data.draw(st.integers(i, len(word)))
    prefixes = maltese_prefixes([BASIS.degree(x) for x in word])
    return prefixes[i], prefixes[j] - prefixes[i], prefixes[-1] - prefixes[j]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word=WORDS, data=st.data())
def test_crossing_sign_is_that_of_the_block_and_of_the_rest(word, data):
    a, b, c = _cut(data, word)
    total = a + b + c
    assert crossing_sign(total, a) == crossing_sign(total, b + c)
    assert crossing_sign(total, 0) == crossing_sign(total, total) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word=WORDS, data=st.data())
def test_crossing_signs_compose_along_rotations(word, data):
    # ABC -> CAB -> BCA, C past AB and then B past CA, is BC past A at once
    a, b, c = _cut(data, word)
    total = a + b + c
    assert crossing_sign(total, c) * crossing_sign(total, b) == crossing_sign(total, b + c)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word=WORDS.filter(bool), data=st.data())
def test_crossing_sign_moves_a_tail_block_one_letter_at_a_time(word, data):
    # the last r letters to the front is r steps of the oracle's cyclic sign
    r = data.draw(st.integers(0, len(word)))
    prefixes = maltese_prefixes([BASIS.degree(x) for x in word])
    current, sign = tuple(word), 1
    for _ in range(r):
        sign *= koszul_sign_cyclic([BASIS.degree(x) for x in current])
        current = current[-1:] + current[:-1]
    assert sign == crossing_sign(prefixes[-1], prefixes[-1] - prefixes[len(word) - r])


def test_cyclic_sign_small_cases():
    assert koszul_sign_cyclic([1, 1]) == 1
    assert koszul_sign_cyclic([2, 2]) == -1
    assert koszul_sign_cyclic([5]) == 1


def test_cyclic_sign_rejects_empty():
    with pytest.raises(ConfigurationError):
        koszul_sign_cyclic([])


def test_full_rotation_is_identity():
    rng = random.Random(7)
    for _ in range(200):
        word = tuple(rng.randrange(len(BASIS)) for _ in range(rng.randint(1, 6)))
        current, sign = word, 1
        for _ in range(len(word)):
            sign *= koszul_sign_cyclic([BASIS.degree(i) for i in current])
            current = (current[-1],) + current[:-1]
        assert current == word
        assert sign == 1
        # cyclic_t rotates the marked word with the same sign, n times over
        chain = HochschildChain.generator(BASIS, word[0], word[1:], ONE, reduced=False)
        once = cyclic_t(BASIS, chain)
        rotated = (word[-1],) + word[:-1]
        s = koszul_sign_cyclic([BASIS.degree(i) for i in word])
        assert once == HochschildChain.generator(
            BASIS, rotated[0], rotated[1:], ONE.scale(s), reduced=False)
        for _ in range(len(word) - 1):
            once = cyclic_t(BASIS, once)
        assert once == chain


# Substituting m_k(span) into a word is what `insertions` yields and what
# `coderivation` sums: the cases below pin its range, signs and linearity
# on small algebras over BASIS (x, y, z of degrees 1, 2, 3).


def _algebra(ops, monoid=((0, 0),)):
    return AInftyAlgebra(BASIS, monoid, ops, SPEC)


def test_substitute_zero_element():
    # m_1(x) = 0 while m_1 is stored: no insertion, and the coderivation is 0
    algebra = _algebra({(1, 0): {(2,): {3: ONE}}})
    assert list(insertions(algebra, (1, 2))) == [(1, 1, {3: ONE}, 1)]
    assert list(insertions(algebra, (1, 1))) == []
    assert coderivation(algebra, {(1, 1): ONE}) == {}


def test_substitute_unit_insertion_sign():
    # curvature T e 1 at every position of (x, y): prefixes of shifted
    # degree 0, 0, 1 give the signs +, +, -
    curv = RingElement.monomial(SPEC, 1, lam=1, e=1)
    algebra = _algebra({(0, 1): {(): {0: ONE}}}, monoid=((0, 0), (1, 2)))
    assert [(i, k, sign) for i, k, _, sign in insertions(algebra, (1, 2))] == \
        [(0, 0, 1), (1, 0, 1), (2, 0, -1)]
    assert coderivation(algebra, {(1, 2): ONE}) == {
        (0, 1, 2): curv, (1, 0, 2): curv, (1, 2, 0): -curv}


def test_substitute_prefix_sign():
    # prefix (y) with |y| = 2 gives maltese = 1, so the sign is -1
    algebra = _algebra({(1, 0): {(1,): {2: ONE}}})
    assert list(insertions(algebra, (2, 1))) == [(1, 1, {2: ONE}, -1)]
    assert coderivation(algebra, {(2, 1): ONE}) == {(2, 2): -ONE}
    # a base shifts the parity of every position
    assert list(insertions(algebra, (2, 1), base=1)) == [(1, 1, {2: ONE}, 1)]


def test_substitute_bilinear():
    algebra = _algebra({(1, 0): {(1,): {2: ONE}, (2,): {3: -ONE}},
                        (2, 0): {(1, 1): {2: ONE.scale(2)}}})
    rng = random.Random(11)
    for _ in range(50):
        w1, w2 = (tuple(rng.randrange(1, len(BASIS)) for _ in range(3)) for _ in range(2))
        c1 = RingElement.monomial(SPEC, rng.randint(1, 3), lam=Fraction(1, 2))
        c2 = RingElement.monomial(SPEC, rng.randint(1, 3), lam=1)
        merged = coderivation(algebra, {w1: c1, w2: c2} if w1 != w2 else {w1: c1 + c2})
        split: dict = {}
        for word, coeff in ((w1, c1), (w2, c2)):
            for key, val in coderivation(algebra, {word: ONE}).items():
                add_term(split, key, coeff * val)
        assert merged == split


def test_substitute_range_check():
    # every insertion replaces a span inside the word, arity 0 included
    algebra = _algebra({(0, 1): {(): {0: ONE}}, (1, 0): {(1,): {2: ONE}},
                        (2, 0): {(1, 1): {2: ONE}}}, monoid=((0, 0), (1, 2)))
    rng = random.Random(5)
    for _ in range(50):
        word = tuple(rng.randrange(1, len(BASIS)) for _ in range(rng.randint(0, 5)))
        spans = [(i, k) for i, k, _, _ in insertions(algebra, word)]
        assert all(0 <= i <= i + k <= len(word) for i, k in spans)
        assert spans.count((len(word), 0)) == 1  # the curvature also goes last


def test_word_shifted_degree():
    assert maltese([BASIS.degree(i) for i in (1, 2, 3)], 3) == 0 + 1 + 2


def test_element_arithmetic():
    a = Element.generator(BASIS, 1, RingElement.one(SPEC))
    b = Element.generator(BASIS, 2, RingElement.monomial(SPEC, 2, lam=1))
    total = a + b
    assert not total.is_zero()
    assert (total - a) == b
    assert total.scale(RingElement.zero(SPEC)).is_zero()


def test_element_degrees_and_valuation():
    a = Element.generator(BASIS, 1, RingElement.monomial(SPEC, 1, lam=Fraction(1, 2)))
    assert a.total_degrees() == {1}
    assert a.is_homogeneous(1)
    assert a.valuation() == Fraction(1, 2)
    mixed = a + Element.generator(BASIS, 2, RingElement.one(SPEC))
    assert mixed.total_degrees() == {1, 2}
    assert not mixed.is_homogeneous(1)


def test_unit_scalar_split():
    c = RingElement.monomial(SPEC, 3, lam=1)
    el = Element.generator(BASIS, 0, c) + Element.generator(BASIS, 1, RingElement.one(SPEC))
    scalar, rest = el.unit_scalar_split()
    assert scalar == c
    assert rest == Element.generator(BASIS, 1, RingElement.one(SPEC))


def test_basis_equality_reads_names_degrees_and_unit():
    same = GradedBasis(["1", "x", "y", "z"], [0, 1, 2, 3], unit=0)
    assert same == BASIS and hash(same) == hash(BASIS)
    for other in (GradedBasis(("1", "x", "y", "w"), (0, 1, 2, 3), unit=0),
                  GradedBasis(("1", "x", "y", "z"), (0, 1, 2, 5), unit=0),
                  None, BASIS.names):
        assert not BASIS == other and BASIS != other
    # two bases that differ only in which degree-0 letter is the unit
    first, second = (GradedBasis(("1", "e", "x"), (0, 0, 1), unit=unit) for unit in (0, 1))
    assert not first == second and first != second


@pytest.mark.parametrize("unit", (-1, 2, 5, None, True, 0.0, "1"))
def test_unit_must_be_the_index_of_a_letter(unit):
    # -1 would read the last letter, so reduced_letters would keep the unit
    with pytest.raises(ConfigurationError, match="the unit must be the index of a basis"):
        GradedBasis(("x", "1"), (1, 0), unit=unit)
    assert GradedBasis(("x", "1"), (1, 0), unit=1).reduced_letters() == [0]


def test_reduced_mutant_is_killed_through_reduced_letters(monkeypatch):
    # the letters of reduced words, which every count and loop over the
    # reduced complex reads, come from graded's own binding of the rule
    assert BASIS.reduced_letters() == [1, 2, 3]
    monkeypatch.setattr(graded, "reduced", reduced_mutant())
    assert BASIS.reduced_letters() == [0, 1, 2, 3]


def test_the_two_rules_of_the_reduced_quotient():
    assert reduced((), 0) and reduced((1, 2), 0)
    assert not reduced((1, 0), 0) and not reduced((0,), 0)
    one = RingElement.one(SPEC)
    chain = {(0, ()): one, (0, (1,)): one, (1, (0,)): one, (2, (1, 0, 3)): one}
    assert quotient(chain, 0) == {(0, ()): one, (0, (1,)): one}
    assert quotient({0: one, 1: one, 3: one}, 0) == {1: one, 3: one}
    assert quotient({}, 0) == {}


def test_unit_must_have_degree_zero():
    with pytest.raises(ConfigurationError):
        GradedBasis(("1", "x"), (1, 2), unit=0)


def test_duplicate_names_rejected():
    with pytest.raises(ConfigurationError):
        GradedBasis(("a", "a"), (0, 1), unit=0)
