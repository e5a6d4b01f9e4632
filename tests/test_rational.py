"""The engine's exact rational, ``coeff.Rational``, against
``fractions.Fraction``, and ``coeff.as_fraction``'s reader of fraction
strings against the regular expression it replaced.
"""

import sys
from fractions import Fraction
from math import ceil, floor, inf, nan
from operator import add, eq, ge, gt, le, lt, mul, ne, sub, truediv

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import coeff
from ainfty.coeff import Rational, as_fraction
from ainfty.errors import ConfigurationError

from oracles import fraction_text_reference, mutant_module

OPERATIONS = (add, sub, mul, truediv)
COMPARISONS = (eq, ne, lt, le, gt, ge)


def _same(value, expected):
    """value is a Rational equal to the Fraction expected, in the same
    lowest terms."""
    assert type(value) is Rational, (value, expected)
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


def _outcome(op, a, b):
    try:
        return op(a, b)
    except ZeroDivisionError:
        return ZeroDivisionError


# Fractions with large parts too, so hashes meet the modulus.
FRACTIONS = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
    st.integers(-5, 5).map(Fraction),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(f=FRACTIONS, g=FRACTIONS, n=st.integers(-10 ** 12, 10 ** 12))
def test_rational_agrees_with_fraction(f, g, n):
    q, r = as_fraction(f), as_fraction(g)
    _same(q, f)
    for op in OPERATIONS:
        # both Rationals, a Rational with an int on either side, and a
        # Rational with a Fraction on either side
        for left, right, expected in ((q, r, (f, g)), (q, n, (f, n)), (n, q, (n, f)),
                                      (q, g, (f, g)), (g, q, (g, f))):
            want = _outcome(op, *expected)
            if want is ZeroDivisionError:
                assert _outcome(op, left, right) is ZeroDivisionError
            else:
                _same(op(left, right), want)
    _same(-q, -f)
    for op in COMPARISONS:
        for other, against in ((r, g), (n, n), (g, g), (inf, inf), (-inf, -inf), (nan, nan),
                               (0.5, 0.5), (float(n), float(n))):
            assert op(q, other) is op(f, against), (op, f, against)
            assert op(other, q) is op(against, f), (op, against, f)
    assert (floor(q), ceil(q), hash(q), str(q), repr(q), bool(q)) == (
        floor(f), ceil(f), hash(f), str(f), repr(f), bool(f))


def test_rational_refuses_floats_and_normalizes():
    _same(Rational(6, -4), Fraction(-3, 2))
    _same(Rational(0, -7), Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    for op in OPERATIONS:
        with pytest.raises(TypeError):
            op(Rational(1, 2), 0.5)
        with pytest.raises(TypeError):
            op(0.5, Rational(1, 2))
    assert min(Rational(3, 2), inf) == Rational(3, 2) and Rational(-10 ** 40) > -inf


def _rational_laws(ring):
    """Laws of the exact rational that each mutant below breaks: built from
    any pair of ints it holds Fraction's lowest terms with a positive
    denominator, and it hashes, floors and prints as Fraction does."""
    cases = [(1, 2), (-3, 4), (6, -4), (0, 5), (7, 1), (-8, 2), (10 ** 20 + 1, 3), (5, -1)]
    for n, d in cases:
        q, f = ring.Rational(n, d), Fraction(n, d)
        assert (q.numerator, q.denominator) == (f.numerator, f.denominator)
        assert (str(q), repr(q), hash(q), floor(q), ceil(q)) == (
            str(f), repr(f), hash(f), floor(f), ceil(f))
        for m, e in cases:
            r, g = ring.Rational(m, e), Fraction(m, e)
            for op in (add, sub, mul) + ((truediv,) if m else ()):
                value, want = op(q, r), op(f, g)
                assert (value.numerator, value.denominator, str(value)) == (
                    want.numerator, want.denominator, str(want))
            assert [op(q, r) for op in COMPARISONS] == [op(f, g) for op in COMPARISONS]


# Mutants of the exact rational: name -> (original fragment, mutated fragment).
RATIONAL_MUTANTS = {
    "gcd normalization dropped": ("g = gcd(numerator, denominator)", "g = 1"),
    "negative denominator kept": ("        if denominator < 0:\n            g = -g\n", ""),
    "hash not Fraction's": ("return -2 if value == -1 else value",
                            "return hash((self.numerator, self.denominator))"),
    "floor rounds toward zero": (
        "return self.numerator // self.denominator",
        "return abs(self.numerator) // self.denominator * (-1 if self.numerator < 0 else 1)"),
    "integral value printed as n/1": (
        "        if self.denominator == 1:\n            return str(self.numerator)",
        "        if False:\n            return str(self.numerator)"),
}


def test_rational_laws_hold():
    _rational_laws(coeff)


@pytest.mark.parametrize("name", sorted(RATIONAL_MUTANTS))
def test_rational_mutant_killed(name):
    mutant = mutant_module(coeff, *RATIONAL_MUTANTS[name])
    with pytest.raises(AssertionError):
        _rational_laws(mutant)


def _read(reader, text):
    """("value", the value) or ("refused", the message) of one reader."""
    try:
        return "value", reader(text)
    except ConfigurationError as exc:
        return "refused", str(exc)


def _same_reading(text):
    got, want = _read(as_fraction, text), _read(fraction_text_reference, text)
    assert got == want, (text, got, want)
    if got[0] == "value":
        _same(got[1], want[1])


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text", [
    "0", "-0", "+7", "3/4", "-6/8", "+10/5", "0/3", "007/010",
    # digits that str.isdigit() reads and [0-9] does not
    "١", "1٢", "²", "1/٣", "１",
    "_", "1_0", "1/2_0", " 1", "1 ", "1 /2", "\t1", "1\n", "",
    "+", "-", "+-1", "-+1", "++1", "1/", "/2", "/", "1//2", "1/2/3", "1/-2", "1/+2",
    "1/0", "-0/0", "0.5", "1e3", "0x10", "inf", "nan",
    "1" * (LIMIT + 1), "-1/" + "2" * (LIMIT + 1), "1" * LIMIT,
])
def test_fraction_strings_read_as_the_old_pattern_read_them(text):
    _same_reading(text)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(st.text(st.sampled_from("0123456789+-/ _.e١²１\n"),
                              max_size=8),
                      st.text(max_size=6)))
def test_as_fraction_accepts_what_the_old_pattern_accepted(text):
    _same_reading(text)


def test_as_fraction_reads_exact_rationals_only():
    for value, want in ((3, Fraction(3)), (Fraction(-6, 4), Fraction(-3, 2)),
                        (Rational(2, 6), Fraction(1, 3))):
        _same(as_fraction(value), want)
    assert as_fraction("1" * LIMIT) == int("1" * LIMIT)
    for value in (True, 0.5, None, [1], Rational, object()):
        with pytest.raises(ConfigurationError, match="not an exact rational"):
            as_fraction(value)
    with pytest.raises(ConfigurationError, match="fraction with more digits than int"):
        as_fraction("1" * (LIMIT + 1))
