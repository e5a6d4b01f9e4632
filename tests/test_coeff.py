"""Coefficient ring: exact arithmetic, valuation, truncation, gauge paths,
the energy grid and the stored scalar types."""

import random
from fractions import Fraction
from math import inf

import pytest

from ainfty import coeff
from ainfty.coeff import Poly, Rational, RingElement, RingSpec, as_fraction
from ainfty.errors import ConfigurationError

from oracles import mutant_module, ring_scalar, truncate, with_cutoff

SPEC = RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(4))
SPEC_SIXTHS = RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(4), grid=6)


def el(coeff=1, lam=0, e=0, s=0, t=(0,)):
    return RingElement.monomial(SPEC, coeff, lam=lam, e=e, s=s, t=t)


def random_element(rng, spec=SPEC, terms=3):
    acc = RingElement.zero(spec)
    for _ in range(rng.randint(0, terms)):
        acc = acc + RingElement.monomial(
            spec,
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            lam=Fraction(rng.randint(0, 3 * spec.grid), spec.grid),
            e=rng.randint(-2, 2),
            s=rng.randint(0, 2),
            t=(rng.randint(0, 2),),
        )
    return acc


def test_additive_inverse():
    a = el(1, lam=Fraction(1, 2))
    assert (a + (-a)).is_zero()


def test_disjoint_monomials_add():
    total = RingElement.one(SPEC) + el(1, lam=1)
    assert len(total.terms) == 2


def test_coefficient_addition():
    a = el(2, lam=Fraction(1, 2), e=1)
    b = el(3, lam=Fraction(1, 2), e=1)
    assert (a + b) == el(5, lam=Fraction(1, 2), e=1)


def test_unit_law():
    one = RingElement.one(SPEC)
    x = el(7, lam=Fraction(3, 2), e=-1, s=1)
    assert one * x == x


def test_exponent_addition():
    a = el(2, lam=Fraction(1, 2))
    b = el(3, lam=Fraction(1, 2), e=1)
    assert a * b == el(6, lam=1, e=1)


def test_product_beyond_cutoff_truncates():
    spec = RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(1), grid=4)
    a = RingElement.monomial(spec, 1, lam=Fraction(3, 4))
    b = RingElement.monomial(spec, 1, lam=Fraction(1, 2))
    assert (a * b).is_zero()


def test_mismatched_cutoffs_rejected():
    a = RingElement.one(SPEC)
    b = RingElement.one(with_cutoff(SPEC, 2))
    with pytest.raises(ConfigurationError):
        _ = a + b
    with pytest.raises(ConfigurationError):
        _ = a * b


def test_valuation_zero_is_infinite():
    assert RingElement.zero(SPEC).valuation() is inf


def test_valuation_formula():
    a = el(1, lam=Fraction(1, 2), s=1, t=(1,))
    assert a.valuation() == Fraction(5, 2)
    assert (RingElement.one(SPEC) + el(1, lam=1)).valuation() == 0


def test_truncate_filters_terms():
    a = RingElement.one(SPEC) + el(1, lam=1) + el(1, lam=2)
    cut = truncate(a, Fraction(3, 2))
    assert cut == RingElement.one(cut.spec) + RingElement.monomial(cut.spec, 1, lam=1)


def test_truncate_zero():
    assert truncate(RingElement.zero(SPEC), 1).is_zero()


def test_truncate_boundary_kept():
    a = el(1, lam=Fraction(1, 2))
    assert not truncate(a, Fraction(1, 2)).is_zero()


def test_truncate_rejects_negative():
    with pytest.raises(ConfigurationError):
        truncate(RingElement.one(SPEC), -1)


def test_negative_t_exponent_rejected():
    with pytest.raises(ConfigurationError):
        SPEC.monomial(lam=Fraction(-1, 2))


def test_odd_variable_degrees_rejected():
    with pytest.raises(ConfigurationError):
        RingSpec(s_degree=1, t_degrees=())
    with pytest.raises(ConfigurationError):
        RingSpec(s_degree=2, t_degrees=(3,))


def test_monomial_degree():
    mono = SPEC.monomial(lam=Fraction(1, 2), e=-1, s=2, t=(1,))
    assert mono.degree(SPEC) == -2 + 4 + 2


def test_path_specialize_roundtrip():
    a = el(3, lam=Fraction(1, 2), e=1) + el(-2, lam=1)
    path = el(Poly.constant(3), lam=Fraction(1, 2), e=1) + el(Poly.constant(-2), lam=1)
    assert path == a
    for point in (0, 1, Fraction(1, 3)):
        assert path.specialize(point) == a


def test_path_polynomial_evaluation():
    t = Poly((0, 1))
    one_minus_t = Poly((1, -1))
    path = RingElement.monomial(SPEC, one_minus_t, lam=1)
    assert path.specialize(1).is_zero()
    mixed = RingElement.monomial(SPEC, t, lam=Fraction(1, 2)) + RingElement.monomial(
        SPEC, one_minus_t, lam=1
    )
    assert mixed.specialize(0) == el(1, lam=1)


def test_negation_and_subtraction_with_polynomial_scalars():
    # a = t T^{1/2} + (1 - t) T and c = (2 + t) T, against coefficients
    # worked out by hand
    t, one_minus_t = Poly((0, 1)), Poly((1, -1))
    half, whole = SPEC.monomial(lam=Fraction(1, 2)), SPEC.monomial(lam=1)
    a = RingElement.monomial(SPEC, t, lam=Fraction(1, 2)) + RingElement.monomial(
        SPEC, one_minus_t, lam=1)
    c = RingElement.monomial(SPEC, Poly((2, 1)), lam=1)
    assert (-a).terms == {half: Poly((0, -1)), whole: Poly((-1, 1))}
    assert (c - a).terms == {half: Poly((0, -1)), whole: Poly((1, 2))}
    assert (a - a).is_zero()
    assert -t == Poly((0, -1))
    assert Poly((2, 1)) - one_minus_t == Poly((1, 2))
    assert 3 - one_minus_t == Poly((2, 1))


def test_specialization_is_ring_hom():
    rng = random.Random(5)
    t = Poly((0, 1))
    for _ in range(50):
        a = random_element(rng) * t
        b = random_element(rng) + RingElement.monomial(SPEC, t, lam=1)
        for point in (0, 1, Fraction(2, 3)):
            assert (a * b).specialize(point) == a.specialize(point) * b.specialize(point)
            assert (a + b).specialize(point) == a.specialize(point) + b.specialize(point)


def test_formal_derivative():
    t = Poly((0, 1))
    path = RingElement.monomial(SPEC, t * t, lam=1)
    derived = path.formal_derivative()
    assert derived.specialize(3) == el(6, lam=1)
    assert el(Poly.constant(2), lam=1).formal_derivative().is_zero()


def test_scalar_has_one_stored_type_per_value():
    # t - t cancels to nothing mid-way in one order and leaves the constant
    # polynomial 1 in the other; both sums store the integer 1
    t = Poly((0, 1))
    a, b, c = (el(x) for x in (t, 1, -t))
    assert ((a + c) + b).text() == ((a + b) + c).text() == "1"
    assert ((a + b) + c).terms == el(1).terms
    one = SPEC.one_monomial()
    # an integral value is stored as an int, whatever it was built from
    for value in (3, Fraction(3), "3", Poly.constant(3), Poly.constant(Fraction(6, 2))):
        assert type(el(value).coefficient(one)) is int
        assert type(el(Fraction(1, 3)).scale(value).coefficient(one)) is int
    for stored in (ring_scalar(SPEC, Fraction(3)), el(Fraction(3, 2)) * el(2),
                   el(Fraction(3, 2)) + el(Fraction(1, 2))):
        assert type(stored.coefficient(one)) is int
    # any other rational is stored as a Rational
    for value in (Fraction(3, 2), "3/2", Poly.constant(Fraction(3, 2))):
        assert type(el(value).coefficient(one)) is Rational
    assert type(RingElement.zero(SPEC).coefficient(one)) is int
    assert type(el(Poly((1, 2))).coefficient(one)) is Poly
    assert el(Poly((1, 2))).text() == "(1 + 2*t^1)"


def test_ring_laws_randomized():
    _check_ring_laws(SPEC)


def test_ring_laws_randomized_on_a_grid_of_six():
    _check_ring_laws(SPEC_SIXTHS)


def _check_ring_laws(spec):
    rng = random.Random(11)
    for _ in range(300):
        a = random_element(rng, spec)
        b = random_element(rng, spec)
        c = random_element(rng, spec)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_valuation_properties():
    rng = random.Random(13)
    for _ in range(300):
        a = random_element(rng)
        b = random_element(rng)
        if a and b:
            assert (a + b).valuation() >= min(a.valuation(), b.valuation())
            if a.valuation() + b.valuation() <= SPEC.cutoff:
                assert (a * b).valuation() == a.valuation() + b.valuation()


def test_truncate_is_ring_map_mod_ideal():
    rng = random.Random(17)
    for _ in range(200):
        a = random_element(rng)
        b = random_element(rng)
        for energy in (Fraction(1), Fraction(5, 2)):
            lhs = truncate(a * b, energy)
            rhs = truncate(truncate(a, energy) * truncate(b, energy), energy)
            assert lhs == rhs
            assert truncate(truncate(a, energy), energy) == truncate(a, energy)


def test_canonical_text_ordering():
    a = el(1, lam=1) + RingElement.one(SPEC) + el(2, lam=Fraction(1, 2), e=-1)
    assert a.text() == "1 + 2*T^1/2*e^-1 + 1*T^1"


def test_fraction_strings():
    assert as_fraction("3/4") == Fraction(3, 4)
    with pytest.raises(ConfigurationError):
        as_fraction(0.5)


@pytest.mark.parametrize("text,value", (
    ("3/4", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)), ("+2", Fraction(2)),
    ("0", Fraction(0)), ("6/4", Fraction(3, 2)), ("007", Fraction(7)), ("-0/5", Fraction(0)),
))
def test_fraction_strings_accepted(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", (
    "0.5", "1e-1", "1E2", ".5", "1/0", "0/0", " 1/2", "1/2 ", "1 / 2", "1_000", "3/-4",
    "1/2/3", "", "-", "/2", "inf", "nan", "\u0663",
))
def test_fraction_strings_refused(text):
    # only [+-]digits(/digits), and never a zero denominator
    with pytest.raises(ConfigurationError):
        as_fraction(text)


def test_core_operation_methods():
    a = el(2, lam=Fraction(1, 2))
    b = el(3, lam=1)
    assert (a + b).terms == {**a.terms, **b.terms}
    assert a * b == el(6, lam=Fraction(3, 2))
    assert a.valuation() == Fraction(1, 2)
    cut = truncate(a + b, Fraction(3, 4))
    assert (cut.terms, cut.spec.cutoff) == (a.terms, Fraction(3, 4))
    assert a.specialize(Fraction(1, 7)) == a


def test_off_grid_energy_rejected():
    with pytest.raises(ConfigurationError, match="off the energy grid"):
        SPEC.monomial(lam=Fraction(1, 3))
    with pytest.raises(ConfigurationError, match="off the energy grid"):
        el(1, lam=Fraction(3, 4))
    assert SPEC_SIXTHS.monomial(lam=Fraction(1, 3)).lam == 2


def test_off_grid_cutoff_is_floored():
    spec = RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(7, 4))
    assert spec.level_cutoff == 3
    kept = RingElement.monomial(spec, 1, lam=Fraction(3, 2))
    assert not kept.is_zero()
    assert RingElement.monomial(spec, 1, lam=2).is_zero()
    assert (kept * RingElement.monomial(spec, 1, s=1)).is_zero()
    assert truncate(el(1, lam=Fraction(3, 2)), Fraction(5, 3)) == truncate(kept, Fraction(5, 3))


def test_same_value_on_two_grids_is_equal():
    quarters = RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(4), grid=4)
    for lam, s, t in ((0, 0, (0,)), (Fraction(1, 2), 1, (0,)), (Fraction(3, 2), 0, (1,))):
        a = el(Fraction(-2, 3), lam=lam, e=1, s=s, t=t) + el(5, lam=2)
        b = (RingElement.monomial(quarters, Fraction(-2, 3), lam=lam, e=1, s=s, t=t)
             + RingElement.monomial(quarters, 5, lam=2))
        assert a.spec == b.spec and a.terms != b.terms
        assert a == b and hash(a) == hash(b)
        assert a.text() == b.text() and a.valuation() == b.valuation()
    assert el(1, lam=1) != RingElement.monomial(quarters, 1, lam=Fraction(1, 2))
    assert el(1) != RingElement.one(with_cutoff(SPEC_SIXTHS, 3))


def test_arithmetic_across_grids_rejected():
    a = RingElement.one(SPEC)
    b = RingElement.one(SPEC_SIXTHS)
    for op in (lambda: a + b, lambda: a * b, lambda: b - a):
        with pytest.raises(ConfigurationError, match="mismatched energy grids"):
            op()


def test_energy_grid_must_be_a_positive_integer():
    for grid in (0, -2, Fraction(1, 2), True, "2"):
        with pytest.raises(ConfigurationError, match="energy grid"):
            RingSpec(grid=grid)


def test_spec_equality_reads_variable_degrees_and_cutoff_not_grid():
    # RingElement.__eq__ and __hash__ compare specs, so these are ring laws
    assert SPEC == SPEC_SIXTHS and hash(SPEC) == hash(SPEC_SIXTHS)
    assert SPEC == RingSpec(2, (2,), Fraction(4), 2)
    assert SPEC != with_cutoff(SPEC, 5)
    assert SPEC != RingSpec(s_degree=4, t_degrees=(2,), cutoff=Fraction(4))
    assert SPEC != RingSpec(s_degree=2, t_degrees=(2, 2), cutoff=Fraction(4))
    for other in (None, 4, (2, (2,), Fraction(4))):
        assert not SPEC == other and SPEC != other
    assert RingSpec().cutoff == RingSpec.cutoff == 10
    assert RingSpec(cutoff="7/2").cutoff == Fraction(7, 2)


def _grid_laws(ring):
    """Laws of the integer ring that each mutant below breaks: a cutoff off
    the grid is floored, a level scales every variable by the grid, one value
    on two grids is equal, and an integral scalar is stored as an int."""
    spec = ring.RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(7, 4))
    quarters = ring.RingSpec(s_degree=2, t_degrees=(2,), cutoff=Fraction(7, 4), grid=4)
    assert ring.RingElement.monomial(spec, 1, lam=2).is_zero()
    for s, t in ((1, (0,)), (0, (1,))):
        a = ring.RingElement.monomial(spec, 3, lam=Fraction(1, 2), s=s, t=t)
        b = ring.RingElement.monomial(quarters, Fraction(6, 2), lam=Fraction(1, 2), s=s, t=t)
        assert a.valuation() == Fraction(3, 2)
        assert (a * a).is_zero()
        assert a == b and hash(a) == hash(b)
        assert type(b.coefficient(quarters.monomial(lam=Fraction(1, 2), s=s, t=t))) is int


# Mutants of the integer ring: name -> (original fragment, mutated fragment).
RING_MUTANTS = {
    "cutoff key rounded up": (
        "floor(self.cutoff * self.grid)", "-floor(-self.cutoff * self.grid)"),
    "level drops the grid on s and t": (
        "lam + self.grid * (s + sum(t))", "lam + s + sum(t)"),
    "equality compares grid-scaled keys": (
        "return self._value() == other._value()", "return self.terms == other.terms"),
    "integral Rational kept as a Rational": (
        "        if value.denominator == 1:\n            return value.numerator",
        "        if False:\n            return value.numerator"),
}


def test_grid_laws_hold():
    _grid_laws(coeff)


@pytest.mark.parametrize("name", sorted(RING_MUTANTS))
def test_ring_mutant_killed(name):
    mutant = mutant_module(coeff, *RING_MUTANTS[name])
    with pytest.raises(AssertionError):
        _grid_laws(mutant)
