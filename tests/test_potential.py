"""Potentials, gauge invariance, wall-crossing identity chain."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import pairing, potential
from ainfty.coeff import Poly, RingElement, RingSpec
from ainfty.errors import ConfigurationError, DivergenceError
from ainfty.graded import Element
from ainfty.hochschild import CocycleTower
from ainfty.pairing import InfinityInnerProduct, build_phi, weak_cyclic_check
from ainfty.potential import (
    gauge_invariance_check,
    infty_cyclic_potential,
    wall_crossing_decomposition,
    wall_crossing_report,
)

from conftest import (
    make_e1, make_e2, make_g1, make_q1, poincare_tower, random_coboundary_tower,
    random_degree_one, random_functional, ring,
)
from oracles import (
    at_cutoffs, gauge_path_at, infty_cyclic_potential_reference, is_strict, mutant_module,
    strict_cyclic_potential, unit_insertion_vanishing, wall_crossing_decomposition_reference,
    weak_cyclic_check_reference, weak_cyclic_sums_reference,
)


@pytest.fixture
def e2_phi(e2):
    return build_phi(e2, poincare_tower(e2))


def g1_corpus_tower(g1):
    from ainfty.document import load
    import ainfty
    import os

    path = os.path.join(os.path.dirname(ainfty.__file__), "corpus", "g1_gauge.json")
    return load(path)


def pair_report(algebra, phi, b_minus, b_plus, m_minus_one=None, gw=None):
    """The wall-crossing report of candidates named b_minus and b_plus, with
    m_{-1} and GW zero unless given."""
    zero = RingElement.zero(algebra.spec)
    return wall_crossing_report(algebra, phi, "tower", ("b_minus", b_minus), ("b_plus", b_plus),
                                zero if m_minus_one is None else m_minus_one,
                                zero if gw is None else gw)


def test_potential_of_zero(e2, e2_phi):
    assert infty_cyclic_potential(e2, e2_phi, Element.zero(e2.basis)).is_zero()


def test_potential_values(e2, e2_phi):
    for alpha in (1, 2, Fraction(-3, 2)):
        b = Element.generator(e2.basis, 1, ring(e2.spec, alpha, lam=Fraction(1, 2)))
        # only the arity-0 term contributes: the curvature paired against b
        assert infty_cyclic_potential(e2, e2_phi, b) == ring(
            e2.spec, alpha, lam=Fraction(3, 2), e=1
        )


def test_potential_guards(e2, e2_phi):
    with pytest.raises(DivergenceError):
        infty_cyclic_potential(e2, e2_phi, Element.generator(e2.basis, 1, e2.one_ring()))
    bad = Element.generator(e2.basis, 0, ring(e2.spec, 1, lam=1))
    with pytest.raises(ConfigurationError):
        infty_cyclic_potential(e2, e2_phi, bad)


def test_ogw_potential_adds_inhomogeneous_term(e2, e2_phi):
    # the pair report notes Phi = m_{-1} + Phi' for each side
    m_minus_one = ring(e2.spec, 1, lam=2)
    zero = Element.zero(e2.basis)
    b = Element.generator(e2.basis, 1, ring(e2.spec, 1, lam=Fraction(1, 2)))
    report = pair_report(e2, e2_phi, zero, b, m_minus_one)
    assert report.context["Phi(minus)"] == m_minus_one.text()
    assert report.context["Phi(plus)"] == (
        m_minus_one + ring(e2.spec, 1, lam=Fraction(3, 2), e=1)).text()


def test_strict_cyclic_equivalence(e2, e2_phi, rng):
    tower = poincare_tower(e2)
    for _ in range(25):
        b = random_degree_one(e2, rng)
        direct = strict_cyclic_potential(e2, tower, b)
        general = infty_cyclic_potential(e2, e2_phi, b)
        assert direct == general


def test_strict_cyclic_rejects_nonstrict(g1, rng):
    tower = random_coboundary_tower(g1, rng, d_base=1)
    while is_strict(tower):
        tower = random_coboundary_tower(g1, rng, d_base=1)
    b = random_degree_one(g1, rng)
    with pytest.raises(ConfigurationError):
        strict_cyclic_potential(g1, tower, b)


def test_strict_cyclic_uncurved_vanishing(e1, rng):
    tower = poincare_tower(e1)
    for _ in range(10):
        b = random_degree_one(e1, rng)
        assert strict_cyclic_potential(e1, tower, b).is_zero()


def test_gauge_invariance_constant_path(e1):
    phi = build_phi(e1, poincare_tower(e1))
    element = Element.generator(
        e1.basis, 1, RingElement.monomial(e1.spec, Poly.constant(1), lam=Fraction(1, 2))
    )
    report = gauge_invariance_check(e1, phi, element)
    assert report.passed


def test_gauge_invariance_corpus_path(g1):
    doc = g1_corpus_tower(g1)
    algebra = doc.algebra
    phi = build_phi(algebra, doc.towers["pair"])
    report = gauge_invariance_check(algebra, phi, doc.gauge_path)
    assert report.passed
    v0 = gauge_path_at(doc.gauge_path, 0)
    v1 = gauge_path_at(doc.gauge_path, 1)
    assert infty_cyclic_potential(algebra, phi, v0) == infty_cyclic_potential(
        algebra, phi, v1
    )


def test_gauge_rejects_non_mc_path(e2, e2_phi):
    # constant path at a weak (non-strict) MC element: curvature is T e 1
    element = Element.generator(
        e2.basis, 1, RingElement.monomial(e2.spec, Poly.constant(1), lam=Fraction(1, 2))
    )
    report = gauge_invariance_check(e2, e2_phi, element)
    assert not report.passed
    assert any("energy" in msg for msg in report.failures)


def test_auto_n_max_is_the_last_level_within_the_cutoff():
    # level N has valuation at least (N + 1) nu, so the potential sums to the
    # largest N with (N + 1) nu <= E, found here by search; below nu = E
    # there is none, and no level is summed
    fine = RingSpec(s_degree=2, t_degrees=(), cutoff=10, grid=840)
    for energy in (Fraction(3), Fraction(5, 2), Fraction(1, 3)):
        algebra = make_e2(cutoff=energy)
        for den in range(1, 9):
            for num in range(1, 8 * den + 1):
                nu = Fraction(num, den)
                x = Element.generator(algebra.basis, 1, ring(fine, 1, lam=nu))
                last = -1
                while (last + 2) * nu <= energy:
                    last += 1
                assert potential._auto_n_max(algebra, x) == last, (energy, nu)


def test_decomposition_identities_random(e2, e2_phi, rng):
    for _ in range(30):
        b = random_degree_one(e2, rng)
        dec = wall_crossing_decomposition(e2, e2_phi, b)
        assert dec.residual_i1.is_zero()
        assert dec.residual_i2.is_zero()


def test_decomposition_zero_candidate(e2, e2_phi):
    dec = wall_crossing_decomposition(at_cutoffs(e2, n_max=3), e2_phi, Element.zero(e2.basis))
    for tag in ("ksplit", "psplit", "qsplit", "output", "clsum", "error_term"):
        assert getattr(dec, tag).is_zero()
    assert dec.passed


def test_decomposition_diagnostics_reported(e2, e2_phi):
    b = Element.generator(e2.basis, 1, ring(e2.spec, 1, lam=Fraction(1, 2)))
    dec = wall_crossing_decomposition(at_cutoffs(e2, n_max=4), e2_phi, b)
    assert set(dec.diagnostics) == {"phi(m0^b)(m0^b)", "psi0[1|m2(m0^b,m0^b)]"}


def test_unit_insertion_vanishing(e2, e2_phi):
    b = Element.generator(e2.basis, 1, ring(e2.spec, 1, lam=Fraction(1, 2)))
    report = unit_insertion_vanishing(at_cutoffs(e2, n_max=4), e2_phi, b)
    assert report.passed


def test_unit_insertion_requires_weak_mc():
    algebra = make_g1()
    rng = random.Random(3)
    tower = random_coboundary_tower(algebra, rng, d_base=1)
    while all(p.is_zero() for p in tower.levels):
        tower = random_coboundary_tower(algebra, rng, d_base=1)
    phi = build_phi(algebra, tower)
    # b = T^{1/2} x alone is not weak MC over G1 (m1 b + m2(b,b) != c 1)
    b = Element.generator(algebra.basis, 1, ring(algebra.spec, 2, lam=Fraction(1, 2)))
    with pytest.raises(ConfigurationError):
        unit_insertion_vanishing(algebra, phi, b)


def test_wall_crossing_report_identical_inputs(e2, e2_phi):
    b = Element.generator(e2.basis, 1, ring(e2.spec, 1, lam=Fraction(1, 2)))
    assert pair_report(e2, e2_phi, b, b, m_minus_one=ring(e2.spec, 1, lam=2)).passed


def test_wall_crossing_report_gauge_pair(g1):
    doc = g1_corpus_tower(g1)
    algebra = doc.algebra
    phi = build_phi(algebra, doc.towers["pair"])
    report = pair_report(algebra, phi, doc.candidates["b0"], doc.candidates["b1"],
                         m_minus_one=ring(algebra.spec, 1, lam=2))
    assert report.passed


def test_wall_crossing_report_definitional_gw(e2, e2_phi):
    # setting GW to the computed difference gives residual zero by definition
    b0 = Element.generator(e2.basis, 1, ring(e2.spec, 1, lam=Fraction(1, 2)))
    b1 = Element.generator(e2.basis, 1, ring(e2.spec, 2, lam=Fraction(1, 2)))
    v0 = infty_cyclic_potential(e2, e2_phi, b0)
    v1 = infty_cyclic_potential(e2, e2_phi, b1)
    assert pair_report(e2, e2_phi, b0, b1, gw=v0 - v1).passed
    assert not pair_report(e2, e2_phi, b0, b1).passed


def _gate_holds(module) -> bool:
    """Does ``module``'s wall-crossing report pass the corpus G1 pair b0, b1
    and fail, naming both sides and nothing else, a pair whose candidates
    are both T^{1/2} y, which is not weak MC (m1(y) = -T^{1/2} z)?  The two
    pairs have the same potentials, so only the weak MC gate tells them
    apart."""
    doc = g1_corpus_tower(None)
    algebra = doc.algebra
    phi = build_phi(algebra, doc.towers["pair"])
    zero = RingElement.zero(algebra.spec)

    def report(b_minus, b_plus):
        return module.wall_crossing_report(algebra, phi, "pair", ("b_minus", b_minus),
                                           ("b_plus", b_plus), zero, zero)

    weak = report(doc.candidates["b0"], doc.candidates["b1"])
    y = Element.generator(algebra.basis, 2, ring(algebra.spec, 1, lam=Fraction(1, 2)))
    gated = report(y, y)
    return weak.passed and gated.failures == [
        "%s candidate b_%s is not weak MC: curvature residual (-1*T^1)*z" % (side, side)
        for side in ("minus", "plus")]


def test_wall_crossing_report_requires_weak_mc():
    assert _gate_holds(potential)


def test_wall_crossing_gate_mutant_killed():
    mutant = mutant_module(potential, "if not ok:\n            report.fail(",
                           "if False:\n            report.fail(")
    assert not _gate_holds(mutant)


def test_potential_has_positive_valuation(e2, e2_phi, rng):
    for _ in range(15):
        b = random_degree_one(e2, rng)
        value = infty_cyclic_potential(e2, e2_phi, b)
        if value:
            assert value.valuation() > 0


# -- support-driven sums against the all-index references ------------------------

ALGEBRAS = {"E1": make_e1, "E2": make_e2, "G1": make_g1, "Q1": make_q1}
DECOMPOSITION_FIELDS = ("ksplit", "psplit", "qsplit", "output", "clsum", "error_term",
                        "i1_rhs", "residual_i1", "residual_i2")


def _random_phi_case(name, seed, k_max=6, flagged=True, generic=False, cutoff=3):
    """An algebra with the given arity cutoffs, phi and a random candidate.

    phi is read from a random psi_0 on words of length <= 4 (so shapes with
    p + q up to 3 occur); psi_0 need not be a cocycle, as the sums are
    defined for any table.  The tables of InfinityInnerProduct are skew-
    symmetric, so their shapes are closed under (p, q) -> (q, p), and on
    these algebras their all-x and split-insertion terms cancel.  A generic
    phi replaces the index by random words of random shapes, with no
    symmetry, so that a sum reading a shape transposed or a split insertion
    at the wrong position goes wrong.
    """
    algebra = ALGEBRAS[name](cutoff)
    algebra.k_max = k_max
    algebra.higher_arities_zero = flagged
    rng = random.Random(seed)
    psi0 = random_functional(algebra, rng, d=rng.randint(-2, 2), max_len=4, density=0.5)
    phi = InfinityInnerProduct(algebra, CocycleTower((psi0,), name="random"))
    if generic:
        index = {}
        for _ in range(rng.randint(1, 12)):
            p = rng.randint(0, 3)
            q = rng.randint(0, 3 - p)
            word = tuple(rng.randrange(len(algebra.basis)) for _ in range(p + q + 2))
            value = ring(algebra.spec, rng.choice((-2, -1, 1, 2)), lam=Fraction(rng.randint(0, 2), 2))
            index.setdefault((p, q), []).append((word, value))
        phi._by_shape = index
    return algebra, phi, random_degree_one(algebra, rng)


def _outcome(fn, *args):
    """fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return "raised %s: %s" % (type(exc).__name__, exc)


def _readings(dec) -> dict:
    """Every field and diagnostic of a decomposition, or the error it raised."""
    if isinstance(dec, str):
        return {"error": dec}
    out = {tag: getattr(dec, tag) for tag in DECOMPOSITION_FIELDS}
    out.update(("diagnostic " + tag, value) for tag, value in dec.diagnostics.items())
    return out


def _same(got, want) -> bool:
    """Equal values with equal report text, or the same error."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return got == want and got.text() == want.text()


def _read_shapes(phi, run) -> set:
    """Run ``run()`` with phi's evaluations recorded; the shapes it read."""
    seen = []
    evaluate = phi.eval_elements

    def spy(alphas, v, betas, w):
        seen.append((len(alphas), len(betas)))
        return evaluate(alphas, v, betas, w)

    phi.eval_elements = spy
    try:
        run()
    finally:
        del phi.eval_elements
    return set(seen)


def _unstored_shapes(phi, run):
    """The shapes ``run()`` read that phi does not store.  The diagnostic
    phi_{0,0}(m0^b)(m0^b) is read once whatever the shapes, so (0, 0) is
    not counted."""
    return _read_shapes(phi, run) - phi.shapes - {(0, 0)}


def _compare(module, algebra, phi, b, n_max):
    """Do the potential and the decomposition of ``module`` agree with the
    references on one case, the decomposition at level ``n_max`` (the
    algebra's own when None)?  A read of a shape phi does not store is a
    disagreement.  Returns (agree, kind), kind being "raised" when a
    reference raised, else "nonzero" or "zero" by the reference values."""
    if n_max is not None:
        algebra = at_cutoffs(algebra, n_max=n_max)
    got = {}

    def run():
        got["potential"] = _outcome(module.infty_cyclic_potential, algebra, phi, b)
        got["decomposition"] = _readings(
            _outcome(module.wall_crossing_decomposition, algebra, phi, b))

    if _unstored_shapes(phi, run):
        return False, None
    want = _readings(_outcome(wall_crossing_decomposition_reference, algebra, phi, b))
    want["potential"] = _outcome(infty_cyclic_potential_reference, algebra, phi, b)
    got = dict(got.pop("decomposition"), potential=got["potential"])
    agree = got.keys() == want.keys() and all(_same(got[tag], want[tag]) for tag in want)
    if any(isinstance(value, str) for value in want.values()):
        return agree, "raised"
    return agree, "nonzero" if any(want.values()) else "zero"


def test_support_driven_sums_match_references():
    kinds = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2 ** 16),
           st.one_of(st.none(), st.integers(0, 4)),
           st.sampled_from(((6, True), (6, True), (6, True), (3, True), (6, False))),
           st.booleans())
    def check(name, seed, n_max, cutoffs, generic):
        algebra, phi, b = _random_phi_case(name, seed, *cutoffs, generic=generic)
        agree, kind = _compare(potential, algebra, phi, b, n_max)
        assert agree
        kinds.append(kind)

    check()
    # coboundary towers alone would make every sum zero; random tables do not
    assert kinds.count("nonzero") >= 10
    assert kinds.count("raised") >= 10


def test_weak_cyclic_check_holds_at_y_zero():
    # both sides of the rotation identity are linear in y, so at y = 0 it
    # holds for any table; a left side that read b in y's slot would not
    for seed in range(40):
        for name in sorted(ALGEBRAS):
            for generic in (False, True):
                algebra, phi, b = _random_phi_case(name, seed, generic=generic)
                zero = Element.zero(algebra.basis)
                assert weak_cyclic_check(at_cutoffs(algebra, n_max=3), phi, b, zero).passed, \
                    (name, seed)


def _weak_cyclic_outcome(check, algebra, phi, b, y):
    """The report lines of a rotation identity check, or what it raised."""
    try:
        return check(algebra, phi, b, y).lines()
    except Exception as exc:
        return "raised %s: %s" % (type(exc).__name__, exc)


def _weak_cyclic_case(name, seed, k_max=6, flagged=True):
    """A generic phi case and a random degree-1 y.

    Each word of the generic index keeps its shape and value, but its outer
    slots and final argument are redrawn from the letters of b and y, and
    the energy cutoff is 6, so that many terms of the rotation identity are
    nonzero; the module slot stays any letter.  The index has no symmetry,
    so the identity then mostly fails.
    """
    algebra, phi, b = _random_phi_case(name, seed, k_max, flagged, generic=True, cutoff=6)
    rng = random.Random(-seed)
    y = random_degree_one(algebra, rng)
    outer = sorted(set(b.components) | set(y.components)) or [0]
    n = len(algebra.basis)
    phi._by_shape = {
        (p, q): [(tuple(rng.choice(outer) for _ in range(p)) + (rng.randrange(n),)
                  + tuple(rng.choice(outer) for _ in range(q + 1)), value)
                 for _, value in entries]
        for (p, q), entries in phi._by_shape.items()}
    return algebra, phi, b, y


def test_weak_cyclic_check_matches_its_reference():
    kinds = []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2 ** 16),
           st.one_of(st.none(), st.integers(0, 4)),
           st.sampled_from(((6, True), (6, True), (6, True), (3, True), (6, False))))
    def check(name, seed, n_max, cutoffs):
        algebra, phi, b, y = _weak_cyclic_case(name, seed, *cutoffs)
        if n_max is not None:
            algebra = at_cutoffs(algebra, n_max=n_max)
        got = {}

        def run():
            got["lines"] = _weak_cyclic_outcome(pairing.weak_cyclic_check, algebra, phi, b, y)

        # every term reads phi at a stored shape, (0, 0) included
        assert _read_shapes(phi, run) <= phi.shapes
        want = _weak_cyclic_outcome(weak_cyclic_check_reference, algebra, phi, b, y)
        assert got["lines"] == want
        if isinstance(want, str):
            kinds.append("raised")
        else:
            sums = weak_cyclic_sums_reference(algebra, phi, b, y)
            kinds.append("nonzero" if any(lhs or rhs for lhs, rhs in sums) else "zero")

    check()
    # the corpus tables make every term zero; these generic ones do not
    assert kinds.count("nonzero") >= 10
    assert kinds.count("raised") >= 10


def _weak_cyclic_disagrees(check) -> bool:
    """Does this rotation identity check differ from the reference on some
    fixed case, at the level cutoff 5 of the algebras?"""
    for seed in range(24):
        for name in sorted(ALGEBRAS):
            case = _weak_cyclic_case(name, seed)
            if (_weak_cyclic_outcome(check, *case)
                    != _weak_cyclic_outcome(weak_cyclic_check_reference, *case)):
                return True
    return False


def test_weak_cyclic_detector_accepts_the_check():
    assert not _weak_cyclic_disagrees(pairing.weak_cyclic_check)


# Mutants of the support-driven sums: (module, original fragment, mutated
# fragment), each applied to a fresh copy of its module.  A pairing mutant
# is a mutated rotation identity kernel, which reaches the decomposition
# through the potential module's binding of it.
POTENTIAL_MUTANTS = {
    "decomposition shape transposed": (
        potential,
        "for p, q in shapes:\n            k = N - p - q\n            if k < 0:",
        "for q, p in shapes:\n            k = N - p - q\n            if k < 0:"),
    "potential shape transposed": (
        potential,
        "for p, q in shapes:\n            k = N - p - q\n            if k >= 0",
        "for q, p in shapes:\n            k = N - p - q\n            if k >= 0"),
    "split memo keyed without r": (pairing, "key = (k, r)", "key = k"),
    "y in the wrong left slot": (
        pairing, "[b] * r + [y] + [b] * (p - 1 - r)", "[y] + [b] * (p - 1)"),
    "level weight 1/N": (
        potential, "weight = Rational(1, N + 1)", "weight = Rational(1, N)"),
    "clsum keeps the k2 part": (potential, "clsum = values - output", "clsum = values"),
    "i1_rhs loop without its shape test": (
        potential, "for p, q in shapes:\n        if p + q <= reach:",
        "for p, q in [(p, q) for p in range(reach + 1) for q in range(reach + 1)]:\n"
        "        if p + q <= reach:"),
}
KERNEL_MUTANTS = sorted(name for name, (module, _, _) in POTENTIAL_MUTANTS.items()
                        if module is pairing)


def _potential_disagrees(module) -> bool:
    """Does ``module`` differ from the references on some fixed case?"""
    for seed in range(24):
        for name in sorted(ALGEBRAS):
            case = _random_phi_case(name, seed, generic=seed % 2 == 1)
            if not _compare(module, *case, 3)[0]:
                return True
    return False


def test_potential_detector_accepts_the_module():
    assert not _potential_disagrees(potential)


@pytest.mark.parametrize("name", sorted(POTENTIAL_MUTANTS))
def test_potential_mutant_killed(name, monkeypatch):
    module, old, new = POTENTIAL_MUTANTS[name]
    mutant = mutant_module(module, old, new)
    if module is pairing:
        monkeypatch.setattr(potential, "rotation_terms", mutant.rotation_terms)
        mutant = potential
    assert _potential_disagrees(mutant)


@pytest.mark.parametrize("name", KERNEL_MUTANTS)
def test_kernel_mutant_killed_through_weak_cyclic_check(name):
    module, old, new = POTENTIAL_MUTANTS[name]
    assert _weak_cyclic_disagrees(mutant_module(module, old, new).weak_cyclic_check)
