"""Algebra layer: relations, units, curvature, the solver, dual machinery."""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import ainfty
from ainfty.ainfty import (
    AInftyAlgebra,
    Obstruction,
    apply_m,
    check_ainfty,
    check_strict_unit,
    check_weak_mc,
    curvature,
    delta_diagonal,
    delta_dual,
    solve_mc,
)
from ainfty.coeff import RingElement, RingSpec
from ainfty.document import load
from ainfty.errors import ConfigurationError, DivergenceError
from ainfty.graded import Element, GradedBasis, words_over

from conftest import (
    make_e1, make_e2, make_g1, make_ob1, make_p1, make_q1, make_sv1, ring,
)
from oracles import (
    SCALARS, Covector, at_cutoffs, check_ainfty_reference, coderivation, crossing_sign_mutant,
    delta_diagonal_reference, delta_dual_reference, dual_action, elements, expand_apply_m,
    m_word_reference, mutant_module, quotient_mutant, unit_element,
)

ALL_MAKERS = (make_e1, make_e2, make_g1, make_p1, make_q1, make_sv1, make_ob1)
# curvature (E2, SV1), a differential (G1, SV1) and a genuine m_3 (Q1)
APPLY_M_MAKERS = (make_e2, make_g1, make_q1, make_sv1)


@pytest.mark.parametrize("maker", ALL_MAKERS)
def test_relations_pass(maker):
    algebra = maker()
    assert check_ainfty(algebra).passed


@pytest.mark.parametrize("maker", ALL_MAKERS)
def test_strict_unit_pass(maker):
    algebra = maker()
    assert check_strict_unit(algebra).passed


def test_unit_laws_via_apply(e2):
    one = unit_element(e2)
    x = Element.generator(e2.basis, 1, e2.one_ring())
    assert apply_m(e2, [one, x]) == x
    assert apply_m(e2, [x, one]) == x.scale(-1)  # (-1)^{|x|} with |x| = 1


def test_curvature_is_assembled(e2):
    # the arity-0 table at the monoid element (1, 2) assembles to T e 1
    out = apply_m(e2, [])
    assert out == Element.generator(e2.basis, 0, ring(e2.spec, 1, lam=1, e=1))


def test_apply_m_multilinear(e2, rng):
    r = ring(e2.spec, Fraction(3, 2), lam=Fraction(1, 2))
    x = Element.generator(e2.basis, 1, e2.one_ring())
    y = Element.generator(e2.basis, 0, e2.one_ring()) + x
    assert apply_m(e2, [x.scale(r), y]) == apply_m(e2, [x, y]).scale(r)
    assert apply_m(e2, [y, x.scale(r)]) == apply_m(e2, [y, x]).scale(r)


def test_apply_m_arity_guard(e2):
    with pytest.raises(ConfigurationError):
        apply_m(e2, [unit_element(e2)] * (e2.k_max + 1))
    # no stored word of that arity: the guard still comes first
    with pytest.raises(ConfigurationError):
        apply_m(e2, [Element.zero(e2.basis)] * (e2.k_max + 1))


def test_apply_m_beyond_tables_errors_when_not_flagged():
    algebra = make_e1()
    algebra.higher_arities_zero = False
    x = Element.generator(algebra.basis, 1, algebra.one_ring())
    with pytest.raises(ConfigurationError):
        apply_m(algebra, [x, x, x])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_apply_m_matches_expansion(data):
    algebra = data.draw(st.sampled_from(APPLY_M_MAKERS))()
    scalars = data.draw(st.sampled_from(SCALARS))
    k = data.draw(st.integers(0, algebra.max_stored_arity() + 1))
    inputs = [data.draw(elements(algebra, scalars)) for _ in range(k)]
    got = apply_m(algebra, inputs)
    want = expand_apply_m(algebra, inputs)
    assert got == want
    assert got.text() == want.text()


def test_arity_beyond_table_errors_when_not_flagged():
    algebra = make_e1()
    algebra.higher_arities_zero = False
    with pytest.raises(ConfigurationError):
        algebra.m_word((1, 1, 1))


def test_relation_checker_catches_sign_flip():
    algebra = make_e2()
    ops = {k: {w: dict(out) for w, out in tbl.items()} for k, tbl in algebra.ops.items()}
    ops[(2, 0)][(1, 0)] = {1: algebra.one_ring()}  # drop the sign of m2(x, 1)
    mutated = make_e2()
    mutated.ops = ops
    mutated._index = None
    report = check_ainfty(mutated)
    assert not report.passed
    assert any("n=1" in msg for msg in report.failures)


CORPUS = os.path.join(os.path.dirname(ainfty.__file__), "corpus")
CORPUS_DOCS = ("e1", "e2", "g1_gauge", "g1_wallcross", "sv1")


def _corpus_algebra(name):
    return load(os.path.join(CORPUS, name + ".json")).algebra


def _rescaled(algebra, edits, module=ainfty):
    """A fresh copy of the algebra with table entries rescaled.

    Each edit is ((arity, monoid index), word, output component, factor); a
    factor of -1 flips a sign and 0 deletes the term.  Rescaling keeps the
    tables degree-homogeneous, so the copy loads, but its relations break.
    The copy is an algebra of ``module``, so that a mutated copy of the
    ainfty module builds its operation index with its own code.
    """
    ops = {key: {word: dict(out) for word, out in table.items()}
           for key, table in algebra.ops.items()}
    for key, word, comp, factor in edits:
        ops[key][word][comp] = ops[key][word][comp].scale(factor)
    return module.AInftyAlgebra(algebra.basis, algebra.monoid, ops, algebra.spec,
                                k_max=algebra.k_max,
                                higher_arities_zero=algebra.higher_arities_zero,
                                name=algebra.name)


@st.composite
def rescaled_algebras(draw):
    """E1, E2, G1, SV1 or Q1 (a genuine m_3) with one to three entries rescaled."""
    algebra = draw(st.sampled_from((make_e1, make_e2, make_g1, make_sv1, make_q1)))()
    sites = sorted((key, word, comp) for key, table in algebra.ops.items()
                   for word, out in table.items() for comp in out)
    edits = draw(st.lists(st.tuples(st.sampled_from(sites),
                                    st.sampled_from((-1, 2, Fraction(1, 2), 0))),
                          min_size=1, max_size=3))
    return _rescaled(algebra, [site + (factor,) for site, factor in edits])


def _same_relation_report(module, algebra, k_max) -> bool:
    algebra = at_cutoffs(algebra, k_max=k_max)
    got = module.check_ainfty(algebra)
    want = check_ainfty_reference(algebra)
    return got.text() == want.text() and got.checked == want.checked


@pytest.mark.parametrize("name", CORPUS_DOCS)
def test_relation_support_matches_every_word_on_corpus(name):
    algebra = _corpus_algebra(name)
    for k_max in range(7):
        assert _same_relation_report(ainfty, algebra, k_max), k_max


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(algebra=st.one_of(rescaled_algebras(), st.just(make_q1())), k_max=st.integers(0, 6))
def test_relation_support_matches_every_word(algebra, k_max):
    assert _same_relation_report(ainfty, algebra, k_max)


def test_relation_check_counts_every_word():
    report = check_ainfty(at_cutoffs(_corpus_algebra("g1_gauge"), k_max=8))
    assert report.checked == sum(4 ** n for n in range(9)) == 87381


@pytest.mark.parametrize("k_max", range(7))
def test_relation_check_past_unflagged_tables_raises(k_max):
    # E1 stops at m_2; only its m_2 words are nonzero, so a word of length
    # 4 first needs an m_3, and the all-words loop raises from k_max = 4 on.
    def run(check):
        algebra = make_e1()
        algebra.higher_arities_zero = False
        try:
            return check(at_cutoffs(algebra, k_max=k_max)).text()
        except ConfigurationError as exc:
            return ConfigurationError, str(exc)

    got = run(check_ainfty)
    assert got == run(check_ainfty_reference)
    assert isinstance(got, tuple) == (k_max >= 4)


# Mutants of the relation table and the report read from it: (original
# fragment, mutated fragment).
RELATION_MUTANTS = {
    "arity-0 inner words dropped": ("by_output.setdefault(comp, []).append(word)",
                                    "by_output.setdefault(comp, []).append(word) if word else 0"),
    "length bound off by one": ("if n <= k_max:", "if n < k_max:"),
    "candidates sorted by word alone": ("key=lambda word: (len(word), word)",
                                       "key=lambda word: word"),
}


def _relation_support_disagrees(module) -> bool:
    """Does this copy of the ainfty module report differently from the oracle?

    Uses E2 and G1 with the sign of the unit law m2(1, x) = x flipped, at
    every arity cutoff up to 4.  On E2 the relation at (x) fails through the
    curvature alone, and on both a failing word precedes a shorter failing
    word as a bare tuple: (1,1,x) before (x) on E2, before (1,x) on G1.
    """
    cases = (_rescaled(make_e2(), [((2, 0), (0, 1), 1, -1)], module),
             _rescaled(make_g1(), [((2, 0), (0, 1), 1, -1)], module))
    return not all(_same_relation_report(module, algebra, k_max)
                   for algebra in cases for k_max in range(5))


def test_relation_detector_accepts_the_kernel():
    assert not _relation_support_disagrees(ainfty)


@pytest.mark.parametrize("name", sorted(RELATION_MUTANTS))
def test_relation_mutant_killed(name):
    old, new = RELATION_MUTANTS[name]
    assert _relation_support_disagrees(mutant_module(ainfty, old, new))


def test_index_is_not_compared():
    # the operation index is derived from ops: building it changes no ==
    algebra = make_g1()
    algebra.m_word((1, 1))
    assert algebra == make_g1()


def _index_cases(module):
    """Algebras of ``module``: every maker's; E1 with higher arities not
    marked zero; and that E1 with a stored m_3(x,x,x) of empty output, an
    all-zero table that counts as stored, so its tables reach arity 3."""
    for maker in ALL_MAKERS:
        yield _rescaled(maker(), [], module)
    e1 = make_e1()
    yield module.AInftyAlgebra(e1.basis, e1.monoid, e1.ops, e1.spec, k_max=1,
                               higher_arities_zero=False)
    ops = dict(e1.ops)
    ops[3, 0] = {(1, 1, 1): {}}
    yield module.AInftyAlgebra(e1.basis, e1.monoid, ops, e1.spec, k_max=2,
                               higher_arities_zero=False)


def _read(fn, *args):
    """The components of fn(*args) with their text, in order, or the type of
    error it raised."""
    try:
        return [(comp, value.text()) for comp, value in fn(*args).items()]
    except ConfigurationError:
        return ConfigurationError


def _index_disagrees(module) -> bool:
    """Does m_word of this copy of the ainfty module differ from the tables
    read directly, on some word of length <= 4 of some case?"""
    return any(_read(algebra.m_word, word) != _read(m_word_reference, algebra, word)
               for algebra in _index_cases(module)
               for n in range(5) for word in words_over(range(len(algebra.basis)), n))


# Mutants of the operation index: (original fragment, mutated fragment).
INDEX_MUTANTS = {
    "max stored arity from nonzero words only": (
        "tuple(sorted({k for (k, _) in algebra.ops}))", "tuple(nonzero)"),
    "assembly factor with e = mu": ("e=beta.mu // 2)", "e=beta.mu)"),
    "m_word without its arity check": (
        "        self._check_arity(len(word))\n        return _operation_index",
        "        return _operation_index"),
}


def test_index_detector_accepts_the_index():
    assert not _index_disagrees(ainfty)


@pytest.mark.parametrize("name", sorted(INDEX_MUTANTS))
def test_index_mutant_killed(name):
    old, new = INDEX_MUTANTS[name]
    assert _index_disagrees(mutant_module(ainfty, old, new))


def test_unit_checker_catches_bad_insertion():
    algebra = make_e1()
    algebra.ops[(3, 0)] = {(1, 0, 1): {1: algebra.one_ring()}}
    algebra._index = None
    report = check_strict_unit(algebra)
    assert not report.passed


def test_curvature_values(e2):
    zero = Element.zero(e2.basis)
    cur = curvature(e2, zero)
    assert cur == Element.generator(e2.basis, 0, ring(e2.spec, 1, lam=1, e=1))
    b = Element.generator(e2.basis, 1, ring(e2.spec, 2, lam=Fraction(1, 2)))
    assert curvature(e2, b) == cur  # m1 = 0 and m2(x, x) = 0


def test_curvature_uncurved(e1):
    assert curvature(e1, Element.zero(e1.basis)).is_zero()


def test_curvature_requires_positive_valuation(e2):
    bad = Element.generator(e2.basis, 1, e2.one_ring())
    with pytest.raises(DivergenceError):
        curvature(e2, bad)


def test_curvature_requires_degree_one(e2):
    bad = Element.generator(e2.basis, 0, ring(e2.spec, 1, lam=1))
    with pytest.raises(ConfigurationError):
        curvature(e2, bad)


def test_weak_mc(e1, e2):
    ok, c, _ = check_weak_mc(e2, Element.generator(e2.basis, 1, ring(e2.spec, 1, lam=Fraction(1, 2))))
    assert ok and c == ring(e2.spec, 1, lam=1, e=1)
    ok, c, _ = check_weak_mc(e1, Element.zero(e1.basis))
    assert ok and c.is_zero()


def test_weak_mc_failure():
    algebra = make_sv1()
    # curvature T z is not a unit multiple
    ok, _, rest = check_weak_mc(algebra, Element.zero(algebra.basis))
    assert not ok
    assert rest == Element.generator(algebra.basis, 2, ring(algebra.spec, 1, lam=1))


def test_solve_mc_success():
    algebra = make_sv1()
    h = {2: Element.generator(algebra.basis, 1, algebra.one_ring())}
    outcome = solve_mc(algebra, h, Element.zero(algebra.basis))
    assert not isinstance(outcome, Obstruction)
    b, c = outcome
    assert c.is_zero()
    ok, c2, _ = check_weak_mc(algebra, b)
    assert ok and c2.is_zero()
    assert b == Element.generator(algebra.basis, 1, ring(algebra.spec, -1, lam=1))


def test_solve_mc_trivial_cases():
    e2 = make_e2()
    b, c = solve_mc(e2, {}, Element.zero(e2.basis))
    assert b.is_zero() and c == ring(e2.spec, 1, lam=1, e=1)
    e1 = make_e1()
    b, c = solve_mc(e1, {}, Element.zero(e1.basis))
    assert b.is_zero() and c.is_zero()


def test_solve_mc_obstruction():
    algebra = make_ob1()
    outcome = solve_mc(algebra, {}, Element.zero(algebra.basis))
    assert isinstance(outcome, Obstruction)
    assert outcome.level == 1


def test_solve_mc_validates_right_inverse():
    algebra = make_sv1()
    bad = {2: Element.generator(algebra.basis, 1, algebra.one_ring().scale(2))}
    with pytest.raises(ConfigurationError):
        solve_mc(algebra, bad, Element.zero(algebra.basis))


def test_dual_action_degenerate_case(g1):
    # k = l = 0 reduces to (-1)^{|cov|'} cov(m_1(w))
    cov = Covector.dual_basis(g1, 3)  # dual to z, degree -2
    w = Element.generator(g1.basis, 1, g1.one_ring())
    value = dual_action(g1, 0, 0, [], cov, [], w)
    expected = ring(g1.spec, -1, lam=Fraction(1, 2))  # m1(x) = -T^{1/2} z
    sign = -1 if (cov.degree - 1) % 2 else 1
    assert value == expected.scale(sign)


def test_dual_action_zero_covector(g1):
    cov = Covector({}, 0)
    w = Element.generator(g1.basis, 1, g1.one_ring())
    assert dual_action(g1, 0, 0, [], cov, [], w).is_zero()


def test_curvature_has_degree_two(e2):
    b = Element.generator(e2.basis, 1, ring(e2.spec, 2, lam=Fraction(1, 2)))
    cur = curvature(e2, b)
    assert cur.is_homogeneous(2)


def test_dual_action_unit_m1_vanishes(e1):
    cov = Covector.dual_basis(e1, 1)
    assert dual_action(e1, 0, 0, [], cov, [], unit_element(e1)).is_zero()


def _bimodule_start_words(algebra):
    """Every (lw, y, rw) with reduced words of total length |lw| + |rw| <= 2."""
    letters = algebra.basis.reduced_letters()
    for nl in range(3):
        for nr in range(3 - nl):
            for lw in words_over(letters, nl):
                for rw in words_over(letters, nr):
                    for y in range(len(algebra.basis)):
                        yield lw, y, rw


def _dual_start_words(algebra):
    """Every flat dual word (lw, cdeg, arg, rw) on those, cdeg in [-2, 2]."""
    for lw, arg, rw in _bimodule_start_words(algebra):
        for cdeg in range(-2, 3):
            yield lw, cdeg, arg, rw


@pytest.mark.parametrize("maker", (make_e2, make_g1, make_p1, make_q1))
def test_delta_diagonal_squares_to_zero(maker):
    algebra = maker()
    one = algebra.one_ring()
    for key in _bimodule_start_words(algebra):
        start = {key: one}
        assert delta_diagonal(algebra, delta_diagonal(algebra, start)) == {}


@pytest.mark.parametrize("maker", (make_e2, make_g1, make_p1, make_q1))
def test_delta_dual_squares_to_zero(maker):
    algebra = maker()
    one = algebra.one_ring()
    for key in _dual_start_words(algebra):
        start = {key: one}
        assert delta_dual(algebra, delta_dual(algebra, start)) == {}


@pytest.mark.parametrize("maker", (make_g1, make_e2))
def test_delta_dual_matches_dual_action_reference(maker):
    algebra = maker()
    one = algebra.one_ring()
    for key in _dual_start_words(algebra):
        start = {key: one}
        assert delta_dual(algebra, start) == delta_dual_reference(algebra, start), key


def _unflagged(maker):
    algebra = maker()
    algebra.higher_arities_zero = False
    return algebra


# delta_diagonal is one insertion pass over the marked word; the reference
# is the three loops it replaced.  Unflagged E1 and Q1 refuse the words with
# an absorbing window past their tables (arity 3 and 4).
DELTA_ALGEBRAS = {**{name: maker() for name, maker in (
    ("E1", make_e1), ("E2", make_e2), ("G1", make_g1), ("Q1", make_q1), ("SV1", make_sv1))},
    "E1 unflagged": _unflagged(make_e1), "Q1 unflagged": _unflagged(make_q1)}


def _delta_outcome(delta, algebra, start):
    """delta's word sum with the text of each value, or what it raised."""
    try:
        out = delta(algebra, start)
    except ConfigurationError as exc:
        return "raised: %s" % exc
    return out, {key: value.text() for key, value in out.items()}


def _delta_disagrees(delta) -> bool:
    """Does delta differ from the reference at a start word of outer length
    <= 3 on some algebra?  The outer words run over the whole basis: only
    m_2(1, 1) outputs the unit from an absorbing window on these tables."""
    for algebra in DELTA_ALGEBRAS.values():
        one = algebra.one_ring()
        letters = range(len(algebra.basis))
        for nl in range(4):
            for nr in range(4 - nl):
                for lw in words_over(letters, nl):
                    for rw in words_over(letters, nr):
                        for y in range(len(algebra.basis)):
                            start = {(lw, y, rw): one}
                            if (_delta_outcome(delta, algebra, start)
                                    != _delta_outcome(delta_diagonal_reference, algebra, start)):
                                return True
    return False


def test_delta_diagonal_matches_its_reference():
    assert not _delta_disagrees(delta_diagonal)


def test_delta_diagonal_refuses_windows_past_unflagged_tables():
    for name, word, arity in (("E1 unflagged", ((1,), 1, (1,)), 3),
                              ("Q1 unflagged", ((), 1, (1, 1, 1)), 4)):
        algebra = DELTA_ALGEBRAS[name]
        with pytest.raises(ConfigurationError, match="arity %d requested" % arity):
            delta_diagonal(algebra, {word: algebra.one_ring()})


DELTA_MUTANTS = {
    "absorbing-window test off by one": ("absorbs = i <= n < i + k",
                                         "absorbs = i <= n <= i + k"),
    "unit filter on absorbing windows": ("if absorbs:", "if absorbs and comp != unit:"),
}


@pytest.mark.parametrize("name", sorted(DELTA_MUTANTS))
def test_delta_mutant_killed(name):
    assert _delta_disagrees(mutant_module(ainfty, *DELTA_MUTANTS[name]).delta_diagonal)


# Mutants of the insertion kernel and its call sites, each applied to a
# fresh copy of the ainfty module: (original fragment, mutated fragment).
INSERTION_MUTANTS = {
    "base ignored": ("maltese_prefixes([basis_degrees[x] for x in word], base)",
                     "maltese_prefixes([basis_degrees[x] for x in word])"),
    "position range cut short": ("range(n - k + 1)", "range(n - k)"),
    "delta_dual right-word parity flipped": ("prefixes[n] + cdeg)", "prefixes[n] + cdeg + 1)"),
}


def _insertion_kernel_disagrees(module) -> bool:
    """Does this copy of the ainfty module break a relation or its reference?

    Checks the curved relations on E2, the square of the diagonal bar
    differential and delta_dual against the dual_action reference on G1.
    """
    if not module.check_ainfty(at_cutoffs(make_e2(), k_max=4)).passed:
        return True
    g1 = make_g1()
    one = g1.one_ring()
    for key in _bimodule_start_words(g1):
        start = {key: one}
        if module.delta_diagonal(g1, module.delta_diagonal(g1, start)):
            return True
    for key in _dual_start_words(g1):
        start = {key: one}
        if module.delta_dual(g1, start) != delta_dual_reference(g1, start):
            return True
    return False


def test_insertion_detector_accepts_the_kernel():
    assert not _insertion_kernel_disagrees(ainfty)


@pytest.mark.parametrize("name", sorted(INSERTION_MUTANTS))
def test_insertion_mutant_killed(name):
    old, new = INSERTION_MUTANTS[name]
    assert _insertion_kernel_disagrees(mutant_module(ainfty, old, new))


def test_crossing_sign_mutant_is_killed_through_delta_dual(monkeypatch):
    # delta_dual reads the crossing of the absorbed left letters through
    # ainfty's binding of graded.crossing_sign
    g1 = make_g1()
    one = g1.one_ring()
    cases = [({key: one}, delta_dual_reference(g1, {key: one})) for key in _dual_start_words(g1)]
    assert all(delta_dual(g1, start) == want for start, want in cases)
    monkeypatch.setattr(ainfty, "crossing_sign", crossing_sign_mutant())
    assert any(delta_dual(g1, start) != want for start, want in cases)


def test_quotient_mutant_is_killed_through_delta_diagonal_and_delta_dual(monkeypatch):
    # both differentials drop a unit output in a word slot through ainfty's
    # binding of graded.quotient: m_2(1, 1) = 1 makes one in delta_diagonal
    # on the whole basis, and E2's m_0 = T e 1 one at every gap of the
    # reduced words of delta_dual; the references share no quotient
    e2 = make_e2()
    one = e2.one_ring()
    cases = [({key: one}, delta_dual_reference(e2, {key: one})) for key in _dual_start_words(e2)]
    assert all(delta_dual(e2, start) == want for start, want in cases)
    assert not _delta_disagrees(ainfty.delta_diagonal)
    monkeypatch.setattr(ainfty, "quotient", quotient_mutant())
    assert _delta_disagrees(ainfty.delta_diagonal)
    assert any(delta_dual(e2, start) != want for start, want in cases)


def test_coderivation_squares_to_zero(e2, rng):
    # equivalent form of the relations: the full coderivation squares to zero
    letters = (0, 1)
    for _ in range(100):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        words = {word: e2.one_ring()}
        assert coderivation(e2, coderivation(e2, words)) == {}


def test_coderivation_on_empty_word(e1, e2):
    # uncurved: zero; curved: the one-letter curvature word
    assert coderivation(e1, {(): e1.one_ring()}) == {}
    out = coderivation(e2, {(): e2.one_ring()})
    assert out == {(0,): ring(e2.spec, 1, lam=1, e=1)}


def test_degree_homogeneity_enforced():
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1", "x"), (0, 1), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: -one}},
        # m0 output must have degree 2 - mu; the unit has degree 0
        (0, 0): {},
        (0, 1): {(): {0: one}},
    }
    from ainfty.ainfty import AInftyAlgebra

    with pytest.raises(ConfigurationError):
        AInftyAlgebra(basis, ((Fraction(0), 0), (Fraction(1), 0)), ops, spec)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(degrees=st.tuples(st.integers(-3, 4), st.integers(-3, 4)),
       word=st.lists(st.integers(0, 2), max_size=3).map(tuple), comp=st.integers(0, 2),
       mu=st.sampled_from((0, 2, 4)), s=st.integers(0, 2), s_degree=st.sampled_from((2, 4)))
def test_a_loaded_entry_has_the_ainfty_degree(degrees, word, comp, mu, s, s_degree):
    # the parity lemma the chain identities rest on: the constructor refuses
    # an entry m(u)[c] unless |c|' = |u|' + 1 mod 2, whatever the even mu
    # of its monoid label and the even degree of its coefficient
    spec = RingSpec(s_degree=s_degree, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1", "x", "y"), (0,) + degrees, unit=0)
    ops = {(len(word), 1): {word: {comp: ring(spec, 1, s=s)}}}
    try:
        algebra = AInftyAlgebra(basis, ((Fraction(0), 0), (Fraction(1), mu)), ops, spec)
    except ConfigurationError as exc:
        assert "not degree-homogeneous" in str(exc)
        return
    shifted = sum(basis.degree(x) - 1 for x in word)
    assert (basis.degree(comp) - 1 + shifted) % 2 == 1
    assembled = ring(spec, 1, lam=1, e=mu // 2, s=s)
    assert ainfty.nonzero_words(algebra) == {len(word): {word: {comp: assembled}}}


def test_neutral_curvature_rejected():
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1", "x"), (0, 1), unit=0)
    one = RingElement.one(spec)
    ops = {(0, 0): {(): {0: one}}}
    from ainfty.ainfty import AInftyAlgebra

    with pytest.raises(ConfigurationError):
        AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec)


def test_monoid_invariants():
    from ainfty.ainfty import AInftyAlgebra

    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1",), (0,), unit=0)
    with pytest.raises(ConfigurationError):
        AInftyAlgebra(basis, ((Fraction(0), 2),), {}, spec)  # zero energy, nonzero index
    with pytest.raises(ConfigurationError):
        AInftyAlgebra(basis, ((Fraction(1), 1),), {}, spec)  # odd index
