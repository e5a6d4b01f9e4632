"""Inner products from towers: construction, symmetries, nondegeneracy."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import hochschild, pairing
from ainfty.ainfty import check_bimodule_hom, phi_hat
from ainfty.coeff import RingElement
from ainfty.errors import ConfigurationError, DivergenceError, TowerError
from ainfty.graded import Element, words_over
from ainfty.hochschild import CocycleTower, Functional, chain_degree
from ainfty.pairing import (
    InfinityInnerProduct,
    build_phi,
    check_closed,
    check_skew,
    trace_identity,
    weak_cyclic_check,
)

from conftest import (
    make_e1, make_e2, make_g1, make_p1, make_q1,
    poincare_tower, random_bstar_tower, random_coboundary_tower,
    random_degree_one, random_functional, ring,
)
from oracles import (
    SCALARS, at_cutoffs, check_closed_reference, check_skew_reference, crossing_sign_mutant,
    elements, eval_word_reference, expand_eval_elements, homological_nondegeneracy,
    mutant_module, phi_hat_all_arguments,
)


def build_poincare(maker):
    algebra = maker()
    tower = poincare_tower(algebra)
    return algebra, build_phi(algebra, tower)


def test_build_phi_rejects_invalid_tower(g1):
    bad = CocycleTower((Functional(g1.basis, g1.spec,
                                   {(3, (1,)): ring(g1.spec, 1, e=1)}),))
    with pytest.raises(TowerError):
        build_phi(g1, bad)


def test_zero_tower_gives_zero_phi(e2):
    tower = CocycleTower((Functional(e2.basis, e2.spec, {}),))
    phi = build_phi(e2, tower)
    for v in range(2):
        for w in range(2):
            assert phi.eval_word((), v, (), w).is_zero()


def test_poincare_pairing_values(e1):
    phi = build_phi(e1, poincare_tower(e1))
    one = RingElement.one(e1.spec)
    # phi_{0,0}(1)(x) reads the stored entry; phi_{0,0}(x)(1) the reflected one
    assert phi.eval_word((), 0, (), 1) == one
    assert phi.eval_word((), 1, (), 0) == -one
    assert phi.eval_word((), 0, (), 0).is_zero()
    assert phi.eval_word((), 1, (), 1).is_zero()


def test_diagonal_vanishing_for_even_shift(p1, rng):
    # |v|' even forces phi_{0,0}(v)(v) = 0 under the skew sign
    tower = random_coboundary_tower(p1, rng, d_base=0)
    phi = build_phi(p1, tower)
    for v in range(len(p1.basis)):
        if (p1.basis.degree(v) - 1) % 2 == 0:
            assert phi.eval_word((), v, (), v).is_zero()


def test_unit_slot_vanishing(e2):
    phi = build_phi(e2, poincare_tower(e2))
    # a unit in any non-module, non-final slot kills the value
    assert phi.eval_word((0,), 1, (), 1).is_zero()
    assert phi.eval_word((), 1, (0,), 1).is_zero()
    assert phi.eval_word((1,), 0, (0,), 1).is_zero()


@pytest.mark.parametrize("maker", (make_e1, make_e2))
def test_poincare_passes_all_checks(maker):
    algebra, phi = build_poincare(maker)
    assert check_bimodule_hom(algebra, phi).passed  # at the own cutoff, 4
    assert check_skew(at_cutoffs(algebra, l_max=3), phi).passed
    assert check_closed(at_cutoffs(algebra, l_max=2), phi).passed
    assert trace_identity(algebra, phi).passed


def test_random_bstar_towers_pass_checks(rng):
    e1 = make_e1()
    done = 0
    while done < 6:
        tower = random_bstar_tower(e1, rng)
        if tower.psi0.is_zero():
            continue
        phi = build_phi(e1, tower)
        assert check_bimodule_hom(e1, phi).passed  # at the own cutoff, 4
        assert check_skew(at_cutoffs(e1, l_max=3), phi).passed
        assert check_closed(at_cutoffs(e1, l_max=2), phi).passed
        assert trace_identity(e1, phi).passed
        done += 1


@pytest.mark.parametrize("maker,d", ((make_g1, 1), (make_p1, 0), (make_q1, 1)))
def test_random_coboundary_towers_pass_hom_skew_closed(maker, d, rng):
    algebra = maker()
    done = 0
    while done < 3:
        tower = random_coboundary_tower(algebra, rng, d_base=d)
        if all(p.is_zero() for p in tower.levels):
            continue
        phi = build_phi(algebra, tower)
        assert check_bimodule_hom(at_cutoffs(algebra, l_max=3), phi).passed
        assert check_skew(at_cutoffs(algebra, l_max=2), phi).passed
        assert check_closed(at_cutoffs(algebra, l_max=1), phi).passed
        done += 1


def negated(phi, selects):
    """A fresh evaluator on phi's tower with the table entries selects picks negated."""
    mutant = InfinityInnerProduct(phi.algebra, phi.tower)
    keys = [key for key in mutant.table if selects(*key)]
    assert keys, "the mutation must change some entry"
    for key in keys:
        mutant.table[key] = -mutant.table[key]
    return mutant


def test_skew_mutation_detected(e1):
    phi = build_phi(e1, poincare_tower(e1))
    flipped = negated(phi, lambda alpha, v, beta, w: not alpha and not beta
                      and v == 1 and w == 0)
    report = check_skew(at_cutoffs(e1, l_max=1), flipped)
    assert not report.passed


def test_closed_mutation_detected(g1, rng):
    tower = random_coboundary_tower(g1, rng, d_base=1)
    while all(p.is_zero() for p in tower.levels):
        tower = random_coboundary_tower(g1, rng, d_base=1)
    phi = build_phi(g1, tower)
    assert check_closed(at_cutoffs(g1, l_max=1), phi).passed

    # flipping one family of components breaks closedness unless everything
    # in that family vanishes
    mutant = negated(phi, lambda alpha, v, beta, w: len(alpha) == 1 and not beta)
    broken = check_closed(at_cutoffs(g1, l_max=1), mutant)
    skewed = check_skew(at_cutoffs(g1, l_max=2), mutant)
    assert not (broken.passed and skewed.passed)


def test_trace_identity_mutation(e1):
    # a tower failing the cocycle condition generally breaks the identity
    table = {(0, (1,)): RingElement.one(e1.spec),
             (1, (1,)): RingElement.one(e1.spec)}
    with pytest.raises(Exception):
        Functional(e1.basis, e1.spec, table)  # inhomogeneous: rejected earlier


def test_weak_cyclic_poincare(e2, rng):
    phi = build_phi(e2, poincare_tower(e2))
    for _ in range(20):
        b = random_degree_one(e2, rng)
        for y_idx in range(2):
            y = Element.generator(e2.basis, y_idx, e2.one_ring())
            assert weak_cyclic_check(e2, phi, b, y).passed  # at the own cutoff, 5


def test_weak_cyclic_trivial_cases(e2):
    phi = build_phi(e2, poincare_tower(e2))
    zero = Element.zero(e2.basis)
    y = Element.generator(e2.basis, 1, e2.one_ring())
    assert weak_cyclic_check(at_cutoffs(e2, n_max=3), phi, zero, y).passed


def test_weak_cyclic_requires_degree_one(e2):
    phi = build_phi(e2, poincare_tower(e2))
    y = Element.generator(e2.basis, 1, e2.one_ring())
    bad = Element.generator(e2.basis, 0, ring(e2.spec, 1, lam=1))
    with pytest.raises(Exception):
        weak_cyclic_check(at_cutoffs(e2, n_max=2), phi, bad, y)


def test_weak_cyclic_valuation_guard(e2):
    phi = build_phi(e2, poincare_tower(e2))
    y = Element.generator(e2.basis, 1, e2.one_ring())
    bad = Element.generator(e2.basis, 1, e2.one_ring())
    with pytest.raises(DivergenceError):
        weak_cyclic_check(at_cutoffs(e2, n_max=2), phi, bad, y)


def test_homological_nondegeneracy_poincare(e1):
    phi = build_phi(e1, poincare_tower(e1))
    ok, certificate = homological_nondegeneracy(e1, phi)
    assert ok
    assert certificate["homology_dimension"] == 2
    assert certificate["rank"] == 2


def test_homological_nondegeneracy_zero_phi(e1):
    tower = CocycleTower((Functional(e1.basis, e1.spec, {}),))
    phi = build_phi(e1, tower)
    ok, certificate = homological_nondegeneracy(e1, phi)
    assert not ok
    assert certificate["rank"] == 0


def test_homological_nondegeneracy_rank_deficient(e1):
    # pair only the unit against the unit: x pairs with nothing
    class UnitOnly:
        degree = 0
        tower = poincare_tower(e1)

        def eval_word(self, alpha, v, beta, w):
            if not alpha and not beta and v == 0 and w == 0:
                return RingElement.one(e1.spec)
            return RingElement.zero(e1.spec)

    ok, certificate = homological_nondegeneracy(e1, UnitOnly())
    assert not ok
    assert certificate["rank"] == 1


def test_homological_nondegeneracy_with_differential(g1, rng):
    # H(G1) = span(1, x - y, z / im) ... the classical differential is zero
    # at energy zero, so homology is the whole basis; any tower from the
    # solved family pairs it only partially
    tower = random_coboundary_tower(g1, rng, d_base=1)
    while all(p.is_zero() for p in tower.levels):
        tower = random_coboundary_tower(g1, rng, d_base=1)
    phi = build_phi(g1, tower)
    ok, certificate = homological_nondegeneracy(g1, phi)
    assert certificate["homology_dimension"] == 4
    assert isinstance(ok, bool)


def test_bimodule_hom_mutation_detected(e1):
    # the strict tower has no higher components, so flip one scalar entry
    phi = build_phi(e1, poincare_tower(e1))
    flipped = negated(phi, lambda alpha, v, beta, w: not alpha and not beta
                      and (v, w) == (1, 0))
    report = check_bimodule_hom(at_cutoffs(e1, l_max=3), flipped)
    assert not report.passed


def test_zero_phi_on_unit_only_algebra():
    from fractions import Fraction

    from ainfty.ainfty import AInftyAlgebra
    from ainfty.coeff import RingElement, RingSpec
    from ainfty.graded import GradedBasis

    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(2))
    basis = GradedBasis(("1",), (0,), unit=0)
    ops = {(2, 0): {(0, 0): {0: RingElement.one(spec)}}}
    algebra = AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec, name="U1")
    tower = CocycleTower((Functional(basis, spec, {}),))
    phi = build_phi(algebra, tower)
    assert check_bimodule_hom(at_cutoffs(algebra, l_max=3), phi).passed
    assert check_skew(at_cutoffs(algebra, l_max=2), phi).passed


def test_weak_cyclic_corpus_g1_tower(g1, rng):
    # the rotation identity on an algebra with a differential and higher
    # tower support (the corpus pairing), beyond the strict case
    import os

    import ainfty
    from ainfty.document import load

    doc = load(os.path.join(os.path.dirname(ainfty.__file__), "corpus",
                            "g1_gauge.json"))
    algebra = doc.algebra
    phi = build_phi(algebra, doc.towers["pair"])
    for _ in range(10):
        b = random_degree_one(algebra, rng)
        for y_idx in range(len(algebra.basis)):
            y = Element.generator(algebra.basis, y_idx, algebra.one_ring())
            assert weak_cyclic_check(at_cutoffs(algebra, n_max=4), phi, b, y).passed


# -- the support-driven kernels against the brute-force expansion ------------


def _corpus_g1():
    import os

    import ainfty
    from ainfty.document import load

    doc = load(os.path.join(os.path.dirname(ainfty.__file__), "corpus",
                            "g1_gauge.json"))
    return doc.algebra, doc.towers["pair"]


def _nonstrict_psi0(algebra, rng):
    """psi_0 on reduced words of length up to 4, of degree 0 or 1."""
    return random_functional(algebra, rng, d=rng.choice((0, 1)), max_len=4)


def _offered_unit_words(functional_cls, algebra, rng):
    """``_nonstrict_psi0`` with entries of its degree on words that hold the
    unit, offered to ``functional_cls``.  ``Functional`` refuses them and
    the reduced psi_0 is kept; a class that takes them reads psi_0 off the
    reduced complex, which every evaluation of phi must then show."""
    psi0 = _nonstrict_psi0(algebra, rng)
    basis, unit, n = algebra.basis, algebra.basis.unit, len(algebra.basis)
    table = dict(psi0.table)
    for _ in range(8):
        word = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
        word[rng.randrange(len(word))] = unit
        key = (rng.randrange(n), tuple(word))
        degree = psi0.degree + chain_degree(basis, *key)
        if degree % 2 == 0:
            table[key] = ring(algebra.spec, rng.choice((-1, 2)), e=degree // 2)
    try:
        return functional_cls(basis, algebra.spec, table)
    except ConfigurationError:
        return psi0


def _phi_case(case, rng):
    """(algebra, phi): strict E2, the corpus G1 tower, or a non-strict G1 psi_0."""
    if case == 0:
        algebra = make_e2()
        return algebra, InfinityInnerProduct(algebra, poincare_tower(algebra))
    if case == 1:
        algebra, pair = _corpus_g1()
        return algebra, InfinityInnerProduct(algebra, pair)
    algebra = make_g1()
    psi0 = _nonstrict_psi0(algebra, rng)
    return algebra, InfinityInnerProduct(algebra, CocycleTower((psi0,)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_eval_elements_matches_expansion(data):
    case = data.draw(st.integers(0, 2))
    algebra, phi = _phi_case(case, random.Random(data.draw(st.integers(0, 2 ** 16))))
    scalars = data.draw(st.sampled_from(SCALARS))
    # up to one slot past the longest psi_0 entry, where the result is 0
    longest = max(len(alpha) + len(beta) for alpha, _, beta, _ in phi.table)
    total = data.draw(st.integers(0, min(longest + 1, 3)))
    p = data.draw(st.integers(0, total))
    q = total - p
    element = elements(algebra, scalars)
    alphas = [data.draw(element) for _ in range(p)]
    betas = [data.draw(element) for _ in range(q)]
    v, w = data.draw(element), data.draw(element)
    got = phi.eval_elements(alphas, v, betas, w)
    want = expand_eval_elements(phi, alphas, v, betas, w)
    assert got == want
    assert got.text() == want.text()


def test_eval_elements_cancelling_inputs():
    # x - y against a pairing symmetric in x and y: every term cancels
    algebra, pair = _corpus_g1()
    phi = InfinityInnerProduct(algebra, pair)
    one = algebra.one_ring()
    x, y = (Element.generator(algebra.basis, i, one) for i in (1, 2))
    for args in (([], x - y, [], x + y), ([x - y], x, [], x), ([x], x - y, [x - y], x)):
        assert phi.eval_elements(*args) == expand_eval_elements(phi, *args)
    assert phi.eval_elements([x], x, [x, x], x).is_zero()  # no psi_0 entry that long


@pytest.mark.parametrize("case", range(3))
def test_phi_hat_matches_all_arguments(case):
    algebra, phi = _phi_case(case, random.Random(case))
    one = algebra.one_ring()
    letters = range(len(algebra.basis))
    for total in range(4):
        for nl in range(total + 1):
            for lw in words_over(letters, nl):
                for rw in words_over(letters, total - nl):
                    for y in letters:
                        start = {(lw, y, rw): one}
                        assert phi_hat(algebra, phi, start) == \
                            phi_hat_all_arguments(algebra, phi, start)


def _all_keys(algebra, max_total):
    """Every (alpha, v, beta, w) over the whole basis, unit included."""
    letters = range(len(algebra.basis))
    for total in range(max_total + 1):
        for p in range(total + 1):
            for alpha in words_over(letters, p):
                for beta in words_over(letters, total - p):
                    for v in letters:
                        for w in letters:
                            yield alpha, v, beta, w


@pytest.mark.parametrize("case", range(3))
def test_table_matches_psi0_reading(case):
    # every entry psi_0 can reach has length <= 4, so total <= 3 covers the
    # whole table; the unit appears in every slot
    algebra, phi = _phi_case(case, random.Random(case))
    found = 0
    for key in _all_keys(algebra, 3):
        want = eval_word_reference(phi, *key)
        got = phi.eval_word(*key)
        assert got == want and got.text() == want.text(), key
        found += bool(want)
    assert found == len(phi.table)


def _skew_closed_case(case, mutation):
    """(algebra, phi) with phi's table edited so that the checks can fail.

    With one key left, each failing tuple or triple is reached from that
    key alone.  The key kept is the longest with no unit and a nonempty
    alpha if there is one: alpha holds the third marking of every triple
    closedness reads the key in.
    """
    algebra, phi = _phi_case(case, random.Random(10 + case))
    keys = sorted(phi.table)
    if mutation == "first key negated":
        phi.table[keys[0]] = -phi.table[keys[0]]
    elif mutation == "every other key negated":
        for key in keys[::2]:
            phi.table[key] = -phi.table[key]
    elif mutation == "one key kept":
        unit = algebra.basis.unit
        keep = max(keys, key=lambda k: (unit not in k[0] + (k[1],) + k[2] + (k[3],),
                                        bool(k[0]), len(k[0]) + len(k[2])))
        for key in keys:
            if key != keep:
                del phi.table[key]
    return algebra, phi


SKEW_CLOSED_MUTATIONS = (None, "first key negated", "every other key negated",
                         "one key kept")


@pytest.mark.parametrize("mutation", SKEW_CLOSED_MUTATIONS)
@pytest.mark.parametrize("case", range(3))
def test_skew_matches_every_tuple(case, mutation):
    algebra, phi = _skew_closed_case(case, mutation)
    for l_max in range(4):
        at_l = at_cutoffs(algebra, l_max=l_max)
        got = check_skew(at_l, phi)
        want = check_skew_reference(at_l, phi)
        assert (got.text(), got.checked) == (want.text(), want.checked)


@pytest.mark.parametrize("mutation", SKEW_CLOSED_MUTATIONS)
@pytest.mark.parametrize("case", range(3))
def test_closed_matches_every_triple(case, mutation):
    algebra, phi = _skew_closed_case(case, mutation)
    for l_max in range(4):
        at_l = at_cutoffs(algebra, l_max=l_max)
        got = check_closed(at_l, phi)
        want = check_closed_reference(at_l, phi)
        assert (got.text(), got.checked) == (want.text(), want.checked)


def test_crossing_sign_mutant_is_killed_through_skew_and_closedness(monkeypatch):
    # both checks read their Koszul signs through pairing's binding of
    # graded.crossing_sign; phi is read from psi_0 before the mutant is
    # patched in, so only the two checks see it
    cases = []
    for case in range(3):
        algebra, phi = _skew_closed_case(case, None)
        at3 = at_cutoffs(algebra, l_max=3)
        cases.append((at3, phi, check_skew_reference(at3, phi).text(),
                      check_closed_reference(at3, phi).text()))
    monkeypatch.setattr(pairing, "crossing_sign", crossing_sign_mutant())
    assert any(check_skew(at3, phi).text() != skew for at3, phi, skew, _ in cases)
    assert any(check_closed(at3, phi).text() != closed for at3, phi, _, closed in cases)


def test_skew_closed_references_see_failures():
    # the comparisons above also cover failure lists and their order
    algebra, phi = _skew_closed_case(2, "every other key negated")
    at3 = at_cutoffs(algebra, l_max=3)
    assert len(check_skew_reference(at3, phi).failures) > 1
    assert len(check_closed_reference(at3, phi).failures) > 1


# Mutants of the table builder, each applied to a fresh copy of its module:
# name -> (module, original fragment, mutated fragment).  The table reads
# psi_0 only on reduced words because ``Functional`` refuses any other, so
# the unit exclusion is mutated there.
KERNEL_MUTANTS = {
    "reading-2 sign flipped": (
        pairing, "second = -value if crossing_sign(total, prefixes[1]) > 0 else value",
        "second = value if crossing_sign(total, prefixes[1]) > 0 else -value"),
    "unit exclusion dropped": (hochschild, "if not reduced(word, basis.unit):", "if False:"),
    "reading-1 split off by one": (
        pairing, "add_term(table, (after, v0, before, letter),",
        "add_term(table, (word[m:], v0, before, letter),"),
}


def _kernel_disagrees(pairing_mod, functional_cls=Functional) -> bool:
    """Does eval_elements from this module differ from the expansion anywhere?

    psi_0 is built by ``functional_cls`` from a table offered entries on
    words with the unit (``_offered_unit_words``).  The expansion reads
    psi_0 directly (``eval_word_reference``), a word with the unit as
    zero.  Every
    input carries every basis component, with scalars differing from slot
    to slot so that the two readings cannot cancel, so every table entry of
    the right shape is selected.  A mutant that crashes counts as detected.
    """
    algebra = make_g1()
    psi0 = _offered_unit_words(functional_cls, algebra, random.Random(4))
    tower = CocycleTower((psi0,))
    mutant = pairing_mod.InfinityInnerProduct(algebra, tower)
    rng = random.Random(5)
    full = [Element(algebra.basis, {i: ring(algebra.spec, rng.randint(1, 9))
                                    for i in range(len(algebra.basis))})
            for _ in range(5)]
    for p in range(4):
        for q in range(4 - p):
            args = (full[:p], full[p], full[p + 1:p + 1 + q], full[p + 1 + q])
            try:
                got = mutant.eval_elements(*args)
            except IndexError:
                return True
            if got != expand_eval_elements(mutant, *args):
                return True
    return False


def test_kernel_detector_accepts_the_kernel():
    assert not _kernel_disagrees(pairing)


@pytest.mark.parametrize("name", sorted(KERNEL_MUTANTS))
def test_kernel_mutant_killed(name):
    module, old, new = KERNEL_MUTANTS[name]
    mutant = mutant_module(module, old, new)
    if module is hochschild:
        assert _kernel_disagrees(pairing, mutant.Functional)
    else:
        assert _kernel_disagrees(mutant)
