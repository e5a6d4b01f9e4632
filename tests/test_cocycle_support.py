"""The cocycle pipeline's support-driven checks against their all-word loops.

``check_bimodule_hom`` evaluates the bimodule identity only at the bar
words its corestriction can reach, and ``validate_negative_cocycle`` pulls
each tower key back through b and B to the chains that reach it.  Here both
are compared, report text and ``checked``, with the loops over every word
(``oracles``), on coboundary towers over E1, E2, G1, SV1 and Q1 with a few
table edits, most of which make the checks fail.  Each candidate family of
the two kernels, the signs of the pullback, its ring check, the length
bound of the un-insertions and the extension of failing words are also
mutated and must be caught.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import ainfty, hochschild
from ainfty.coeff import RingElement
from ainfty.errors import ConfigurationError
from ainfty.hochschild import CocycleTower, Functional, chain_degree, iter_basis_chains
from ainfty.pairing import InfinityInnerProduct

from conftest import make_e1, make_e2, make_g1, make_q1, make_sv1, random_coboundary_tower, ring
from oracles import (
    at_cutoffs, check_bimodule_hom_reference, crossing_sign_mutant, mutant_module,
    validate_negative_cocycle_reference, with_cutoff,
)

MAKERS = (make_e1, make_e2, make_g1, make_sv1, make_q1)
EDITS = ("negate", "scale", "add")


def _edit(table, rng, kinds, fresh):
    """A copy of table with each edit applied: negate or scale a random
    entry, or add the key and value fresh(rng) draws, if it is new."""
    table = dict(table)
    for kind in kinds:
        if kind == "add" or not table:
            key, value = fresh(rng)
            if key is not None and key not in table:
                table[key] = value
            continue
        key = rng.choice(sorted(table))
        table[key] = -table[key] if kind == "negate" else table[key].scale(rng.choice((2, -3)))
    return table


def _fresh_chain_entry(algebra, degree):
    """A key off the support of a functional of the given degree, with a
    value of matching degree (None when the parity does not allow one)."""
    chains = list(iter_basis_chains(algebra, 3))

    def fresh(rng):
        module, word = rng.choice(chains)
        out_deg = degree + chain_degree(algebra.basis, module, word)
        if out_deg % 2:
            return None, None
        return (module, word), ring(algebra.spec, rng.choice((-2, -1, 1, 3)),
                                    lam=rng.randint(0, 2), e=out_deg // 2)
    return fresh


def _fresh_phi_entry(algebra):
    """A bar key (alpha, v, beta, w) with reduced words of total length <= 3."""
    letters = algebra.basis.reduced_letters()
    size = len(algebra.basis)

    def fresh(rng):
        total = rng.randint(0, 3)
        left = rng.randint(0, total)
        alpha = tuple(rng.choice(letters) for _ in range(left))
        beta = tuple(rng.choice(letters) for _ in range(total - left))
        key = (alpha, rng.randrange(size), beta, rng.randrange(size))
        return key, ring(algebra.spec, rng.choice((-1, 1, 2)), lam=rng.randint(0, 1),
                         e=rng.randint(-1, 1))
    return fresh


def make_case(maker, depth, d_base, seed, tower_edits=(), phi_edits=()):
    """(algebra, tower, phi): a coboundary tower with depth + 1 levels and its
    edits, and the inner product read from it with its own edits."""
    algebra = maker()
    rng = random.Random(seed)
    tower = random_coboundary_tower(algebra, rng, d_base, levels=depth + 1, l_max=3)
    levels = list(tower.levels)
    # b* raises the degree of chi_i by one; an all-zero tower has none
    base = d_base + 1 if tower.degree() is None else tower.degree()
    for kind in tower_edits:
        i = rng.randrange(len(levels))
        fresh = _fresh_chain_entry(algebra, base + 2 * i)
        levels[i] = Functional(algebra.basis, algebra.spec,
                               _edit(levels[i].table, rng, (kind,), fresh))
    tower = CocycleTower(tuple(levels))
    phi = InfinityInnerProduct(algebra, tower)
    phi.table = _edit(phi.table, rng, phi_edits, _fresh_phi_entry(algebra))
    return algebra, tower, phi


def _same(module_report, reference_report):
    return (module_report.text(), module_report.checked) == \
        (reference_report.text(), reference_report.checked)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(maker=st.sampled_from(MAKERS), depth=st.integers(0, 2),
       d_base=st.sampled_from((0, 1, -1)), seed=st.integers(0, 10 ** 6),
       tower_edits=st.lists(st.sampled_from(EDITS), max_size=3),
       phi_edits=st.lists(st.sampled_from(EDITS), max_size=3), l_max=st.integers(0, 3))
def test_support_checks_match_every_word(maker, depth, d_base, seed, tower_edits,
                                         phi_edits, l_max):
    algebra, tower, phi = make_case(maker, depth, d_base, seed, tower_edits, phi_edits)
    algebra = at_cutoffs(algebra, l_max=l_max)
    assert _same(hochschild.validate_negative_cocycle(algebra, tower),
                 validate_negative_cocycle_reference(algebra, tower))
    assert _same(ainfty.check_bimodule_hom(algebra, phi),
                 check_bimodule_hom_reference(algebra, phi))


# Cases whose reports fail at L = 3, named after the candidate families
# and signs that matter on them: a kernel that leaves out one of those
# families, gets one of those signs wrong, or extends the failing middles
# short, reports differently there.
FAILING_CASES = {
    "G1 interior, right": (make_g1, 0, 1, 0, ("negate",), ()),
    "G1 B-rotation": (make_g1, 2, 0, 0, ("negate",), ()),
    "G1 rotation sign": (make_g1, 1, 1, 0, ("negate",), ()),
    "SV1 wrap, left, module": (make_sv1, 1, 0, 0, ("negate",), ()),
    "E1 dual-absorb": (make_e1, 0, 1, 0, (), ("negate",)),
}


def _foreign(algebra, tower, level):
    """The tower with one level moved to a ring whose energy cutoff is one
    more than the algebra's, which no product may mix with the algebra's."""
    spec = with_cutoff(algebra.spec, algebra.spec.cutoff + 1)
    levels = list(tower.levels)
    levels[level] = Functional(algebra.basis, spec, {
        key: RingElement(spec, value.terms) for key, value in levels[level].table.items()})
    return CocycleTower(tuple(levels))


def _validation(validate, algebra, tower):
    """The report text and ``checked`` of a validation at L = 3, or the
    message of the ConfigurationError it raises."""
    try:
        report = validate(at_cutoffs(algebra, l_max=3), tower)
    except ConfigurationError as exc:
        return ConfigurationError, str(exc)
    return report.text(), report.checked


@functools.lru_cache(maxsize=None)
def _references(case):
    """The two reference reports on a case, and the reference validation
    of its tower with the top level in a foreign ring."""
    algebra, tower, phi = make_case(*FAILING_CASES[case])
    foreign = _foreign(algebra, tower, tower.depth)
    return (validate_negative_cocycle_reference(at_cutoffs(algebra, l_max=3), tower),
            check_bimodule_hom_reference(at_cutoffs(algebra, l_max=3), phi),
            _validation(validate_negative_cocycle_reference, algebra, foreign))


def _kernels_agree(ainfty_mod, hochschild_mod, case) -> bool:
    """Do both checks from these modules report as the references on a case,
    and does the validation refuse its foreign-ring tower as the reference?

    The case is built afresh, so no index cached on an algebra outlives the
    module that built it.
    """
    algebra, tower, phi = make_case(*FAILING_CASES[case])
    validation, bimodule, foreign = _references(case)
    at3 = at_cutoffs(algebra, l_max=3)
    return (_same(hochschild_mod.validate_negative_cocycle(at3, tower), validation)
            and _same(ainfty_mod.check_bimodule_hom(at3, phi), bimodule)
            and _validation(hochschild_mod.validate_negative_cocycle, algebra,
                            _foreign(algebra, tower, tower.depth)) == foreign)


@pytest.mark.parametrize("case", sorted(FAILING_CASES))
def test_failing_case_reports_as_reference(case):
    assert not all(report.passed for report in _references(case)[:2])
    assert _kernels_agree(ainfty, hochschild, case)


@pytest.mark.parametrize("maker", MAKERS)
@pytest.mark.parametrize("depth", (0, 2))
def test_foreign_ring_tower_raises(maker, depth):
    # a level in another ring is refused with Functional.apply's message,
    # the algebra's cutoff first, whichever level it is, as the all-chain
    # reference refuses it; so is a tower that reaches no chain at L = 3
    # (here the zero towers over E1 and E2, and the Q1 tower)
    algebra, tower, _ = make_case(maker, depth, 0, 1)
    for level in range(depth + 1):
        foreign = _foreign(algebra, tower, level)
        with pytest.raises(ConfigurationError) as raised:
            hochschild.validate_negative_cocycle(at_cutoffs(algebra, l_max=3), foreign)
        assert str(raised.value) == "mismatched energy cutoffs: %s vs %s" % (
            algebra.spec.cutoff, algebra.spec.cutoff + 1)
        assert _validation(validate_negative_cocycle_reference, algebra, foreign) == (
            ConfigurationError, str(raised.value))


@pytest.mark.parametrize("maker,top", ((make_e1, 2), (make_q1, 3)))
@pytest.mark.parametrize("l_max", range(5))
def test_bimodule_check_past_unflagged_tables_raises(maker, top, l_max):
    # the all-words loop first needs m_{top+1} at a bar word of length top
    def run(check):
        algebra, _, phi = make_case(maker, 0, 1, 3)
        algebra.higher_arities_zero = False
        try:
            return check(at_cutoffs(algebra, l_max=l_max), phi).text()
        except ConfigurationError as exc:
            return ConfigurationError, str(exc)

    got = run(ainfty.check_bimodule_hom)
    assert got == run(check_bimodule_hom_reference)
    assert isinstance(got, tuple) == (l_max >= top)


# Mutants of the two support kernels, one per candidate family, one of the
# un-insertion length bound and one of the extension of failing middles:
# name -> (module, original fragment, mutated fragment, the failing case
# where it matters).
SUPPORT_MUTANTS = {
    "bimodule left family dropped": (
        ainfty, "found.update((lw, v, b) for lw in uninsertions(algebra, a, l_max - len(b)))",
        "pass", "SV1 wrap, left, module"),
    "bimodule right family dropped": (
        ainfty, "found.update((a, v, rw) for rw in uninsertions(algebra, b, l_max - len(a)))",
        "pass", "G1 interior, right"),
    "bimodule module family dropped": (
        ainfty, "found.update((a + u[:j], u[j], u[j + 1 :] + b) for j in range(len(u)))",
        "pass", "SV1 wrap, left, module"),
    "bimodule dual-absorb family dropped": (
        ainfty, "found.update((u[j + 1 :] + a, v, b + u[:j]) for j in range(len(u)))",
        "pass", "E1 dual-absorb"),
    # the length bound of uninsertions, at its finite limits here
    "un-insertion length bound off by one": (
        ainfty, "len(word) - 1 + len(inner) <= max_len", "len(word) - 1 + len(inner) < max_len",
        "G1 interior, right"),
    "extension right words cut short": (
        ainfty, "for nr in range(room - nl + 1):", "for nr in range(room - nl):",
        "G1 interior, right"),
    "validation interior family dropped": (
        hochschild, "if len(w0) - 1 + len(u) <= l_max and unit not in u:", "if False:",
        "G1 interior, right"),
    "validation wrap family dropped": (
        hochschild, "if len(rest) <= l_max and unit not in rest:", "if False:",
        "SV1 wrap, left, module"),
    "validation B-rotation family dropped": (
        hochschild, "if v1 == basis.unit and len(w1) <= l_max + 1:", "if False:",
        "G1 B-rotation"),
    "validation wrap sign flipped": (
        hochschild, "crossing_sign(crossed[-1], crossed[i])",
        "-crossing_sign(crossed[-1], crossed[i])",
        "SV1 wrap, left, module"),
    "validation insertion sign one slot off": (
        hochschild, "insertion_sign(prefixes, q + 1)", "insertion_sign(prefixes, q)",
        "G1 interior, right"),
    "validation rotation sign ignored": (
        hochschild, "value.terms, sign)", "value.terms, 1)", "G1 rotation sign"),
    "validation ring check dropped": (
        hochschild, "require_compatible(spec, psi.spec)", "pass", "G1 interior, right"),
}


@pytest.mark.parametrize("name", sorted(SUPPORT_MUTANTS))
def test_support_mutant_killed(name):
    module, old, new, case = SUPPORT_MUTANTS[name]
    mutant = mutant_module(module, old, new)
    modules = (mutant, hochschild) if module is ainfty else (ainfty, mutant)
    assert not _kernels_agree(*modules, case)


@pytest.mark.parametrize("case", ("G1 rotation sign", "SV1 wrap, left, module"))
def test_crossing_sign_mutant_is_killed_through_the_validation(case, monkeypatch):
    # depth-1 towers on which the signs of B's rotations (``_pull_B_into``)
    # and of the wrap family matter, both read through hochschild's binding
    # of graded.crossing_sign; the towers and the reference run the
    # hochschild operators, so they are built before the mutant is patched in
    algebra, tower, _ = make_case(*FAILING_CASES[case])
    want = _references(case)[0]
    monkeypatch.setattr(hochschild, "crossing_sign", crossing_sign_mutant())
    assert not _same(hochschild.validate_negative_cocycle(at_cutoffs(algebra, l_max=3), tower),
                     want)
