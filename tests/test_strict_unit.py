"""The strict-unit check against its all-words reference.

``ainfty.check_strict_unit`` reads its failure lines off the per-slot unit
table V; ``oracles.check_strict_unit_reference`` calls ``m_word`` on every
word with the unit in a slot.  They must print the same lines, or raise the
same error, on every corpus document, every chain-suite variant and every
ringed algebra at each arity cutoff up to two past the stored tables, and
on seeded random tables whose arity-1, 3 and 4 entries hold the unit in
one or two slots, with higher arities marked zero and not.
"""

import os
import random
from fractions import Fraction

import pytest

import ainfty as package
from ainfty import ainfty
from ainfty.coeff import RingSpec
from ainfty.document import load
from ainfty.errors import ConfigurationError
from ainfty.graded import GradedBasis

from conftest import make_e1, make_e2, make_g1, make_q1, make_sv1
from oracles import at_cutoffs, check_strict_unit_reference, mutant_module, reduced_mutant
from test_chain_suite import RINGED, VARIANTS

CORPUS = os.path.join(os.path.dirname(package.__file__), "corpus")
CORPUS_DOCS = ("e1", "e2", "g1_gauge", "g1_wallcross", "sv1")


def _no_tables():
    """The basis 1, x with no operation table at all: every m_2 law fails,
    and where higher arities are not marked zero, the m_2 laws are past
    the stored tables."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1", "x"), (0, 1), unit=0)
    return ainfty.AInftyAlgebra(basis, ((Fraction(0), 0),), {}, spec, name="no tables")


def _random_table(rng):
    """E2, G1, Q1 or SV1 with one to four entries of arity 1, 3 or 4 that
    hold the unit in one slot or two, and sometimes one m_2 unit law
    rescaled, (1, 1) included.  Each output letter has the A-infinity
    degree, so the table loads."""
    algebra = rng.choice((make_e2, make_g1, make_q1, make_sv1))()
    basis, unit, one = algebra.basis, algebra.basis.unit, algebra.one_ring()
    ops = {key: {word: dict(out) for word, out in table.items()}
           for key, table in algebra.ops.items()}
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((1, 3, 4))
        word = [rng.randrange(len(basis)) for _ in range(k)]
        for slot in rng.sample(range(k), rng.randint(1, min(2, k))):
            word[slot] = unit
        bidx = rng.randrange(len(algebra.monoid))
        degree = (sum(basis.degree(i) for i in word) + 2 - k
                  - algebra.monoid[bidx].mu)
        outputs = [c for c in range(len(basis)) if basis.degree(c) == degree]
        if outputs:
            ops.setdefault((k, bidx), {})[tuple(word)] = {
                rng.choice(outputs): one.scale(rng.choice((1, -1, 2)))}
    if rng.random() < 0.5:
        laws = sorted(word for word in ops[2, 0] if unit in word)
        word = rng.choice(laws)
        ops[2, 0][word] = {c: v.scale(rng.choice((-1, 2, 0)))
                           for c, v in ops[2, 0][word].items()}
    return ainfty.AInftyAlgebra(basis, algebra.monoid, ops, algebra.spec,
                                name=algebra.name + " + unit entries")


RANDOM_TABLES = [_random_table(random.Random(seed)) for seed in range(120)]


def _cases():
    """(name, algebra) for every base algebra of the agreement test."""
    for name in CORPUS_DOCS:
        yield name, load(os.path.join(CORPUS, name + ".json")).algebra
    yield from sorted(VARIANTS.items())
    for (name, cutoff), algebra in sorted(RINGED.items()):
        yield "%s at E %s" % (name, cutoff), algebra
    yield "no tables", _no_tables()
    for seed, algebra in enumerate(RANDOM_TABLES):
        yield "random %d" % seed, algebra


def _at(module, algebra, k_max, flagged):
    """The algebra rebuilt by ``module``, at arity cutoff k_max, with higher
    arities marked zero or not.  It is built flagged, which the constructor
    always accepts, and then set, so an unflagged copy may sit below k_max."""
    copy = module.AInftyAlgebra(algebra.basis, algebra.monoid, algebra.ops, algebra.spec,
                                higher_arities_zero=True, name=algebra.name)
    copy.higher_arities_zero = flagged
    return at_cutoffs(copy, k_max=k_max)


def _outcome(check, algebra):
    try:
        return check(algebra).lines()
    except ConfigurationError as exc:
        return ConfigurationError, str(exc)


def _disagreements(module, cases):
    """The (case, k_max, flag) at which ``module.check_strict_unit`` and the
    reference differ, over k_max = 0..top + 2 and both flags."""
    out = []
    for name, algebra in cases:
        top = algebra.max_stored_arity()
        for flagged in (True, False):
            for k_max in range(top + 3):
                got = _outcome(module.check_strict_unit, _at(module, algebra, k_max, flagged))
                want = _outcome(check_strict_unit_reference, _at(module, algebra, k_max, flagged))
                if got != want:
                    out.append((name, k_max, flagged))
    return out


def test_strict_unit_matches_the_reference(monkeypatch):
    def no_call(*args):
        raise AssertionError("check_strict_unit enumerated a word")

    cases = list(_cases())
    engine = ainfty.check_strict_unit

    def spied(algebra):
        with monkeypatch.context() as patch:
            patch.setattr(ainfty.AInftyAlgebra, "m_word", no_call)
            patch.setattr(ainfty, "words_over", no_call)
            return engine(algebra)

    monkeypatch.setattr(ainfty, "check_strict_unit", spied)
    assert _disagreements(ainfty, cases) == []
    assert len(cases) == 5 + len(VARIANTS) + len(RINGED) + 1 + len(RANDOM_TABLES)


def test_the_random_tables_reach_every_branch():
    # the draw must hold what the agreement test means to cover: words with
    # the unit in two slots, a failure at the third slot, a failing (1, 1)
    lines, twice = [], 0
    for algebra in RANDOM_TABLES:
        unit = algebra.basis.unit
        twice += any(word.count(unit) == 2 for table in algebra.ops.values() for word in table)
        top = algebra.max_stored_arity()
        lines += ainfty.check_strict_unit(at_cutoffs(algebra, k_max=top)).failures
    assert twice > 10
    assert any(" nonzero with the unit in slot 2" in line for line in lines)
    assert "m2(1,1) != (-1)^{|1|} 1" in lines


# Mutants of the reader and of the table it reads: (original fragment,
# mutated fragment) in ``ainfty``.
STRICT_UNIT_MUTANTS = {
    "reads U for V": ("slots = unit_slot_residuals(algebra)",
                      "slots = unit_residuals(algebra)"),
    "drops the right law's sign": ("one if degrees[x] % 2 else -one", "-one"),
    "prints (1,1) only once": ("if (x, unit) in laws:", "if x != unit and (x, unit) in laws:"),
    "visits only slot 0": ("for slot in range(k):", "for slot in range(1):"),
    "counts with word_count": ("marked_word_count(len(basis), reach - 1)",
                               "word_count(len(basis), reach - 1)"),
    "drops the unflagged guard": ("algebra._check_arity(max(2, min(k_max, top + 1)))", "pass"),
}

# The agreement test's cases without the random tables, and the first 20 of
# those: every mutant is killed on these, a subset of the agreement test's.
MUTANT_CASES = [case for case in _cases() if not case[0].startswith("random ")] \
    + [("random %d" % seed, RANDOM_TABLES[seed]) for seed in range(20)]


@pytest.mark.parametrize("name", sorted(STRICT_UNIT_MUTANTS))
def test_strict_unit_mutant_killed(name):
    old, new = STRICT_UNIT_MUTANTS[name]
    assert _disagreements(mutant_module(ainfty, old, new), MUTANT_CASES)


def test_reduced_mutant_is_killed_through_the_unit_tables(monkeypatch):
    # _unit_tables selects the stored words that hold the unit through
    # ainfty's binding of graded.reduced; the copies build their index, and
    # so V, under the mutant, and the reference reads no unit table
    algebras = [maker() for maker in (make_e1, make_g1)]
    wants = [check_strict_unit_reference(algebra).text() for algebra in algebras]
    assert [ainfty.check_strict_unit(at_cutoffs(a)).text() for a in algebras] == wants
    monkeypatch.setattr(ainfty, "reduced", reduced_mutant())
    assert all(ainfty.check_strict_unit(at_cutoffs(algebra)).text() != want
               for algebra, want in zip(algebras, wants))
