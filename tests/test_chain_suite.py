"""The chain identity suite against per-chain evaluation.

Where the relation table R and the per-slot unit table V are both empty,
``cli.chain_identity_suite`` certifies every chain at once, with no draw;
elsewhere it evaluates the residual maps of every drawn chain.  Its report
must be the report of ``oracles.chain_identity_suite_reference``, which
evaluates every operator and every residual on every drawn chain with the
reference operators, which share no kernel with ``hochschild``.  The
comparison runs on the conftest algebras and on failing variants of them,
all built through the ``AInftyAlgebra`` constructor, so every entry has
the A-infinity degree.  Two facts the residual kernel's proofs use are
properties here: every operator is linear over the coefficient ring (the
linearity paragraph of ``hochschild.identity_residuals``), and the reduced
b is the quotient of the unreduced one.  ``hochschild.identity_residuals``
forms b'^2 and b^2 off R, at the windows of a key and at the cyclic
windows of b, the part of b^2 that the unit put in the word by
(1 - q) b u makes off V, (1 - q) b u being the keys of b u with the unit
in the word, and bB+Bb off U (the wraps of B(c)) and V (the seams); its
three maps
must equal those of ``oracles.identity_residuals_reference``, which forms
every image in full, on drawn chains and on every basis key of three
letters or fewer, also with the basis degrees redrawn.  The reference's
other three maps, B^2, b(1-t)-(1-t)b' and b'N-Nb, which the engine does
not form, must be empty on the same keys and on the corpus documents, and
the operator identities the kernel rests on (b = b' + D, and reduced b
after the unit is put in front) are properties too.  b^2 is also compared
with ``oracles.hochschild_b_reference`` applied twice, the wraps of B(c)
with ``oracles.wraps_reference`` of ``oracles.connes_B_reference``, and
the seams and the V reading of q b((1 - q) b u) with the reference b and
N.  A curved variant with m_1(m_0) != 0 (SV1 + w) reaches the empty window
of b'^2 and the gap after the last letter of b^2, variants with a unit
entry in m_3 reach two-letter segments of the unit residual, E2 with
m2(1,x) negated reaches the unit that m_0 puts in front of a unit module,
X1, whose relation residual at a letter is the unit, fails b'^2 alone on
keys where q drops that residual from b^2, X1 with m2(1,x) = 1 has a seam
that outputs the unit, and C1, whose unit is central but not a unit, has
U = R = {} and V != {}.  The failing variants at arity cutoff 2 show that
the residual tables read no arity cutoff, and on the algebras whose
relations and unit laws hold, E2 included, no map forms a product and the
suite neither draws nor evaluates.  The mutant catalog breaks the early
exit, the per-chain evaluation and each term of the residual kernel one
way each.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import ainfty, cli, hochschild
from ainfty.ainfty import AInftyAlgebra
from ainfty.coeff import RingElement, RingSpec, canonical, mul_into
from ainfty.document import load
from ainfty.errors import ConfigurationError
from ainfty.graded import GradedBasis, add_term, quotient
from ainfty.hochschild import (
    HochschildChain, chain_bar, connes_B_reduced, cyclic_t, hochschild_b, identity_residuals,
    iter_basis_chains, operator_N,
)

from conftest import make_e1, make_e2, make_g1, make_ob1, make_p1, make_q1, make_sv1
from oracles import (
    SCALARS, at_cutoffs, chain_identity_suite_reference, chain_sum, coefficients,
    connes_B_reference, crossing_sign_mutant, hochschild_b_reference, identity_residuals_reference,
    mutant_module, operator_N_reference, quotient_mutant, reduced_mutant, ring_terms, unreduced,
    wraps_reference,
)


def sign_flipped(maker, arity, word, comp):
    """The algebra with the structure constant of m_arity(word) at comp negated."""
    algebra = maker()
    table = algebra.ops[arity, 0][word]
    table[comp] = -table[comp]
    return AInftyAlgebra(algebra.basis, algebra.monoid, algebra.ops, algebra.spec,
                         name=algebra.name)


def with_entry(maker, word, comp, name):
    """The algebra with one more structure constant, m_len(word)(word) = comp,
    at the neutral monoid element."""
    algebra = maker()
    ops = {key: {w: dict(out) for w, out in table.items()} for key, table in algebra.ops.items()}
    ops.setdefault((len(word), 0), {})[word] = {comp: algebra.one_ring()}
    return AInftyAlgebra(algebra.basis, algebra.monoid, ops, algebra.spec, name=name)


def sv1_with_w():
    """SV1 with a degree-3 letter w and m_1(z) = w, unit laws kept: m_1(m_0)
    = T w, so the curved relation fails on the empty word, and b'^2 inserts
    T w at every gap of a word."""
    sv1 = make_sv1()
    one = sv1.one_ring()
    ops = {key: {word: dict(out) for word, out in table.items()}
           for key, table in sv1.ops.items()}
    ops[2, 0].update({(0, 3): {3: one}, (3, 0): {3: -one}})
    ops[1, 0][(2,)] = {3: one}
    basis = GradedBasis(("1", "u", "z", "w"), (0, 1, 2, 3), unit=0)
    return AInftyAlgebra(basis, sv1.monoid, ops, sv1.spec, name="SV1 + w")


def make_x1():
    """A degree-0 letter x and a degree-1 letter y, m_1(x) = y and
    m_1(y) = T e 1, unit laws kept: the relation residual at (x) is
    m_1(m_1(x)) = T e 1, which b^2 writes in the word, where q drops it, at
    every key whose module is not x; b'^2 keeps it."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1", "x", "y"), (0, 0, 1), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
                 (1, 0): {1: one}, (2, 0): {2: -one}},
        (1, 0): {(1,): {2: one}},
        (1, 1): {(2,): {0: one}},
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0), (Fraction(1), 2)), ops, spec,
                         name="X1 m1(m1(x)) = T e 1")


def make_c1():
    """Degree-0 letters 1, x, y with 1 central but not a unit:
    m_2(1, 1) = 1, m_2(1, x) = m_2(x, 1) = y, m_2(1, y) = m_2(y, 1) = y.
    The product is associative, so R = {}, and 1 commutes with every
    letter, so U = {}; but V((1, x)) = V((x, 1)) = y - x, and the seams of
    bB+Bb fail, first at [1|x,x]."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1", "x", "y"), (0, 0, 0), unit=0)
    one = RingElement.one(spec)
    ops = {(2, 0): {(0, 0): {0: one}, (0, 1): {2: one}, (1, 0): {2: one},
                    (0, 2): {2: one}, (2, 0): {2: one}}}
    return AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec, name="C1 central 1")


PASSING = {"E1": make_e1(), "E2": make_e2(), "G1": make_g1(), "Q1": make_q1()}
FAILING = {
    "E1 m2(1,x) negated": sign_flipped(make_e1, 2, (0, 1), 1),
    "E2 m2(x,1) negated": sign_flipped(make_e2, 2, (1, 0), 1),
    "G1 m2(1,z) negated": sign_flipped(make_g1, 2, (0, 3), 3),
    "G1 m2(x,1) negated": sign_flipped(make_g1, 2, (1, 0), 1),
    "Q1 m2(1,u) negated": sign_flipped(make_q1, 2, (0, 1), 1),
    "SV1 + w, m1(z) = w": sv1_with_w(),
    # m_0 outputs the unit, and the left unit law fails on it
    "E2 m2(1,x) negated": sign_flipped(make_e2, 2, (0, 1), 1),
    # a unit entry past m_2: two-letter segments of the unit residual U,
    # and the wrap that crosses the segment in front of the unit
    "G1 m3(x,1,y) = x": with_entry(make_g1, (1, 0, 2), 1, "G1 m3(x,1,y) = x"),
    "G1 m3(z,1,x) = z": with_entry(make_g1, (3, 0, 1), 3, "G1 m3(z,1,x) = z"),
    # a relation residual that is the unit: b'^2 alone fails at [1|x]
    "X1 m1(m1(x)) = T e 1": make_x1(),
    # a unit-law residual at the unit: a seam of bB+Bb outputs the unit,
    # which B must drop
    "X1 m2(1,x) = 1": with_entry(make_x1, (0, 1), 0, "X1 m2(1,x) = 1"),
    # R = U = {} but V != {}: the early exit must read V
    "C1 central 1, m2(1,x) = y": make_c1(),
}
VARIANTS = {**PASSING, **FAILING}


def _lines(suite, name, count, seed, max_len):
    return suite(VARIANTS[name], count, seed, max_len).lines()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variants_pass_or_fail_the_reference_as_built(name):
    # the property below draws from failing inputs as well as passing ones
    report = chain_identity_suite_reference(VARIANTS[name], 12, 1, 4)
    assert report.passed == (name in PASSING)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(VARIANTS)), count=st.integers(1, 12),
       seed=st.integers(0, 10 ** 6), max_len=st.integers(0, 5))
def test_suite_matches_its_reference(name, count, seed, max_len):
    assert (_lines(cli.chain_identity_suite, name, count, seed, max_len)
            == _lines(chain_identity_suite_reference, name, count, seed, max_len))


# Linearity over the ring: the conftest algebras at a cutoff where most
# products with a structure constant of positive energy truncate, and at 3.
RINGED = {(name, cutoff): maker(cutoff)
          for name, maker in (("E1", make_e1), ("E2", make_e2), ("G1", make_g1), ("Q1", make_q1))
          for cutoff in (Fraction(1, 2), Fraction(3))}


@st.composite
def chains(draw):
    """An algebra, and a reduced or unreduced chain of one to four terms."""
    algebra = RINGED[draw(st.sampled_from(sorted(RINGED)))]
    basis = algebra.basis
    reduced = draw(st.booleans())
    letters = basis.reduced_letters() if reduced else list(range(len(basis)))
    key = st.tuples(st.integers(0, len(basis) - 1),
                    st.lists(st.sampled_from(letters), max_size=4).map(tuple))
    terms = draw(st.dictionaries(key, coefficients(algebra.spec, draw(st.sampled_from(SCALARS))),
                                 min_size=1, max_size=4))
    return algebra, HochschildChain(basis, terms, reduced)


def _operators(algebra, reduced):
    basis = algebra.basis
    ops = [lambda c: hochschild_b(algebra, c), lambda c: chain_bar(algebra, c),
           lambda c: cyclic_t(basis, c), lambda c: operator_N(basis, c)]
    return ops + [lambda c: connes_B_reduced(basis, c)] if reduced else ops


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=chains())
def test_operators_are_linear_over_the_ring(case):
    algebra, chain = case
    basis, one = algebra.basis, algebra.one_ring()
    for op in _operators(algebra, chain.reduced):
        total = op(HochschildChain(basis, {}, chain.reduced))  # a drawn chain can cancel
        for module, word in chain.terms:
            image = op(HochschildChain.generator(basis, module, word, one, chain.reduced))
            piece = HochschildChain(basis, {key: chain.coefficient((module, word))
                                            * image.coefficient(key) for key in image.terms},
                                    image.reduced)
            total = chain_sum(total, piece)
        got = op(chain)
        assert got == total and got.text() == total.text(), (chain.text(), got.text())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=chains())
def test_reduced_b_is_the_quotient_of_unreduced_b(case):
    algebra, chain = case
    if not chain.reduced:
        chain = HochschildChain(chain.basis, {key: chain.coefficient(key) for key in chain.terms})
    image = hochschild_b(algebra, unreduced(chain))
    want = HochschildChain(algebra.basis, {key: image.coefficient(key) for key in image.terms},
                           reduced=True)
    got = hochschild_b(algebra, chain)
    assert got == want and got.terms == want.terms


# The residual kernel against the image-by-image reference, and the three
# facts it rests on (see ``hochschild.identity_residuals``).  SV1 joins the
# algebras here: with E2 it is curved, and E2's m_0 outputs the unit, so
# b(u) has keys with the unit in a tensor slot ((1 - q) b u is not empty).
RESIDUAL_ALGEBRAS = {**{(name, None): algebra for name, algebra in VARIANTS.items()},
                     **RINGED, ("SV1", Fraction(1, 2)): make_sv1(Fraction(1, 2)),
                     ("SV1", Fraction(3)): make_sv1()}

# The identities of the suite that the engine does not form: they hold at
# every chain of an algebra that loads.
HELD_BY_CONSTRUCTION = ("B^2", "b(1-t)-(1-t)b'", "b'N-Nb")


def _nonzero(raw: dict) -> dict:
    """A raw map with its zero scalars and emptied keys dropped."""
    return {key: kept for key, terms in raw.items() if (kept := canonical(terms))}


def _draw_chain(draw, algebra, module_letters, word_letters, reduced):
    """A generator with coefficient 1, or a chain of one to four terms."""
    basis = algebra.basis
    key = st.tuples(st.sampled_from(module_letters),
                    st.lists(st.sampled_from(word_letters), max_size=4).map(tuple))
    if draw(st.booleans()):
        one = algebra.one_ring()
        return HochschildChain(basis, {draw(key): one}, reduced)
    terms = draw(st.dictionaries(key, coefficients(algebra.spec, draw(st.sampled_from(SCALARS))),
                                 min_size=1, max_size=4))
    return HochschildChain(basis, terms, reduced)


@st.composite
def residual_cases(draw):
    """An algebra, and a reduced generator or chain of one to four terms."""
    algebra = RESIDUAL_ALGEBRAS[draw(st.sampled_from(sorted(RESIDUAL_ALGEBRAS, key=str)))]
    basis = algebra.basis
    return algebra, _draw_chain(draw, algebra, range(len(basis)), basis.reduced_letters(), True)


def _residual_mismatch(algebra, u):
    """The first tag at which ``identity_residuals`` at u differs from the
    reference, or None; the tags it does not form must be empty there."""
    got = identity_residuals(algebra, u)
    want = dict(identity_residuals_reference(algebra, u))
    assert [tag for tag, _ in got] == [tag for tag in want if tag not in HELD_BY_CONSTRUCTION]
    for tag, raw in got:
        if _nonzero(raw) != _nonzero(want[tag]):
            return tag
    return None


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=residual_cases())
def test_identity_residuals_match_their_reference(case):
    algebra, chain = case
    assert _residual_mismatch(algebra, chain.terms) is None, chain.text()


# Every basis key with coefficient 1, on every residual algebra and on OB1
# (curved, with no differential to absorb m_0), against the reference that
# forms every image.
BASIS_KEY_ALGEBRAS = {**{name if cutoff is None else "%s at E %s" % (name, cutoff): algebra
                         for (name, cutoff), algebra in RESIDUAL_ALGEBRAS.items()},
                      "OB1": make_ob1()}


def _first_residual_mismatch(algebra):
    """The first (tag, basis key) of three letters or fewer at which a
    residual map differs from the reference, or None."""
    one = algebra.one_ring().terms
    for key in iter_basis_chains(algebra, 3):
        tag = _residual_mismatch(algebra, {key: one})
        if tag is not None:
            return tag, key
    return None


@pytest.mark.parametrize("name", sorted(BASIS_KEY_ALGEBRAS))
def test_identity_residuals_match_their_reference_on_every_basis_key(name):
    assert _first_residual_mismatch(BASIS_KEY_ALGEBRAS[name]) is None


CORPUS_ALGEBRAS = [load(os.path.join(os.path.dirname(ainfty.__file__), "corpus", name + ".json"))
                   .algebra for name in ("e1", "e2", "g1_gauge", "g1_wallcross", "sv1")]
HELD_ALGEBRAS = {**BASIS_KEY_ALGEBRAS,
                 **{"corpus " + algebra.name: algebra for algebra in CORPUS_ALGEBRAS}}


@pytest.mark.parametrize("name", sorted(HELD_ALGEBRAS))
def test_identities_held_by_construction_have_empty_reference_maps(name):
    # B^2, b(1-t)-(1-t)b' and b'N-Nb formed image by image: the engine
    # relies on their being zero at every key of an algebra that loads
    algebra = HELD_ALGEBRAS[name]
    one = algebra.one_ring().terms
    for key in iter_basis_chains(algebra, 3):
        want = dict(identity_residuals_reference(algebra, {key: one}))
        assert not any(_nonzero(want[tag]) for tag in HELD_BY_CONSTRUCTION), key


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BASIS_KEY_ALGEBRAS)), data=st.data())
def test_identity_residuals_match_their_reference_at_redrawn_degrees(name, data):
    # the algebra's tables on a basis with redrawn degrees, through the
    # constructor: a draw that puts an entry off the A-infinity degree is
    # refused, and any other is compared with the reference
    algebra = BASIS_KEY_ALGEBRAS[name]
    basis = algebra.basis
    degrees = [0 if letter == basis.unit
               else data.draw(st.one_of(st.just(degree), st.integers(-2, 3)))
               for letter, degree in enumerate(basis.degrees)]
    try:
        redrawn = AInftyAlgebra(GradedBasis(basis.names, degrees, unit=basis.unit),
                                algebra.monoid, algebra.ops, algebra.spec, name=algebra.name)
    except ConfigurationError as exc:
        assert "not degree-homogeneous" in str(exc)
        return
    assert _first_residual_mismatch(redrawn) is None


def _build_residual_tables(module, algebra):
    """Build the algebra's operation index and its two residual tables
    with the functions of ``module``."""
    module.relation_residuals(algebra)
    module.unit_residuals(algebra)


def _residuals_disagree_past_the_arity_cutoff(module) -> bool:
    """Does a residual map, with the relation table that ``module`` builds,
    differ from the reference on some basis key of three letters or fewer
    of a failing variant at arity cutoff 2?  The keys have windows of up to
    four letters: the chain identities read no arity cutoff, so neither may
    the table."""
    for variant in FAILING.values():
        algebra = at_cutoffs(variant, k_max=2)
        _build_residual_tables(module, algebra)
        if _first_residual_mismatch(algebra) is not None:
            return True
    return False


def test_identity_residuals_read_no_arity_cutoff():
    assert not _residuals_disagree_past_the_arity_cutoff(ainfty)


def test_bar_square_forms_no_product_where_the_relations_hold(monkeypatch):
    # on a table whose relations hold, b'^2 is read off an empty table
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    monkeypatch.setattr(hochschild, "mul_into", counted)
    makers = (make_e1, make_e2, make_g1, make_p1, make_q1, make_sv1, make_ob1)
    for algebra in [maker() for maker in makers] + CORPUS_ALGEBRAS:
        assert ainfty.relation_residuals(algebra) == {}
        one = algebra.one_ring().terms
        top = algebra.spec.level_cutoff
        for key in iter_basis_chains(algebra, 3):
            assert hochschild._bar_square_into({}, algebra, {key: one}, top) == {}
    assert not calls


def _chains_of_basis_keys(algebra, l_max):
    """(key, reduced chain of the key with coefficient 1) for every basis
    key of at most l_max letters."""
    one = algebra.one_ring()
    for key in iter_basis_chains(algebra, l_max):
        yield key, HochschildChain.generator(algebra.basis, *key, one)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_b_square_is_the_reference_b_applied_twice(name):
    # b_red b_red c against oracles.hochschild_b_reference, which forms every
    # term of b from m_word and its own signs, with no engine core
    algebra = VARIANTS[name]
    for key, chain in _chains_of_basis_keys(algebra, 3):
        got = dict(identity_residuals(algebra, chain.terms))["b^2"]
        want = hochschild_b_reference(algebra, hochschild_b_reference(algebra, chain))
        assert _nonzero(got) == want.terms, key


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_unit_wraps_are_the_wraps_of_B(name):
    # W(B c) from the unit residuals against every wrap-around of the
    # reference B c, tail blocks of every length
    algebra = VARIANTS[name]
    top = algebra.spec.level_cutoff
    for key, chain in _chains_of_basis_keys(algebra, 3):
        front = {k: terms for k, terms in chain.terms.items() if k[0] != algebra.basis.unit}
        got = hochschild._unit_wraps_into({}, algebra, front, top, ainfty.unit_residuals(algebra))
        want = wraps_reference(algebra, connes_B_reference(algebra.basis, chain))
        assert _nonzero(got) == want.terms, key


def test_unit_residuals_of_a_unit_entry_in_m3():
    # U((x, y)) = m_3(x, 1, y) with sign (-1)^{|x|'} = +1; U((z, x)) =
    # (-1)^{|z|'} m_3(z, 1, x) = -z
    assert ainfty.unit_residuals(VARIANTS["G1 m3(x,1,y) = x"]) == {
        2: {(1, 2): {1: make_g1().one_ring()}}}
    assert ainfty.unit_residuals(VARIANTS["G1 m3(z,1,x) = z"]) == {
        2: {(3, 1): {3: -make_g1().one_ring()}}}


def test_unit_slot_residuals_of_a_central_non_unit():
    # V((1, x)) = m_2(1, x) - x = y - x, V((x, 1)) = y - (-1)^{|x|} x; their
    # signed sum U((x,)) = V((1, x)) + (-1)^{|x|'} V((x, 1)) is zero
    c1 = VARIANTS["C1 central 1, m2(1,x) = y"]
    one = c1.one_ring()
    assert ainfty.unit_slot_residuals(c1) == {2: {(0, 1): {2: one, 1: -one},
                                                  (1, 0): {2: one, 1: -one}}}
    assert ainfty.unit_residuals(c1) == {}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_unit_seams_are_q_s1_N_of_b_on_unit_modules(name):
    # the seam fact: q s_1 N(b u'') for a key of u'' against the seams read
    # off V, with b and N formed by the reference operators
    algebra = VARIANTS[name]
    basis = algebra.basis
    top = algebra.spec.level_cutoff
    for key, chain in _chains_of_basis_keys(algebra, 3):
        if key[0] != basis.unit:
            continue
        seams = hochschild._unit_wraps_into({}, algebra, chain.terms, top,
                                            ainfty.unit_slot_residuals(algebra))
        got = hochschild._B_into({}, basis, seams)
        want = _s1(basis, operator_N_reference(basis, hochschild_b_reference(
            algebra, unreduced(chain))))
        assert _nonzero(got) == want.terms, key


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_q_b_of_unit_outputs_reads_V(name):
    # (1 - q) b u as the keys of b u with the unit in the word, and
    # q b((1 - q) b u) against the quotient of the windows of V on it, with
    # b formed by the reference operator
    algebra = VARIANTS[name]
    basis = algebra.basis
    top = algebra.spec.level_cutoff
    slots = ainfty.unit_slot_residuals(algebra)
    for key, chain in _chains_of_basis_keys(algebra, 3):
        outputs = {k: terms for k, terms in hochschild._b_into({}, algebra, chain.terms, top)
                   .items() if basis.unit in k[1]}
        b_u = hochschild_b_reference(algebra, unreduced(chain)).terms
        assert _nonzero(outputs) == {k: terms for k, terms in b_u.items()
                                     if basis.unit in k[1]}, key
        got = quotient(hochschild._windows_into({}, algebra, outputs, top, slots, False),
                       basis.unit)
        y = HochschildChain._clean(basis, algebra.spec, _nonzero(outputs), False)
        want = HochschildChain(basis, ring_terms(hochschild_b_reference(algebra, y)))
        assert _nonzero(got) == want.terms, key


def test_b_square_and_unit_wraps_form_no_product_where_the_laws_hold(monkeypatch):
    # on a table whose relations and unit laws hold, R, U and V are empty,
    # and no map forms a product: not even E2's (1 - q) b u, whose part of
    # b^2 is read off V
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    monkeypatch.setattr(hochschild, "mul_into", counted)
    for algebra in [maker() for maker in (make_e1, make_e2, make_g1, make_q1)] + CORPUS_ALGEBRAS:
        assert ainfty.relation_residuals(algebra) == {}
        assert ainfty.unit_residuals(algebra) == {}
        assert ainfty.unit_slot_residuals(algebra) == {}
        one = algebra.one_ring().terms
        for key in iter_basis_chains(algebra, 3):
            assert not any(_nonzero(raw) for _, raw in identity_residuals(algebra, {key: one}))
    assert not calls


@pytest.mark.parametrize("seed", (20240601, 7, 424242))
def test_suite_on_the_corpus_forms_no_product_and_draws_nothing(monkeypatch, seed):
    # R = V = {} on every corpus document, so the suite certifies every
    # chain at once: no draw, no residual map, no product
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    monkeypatch.setattr(hochschild, "mul_into", counted("mul_into", mul_into))
    monkeypatch.setattr(cli, "_random_reduced_chain",
                        counted("draw", cli._random_reduced_chain))
    monkeypatch.setattr(hochschild, "identity_residuals",
                        counted("identity_residuals", identity_residuals))
    for algebra in CORPUS_ALGEBRAS + [at_cutoffs(CORPUS_ALGEBRAS[2], k_max=8)]:
        assert cli.chain_identity_suite(algebra, 200, seed).lines() == [
            "[chain-identities] PASS", "  E_max = 3", "  chains = 200", "  max_length = 5",
            "  seed = %d" % seed, "  checked = 1200"]
    assert calls == []


def test_suite_on_a_basis_of_the_unit_alone():
    # no reduced letter, so every drawn word is empty; with m_2(1, 1) = 1
    # the suite certifies at once, and with m_2(1, 1) = 2, V((1, 1)) = 1,
    # so it draws and evaluates: every identity holds at the one basis
    # chain [1|], and strict-unit is what fails (test_document_cli)
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(3))
    basis = GradedBasis(("1",), (0,), unit=0)
    for c, slots in ((1, {}), (2, {2: {(0, 0): {0: RingElement.one(spec)}}})):
        ops = {(2, 0): {(0, 0): {0: RingElement.monomial(spec, c)}}}
        algebra = AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec, name="unit only")
        assert ainfty.unit_slot_residuals(algebra) == slots
        assert ainfty.relation_residuals(algebra) == ainfty.unit_residuals(algebra) == {}
        report = cli.chain_identity_suite(algebra, 20, 3)
        assert report.passed and report.checked == 120
        assert report.lines() == chain_identity_suite_reference(algebra, 20, 3).lines()


def _operator_algebras():
    return st.sampled_from(sorted(RESIDUAL_ALGEBRAS, key=str)).map(RESIDUAL_ALGEBRAS.get)


def _slot_zero_reference(algebra, chain):
    """b''s insertions at slot 0 of each marked word f, m_0 in front
    included: m_a(f[:a]) as the new module slot, with sign +1."""
    out = {}
    for (v, word), coeff in ring_terms(chain).items():
        full = (v,) + word
        for a in range(len(full) + 1):
            for comp, value in algebra.m_word(full[:a]).items():
                add_term(out, (comp, full[a:]), coeff * value)
    return HochschildChain(algebra.basis, out, False)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), algebra=_operator_algebras())
def test_b_is_bar_plus_D_on_unreduced_chains(data, algebra):
    # D(x) = b(x) - b'(x): the wraps with a tail block of at least one
    # letter, minus m_0 in front of the module slot, which is every wrap
    # (``oracles.wraps_reference``) less b''s insertions at slot 0; unit
    # letters anywhere
    letters = range(len(algebra.basis))
    x = _draw_chain(data.draw, algebra, letters, letters, False)
    D = chain_sum(wraps_reference(algebra, x), _slot_zero_reference(algebra, x), -1)
    assert chain_sum(hochschild_b(algebra, x), chain_bar(algebra, x), -1) == D, x.text()


def _s1(basis, chain, sign=1):
    """sign * q s_1 chain: the unit put in front, keys holding the unit dropped."""
    unit = basis.unit
    return HochschildChain(basis, {(unit, (v,) + word): chain.coefficient((v, word)).scale(sign)
                                   for v, word in chain.terms
                                   if unit != v and unit not in word}, reduced=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), algebra=_operator_algebras())
def test_reduced_b_after_s1_is_wraps_plus_shifted_bar(data, algebra):
    # b_red(s_1 y) = W(s_1 y) + (-1)^{|1|'} q s_1 b'(y) for y with no unit
    # in any slot; B(y) = q s_1 N(y) on such y as well
    basis = algebra.basis
    letters = basis.reduced_letters()
    y = _draw_chain(data.draw, algebra, letters, letters, False)
    s1y = _s1(basis, y)
    wraps = wraps_reference(algebra, s1y)
    eps = -1 if (basis.degree(basis.unit) - 1) % 2 else 1
    assert hochschild_b(algebra, s1y) == chain_sum(wraps, _s1(basis, chain_bar(algebra, y), eps))
    reduced_y = HochschildChain(basis, {key: y.coefficient(key) for key in y.terms})
    assert connes_B_reduced(basis, reduced_y) == _s1(basis, operator_N(basis, y))


def test_E2_puts_the_unit_in_a_tensor_slot_of_bar_u():
    # the case the b^2 term - q b((1 - q) b u) exists for: m_0 = T e 1
    # inserted in the word
    e2 = make_e2()
    one = e2.one_ring()
    keys = [(v, word) for v in range(2) for word in ((), (1,), (1, 1))]
    assert any(e2.basis.unit in key[1]
               for v, word in keys
               for key in chain_bar(e2, HochschildChain.generator(e2.basis, v, word, one,
                                                                  False)).terms)


# Seeded draws on every variant; the reference lines are computed once.
MUTANT_CASES = [(name, 30, seed, 4) for name in sorted(VARIANTS) for seed in (1, 2)]
_REFERENCE_LINES = {}


def _suite_disagrees(suite) -> bool:
    """Does this suite's report differ from the reference's on some case?"""
    for case in MUTANT_CASES:
        if case not in _REFERENCE_LINES:
            _REFERENCE_LINES[case] = _lines(chain_identity_suite_reference, *case)
        try:
            lines = _lines(suite, *case)
        except Exception:
            return True
        if lines != _REFERENCE_LINES[case]:
            return True
    return False


# name -> (module, original fragment, mutated fragment).  A hochschild
# mutant reaches the suite through the cli module's binding of it, and an
# ainfty mutant through the operation index it builds for every variant.
CHAIN_SUITE_MUTANTS = {
    "quotient keeps unit words": (hochschild, '("b^2", quotient(square, unit))', '("b^2", square)'),
    # b is b' + D term by term, one term per cyclic window: D's -m_0 in
    # front cancels b''s, the wraps through the module slot include slot 0
    # (the empty tail block) and pay the rotation sign, and a window in the
    # word pays the sign of the letters in front of it
    "D without its m0-in-front term": (
        hochschild, "for q in range(1, n - length + 1):",
        "for q in range(length > 0, n - length + 1):"),
    "tail start 0 in D": (
        hochschild, "range(n - length + 1, n + 1)", "range(n - length + 1, n)"),
    "D ignores its sign": (
        hochschild, "turn = crossing_sign(prefixes[n], prefixes[c])", "turn = 1"),
    "b in-word sign dropped": (hochschild, "insertion_sign(prefixes, q)", "1"),
    # the seams of bB+Bb, B of the windows of V through a unit module, are
    # the one path of the suite that runs B: the sign of the term in bB+Bb,
    # the rotation signs B gives it, and B's drop of a seam that outputs
    # the unit (X1 m2(1,x) = 1)
    "+q s_1 R in bB+Bb": (
        hochschild, "(unit, rotated), {}), terms, sign)", "(unit, rotated), {}), terms, -sign)"),
    "seam term drops its sign": (
        hochschild, "(unit, rotated), {}), terms, sign)", "(unit, rotated), {}), terms, 1)"),
    "bB remap keeps unit words": (
        hochschild, "if v == unit:\n            continue", "if False:\n            continue"),
    # b^2 from the cyclic windows of R: D's part of b^2 is the windows
    # through the module slot
    "b^2 without b_red(q D u)": (
        hochschild, "for c in range(n - length + 1, n + 1):", "for c in ():"),
    "b^2 skips the gap after the last letter": (
        hochschild, "for q in range(1, n - length + 1):",
        "for q in range(1, n - length + (length > 0)):"),
    # killed through E2 m2(x,1) negated, whose m_0 puts the unit in the word
    "(1-q) b u keeps every key of b": (hochschild, "if key not in kept}", "}"),
    "(1-q) b u keeps the unit-free keys": (hochschild, "if key not in kept}", "if key in kept}"),
    "-q b((1-q) b u) dropped": (
        hochschild, "        add_into(square.setdefault(key, {}), terms, -1)\n",
        "        pass\n"),
    "-q b((1-q) b u) reads b' for b": (
        hochschild, "_windows_into({}, algebra, unit_outputs, top, slots, False)",
        "_bar_into({}, algebra, unit_outputs, top)"),
    # W(B c) from the unit residual table; the G1 m_3 variants reach its
    # two-letter segments
    "U's prefix sign dropped": (
        ainfty, "add_term(residual, comp, -value if odd else value)", "add_term(residual, comp, value)"),
    "unit wraps drop the rotation sign": (
        hochschild, "terms, value.terms, top, rho)", "terms, value.terms, top)"),
    "unit segments shorter than the word": (
        hochschild, "in table.items():\n            if length > n:",
        "in table.items():\n            if length >= n:"),
    # b'^2 from the relation table: the n = 0 mutant is killed through
    # SV1 + w, whose m_1(m_0) is not zero, and the capped table only at an
    # arity cutoff below the windows (see KILLED_PAST_THE_ARITY_CUTOFF)
    "b'^2 skips the n = 0 windows": (
        hochschild, "for q in range(len(f) - n + 1):", "for q in range(len(f) - n + 1 if n else 0):"),
    "relation table capped at k_max": (
        ainfty, "uninsertions(algebra, outer, inf)", "uninsertions(algebra, outer, algebra.k_max)"),
    # the early exit, which certifies every chain where R = V = {} (C1 has
    # U = {} and V != {}, and SV1 + w and X1 have V = {} and R != {}), and
    # the per-chain evaluation everywhere else
    "early exit reads U for V": (
        cli, "not core.unit_slot_residuals(algebra)", "not core.unit_residuals(algebra)"),
    "early exit ignores R": (cli, "not core.relation_residuals(algebra) and not", "not"),
    "uncertified chain passes without the fallback": (
        cli, "for tag, raw in hh.identity_residuals(algebra, c):", "for tag, raw in ():"),
}


# The suite runs every variant at its own arity cutoff, 6, past the
# five-letter windows of its chains, so a relation table capped at the
# cutoff reads as the full one there; these mutants are killed instead by
# the residual maps at arity cutoff 2.
KILLED_PAST_THE_ARITY_CUTOFF = {"relation table capped at k_max"}


def test_suite_detector_accepts_the_suite():
    assert not _suite_disagrees(cli.chain_identity_suite)


@pytest.mark.parametrize("name", sorted(CHAIN_SUITE_MUTANTS))
def test_chain_suite_mutant_killed(name, monkeypatch):
    module, old, new = CHAIN_SUITE_MUTANTS[name]
    mutant = mutant_module(module, old, new)
    if name in KILLED_PAST_THE_ARITY_CUTOFF:
        assert _residuals_disagree_past_the_arity_cutoff(mutant)
        return
    if module is hochschild:
        monkeypatch.setattr(cli, "hh", mutant)
        mutant = cli
    elif module is ainfty:
        for algebra in VARIANTS.values():
            # the index and its residual tables, all built by the mutant
            built = at_cutoffs(algebra)
            _build_residual_tables(mutant, built)
            monkeypatch.setattr(algebra, "_index", built._index)
        mutant = cli
    assert _suite_disagrees(mutant.chain_identity_suite)


def test_crossing_sign_mutant_is_killed_through_b_square_and_bB(monkeypatch):
    # HOCHSCHILD_MUTANTS mutates the one home of the rotation sign,
    # graded.crossing_sign; b^2 reads it at the windows through the module
    # slot, and bB+Bb in the unit wraps, the seams and B, and both maps must
    # see the mutant.  The reference runs no hochschild code, so it would
    # not see the mutant either way.
    cases = [(algebra, {key: algebra.one_ring().terms})
             for _, algebra in sorted(BASIS_KEY_ALGEBRAS.items())
             for key in iter_basis_chains(algebra, 2)]
    wants = [dict(identity_residuals_reference(algebra, u)) for algebra, u in cases]
    monkeypatch.setattr(hochschild, "crossing_sign", crossing_sign_mutant())
    missed = {"b^2", "bB+Bb"}
    for (algebra, u), want in zip(cases, wants):
        got = dict(hochschild.identity_residuals(algebra, u))
        missed -= {tag for tag in missed if _nonzero(got[tag]) != _nonzero(want[tag])}
    assert not missed


def test_crossing_sign_mutant_is_killed_through_the_suite(monkeypatch):
    # the suite reads the crossing sign through hochschild's binding alone,
    # and the reference lines read none of hochschild's code
    assert not _suite_disagrees(cli.chain_identity_suite)
    monkeypatch.setattr(hochschild, "crossing_sign", crossing_sign_mutant())
    assert _suite_disagrees(cli.chain_identity_suite)


def test_quotient_mutant_is_killed_through_the_suite(monkeypatch):
    # the b^2 map and (1 - q) b u of the suite read hochschild's binding of
    # graded.quotient; the reference lines, cached before the patch, drop
    # unit words themselves, so they come out the same under it
    assert not _suite_disagrees(cli.chain_identity_suite)
    monkeypatch.setattr(hochschild, "quotient", quotient_mutant())
    assert _suite_disagrees(cli.chain_identity_suite)
    case = MUTANT_CASES[0]
    assert _lines(chain_identity_suite_reference, *case) == _REFERENCE_LINES[case]


def test_reduced_mutant_is_killed_through_the_suite(monkeypatch):
    # the unit tables of every variant select the stored words that hold
    # the unit through ainfty's binding of graded.reduced; each variant
    # builds its index afresh under the mutant
    assert not _suite_disagrees(cli.chain_identity_suite)
    monkeypatch.setattr(ainfty, "reduced", reduced_mutant())
    for algebra in VARIANTS.values():
        monkeypatch.setattr(algebra, "_index", None)
    assert _suite_disagrees(cli.chain_identity_suite)
