"""The chain identity suite: per-key certificates against per-chain evaluation.

``cli.chain_identity_suite`` checks each distinct basis key of its drawn
chains once and passes a chain whose keys all pass; only the other chains
are evaluated whole.  Its report must be the report of
``oracles.chain_identity_suite_reference``, which evaluates every operator
and every residual on every drawn chain.  The comparison runs on the
conftest algebras and on sign-flipped copies of them (one structure
constant negated: b^2, b'^2 and bB+Bb fail), all built through the
``AInftyAlgebra`` constructor, so every entry has the A-infinity degree.
The certificate argument rests on every operator being linear over the
coefficient ring and on the reduced b being the quotient of the unreduced
one; both are properties here.  ``hochschild.identity_residuals`` forms
b'^2 and b^2 off the curved relation residual table, at the windows of a
key and at the cyclic windows of b, and the wraps of bB+Bb off the
strict-unit residual table; its three maps must equal those of
``oracles.identity_residuals_reference``, which forms every image in full,
on drawn chains and on every basis key of three letters or fewer, also
with the basis degrees redrawn.  The reference's other three maps, B^2,
b(1-t)-(1-t)b' and b'N-Nb, which the engine does not form, must be empty
on the same keys and on the corpus documents, and the operator identities
the kernel rests on (b = b' + D, and reduced b after the unit is put in
front) are properties too.  b^2 is also compared with
``oracles.hochschild_b_reference`` applied twice, and the wraps of B(c)
with ``oracles.wraps_reference`` of ``oracles.connes_B_reference``, which
run no engine core.  A curved variant with m_1(m_0) != 0 (SV1 + w)
reaches the empty window of b'^2 and the gap after the last letter of
b^2, variants with a unit entry in m_3 reach two-letter segments of the
unit residual, E2 with m2(1,x) negated reaches the unit that m_0 puts in
front of a unit module, and X1, whose relation residual at a letter is the
unit, fails b'^2 alone on keys where q drops that residual from b^2; the
failing variants at arity cutoff 2 show that the residual tables read no
arity cutoff, and on the algebras whose relations and unit laws hold b'^2,
b^2 and the wraps of B(c) form no product (but E2's (1 - q) b u).  The
mutant catalog breaks the certificate and each term of the residual kernel
one way each.
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
from ainfty.graded import GradedBasis, add_term
from ainfty.hochschild import (
    HochschildChain, chain_bar, connes_B_reduced, cyclic_t, hochschild_b, identity_residuals,
    iter_basis_chains, operator_N,
)

from conftest import make_e1, make_e2, make_g1, make_ob1, make_p1, make_q1, make_sv1
from oracles import (
    SCALARS, at_cutoffs, chain_identity_suite_reference, chain_sum, coefficients,
    connes_B_reference, crossing_sign_mutant, hochschild_b_reference, identity_residuals_reference,
    mutant_module, ring_terms, wraps_reference,
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
    unreduced = hochschild_b(algebra, chain.unreduced())
    quotient = HochschildChain(algebra.basis, {key: unreduced.coefficient(key)
                                               for key in unreduced.terms}, reduced=True)
    got = hochschild_b(algebra, chain)
    assert got == quotient and got.terms == quotient.terms


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
        got = hochschild._unit_wraps_into({}, algebra, front, top)
        want = wraps_reference(algebra, connes_B_reference(algebra.basis, chain))
        assert _nonzero(got) == want.terms, key


def test_unit_residuals_of_a_unit_entry_in_m3():
    # U((x, y)) = m_3(x, 1, y) with sign (-1)^{|x|'} = +1; U((z, x)) =
    # (-1)^{|z|'} m_3(z, 1, x) = -z
    assert ainfty.unit_residuals(VARIANTS["G1 m3(x,1,y) = x"]) == {
        2: {(1, 2): {1: make_g1().one_ring()}}}
    assert ainfty.unit_residuals(VARIANTS["G1 m3(z,1,x) = z"]) == {
        2: {(3, 1): {3: -make_g1().one_ring()}}}


def test_b_square_and_unit_wraps_form_no_product_where_the_laws_hold(monkeypatch):
    # on a table whose relations and unit laws hold, b^2 reads R and
    # W(B c) reads U, both empty; only a unit-free word whose operation
    # outputs the unit (E2's m_0) makes (1 - q) b u, and b of it
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    monkeypatch.setattr(hochschild, "mul_into", counted)
    for algebra in [maker() for maker in (make_e1, make_e2, make_g1, make_q1)] + CORPUS_ALGEBRAS:
        unit = algebra.basis.unit
        assert ainfty.unit_residuals(algebra) == {}
        relations = ainfty.relation_residuals(algebra)
        assert relations == {}
        curved_unit = any(unit not in word for word in ainfty.words_by_output(algebra)[unit])
        assert curved_unit == (algebra.name == "E2")
        one = algebra.one_ring().terms
        top = algebra.spec.level_cutoff
        for key in iter_basis_chains(algebra, 3):
            u = {key: one}
            front = u if key[0] != unit else {}
            assert hochschild._windows_into({}, algebra, u, top, relations, True) == {}
            assert hochschild._unit_wraps_into({}, algebra, front, top) == {}
            if not curved_unit:
                assert hochschild._unit_outputs_into({}, algebra, u, top) == {}
        assert not calls or curved_unit
        calls.clear()


def test_suite_on_G1_forms_at_most_300_products(monkeypatch):
    # what is left on G1 at K = 8 and the default seed: b on the keys whose
    # module is the unit, for N(b u''); b^2, b'^2 and the wraps of B(c) read
    # empty tables
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    g1 = at_cutoffs(CORPUS_ALGEBRAS[2], k_max=8)  # g1_gauge, as check-g1 runs it
    monkeypatch.setattr(hochschild, "mul_into", counted)
    assert cli.chain_identity_suite(g1, 200, 20240601).passed
    assert len(calls) <= 300


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


CERTIFICATE = """\
        if key not in verdicts:
            verdicts[key] = all(
                _vanishes(raw) for _, raw in hh.identity_residuals(algebra, {key: one}))
        return verdicts[key]
"""

# name -> (module, original fragment, mutated fragment).  A hochschild
# mutant reaches the suite through the cli module's binding of it, and an
# ainfty mutant through the operation index it builds for every variant.
CHAIN_SUITE_MUTANTS = {
    "certificate keyed by word only": (
        cli, CERTIFICATE, CERTIFICATE.replace("key not in verdicts", "key[1] not in verdicts")
        .replace("verdicts[key]", "verdicts[key[1]]")),
    # killed through X1, on whose key [1|x] b'^2 alone fails
    "certificate skips b'^2": (
        cli, "hh.identity_residuals(algebra, {key: one}))",
        "hh.identity_residuals(algebra, {key: one})[:2])"),
    "quotient keeps unit words": (
        hochschild, "raw.items() if unit not in key[1]}", "raw.items()}"),
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
    "+q s_1 R in bB+Bb": (hochschild, "R, unit, eps)", "R, unit, -eps)"),
    "bB remap keeps unit words": (
        hochschild, "if v != unit and unit not in word and any(", "if any("),
    # b^2 from the cyclic windows of R: D's part of b^2 is the windows
    # through the module slot
    "b^2 without b_red(q D u)": (
        hochschild, "for c in range(n - length + 1, n + 1):", "for c in ():"),
    "b^2 skips the gap after the last letter": (
        hochschild, "for q in range(1, n - length + 1):",
        "for q in range(1, n - length + (length > 0)):"),
    # killed through E2 m2(x,1) negated, whose m_0 puts the unit in the word
    "-q b((1-q) b u) dropped": (
        hochschild, "        add_into(square.setdefault(key, {}), terms, -1)\n",
        "        pass\n"),
    "-q b((1-q) b u) reads b' for b": (
        hochschild, "_b_into({}, algebra, _unit_outputs_into(",
        "_bar_into({}, algebra, _unit_outputs_into("),
    "unit-output lookup ignores D's -m0 in front": (
        hochschild, "for p in range(1, len(f) - a + 1):", "for p in range(v != unit, len(f) - a + 1):"),
    # W(B c) from the unit residual table; the G1 m_3 variants reach its
    # two-letter segments
    "U's prefix sign dropped": (
        ainfty, "add_term(residual, comp, -value if odd else value)", "add_term(residual, comp, value)"),
    "unit wraps drop the rotation sign": (
        hochschild, "terms, value.terms, top, rho)", "terms, value.terms, top)"),
    "unit segments shorter than the word": (
        hochschild, "in units.items():\n            if length > n:",
        "in units.items():\n            if length >= n:"),
    # b'^2 from the relation table: the n = 0 mutant is killed through
    # SV1 + w, whose m_1(m_0) is not zero, and the capped table only at an
    # arity cutoff below the windows (see KILLED_PAST_THE_ARITY_CUTOFF)
    "b'^2 skips the n = 0 windows": (
        hochschild, "for q in range(len(f) - n + 1):", "for q in range(len(f) - n + 1 if n else 0):"),
    "relation table capped at k_max": (
        ainfty, "uninsertions(algebra, outer, inf)", "uninsertions(algebra, outer, algebra.k_max)"),
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
    # graded.crossing_sign; b's wraps read it for b^2 and for N(b u''), and
    # N and the unit wraps for bB+Bb, and both maps must see the mutant.
    # The reference runs the hochschild operators, so it is formed before
    # the mutant is patched in.
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
    # the suite reads the crossing sign through hochschild's binding alone;
    # the reference lines run the hochschild operators, so the detector
    # caches them before the mutant is patched in
    assert not _suite_disagrees(cli.chain_identity_suite)
    monkeypatch.setattr(hochschild, "crossing_sign", crossing_sign_mutant())
    assert _suite_disagrees(cli.chain_identity_suite)
