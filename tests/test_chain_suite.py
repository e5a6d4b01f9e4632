"""The chain identity suite: per-key certificates against per-chain evaluation.

``cli.chain_identity_suite`` checks each distinct basis key of its drawn
chains once and passes a chain whose keys all pass; only the other chains
are evaluated whole.  Its report must be the report of
``oracles.chain_identity_suite_reference``, which evaluates every operator
and every residual on every drawn chain.  The comparison runs on the
conftest algebras, on sign-flipped copies of them (one structure constant
negated: b^2, b'^2 and bB+Bb fail) and on degree-shifted copies (one basis
degree raised by one after the tables were validated, so the operations
lose their degree and the rotation identities fail as well).  The
certificate argument rests on every operator being linear over the
coefficient ring and on the reduced b being the quotient of the unreduced
one; both are properties here.  ``hochschild.identity_residuals`` reads
b'^2 off the curved relation residual table and the disjoint pairs of
insertions, b^2 off the relation residuals of the entries on the
A-infinity degree at the cyclic windows of b, the wraps of bB+Bb off the
strict-unit residual table, and the two rotation identities from pairs of
twin terms whose signs differ, walking only the operation entries off the
A-infinity degree; its six maps must equal those of
``oracles.identity_residuals_reference``, which forms every image in full,
on drawn chains and on every basis key of three letters or fewer, also
with the basis degrees redrawn, and the operator identities it rests on
(b = b' + D, and reduced b after the unit is put in front) are properties
too.  b^2 is also compared with ``oracles.hochschild_b_reference`` applied
twice, and the wraps of B(c) with ``oracles.wraps_reference`` of
``oracles.connes_B_reference``, which run no engine core.  A curved
variant with m_1(m_0) != 0 (SV1 + w) reaches the empty window of b'^2 and
the gap after the last letter of b^2, variants with a unit entry in m_3
reach two-letter segments of the unit residual, and E2 with m2(1,x)
negated reaches the unit that m_0 puts in front of a unit module; the
failing variants at arity cutoff 2 show that the residual tables read no
arity cutoff, and on the algebras whose relations and unit laws hold b'^2,
b^2 and the wraps of B(c) form no product (but E2's (1 - q) b u).  The
mutant catalog breaks the certificate and each term of the residual kernel
one way each, and the off-degree filter two ways.
"""

import copy
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import ainfty, cli, hochschild
from ainfty.ainfty import AInftyAlgebra
from ainfty.coeff import canonical, mul_into
from ainfty.document import load
from ainfty.graded import GradedBasis
from ainfty.hochschild import (
    HochschildChain, chain_bar, connes_B_reduced, cyclic_t, hochschild_b, identity_residuals,
    iter_basis_chains, operator_N,
)

from conftest import make_e1, make_e2, make_g1, make_ob1, make_p1, make_q1, make_sv1
from oracles import (
    SCALARS, at_cutoffs, chain_identity_suite_reference, chain_sum, coefficients,
    connes_B_reference, crossing_sign_mutant, hochschild_b_reference, identity_residuals_reference,
    mutant_module, wraps_reference,
)


def sign_flipped(maker, arity, word, comp):
    """The algebra with the structure constant of m_arity(word) at comp negated."""
    algebra = maker()
    table = algebra.ops[arity, 0][word]
    table[comp] = -table[comp]
    return AInftyAlgebra(algebra.basis, algebra.monoid, algebra.ops, algebra.spec,
                         name=algebra.name)


def with_degrees(algebra, degrees):
    """A copy of the algebra on its basis with other degrees: its tables
    are not validated again, and it builds its own operation index."""
    out = copy.copy(algebra)
    out.basis = GradedBasis(algebra.basis.names, degrees, unit=algebra.basis.unit)
    out._index = None
    return out


def degree_shifted(maker, letter):
    """The algebra with the degree of one basis letter raised by one after
    its tables were validated."""
    algebra = maker()
    degrees = list(algebra.basis.degrees)
    degrees[letter] += 1
    return with_degrees(algebra, degrees)


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


PASSING = {"E1": make_e1(), "E2": make_e2(), "G1": make_g1(), "Q1": make_q1()}
FAILING = {
    "E1 m2(1,x) negated": sign_flipped(make_e1, 2, (0, 1), 1),
    "E2 m2(x,1) negated": sign_flipped(make_e2, 2, (1, 0), 1),
    "G1 m2(1,z) negated": sign_flipped(make_g1, 2, (0, 3), 3),
    "G1 m2(x,1) negated": sign_flipped(make_g1, 2, (1, 0), 1),
    "Q1 m2(1,u) negated": sign_flipped(make_q1, 2, (0, 1), 1),
    "G1 |y| + 1": degree_shifted(make_g1, 2),
    "Q1 |z| + 1": degree_shifted(make_q1, 2),
    "OB1 |z| + 1": degree_shifted(make_ob1, 2),
    "SV1 + w, m1(z) = w": sv1_with_w(),
    # a unit entry past m_2: two-letter segments of the unit residual U,
    # and the wrap that crosses the segment in front of the unit
    # an entry off the degree inside a failing relation: R(1, x, y) reads
    # m_2(x, y), so R_on differs from R
    "G1 |y| + 1, m2(1,z) negated": degree_shifted(
        lambda: sign_flipped(make_g1, 2, (0, 3), 3), 2),
    # m_0 outputs the unit, and the left unit law fails on it
    "E2 m2(1,x) negated": sign_flipped(make_e2, 2, (0, 1), 1),
    "G1 m3(x,1,y) = x": with_entry(make_g1, (1, 0, 2), 1, "G1 m3(x,1,y) = x"),
    "G1 m3(z,1,x) = z": with_entry(make_g1, (3, 0, 1), 3, "G1 m3(z,1,x) = z"),
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


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(case=residual_cases())
def test_identity_residuals_match_their_reference(case):
    algebra, chain = case
    got = identity_residuals(algebra, chain.terms)
    want = identity_residuals_reference(algebra, chain.terms)
    assert [tag for tag, _ in got] == [tag for tag, _ in want]
    for (tag, raw), (_, reference) in zip(got, want):
        assert _nonzero(raw) == _nonzero(reference), (tag, chain.text())


# Every basis key with coefficient 1, on every residual algebra and on OB1
# (curved, with no differential to absorb m_0): the two pairing cores of
# b'N-Nb and of the rotation identity form only the pairs whose signs differ,
# and the reference forms every image.
BASIS_KEY_ALGEBRAS = {**{name if cutoff is None else "%s at E %s" % (name, cutoff): algebra
                         for (name, cutoff), algebra in RESIDUAL_ALGEBRAS.items()},
                      "OB1": make_ob1()}


def _first_residual_mismatch(algebra):
    """The first (tag, basis key) of three letters or fewer at which a
    residual map differs from the reference, or None."""
    one = algebra.one_ring().terms
    for key in iter_basis_chains(algebra, 3):
        got = identity_residuals(algebra, {key: one})
        want = identity_residuals_reference(algebra, {key: one})
        for (tag, raw), (_, reference) in zip(got, want):
            if _nonzero(raw) != _nonzero(reference):
                return tag, key
    return None


def _residuals_match_on_every_basis_key(algebra):
    assert _first_residual_mismatch(algebra) is None


@pytest.mark.parametrize("name", sorted(BASIS_KEY_ALGEBRAS))
def test_identity_residuals_match_their_reference_on_every_basis_key(name):
    _residuals_match_on_every_basis_key(BASIS_KEY_ALGEBRAS[name])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BASIS_KEY_ALGEBRAS)), data=st.data())
def test_identity_residuals_match_their_reference_at_redrawn_degrees(name, data):
    # the rotation cores walk only the entries off the A-infinity degree,
    # which the basis degrees decide: redrawn degrees put entries on and
    # off it in every mix
    algebra = BASIS_KEY_ALGEBRAS[name]
    basis = algebra.basis
    degrees = [0 if letter == basis.unit else data.draw(st.integers(-2, 3))
               for letter in range(len(basis))]
    _residuals_match_on_every_basis_key(with_degrees(algebra, degrees))


def _build_residual_tables(module, algebra):
    """Build the algebra's operation index and its three residual tables
    with the functions of ``module``."""
    module.relation_residuals(algebra)
    module.on_degree_residuals(algebra)
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


CORPUS_ALGEBRAS = [load(os.path.join(os.path.dirname(ainfty.__file__), "corpus", name + ".json"))
                   .algebra for name in ("e1", "e2", "g1_gauge", "g1_wallcross", "sv1")]


def test_bar_square_forms_no_product_where_the_relations_hold(monkeypatch):
    # on a table whose relations hold and with no entry off the A-infinity
    # degree, b'^2 is read off two empty tables
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    monkeypatch.setattr(hochschild, "mul_into", counted)
    makers = (make_e1, make_e2, make_g1, make_p1, make_q1, make_sv1, make_ob1)
    for algebra in [maker() for maker in makers] + CORPUS_ALGEBRAS:
        assert ainfty.relation_residuals(algebra) == {}
        assert ainfty.off_degree_words(algebra) == {}
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
    # on a table whose relations and unit laws hold, with no entry off the
    # A-infinity degree, b^2 reads R_on = R and W(B c) reads U, both empty;
    # only a unit-free word whose operation outputs the unit (E2's m_0)
    # makes (1 - q) b u, and b of it
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    monkeypatch.setattr(hochschild, "mul_into", counted)
    for algebra in [maker() for maker in (make_e1, make_e2, make_g1, make_q1)] + CORPUS_ALGEBRAS:
        unit = algebra.basis.unit
        assert ainfty.unit_residuals(algebra) == {}
        assert ainfty.on_degree_residuals(algebra) is ainfty.relation_residuals(algebra) == {}
        curved_unit = any(unit not in word for word in ainfty.words_by_output(algebra)[unit])
        assert curved_unit == (algebra.name == "E2")
        one = algebra.one_ring().terms
        top = algebra.spec.level_cutoff
        for key in iter_basis_chains(algebra, 3):
            u = {key: one}
            front = u if key[0] != unit else {}
            assert hochschild._b_square_into({}, algebra, u, top) == {}
            assert hochschild._unit_wraps_into({}, algebra, front, top) == {}
            if not curved_unit:
                assert hochschild._unit_outputs_into({}, algebra, u, top) == {}
        assert not calls or curved_unit
        calls.clear()


def test_suite_on_G1_forms_at_most_300_products(monkeypatch):
    # what is left on G1 at K = 8 and the default seed: b' and D on the keys
    # whose module is the unit, for N(b u''); b^2, b'^2, the wraps of B(c)
    # and the rotation identities read empty tables
    calls = []

    def counted(*args):
        calls.append(args)
        return mul_into(*args)

    g1 = at_cutoffs(CORPUS_ALGEBRAS[2], k_max=8)  # g1_gauge, as check-g1 runs it
    monkeypatch.setattr(hochschild, "mul_into", counted)
    assert cli.chain_identity_suite(g1, 200, 20240601).passed
    assert len(calls) <= 300


def _off_degree_entries(algebra):
    return {(word, comp) for words in ainfty.off_degree_words(algebra).values()
            for word, out in words.items() for comp in out}


def test_off_degree_holds_the_entries_off_the_degree():
    for maker in (make_e1, make_e2, make_g1, make_q1, make_sv1, make_ob1):
        assert ainfty.off_degree_words(maker()) == {}
    # |y|' = 1 on G1 |y| + 1: m_2(x, y) and m_1(y) output z, |z|' = 1
    assert _off_degree_entries(VARIANTS["G1 |y| + 1"]) == {((1, 2), 3), ((2,), 3)}
    # |z|' = 5 on Q1 |z| + 1: m_3(u, u, u) outputs z, |u u u|' = 3
    assert _off_degree_entries(VARIANTS["Q1 |z| + 1"]) == {((1, 1, 1), 2)}
    # |z|' = 2 on OB1 |z| + 1: m_0 outputs z
    assert _off_degree_entries(VARIANTS["OB1 |z| + 1"]) == {((), 2)}
    for algebra in VARIANTS.values():
        index = ainfty.nonzero_words(algebra)
        for k, words in ainfty.off_degree_words(algebra).items():
            for word, out in words.items():
                assert all(value is index[k][word][comp] for comp, value in out.items())


def _operator_algebras():
    return st.sampled_from(sorted(RESIDUAL_ALGEBRAS, key=str)).map(RESIDUAL_ALGEBRAS.get)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), algebra=_operator_algebras())
def test_b_is_bar_plus_D_on_unreduced_chains(data, algebra):
    # D(x) = b(x) - b'(x): the wraps with a tail block of at least one
    # letter, minus m_0 in front of the module slot; unit letters anywhere
    letters = range(len(algebra.basis))
    x = _draw_chain(data.draw, algebra, letters, letters, False)
    top = algebra.spec.level_cutoff
    D = hochschild._built(algebra.basis, algebra.spec,
                          hochschild._D_into({}, algebra, x.terms, top), False)
    assert D == chain_sum(hochschild_b(algebra, x), chain_bar(algebra, x), -1), x.text()


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


# Seeded draws on every variant; the reference lines are computed once.  On
# Q1 |z| + 1, b'N-Nb alone fails at [1|z,u,u,u], and seed 12 draws it as
# chain #15 next to keys at which every identity holds.
MUTANT_CASES = [(name, 30, seed, 4) for name in sorted(VARIANTS) for seed in (1, 2)] + [
    ("Q1 |z| + 1", 30, 12, 4)]
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


# the disjoint pairs of b'^2: the criterion read on the right entry walks
# every left entry and only the right entries off the degree
DISJOINT_PAIRS = """\
        for a, words in tables.items():
            for i in range(len(f) - a + 1):
                left = words.get(f[i : i + a])
                if not left:
                    continue
                # the right window at j = i + a + p: (-1)^{|f[:i]|' + |f[:j]|'}
                rest = f[i + a :]
                for p, b, right, sign in insertions(algebra, rest, prefixes[i + a] - prefixes[i]):
                    for lcomp, lvalue in left.items():
                        for rcomp, rvalue in right.items():
"""

CERTIFICATE = """\
        if key not in verdicts:
            verdicts[key] = all(
                _vanishes(raw) for _, raw in hh.identity_residuals(algebra, {key: one}))
        return verdicts[key]
"""

# name -> (module, original fragment, mutated fragment).  A hochschild
# mutant reaches the suite through the cli module's binding of it, and an
# ainfty mutant through the operation index it builds for every variant.
# The rotation cores walk only the off-degree entries of the index; a filter
# that kept extra entries would only make them slower, so the two filter
# mutants below drop entries that the cores need.
CHAIN_SUITE_MUTANTS = {
    "certificate keyed by word only": (
        cli, CERTIFICATE, CERTIFICATE.replace("key not in verdicts", "key[1] not in verdicts")
        .replace("verdicts[key]", "verdicts[key[1]]")),
    "certificate skips b'N-Nb": (
        cli, "hh.identity_residuals(algebra, {key: one}))",
        "hh.identity_residuals(algebra, {key: one})[:5])"),
    # the b(tu) images are gone: the rotation core compares each D or t b'
    # term with its b(tu) twin, and here it never emits
    "b(1-t) without -b(tu)": (hochschild, "if sign != bt:", "if False:"),
    "quotient keeps unit words": (
        hochschild, "raw.items() if unit not in key[1]}", "raw.items()}"),
    "D without its m0-in-front term": (hochschild, "if curvature:", "if False:"),
    "tail start 0 in D": (hochschild, "for i in range(1, a):", "for i in range(a):"),
    # D has no sign parameter any more: the rotation core reads the sign of
    # D's wrap-arounds as +1
    "D ignores its sign": (
        hochschild, "sign = (comp,) + f[c + a - n : c], crossing_sign(total, prefixes[c])",
        "sign = (comp,) + f[c + a - n : c], 1"),
    "+q s_1 R in bB+Bb": (hochschild, "R, unit, eps)", "R, unit, -eps)"),
    "bB remap keeps unit words": (
        hochschild, "if v != unit and unit not in word and any(", "if any("),
    # b^2 from the cyclic windows of R_on: D's part of b^2 is the windows
    # through the module slot, and b'(Z) the b' half of b((1 - q) b u)
    "b^2 without b_red(q D u)": (
        hochschild, "for c in range(n - length + 1, n + 1):", "for c in ():"),
    "b^2 without -q b'(Z)": (
        hochschild, "_b_into({}, algebra, _unit_outputs_into(", "_D_into({}, algebra, _unit_outputs_into("),
    "b^2 skips the gap after the last letter": (
        hochschild, "for q in range(1, n - length + 1):",
        "for q in range(1, n - length + (length > 0)):"),
    # killed through G1 |y| + 1, m2(1,z) negated, the one variant whose
    # off-degree entries reach a nonzero relation term
    "R_on read as R": (
        hochschild, "on_degree_residuals(algebra), True)", "relation_residuals(algebra), True)"),
    "b_off(b_on u) dropped": (
        hochschild, "        _windows_into(acc, algebra, on, top, tables, False)\n", ""),
    # killed through E2 m2(x,1) negated, whose m_0 puts the unit in the word
    "-q b((1-q) b u) dropped": (
        hochschild, "        add_into(square.setdefault(key, {}), terms, -1)\n",
        "        pass\n"),
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
    "b'N-Nb window-to-rotation index (p + c) % n": (
        hochschild, "r = (p - c) % n", "r = (p + c) % n"),
    "b'N-Nb ignores the rotation parity of the output": (
        hochschild, "out_total - out_prefixes[m - s]", "0"),
    "rotation core drops the parity of t on f": (hochschild, "bt = t_sign * (", "bt = ("),
    # the self-pair is walked only for an m_0 off the A-infinity degree:
    # killed through OB1 |z| + 1, whose m_0 outputs z with |z|' even
    "rotation core inverts the arity-0 self-pair test": (
        hochschild, "if gap_sign == -1:", "if gap_sign != -1:"),
    # killed through the |.| + 1 variants; G1 |y| + 1 and Q1 |z| + 1 mix
    # entries on and off the degree
    "off-degree filter parity inverted": (ainfty, "% 2 == 0}", "% 2}"),
    "off-degree filter keeps no entry": (ainfty, "if off:", "if False:"),
    # b'^2 from the relation table: the pair mutants are killed through the
    # |.| + 1 variants, the n = 0 one through SV1 + w, whose m_1(m_0) is
    # not zero, and the capped table only at an arity cutoff below the
    # windows (see KILLED_PAST_THE_ARITY_CUTOFF)
    "b'^2 drops the disjoint pairs": (
        hochschild, "if not tables:\n            continue", "continue"),
    "b'^2 adds a disjoint pair once": (
        hochschild, "_twice_into(acc, out, terms, (lvalue * rvalue).terms, top, sign)",
        "mul_into(acc.setdefault((out[0], out[1:]), {}), terms, (lvalue * rvalue).terms, top,"
        " sign)"),
    "b'^2 reads the off-degree criterion on the right entry": (
        hochschild, DISJOINT_PAIRS, DISJOINT_PAIRS.replace(
            "words in tables.items()", "words in nonzero_words(algebra).items()").replace(
            "in right.items()", "in tables.get(b, {}).get(rest[p : p + b], {}).items()")),
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


def test_rotation_parity_mutant_is_killed_through_both_pairing_cores(monkeypatch):
    # HOCHSCHILD_MUTANTS mutates the one home of the rotation sign,
    # graded.crossing_sign; both cores read their rotation signs there, and
    # each must see the mutant.  The reference runs the hochschild
    # operators, so it is formed before the mutant is patched in.
    cases = [(algebra, {key: algebra.one_ring().terms})
             for _, algebra in sorted(BASIS_KEY_ALGEBRAS.items())
             for key in iter_basis_chains(algebra, 2)]
    wants = [dict(identity_residuals_reference(algebra, u)) for algebra, u in cases]
    monkeypatch.setattr(hochschild, "crossing_sign", crossing_sign_mutant())
    missed = {"b(1-t)-(1-t)b'", "b'N-Nb"}
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
