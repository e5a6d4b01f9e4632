"""Chain operators, cyclic identities, functionals, and towers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ainfty import coeff, graded, hochschild
from ainfty.coeff import Monomial, Poly, RingElement, _scalar
from ainfty.errors import ConfigurationError
from ainfty.hochschild import (
    CocycleTower,
    Functional,
    HochschildChain,
    chain_bar,
    chain_degree,
    connes_B_reduced,
    cyclic_t,
    hochschild_b,
    iter_basis_chains,
    operator_N,
    validate_negative_cocycle,
)

from conftest import (
    make_e1, make_e2, make_g1, make_p1, make_q1, make_sv1,
    poincare_tower, random_coboundary_tower, random_functional, ring,
)
from exactla import rank
import oracles
from oracles import (
    CROSSING_MUTATION, SCALARS, chain_bar_reference, chain_sum, chain_sum_reference, coderivation,
    coefficients, connecting_map, connes_B_reference, cyclic_t_reference, dual_B_star,
    dual_b_star, functional_apply_reference, hochschild_b_reference, mutant_module,
    operator_N_reference, quotient_mutant, reduced_mutant, ring_terms, tabulate, unreduced,
)


def random_chain(algebra, rng, max_len=5):
    basis = algebra.basis
    letters = basis.reduced_letters()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        module = rng.randrange(len(basis))
        coeff = ring(algebra.spec, Fraction(rng.randint(-3, 3)),
                     lam=Fraction(rng.randint(0, 2), 2), e=rng.randint(-1, 1))
        if coeff:
            terms[(module, word)] = coeff
    return HochschildChain(basis, terms, reduced=True)


def test_reduced_chains_drop_unit_words(e2):
    chain = HochschildChain(e2.basis, {(1, (0, 1)): e2.one_ring()}, reduced=True)
    assert chain.is_zero()
    kept = HochschildChain(e2.basis, {(1, (0, 1)): e2.one_ring()}, reduced=False)
    assert not kept.is_zero()


def test_reduced_mutant_is_killed_through_the_functional_refusal(e2, monkeypatch):
    # Functional refuses a non-reduced word through hochschild's binding of
    # graded.reduced
    table = {(1, (0,)): e2.one_ring()}
    with pytest.raises(ConfigurationError, match="non-reduced word"):
        Functional(e2.basis, e2.spec, table)
    monkeypatch.setattr(hochschild, "reduced", reduced_mutant())
    assert Functional(e2.basis, e2.spec, table).table == table


def test_quotient_mutant_is_killed_through_the_chain_and_b(e2, monkeypatch):
    # a reduced chain and the b of one drop their unit words through
    # hochschild's binding of graded.quotient; E2's m_0 = T e 1 puts the
    # unit in the word of b at every gap, and the reference b drops it
    # itself
    one = e2.one_ring()
    cases = [(chain, hochschild_b_reference(e2, chain))
             for chain in (HochschildChain.generator(e2.basis, v, word, one)
                           for v in range(2) for word in ((), (1,), (1, 1)))]
    assert all(hochschild_b(e2, chain) == want for chain, want in cases)
    monkeypatch.setattr(hochschild, "quotient", quotient_mutant())
    assert not HochschildChain(e2.basis, {(1, (0, 1)): one}).is_zero()
    assert any(hochschild_b(e2, chain) != want for chain, want in cases)


def test_b_on_zero_chain(e2):
    assert hochschild_b(e2, HochschildChain(e2.basis, {}, reduced=True)).is_zero()


def test_b_on_length_zero_chain():
    algebra = make_g1()
    chain = HochschildChain.generator(algebra.basis, 1, (), algebra.one_ring())
    out = hochschild_b(algebra, chain)
    # only the wrap-around m1 contributes, with sign +1
    expected = HochschildChain.generator(
        algebra.basis, 3, (), ring(algebra.spec, -1, lam=Fraction(1, 2))
    )
    assert out == expected


def test_curvature_insertions_die_in_reduced(e2):
    # interior arity-0 insertions produce unit tensor slots
    chain = HochschildChain.generator(e2.basis, 1, (1,), e2.one_ring())
    out = hochschild_b(e2, chain)
    for (module, word) in out.terms:
        assert 0 not in word


@pytest.mark.parametrize("maker", (make_e2, make_g1, make_p1, make_q1))
def test_chain_identities(maker):
    algebra = maker()
    basis = algebra.basis
    rng = random.Random(23)
    for _ in range(120):
        c = random_chain(algebra, rng)
        assert hochschild_b(algebra, hochschild_b(algebra, c)).is_zero()
        assert connes_B_reduced(basis, connes_B_reduced(basis, c)).is_zero()
        anti = chain_sum(hochschild_b(algebra, connes_B_reduced(basis, c)),
                         connes_B_reduced(basis, hochschild_b(algebra, c)))
        assert anti.is_zero()
        u = unreduced(c)
        assert chain_bar(algebra, chain_bar(algebra, u)).is_zero()
        lhs = hochschild_b(algebra, chain_sum(u, cyclic_t(basis, u), -1))
        bar = chain_bar(algebra, u)
        rhs = chain_sum(bar, cyclic_t(basis, bar), -1)
        assert chain_sum(lhs, rhs, -1).is_zero()
        assert chain_sum(chain_bar(algebra, operator_N(basis, u)),
                         operator_N(basis, hochschild_b(algebra, u)), -1).is_zero()
        assert operator_N(basis, chain_sum(u, cyclic_t(basis, u), -1)).is_zero()


def test_rotation_is_periodic(g1, rng):
    basis = g1.basis
    for _ in range(50):
        c = unreduced(random_chain(g1, rng, max_len=4))
        n_fold = c
        lengths = {1 + len(word) for (_, word) in c.terms}
        if len(lengths) != 1:
            continue
        (n,) = lengths
        for _ in range(n):
            n_fold = cyclic_t(basis, n_fold)
        assert n_fold == c


def test_N_on_length_one_component(e2):
    c = unreduced(HochschildChain.generator(e2.basis, 1, (), e2.one_ring()))
    assert operator_N(e2.basis, c) == c


def test_telescoping_both_orders(g1, rng):
    basis = g1.basis
    for _ in range(40):
        c = unreduced(random_chain(g1, rng, max_len=4))
        assert operator_N(basis, chain_sum(c, cyclic_t(basis, c), -1)).is_zero()
        n_of_c = operator_N(basis, c)
        assert chain_sum(n_of_c, cyclic_t(basis, n_of_c), -1).is_zero()


def test_plain_bar_differential_squares_to_zero(e2, rng):
    # the bar differential on plain (unmarked) words is the coderivation
    letters = (0, 1)
    for _ in range(60):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        once = coderivation(e2, {word: e2.one_ring()})
        twice: dict = {}
        for w, coeff in once.items():
            for w2, c2 in coderivation(e2, {w: coeff}).items():
                if w2 in twice:
                    total = twice[w2] + c2
                    if total:
                        twice[w2] = total
                    else:
                        del twice[w2]
                elif c2:
                    twice[w2] = c2
        assert twice == {}


def test_bar_differential_on_plain_words(e1, e2):
    assert coderivation(e1, {(): e1.one_ring()}) == {}
    out = coderivation(e1, {(1,): e1.one_ring()})
    assert out == {}  # m1 = 0 on E1


def test_B_requires_reduced(e2):
    c = unreduced(HochschildChain.generator(e2.basis, 1, (1,), e2.one_ring()))
    with pytest.raises(ConfigurationError):
        connes_B_reduced(e2.basis, c)


def test_B_on_length_zero(e2):
    c = HochschildChain.generator(e2.basis, 1, (), e2.one_ring())
    out = connes_B_reduced(e2.basis, c)
    assert out == HochschildChain.generator(e2.basis, 0, (1,), e2.one_ring())


def test_B_kills_unit_module(e2):
    c = HochschildChain.generator(e2.basis, 0, (1, 1), e2.one_ring())
    assert connes_B_reduced(e2.basis, c).is_zero()


def test_chains_keep_one_ring(e2):
    other = oracles.with_cutoff(e2.spec, 2)
    chain = HochschildChain.generator(e2.basis, 1, (1,), RingElement.one(other))
    assert chain.spec == other
    assert chain.coefficient((1, (1,))) == RingElement.one(other)
    assert chain.coefficient((1, ())) == RingElement.zero(other)
    with pytest.raises(ConfigurationError):
        HochschildChain(e2.basis, {(1, ()): e2.one_ring(), (1, (1,)): RingElement.one(other)})
    with pytest.raises(ConfigurationError):
        chain_sum(chain, HochschildChain.generator(e2.basis, 1, (), e2.one_ring()))
    # the ring is checked once per call against the algebra's or functional's
    with pytest.raises(ConfigurationError):
        hochschild_b(e2, chain)
    with pytest.raises(ConfigurationError):
        chain_bar(e2, unreduced(chain))
    with pytest.raises(ConfigurationError):
        Functional(e2.basis, e2.spec, {(1, (1,)): e2.one_ring()}).apply(chain)
    with pytest.raises(ConfigurationError):
        Functional(e2.basis, e2.spec, {(1, (1,)): RingElement.one(other)})
    # the zero chain of the constructor has no ring, and sums take the other's
    empty = HochschildChain(e2.basis, {})
    assert empty.spec is None and chain_sum(empty, chain).spec == other
    with pytest.raises(ConfigurationError):
        empty.coefficient((1, ()))
    assert hochschild_b(e2, empty).spec is e2.spec


def test_functional_rejects_nonreduced_entries(e2):
    with pytest.raises(ConfigurationError):
        Functional(e2.basis, e2.spec, {(1, (0,)): e2.one_ring()})


def test_functional_homogeneity_enforced(e2):
    table = {
        (0, (1,)): e2.one_ring(),
        (1, (1,)): e2.one_ring(),  # different functional degree
    }
    with pytest.raises(ConfigurationError):
        Functional(e2.basis, e2.spec, table)


def test_dual_operators_square_to_zero(g1, rng):
    f = random_functional(g1, rng, d=2, max_len=3)
    for _ in range(60):
        c = random_chain(g1, rng, max_len=3)
        assert dual_b_star(g1, dual_b_star(g1, f)).apply(c).is_zero()
        assert dual_B_star(g1, dual_B_star(g1, f)).apply(c).is_zero()
        mixed = dual_b_star(g1, dual_B_star(g1, f)).apply(c) + dual_B_star(
            g1, dual_b_star(g1, f)
        ).apply(c)
        assert mixed.is_zero()


def test_poincare_tower_validates():
    for maker in (make_e1, make_e2):
        algebra = maker()
        assert validate_negative_cocycle(algebra, poincare_tower(algebra)).passed


def test_zero_tower_validates(e2):
    tower = CocycleTower((Functional(e2.basis, e2.spec, {}),))
    assert validate_negative_cocycle(e2, tower).passed


def test_tower_mutation_fails_validation(g1):
    # over G1 the differential couples entries, so flipping a coupled entry
    # breaks the cocycle condition (over E1 the reduced differential
    # vanishes identically and no single-entry mutation is detectable)
    rng = random.Random(31)
    tower = random_coboundary_tower(g1, rng, d_base=1)
    while all(p.is_zero() for p in tower.levels):
        tower = random_coboundary_tower(g1, rng, d_base=1)
    assert validate_negative_cocycle(g1, tower).passed
    psi0 = tower.levels[0]
    killed = 0
    for key in sorted(psi0.table):
        mutated_table = dict(psi0.table)
        mutated_table[key] = -mutated_table[key]
        mutated = CocycleTower((Functional(g1.basis, g1.spec, mutated_table),)
                               + tower.levels[1:])
        if not validate_negative_cocycle(g1, mutated).passed:
            killed += 1
    assert killed > 0


def test_coboundary_towers_validate(g1, p1, rng):
    for algebra, d in ((g1, 1), (p1, 0)):
        for _ in range(4):
            tower = random_coboundary_tower(algebra, rng, d_base=d)
            assert validate_negative_cocycle(algebra, tower).passed


def test_tower_degree_ladder_enforced(e2):
    f0 = Functional(e2.basis, e2.spec, {(0, (1,)): e2.one_ring()})  # degree 0
    f2 = Functional(e2.basis, e2.spec, {(0, (1,)): ring(e2.spec, 1, e=1)})  # degree 2
    CocycleTower((f0, f2))  # ladder 0, 2 is legal
    with pytest.raises(ConfigurationError):
        CocycleTower((f0, f0))  # level 1 must sit two degrees higher


def test_tower_degree_ladder_starts_at_the_lowest_nonzero_level(e2):
    # with psi_0 zero, the ladder is read from psi_1: degrees d and d + 2 at
    # levels 1 and 2 are legal, and d at both is not
    zero = Functional(e2.basis, e2.spec, {})
    f0 = Functional(e2.basis, e2.spec, {(0, (1,)): e2.one_ring()})  # degree 0
    f2 = Functional(e2.basis, e2.spec, {(0, (1,)): ring(e2.spec, 1, e=1)})  # degree 2
    assert CocycleTower((zero, f0, f2)).degree() == -2
    with pytest.raises(ConfigurationError, match="tower level 2 has degree 0, expected 2"):
        CocycleTower((zero, f0, f0))


def test_connecting_map_of_trace(e1):
    # the u^0 trace: any functional is b*-closed over E1, so its image validates
    trace = Functional(e1.basis, e1.spec, {(0, (1, 1)): e1.one_ring()})
    tower = connecting_map(e1, [trace], l_max=4)
    assert validate_negative_cocycle(e1, tower).passed
    assert not tower.psi0.is_zero()


def test_connecting_map_zero_input(e1):
    tower = connecting_map(e1, [Functional(e1.basis, e1.spec, {})], l_max=4)
    assert all(level.is_zero() for level in tower.levels)


def test_invalid_tower_reports_offending_word(g1):
    # an arbitrary functional is not a cocycle; the report names a witness
    psi0 = Functional(g1.basis, g1.spec, {(3, (1,)): ring(g1.spec, 1, e=1)})
    report = validate_negative_cocycle(g1, CocycleTower((psi0,)))
    assert not report.passed
    assert any("level 0 at [" in msg for msg in report.failures)


def test_cyclic_cohomology_window_dims_match():
    """Connecting-map dimension count on E1, by exact rank over a window.

    Over E1 the reduced module differential vanishes identically, so in a
    fixed total degree the windowed negative cyclic cochain cohomology is
    ker(B* on the degree-0 functionals) while the matching positive one is
    coker(B* into the degree-1 functionals).  The connecting isomorphism
    predicts equal dimensions; over the rationals both come out 1 (the
    kernel is spanned by the length-0 dual, the cokernel by the window
    boundary), and the equality genuinely uses characteristic 0: B* scales
    by the rotation count, so no interior dual generator dies.
    """
    e1 = make_e1()
    basis = e1.basis
    L = 6
    f_keys = [(0, (1,) * k) for k in range(L + 1)]       # duals of degree-0 chains
    g_keys = [(1, (1,) * k) for k in range(L + 1)]       # duals of degree-1 chains
    g_index = {k: i for i, k in enumerate(g_keys)}

    # verify b = 0 exactly on the window, so B alone controls both sides
    for module, word in f_keys + g_keys:
        chain = HochschildChain.generator(basis, module, word, e1.one_ring())
        assert hochschild_b(e1, chain).is_zero()

    # matrix of B* from the f-window to the g-window: (B*f)(c) = f(B c)
    rows = []
    for fm, fw in f_keys:
        row = [Fraction(0)] * len(g_keys)
        for gi, (gm, gw) in enumerate(g_keys):
            chain = HochschildChain.generator(basis, gm, gw, e1.one_ring())
            image = connes_B_reduced(basis, chain)
            coeff = image.coefficient((fm, fw))
            if coeff:
                row[gi] = Fraction(coeff.coefficient(e1.spec.one_monomial()))
        rows.append(row)
    r = rank(rows)
    dim_negative = len(f_keys) - r   # ker(B* on f-duals): the cocycle window
    dim_positive = len(g_keys) - r   # coker(B* into g-duals): the quotient window
    assert dim_negative == dim_positive == 1


def test_tabulate_materializes_lazy_functionals(g1, rng):
    f = random_functional(g1, rng, d=2, max_len=2)
    lazy = dual_b_star(g1, f)
    table = tabulate(g1, lazy, 3)
    for module, word in iter_basis_chains(g1, 3):
        chain = HochschildChain.generator(g1.basis, module, word, g1.one_ring())
        assert table.apply(chain) == lazy.apply(chain)


# -- the fused kernels against their term-by-term references -------------------

MAKERS = {"E1": make_e1, "E2": make_e2, "G1": make_g1, "SV1": make_sv1, "Q1": make_q1}
# At 1/2 most products with a structure constant of positive energy truncate.
CUTOFFS = (Fraction(1, 2), Fraction(3))
ALGEBRAS = {(name, cutoff): maker(cutoff) for name, maker in MAKERS.items()
            for cutoff in CUTOFFS}


def _operator_outputs(module, algebra, chain, sums=chain_sum):
    """The five operators of a copy of the hochschild module on one chain,
    and the chain sums of ``sums`` on that copy's chains, each with its
    reference; B is only defined on reduced chains.  The sums take the chain
    and its every other term, so that some keys collide and cancel."""
    basis = algebra.basis
    pairs = [
        (module.hochschild_b(algebra, chain), hochschild_b_reference(algebra, chain)),
        (module.chain_bar(algebra, chain), chain_bar_reference(algebra, chain)),
        (module.cyclic_t(basis, chain), cyclic_t_reference(basis, chain)),
        (module.operator_N(basis, chain), operator_N_reference(basis, chain)),
    ]
    if chain.reduced:
        pairs.append((module.connes_B_reduced(basis, chain), connes_B_reference(basis, chain)))
    terms = ring_terms(chain)
    whole = module.HochschildChain(basis, terms, chain.reduced)
    part = module.HochschildChain(basis, dict(list(terms.items())[::2]), chain.reduced)
    for left, right in ((whole, part), (part, whole)):
        pairs.append((sums(left, right, 1), chain_sum_reference(left, right, 1)))
        pairs.append((sums(left, right, -1), chain_sum_reference(left, right, -1)))
    return pairs


def _is_clean(chain) -> bool:
    """What every chain keeps: nonzero scalars in stored form, no empty
    maps, and no unit in a tensor slot of a reduced chain."""
    unit = chain.basis.unit
    return all(terms and not (chain.reduced and unit in word)
               and all(value and _scalar(value) is value for value in terms.values())
               for (_, word), terms in chain.terms.items())


def _same_terms(got, want) -> bool:
    """Equal term for term: flag, keys, coefficients and their rendering,
    with the chain operator's output kept clean."""
    return (got.reduced == want.reduced and got.terms == want.terms
            and got.text() == want.text() and _is_clean(got))


def _chains(draw, algebra, reduced, scalars):
    """One to four terms of one or two monomials each, on keys from a small
    alphabet so that two chains drawn alike share keys.  The scalars are
    halved or not, so that sums of halves must come out as ints."""
    basis = algebra.basis
    letters = basis.reduced_letters() if reduced else list(range(len(basis)))
    key = st.tuples(st.integers(0, len(basis) - 1),
                    st.lists(st.sampled_from(letters), max_size=4).map(tuple))
    factor = draw(st.sampled_from((1, Fraction(1, 2))))
    terms = draw(st.dictionaries(key, coefficients(algebra.spec, scalars).map(
        lambda coeff: coeff.scale(factor)), min_size=1, max_size=4))
    return HochschildChain(basis, terms, reduced)


@st.composite
def operator_cases(draw):
    """An algebra at a cutoff, and a reduced or unreduced chain on it."""
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    return algebra, _chains(draw, algebra, draw(st.booleans()), draw(st.sampled_from(SCALARS)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=operator_cases())
def test_operators_match_their_references(case):
    algebra, chain = case
    for got, want in _operator_outputs(hochschild, algebra, chain):
        assert _same_terms(got, want), (chain.text(), got.text(), want.text())
    if not chain.reduced:
        with pytest.raises(ConfigurationError):
            connes_B_reduced(algebra.basis, chain)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=operator_cases())
def test_operators_match_their_references_on_inputs_that_cancel(case):
    # b b, b' b' and N (1 - t) vanish: the second operator sums terms that all cancel
    algebra, chain = case
    basis = algebra.basis
    u = unreduced(chain)
    for got, want in (
        (hochschild_b(algebra, hochschild_b(algebra, chain)),
         hochschild_b_reference(algebra, hochschild_b_reference(algebra, chain))),
        (chain_bar(algebra, chain_bar(algebra, u)),
         chain_bar_reference(algebra, chain_bar_reference(algebra, u))),
        (operator_N(basis, chain_sum(u, cyclic_t(basis, u), -1)),
         operator_N_reference(basis, chain_sum_reference(u, cyclic_t_reference(basis, u), -1))),
    ):
        assert got.is_zero() and _same_terms(got, want), (chain.text(), got.text())


@st.composite
def sum_cases(draw):
    """Two chains alike on one algebra: same flag, kind of scalar and keys."""
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    reduced = draw(st.booleans())
    scalars = draw(st.sampled_from(SCALARS))
    return _chains(draw, algebra, reduced, scalars), _chains(draw, algebra, reduced, scalars)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=sum_cases())
def test_chain_sums_match_their_reference(case):
    left, right = case
    both = chain_sum(left, right)
    for got, want in (
        (both, chain_sum_reference(left, right, 1)),
        (chain_sum(left, right, -1), chain_sum_reference(left, right, -1)),
        (chain_sum(both, right, -1), left),
        (chain_sum(right, both, -1), chain_sum_reference(right, both, -1)),
        (chain_sum(left, left, -1), HochschildChain(left.basis, {}, left.reduced)),
    ):
        assert _same_terms(got, want), (left.text(), right.text(), got.text())
    mixed = HochschildChain(left.basis, ring_terms(right), not right.reduced)
    with pytest.raises(ConfigurationError):
        chain_sum(left, mixed)


@st.composite
def functional_cases(draw):
    """A chain, and a degree-homogeneous functional on keys like its own,
    with values of one or two monomials at the energies 0 and 1/2."""
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    basis, spec = algebra.basis, algebra.spec
    scalars = draw(st.sampled_from(SCALARS))
    chain = _chains(draw, algebra, True, scalars)
    keys = list(chain.terms) + [(draw(st.integers(0, len(basis) - 1)), word)
                                for _, word in chain.terms]
    offset = draw(st.integers(-2, 2))
    table = {}
    for module, word in keys:
        shift = offset + chain_degree(basis, module, word)
        if shift % 2 == 0 and draw(st.booleans()):
            values = draw(st.lists(coefficients(spec, scalars), min_size=1, max_size=2))
            # the value sits in degree 2e = shift: move every monomial there
            table[(module, word)] = sum(
                (RingElement(spec, {Monomial(mono.lam, shift // 2, mono.s, mono.t, mono.lvl): c
                                    for mono, c in v.terms.items()}) for v in values),
                RingElement.zero(spec))
    return Functional(basis, spec, table), chain


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=functional_cases())
def test_functional_apply_matches_its_reference(case):
    functional, chain = case
    got = functional.apply(chain)
    want = functional_apply_reference(functional, chain)
    assert got == want and got.text() == want.text()


def test_b_truncates_products_and_keeps_poly_scalars():
    # m_1(x) = -T^{1/2} z; times T^{1/2} it sits at level 1, above a cutoff of 1/2
    for cutoff, expected in ((Fraction(1, 2), {}), (Fraction(3), {(3, ()): -1})):
        g1 = ALGEBRAS["G1", cutoff]
        chain = HochschildChain.generator(g1.basis, 1, (), ring(g1.spec, 1, lam=Fraction(1, 2)))
        out = hochschild_b(g1, chain)
        assert out == HochschildChain(
            g1.basis, {key: ring(g1.spec, c, lam=1) for key, c in expected.items()})
        assert _same_terms(out, hochschild_b_reference(g1, chain))
    g1 = ALGEBRAS["G1", Fraction(3)]
    path = HochschildChain.generator(g1.basis, 1, (), RingElement.monomial(g1.spec, Poly((0, 1))))
    out = hochschild_b(g1, path)
    assert out.terms[(3, ())] == {g1.spec.monomial(lam=Fraction(1, 2)): Poly((0, -1))}
    assert _same_terms(out, hochschild_b_reference(g1, path))


def _mutant_cases():
    """Seeded chains on every algebra at both cutoffs, reduced and
    unreduced, with module slots over the whole basis and coefficients of
    two monomials."""
    rng = random.Random(8)
    for name, cutoff in sorted(ALGEBRAS):
        algebra = ALGEBRAS[name, cutoff]
        basis = algebra.basis
        for reduced in (True, False):
            letters = basis.reduced_letters() if reduced else list(range(len(basis)))
            for _ in range(12):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                    terms[(rng.randrange(len(basis)), word)] = (
                        ring(algebra.spec, rng.choice((-2, -1, 1, 3)), lam=Fraction(1, 2))
                        + ring(algebra.spec, rng.choice((-1, 2)), e=rng.randint(-1, 1)))
                yield algebra, HochschildChain(basis, terms, reduced)


def _kernels_disagree(module, sums=chain_sum) -> bool:
    """Do this copy of the hochschild module and these chain sums differ
    from the references?"""
    for algebra, chain in _mutant_cases():
        try:
            pairs = _operator_outputs(module, algebra, chain, sums)
        except Exception:
            return True
        if not all(_same_terms(got, want) for got, want in pairs):
            return True
    return False


# Mutants of the raw-term kernels: name -> (module, original fragment,
# mutated fragment).  A coeff mutant reaches the operators through their
# binding of mul_into, and a graded one through their binding of
# crossing_sign; an oracles mutant is a mutated chain_sum, the chain
# arithmetic that only the tests use.
HOCHSCHILD_MUTANTS = {
    "sign dropped in mul_into": (coeff, "v1 = -v1", "v1 = v1"),
    "level cutoff skipped in mul_into": (coeff, "if lvl > top:", "if False:"),
    "wrap-around split off by one": (
        hochschild, "range(n - length + 1, n + 1)", "range(n - length, n + 1)"),
    "rotation parity uses total, not total - last": (graded, *CROSSING_MUTATION),
    "N misses its last rotation": (hochschild, "(v,) + word, 1 + len(word))",
                                   "(v,) + word, len(word))"),
    "B unit filter dropped": (hochschild, "if v == unit:", "if False:"),
    "t ignores its sign": (hochschild, "add_into({}, terms, -1) if sign < 0 else terms", "terms"),
    "b skips the reduced quotient": (hochschild, "if chain.reduced:", "if False:"),
    "- adds on a colliding key": (oracles, "add_into(dict(left), right, sign)",
                                  "add_into(dict(left), right, 1)"),
}


def test_kernel_detector_accepts_the_kernels():
    assert not _kernels_disagree(hochschild)


@pytest.mark.parametrize("name", sorted(HOCHSCHILD_MUTANTS))
def test_hochschild_mutant_killed(name, monkeypatch):
    module, old, new = HOCHSCHILD_MUTANTS[name]
    mutant = mutant_module(module, old, new)
    if module is oracles:
        assert _kernels_disagree(hochschild, mutant.chain_sum)
        return
    if module is coeff:
        monkeypatch.setattr(hochschild, "mul_into", mutant.mul_into)
        mutant = hochschild
    elif module is graded:
        monkeypatch.setattr(hochschild, "crossing_sign", mutant.crossing_sign)
        mutant = hochschild
    assert _kernels_disagree(mutant)
