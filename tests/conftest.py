"""Shared fixtures: reference algebras, towers, randomized generators."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ainfty.ainfty import AInftyAlgebra
from ainfty.coeff import RingElement, RingSpec
from ainfty.graded import Element, GradedBasis
from ainfty.hochschild import CocycleTower, Functional, chain_degree, iter_basis_chains

from oracles import coboundary_tower, dual_B_star, tabulate


def ring(spec, coeff=1, lam=0, e=0, s=0, t=None):
    return RingElement.monomial(spec, coeff, lam=lam, e=e, s=s, t=t)


def make_e1(cutoff=3):
    """Unital algebra on 1, x with x*x = 0 and nothing else."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "x"), (0, 1), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: -one}},
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec, name="E1")


def make_e2(cutoff=3):
    """E1 plus curvature T e at the monoid element (1, 2)."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "x"), (0, 1), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: -one}},
        (0, 1): {(): {0: one}},
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0), (Fraction(1), 2)), ops, spec, name="E2")


def make_g1(cutoff=3):
    """Two degree-1 generators with a differential and a noncommutative square.

    m1(x) = m1(y) = -T^{1/2} z and x*x = x*y = z, so b_t = T^{1/2}(x + t y)
    is a polynomial family of bounding cochains whose individual terms do
    not vanish.
    """
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "x", "y", "z"), (0, 1, 1, 2), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {
            (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
            (1, 0): {1: -one}, (2, 0): {2: -one}, (3, 0): {3: one},
            (1, 1): {3: one}, (1, 2): {3: one},
        },
        (1, 1): {(1,): {3: -one}, (2,): {3: -one}},
    }
    return AInftyAlgebra(
        basis, ((Fraction(0), 0), (Fraction(1, 2), 0)), ops, spec, name="G1"
    )


def make_p1(cutoff=3):
    """Truncated polynomial algebra on an even generator: u*u = v, u*v = 0."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "u", "v"), (0, 2, 4), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {
            (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
            (1, 0): {1: one}, (2, 0): {2: one}, (1, 1): {2: one},
        }
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec, name="P1")


def make_q1(cutoff=3):
    """Arity-3 content: m3(u, u, u) = z on an even generator."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "u", "z"), (0, 2, 5), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {
            (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
            (1, 0): {1: one}, (2, 0): {2: -one},
        },
        (3, 0): {(1, 1, 1): {2: one}},
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0),), ops, spec, name="Q1")


def make_sv1(cutoff=3):
    """Solvable curvature: m0 = T z is killed by b = -T u with m1(u) = z."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "u", "z"), (0, 1, 2), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {
            (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
            (1, 0): {1: -one}, (2, 0): {2: one},
        },
        (1, 0): {(1,): {2: one}},
        (0, 1): {(): {2: one}},
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0), (Fraction(1), 0)), ops, spec, name="SV1")


def make_ob1(cutoff=3):
    """Unresolvable curvature: m0 = T z with no differential to absorb it."""
    spec = RingSpec(s_degree=2, t_degrees=(), cutoff=Fraction(cutoff))
    basis = GradedBasis(("1", "u", "z"), (0, 1, 2), unit=0)
    one = RingElement.one(spec)
    ops = {
        (2, 0): {
            (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
            (1, 0): {1: -one}, (2, 0): {2: one},
        },
        (0, 1): {(): {2: one}},
    }
    return AInftyAlgebra(basis, ((Fraction(0), 0), (Fraction(1), 0)), ops, spec, name="OB1")


def poincare_tower(algebra):
    """The pairing <1, x> = 1 as a depth-0 tower (E1/E2 basis layout)."""
    return CocycleTower(
        (Functional(algebra.basis, algebra.spec,
                    {(0, (1,)): RingElement.one(algebra.spec)}),),
        name="poincare",
    )


def random_functional(algebra, rng, d, max_len=3, density=0.5):
    """Degree-homogeneous functional with random rational entries."""
    table = {}
    for module, word in iter_basis_chains(algebra, max_len):
        if rng.random() > density:
            continue
        deg = chain_degree(algebra.basis, module, word)
        out_deg = d + deg
        if out_deg % 2 != 0:
            continue
        coeff = Fraction(rng.randint(-3, 3))
        if not coeff:
            continue
        table[(module, word)] = ring(
            algebra.spec, coeff, lam=Fraction(rng.randint(0, 2), 2), e=out_deg // 2
        )
    return Functional(algebra.basis, algebra.spec, table)


def random_bstar_tower(algebra, rng, d_choices=(-2, 0, 2), max_len=3, l_max=4):
    """B*-image of random positive data; valid when the algebra's reduced
    differential kills it (always over E1) or by the anticommutation."""
    chi = random_functional(algebra, rng, d=rng.choice(d_choices), max_len=max_len)
    psi0 = tabulate(algebra, dual_B_star(algebra, chi), l_max)
    return CocycleTower((psi0,), name="bstar")


def random_coboundary_tower(algebra, rng, d_base, levels=2, max_len=2, l_max=4):
    chis = [random_functional(algebra, rng, d=d_base + 2 * i, max_len=max_len)
            for i in range(levels)]
    return coboundary_tower(algebra, chis, l_max=l_max)


def random_degree_one(algebra, rng, letters=None, allow_st=False):
    """Random homogeneous degree-1 element of positive valuation."""
    basis = algebra.basis
    if letters is None:
        letters = [i for i in range(len(basis)) if basis.degree(i) % 2 == 1]
    comp = {}
    for i in letters:
        coeff = Fraction(rng.randint(-3, 3))
        if not coeff:
            continue
        extra = basis.degree(i) - 1  # compensate with e so total degree is 1
        if extra % 2 != 0:
            continue
        value = ring(algebra.spec, coeff, lam=Fraction(rng.randint(1, 4), 2), e=-extra // 2)
        if allow_st and rng.random() < 0.3 and algebra.spec.num_t:
            value = value + ring(
                algebra.spec, Fraction(rng.randint(-2, 2)),
                lam=Fraction(rng.randint(0, 2), 2),
                e=(-extra - algebra.spec.t_degrees[0]) // 2
                if (extra + algebra.spec.t_degrees[0]) % 2 == 0 else 0,
                t=[1] + [0] * (algebra.spec.num_t - 1),
            )
        comp[i] = value
    return Element(basis, comp)


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def e2():
    return make_e2()


@pytest.fixture
def g1():
    return make_g1()


@pytest.fixture
def p1():
    return make_p1()


@pytest.fixture
def q1():
    return make_q1()


@pytest.fixture
def rng():
    return random.Random(20240601)
