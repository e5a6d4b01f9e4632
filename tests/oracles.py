"""Reference implementations the sparse kernels are tested against.

These are the brute-force forms: expand every tensor product of the inputs
into pure words, evaluate each word, and only then find out whether the
structure tables have an entry there.  They are slow and obviously right,
which is what an oracle should be.  Also here: hypothesis strategies for
their inputs, and a helper that builds a mutated copy of an engine module
from its source, for mutation tests.
"""

from __future__ import annotations

import inspect
import sys
import types
from fractions import Fraction
from typing import Dict

from hypothesis import strategies as st

from ainfty.ainfty import _dadd
from ainfty.coeff import Poly, RingElement
from ainfty.graded import Element, maltese


SCALARS = ("rational", "poly", "mixed")


def coefficients(spec, scalars="rational"):
    """One or two monomials with small mixed-sign scalars of the given kind."""
    rational = st.integers(-2, 2).filter(bool)
    poly = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(Poly).filter(bool)
    values = {"rational": rational, "poly": poly, "mixed": st.one_of(rational, poly)}[scalars]
    monomial = st.builds(
        lambda c, lam, e: RingElement.monomial(spec, c, lam=Fraction(lam, 2), e=e),
        values, st.integers(0, 1), st.integers(-1, 1))
    return st.lists(monomial, min_size=1, max_size=2).map(lambda ms: sum(ms[1:], ms[0]))


def elements(algebra, scalars="rational"):
    """Module elements on one to four basis components, the unit included."""
    return st.dictionaries(st.integers(0, len(algebra.basis) - 1),
                           coefficients(algebra.spec, scalars), min_size=1, max_size=4
                           ).map(lambda comps: Element(algebra.basis, comps))


def _expand(factors, one):
    """Every pure word of factors[0] (x) ... with its nonzero coefficient."""
    stack = [((), one)]
    for el in factors:
        new = []
        for word, coeff in stack:
            for i, value in el.components.items():
                c = coeff * value
                if c:
                    new.append((word + (i,), c))
        stack = new
    return stack


def expand_eval_elements(phi, alphas, v, betas, w) -> RingElement:
    """phi_{p,q}(alphas, v, betas)(w) by evaluating phi on every pure word."""
    acc = RingElement.zero(phi.algebra.spec)
    one = phi.algebra.one_ring()
    for alpha, ca in _expand(alphas, one):
        for i_v, cv in v.components.items():
            for beta, cb in _expand(betas, one):
                for i_w, cw in w.components.items():
                    coeff = ca * cv * cb * cw
                    if not coeff:
                        continue
                    value = phi.eval_word(alpha, i_v, beta, i_w)
                    if value:
                        acc = acc + coeff * value
    return acc


def expand_apply_m(algebra, inputs) -> Element:
    """m_k(inputs) by evaluating the assembled operation on every pure word."""
    acc: Dict[int, RingElement] = {}
    for word, coeff in _expand(inputs, algebra.one_ring()):
        for comp, value in algebra.m_word(word).items():
            piece = coeff * value
            if not piece:
                continue
            old = acc.get(comp)
            acc[comp] = piece if old is None else old + piece
    return Element(algebra.basis, acc)


def phi_hat_all_arguments(algebra, phi, words):
    """phi_hat with the final argument running over the whole basis."""
    basis = algebra.basis
    out = {}
    d = phi.degree
    for (lw, y, rw), coeff in words.items():
        ldeg = [basis.degree(i) for i in lw]
        for p in range(len(lw) + 1):
            for q in range(len(rw) + 1):
                alpha = lw[p:]
                beta = rw[:q]
                sign = -1 if (maltese(ldeg, p) * d) % 2 else 1
                cdeg = d + sum(basis.degree(i) - 1 for i in alpha) \
                    + (basis.degree(y) - 1) + sum(basis.degree(i) - 1 for i in beta)
                for w in range(len(basis)):
                    value = phi.eval_word(alpha, y, beta, w)
                    if value:
                        _dadd(out, (lw[:p], cdeg, w, rw[q:]), coeff.scale(sign) * value)
    return out


def mutant_module(module, old: str, new: str):
    """A fresh copy of an engine module with one source fragment replaced.

    The fragment must occur exactly once, so a mutant cannot silently stop
    applying when the code around it changes.
    """
    source = inspect.getsource(module)
    if source.count(old) != 1:
        raise AssertionError("mutation site occurs %d times in %s"
                             % (source.count(old), module.__name__))
    mutant = types.ModuleType(module.__name__ + "_mutant")
    mutant.__package__ = module.__package__
    mutant.__file__ = module.__file__
    # dataclasses look their module up while the class is being built
    sys.modules[mutant.__name__] = mutant
    try:
        exec(compile(source.replace(old, new), module.__file__, "exec"), mutant.__dict__)
    finally:
        del sys.modules[mutant.__name__]
    return mutant
