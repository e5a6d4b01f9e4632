"""Reference implementations the sparse kernels are tested against.

These are the brute-force forms: expand every tensor product of the inputs
into pure words, evaluate each word, and only then find out whether the
structure tables have an entry there; assemble the operation on one word
straight from the tables; expand the curved relations on every basis word,
not only where the tables reach, and the strict unit laws on every word
with the unit in a slot; read phi_{p,q} on one basis word straight
from psi_0, and check skew-symmetry and closedness on every tuple of their
quantifiers; check the bimodule homomorphism identity on every bar word and
the negative cocycle condition on every basis chain; build every term of a
Hochschild chain operator, of a chain sum and of a functional applied to a
chain as its own ring element, on the chain's coefficients read as
RingElements, with the sign recomputed at every insertion position and
every rotation; and the coderivation on word sums.  They are slow and
obviously right, which is what an oracle should be.  The dual bimodule's
structure maps are here too, in their unflattened form (a covector applied
to m of module elements), as the reference for ``delta_dual``, and so is
the sign of one cyclic rotation; the diagonal bar differential is here as
three loops (left word, right word, absorbed windows), as the reference for
``delta_diagonal``.  The potential, the wall-crossing sums and
the rotation identity check are here as loops over every (N, p, k, q) that
recompute each m_k(b^k) and each split or y-insertion per term and weight
every term by its own 1/(N+1) (or N).
Also here: hypothesis strategies for their inputs, a helper that builds a
mutated copy of an engine module from its source, for mutation tests, with
the mutants of the crossing sign and of the two rules of the reduced
quotient that it builds, and the test-side tower builders (lazy dual images f o b and f o B, their
tabulation, coboundary towers and the connecting map) with the arithmetic
of functionals they need, the unit-insertion vanishing check, and the
homological nondegeneracy check of a pairing, a rank computation with
``exactla`` that no command runs.  The chain identity suite is here in
its per-chain form, with no early exit and no residual table: every
operator image and every residual built as a chain, with chain sums, on
every drawn chain; and the six residual maps at one chain with every
operator image computed in full, as the reference for
``hochschild.identity_residuals``.  Both run only the reference operators
here, which share no kernel, no sign function and no quotient with
``hochschild``; so do the negative cocycle reference and the lazy dual
images that the tower builders tabulate.
Also the test-only algebra, chain, ring and potential helpers: a copy of an algebra at other cutoffs
(``at_cutoffs``), chain sums on raw term maps (``chain_sum``), the
unreduced representative of a chain (``unreduced``), truncation
of a ring element at an energy, a ring with another cutoff, a scalar of the
ring, the unit of an algebra as an element, a gauge path at one value of its
variable, the strictly cyclic test on towers, and the degenerate potential
formula of strict towers.  And the argparse parser that ``cli.parse_args``
replaced, as the reference for the command-line grammar, and the regular
expression that ``coeff.as_fraction`` read fraction strings with, as the
reference for its hand-written reader.
"""

from __future__ import annotations

import argparse
import copy
import inspect
import random
import re
import sys
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from hypothesis import strategies as st

from math import ceil, inf

from ainfty.ainfty import (
    apply_m, check_weak_mc, curvature, delta_diagonal, delta_dual, insertions, phi_hat,
    require_candidate,
)
from ainfty import graded
from ainfty.cli import DEFAULT_SEED, _random_reduced_chain
from ainfty.coeff import (
    Poly, RingElement, RingSpec, add_into, as_fraction, canonical, require_compatible,
)
from ainfty.errors import ConfigurationError, DivergenceError
from ainfty.graded import Element, add_term, maltese, words_over
from ainfty.hochschild import CocycleTower, Functional, HochschildChain, iter_basis_chains
from ainfty.potential import WallCrossingDecomposition, _auto_n_max
from ainfty.report import Report

from exactla import column_space_pivots, kernel_basis, rank


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


def at_cutoffs(algebra, **cutoffs):
    """A copy of the algebra with the named cutoffs (``k_max``, ``l_max``,
    ``n_max``) set and nothing else changed, for a check at other cutoffs
    than the algebra's.  The copy does not go through the constructor,
    which would refuse unflagged tables below the arity cutoff, and it
    builds its own operation index, so an algebra of a mutated module is
    read by that module's code alone."""
    out = copy.copy(algebra)
    for name, value in cutoffs.items():
        if name not in ("k_max", "l_max", "n_max"):
            raise TypeError("not a cutoff: %s" % name)
        setattr(out, name, value)
    out._index = None
    return out


def with_cutoff(spec, cutoff) -> RingSpec:
    """The ring of ``spec`` at another energy cutoff, on the same grid."""
    return RingSpec(spec.s_degree, spec.t_degrees, as_fraction(cutoff), spec.grid)


def ring_scalar(spec, c) -> RingElement:
    """The ground-field scalar c as a ring element."""
    return RingElement(spec, {spec.one_monomial(): as_fraction(c)})


def unit_element(algebra) -> Element:
    """The unit of the algebra as a module element with coefficient 1."""
    return Element.generator(algebra.basis, algebra.basis.unit, algebra.one_ring())


def gauge_path_at(path, t) -> Element:
    """The gauge path b_t (an element with polynomial scalars) at rational t."""
    return Element(path.basis, {i: v.specialize(t) for i, v in path.components.items()})


def is_strict(tower) -> bool:
    """Strictly cyclic shape: psi_{i>0} = 0 and psi_0 on length-1 words."""
    if any(not psi.is_zero() for psi in tower.levels[1:]):
        return False
    return all(len(word) <= 1 for _, word in tower.psi0.table)


def truncate(element, energy) -> RingElement:
    """A ring element with its terms above ``energy`` dropped, in the ring
    of the smaller of the two cutoffs."""
    energy = as_fraction(energy)
    if energy < 0:
        raise ConfigurationError("truncation energy must be nonnegative")
    spec = element.spec
    return RingElement(with_cutoff(spec, min(spec.cutoff, energy)), element.terms)


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


def eval_word_reference(phi, alpha, v, beta, w) -> RingElement:
    """phi_{p,q}(alpha (x) v (x) beta)(w) read from psi_0 at one basis word.

        (-1)^{A(V+B+W)} psi_0[v | beta, w, alpha]
      - (-1)^{W(A+V+B)} psi_0[w | alpha, v, beta]

    with A, V, B, W the shifted-degree parities; an entry whose word holds
    the unit reads as zero.
    """
    basis = phi.algebra.basis
    psi0 = phi.tower.psi0
    A, V, B, W = (sum(basis.degree(i) - 1 for i in slot)
                  for slot in (alpha, (v,), beta, (w,)))
    acc = RingElement.zero(phi.algebra.spec)
    for key, sign in (((v, beta + (w,) + alpha), -1 if A * (V + B + W) % 2 else 1),
                      ((w, alpha + (v,) + beta), 1 if W * (A + V + B) % 2 else -1)):
        entry = psi0.table.get(key)
        if entry and basis.unit not in key[1]:
            acc = acc + entry.scale(sign)
    return acc


def expand_eval_elements(phi, alphas, v, betas, w) -> RingElement:
    """phi_{p,q}(alphas, v, betas)(w) by reading psi_0 on every pure word."""
    acc = RingElement.zero(phi.algebra.spec)
    one = phi.algebra.one_ring()
    for alpha, ca in _expand(alphas, one):
        for i_v, cv in v.components.items():
            for beta, cb in _expand(betas, one):
                for i_w, cw in w.components.items():
                    coeff = ca * cv * cb * cw
                    if not coeff:
                        continue
                    value = eval_word_reference(phi, alpha, i_v, beta, i_w)
                    if value:
                        acc = acc + coeff * value
    return acc


def m_word_reference(algebra, word) -> dict:
    """The assembled m_word read straight from the tables: the sum over the
    tables of arity len(word), in the order of ``ops``, of T^lam e^{mu/2}
    times the entry at the word; raises past the stored tables unless
    higher arities are marked zero, all-zero tables counting as stored."""
    k = len(word)
    if not algebra.higher_arities_zero and k > max(arity for arity, _ in algebra.ops):
        raise ConfigurationError("operation of arity %d past the stored tables" % k)
    out: Dict[int, RingElement] = {}
    for (arity, bidx), table in algebra.ops.items():
        beta = algebra.monoid[bidx]
        factor = RingElement.monomial(algebra.spec, 1, lam=beta.lam, e=beta.mu // 2)
        for comp, value in table.get(word, {}).items() if arity == k else ():
            add_term(out, comp, factor * value)
    return out


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
    """phi_hat with the final argument running over the whole basis.

    phi is read from psi_0 by ``eval_word_reference``, not from its table.
    """
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
                    value = eval_word_reference(phi, alpha, y, beta, w)
                    if value:
                        add_term(out, (lw[:p], cdeg, w, rw[q:]), coeff.scale(sign) * value)
    return out


def check_ainfty_reference(algebra) -> Report:
    """check_ainfty expanding the curved relation on every basis word."""
    report = Report("ainfty-relations")
    report.note("E_max", algebra.spec.cutoff)
    report.note("K_max", algebra.k_max)
    basis = algebra.basis
    for n in range(algebra.k_max + 1):
        for word in words_over(range(len(basis)), n):
            residual: Dict[int, RingElement] = {}
            for i, l, inner, sign in insertions(algebra, word):
                for comp, value in inner.items():
                    outer = algebra.m_word(word[:i] + (comp,) + word[i + l:])
                    for ocomp, ovalue in outer.items():
                        piece = value * ovalue
                        add_term(residual, ocomp, -piece if sign < 0 else piece)
            report.tick()
            if residual:
                report.fail(
                    "relation at n=%d %s: residual %s"
                    % (n, algebra.word_text(word), Element(basis, residual).text())
                )
    return report


def check_strict_unit_reference(algebra) -> Report:
    """check_strict_unit calling m_word on every word with the unit in a
    slot: the m_2 laws of each letter, then each arity k != 2 up to the
    cutoff, each slot, and each word of the other k - 1 letters."""
    k_max = algebra.k_max
    report = Report("strict-unit")
    report.note("E_max", algebra.spec.cutoff)
    report.note("K_max", k_max)
    basis = algebra.basis
    unit = basis.unit
    one = algebra.one_ring()
    for i in range(len(basis)):
        report.tick(2)
        left = algebra.m_word((unit, i))
        expect = {i: one}
        if {j: v for j, v in left.items() if v} != expect:
            report.fail("m2(1,%s) != %s" % (basis.names[i], basis.names[i]))
        right = algebra.m_word((i, unit))
        sign = -1 if basis.degree(i) % 2 else 1
        expect = {i: one.scale(sign)}
        if {j: v for j, v in right.items() if v} != expect:
            report.fail("m2(%s,1) != (-1)^{|%s|} %s" % (basis.names[i], basis.names[i], basis.names[i]))
    for k in range(k_max + 1):
        if k == 2:
            continue
        if k > algebra.max_stored_arity() and algebra.higher_arities_zero:
            continue
        for slot in range(k):
            for rest in words_over(range(len(basis)), k - 1):
                word = rest[:slot] + (unit,) + rest[slot:]
                report.tick()
                if algebra.m_word(word):
                    report.fail(
                        "m%d%s nonzero with the unit in slot %d"
                        % (k, algebra.word_text(word), slot)
                    )
    return report


def check_skew_reference(algebra, phi) -> Report:
    """check_skew comparing phi.eval_word on every (alpha, v, beta, w)."""
    l_max = algebra.l_max
    report = Report("skew-symmetry")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = basis.reduced_letters()
    for total in range(l_max + 1):
        for p in range(total + 1):
            for alpha in words_over(letters, p):
                for beta in words_over(letters, total - p):
                    for v in range(len(basis)):
                        for w in range(len(basis)):
                            A = sum(basis.degree(i) - 1 for i in alpha)
                            B = sum(basis.degree(i) - 1 for i in beta)
                            V = basis.degree(v) - 1
                            W = basis.degree(w) - 1
                            sign = -1 if ((A + V) * (B + W) + 1) % 2 else 1
                            lhs = phi.eval_word(alpha, v, beta, w)
                            rhs = phi.eval_word(beta, w, alpha, v).scale(sign)
                            report.tick()
                            if lhs != rhs:
                                report.fail(
                                    "alpha=%s v=%s beta=%s w=%s: %s vs %s"
                                    % (algebra.word_text(alpha), basis.names[v],
                                       algebra.word_text(beta), basis.names[w],
                                       lhs.text(), rhs.text()))
    return report


def _arrange(word, module_pos, arg_pos):
    """(alpha, module, beta, argument): beta runs from the module to the
    argument, alpha from the argument back around to the module."""
    n = len(word)
    beta = []
    i = (module_pos + 1) % n
    while i != arg_pos:
        beta.append(word[i])
        i = (i + 1) % n
    alpha = []
    i = (arg_pos + 1) % n
    while i != module_pos:
        alpha.append(word[i])
        i = (i + 1) % n
    return tuple(alpha), word[module_pos], tuple(beta), word[arg_pos]


def check_closed_reference(algebra, phi) -> Report:
    """check_closed summing phi.eval_word over every marked triple."""
    l_max = algebra.l_max
    report = Report("closedness")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    for n in range(3, l_max + 3):
        for word in words_over(basis.reduced_letters(), n):
            shifts = [basis.degree(i) - 1 for i in word]
            total = sum(shifts)
            for i in range(n - 2):
                for j in range(i + 1, n - 1):
                    for k in range(j + 1, n):
                        acc = RingElement.zero(algebra.spec)
                        for mpos, apos in ((i, j), (j, k), (k, i)):
                            prefix = sum(shifts[: mpos + 1])
                            value = phi.eval_word(*_arrange(word, mpos, apos))
                            acc = acc + (-value if prefix * (total - prefix) % 2 else value)
                        report.tick()
                        if acc:
                            report.fail("word %s triple (%d,%d,%d): residual %s"
                                        % (algebra.word_text(word), i, j, k, acc.text()))
    return report


def check_bimodule_hom_reference(algebra, phi) -> Report:
    """check_bimodule_hom evaluating the identity on every bar word."""
    l_max = algebra.l_max
    report = Report("bimodule-hom")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = basis.reduced_letters()
    one = algebra.one_ring()
    gsign = -1 if phi.degree % 2 else 1
    for total in range(l_max + 1):
        for nl in range(total + 1):
            for lw in words_over(letters, nl):
                for rw in words_over(letters, total - nl):
                    for y in range(len(basis)):
                        start = {(lw, y, rw): one}
                        lhs = phi_hat(algebra, phi, delta_diagonal(algebra, start))
                        rhs = delta_dual(algebra, phi_hat(algebra, phi, start))
                        report.tick()
                        diff = dict(lhs)
                        for key, value in rhs.items():
                            add_term(diff, key, value.scale(-gsign))
                        if diff:
                            key = sorted(diff)[0]
                            report.fail(
                                "word %s|%s|%s: %d unbalanced terms, first %r -> %s"
                                % (algebra.word_text(lw), basis.names[y],
                                   algebra.word_text(rw), len(diff), key,
                                   diff[key].text()))
    return report


def validate_negative_cocycle_reference(algebra, tower) -> Report:
    """validate_negative_cocycle comparing both sides on every basis chain,
    with b and B the reference operators.  Every level meets the algebra's
    ring in a product, so each is checked against it first, the algebra's
    cutoff first in the message."""
    l_max = algebra.l_max
    report = Report("negative-cocycle")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    report.note("depth", tower.depth)
    basis = algebra.basis
    names = basis.names
    for psi in tower.levels:
        require_compatible(algebra.spec, psi.spec)
    for module, word in iter_basis_chains(algebra, l_max):
        chain = HochschildChain.generator(basis, module, word, algebra.one_ring())
        bc = hochschild_b_reference(algebra, chain)
        Bc = connes_B_reference(basis, chain)
        for i, psi in enumerate(tower.levels):
            lhs = psi.apply(bc)
            rhs = (tower.levels[i + 1].apply(Bc) if i + 1 < len(tower.levels)
                   else RingElement.zero(algebra.spec))
            report.tick()
            if lhs != rhs:
                report.fail(
                    "level %d at [%s|%s]: b* gives %s, B* of next level gives %s"
                    % (i, names[module], ",".join(names[j] for j in word),
                       lhs.text(), rhs.text()))
    return report


@dataclass
class Covector:
    """Functional on the module, tabulated on the basis, with its own degree."""

    table: Dict[int, RingElement]
    degree: int

    @classmethod
    def dual_basis(cls, algebra, i: int) -> "Covector":
        return cls({i: algebra.one_ring()}, -algebra.basis.degree(i))

    def apply(self, element: Element, zero: Optional[RingElement] = None) -> RingElement:
        acc = None
        for i, value in element.components.items():
            entry = self.table.get(i)
            if not entry:
                continue
            piece = entry * value
            acc = piece if acc is None else acc + piece
        if acc is None:
            for value in self.table.values():
                return RingElement.zero(value.spec)
            if zero is not None:
                return zero
            raise ConfigurationError("cannot type an empty covector")
        return acc


def dual_action(algebra, k: int, l: int, left: Sequence[Element], covector: Covector,
                right: Sequence[Element], w: Element) -> RingElement:
    """Structure maps of the dual bimodule, evaluated on the final argument.

    Computes (-1)^eps covector(m_{k+l+1}(right..., w, left...)) where, with
    L and R the shifted-degree sums of the left and right words and |cov|
    the covector's unshifted degree,

        eps = |cov| + 1 + L (|cov| + R + |w|').

    The k = l = 0 case reduces to (-1)^{|cov|'} cov(m_1(w)).
    """
    if len(left) != k or len(right) != l:
        raise ConfigurationError("dual action called with mismatched word sizes")

    def shifted_sum(elements):
        total = 0
        for el in elements:
            degs = el.total_degrees()
            if len(degs) > 1:
                raise ConfigurationError("dual action needs homogeneous inputs")
            if degs:
                total += degs.pop() - 1
        return total

    wdegs = w.total_degrees()
    if len(wdegs) > 1:
        raise ConfigurationError("dual action needs a homogeneous final argument")
    w_shift = (wdegs.pop() - 1) if wdegs else 0
    lsum = shifted_sum(left)
    rsum = shifted_sum(right)
    eps = covector.degree + 1 + lsum * (covector.degree + rsum + w_shift)
    inner = apply_m(algebra, list(right) + [w] + list(left))
    value = covector.apply(inner, zero=algebra.zero_ring())
    return -value if eps % 2 else value


def delta_diagonal_reference(algebra, words):
    """delta_diagonal as three loops: insertions into the left word,
    insertions into the right word past the left word and y, and every
    window lw[p:] + (y,) + rw[:q] absorbed into the module slot through
    ``m_word``, with the sign (-1)^{maltese(lw, p)} recomputed per window.
    Unit outputs in a word slot are dropped; an absorbing window past the
    stored tables skips when higher arities are marked zero and raises
    through ``m_word`` when they are not."""
    basis = algebra.basis
    unit = basis.unit
    out = {}
    for (lw, y, rw), coeff in words.items():
        ldeg = [basis.degree(i) for i in lw]
        for i, k, inner, sign in insertions(algebra, lw):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                if comp != unit:
                    add_term(out, (lw[:i] + (comp,) + lw[i + k:], y, rw), signed * value)
        base = maltese(ldeg, len(lw)) + basis.degree(y) - 1
        for i, k, inner, sign in insertions(algebra, rw, base):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                if comp != unit:
                    add_term(out, (lw, y, rw[:i] + (comp,) + rw[i + k:]), signed * value)
        for p in range(len(lw) + 1):
            for q in range(len(rw) + 1):
                word = lw[p:] + (y,) + rw[:q]
                if len(word) > algebra.max_stored_arity() and algebra.higher_arities_zero:
                    continue
                inner = algebra.m_word(word)
                sign = -1 if maltese(ldeg, p) % 2 else 1
                for comp, value in inner.items():
                    add_term(out, (lw[:p], comp, rw[q:]), coeff.scale(sign) * value)
    return out


def delta_dual_reference(algebra, words):
    """delta_dual from dual_action and position-by-position insertions.

    A flat dual word (lw, c, arg, rw) stands for the covector of degree c
    dual to the basis element arg.  Insertions into the words are written
    out position by position (unit outputs dropped: the bar factors are
    reduced); absorbing lw[p:] and rw[:q] into the covector is dual_action
    on basis generators, read off at every basis argument w.
    """
    basis = algebra.basis
    one = algebra.one_ring()

    def gens(word):
        return [Element.generator(basis, i, one) for i in word]

    def inserted(word, base):
        degrees = [basis.degree(i) for i in word]
        for k in range(len(word) + 1):
            for i in range(len(word) - k + 1):
                sign = -1 if (base + maltese(degrees, i)) % 2 else 1
                for comp, value in algebra.m_word(word[i:i + k]).items():
                    if comp != basis.unit:
                        yield word[:i] + (comp,) + word[i + k:], value.scale(sign)

    out = {}
    for (lw, cdeg, arg, rw), coeff in words.items():
        ldeg = [basis.degree(i) for i in lw]
        for new, value in inserted(lw, 0):
            add_term(out, (new, cdeg, arg, rw), coeff * value)
        for new, value in inserted(rw, maltese(ldeg, len(lw)) + cdeg):
            add_term(out, (lw, cdeg, arg, new), coeff * value)
        covector = Covector({arg: one}, cdeg)
        for p in range(len(lw) + 1):
            for q in range(len(rw) + 1):
                left, right = lw[p:], rw[:q]
                prefix = -1 if maltese(ldeg, p) % 2 else 1
                new_cdeg = cdeg + sum(basis.degree(i) - 1 for i in left + right) + 1
                for w in range(len(basis)):
                    value = dual_action(algebra, len(left), len(right), gens(left),
                                        covector, gens(right), gens((w,))[0])
                    add_term(out, (lw[:p], new_cdeg, w, rw[q:]), coeff * value.scale(prefix))
    return out


def koszul_sign_cyclic(degrees) -> int:
    """Sign acquired when the last tensor factor moves to the front: its
    shifted degree times that of the factors it crosses."""
    if not degrees:
        raise ConfigurationError("cyclic rotation of the empty word")
    exponent = (degrees[-1] - 1) * maltese(degrees, len(degrees) - 1)
    return -1 if exponent % 2 else 1


def coderivation(algebra, words: dict) -> dict:
    """The coderivation extending the operations to word sums {word: coeff}.

    Includes the arity-0 insertions; on the empty word the arity-0 part
    produces the one-letter curvature word.
    """
    out: dict = {}
    for word, coeff in words.items():
        for i, k, inner, sign in insertions(algebra, word):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                add_term(out, word[:i] + (comp,) + word[i + k :], signed * value)
    return out


def ring_terms(chain) -> dict:
    """A chain's coefficients as RingElements: {key: RingElement}."""
    return {key: chain.coefficient(key) for key in chain.terms}


def _insertions_reference(algebra, word, base=0):
    """Every nonzero insertion m_k(word[i:i+k]) over every arity k <= len(word),
    with the sign (-1)^{base + maltese_i} recomputed at each position."""
    degrees = [algebra.basis.degree(x) for x in word]
    for k in range(len(word) + 1):
        for i in range(len(word) - k + 1):
            inner = algebra.m_word(word[i:i + k])
            if inner:
                yield i, k, inner, -1 if (base + maltese(degrees, i)) % 2 else 1


def _wraps_reference(algebra, chain) -> dict:
    """Every wrap-around of b, tail blocks of every length (the empty one
    included), visiting each split (i, j): {key: RingElement}."""
    basis = algebra.basis
    out = {}
    arity_set = set(algebra.stored_arities())
    for (v, word), coeff in ring_terms(chain).items():
        k = len(word)
        marked = [basis.degree(v)] + [basis.degree(i) for i in word]
        # wrap-around: m_{i+j+1}(a_{k-i+1}..a_k, v, a_1..a_j) keeps a_{j+1}..a_{k-i}
        for i in range(k + 1):
            tail = sum(marked[k - i + 1:]) - i
            for j in range(k - i + 1):
                if i + j + 1 not in arity_set:
                    continue
                inner = algebra.m_word(word[k - i:] + (v,) + word[:j])
                sign = -1 if (tail * maltese(marked, k - i + 1)) % 2 else 1
                for comp, value in inner.items():
                    add_term(out, (comp, word[j:k - i]), coeff.scale(sign) * value)
    return out


def reference_chain(basis, terms: dict, reduced: bool) -> HochschildChain:
    """The chain of {key: RingElement} terms, a reduced one with every key
    whose word holds the unit dropped here, so that the references do not
    read the quotient of ``hochschild``."""
    if reduced:
        terms = {key: coeff for key, coeff in terms.items() if basis.unit not in key[1]}
    return HochschildChain(basis, terms, reduced)


def unreduced(chain) -> HochschildChain:
    """The canonical unreduced representative of a chain: the same terms,
    no quotient."""
    return HochschildChain._clean(chain.basis, chain.spec, chain.terms, False)


def wraps_reference(algebra, chain) -> HochschildChain:
    """W(chain): the wrap-arounds of b with tail blocks of every length."""
    return reference_chain(algebra.basis, _wraps_reference(algebra, chain), chain.reduced)


def hochschild_b_reference(algebra, chain) -> HochschildChain:
    """b visiting every wrap-around split (i, j), one ring element per term."""
    basis = algebra.basis
    out = _wraps_reference(algebra, chain)
    for (v, word), coeff in ring_terms(chain).items():
        for p, arity, inner, sign in _insertions_reference(algebra, word, basis.degree(v) - 1):
            for comp, value in inner.items():
                add_term(out, (v, word[:p] + (comp,) + word[p + arity:]),
                         coeff.scale(sign) * value)
    return reference_chain(basis, out, chain.reduced)


def chain_bar_reference(algebra, chain) -> HochschildChain:
    """b' as the coderivation on the full marked word, one element per term."""
    out = {}
    for (v, word), coeff in ring_terms(chain).items():
        full = (v,) + word
        for p, arity, inner, sign in _insertions_reference(algebra, full):
            for comp, value in inner.items():
                new_full = full[:p] + (comp,) + full[p + arity:]
                add_term(out, (new_full[0], new_full[1:]), coeff.scale(sign) * value)
    return HochschildChain(algebra.basis, out, reduced=False)


def cyclic_t_reference(basis, chain) -> HochschildChain:
    """t with the Koszul sign of the full word recomputed for every key."""
    out = {}
    for (v, word), coeff in ring_terms(chain).items():
        full = (v,) + word
        sign = koszul_sign_cyclic([basis.degree(i) for i in full])
        rotated = (full[-1],) + full[:-1]
        add_term(out, (rotated[0], rotated[1:]), coeff.scale(sign))
    return HochschildChain(basis, out, reduced=False)


def operator_N_reference(basis, chain) -> HochschildChain:
    """N as 1 + t + ... + t^{n-1}, applying t to one key at a time."""
    out = {}
    for key, coeff in ring_terms(chain).items():
        piece = HochschildChain(basis, {key: coeff}, reduced=False)
        for _ in range(1 + len(key[1])):
            for pkey, pcoeff in ring_terms(piece).items():
                add_term(out, pkey, pcoeff)
            piece = cyclic_t_reference(basis, piece)
    return HochschildChain(basis, out, reduced=False)


def connes_B_reference(basis, chain) -> HochschildChain:
    """B as the unit put in front of every rotation that has no unit in it."""
    if not chain.reduced:
        raise ConfigurationError("the Connes operator is only available on reduced chains")
    unit = basis.unit
    out = {}
    for (v, word), coeff in ring_terms(chain).items():
        current = (v,) + word
        acc = coeff
        for _ in range(len(current)):
            if unit not in current:
                add_term(out, (unit, current), acc)
            if koszul_sign_cyclic([basis.degree(i) for i in current]) < 0:
                acc = -acc
            current = (current[-1],) + current[:-1]
    return HochschildChain(basis, out, True)


def chain_sum(chain, other, sign: int = 1) -> HochschildChain:
    """chain + sign * other on raw term maps, in one pass over the terms of
    other; the chains must share a reduced flag and a ring."""
    if chain.reduced != other.reduced:
        raise ConfigurationError("cannot mix reduced and unreduced chains")
    spec = other.spec if chain.spec is None else chain.spec
    if other.spec is not None:
        require_compatible(spec, other.spec)
    terms = dict(chain.terms)
    for key, right in other.terms.items():
        left = terms.get(key)
        if left is None:
            terms[key] = right if sign > 0 else add_into({}, right, -1)
            continue
        total = canonical(add_into(dict(left), right, sign))
        if total:
            terms[key] = total
        else:
            del terms[key]
    return HochschildChain._clean(chain.basis, spec, terms, chain.reduced)


def chain_sum_reference(left, right, sign: int) -> HochschildChain:
    """left + sign * right, summed key by key as RingElements."""
    out = ring_terms(left)
    for key, coeff in ring_terms(right).items():
        add_term(out, key, coeff if sign > 0 else -coeff)
    return reference_chain(left.basis, out, left.reduced)


def functional_apply_reference(functional, chain) -> RingElement:
    """A functional on a chain: the sum of its entries times the chain's
    coefficients, one RingElement product per key."""
    acc = RingElement.zero(functional.spec)
    for key, coeff in ring_terms(chain).items():
        entry = functional.table.get(key)
        if entry:
            acc = acc + entry * coeff
    return acc


def _identity_images(algebra, c) -> list:
    """The six chain identities at a reduced chain c as chains, with every
    operator image computed in full by the reference operators above, which
    share no kernel and no sign function with ``hochschild``."""
    basis = algebra.basis
    u = HochschildChain(basis, ring_terms(c), reduced=False)
    bu = hochschild_b_reference(algebra, u)
    bc = reference_chain(basis, ring_terms(bu), reduced=True)
    Bc = connes_B_reference(basis, c)
    bar_u = chain_bar_reference(algebra, u)
    tu = cyclic_t_reference(basis, u)
    rotation = chain_sum_reference(
        chain_sum_reference(hochschild_b_reference(algebra, chain_sum_reference(u, tu, -1)),
                            bar_u, -1), cyclic_t_reference(basis, bar_u), 1)
    return [
        ("b^2", hochschild_b_reference(algebra, bc)),
        ("B^2", connes_B_reference(basis, Bc)),
        ("bB+Bb", chain_sum_reference(hochschild_b_reference(algebra, Bc),
                                      connes_B_reference(basis, bc), 1)),
        ("b'^2", chain_bar_reference(algebra, bar_u)),
        ("b(1-t)-(1-t)b'", rotation),
        ("b'N-Nb", chain_sum_reference(chain_bar_reference(algebra, operator_N_reference(basis, u)),
                                       operator_N_reference(basis, bu), -1)),
    ]


def identity_residuals_reference(algebra, raw) -> list:
    """The six chain identities at a reduced chain c, given by its raw map
    ``raw``, as raw residual maps, with every operator image of each
    identity computed in full.

    Returns [(tag, {key: {Monomial: scalar}})] for b^2, B^2, bB+Bb, b'^2,
    b(1-t)-(1-t)b' and b'N-Nb, in that order (``_identity_images``).
    """
    chain = HochschildChain._clean(algebra.basis, algebra.spec, raw, True)
    return [(tag, image.terms) for tag, image in _identity_images(algebra, chain)]


def chain_identity_suite_reference(algebra, count, seed, max_len=5) -> Report:
    """Randomized differential and rotation identities, exact per chain."""
    rng = random.Random(seed)
    report = Report("chain-identities")
    report.note("E_max", algebra.spec.cutoff)
    report.note("chains", count)
    report.note("max_length", max_len)
    report.note("seed", seed)
    basis = algebra.basis
    for n in range(count):
        c = HochschildChain._clean(basis, algebra.spec,
                                   _random_reduced_chain(algebra, rng, max_len), True)
        checks = _identity_images(algebra, c)
        report.tick(len(checks))
        for tag, value in checks:
            if not value.is_zero():
                report.fail("%s nonzero on chain #%d: %s" % (tag, n, value.text()))
    return report


def functional_scale(f, r) -> Functional:
    """r * f, entry by entry."""
    return Functional(f.basis, f.spec, {k: r * v for k, v in f.table.items()})


def functional_sum(f, g, sign: int = 1) -> Functional:
    """f + sign * g, summed entry by entry."""
    table = dict(f.table)
    for key, value in g.table.items():
        add_term(table, key, value if sign > 0 else -value)
    return Functional(f.basis, f.spec, table)


class PrecomposedFunctional:
    """Lazy dual image f o op, evaluated chainwise (op in {b, B})."""

    def __init__(self, algebra, base, operator: str):
        self.algebra = algebra
        self.base = base
        self.operator = operator

    def apply(self, chain) -> RingElement:
        if self.operator == "b":
            return self.base.apply(hochschild_b_reference(self.algebra, chain))
        if self.operator == "B":
            return self.base.apply(connes_B_reference(self.algebra.basis, chain))
        raise ConfigurationError("unknown dual operator %r" % self.operator)


def dual_b_star(algebra, f) -> PrecomposedFunctional:
    return PrecomposedFunctional(algebra, f, "b")


def dual_B_star(algebra, f) -> PrecomposedFunctional:
    return PrecomposedFunctional(algebra, f, "B")


def tabulate(algebra, functional, l_max: int) -> Functional:
    """Materialize a lazy functional on all basis chains up to a word length."""
    table = {}
    for module, word in iter_basis_chains(algebra, l_max):
        chain = HochschildChain.generator(
            algebra.basis, module, word, algebra.one_ring(), reduced=True
        )
        value = functional.apply(chain)
        if value:
            table[(module, word)] = value
    return Functional(algebra.basis, algebra.spec, table)


def coboundary_tower(algebra, chis: Sequence[Functional], l_max: int,
                     name="coboundary") -> CocycleTower:
    """The tower psi_i = b* chi_i - B* chi_{i+1}; a cocycle for any input."""
    levels = []
    for i, chi in enumerate(chis):
        psi = tabulate(algebra, dual_b_star(algebra, chi), l_max)
        if i + 1 < len(chis):
            psi = functional_sum(
                psi, tabulate(algebra, dual_B_star(algebra, chis[i + 1]), l_max), -1)
        levels.append(psi)
    return CocycleTower(tuple(levels), name=name)


def connecting_map(algebra, chis: Sequence[Functional], l_max: Optional[int] = None,
                   name="connected") -> CocycleTower:
    """Levelwise B* image of positive-column data (u^0 column first).

    If the input satisfies the positive cocycle condition (b* chi_0 = 0 and
    b* chi_m = -B* chi_{m-1}), the output tower validates.
    """
    l_max = algebra.l_max if l_max is None else l_max
    levels = [tabulate(algebra, dual_B_star(algebra, chi), l_max) for chi in chis]
    return CocycleTower(tuple(levels), name=name)


def unit_insertion_vanishing(algebra, phi, b) -> Report:
    """Do phi_{p,q}(b^p, 1, b^q)(1) vanish for 0 < p+q <= n_max?

    This verifies a vanishing claim on the given input; a nonzero term is
    reported as not reproduced, not as an engine error.
    """
    n_max = algebra.n_max
    report = Report("unit-insertion-vanishing")
    report.note("E_max", algebra.spec.cutoff)
    report.note("N_max", n_max)
    ok, c, _ = check_weak_mc(algebra, b)
    if not ok:
        raise ConfigurationError("unit insertion check requires a weak MC element")
    report.note("c", c.text())
    unit = unit_element(algebra)
    for total in range(1, n_max + 1):
        for p in range(total + 1):
            q = total - p
            value = phi.eval_elements([b] * p, unit, [b] * q, unit)
            report.tick()
            if value:
                report.fail(
                    "claim not reproduced on this input: p=%d q=%d gives %s"
                    % (p, q, value.text())
                )
    return report


def homological_nondegeneracy(algebra, phi):
    """Full-rank test of phi_{0,0} on the homology of the classical part.

    Reduces the algebra at energy zero and the neutral monoid element, takes
    homology of m_{1,(0,0)} by exact elimination, evaluates the pairing
    matrix on the lexicographically first representatives at valuation zero
    (with the index variable e specialized to 1), and reports the rank.
    Returns (nondegenerate, certificate).
    """
    basis = algebra.basis
    n = len(basis)
    neutral = [i for i, beta in enumerate(algebra.monoid) if beta.lam == 0]
    d = [[Fraction(0)] * n for _ in range(n)]
    for (k, bidx), table in algebra.ops.items():
        if k != 1 or bidx not in neutral:
            continue
        for word, out in table.items():
            for comp, value in out.items():
                mono = algebra.spec.one_monomial()
                d[comp][word[0]] += Fraction(value.coefficient(mono))
    # d must square to zero on the classical part
    for i in range(n):
        for j in range(n):
            if sum(d[i][k] * d[k][j] for k in range(n)) != 0:
                raise ConfigurationError("classical differential does not square to zero")
    kernel = kernel_basis(d)
    image_cols = [[d[i][j] for j in range(n)] for i in range(n)]
    # representatives: kernel vectors independent modulo the image, kept in
    # the elimination order (lexicographically first complement basis)
    spanning = [[d[i][c] for i in range(n)] for c in column_space_pivots(image_cols)]
    reps = []
    for vec in kernel:
        candidate = spanning + [list(vec)]
        if rank(candidate) > len(spanning):
            reps.append(list(vec))
            spanning.append(list(vec))
    hom_dim = len(reps)

    def classical_value(value: RingElement) -> Fraction:
        total = Fraction(0)
        for mono, c in value.terms.items():
            if mono.lvl == 0 and mono.s == 0 and all(a == 0 for a in mono.t):
                total += Fraction(c)  # e specialized to 1
        return total

    pairing = [[Fraction(0)] * hom_dim for _ in range(hom_dim)]
    for a in range(hom_dim):
        for c in range(hom_dim):
            total = Fraction(0)
            for i in range(n):
                if reps[a][i] == 0:
                    continue
                for j in range(n):
                    if reps[c][j] == 0:
                        continue
                    total += reps[a][i] * reps[c][j] * classical_value(
                        phi.eval_word((), i, (), j)
                    )
            pairing[a][c] = total
    prank = rank(pairing) if hom_dim else 0
    certificate = {
        "homology_dimension": hom_dim,
        "representatives": [
            {basis.names[i]: str(v) for i, v in enumerate(vec) if v} for vec in reps
        ],
        "pairing_matrix": [[str(x) for x in row] for row in pairing],
        "rank": prank,
    }
    return prank == hom_dim, certificate


def infty_cyclic_potential_reference(algebra, phi, x) -> RingElement:
    """Phi'(x) over every (N, p, k, q), with m_k(x^k) computed per term."""
    require_candidate(algebra, x)
    total = RingElement.zero(algebra.spec)
    for N in range(_auto_n_max(algebra, x) + 1):
        level = RingElement.zero(algebra.spec)
        for p in range(N + 1):
            for k in range(N - p + 1):
                q = N - p - k
                mk = apply_m(algebra, [x] * k)
                if mk.is_zero():
                    continue
                level = level + phi.eval_elements([x] * p, mk, [x] * q, x)
        total = total + level.divide_int(N + 1)
    return total


def weak_cyclic_sums_reference(algebra, phi, b, y) -> list:
    """[(lhs, rhs)] of the rotation identity at each level N <= n_max, over
    every (N, p, k, q), recomputing m_k(b^k) and each y-insertion per term
    and scaling every left term by N."""
    sums = []
    for N in range(algebra.n_max + 1):
        lhs = RingElement.zero(algebra.spec)
        rhs = RingElement.zero(algebra.spec)
        for p in range(N + 1):
            for k in range(N - p + 1):
                q = N - p - k
                bs_p = [b] * p
                bs_q = [b] * q
                mk = apply_m(algebra, [b] * k)
                lhs = lhs + phi.eval_elements(bs_p, mk, bs_q, y).scale(N)
                for r in range(k):
                    inner = apply_m(algebra, [b] * r + [y] + [b] * (k - 1 - r))
                    rhs = rhs + phi.eval_elements(bs_p, inner, bs_q, b)
                for r in range(p):
                    left = [b] * r + [y] + [b] * (p - 1 - r)
                    rhs = rhs + phi.eval_elements(left, mk, bs_q, b)
                for r in range(q):
                    right = [b] * r + [y] + [b] * (q - 1 - r)
                    rhs = rhs + phi.eval_elements(bs_p, mk, right, b)
        sums.append((lhs, rhs))
    return sums


def weak_cyclic_check_reference(algebra, phi, b, y) -> Report:
    """weak_cyclic_check from ``weak_cyclic_sums_reference``."""
    report = Report("weak-cyclic")
    report.note("E_max", algebra.spec.cutoff)
    report.note("N_max", algebra.n_max)
    if b and not b.is_homogeneous(1):
        raise ConfigurationError("the rotation identity needs |b| = 1")
    if b.valuation() <= 0:
        raise DivergenceError("b must have positive valuation")
    for N, (lhs, rhs) in enumerate(weak_cyclic_sums_reference(algebra, phi, b, y)):
        report.tick()
        if lhs != rhs:
            report.fail("N=%d: lhs %s, rhs %s" % (N, lhs.text(), rhs.text()))
    return report


def strict_cyclic_potential(algebra, tower, b) -> RingElement:
    """Degenerate formula sum_k 1/(k+1) <m_k(b^k), b> for strict towers.

    <v, w> is the two-slot antisymmetrization of the pairing table, written
    out directly; this is an independent code path from the general
    evaluator and must agree with it on strict towers (acceptance
    criterion 8).
    """
    if not is_strict(tower):
        raise ConfigurationError("strict potential needs a strictly cyclic tower")
    require_candidate(algebra, b)
    basis = algebra.basis
    unit = basis.unit
    table = tower.psi0.table

    def pair(velt: Element, welt: Element) -> RingElement:
        acc = RingElement.zero(algebra.spec)
        for i, ci in velt.components.items():
            for j, cj in welt.components.items():
                coeff = ci * cj
                if not coeff:
                    continue
                if j != unit:
                    entry = table.get((i, (j,)))
                    if entry:
                        acc = acc + coeff * entry
                if i != unit:
                    entry = table.get((j, (i,)))
                    if entry:
                        shift_i = basis.degree(i) - 1
                        shift_j = basis.degree(j) - 1
                        sign = 1 if (shift_j * shift_i) % 2 else -1
                        acc = acc + coeff * (entry.scale(sign) if sign < 0 else entry)
        return acc

    total = RingElement.zero(algebra.spec)
    for k in range(_auto_n_max(algebra, b) + 1):
        mk = apply_m(algebra, [b] * k)
        if mk.is_zero():
            continue
        total = total + pair(mk, b).divide_int(k + 1)
    return total


def wall_crossing_decomposition_reference(algebra, phi, b):
    """The wall-crossing sums over every (N, p, k, q) and every (p, q) of
    i1_rhs and error_term, each term weighted by its own 1/(N+1), each split
    insertion recomputed, and the curvature computed twice."""
    require_candidate(algebra, b)
    n_max = algebra.n_max
    zero = RingElement.zero(algebra.spec)
    ksplit = psplit = qsplit = output = clsum = zero
    m_of = {}

    def mk(k):
        if k not in m_of:
            m_of[k] = apply_m(algebra, [b] * k)
        return m_of[k]

    for N in range(n_max + 1):
        for p in range(N + 1):
            for k in range(N - p + 1):
                q = N - p - k
                bs_p = [b] * p
                bs_q = [b] * q
                for k2 in range(k + 2):
                    k1 = k + 1 - k2
                    inner = mk(k2)
                    if inner.is_zero():
                        continue
                    weight = Fraction(1, N + 1)
                    for r in range(k1):
                        outer = apply_m(algebra, [b] * r + [inner] + [b] * (k1 - 1 - r))
                        if not outer.is_zero():
                            ksplit = ksplit + phi.eval_elements(
                                bs_p, outer, bs_q, b).scale(weight)
                    m_k1 = mk(k1)
                    for r in range(p):
                        left = [b] * r + [inner] + [b] * (p - 1 - r)
                        psplit = psplit + phi.eval_elements(left, m_k1, bs_q, b).scale(weight)
                    for r in range(q):
                        right = [b] * r + [inner] + [b] * (q - 1 - r)
                        qsplit = qsplit + phi.eval_elements(bs_p, m_k1, right, b).scale(weight)
                    value = phi.eval_elements(bs_p, m_k1, bs_q, inner)
                    output = output + value.scale(Fraction(k2, N + 1))
                    clsum = clsum + value.scale(Fraction(N + 1 - k2, N + 1))

    cur = curvature(algebra, b)
    nu = b.valuation()
    reach = n_max
    if nu is not inf and nu > 0:
        reach = max(n_max, int(ceil(as_fraction(algebra.spec.cutoff) / as_fraction(nu))))
    i1_rhs = zero
    for p in range(reach + 1):
        for q in range(reach - p + 1):
            i1_rhs = i1_rhs + phi.eval_elements([b] * p, cur, [b] * q, cur)
    _, c, _ = check_weak_mc(algebra, b)
    shifted = cur - unit_element(algebra).scale(c)
    error_term = zero
    for p in range(reach + 1):
        for q in range(reach - p + 1):
            error_term = error_term + phi.eval_elements([b] * p, shifted, [b] * q, shifted)
    diag_deformed = phi.eval_elements([], cur, [], cur)
    m2_cur = apply_m(algebra, [cur, cur])
    unit = algebra.basis.unit
    diag_trace = zero
    for comp, value in m2_cur.components.items():
        entry = phi.tower.psi0.table.get((unit, (comp,))) if comp != unit else None
        if entry:
            diag_trace = diag_trace + entry * value
    return WallCrossingDecomposition(
        ksplit=ksplit, psplit=psplit, qsplit=qsplit, output=output, clsum=clsum,
        error_term=error_term, i1_rhs=i1_rhs,
        residual_i1=(clsum + output) - i1_rhs,
        residual_i2=(ksplit + psplit + qsplit) - clsum,
        diagnostics={
            "phi(m0^b)(m0^b)": diag_deformed,
            "psi0[1|m2(m0^b,m0^b)]": diag_trace,
        },
    )


# The one home of the Koszul crossing sign, mutated to read the rest of the
# cyclic word as the whole word: (original fragment, mutated fragment) in
# ``graded``.
CROSSING_MUTATION = ("block * (total - block)", "block * total")


def crossing_sign_mutant():
    """``graded.crossing_sign`` with CROSSING_MUTATION applied.

    ``mutant_module`` copies one module, and each consumer reads its own
    binding of the sign, so a test patches this into the binding of the
    consumer it means to reach.
    """
    return mutant_module(graded, *CROSSING_MUTATION).crossing_sign


# The two rules of the reduced quotient, each mutated to keep everything:
# (original fragment, mutated fragment) in ``graded``.
REDUCED_MUTATION = ("return unit not in word", "return True")
QUOTIENT_MUTATION = ("return {key: value for key, value in raw.items()\n"
                     "            if (key != unit if type(key) is int else unit not in key[1])}",
                     "return raw")


def reduced_mutant():
    """``graded.reduced`` with REDUCED_MUTATION applied: every word is
    reduced.  Each consumer reads its own binding of the rule, so a test
    patches this into the binding of the consumer it means to reach."""
    return mutant_module(graded, *REDUCED_MUTATION).reduced


def quotient_mutant():
    """``graded.quotient`` with QUOTIENT_MUTATION applied: the identity,
    which drops no output; patched in one binding at a time, as
    ``reduced_mutant``."""
    return mutant_module(graded, *QUOTIENT_MUTATION).quotient


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


def argparse_reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfty",
        description="exact verification engine for curved A-infinity algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "relations, strict unit, chain-level identities"),
        ("cocycle", "tower validation plus inner-product checks"),
        ("mc", "weak Maurer-Cartan check, optionally order-by-order solving"),
        ("potential", "cyclic and full potentials of the candidates"),
        ("gauge", "gauge path check: MC over the extended ring, d/dt = 0"),
        ("wallcross", "wall-crossing decomposition and pair report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="document path")
        p.add_argument("--emax", default=None, help="energy cutoff override (fraction)")
        p.add_argument("--kmax", type=int, default=None, help="arity cutoff override")
        p.add_argument("--lmax", type=int, default=None, help="word-length cutoff override")
        p.add_argument("--nmax", type=int, default=None, help="level cutoff override")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for randomized suites (default %d)" % DEFAULT_SEED)
        p.add_argument("--report", default=None, help="also write the report to this path")
        if name == "check":
            p.add_argument("--chains", type=int, default=200,
                           help="random chains for the identity suite")
        if name == "mc":
            p.add_argument("--solve", action="store_true",
                           help="run the order-by-order solver from the seed candidate")
        if name in ("cocycle", "potential", "gauge", "wallcross"):
            p.add_argument("--tower", default=None, help="tower name (default: first)")
    return parser


# An exact fraction string as coeff.as_fraction once matched it: an optional
# sign, ASCII digits, and an optional denominator of ASCII digits.
FRACTION_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def fraction_text_reference(text: str) -> Fraction:
    """The value of a fraction string, read with ``FRACTION_TEXT``; the
    same ConfigurationError as ``as_fraction`` for one it refuses."""
    if not FRACTION_TEXT.fullmatch(text):
        raise ConfigurationError("not an exact rational: %r" % (text,))
    numerator, _, denominator = text.partition("/")
    try:
        numerator, denominator = int(numerator), int(denominator or 1)
    except ValueError:  # past the interpreter's digit limit for int()
        raise ConfigurationError("fraction with more digits than int() reads")
    if denominator == 0:
        raise ConfigurationError("zero denominator: %r" % (text,))
    return Fraction(numerator, denominator)
