"""Infinity-inner products built from negative cyclic cocycles.

The evaluator phi_{p,q}(alpha (x) v (x) beta)(w) antisymmetrizes the lowest
tower level psi_0 over the two markings of the cyclic word (alpha, v, beta,
w): once with w as the module slot and once with v.  Each reading pays the
Koszul cost of rotating the cyclic word so its module slot comes first:

    phi_{p,q}(alpha (x) v (x) beta)(w) =
        (-1)^{A(V+B+W)} psi_0[v | beta, w, alpha]
      - (-1)^{W(A+V+B)} psi_0[w | alpha, v, beta]

with A, B, V, W the shifted-degree parities of alpha, beta, v, w.  The
relative sign and the currying factors are pinned by three exact facts
verified in the test suite: the bimodule homomorphism property, the trace
identity against psi_0, and skew-symmetry with sign kappa + 1 where
kappa = (A+V)(B+W).  (A two-term antisymmetrization can only ever satisfy
the skew relation with the extra flip; the engine's diagonal consequence --
phi_{0,0}(v)(v) = 0 for even |v|' -- depends on it.)

Words with the unit in a non-module, non-final slot evaluate to zero
because the tower lives on reduced chains.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .ainfty import AInftyAlgebra, apply_m
from .coeff import RingElement
from .errors import ConfigurationError, DivergenceError, TowerError
from .exactla import column_space_pivots
from .graded import Element, Word, tensor_coefficient, words_over
from .hochschild import CocycleTower, validate_negative_cocycle
from .report import Report


def reading_signs(A: int, V: int, B: int, W: int):
    """Signs of the two readings of phi_{p,q}(alpha (x) v (x) beta)(w).

    (-1)^{A(V+B+W)} on psi_0[v | beta, w, alpha] and -(-1)^{W(A+V+B)} on
    psi_0[w | alpha, v, beta], with A, V, B, W the shifted-degree parities.
    """
    return (-1 if A * (V + B + W) % 2 else 1,
            1 if W * (A + V + B) % 2 else -1)


class InfinityInnerProduct:
    """Lazy evaluator of the phi_{p,q} family attached to a cocycle tower."""

    def __init__(self, algebra: AInftyAlgebra, tower: CocycleTower):
        self.algebra = algebra
        self.basis = algebra.basis
        self.tower = tower
        self._shifted = tuple(d - 1 for d in algebra.basis.degrees)
        d = tower.degree()
        self.degree = 0 if d is None else d

    # -- evaluation on pure basis words ------------------------------------

    def eval_word(self, alpha: Word, v: int, beta: Word, w: int) -> RingElement:
        shifted = self._shifted
        psi0 = self.tower.psi0
        A = sum(shifted[i] for i in alpha)
        B = sum(shifted[i] for i in beta)
        first, second = reading_signs(A, shifted[v], B, shifted[w])
        acc = RingElement.zero(self.algebra.spec)
        unit = self.basis.unit

        word_v = beta + (w,) + alpha
        if unit is None or unit not in word_v:
            entry = psi0.table.get((v, word_v))
            if entry:
                acc = acc + (entry.scale(first) if first < 0 else entry)
        word_w = alpha + (v,) + beta
        if unit is None or unit not in word_w:
            entry = psi0.table.get((w, word_w))
            if entry:
                acc = acc + (entry.scale(second) if second < 0 else entry)
        return acc

    # -- multilinear wrapper -------------------------------------------------

    def eval_elements(
        self,
        alphas: Sequence[Element],
        v: Element,
        betas: Sequence[Element],
        w: Element,
    ) -> RingElement:
        """phi_{p,q}(alphas (x) v (x) betas)(w), multilinear in every slot.

        Visits only the psi_0 entries of cyclic length p + q + 2, each under
        both readings, and multiplies only the input coefficients an entry
        selects, stopping at the first letter an input lacks: a call costs
        O(|support| * n) with |support| the number of such entries and
        n = p + q + 2, not the size of the tensor product of the inputs.
        Coefficients are even, so they commute out without signs.
        """
        acc = RingElement.zero(self.algebra.spec)
        p, q = len(alphas), len(betas)
        entries = self.tower.psi0.support_by_length().get(p + q + 2)
        if not entries:
            return acc
        shifted = self._shifted
        # Each reading lists the inputs in the order of the cyclic key
        # (v0,) + word0 it matches, with m letters between the two marked
        # slots.
        readings = (((v, *betas, w, *alphas), q),   # psi_0[v | beta, w, alpha]
                    ((w, *alphas, v, *betas), p))   # psi_0[w | alpha, v, beta]
        for v0, word0, value in entries:
            key = (v0,) + word0
            for reading, (slots, m) in enumerate(readings):
                coeff = tensor_coefficient(slots, key)
                if not coeff:
                    continue
                s = [shifted[i] for i in key]
                sums = (s[0], sum(s[1:m + 1]), s[m + 1], sum(s[m + 2:]))
                if reading == 0:
                    V, B, W, A = sums
                else:
                    W, A, V, B = sums
                sign = reading_signs(A, V, B, W)[reading]
                acc = acc + coeff * (value.scale(sign) if sign < 0 else value)
        return acc


def build_phi(algebra: AInftyAlgebra, tower: CocycleTower,
              l_max: Optional[int] = None) -> InfinityInnerProduct:
    """Antisymmetrized evaluator from a validated negative cyclic cocycle."""
    report = validate_negative_cocycle(algebra, tower, l_max)
    if not report.passed:
        raise TowerError("tower failed the negative cocycle condition", report)
    return InfinityInnerProduct(algebra, tower)


def check_skew(algebra: AInftyAlgebra, phi: InfinityInnerProduct,
               l_max: Optional[int] = None) -> Report:
    """Skew-symmetry with the engine's sign (-1)^{kappa+1}, kappa=(A+V)(B+W)."""
    l_max = algebra.l_max if l_max is None else l_max
    report = Report("skew-symmetry")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = basis.reduced_letters()
    for total in range(l_max + 1):
        for p in range(total + 1):
            q = total - p
            for alpha in words_over(letters, p):
                for beta in words_over(letters, q):
                    for v in range(len(basis)):
                        for w in range(len(basis)):
                            A = sum(basis.degree(i) - 1 for i in alpha)
                            B = sum(basis.degree(i) - 1 for i in beta)
                            V = basis.degree(v) - 1
                            W = basis.degree(w) - 1
                            kappa = (A + V) * (B + W)
                            sign = -1 if (kappa + 1) % 2 else 1
                            lhs = phi.eval_word(alpha, v, beta, w)
                            rhs = phi.eval_word(beta, w, alpha, v)
                            rhs = rhs.scale(sign) if sign < 0 else rhs
                            report.tick()
                            if lhs != rhs:
                                report.fail(
                                    "alpha=%s v=%s beta=%s w=%s: %s vs %s"
                                    % (algebra.word_text(alpha), basis.names[v],
                                       algebra.word_text(beta), basis.names[w],
                                       lhs.text(), rhs.text())
                                )
    return report


def _arrange(word: Word, module_pos: int, arg_pos: int):
    """Split a cyclic word into (alpha, module, beta, argument) slots.

    Reading cyclically from the module: beta is everything strictly between
    the module and the argument, alpha everything after the argument back
    around to the module.
    """
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


def check_closed(algebra: AInftyAlgebra, phi: InfinityInnerProduct,
                 l_max: Optional[int] = None) -> Report:
    """Three-term cyclic identity over all marked triples i < j < k.

    Each term is phi evaluated on the cyclic word with one marking as module
    slot and the next as final argument, weighted by the Koszul rotation
    sign kappa_* = (sum of shifted degrees up to *) (sum beyond *).
    """
    l_max = algebra.l_max if l_max is None else l_max
    report = Report("closedness")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = basis.reduced_letters()
    for n in range(3, l_max + 3):
        for word in words_over(letters, n):
            shifts = [basis.degree(i) - 1 for i in word]
            total = sum(shifts)
            for i in range(n - 2):
                for j in range(i + 1, n - 1):
                    for k in range(j + 1, n):
                        acc = RingElement.zero(algebra.spec)
                        for mpos, apos in ((i, j), (j, k), (k, i)):
                            prefix = sum(shifts[: mpos + 1])
                            kappa = prefix * (total - prefix)
                            alpha, v, beta, w = _arrange(word, mpos, apos)
                            value = phi.eval_word(alpha, v, beta, w)
                            if kappa % 2:
                                value = -value
                            acc = acc + value
                        report.tick()
                        if acc:
                            report.fail(
                                "word %s triple (%d,%d,%d): residual %s"
                                % (algebra.word_text(word), i, j, k, acc.text())
                            )
    return report


def trace_identity(algebra: AInftyAlgebra, phi: InfinityInnerProduct) -> Report:
    """psi_0[1 | m_2(a1,a2)] = phi_{0,0}(a1)(a2) on all basis pairs."""
    report = Report("trace-identity")
    report.note("E_max", algebra.spec.cutoff)
    basis = algebra.basis
    unit = basis.require_unit()
    psi0 = phi.tower.psi0
    for a1 in range(len(basis)):
        for a2 in range(len(basis)):
            product = algebra.m_word((a1, a2))
            lhs = RingElement.zero(algebra.spec)
            for comp, value in product.items():
                if comp == unit:
                    continue  # unit tensor slot dies in the reduced complex
                entry = psi0.table.get((unit, (comp,)))
                if entry:
                    lhs = lhs + entry * value
            rhs = phi.eval_word((), a1, (), a2)
            report.tick()
            if lhs != rhs:
                report.fail(
                    "(a1,a2)=(%s,%s): psi0[1|m2] = %s but phi_{0,0} = %s"
                    % (basis.names[a1], basis.names[a2], lhs.text(), rhs.text())
                )
    return report


def weak_cyclic_check(
    algebra: AInftyAlgebra,
    phi: InfinityInnerProduct,
    b: Element,
    y: Element,
    n_max: Optional[int] = None,
) -> Report:
    """Rotation identity for degree-1 elements:

    N sum_{p+q+k=N} phi(b^p, m_k(b^k), b^q)(y) equals the sum of the three
    insertion families of y (into the operation, the left word, the right
    word) with final argument b.  Exact for every N <= n_max.
    """
    n_max = algebra.n_max if n_max is None else n_max
    report = Report("weak-cyclic")
    report.note("E_max", algebra.spec.cutoff)
    report.note("N_max", n_max)
    if b and not b.is_homogeneous(1):
        raise ConfigurationError("the rotation identity needs |b| = 1")
    if b.valuation() <= 0:
        raise DivergenceError("b must have positive valuation")
    for N in range(n_max + 1):
        lhs = RingElement.zero(algebra.spec)
        rhs = RingElement.zero(algebra.spec)
        for p in range(N + 1):
            for k in range(N - p + 1):
                q = N - p - k
                bs_p = [b] * p
                bs_q = [b] * q
                mk = apply_m(algebra, [b] * k)
                lhs = lhs + phi.eval_elements(bs_p, mk, bs_q, b).scale(N)
                # y inserted inside the operation
                for r in range(k):
                    inner = apply_m(algebra, [b] * r + [y] + [b] * (k - 1 - r))
                    rhs = rhs + phi.eval_elements(bs_p, inner, bs_q, b)
                # y inserted in the left word
                for r in range(p):
                    left = [b] * r + [y] + [b] * (p - 1 - r)
                    rhs = rhs + phi.eval_elements(left, mk, bs_q, b)
                # y inserted in the right word
                for r in range(q):
                    right = [b] * r + [y] + [b] * (q - 1 - r)
                    rhs = rhs + phi.eval_elements(bs_p, mk, right, b)
        report.tick()
        if lhs != rhs:
            report.fail("N=%d: lhs %s, rhs %s" % (N, lhs.text(), rhs.text()))
    return report


def homological_nondegeneracy(algebra: AInftyAlgebra, phi: InfinityInnerProduct):
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
    from .exactla import kernel_basis, rank as _rank

    kernel = kernel_basis(d)
    image_cols = [[d[i][j] for j in range(n)] for i in range(n)]
    image_rank = _rank(image_cols)
    # representatives: kernel vectors independent modulo the image, kept in
    # the elimination order (lexicographically first complement basis)
    spanning = [[d[i][c] for i in range(n)] for c in column_space_pivots(image_cols)]
    reps = []
    for vec in kernel:
        candidate = spanning + [list(vec)]
        if _rank(candidate) > len(spanning):
            reps.append(list(vec))
            spanning.append(list(vec))
    hom_dim = len(reps)

    def classical_value(value: RingElement) -> Fraction:
        total = Fraction(0)
        for mono, c in value.terms.items():
            if mono.level() == 0 and mono.s == 0 and all(a == 0 for a in mono.t):
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
    prank = _rank(pairing) if hom_dim else 0
    certificate = {
        "homology_dimension": hom_dim,
        "representatives": [
            {basis.names[i]: str(v) for i, v in enumerate(vec) if v} for vec in reps
        ],
        "pairing_matrix": [[str(x) for x in row] for row in pairing],
        "rank": prank,
    }
    return prank == hom_dim, certificate



