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
from math import comb
from typing import Dict, Optional, Sequence, Tuple

from .ainfty import AInftyAlgebra, apply_m
from .coeff import RingElement
from .errors import ConfigurationError, DivergenceError, TowerError
from .exactla import column_space_pivots
from .graded import Element, Word, add_term, tensor_coefficient
from .hochschild import CocycleTower, validate_negative_cocycle
from .report import Report


class InfinityInnerProduct:
    """The phi_{p,q} family attached to a cocycle tower, as one sparse table.

    ``table`` maps (alpha, v, beta, w) to phi_{p,q}(alpha (x) v (x) beta)(w)
    on basis words and holds only nonzero values; every reader of phi reads
    it, and a key that is missing stands for zero.  It is built once, from
    psi_0, together with the index by shape that ``eval_elements`` reads.
    """

    def __init__(self, algebra: AInftyAlgebra, tower: CocycleTower):
        self.algebra = algebra
        self.tower = tower
        d = tower.degree()
        self.degree = 0 if d is None else d
        self.table = self._read_psi0()
        # table entries by shape (p, q), each as the flat word
        # alpha + (v,) + beta + (w,) with its value, for eval_elements
        self._by_shape: Dict[Tuple[int, int], list] = {}
        for (alpha, v, beta, w), value in self.table.items():
            self._by_shape.setdefault((len(alpha), len(beta)), []).append(
                (alpha + (v,) + beta + (w,), value))

    def _read_psi0(self) -> dict:
        """Both readings of every psi_0 entry, summed into one sparse table.

        An entry psi_0[v0 | word] with word = before + (letter,) + after is
        read, at each split of its word, as

            psi_0[v | beta, w, alpha] with v = v0, beta = before, w = letter,
                alpha = after, with sign (-1)^{A(V+B+W)};
            psi_0[w | alpha, v, beta] with w = v0, alpha = before, v = letter,
                beta = after, with sign -(-1)^{W(A+V+B)};

        where A, V, B, W are the shifted-degree parities of alpha, v, beta, w.
        Entries whose word holds the unit are skipped: the tower lives on
        reduced chains.  The constructor of ``Functional`` refuses such
        words, so this only matters for a table edited in place.
        """
        shifted = [d - 1 for d in self.algebra.basis.degrees]
        unit = self.algebra.basis.unit
        table: dict = {}
        for (v0, word), value in self.tower.psi0.table.items():
            if unit is not None and unit in word:
                continue
            s = [shifted[i] for i in word]
            total = shifted[v0] + sum(s)
            # reading 2 has W = |v0|' and A + V + B = total - W at every split
            second = value if shifted[v0] * (total - shifted[v0]) % 2 else -value
            for m, letter in enumerate(word):
                before, after = word[:m], word[m + 1:]
                A = sum(s[m + 1:])
                add_term(table, (after, v0, before, letter),
                         -value if A * (total - A) % 2 else value)
                add_term(table, (before, letter, after, v0), second)
        return table

    # -- evaluation on pure basis words ------------------------------------

    def eval_word(self, alpha: Word, v: int, beta: Word, w: int) -> RingElement:
        value = self.table.get((alpha, v, beta, w))
        return RingElement.zero(self.algebra.spec) if value is None else value

    # -- multilinear wrapper -------------------------------------------------

    def eval_elements(
        self,
        alphas: Sequence[Element],
        v: Element,
        betas: Sequence[Element],
        w: Element,
    ) -> RingElement:
        """phi_{p,q}(alphas (x) v (x) betas)(w), multilinear in every slot.

        Visits only the table entries of shape (p, q) and multiplies only the
        input coefficients an entry selects, stopping at the first letter an
        input lacks: a call costs O(|entries| * n) with n = p + q + 2, not
        the size of the tensor product of the inputs.  Coefficients are
        even, so they commute out without signs.
        """
        acc = RingElement.zero(self.algebra.spec)
        slots = (*alphas, v, *betas, w)
        for word, value in self._by_shape.get((len(alphas), len(betas)), ()):
            coeff = tensor_coefficient(slots, word)
            if coeff:
                acc = acc + coeff * value
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
    """Skew-symmetry with the engine's sign (-1)^{kappa+1}, kappa=(A+V)(B+W).

    The quantifier runs over reduced alpha, beta with len(alpha) + len(beta)
    <= l_max and all basis letters v, w, and ``checked`` counts every such
    tuple.  A tuple whose key and swap (beta, w, alpha, v) are both missing
    from phi.table compares 0 with 0, so only the keys of the table (whose
    alpha and beta never hold the unit) and their swaps are evaluated, in
    the quantifier's order.
    """
    l_max = algebra.l_max if l_max is None else l_max
    report = Report("skew-symmetry")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    reduced = len(basis.reduced_letters())
    report.tick(sum((n + 1) * reduced ** n for n in range(l_max + 1)) * len(basis) ** 2)
    table = phi.table
    zero = RingElement.zero(algebra.spec)
    tuples = set()
    for alpha, v, beta, w in table:
        if len(alpha) + len(beta) <= l_max:
            tuples.update(((alpha, v, beta, w), (beta, w, alpha, v)))
    for alpha, v, beta, w in sorted(
            tuples, key=lambda t: (len(t[0]) + len(t[2]), len(t[0]), t[0], t[2], t[1], t[3])):
        # kappa = (A + V)(B + W) from the shifted degrees of both halves
        kappa = sum(basis.degree(i) - 1 for i in alpha + (v,)) \
            * sum(basis.degree(i) - 1 for i in beta + (w,))
        lhs = table.get((alpha, v, beta, w), zero)
        rhs = table.get((beta, w, alpha, v), zero)
        rhs = rhs if kappa % 2 else -rhs
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
    turned = word[module_pos:] + word[:module_pos]
    a = (arg_pos - module_pos) % len(word)
    return turned[a + 1:], turned[0], turned[1:a], turned[a]


def check_closed(algebra: AInftyAlgebra, phi: InfinityInnerProduct,
                 l_max: Optional[int] = None) -> Report:
    """Three-term cyclic identity over all marked triples i < j < k.

    Each term is phi evaluated on the cyclic word with one marking as module
    slot and the next as final argument, weighted by the Koszul rotation
    sign kappa_* = (sum of shifted degrees up to *) (sum beyond *).

    ``checked`` counts every triple of every reduced word of length 3 to
    l_max + 2.  A triple none of whose three arranged keys is in phi.table
    sums three zeros, so only the triples reached from a table key are
    evaluated, in the order of (length, word, i, j, k).
    """
    l_max = algebra.l_max if l_max is None else l_max
    report = Report("closedness")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = set(basis.reduced_letters())
    report.tick(sum(comb(n, 3) * len(letters) ** n for n in range(3, l_max + 3)))
    table = phi.table
    zero = RingElement.zero(algebra.spec)
    triples = set()
    for alpha, v, beta, w in table:
        cyclic = (v,) + beta + (w,) + alpha
        n = len(cyclic)
        if n < 3 or n > l_max + 2 or not letters.issuperset(cyclic):
            continue
        # the key is _arrange(word, mpos, apos) for word = cyclic turned so
        # that it starts at position mpos
        for mpos in range(n):
            word = cyclic[n - mpos:] + cyclic[:n - mpos]
            apos = (mpos + len(beta) + 1) % n
            if mpos < apos:
                triples.update((word, mpos, apos, k) for k in range(apos + 1, n))
                triples.update((word, i, mpos, apos) for i in range(mpos))
            else:
                triples.update((word, apos, j, mpos) for j in range(apos + 1, mpos))
    for word, i, j, k in sorted(triples, key=lambda t: (len(t[0]),) + t):
        shifts = [basis.degree(x) - 1 for x in word]
        total = sum(shifts)
        acc = zero
        for mpos, apos in ((i, j), (j, k), (k, i)):
            prefix = sum(shifts[: mpos + 1])
            kappa = prefix * (total - prefix)
            value = table.get(_arrange(word, mpos, apos), zero)
            if kappa % 2:
                value = -value
            acc = acc + value
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



