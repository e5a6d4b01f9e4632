"""Infinity-inner products built from negative cyclic cocycles.

The evaluator phi_{p,q}(alpha (x) v (x) beta)(w) antisymmetrizes the lowest
tower level psi_0 over the two markings of the cyclic word (alpha, v, beta,
w): once with w as the module slot and once with v.  Each reading pays the
Koszul cost of rotating the cyclic word so its module slot comes first, the
sign ``graded.crossing_sign`` of moving a block past the rest:

    phi_{p,q}(alpha (x) v (x) beta)(w) =
        (-1)^{A(V+B+W)} psi_0[v | beta, w, alpha]
      - (-1)^{W(A+V+B)} psi_0[w | alpha, v, beta]

with A, B, V, W the shifted-degree parities of alpha, beta, v, w.  The
relative sign and the currying factors are pinned by three exact facts
verified in the test suite: the bimodule homomorphism property, the trace
identity against psi_0, and skew-symmetry with sign kappa + 1 where
kappa = (A+V)(B+W), the crossing of beta, w past alpha, v.  (A two-term
antisymmetrization can only ever satisfy the skew relation with the extra
flip; the engine's diagonal consequence -- phi_{0,0}(v)(v) = 0 for even
|v|' -- depends on it.)  ``check_skew`` and ``check_closed`` read their
signs from ``crossing_sign`` too.

Words with the unit in a non-module, non-final slot evaluate to zero
because the tower lives on reduced chains: ``hochschild.Functional``
refuses a psi_0 entry on a word that ``graded.reduced`` rejects, so no
reading of psi_0, and no ``unit_trace``, puts the unit in a tensor slot.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .ainfty import AInftyAlgebra, apply_m, require_candidate
from .coeff import RingElement
from .errors import TowerError
from .graded import (Element, Word, add_term, crossing_sign, maltese_prefixes, marked_word_count,
                     tensor_coefficient)
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
        self._by_shape: dict[tuple[int, int], list] = {}
        for (alpha, v, beta, w), value in self.table.items():
            self._by_shape.setdefault((len(alpha), len(beta)), []).append(
                (alpha + (v,) + beta + (w,), value))

    @property
    def shapes(self) -> frozenset:
        """The shapes (p, q) = (len(alpha), len(beta)) of the table's keys.

        ``eval_elements`` at any other shape is zero, so sums of phi_{p,q}
        terms need visit only these.
        """
        return frozenset(self._by_shape)

    def _read_psi0(self) -> dict:
        """Both readings of every psi_0 entry, summed into one sparse table.

        An entry psi_0[v0 | word] with word = before + (letter,) + after is
        read, at each split of its word, as

            psi_0[v | beta, w, alpha] with v = v0, beta = before, w = letter,
                alpha = after, with sign (-1)^{A(V+B+W)};
            psi_0[w | alpha, v, beta] with w = v0, alpha = before, v = letter,
                beta = after, with sign -(-1)^{W(A+V+B)};

        where A, V, B, W are the shifted-degree parities of alpha, v, beta, w.
        """
        degrees = self.algebra.basis.degrees
        table: dict = {}
        for (v0, word), value in self.tower.psi0.table.items():
            # prefixes[i]: shifted degree of the first i letters of v0, word
            prefixes = maltese_prefixes([degrees[i] for i in (v0,) + word])
            total = prefixes[-1]
            # reading 2 has W = |v0|' at every split
            second = -value if crossing_sign(total, prefixes[1]) > 0 else value
            for m, letter in enumerate(word):
                before, after = word[:m], word[m + 1:]
                # reading 1 has A = |after|'
                first = value if crossing_sign(total, total - prefixes[m + 2]) > 0 else -value
                add_term(table, (after, v0, before, letter), first)
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


def build_phi(algebra: AInftyAlgebra, tower: CocycleTower) -> InfinityInnerProduct:
    """Antisymmetrized evaluator from a negative cyclic cocycle, validated
    at the word-length cutoff ``algebra.l_max``."""
    report = validate_negative_cocycle(algebra, tower)
    if not report.passed:
        raise TowerError("tower failed the negative cocycle condition", report)
    return InfinityInnerProduct(algebra, tower)


def check_skew(algebra: AInftyAlgebra, phi: InfinityInnerProduct) -> Report:
    """Skew-symmetry with the engine's sign (-1)^{kappa+1}, kappa=(A+V)(B+W).

    (-1)^kappa is the sign of the swap, which moves beta, w past alpha, v
    in the cyclic word (``crossing_sign``).
    The quantifier runs over reduced alpha, beta with len(alpha) + len(beta)
    <= l_max = ``algebra.l_max`` and all basis letters v, w, and ``checked``
    counts every such tuple.  A tuple whose key and swap (beta, w, alpha, v)
    are both missing from phi.table compares 0 with 0, so only the keys of
    the table (whose alpha and beta never hold the unit) and their swaps are
    evaluated, in the quantifier's order.
    """
    l_max = algebra.l_max
    report = Report("skew-symmetry")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    reduced = len(basis.reduced_letters())
    report.tick(marked_word_count(reduced, l_max) * len(basis) ** 2)
    table = phi.table
    zero = RingElement.zero(algebra.spec)
    tuples = set()
    for alpha, v, beta, w in table:
        if len(alpha) + len(beta) <= l_max:
            tuples.update(((alpha, v, beta, w), (beta, w, alpha, v)))
    for alpha, v, beta, w in sorted(
            tuples, key=lambda t: (len(t[0]) + len(t[2]), len(t[0]), t[0], t[2], t[1], t[3])):
        prefixes = maltese_prefixes([basis.degree(i) for i in alpha + (v,) + beta + (w,)])
        lhs = table.get((alpha, v, beta, w), zero)
        rhs = table.get((beta, w, alpha, v), zero)
        # the engine's sign (-1)^{kappa + 1}
        if crossing_sign(prefixes[-1], prefixes[len(alpha) + 1]) > 0:
            rhs = -rhs
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


def check_closed(algebra: AInftyAlgebra, phi: InfinityInnerProduct) -> Report:
    """Three-term cyclic identity over all marked triples i < j < k.

    Each term is phi evaluated on the cyclic word with one marking as module
    slot and the next as final argument, weighted by the Koszul rotation
    sign (-1)^kappa_*, kappa_* = (sum of shifted degrees up to *) (sum
    beyond *), the crossing of the letters up to * past the rest
    (``crossing_sign``).

    ``checked`` counts every triple of every reduced word of length 3 to
    l_max + 2, l_max = ``algebra.l_max``.  A triple none of whose three
    arranged keys is in phi.table sums three zeros, so only the triples
    reached from a table key are evaluated, in the order of
    (length, word, i, j, k).
    """
    l_max = algebra.l_max
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
        prefixes = maltese_prefixes([basis.degree(x) for x in word])
        acc = zero
        for mpos, apos in ((i, j), (j, k), (k, i)):
            value = table.get(_arrange(word, mpos, apos), zero)
            if crossing_sign(prefixes[-1], prefixes[mpos + 1]) < 0:
                value = -value
            acc = acc + value
        if acc:
            report.fail(
                "word %s triple (%d,%d,%d): residual %s"
                % (algebra.word_text(word), i, j, k, acc.text())
            )
    return report


def unit_trace(phi: InfinityInnerProduct, components: dict) -> RingElement:
    """psi_0[1 | x] = sum over c of psi_0[1 | c] x_c, for x given by its
    components {c: x_c}.  A unit tensor slot dies in the reduced complex,
    and psi_0 has no entry there: ``hochschild.Functional`` refuses the key
    (1 | 1), whose word ``graded.reduced`` rejects."""
    unit = phi.algebra.basis.unit
    table = phi.tower.psi0.table
    acc = RingElement.zero(phi.algebra.spec)
    for comp, value in components.items():
        entry = table.get((unit, (comp,)))
        if entry:
            acc = acc + entry * value
    return acc


def trace_identity(algebra: AInftyAlgebra, phi: InfinityInnerProduct) -> Report:
    """psi_0[1 | m_2(a1,a2)] = phi_{0,0}(a1)(a2) on all basis pairs."""
    report = Report("trace-identity")
    report.note("E_max", algebra.spec.cutoff)
    basis = algebra.basis
    for a1 in range(len(basis)):
        for a2 in range(len(basis)):
            lhs = unit_trace(phi, algebra.m_word((a1, a2)))
            rhs = phi.eval_word((), a1, (), a2)
            report.tick()
            if lhs != rhs:
                report.fail(
                    "(a1,a2)=(%s,%s): psi0[1|m2] = %s but phi_{0,0} = %s"
                    % (basis.names[a1], basis.names[a2], lhs.text(), rhs.text())
                )
    return report


def rotation_terms(algebra: AInftyAlgebra, phi: InfinityInnerProduct, b: Element,
                   y: Element, p: int, q: int, k: int, m_k: Element, inserted: dict,
                   sums: list):
    """Add the rotation identity's terms at shape (p, q) and arity k, given
    m_k = m_k(b^k), into sums = [ksplit, psplit, qsplit]: the three
    y-insertion families with final argument b, sum_r phi(b^p, m_k(b^r, y,
    b^{k-1-r}), b^q)(b), sum_r phi(b^r y b^{p-1-r}, m_k, b^q)(b) and sum_r
    phi(b^p, m_k, b^r y b^{q-1-r})(b).  Returns phi(b^p, m_k, b^q)(y), or
    None when m_k is zero (so are the last two families then).

    Every evaluation reads phi at shape (p, q), and a zero insertion is not
    evaluated.  ``inserted`` memoizes m_k(b^r, y, b^{k-1-r}) by (k, r) for
    one y.  ``weak_cyclic_check`` sums these terms at its y, and
    ``potential.wall_crossing_decomposition`` at y = m_{k2}(b^{k2}).
    """
    bs_p = [b] * p
    bs_q = [b] * q
    for r in range(k):
        key = (k, r)
        if key not in inserted:
            inserted[key] = apply_m(algebra, [b] * r + [y] + [b] * (k - 1 - r))
        outer = inserted[key]
        if not outer.is_zero():
            sums[0] = sums[0] + phi.eval_elements(bs_p, outer, bs_q, b)
    if m_k.is_zero():
        return None
    for r in range(p):
        sums[1] = sums[1] + phi.eval_elements([b] * r + [y] + [b] * (p - 1 - r), m_k, bs_q, b)
    for r in range(q):
        sums[2] = sums[2] + phi.eval_elements(bs_p, m_k, [b] * r + [y] + [b] * (q - 1 - r), b)
    return phi.eval_elements(bs_p, m_k, bs_q, y)


def weak_cyclic_check(
    algebra: AInftyAlgebra, phi: InfinityInnerProduct, b: Element, y: Element
) -> Report:
    """Rotation identity for degree-1 elements:

    N sum_{p+q+k=N} phi(b^p, m_k(b^k), b^q)(y) equals the sum of the three
    insertion families of y (into the operation, the left word, the right
    word) with final argument b.  Checked exactly at every level
    N <= ``algebra.n_max``.  Only the shapes in ``phi.shapes`` are visited
    (``rotation_terms``), and each m_k(b^k) is computed once in ascending k,
    so an arity past the cutoff raises at the same arity as a loop over
    every (N, p, k, q).
    """
    n_max = algebra.n_max
    report = Report("weak-cyclic")
    report.note("E_max", algebra.spec.cutoff)
    report.note("N_max", n_max)
    require_candidate(algebra, b)
    mk = [apply_m(algebra, [b] * k) for k in range(n_max + 1)]
    shapes = sorted(phi.shapes)
    inserted: dict = {}
    for N in range(n_max + 1):
        splits = [RingElement.zero(algebra.spec)] * 3
        lhs = splits[0]
        for p, q in shapes:
            k = N - p - q
            if k >= 0:
                value = rotation_terms(algebra, phi, b, y, p, q, k, mk[k], inserted, splits)
                if value is not None:
                    lhs = lhs + value
        report.tick()
        lhs, rhs = lhs.scale(N), splits[0] + splits[1] + splits[2]
        if lhs != rhs:
            report.fail("N=%d: lhs %s, rhs %s" % (N, lhs.text(), rhs.text()))
    return report
