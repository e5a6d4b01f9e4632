"""Disk potentials, gauge invariance, and the wall-crossing identity chain.

The cyclic potential of a degree-1 element x of positive valuation is

    Phi'(x) = sum_N sum_{p+q+k=N} 1/(N+1) phi_{p,q}(x^p, m_k(x^k), x^q)(x)

truncated at the energy cutoff; gappedness makes the sum finite because
every term has valuation at least (N+1) nu(x).  The full potential adds the
inhomogeneous scalar.  Since |x|' = 0, no Koszul signs enter these sums.

The sums are driven by the support of phi: a phi_{p,q} evaluation visits
only the table entries of shape (p, q), so a shape that phi does not store
contributes zero and is skipped.  With S the set of stored shapes, level N
of a sum visits the (p, q) in S with p + q <= N, where a loop over every
index visits all (N+1)(N+2)/2 of them; so the potential makes at most |S|
evaluations per level, and the wall-crossing sums visit |S| shapes per level
and i1_rhs and error_term |S| in all.  Each m_k(x^k) is computed once per
call, each operation-splitting insertion m_{k1}(x^r, m_{k2}(x^{k2}),
x^{k1-1-r}) once per (k2, k1, r), and each level's sum is scaled by
1/(N+1) once.

A gauge path b_t is an ``Element`` whose scalars are polynomials in a
formal variable t; the invariance check demands the strict Maurer-Cartan
equation over that extended ring and then asserts that the formal
derivative of Phi'(b_t) vanishes identically.

Each report is one call with plain arguments: ``gauge_invariance_check``
takes the path, and ``wall_crossing_report`` takes the two named candidates
of a pair with m_{-1} and GW and returns the ``wall-crossing`` report.  The
level of every sum is fixed by its inputs: the potential sums to the last
level the energy cutoff reaches, and the decomposition to ``algebra.n_max``.
"""

from __future__ import annotations

from math import ceil, floor, inf

from .ainfty import AInftyAlgebra, apply_m, check_weak_mc, curvature, require_candidate
from .coeff import Rational, RingElement, as_fraction
from .graded import Element
from .pairing import InfinityInnerProduct, rotation_terms, unit_trace
from .report import Report


def _auto_n_max(algebra: AInftyAlgebra, x: Element) -> int:
    """The last level N whose terms can fall within the energy cutoff E:
    terms at level N have valuation at least (N+1) nu, so N = floor(E/nu) - 1,
    the largest N with (N+1) nu <= E.  That is -1, and no level is summed,
    when E < nu; the zero element sums level 0 alone."""
    nu = x.valuation()
    if nu is inf:
        return 0
    return floor(as_fraction(algebra.spec.cutoff) / as_fraction(nu)) - 1


def _powers(algebra: AInftyAlgebra, x: Element, top: int) -> list:
    """[m_0(), m_1(x), ..., m_top(x^top)], computed in ascending arity.

    A loop over the levels N <= top reaches every one of these arities at
    p = q = 0, so an arity past the cutoff (or past unflagged tables) raises
    here the error such a loop raises, at the same arity.
    """
    return [apply_m(algebra, [x] * k) for k in range(top + 1)]


def infty_cyclic_potential(
    algebra: AInftyAlgebra, phi: InfinityInnerProduct, x: Element
) -> RingElement:
    """The cyclic potential Phi'(x), exact modulo the energy cutoff.

    The sum runs to the last level N whose terms, of valuation at least
    (N+1) nu(x), can fall within the cutoff.  The term at (N, p, k, q)
    evaluates phi at shape (p, q), so only the shapes in ``phi.shapes`` are
    visited; every other shape adds zero.
    """
    require_candidate(algebra, x)
    n_max = _auto_n_max(algebra, x)
    mk = _powers(algebra, x, n_max)
    shapes = sorted(phi.shapes)
    total = RingElement.zero(algebra.spec)
    for N in range(n_max + 1):
        level = RingElement.zero(algebra.spec)
        for p, q in shapes:
            k = N - p - q
            if k >= 0 and not mk[k].is_zero():
                level = level + phi.eval_elements([x] * p, mk[k], [x] * q, x)
        if level:
            total = total + level.divide_int(N + 1)
    return total


# -- gauge invariance ----------------------------------------------------------


def gauge_invariance_check(
    algebra: AInftyAlgebra, phi: InfinityInnerProduct, b_t: Element
) -> Report:
    """Strict MC over the extended ring, then d/dt Phi'(b_t) = 0 exactly.

    ``b_t`` is the gauge path: a degree-1 element with polynomial scalars.
    """
    report = Report("gauge-invariance")
    report.note("E_max", algebra.spec.cutoff)
    cur = curvature(algebra, b_t)
    if not cur.is_zero():
        level = cur.valuation()
        report.fail(
            "path is not Maurer-Cartan over the extended ring; "
            "first failure at energy %s: %s" % (level, cur.text())
        )
        return report
    value = infty_cyclic_potential(algebra, phi, b_t)
    derivative = value.formal_derivative()
    v0 = value.specialize(0)
    v1 = value.specialize(1)
    report.note("Phi'(b_0)", v0.text())
    report.note("Phi'(b_1)", v1.text())
    report.tick()
    if derivative:
        report.fail("formal t-derivative is nonzero: %s" % derivative.text())
    if v0 != v1:
        report.fail("endpoint values differ: %s vs %s" % (v0.text(), v1.text()))
    return report


# -- wall crossing --------------------------------------------------------------


class WallCrossingDecomposition:
    """The six sums of the wall-crossing identity chain plus residuals.

    I1: clsum + output = sum_{p,q} phi(b^p, m_0^b, b^q)(m_0^b)   (telescoping,
        any degree-1 b of positive valuation)
    I2: ksplit + psplit + qsplit = clsum                           (rotation
        identity summed with 1/(N+1) weights)
    The two readings of the deformed-vs-undeformed error term are reported
    as diagnostics only and asserted nowhere.
    """

    def __init__(self, ksplit: RingElement, psplit: RingElement, qsplit: RingElement,
                 output: RingElement, clsum: RingElement, error_term: RingElement,
                 i1_rhs: RingElement, residual_i1: RingElement, residual_i2: RingElement,
                 diagnostics: dict[str, RingElement]):
        self.ksplit = ksplit
        self.psplit = psplit
        self.qsplit = qsplit
        self.output = output
        self.clsum = clsum
        self.error_term = error_term
        self.i1_rhs = i1_rhs
        self.residual_i1 = residual_i1
        self.residual_i2 = residual_i2
        self.diagnostics = diagnostics

    @property
    def passed(self) -> bool:
        return self.residual_i1.is_zero() and self.residual_i2.is_zero()


def wall_crossing_decomposition(
    algebra: AInftyAlgebra, phi: InfinityInnerProduct, b: Element
) -> WallCrossingDecomposition:
    """The sums of the wall-crossing identity chain up to level ``algebra.n_max``.

    Every evaluation at (N, p, k, q), and every term of i1_rhs and
    error_term at (p, q), reads phi at shape (p, q), so only the shapes in
    ``phi.shapes`` are visited; every other shape adds zero.  The level-N
    sums are accumulated unweighted and scaled by 1/(N+1) once: output is
    (sum k2 * value) / (N+1), and clsum, whose weight is (N+1-k2)/(N+1), is
    the sum of the values minus output.  The terms at shape (p, q) and arity
    k1 are those of the rotation identity at y = m_{k2}(b^{k2}), from the
    kernel ``pairing.rotation_terms``.
    """
    require_candidate(algebra, b)
    n_max = algebra.n_max
    zero = RingElement.zero(algebra.spec)
    # the main sum reads m_{k2} and m_{k1} with k1 + k2 = k + 1 <= n_max + 1
    mk = _powers(algebra, b, n_max + 1)
    shapes = sorted(phi.shapes)
    # k2 -> the insertions of y = m_{k2}(b^{k2}) by (k1, r), for this call only
    split: dict[int, dict] = {}
    ksplit = psplit = qsplit = output = values = zero
    for N in range(n_max + 1):
        splits = [zero] * 3  # this level's ksplit, psplit and qsplit, unweighted
        weighted = zero
        for p, q in shapes:
            k = N - p - q
            if k < 0:
                continue
            for k2 in range(k + 2):
                k1 = k + 1 - k2
                inner = mk[k2]
                if inner.is_zero():
                    continue
                value = rotation_terms(algebra, phi, b, inner, p, q, k1, mk[k1],
                                       split.setdefault(k2, {}), splits)
                if value is None:
                    continue
                values = values + value
                if k2:
                    weighted = weighted + value.scale(k2)
        weight = Rational(1, N + 1)
        ksplit = ksplit + splits[0].scale(weight)
        psplit = psplit + splits[1].scale(weight)
        qsplit = qsplit + splits[2].scale(weight)
        output = output + weighted.scale(weight)
    clsum = values - output

    # telescoped right side of I1, summed far enough that the tail vanishes
    cur = curvature(algebra, b)
    nu = b.valuation()
    reach = n_max
    if nu is not inf and nu > 0:
        bound = as_fraction(algebra.spec.cutoff) / as_fraction(nu)
        reach = max(n_max, int(ceil(bound)))
    _, shifted = cur.unit_scalar_split()
    i1_rhs = zero
    error_term = zero
    for p, q in shapes:
        if p + q <= reach:
            i1_rhs = i1_rhs + phi.eval_elements([b] * p, cur, [b] * q, cur)
            error_term = error_term + phi.eval_elements([b] * p, shifted, [b] * q, shifted)
    diag_deformed = phi.eval_elements([], cur, [], cur)
    diag_trace = unit_trace(phi, apply_m(algebra, [cur, cur]).components)
    return WallCrossingDecomposition(
        ksplit=ksplit,
        psplit=psplit,
        qsplit=qsplit,
        output=output,
        clsum=clsum,
        error_term=error_term,
        i1_rhs=i1_rhs,
        residual_i1=(clsum + output) - i1_rhs,
        residual_i2=(ksplit + psplit + qsplit) - clsum,
        diagnostics={
            "phi(m0^b)(m0^b)": diag_deformed,
            "psi0[1|m2(m0^b,m0^b)]": diag_trace,
        },
    )


def wall_crossing_report(
    algebra: AInftyAlgebra,
    phi: InfinityInnerProduct,
    tower: str,
    minus: tuple[str, Element],
    plus: tuple[str, Element],
    m_minus_one: RingElement,
    gw: RingElement,
) -> Report:
    """The ``wall-crossing`` report: Phi(b_-) - Phi(b_+) - GW must vanish,
    with Phi = m_{-1} + Phi' on the named candidates ``minus`` and ``plus``.

    The potentials are defined on weak bounding cochains, so the pair fails
    with one line per side whose candidate is not weak MC; the residual is
    computed either way.  Both weak-MC checks run first, then Phi(minus),
    then Phi(plus).
    """
    report = Report("wall-crossing")
    report.note("E_max", algebra.spec.cutoff)
    report.note("tower", tower)
    report.note("minus", minus[0])
    report.note("plus", plus[0])
    for side, (name, b) in (("minus", minus), ("plus", plus)):
        ok, _, rest = check_weak_mc(algebra, b)
        if not ok:
            report.fail("%s candidate %s is not weak MC: curvature residual %s"
                        % (side, name, rest.text()))
    v_minus = m_minus_one + infty_cyclic_potential(algebra, phi, minus[1])
    v_plus = m_minus_one + infty_cyclic_potential(algebra, phi, plus[1])
    report.note("Phi(minus)", v_minus.text())
    report.note("Phi(plus)", v_plus.text())
    report.note("GW", gw.text())
    report.tick()
    residual = (v_minus - v_plus) - gw
    if not residual.is_zero():
        report.fail("residual %s" % residual.text())
    return report
