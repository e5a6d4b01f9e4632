"""Exact arithmetic in the Novikov-type coefficient ring.

Elements are finite sums of monomials

    c * T^lam * e^m * s^j * t_0^{l_0} ... t_N^{l_N}

with c an exact rational, lam a nonnegative rational, m any integer (e is
invertible), and j, l_i nonnegative integers.  Completed sums are modeled by
a mandatory energy cutoff: every operation discards monomials whose
valuation

    nu = lam + j + sum(l_i)

exceeds the cutoff, so all results are exact modulo T^{>cutoff}.

Gradings: deg(T) = 0, deg(e) = 2 are fixed; deg(s) and deg(t_i) are
configuration data carried by :class:`RingSpec` and must be even (this keeps
the coefficient ring strictly commutative, which the rest of the engine
relies on for Koszul bookkeeping).

For gauge paths the same element type is reused with coefficients that are
polynomials in a formal degree-0 variable (class :class:`Poly`) instead of
rationals; ``specialize`` evaluates them at a rational point.  A scalar has
one stored type: a Poly of degree at most 0 is stored as its Fraction, so
equal values render the same whatever the order of the sums that made them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Iterable, NamedTuple, Union

from .errors import ConfigurationError

Rational = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and exact fraction strings like "3/4"; not bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ConfigurationError("not an exact rational: %r" % (value,))


class Poly:
    """Polynomial in one formal variable over the rationals.

    Coefficients are stored lowest degree first with no trailing zeros.
    Supports the ring operations used by :class:`RingElement` plus
    evaluation and formal differentiation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((as_fraction(c),))

    @classmethod
    def variable(cls) -> "Poly":
        return cls((0, 1))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly(x + y for x, y in zip(a, b))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(-as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __call__(self, point) -> Fraction:
        point = as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append("%s*t^%d" % (c, i) if i else str(c))
        return "Poly(%s)" % " + ".join(parts)


class Monomial(NamedTuple):
    """One coefficient monomial T^lam e^e s^s t^t, sorted lexicographically."""

    lam: Fraction
    e: int
    s: int
    t: tuple

    def level(self) -> Fraction:
        """Valuation contribution: lam + s + sum(t)."""
        return self.lam + self.s + sum(self.t)

    def degree(self, spec: "RingSpec") -> int:
        return 2 * self.e + self.s * spec.s_degree + sum(
            a * d for a, d in zip(self.t, spec.t_degrees)
        )

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            self.lam + other.lam,
            self.e + other.e,
            self.s + other.s,
            tuple(a + b for a, b in zip(self.t, other.t)),
        )

    def text(self) -> str:
        parts = []
        if self.lam:
            parts.append("T^%s" % self.lam)
        if self.e:
            parts.append("e^%d" % self.e)
        if self.s:
            parts.append("s^%d" % self.s)
        for i, a in enumerate(self.t):
            if a:
                parts.append("t%d^%d" % (i, a))
        return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class RingSpec:
    """Configuration of the coefficient ring: variable degrees and cutoff."""

    s_degree: int = 2
    t_degrees: tuple = ()
    cutoff: Fraction = Fraction(10)

    def __post_init__(self):
        object.__setattr__(self, "t_degrees", tuple(self.t_degrees))
        object.__setattr__(self, "cutoff", as_fraction(self.cutoff))
        if self.cutoff < 0:
            raise ConfigurationError("energy cutoff must be nonnegative")
        if self.s_degree % 2 != 0:
            raise ConfigurationError("deg(s) must be even (odd coefficient variables unsupported)")
        for i, d in enumerate(self.t_degrees):
            if d % 2 != 0:
                raise ConfigurationError(
                    "deg(t%d) must be even (odd coefficient variables unsupported)" % i
                )

    @property
    def num_t(self) -> int:
        return len(self.t_degrees)

    def with_cutoff(self, cutoff) -> "RingSpec":
        return RingSpec(self.s_degree, self.t_degrees, as_fraction(cutoff))

    def one_monomial(self) -> Monomial:
        return Monomial(Fraction(0), 0, 0, (0,) * self.num_t)

    def monomial(self, lam=0, e=0, s=0, t=None) -> Monomial:
        lam = as_fraction(lam)
        if lam < 0:
            raise ConfigurationError("T-exponent must be nonnegative")
        t = tuple(t) if t is not None else (0,) * self.num_t
        if len(t) != self.num_t:
            raise ConfigurationError("wrong number of t-exponents")
        if s < 0 or any(a < 0 for a in t):
            raise ConfigurationError("s- and t-exponents must be nonnegative")
        return Monomial(lam, int(e), int(s), tuple(int(a) for a in t))


class RingElement:
    """Finite normalized sum of coefficient monomials.

    Immutable after construction.  ``terms`` maps Monomial -> scalar, where a
    scalar is a Fraction or (for gauge paths) a Poly of degree at least 1.
    Construction stores a constant Poly as its Fraction, and drops zero
    scalars and monomials whose valuation exceeds the cutoff, so structural
    equality of the term maps is semantic equality mod the cutoff ideal.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: RingSpec, terms=None):
        self.spec = spec
        clean = {}
        if terms:
            for mono, value in terms.items():
                if isinstance(value, Poly) and len(value.coeffs) <= 1:
                    value = value.coeffs[0] if value.coeffs else 0
                if not value:
                    continue
                if mono.level() > spec.cutoff:
                    continue
                clean[mono] = value
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> "RingElement":
        return cls(spec)

    @classmethod
    def one(cls, spec: RingSpec) -> "RingElement":
        return cls(spec, {spec.one_monomial(): Fraction(1)})

    @classmethod
    def scalar(cls, spec: RingSpec, c) -> "RingElement":
        return cls(spec, {spec.one_monomial(): as_fraction(c)})

    @classmethod
    def monomial(cls, spec: RingSpec, coeff, lam=0, e=0, s=0, t=None) -> "RingElement":
        value = coeff if isinstance(coeff, Poly) else as_fraction(coeff)
        return cls(spec, {spec.monomial(lam, e, s, t): value})

    # -- ring structure ----------------------------------------------------

    def _require_compatible(self, other: "RingElement"):
        if self.spec != other.spec:
            if self.spec.cutoff != other.spec.cutoff:
                raise ConfigurationError(
                    "mismatched energy cutoffs: %s vs %s" % (self.spec.cutoff, other.spec.cutoff)
                )
            raise ConfigurationError("mismatched coefficient ring configurations")

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_compatible(other)
        terms = dict(self.terms)
        for mono, value in other.terms.items():
            acc = terms.get(mono)
            terms[mono] = value if acc is None else acc + value
        return RingElement(self.spec, terms)

    def __neg__(self):
        return RingElement(self.spec, {m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_compatible(other)
        cutoff = self.spec.cutoff
        terms = {}
        for m1, v1 in self.terms.items():
            lvl1 = m1.level()
            for m2, v2 in other.terms.items():
                if lvl1 + m2.level() > cutoff:
                    continue
                mono = m1.mul(m2)
                value = v1 * v2
                acc = terms.get(mono)
                terms[mono] = value if acc is None else acc + value
        return RingElement(self.spec, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "RingElement":
        if not isinstance(c, Poly):
            c = as_fraction(c)
        return RingElement(self.spec, {m: c * v for m, v in self.terms.items()})

    def divide_int(self, n: int) -> "RingElement":
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return self.scale(Fraction(1, n))

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.spec == other.spec and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- valuation, truncation, grading -------------------------------------

    def valuation(self):
        """Minimum of lam + s + sum(t) over stored terms; +inf for zero."""
        if not self.terms:
            return inf
        return min(m.level() for m in self.terms)

    def truncate(self, energy) -> "RingElement":
        energy = as_fraction(energy)
        if energy < 0:
            raise ConfigurationError("truncation energy must be nonnegative")
        spec = self.spec.with_cutoff(min(self.spec.cutoff, energy))
        return RingElement(spec, {m: v for m, v in self.terms.items() if m.level() <= energy})

    def degrees(self) -> set:
        return {m.degree(self.spec) for m in self.terms}

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, Fraction(0))

    def level_part(self, level) -> "RingElement":
        """The slice of terms at exactly the given valuation level."""
        level = as_fraction(level)
        return RingElement(self.spec, {m: v for m, v in self.terms.items() if m.level() == level})

    # -- gauge paths ---------------------------------------------------------

    def specialize(self, point) -> "RingElement":
        """Evaluate polynomial scalars at a rational point."""
        out = {}
        for m, v in self.terms.items():
            out[m] = v(point) if isinstance(v, Poly) else v
        return RingElement(self.spec, out)

    def formal_derivative(self) -> "RingElement":
        """d/dt on polynomial scalars; constants differentiate to zero."""
        out = {}
        for m, v in self.terms.items():
            if isinstance(v, Poly):
                out[m] = v.derivative()
        return RingElement(self.spec, out)

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, value in self.sorted_terms():
            if isinstance(value, Poly):
                coeff = "(" + repr(value)[5:-1] + ")"
            else:
                coeff = str(value)
            mtext = mono.text()
            parts.append(coeff if mtext == "1" else "%s*%s" % (coeff, mtext))
        return " + ".join(parts)

    def __repr__(self):
        return "RingElement(%s)" % self.text()

