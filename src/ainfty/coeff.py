"""Exact arithmetic in the Novikov-type coefficient ring.

Elements are finite sums of monomials

    c * T^lam * e^m * s^j * t_0^{l_0} ... t_N^{l_N}

with c an exact rational, lam a nonnegative rational, m any integer (e is
invertible), and j, l_i nonnegative integers.  Completed sums are modeled by
a mandatory energy cutoff: every operation discards monomials whose
valuation

    nu = lam + j + sum(l_i)

exceeds the cutoff, so all results are exact modulo T^{>cutoff}.

Energies live on a grid.  The energies of a gapped monoid are finitely many
rationals in any one document, so they all lie in (1/D)Z for one integer D,
the ``grid`` of the :class:`RingSpec`.  A :class:`Monomial` stores D*lam and
its scaled level D*nu as ints, and the cutoff becomes floor(D*cutoff), so
construction, products and truncation compare ints; the cutoff itself may
lie off the grid.  ``valuation`` and rendering give back the exact
rationals.  An energy off the grid is a ConfigurationError, elements on
different grids do not mix in arithmetic, and equality and hashing compare
values, so the same value on two grids is one value.

Gradings: deg(T) = 0, deg(e) = 2 are fixed; deg(s) and deg(t_i) are
configuration data carried by :class:`RingSpec` and must be even (this keeps
the coefficient ring strictly commutative, which the rest of the engine
relies on for Koszul bookkeeping).

For gauge paths the same element type is reused with coefficients that are
polynomials in a formal degree-0 variable (class :class:`Poly`) instead of
rationals; ``specialize`` evaluates them at a rational point.  A scalar has
one stored type per value: an int when it is integral, else a Fraction, and
a Poly only when its degree is at least 1; a constant Poly is stored as its
constant.  So equal values render the same whatever the order of the sums
that made them, and integral arithmetic stays in ints.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import floor, inf
from operator import add
from typing import Iterable, NamedTuple, Union

from .errors import ConfigurationError

Rational = Union[int, Fraction]

# An exact fraction string: an optional sign, digits, and an optional
# denominator of digits.  No decimal point, exponent, blank or underscore.
_FRACTION_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, and exact fraction strings like "3/4"; not
    bools, decimals ("0.5"), exponents ("1e-1") or a zero denominator."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _FRACTION_TEXT.fullmatch(value):
        numerator, _, denominator = value.partition("/")
        try:
            numerator, denominator = int(numerator), int(denominator or 1)
        except ValueError:  # past the interpreter's digit limit for int()
            raise ConfigurationError("fraction with more digits than int() reads")
        if denominator == 0:
            raise ConfigurationError("zero denominator: %r" % (value,))
        return Fraction(numerator, denominator)
    raise ConfigurationError("not an exact rational: %r" % (value,))


def _scalar(value):
    """The stored form of a scalar: an int when integral, else a Fraction; a
    Poly of degree at most 0 is stored as its constant."""
    if isinstance(value, Poly):
        if len(value.coeffs) > 1:
            return value
        value = value.coeffs[0] if value.coeffs else 0
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


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
    """One coefficient monomial T^lam e^e s^s t^t on a grid D, in sort order.

    ``lam`` is the scaled energy D*lam, and ``lvl`` the scaled level
    D*(lam + s + sum(t)).  The level is a function of the other fields, so
    as the last field it never changes the order of the monomials.
    """

    lam: int
    e: int
    s: int
    t: tuple
    lvl: int

    def degree(self, spec: "RingSpec") -> int:
        return 2 * self.e + self.s * spec.s_degree + sum(
            a * d for a, d in zip(self.t, spec.t_degrees)
        )

    def text(self, grid: int) -> str:
        parts = []
        if self.lam:
            parts.append("T^%s" % Fraction(self.lam, grid))
        if self.e:
            parts.append("e^%d" % self.e)
        if self.s:
            parts.append("s^%d" % self.s)
        for i, a in enumerate(self.t):
            if a:
                parts.append("t%d^%d" % (i, a))
        return "*".join(parts) if parts else "1"


# Builds a Monomial from a tuple without the NamedTuple constructor's Python
# frame, in the product loop ``mul_into``.
_new_monomial = tuple.__new__


class RingSpec:
    """Configuration of the coefficient ring: variable degrees, cutoff, grid.

    Energies lie on the grid (1/grid)Z; ``level_cutoff`` = floor(grid *
    cutoff) bounds the scaled levels of the monomials kept.  The energy
    cutoff defaults to ``RingSpec.cutoff`` = 10.  The grid is how energies
    are stored, not part of the ring, so two specs are equal, and hash the
    same, when their ``s_degree``, ``t_degrees`` and ``cutoff`` are, whatever
    their grids.
    """

    # the default energy cutoff, which ``document.load_dict`` also reads
    cutoff = Fraction(10)

    def __init__(self, s_degree: int = 2, t_degrees: tuple = (), cutoff: Fraction = cutoff,
                 grid: int = 2):
        self.s_degree = s_degree
        self.t_degrees = tuple(t_degrees)
        self.cutoff = as_fraction(cutoff)
        self.grid = grid
        if self.cutoff < 0:
            raise ConfigurationError("energy cutoff must be nonnegative")
        if not isinstance(grid, int) or isinstance(grid, bool) or grid < 1:
            raise ConfigurationError("energy grid must be a positive integer: %r" % (grid,))
        self.level_cutoff = floor(self.cutoff * self.grid)
        if s_degree % 2 != 0:
            raise ConfigurationError("deg(s) must be even (odd coefficient variables unsupported)")
        for i, d in enumerate(self.t_degrees):
            if d % 2 != 0:
                raise ConfigurationError(
                    "deg(t%d) must be even (odd coefficient variables unsupported)" % i
                )

    def _key(self) -> tuple:
        return self.s_degree, self.t_degrees, self.cutoff

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, RingSpec) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def num_t(self) -> int:
        return len(self.t_degrees)

    def one_monomial(self) -> Monomial:
        return Monomial(0, 0, 0, (0,) * self.num_t, 0)

    def monomial(self, lam=0, e=0, s=0, t=None) -> Monomial:
        lam = as_fraction(lam)
        if lam < 0:
            raise ConfigurationError("T-exponent must be nonnegative")
        scaled = lam * self.grid
        if scaled.denominator != 1:
            raise ConfigurationError(
                "T-exponent %s is off the energy grid 1/%d" % (lam, self.grid)
            )
        t = tuple(t) if t is not None else (0,) * self.num_t
        if len(t) != self.num_t:
            raise ConfigurationError("wrong number of t-exponents")
        if s < 0 or any(a < 0 for a in t):
            raise ConfigurationError("s- and t-exponents must be nonnegative")
        s, t = int(s), tuple(int(a) for a in t)
        lam = scaled.numerator
        return Monomial(lam, int(e), s, t, lam + self.grid * (s + sum(t)))


class RingElement:
    """Finite normalized sum of coefficient monomials.

    Immutable after construction.  ``terms`` maps Monomial -> scalar, where a
    scalar is an int, a Fraction that is not integral or (for gauge paths) a
    Poly of degree at least 1.  Construction stores each scalar in that one
    form, and drops zero scalars and monomials whose valuation exceeds the
    cutoff, so structural equality of the term maps is semantic equality mod
    the cutoff ideal.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: RingSpec, terms=None):
        self.spec = spec
        clean = {}
        if terms:
            top = spec.level_cutoff
            for mono, value in terms.items():
                if value and mono.lvl <= top:
                    clean[mono] = value if type(value) is int else _scalar(value)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, spec: RingSpec) -> "RingElement":
        return cls(spec)

    @classmethod
    def one(cls, spec: RingSpec) -> "RingElement":
        return cls(spec, {spec.one_monomial(): 1})

    @classmethod
    def monomial(cls, spec: RingSpec, coeff, lam=0, e=0, s=0, t=None) -> "RingElement":
        value = coeff if isinstance(coeff, Poly) else as_fraction(coeff)
        return cls(spec, {spec.monomial(lam, e, s, t): value})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        require_compatible(self.spec, other.spec)
        return RingElement(self.spec, add_into(dict(self.terms), other.terms))

    def __neg__(self):
        return RingElement(self.spec, {m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        require_compatible(self.spec, other.spec)
        return RingElement(self.spec, add_into(dict(self.terms), other.terms, -1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        require_compatible(self.spec, other.spec)
        top = self.spec.level_cutoff
        return RingElement(self.spec, mul_into({}, self.terms, other.terms, top))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "RingElement":
        if type(c) is not int:
            c = _scalar(c if isinstance(c, Poly) else as_fraction(c))
        return RingElement(self.spec, {m: c * v for m, v in self.terms.items()})

    def divide_int(self, n: int) -> "RingElement":
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return self.scale(Fraction(1, n))

    def _value(self) -> dict:
        """The terms keyed by exact rational energies: the same for one value
        on every grid."""
        grid = self.spec.grid
        return {(Fraction(m.lam, grid), m.e, m.s, m.t): v for m, v in self.terms.items()}

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.spec is not other.spec and self.spec != other.spec:
            return False
        if self.spec.grid == other.spec.grid:
            return self.terms == other.terms
        return self._value() == other._value()

    def __hash__(self):
        return hash((self.spec, frozenset(self._value().items())))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- valuation, truncation, grading -------------------------------------

    def valuation(self):
        """Minimum of lam + s + sum(t) over stored terms; +inf for zero."""
        if not self.terms:
            return inf
        return Fraction(min(m.lvl for m in self.terms), self.spec.grid)

    def degrees(self) -> set:
        return {m.degree(self.spec) for m in self.terms}

    def coefficient(self, mono: Monomial):
        return self.terms.get(mono, 0)

    def level_part(self, level) -> "RingElement":
        """The slice of terms at exactly the given valuation level."""
        scaled = as_fraction(level) * self.spec.grid
        return RingElement(self.spec, {m: v for m, v in self.terms.items() if m.lvl == scaled})

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
        grid = self.spec.grid
        parts = []
        for mono, value in self.sorted_terms():
            if isinstance(value, Poly):
                coeff = "(" + repr(value)[5:-1] + ")"
            else:
                coeff = str(value)
            mtext = mono.text(grid)
            parts.append(coeff if mtext == "1" else "%s*%s" % (coeff, mtext))
        return " + ".join(parts)

    def __repr__(self):
        return "RingElement(%s)" % self.text()


def require_compatible(left: RingSpec, right: RingSpec) -> None:
    """Raise unless elements of the two rings may be added or multiplied:
    one grid, one cutoff and the same variable degrees."""
    if left is right:
        return
    if left.grid != right.grid:
        raise ConfigurationError(
            "mismatched energy grids: 1/%d vs 1/%d" % (left.grid, right.grid)
        )
    if left == right:
        return
    if left.cutoff != right.cutoff:
        raise ConfigurationError(
            "mismatched energy cutoffs: %s vs %s" % (left.cutoff, right.cutoff)
        )
    raise ConfigurationError("mismatched coefficient ring configurations")


def canonical(raw: dict) -> dict:
    """A raw Monomial -> scalar map in stored form: zero scalars dropped and
    every other scalar in its one stored type (see ``_scalar``)."""
    return {mono: value if type(value) is int else _scalar(value)
            for mono, value in raw.items() if value}


def add_into(acc: dict, terms: dict, sign: int = 1) -> dict:
    """Add sign * terms into acc, both raw Monomial -> scalar maps; return acc.

    The one sum loop of the ring, as ``mul_into`` is the one product loop:
    ``RingElement`` addition and subtraction run it on a copy of the left
    terms, and the chain operators run it into one map per output key.  The
    caller checks that the rings are compatible.
    """
    for mono, value in terms.items():
        if sign < 0:
            value = -value
        old = acc.get(mono)
        acc[mono] = value if old is None else old + value
    return acc


def mul_into(acc: dict, a: dict, b: dict, top: int, sign: int = 1) -> dict:
    """Add sign * a * b into acc, all raw Monomial -> scalar maps; return acc.

    The one product loop of the ring: ``RingElement.__mul__`` runs it into
    an empty map, and the chain operators run it into one map per output
    key, so a sum of signed products makes no intermediate element.  The
    caller checks once that the rings of a and b are compatible and passes
    their scaled level cutoff ``top``; a product above it is never formed.
    Zeros and non-canonical scalars stay in acc until ``canonical`` or a
    ``RingElement`` cleans it.
    """
    right = b.items()
    for (lam1, e1, s1, t1, lvl1), v1 in a.items():
        if sign < 0:
            v1 = -v1
        for (lam2, e2, s2, t2, lvl2), v2 in right:
            lvl = lvl1 + lvl2
            if lvl > top:
                continue
            mono = _new_monomial(Monomial, (
                lam1 + lam2, e1 + e2, s1 + s2, t1 and tuple(map(add, t1, t2)), lvl))
            value = v1 * v2
            old = acc.get(mono)
            acc[mono] = value if old is None else old + value
    return acc
