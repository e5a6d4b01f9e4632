"""Graded free modules, tensor words, and the Koszul sign engine.

Every sign in the engine is a parity read from the prefix sums of shifted
degrees |x|' = |x| - 1 of basis elements, defined here by ``maltese`` (and
``maltese_prefixes``, all prefixes of a word in one pass), and the Koszul
sign of moving a block past the rest of a cyclic word, which every rotation,
wrap-around and cyclic reading pays, is ``crossing_sign``.  Coefficient ring
variables have even degree by configuration, so they never contribute to
sign parities; signs are multiplied into ring coefficients at the moment a
word is rewritten and are never stored separately.

A tensor word is a tuple of basis indices; linear combinations of words are
plain dicts mapping word -> RingElement ("word sums").  The Hochschild
layer keys its chains by (module slot, word) instead, and keeps each
coefficient as its raw Monomial -> scalar map.  The reduced complex
quotients away the words with the unit in a tensor slot, by two rules
that every layer calls: ``reduced`` tells a word with no unit in it, and
``quotient`` drops the outputs that put the unit into a tensor slot.
"""

from __future__ import annotations

from collections.abc import Sequence

from .coeff import RingElement
from .errors import ConfigurationError

Word = tuple[int, ...]


class GradedBasis:
    """Finite graded basis with its strict unit: the index of a letter of
    degree 0.

    Two bases are equal, and hash the same, when their names, degrees and
    unit are.
    """

    def __init__(self, names: tuple, degrees: tuple, unit: int):
        self.names = tuple(names)
        self.degrees = tuple(int(d) for d in degrees)
        self.unit = unit
        if len(self.names) != len(set(self.names)):
            raise ConfigurationError("basis names must be unique")
        if len(self.names) != len(self.degrees):
            raise ConfigurationError("basis names and degrees must align")
        if type(unit) is not int or not 0 <= unit < len(self.names):
            raise ConfigurationError("the unit must be the index of a basis element, not %r"
                                     % (unit,))
        if self.degrees[unit] != 0:
            raise ConfigurationError("the unit must have degree 0")

    def _key(self) -> tuple:
        return self.names, self.degrees, self.unit

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, GradedBasis) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ConfigurationError("unknown basis element %r" % name) from None

    def degree(self, i: int) -> int:
        return self.degrees[i]

    def reduced_letters(self) -> list:
        """The basis indices other than the unit: the letters of reduced words."""
        return [i for i in range(len(self.names)) if reduced((i,), self.unit)]


def reduced(word: Word, unit: int) -> bool:
    """Rule 2 of the reduced quotient: is ``word`` a word of the reduced
    complex, with no unit in a tensor slot?  A reader of words skips or
    refuses one that is not."""
    return unit not in word


def quotient(raw: dict, unit: int) -> dict:
    """Rule 1 of the reduced quotient, q: the entries of ``raw`` whose output
    puts no unit into a tensor slot, values shared.  A key is a chain key
    (module, word), whose tensor slots are its word's (the module slot may
    be the unit), or a letter that an operation outputs into one tensor
    slot."""
    return {key: value for key, value in raw.items()
            if (key != unit if type(key) is int else unit not in key[1])}


def maltese(degrees: Sequence[int], i: int) -> int:
    """Sum of shifted degrees of the first i entries.

    Only the parity is used downstream, but the exact integer is returned.
    """
    if i < 0 or i > len(degrees):
        raise ConfigurationError("maltese index out of range")
    return sum(degrees[:i]) - i


def maltese_prefixes(degrees: Sequence[int], base: int = 0) -> list:
    """base + maltese(degrees, i) for every i from 0 to len(degrees).

    One pass over the word, for loops that read the sign at many positions
    of the same word.
    """
    out = [base]
    for d in degrees:
        base += d - 1
        out.append(base)
    return out


def crossing_sign(total: int, block: int) -> int:
    """The sign of moving a block of shifted degree ``block`` past the rest
    of a cyclic word of shifted degree ``total``, (-1)^{block (total - block)}
    (Loday, Cyclic Homology, 2.1), the one place of it.  It is the same for
    the block and the rest, and +1 when either is empty."""
    return -1 if block * (total - block) % 2 else 1


class Element:
    """Sparse element of the free graded module: basis index -> RingElement."""

    __slots__ = ("basis", "components")

    def __init__(self, basis: GradedBasis, components=None):
        self.basis = basis
        comp = {}
        if components:
            for i, value in components.items():
                if value:
                    comp[i] = value
        self.components = comp

    @classmethod
    def zero(cls, basis: GradedBasis) -> "Element":
        return cls(basis)

    @classmethod
    def generator(cls, basis: GradedBasis, i: int, coeff: RingElement) -> "Element":
        return cls(basis, {i: coeff})

    def __add__(self, other: "Element") -> "Element":
        comp = dict(self.components)
        for i, value in other.components.items():
            acc = comp.get(i)
            comp[i] = value if acc is None else acc + value
        return Element(self.basis, comp)

    def __neg__(self) -> "Element":
        return Element(self.basis, {i: -v for i, v in self.components.items()})

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def scale(self, r) -> "Element":
        return Element(self.basis, {i: r * v for i, v in self.components.items()})

    def __rmul__(self, r):
        return self.scale(r)

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.basis == other.basis and self.components == other.components
        return NotImplemented

    def __hash__(self):
        return hash((self.basis, tuple(sorted(self.components.items(), key=lambda kv: kv[0]))))

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self):
        return bool(self.components)

    def valuation(self):
        from math import inf

        if not self.components:
            return inf
        return min(v.valuation() for v in self.components.values())

    def total_degrees(self) -> set:
        """Set of total degrees (basis degree + coefficient degree) present."""
        out = set()
        for i, value in self.components.items():
            base = self.basis.degree(i)
            out |= {base + d for d in value.degrees()}
        return out

    def is_homogeneous(self, degree: int) -> bool:
        return self.total_degrees() <= {degree}

    def unit_scalar_split(self):
        """Split off the unit component: returns (c, rest) with self = c*1 + rest."""
        comp = dict(self.components)
        c = comp.pop(self.basis.unit, None)
        return c, Element(self.basis, comp)

    def sorted_components(self):
        return sorted(self.components.items(), key=lambda kv: kv[0])

    def text(self) -> str:
        if not self.components:
            return "0"
        return " + ".join("(%s)*%s" % (value.text(), self.basis.names[i])
                          for i, value in self.sorted_components())

    def __repr__(self):
        return "Element(%s)" % self.text()


def add_term(acc: dict, key, value: RingElement) -> None:
    """Add value into the sparse sum acc at key, keeping only nonzero entries.

    The accumulator of sums of RingElements: word sums, bimodule and dual
    words, the phi table and component maps go through it.  Hochschild
    chains keep raw term maps instead, summed by ``coeff.mul_into`` and
    ``coeff.add_into``.
    """
    if not value:
        return
    old = acc.get(key)
    new = value if old is None else old + value
    if new:
        acc[key] = new
    elif old is not None:
        del acc[key]


def tensor_coefficient(elements: Sequence[Element], word: Word) -> RingElement | None:
    """Coefficient of the pure tensor ``word`` in elements[0] (x) ... (x) elements[-1].

    The product of the coefficient each element has at its letter of the
    (nonempty, equally long) word; None as soon as an element lacks its
    letter.  Coefficients are even, so they commute out without signs.
    """
    coeff = None
    for element, letter in zip(elements, word):
        c = element.components.get(letter)
        if c is None:
            return None
        coeff = c if coeff is None else coeff * c
    return coeff


def word_count(size: int, top: int) -> int:
    """The number of words of at most ``top`` letters over ``size``
    letters, sum_{n <= top} size^n, as a geometric sum in closed form."""
    if top < 0:
        return 0
    if size == 1:
        return top + 1
    return (size ** (top + 1) - 1) // (size - 1)


def marked_word_count(size: int, top: int) -> int:
    """The number of words of at most ``top`` letters over ``size`` letters
    with one of their n + 1 gaps marked, sum_{n <= top} (n + 1) size^n, in
    closed form: the derivative of the geometric sum, (1 - (top + 2) x^{top+1}
    + (top + 1) x^{top+2}) / (1 - x)^2 at x = size."""
    if top < 0:
        return 0
    if size == 1:
        return (top + 1) * (top + 2) // 2
    return (1 - (top + 2) * size ** (top + 1) + (top + 1) * size ** (top + 2)) // (size - 1) ** 2


def words_over(letters: Sequence[int], length: int):
    """All tuples of the given length over the letter set, in order."""
    if length == 0:
        yield ()
        return
    for head in words_over(letters, length - 1):
        for i in letters:
            yield head + (i,)
