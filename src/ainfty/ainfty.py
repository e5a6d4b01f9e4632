"""Curved gapped filtered A-infinity algebras over the Novikov-type ring.

Structure constants are stored per (arity k, monoid element beta) on the
T-free part and assembled as m_k = sum_beta T^{lam(beta)} e^{mu(beta)/2}
m_{k,beta} at evaluation time, so the gapped structure stays explicit.

Conventions:
  * operations act on the shift A[1]; m_k has uniform degree 2 - k;
  * the coderivation sign at insertion position i is (-1)^{maltese_i} with
    maltese_i the sum of shifted degrees of the first i inputs; ``insertions``
    is the one loop over insertion positions and their signs, and every
    differential here and in the Hochschild layer is a sum over it;
    ``uninsertions`` runs it backwards through ``words_by_output``, and
    every support-driven check lists the words it evaluates with it;
  * the full coderivation includes the curvature insertions (arity 0), so
    "coderivation squares to zero" is equivalent to the curved relations.

The dual bimodule machinery at the bottom of this module (diagonal and dual
differentials, bimodule words) backs ``check_bimodule_hom`` and is shared
with the pairing layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .coeff import RingElement, RingSpec, as_fraction
from .errors import ConfigurationError, DivergenceError
from .graded import (Element, GradedBasis, Word, WordSum, add_term, maltese,
                     tensor_coefficient, words_over)
from .report import Report


class MonoidElement(NamedTuple):
    """Energy-index pair (lam, mu) with lam >= 0 rational and mu even."""

    lam: Fraction
    mu: int


OpTable = Dict[Word, Dict[int, RingElement]]


@dataclass
class AInftyAlgebra:
    basis: GradedBasis
    monoid: tuple
    ops: Dict[Tuple[int, int], OpTable]
    spec: RingSpec
    k_max: int = 6
    l_max: int = 4
    n_max: int = 5
    higher_arities_zero: bool = True
    name: str = "algebra"
    _m_cache: dict = field(default_factory=dict, repr=False)
    _words_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _arities: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _by_output: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.monoid = tuple(MonoidElement(as_fraction(l), int(m)) for l, m in self.monoid)
        self.validate()

    # -- load-time validation ------------------------------------------------

    def validate(self):
        unit = self.basis.require_unit()
        for idx, beta in enumerate(self.monoid):
            if beta.lam < 0:
                raise ConfigurationError("monoid element %d has negative energy" % idx)
            if beta.mu % 2 != 0:
                raise ConfigurationError("monoid element %d has odd index mu" % idx)
            if (beta.lam * self.spec.grid).denominator != 1:
                raise ConfigurationError(
                    "monoid element %d has energy %s off the energy grid 1/%d"
                    % (idx, beta.lam, self.spec.grid)
                )
            if beta.lam == 0 and beta.mu != 0:
                raise ConfigurationError(
                    "monoid element %d: zero energy forces the neutral element (0,0)" % idx
                )
        neutral = [i for i, b in enumerate(self.monoid) if b.lam == 0]
        for (k, bidx), table in self.ops.items():
            if not 0 <= bidx < len(self.monoid):
                raise ConfigurationError(
                    "operation table (k=%d) labeled by unknown monoid element %d"
                    % (k, bidx)
                )
            if k == 0 and bidx in neutral:
                for word, out in table.items():
                    if any(v for v in out.values()):
                        raise ConfigurationError(
                            "m[0] at the neutral monoid element must be zero"
                        )
            beta = self.monoid[bidx]
            for word, out in table.items():
                if len(word) != k:
                    raise ConfigurationError(
                        "operation table (k=%d) keyed by a word of length %d" % (k, len(word))
                    )
                want = sum(self.basis.degree(i) for i in word) + 2 - k - beta.mu
                for comp, value in out.items():
                    for mono in value.terms:
                        if mono.lam != 0 or mono.e != 0:
                            raise ConfigurationError(
                                "structure constants must be T- and e-free; "
                                "energy and index come from the monoid label"
                            )
                    got = {self.basis.degree(comp) + d for d in value.degrees()}
                    if got - {want}:
                        raise ConfigurationError(
                            "m_{%d,beta%d}%s is not degree-homogeneous: "
                            "output degree %s, expected %d"
                            % (k, bidx, tuple(self.basis.names[i] for i in word),
                               sorted(got), want)
                        )
        self.check_arity_cutoff()

    def check_arity_cutoff(self):
        """Refuse a k_max past the stored tables unless higher arities are zero."""
        if not self.higher_arities_zero:
            stored = {k for (k, _) in self.ops}
            if stored and max(stored) < self.k_max + 1:
                raise ConfigurationError(
                    "relation checking at arity %d needs tables up to %d; "
                    "either supply them or mark higher arities zero"
                    % (self.k_max, self.k_max + 1)
                )

    # -- evaluation ----------------------------------------------------------

    def stored_arities(self) -> tuple:
        """The arities of the stored tables, ascending; cached on first use.

        Like the word cache, it assumes the table keys stay fixed after that.
        """
        if self._arities is None:
            self._arities = tuple(sorted({k for (k, _) in self.ops}))
        return self._arities

    def stored_words(self, k: int) -> tuple:
        """The words of some arity-k table, sorted; m_word vanishes off them."""
        words = self._words_cache.get(k)
        if words is None:
            words = tuple(sorted({word for (arity, _), table in self.ops.items()
                                  if arity == k for word in table}))
            self._words_cache[k] = words
        return words

    def max_stored_arity(self) -> int:
        arities = self.stored_arities()
        return arities[-1] if arities else 0

    def _check_arity(self, k: int):
        if k > self.max_stored_arity() and not self.higher_arities_zero:
            raise ConfigurationError(
                "operation of arity %d requested but tables stop at %d"
                % (k, self.max_stored_arity())
            )

    def assembly_coefficient(self, bidx: int) -> RingElement:
        beta = self.monoid[bidx]
        if beta.mu % 2 != 0:
            raise ConfigurationError("odd monoid index")
        return RingElement.monomial(self.spec, 1, lam=beta.lam, e=beta.mu // 2)

    def m_word(self, word: Word) -> Dict[int, RingElement]:
        """Assembled operation of arity len(word) on a pure basis word."""
        cached = self._m_cache.get(word)
        if cached is not None:
            return cached
        k = len(word)
        self._check_arity(k)
        out: Dict[int, RingElement] = {}
        for (arity, bidx), table in self.ops.items():
            if arity != k:
                continue
            entry = table.get(word)
            if not entry:
                continue
            factor = self.assembly_coefficient(bidx)
            for comp, value in entry.items():
                add_term(out, comp, factor * value)
        self._m_cache[word] = out
        return out

    def m_word_element(self, word: Word) -> Element:
        return Element(self.basis, self.m_word(word))

    def zero_ring(self) -> RingElement:
        return RingElement.zero(self.spec)

    def one_ring(self) -> RingElement:
        return RingElement.one(self.spec)

    def unit_element(self) -> Element:
        return Element.generator(self.basis, self.basis.require_unit(), self.one_ring())

    def element(self, mapping) -> Element:
        comp = {}
        for key, value in mapping.items():
            idx = key if isinstance(key, int) else self.basis.index(key)
            comp[idx] = value
        return Element(self.basis, comp)

    def word_text(self, word: Word) -> str:
        return "(" + ",".join(self.basis.names[i] for i in word) + ")"


def apply_m(algebra: AInftyAlgebra, inputs: Sequence[Element]) -> Element:
    """Multilinear evaluation of the assembled operation on module elements.

    Visits only the stored words of arity k = len(inputs), in sorted order,
    and multiplies only the input coefficients at their letters, so a call
    costs O(|support| * k) ring products with |support| the number of
    stored words of arity k, not the size of the tensor product of the
    inputs.  Coefficient variables all have even degree, so ring
    coefficients commute past inputs without signs.
    """
    k = len(inputs)
    if k > algebra.k_max:
        raise ConfigurationError("arity %d exceeds the arity cutoff %d" % (k, algebra.k_max))
    algebra._check_arity(k)
    if not k:
        return algebra.m_word_element(())
    acc: Dict[int, RingElement] = {}
    for word in algebra.stored_words(k):
        coeff = tensor_coefficient(inputs, word)
        if not coeff:
            continue
        for comp, value in algebra.m_word(word).items():
            add_term(acc, comp, coeff * value)
    return Element(algebra.basis, acc)


def insertions(algebra: AInftyAlgebra, word: Word, base: int = 0):
    """The nonzero insertions of the operations into a word, with their signs.

    Yields (i, k, inner, sign) for each nonzero inner = m_word(word[i:i+k]),
    with k ascending over the stored arities (arity 0 included), then i
    ascending, and sign = (-1)^{base + maltese_i}, maltese_i the sum of the
    shifted degrees of the first i letters.  Every differential of the
    engine is a sum over these insertions: the coderivation and the curved
    relations, the word parts of the diagonal and dual bar differentials,
    and the interior parts of Hochschild b and b'.
    """
    basis_degrees = algebra.basis.degrees
    degrees = [basis_degrees[x] for x in word]
    n = len(word)
    for k in algebra.stored_arities():
        for i in range(n - k + 1):
            inner = algebra.m_word(word[i : i + k])
            if inner:
                yield i, k, inner, -1 if (base + maltese(degrees, i)) % 2 else 1


def words_by_output(algebra: AInftyAlgebra) -> Dict[int, tuple]:
    """The stored words of nonzero m_word, indexed by their output letters.

    Maps each letter c to the stored words u (arity 0 included), ascending
    by arity and then sorted, whose m_word(u) has a term at c: the words an
    insertion can turn into the letter c.  Built once per algebra on first
    use; like the word cache, it assumes the tables stay fixed after that.
    """
    index = algebra._by_output
    if index is None:
        lists: Dict[int, list] = {}
        for k in algebra.stored_arities():
            for inner in algebra.stored_words(k):
                for comp in algebra.m_word(inner):
                    lists.setdefault(comp, []).append(inner)
        index = algebra._by_output = {comp: tuple(words) for comp, words in lists.items()}
    return index


def uninsertions(algebra: AInftyAlgebra, word: Word, max_len: int):
    """The words one insertion can turn into ``word``, up to a length.

    Yields word[:i] + u + word[i+1:] for each letter word[i] and each u that
    ``words_by_output`` lists under it (u = () deletes the letter), when the
    result has at most max_len letters.  A sum over ``insertions`` of a
    word has a term at ``word`` only if the word is one of these, so every
    support-driven check lists its candidates through this.
    """
    index = words_by_output(algebra)
    for i, letter in enumerate(word):
        for inner in index.get(letter, ()):
            if len(word) - 1 + len(inner) <= max_len:
                yield word[:i] + inner + word[i + 1 :]


def _relation_support(algebra: AInftyAlgebra, k_max: int) -> list:
    """The words of length <= k_max whose curved relation can have a term.

    These are the un-insertions of the stored words o of nonzero m_word,
    o[:i] + u + o[i+1:] with o[i] an output letter of m_word(u), sorted by
    (length, word) as ``words_over`` lists them.  Where higher arities are
    not marked zero, a word of length top + len(u) <= k_max needs an outer
    operation of arity top + 1 past the stored tables, so this raises as
    m_word does on it.
    """
    top = algebra.max_stored_arity()
    nonzero = {word for words in words_by_output(algebra).values() for word in words}
    if not algebra.higher_arities_zero and any(len(inner) + top <= k_max for inner in nonzero):
        algebra._check_arity(top + 1)
    found = {word for outer in nonzero for word in uninsertions(algebra, outer, k_max)}
    return sorted(found, key=lambda word: (len(word), word))


def coderivation(algebra: AInftyAlgebra, words: WordSum) -> WordSum:
    """The coderivation extending the operations to tensor words.

    Includes the arity-0 insertions; on the empty word the arity-0 part
    produces the one-letter curvature word.
    """
    out: WordSum = {}
    for word, coeff in words.items():
        for i, k, inner, sign in insertions(algebra, word):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                add_term(out, word[:i] + (comp,) + word[i + k :], signed * value)
    return out


def check_ainfty(algebra: AInftyAlgebra, k_max: Optional[int] = None) -> Report:
    """Verify the curved relations on every basis word up to the arity cutoff.

    The residual at a word (x_1..x_n) is
        sum_{l,i} (-1)^{maltese_i} m_{n-l+1}(x_1.., m_l(x_{i+1}..x_{i+l}), ..x_n)
    including the l = 0 curvature insertions; all residuals must vanish
    modulo the energy cutoff.  Every one of the |basis|^n words of each
    length n <= k_max is counted as checked, but a term of a residual needs
    a nonzero inner m_l on a stored word u and a nonzero outer m on the
    stored word o that u's output letter makes, so a word that is not of
    the form o[:i] + u + o[i+1:] has an empty residual.  Only the words of
    that form (``_relation_support``) are expanded, in the order of
    ``words_over``, so the failure lines come out as if every word were.
    The cost is O(|stored outer words| * arity * |stored inner words|) to
    list them plus their expansion, not |basis|^k_max.
    """
    k_max = algebra.k_max if k_max is None else k_max
    report = Report("ainfty-relations")
    report.note("E_max", algebra.spec.cutoff)
    report.note("K_max", k_max)
    basis = algebra.basis
    report.tick(sum(len(basis) ** n for n in range(k_max + 1)))
    for word in _relation_support(algebra, k_max):
        residual: Dict[int, RingElement] = {}
        for i, l, inner, sign in insertions(algebra, word):
            for comp, value in inner.items():
                outer = algebra.m_word(word[:i] + (comp,) + word[i + l :])
                for ocomp, ovalue in outer.items():
                    piece = value * ovalue
                    add_term(residual, ocomp, -piece if sign < 0 else piece)
        if residual:
            report.fail(
                "relation at n=%d %s: residual %s"
                % (len(word), algebra.word_text(word), Element(basis, residual).text())
            )
    return report


def check_strict_unit(algebra: AInftyAlgebra, k_max: Optional[int] = None) -> Report:
    """Unit laws for m_2 and vanishing of all other unit insertions."""
    k_max = algebra.k_max if k_max is None else k_max
    report = Report("strict-unit")
    report.note("E_max", algebra.spec.cutoff)
    report.note("K_max", k_max)
    basis = algebra.basis
    unit = basis.require_unit()
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


# -- weak bounding cochains -------------------------------------------------


def _require_candidate(algebra: AInftyAlgebra, b: Element):
    if b and not b.is_homogeneous(1):
        raise ConfigurationError("candidate must be homogeneous of total degree 1")
    if b.valuation() <= 0:
        raise DivergenceError("candidate must have positive valuation")


def curvature(algebra: AInftyAlgebra, b: Element) -> Element:
    """The deformed curvature m_0^b = sum_k m_k(b,...,b), truncated."""
    _require_candidate(algebra, b)
    nu = b.valuation()
    total = Element.zero(algebra.basis)
    k = 0
    while True:
        if k > 0 and nu is not inf and k * nu > algebra.spec.cutoff:
            break
        if k > algebra.max_stored_arity():
            algebra._check_arity(k)
            break
        total = total + apply_m(algebra, [b] * k)
        k += 1
        if nu is inf and k > algebra.max_stored_arity():
            break
    return total


def check_weak_mc(algebra: AInftyAlgebra, b: Element):
    """Is m_0^b a scalar multiple of the unit?  Returns (flag, c, residual)."""
    cur = curvature(algebra, b)
    c, rest = cur.unit_scalar_split()
    if c is None:
        c = algebra.zero_ring()
    return rest.is_zero(), c, rest


def validate_right_inverse(algebra: AInftyAlgebra, h: Dict[int, Element]) -> None:
    """h must satisfy m1 o h = id on the image of m1 (neutral part, degree 2)."""
    basis = algebra.basis
    neutral = [i for i, beta in enumerate(algebra.monoid) if beta.lam == 0]

    def m1_neutral(element: Element) -> Element:
        acc = Element.zero(basis)
        for i, value in element.components.items():
            for (k, bidx), table in algebra.ops.items():
                if k != 1 or bidx not in neutral:
                    continue
                entry = table.get((i,))
                if not entry:
                    continue
                acc = acc + Element(basis, {c: value * v for c, v in entry.items()})
        return acc

    for i in range(len(basis)):
        image = m1_neutral(Element.generator(basis, i, algebra.one_ring()))
        if image.is_zero():
            continue
        back = Element.zero(basis)
        for comp, value in image.components.items():
            if comp not in h:
                raise ConfigurationError(
                    "right-inverse table missing entry for %s" % basis.names[comp]
                )
            back = back + h[comp].scale(value)
        if m1_neutral(back) != image:
            raise ConfigurationError(
                "right-inverse table fails m1 o h = id on the image at %s" % basis.names[i]
            )


@dataclass
class Obstruction:
    level: Fraction
    residual: Element

    def text(self) -> str:
        return "obstruction at energy %s: %s" % (self.level, self.residual.text())


def solve_mc(algebra: AInftyAlgebra, h: Dict[int, Element], seed: Element):
    """Order-by-order correction of the curvature toward a weak MC element.

    Iterates b <- b - h(m_0^b - c 1) on the lowest uncorrected energy level.
    Returns (b, c) on success or an Obstruction naming the first energy level
    whose residual cannot be absorbed through the supplied right inverse.
    """
    validate_right_inverse(algebra, h)
    basis = algebra.basis
    b = seed
    _require_candidate(algebra, b)
    seen_levels = set()
    for _ in range(10_000):
        ok, c, rest = check_weak_mc(algebra, b)
        if ok:
            return b, c
        level = rest.valuation()
        if level in seen_levels:
            return Obstruction(level, rest)
        seen_levels.add(level)
        correction = Element.zero(basis)
        for comp, value in rest.components.items():
            part = value.level_part(level)
            if not part:
                continue
            if comp not in h:
                return Obstruction(level, Element(basis, {comp: part}))
            correction = correction + h[comp].scale(part)
        if correction.is_zero():
            return Obstruction(level, rest)
        b = b - correction
    raise ConfigurationError("energy filtration did not terminate")


# -- bimodule words and the homomorphism check --------------------------------

BimodWord = Tuple[Word, int, Word]
BimodSum = Dict[BimodWord, RingElement]
DualWord = Tuple[Word, int, int, Word]  # (left, covector degree, argument, right)
DualSum = Dict[DualWord, RingElement]


def delta_diagonal(algebra: AInftyAlgebra, words: BimodSum) -> BimodSum:
    """Bar differential of the diagonal bimodule on (left, y, right) words.

    The bar factors are reduced: insertion outputs hitting the unit in a
    word slot are quotiented away (the module slot is unrestricted).
    """
    basis = algebra.basis
    unit = basis.unit
    out: BimodSum = {}
    for (lw, y, rw), coeff in words.items():
        ldeg = [basis.degree(i) for i in lw]
        # operations inside the left word
        for i, k, inner, sign in insertions(algebra, lw):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                if comp != unit:
                    add_term(out, (lw[:i] + (comp,) + lw[i + k :], y, rw), signed * value)
        # operations inside the right word, past the left word and y
        base = maltese(ldeg, len(lw)) + basis.degree(y) - 1
        for i, k, inner, sign in insertions(algebra, rw, base):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                if comp != unit:
                    add_term(out, (lw, y, rw[:i] + (comp,) + rw[i + k :]), signed * value)
        # operations absorbing the module slot
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


def delta_dual(algebra: AInftyAlgebra, words: DualSum) -> DualSum:
    """Bar differential of the dual bimodule on flattened dual words.

    The covector slot is carried as (degree, evaluated argument); absorbing
    a span (x_(p+1)..x_k | cov | z_1..z_q) produces, at each basis argument
    w, the value (-1)^eps cov(m(z_1..z_q, w, x_(p+1)..x_k)) with, for L and
    R the shifted-degree sums of the absorbed left and right letters and c
    the covector's unshifted degree,

        eps = c + 1 + L (c + R + |w|').

    The covector crosses with the parity of its unshifted degree (dualizing
    flips the shift): the unique small convention under which this
    differential squares to zero, the bimodule homomorphism check closes on
    generic cocycle towers, and p = q = 0 reduces to (-1)^{|cov|'} cov(m_1(w)).
    The result is again evaluated on basis arguments, keeping the
    representation flat.
    """
    basis = algebra.basis
    unit = basis.unit
    out: DualSum = {}
    for (lw, cdeg, arg, rw), coeff in words.items():
        ldeg = [basis.degree(i) for i in lw]
        for i, k, inner, sign in insertions(algebra, lw):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                if comp != unit:
                    add_term(out, (lw[:i] + (comp,) + lw[i + k :], cdeg, arg, rw),
                             signed * value)
        base = maltese(ldeg, len(lw)) + cdeg
        for i, k, inner, sign in insertions(algebra, rw, base):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                if comp != unit:
                    add_term(out, (lw, cdeg, arg, rw[:i] + (comp,) + rw[i + k :]),
                             signed * value)
        # dual structure maps absorbing the covector slot
        for p in range(len(lw) + 1):
            for q in range(len(rw) + 1):
                absorbed_left = lw[p:]          # letters left of the covector
                absorbed_right = rw[:q]         # letters right of the covector
                prefix_sign = -1 if maltese(ldeg, p) % 2 else 1
                sum_left = sum(basis.degree(i) - 1 for i in absorbed_left)
                sum_right = sum(basis.degree(i) - 1 for i in absorbed_right)
                new_cdeg = cdeg + sum_left + sum_right + 1
                for w in range(len(basis)):
                    word = absorbed_right + (w,) + absorbed_left
                    if len(word) > algebra.max_stored_arity() and algebra.higher_arities_zero:
                        continue
                    inner = algebra.m_word(word)
                    value = inner.get(arg)
                    if not value:
                        continue
                    w_shift = basis.degree(w) - 1
                    eps = cdeg + 1 + sum_left * (cdeg + sum_right + w_shift)
                    sign = prefix_sign * (-1 if eps % 2 else 1)
                    add_term(out, (lw[:p], new_cdeg, w, rw[q:]), coeff.scale(sign) * value)
    return out


def phi_hat(algebra: AInftyAlgebra, phi, words: BimodSum) -> DualSum:
    """Comodule extension of a bimodule map phi into the dual bimodule.

    phi exposes an integer ``degree`` (its shift as a map) and ``table``,
    the sparse map (alpha, v, beta, w) -> phi(alpha (x) v (x) beta)(w) on
    basis words, a missing key standing for zero.  Each split
    (alpha, y, beta) of a word reads the table at every final argument w in
    increasing order, so it costs |basis| lookups.  The extension is graded:
    the left prefix crossed by phi contributes (-1)^{deg(phi) * prefix}.
    The produced dual slot carries covector degree deg(phi) plus the
    shifted degrees of the consumed slots.
    """
    basis = algebra.basis
    table = phi.table
    out: DualSum = {}
    d = phi.degree
    for (lw, y, rw), coeff in words.items():
        ldeg = [basis.degree(i) for i in lw]
        for p in range(len(lw) + 1):
            for q in range(len(rw) + 1):
                alpha = lw[p:]
                beta = rw[:q]
                prefix = maltese(ldeg, p) * d
                sign = -1 if prefix % 2 else 1
                cdeg = d + sum(basis.degree(i) - 1 for i in alpha) \
                    + (basis.degree(y) - 1) + sum(basis.degree(i) - 1 for i in beta)
                for w in range(len(basis)):
                    value = table.get((alpha, y, beta, w))
                    if value:
                        add_term(out, (lw[:p], cdeg, w, rw[q:]), coeff.scale(sign) * value)
    return out


def _bimodule_residual(algebra: AInftyAlgebra, phi, start: BimodWord) -> DualSum:
    """D(x) = phi-hat(delta(x)) - (-1)^{deg(phi)} delta'(phi-hat(x)) at one bar word x."""
    word = {start: algebra.one_ring()}
    diff = phi_hat(algebra, phi, delta_diagonal(algebra, word))
    gsign = -1 if phi.degree % 2 else 1
    for key, value in delta_dual(algebra, phi_hat(algebra, phi, word)).items():
        add_term(diff, key, value.scale(-gsign))
    return diff


def _bar_order(start: BimodWord):
    """The order of the quantifier: total length, left length, lw, rw, y."""
    lw, y, rw = start
    return len(lw) + len(rw), len(lw), lw, rw, y


def _corestriction_support(algebra: AInftyAlgebra, phi, l_max: int) -> list:
    """The bar words at which the corestriction D_0 of D can be nonzero.

    A term of D_0(lw, y, rw) reads phi.table at a key (a, v, b, w) with both
    outer words of the output empty.  On the left side, delta(x) reached
    the key's bar word: an insertion into lw made a letter of a, one into
    rw made a letter of b, or the module slot absorbed
    u = lw[p:] + (y,) + rw[:q] into v.  On the right side, phi-hat read the
    key at a split of x and delta' absorbed both outer words around a
    letter u[j] into the covector at w.  So x is an un-insertion of a or b,
    or (a + u[:j], u[j], u[j+1:] + b) for u listed under v, or
    (u[j+1:] + a, v, b + u[:j]) for u listed under w.  Listed in the
    quantifier's order: unit-free outer words of total length <= l_max.
    """
    index = words_by_output(algebra)
    unit = algebra.basis.unit
    found = set()
    for a, v, b, w in phi.table:
        found.update((lw, v, b) for lw in uninsertions(algebra, a, l_max - len(b)))
        found.update((a, v, rw) for rw in uninsertions(algebra, b, l_max - len(a)))
        for u in index.get(v, ()):
            found.update((a + u[:j], u[j], u[j + 1 :] + b) for j in range(len(u)))
        for u in index.get(w, ()):
            found.update((u[j + 1 :] + a, v, b + u[:j]) for j in range(len(u)))
    return sorted((x for x in found if len(x[0]) + len(x[2]) <= l_max
                   and unit not in x[0] and unit not in x[2]), key=_bar_order)


def _extensions(middles, letters, l_max: int) -> list:
    """Every (left + lw, y, rw + right) for (lw, y, rw) in middles and reduced
    outer words left, right, of total length <= l_max, in quantifier order."""
    found = set()
    for lw, y, rw in middles:
        room = l_max - len(lw) - len(rw)
        for nl in range(room + 1):
            for left in words_over(letters, nl):
                for nr in range(room - nl + 1):
                    found.update((left + lw, y, rw + right) for right in words_over(letters, nr))
    return sorted(found, key=_bar_order)


def check_bimodule_hom(algebra: AInftyAlgebra, phi, l_max: Optional[int] = None) -> Report:
    """Verify phi-hat o delta = (-1)^{deg(phi)} delta' o phi-hat.

    The quantifier runs over the reduced bar coalgebra: unit-free left and
    right words with len(lw) + len(rw) <= l_max, and the module slot (and
    the flattened covector argument) ranging over the whole basis.  The
    graded sign on the right side is the usual chain-map sign of a degree-d
    map.  ``checked`` counts every bar word of the quantifier, but only the
    words the tables can reach are evaluated:

    delta and delta' are coderivations and phi-hat is a comodule extension,
    so D = phi-hat o delta - (-1)^d delta' o phi-hat is a bicomodule map: on
    x = (lw, y, rw) it is the sum over splits lw = l1 l2, rw = r1 r2 of
    (-1)^{(d+1) maltese(l1)} (l1, D_0(l2, y, r1), r2), with D_0 the
    corestriction (both outer words of the output empty).  The insertions
    into l1 and r2 cancel between the two sides term by term; every other
    term of D(x) at outer words (l1, r2) is, up to that one sign, the same
    product of the same ring elements as the matching term of
    D_0(l2, y, r1).  Energy truncation is applied per product and is
    linear, and the reduced quotient drops a unit output in an outer word
    on both sides alike, so neither breaks the identity.  Hence D(x) is
    zero exactly when D_0 vanishes at every middle (l2, y, r1) of x.

    D_0 can be nonzero only at the words ``_corestriction_support`` lists
    (a few per table key), so only those are evaluated.  When D_0 vanishes
    at all of them, every word passes.  Otherwise the failing words are
    exactly the extensions of the failing middles by reduced outer words;
    the residual is evaluated at each of them, in the quantifier's order,
    so the failure lines are those of a check of every word.  Where higher
    arities are not marked zero and a bar word of length top (the highest
    stored arity) is in range, delta would absorb top + 1 letters there, so
    this raises as m_word does on it.
    """
    l_max = algebra.l_max if l_max is None else l_max
    report = Report("bimodule-hom")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = basis.reduced_letters()
    top = algebra.max_stored_arity()
    if not algebra.higher_arities_zero and any(len(letters) ** t for t in range(top, l_max + 1)):
        algebra._check_arity(top + 1)
    report.tick(sum((t + 1) * len(letters) ** t for t in range(l_max + 1)) * len(basis))
    failing = [x for x in _corestriction_support(algebra, phi, l_max)
               if any(not lw and not rw for lw, _, _, rw in _bimodule_residual(algebra, phi, x))]
    for lw, y, rw in _extensions(failing, letters, l_max):
        diff = _bimodule_residual(algebra, phi, (lw, y, rw))
        if diff:
            key = min(diff)
            report.fail(
                "word %s|%s|%s: %d unbalanced terms, first %r -> %s"
                % (algebra.word_text(lw), basis.names[y],
                   algebra.word_text(rw), len(diff), key, diff[key].text())
            )
    return report
