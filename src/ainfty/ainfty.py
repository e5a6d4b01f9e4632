"""Curved gapped filtered A-infinity algebras over the Novikov-type ring.

Structure constants are stored per (arity k, monoid element beta) on the
T-free part, so the gapped structure stays explicit.  They are assembled as
m_k = sum_beta T^{lam(beta)} e^{mu(beta)/2} m_{k,beta} once per algebra, on
first use, into one operation index (``_operation_index``) that ``m_word``,
``apply_m``, ``insertions`` and ``uninsertions`` all read.  Every entry of a
loaded table has the A-infinity degree (see ``OperationIndex``), so the
index keeps no entry apart.  It also keeps the residual tables, each built
on first use: the curved relation residual table (``relation_residuals``),
which ``check_ainfty`` reports from and the b^2 and b'^2 maps of
``hochschild`` are formed from, and, in one walk, the per-slot strict-unit
residual table (``unit_slot_residuals``) and its signed sum over slots
(``unit_residuals``), which the rest of the b^2 and bB+Bb maps are formed
from; ``check_strict_unit`` reports from the per-slot table too, so the
strict unit laws are written once, in ``_unit_tables``.

Conventions:
  * operations act on the shift A[1]; m_k has uniform degree 2 - k;
  * the coderivation sign at insertion position i is (-1)^{maltese_i} with
    maltese_i the sum of shifted degrees of the first i inputs; ``insertions``
    is the loop over insertion positions and their signs.  The curved
    relations, delta (one pass over lw + (y,) + rw), the word parts of
    delta' and Hochschild b' are sums over it, and Hochschild b walks the
    same windows cyclically (see ``hochschild``); the one insertion loop
    outside it is the dual absorption of delta' in ``delta_dual``.
    ``insertions`` takes its sign from
    ``insertion_sign``, as the cocycle validation does.  ``uninsertions``
    runs the loop backwards through
    ``words_by_output``: the relation and bimodule checks list the words
    they evaluate with it, and the cocycle validation walks the same
    un-insertions, with their signs, from each key of a tower;
  * the full coderivation includes the curvature insertions (arity 0), so
    "coderivation squares to zero" is equivalent to the curved relations.

The dual bimodule machinery at the bottom of this module (diagonal and dual
differentials, bimodule words) backs ``check_bimodule_hom`` and is shared
with the pairing layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import inf
from operator import itemgetter

from .coeff import Rational, RingElement, RingSpec, as_fraction
from .errors import ArityError, ConfigurationError, DivergenceError
from .graded import (Element, GradedBasis, Word, add_term, crossing_sign, maltese,
                     maltese_prefixes, marked_word_count, quotient, reduced, tensor_coefficient,
                     word_count, words_over)
from .report import Report


class MonoidElement(tuple):
    """Energy-index pair (lam, mu) with lam >= 0 a Rational and mu an even
    int: a plain tuple with a read-only property per field."""

    __slots__ = ()

    def __new__(cls, lam: Rational, mu: int):
        return tuple.__new__(cls, (lam, mu))

    lam = property(itemgetter(0))
    mu = property(itemgetter(1))


OpTable = dict[Word, dict[int, RingElement]]


class OperationIndex:
    """The assembled operation table of an algebra; see ``_operation_index``.

    Every entry m_word(u)[c] has the A-infinity degree: |c|' = |u|' + 1
    mod 2, with |u|' the sum of the shifted degrees of u's letters.
    ``AInftyAlgebra.validate`` refuses an entry m_{k,beta}(u)[c] = x unless
    |c| + |x| = sum deg(u) + 2 - k - mu(beta), and ``RingSpec`` and
    ``validate`` refuse an odd coefficient degree |x| and an odd mu, so
    |c| = sum deg(u) - k mod 2, which is |c|' = |u|' + 1.  Assembly
    multiplies by T^lam e^{mu/2}, of even degree, so the parity holds for
    m_word too.  The chain identities of ``hochschild`` rest on it.
    ``relations``, ``units`` and ``slots`` are the residual tables of
    ``relation_residuals``, ``unit_residuals`` and ``unit_slot_residuals``,
    each None until its function fills it (the last two together).
    """

    def __init__(self, nonzero: dict[int, OpTable], by_output: dict[int, tuple],
                 arities: tuple):
        self.nonzero = nonzero
        self.by_output = by_output
        self.arities = arities
        self.relations: dict[int, OpTable] | None = None
        self.units: dict[int, OpTable] | None = None
        self.slots: dict[int, OpTable] | None = None


class AInftyAlgebra:
    """A validated curved A-infinity algebra with its cutoffs.

    Two algebras are equal when their tables, basis, monoid, ring, cutoffs,
    flag and name are; the operation index (``_index``, built from the
    tables on first use and cached) is not compared.
    """

    def __init__(self, basis: GradedBasis, monoid: tuple, ops: dict[tuple[int, int], OpTable],
                 spec: RingSpec, k_max: int = 6, l_max: int = 4, n_max: int = 5,
                 higher_arities_zero: bool = True, name: str = "algebra"):
        self.basis = basis
        self.monoid = tuple(MonoidElement(as_fraction(l), int(m)) for l, m in monoid)
        self.ops = ops
        self.spec = spec
        self.k_max, self.l_max, self.n_max = k_max, l_max, n_max
        self.higher_arities_zero = higher_arities_zero
        self.name = name
        self._index: OperationIndex | None = None
        self.validate()

    def _key(self) -> tuple:
        return (self.basis, self.monoid, self.ops, self.spec, self.k_max, self.l_max,
                self.n_max, self.higher_arities_zero, self.name)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, AInftyAlgebra) else NotImplemented

    # -- load-time validation ------------------------------------------------

    def validate(self):
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
        """Refuse a k_max past the stored tables unless higher arities are
        zero; with no table stored, the tables stop at arity 0.  Unflagged
        tables must also reach arity 2, which the strict unit laws and the
        trace identity read at every k_max."""
        if self.higher_arities_zero:
            return
        top = max((k for k, _ in self.ops), default=0)
        if top <= self.k_max:
            raise ConfigurationError(
                "relation checking at arity %d needs tables up to %d; "
                "either supply them or mark higher arities zero"
                % (self.k_max, self.k_max + 1)
            )
        if top < 2:
            raise ConfigurationError(
                "tables stop at arity %d, below the arity 2 that the strict unit laws "
                "read; either supply it or mark higher arities zero" % top
            )

    # -- evaluation ----------------------------------------------------------

    def stored_arities(self) -> tuple:
        """The arities of the stored tables, ascending, all-zero ones included."""
        return _operation_index(self).arities

    def max_stored_arity(self) -> int:
        arities = self.stored_arities()
        return arities[-1] if arities else 0

    def _check_arity(self, k: int):
        if k > self.max_stored_arity() and not self.higher_arities_zero:
            raise ConfigurationError(
                "operation of arity %d requested but tables stop at %d"
                % (k, self.max_stored_arity())
            )

    def m_word(self, word: Word) -> dict[int, RingElement]:
        """Assembled operation of arity len(word) on a pure basis word."""
        self._check_arity(len(word))
        return _operation_index(self).nonzero.get(len(word), {}).get(word, {})

    def zero_ring(self) -> RingElement:
        return RingElement.zero(self.spec)

    def one_ring(self) -> RingElement:
        return RingElement.one(self.spec)

    def word_text(self, word: Word) -> str:
        return "(" + ",".join(self.basis.names[i] for i in word) + ")"


def _operation_index(algebra: AInftyAlgebra) -> OperationIndex:
    """The algebra's operation index, built in one pass over ``ops`` on first use.

    Each stored word u is assembled once, m_word(u) = sum_beta T^{lam(beta)}
    e^{mu(beta)/2} m_{k,beta}(u), summing the tables in the order of ``ops``.
    ``nonzero`` is {k: {u: m_word(u)}} over the words of nonzero m_word,
    arities ascending and words sorted; ``by_output`` maps each letter c to
    those u (arity 0 included), in the same order, whose m_word(u) has a
    term at c; ``arities`` lists every stored arity, ascending, all-zero
    tables included.  The residual tables start as None and are filled on
    first use, so ``cocycle``, ``potential``, ``gauge``, ``wallcross`` and
    ``mc`` never build them.  The index is kept on the algebra, so ``ops``
    must not change after its first use; code that edits it then sets
    ``_index`` to None, which drops the residual tables with the rest.
    """
    if algebra._index is None:
        assembled: dict[Word, dict[int, RingElement]] = {}
        for (k, bidx), table in algebra.ops.items():
            beta = algebra.monoid[bidx]
            factor = RingElement.monomial(algebra.spec, 1, lam=beta.lam, e=beta.mu // 2)
            for word, entry in table.items():
                out = assembled.setdefault(word, {})
                for comp, value in entry.items():
                    add_term(out, comp, factor * value)
        nonzero: dict[int, OpTable] = {}
        by_output: dict[int, list] = {}
        for word in sorted(assembled, key=lambda u: (len(u), u)):
            out = assembled[word]
            if out:
                nonzero.setdefault(len(word), {})[word] = out
                for comp in out:
                    by_output.setdefault(comp, []).append(word)
        algebra._index = OperationIndex(
            nonzero, {comp: tuple(words) for comp, words in by_output.items()},
            tuple(sorted({k for (k, _) in algebra.ops})))
    return algebra._index


def apply_m(algebra: AInftyAlgebra, inputs: Sequence[Element]) -> Element:
    """Multilinear evaluation of the assembled operation on module elements.

    Visits only the stored words of nonzero m_word of arity k = len(inputs),
    in sorted order, and multiplies only the input coefficients at their
    letters, so a call costs O(|support| * k) ring products with |support|
    the number of those words, not the size of the tensor product of the
    inputs.  Coefficient variables all have even degree, so ring
    coefficients commute past inputs without signs.
    """
    k = len(inputs)
    if k > algebra.k_max:
        raise ArityError("arity %d exceeds the arity cutoff %d" % (k, algebra.k_max))
    algebra._check_arity(k)
    if not k:
        return Element(algebra.basis, algebra.m_word(()))
    acc: dict[int, RingElement] = {}
    for word, out in nonzero_words(algebra).get(k, {}).items():
        coeff = tensor_coefficient(inputs, word)
        if not coeff:
            continue
        for comp, value in out.items():
            add_term(acc, comp, coeff * value)
    return Element(algebra.basis, acc)


def insertions(algebra: AInftyAlgebra, word: Word, base: int = 0):
    """The nonzero insertions of the operations into a word, with their signs.

    Yields (i, k, inner, sign) for each nonzero inner = m_word(word[i:i+k]),
    with k ascending over the stored arities (arity 0 included), then i
    ascending, and sign = (-1)^{base + maltese_i}, maltese_i the sum of the
    shifted degrees of the first i letters; all signs of a word come from
    one prefix pass, and each window is one lookup in ``nonzero_words``.
    The curved relations, the diagonal bar differential, the word parts of
    the dual one and Hochschild b' are sums over these insertions.
    """
    basis_degrees = algebra.basis.degrees
    prefixes = maltese_prefixes([basis_degrees[x] for x in word], base)
    n = len(word)
    for k, words in nonzero_words(algebra).items():
        for i in range(n - k + 1):
            inner = words.get(word[i : i + k])
            if inner:
                yield i, k, inner, insertion_sign(prefixes, i)


def insertion_sign(prefixes: list, i: int) -> int:
    """The sign of an insertion at slot i of a word, (-1)^{prefixes[i]}:
    ``prefixes`` is the word's ``maltese_prefixes`` from the base of the
    insertion, so the sign only reads the letters in front of the slot."""
    return -1 if prefixes[i] % 2 else 1


def nonzero_words(algebra: AInftyAlgebra) -> dict[int, OpTable]:
    """{k: {u: m_word(u)}} over the stored words of nonzero m_word; an
    insertion looks its windows up here."""
    return _operation_index(algebra).nonzero


def words_by_output(algebra: AInftyAlgebra) -> dict[int, tuple]:
    """Each letter c to the stored words u whose m_word(u) has a term at c:
    the words an insertion can turn into the letter c."""
    return _operation_index(algebra).by_output


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


def relation_residuals(algebra: AInftyAlgebra) -> dict[int, OpTable]:
    """The curved relation residual table, built on first use.

    R(u) = m(b'(u)) = sum_{l,i} (-1)^{maltese_i} m(u[:i], m_l(u[i:i+l]), u[i+l:])
    is the residual of the curved A-infinity relation at a word u, the
    l = 0 curvature insertions included, so R(()) = m_1(m_0).  The table is
    {n: {u: {c: R(u)[c]}}} over the words u of nonzero R(u), lengths
    ascending and words sorted, the shape of ``nonzero_words``.  Both
    operations are read from ``nonzero_words``, so an outer word past the
    stored tables counts as zero there, as it does for the insertions of b'
    (see ``hochschild.identity_residuals``); no arity cutoff is read.
    A term of R(u) needs a nonzero inner m_l and a nonzero outer m on the
    word o that its output letter makes, so u is an un-insertion
    o[:i] + inner + o[i+1:] of a stored word o; only those words are
    expanded, and a word of zero residual is dropped.  ``check_ainfty``
    reports from this table, and the b^2 and b'^2 maps of
    ``hochschild.identity_residuals`` are formed from it.  The table is
    kept on the operation index, so the rule that ``_index`` is set to None
    after an edit of ``ops`` drops it as well.
    """
    index = _operation_index(algebra)
    if index.relations is None:
        support = {word for words in index.nonzero.values() for outer in words
                   for word in uninsertions(algebra, outer, inf)}
        relations: dict[Word, dict[int, RingElement]] = {}
        for word in support:
            residual = relations[word] = {}
            for i, l, inner, sign in insertions(algebra, word):
                for comp, value in inner.items():
                    outer = word[:i] + (comp,) + word[i + l :]
                    for ocomp, ovalue in index.nonzero.get(len(outer), {}).get(outer, {}).items():
                        piece = value * ovalue
                        add_term(residual, ocomp, -piece if sign < 0 else piece)
        index.relations = _by_length(relations)
    return index.relations


def _unit_tables(algebra: AInftyAlgebra) -> OperationIndex:
    """The operation index with its two strict-unit residual tables filled,
    in one walk over the stored words that hold the unit.

    This is the one home of the strict unit laws: law(1, x) = x and
    law(x, 1) = (-1)^{|x|} x for every letter x (the two agree on (1, 1)),
    and law(W) = 0 at every other word W that holds the unit.  V(W) =
    m(W) - law(W) at each such W, so V is empty exactly when the unit laws
    hold strictly, m_2(1, 1) = 1 included, and V's words are exactly those
    at which a law fails: the m_2 words (1, x) and (x, 1) whose m_2 is not
    the law, and the stored words of nonzero m of every other arity (a word
    past the stored tables has m = 0 = law).  ``check_strict_unit`` and
    the chain identities both read the laws off V.  A word that holds the
    unit once is S[:i] + (1,) + S[i:] for one unit-free S and slot i, so
    V(W) is the residual at one slot of S;
    U(S) = sum_i (-1)^{|S[:i]|'} V(S[:i] 1 S[i:]) is V's signed sum over
    the slots, the law values cancelling: x - (-1)^{|x|'} (-1)^{|x|} x = 0.
    """
    index = _operation_index(algebra)
    if index.units is None:
        basis = algebra.basis
        unit = basis.unit
        degrees = basis.degrees
        one = algebra.one_ring()
        slots: dict[Word, dict[int, RingElement]] = {}
        for words in index.nonzero.values():
            for word, out in words.items():
                if not reduced(word, unit):
                    slots[word] = dict(out)
        for x in range(len(basis)):
            add_term(slots.setdefault((unit, x), {}), x, -one)
            if x != unit:
                add_term(slots.setdefault((x, unit), {}), x, one if degrees[x] % 2 else -one)
        index.slots = _by_length(slots)
        units: dict[Word, dict[int, RingElement]] = {}
        for words in index.slots.values():
            for word, out in words.items():
                if word.count(unit) != 1:
                    continue
                i = word.index(unit)
                segment = word[:i] + word[i + 1 :]
                odd = maltese([degrees[x] for x in segment], i) % 2
                residual = units.setdefault(segment, {})
                for comp, value in out.items():
                    add_term(residual, comp, -value if odd else value)
        index.units = _by_length(units)
    return index


def _by_length(table: dict[Word, dict[int, RingElement]]) -> dict[int, OpTable]:
    """{n: {word: out}} over the words of nonempty out, lengths ascending
    and words sorted: the shape of ``nonzero_words``."""
    out: dict[int, OpTable] = {}
    for word in sorted(table, key=lambda word: (len(word), word)):
        if table[word]:
            out.setdefault(len(word), {})[word] = table[word]
    return out


def unit_slot_residuals(algebra: AInftyAlgebra) -> dict[int, OpTable]:
    """The per-slot strict-unit residual table V, built on first use with
    ``unit_residuals`` (see ``_unit_tables``): {n: {W: {c: V(W)[c]}}} over
    the words W that hold the unit and have nonzero V(W), the words at
    which a strict unit law fails.  ``check_strict_unit`` reports its
    failures from it; the seams of the bB+Bb map and the unit-law part of
    the b^2 map of ``hochschild.identity_residuals`` are formed from it,
    and ``cli.chain_identity_suite`` certifies every chain where it and the
    relation table are empty."""
    return _unit_tables(algebra).slots


def unit_residuals(algebra: AInftyAlgebra) -> dict[int, OpTable]:
    """The strict-unit residual table U, built on first use with
    ``unit_slot_residuals``.

    U(S) = sum_i (-1)^{|S[:i]|'} m(S[:i] + (1,) + S[i:]), over the slots
    i = 0..len(S) of a word S with no unit letter, is what strict unitality
    makes zero: m_2(1, x) = x, m_2(x, 1) = (-1)^{|x|} x and every other
    operation with the unit in a slot zero give U((x,)) = x - x and
    U(S) = 0 at every other S.  The table is {l: {S: {c: U(S)[c]}}} over
    the words S of nonzero U(S), in the shape of ``nonzero_words``, summed
    from V over the words that hold the unit exactly once.  U can be empty
    where V is not: each slot reads a different word.  The wrap-arounds of
    the bB+Bb map of ``hochschild.identity_residuals`` are formed from it.
    """
    return _unit_tables(algebra).units


def check_ainfty(algebra: AInftyAlgebra) -> Report:
    """Verify the curved relations on every basis word up to the arity cutoff
    k_max = ``algebra.k_max``.

    The residual at a word (x_1..x_n) is
        sum_{l,i} (-1)^{maltese_i} m_{n-l+1}(x_1.., m_l(x_{i+1}..x_{i+l}), ..x_n)
    including the l = 0 curvature insertions; all residuals must vanish
    modulo the energy cutoff.  Every one of the |basis|^n words of each
    length n <= k_max is counted as checked, but only the words of nonzero
    residual can fail, and ``relation_residuals`` lists them in the order
    of ``words_over``: the failure lines are its words of length <= k_max,
    as if every word were expanded.  The cost is that of the table, built
    once per algebra and shared with the chain identities:
    O(|stored outer words| * arity * |stored inner words|) words to list
    plus their expansion, not |basis|^k_max.  Where higher arities are not
    marked zero and a word of length top + len(u) <= k_max (top the highest
    stored arity, u a stored inner word) is in range, its outer operation
    has arity top + 1, past the stored tables, so this raises as m_word
    does on it.
    """
    k_max = algebra.k_max
    report = Report("ainfty-relations")
    report.note("E_max", algebra.spec.cutoff)
    report.note("K_max", k_max)
    top = algebra.max_stored_arity()
    if not algebra.higher_arities_zero and any(l + top <= k_max for l in nonzero_words(algebra)):
        algebra._check_arity(top + 1)
    basis = algebra.basis
    report.tick(word_count(len(basis), k_max))
    for n, residuals in relation_residuals(algebra).items():
        if n <= k_max:
            for word, residual in residuals.items():
                report.fail("relation at n=%d %s: residual %s"
                            % (n, algebra.word_text(word), Element(basis, residual).text()))
    return report


def check_strict_unit(algebra: AInftyAlgebra) -> Report:
    """Verify the strict unit laws of ``_unit_tables`` on every word with
    the unit in a slot, up to the arity cutoff k_max = ``algebra.k_max``.

    The per-slot table V (``unit_slot_residuals``) holds exactly the words
    at which a law fails, so the failure lines are read off it in the order
    of the all-words loop: for each letter x in basis order, the left law
    where V holds (1, x), then the right law where V holds (x, 1), both at
    (1, 1); then, for each arity k != 2 up to reach = min(k_max, top stored
    arity) and each slot s < k, V's words of length k with the unit at s,
    sorted, which is ``words_over``'s order on the rest of the word.  A
    word with the unit in two slots fails once per slot.  ``checked``
    counts the 2 |basis| m_2 laws and the k |basis|^(k-1) words with the
    unit in a slot at each arity k <= reach (``marked_word_count``, whose
    k = 2 term is the m_2 laws).  Where higher arities are not marked zero,
    a law past the stored tables raises as m_word does on it: arity 2 where
    the tables stop below it, else top + 1 where k_max passes top.
    """
    k_max = algebra.k_max
    report = Report("strict-unit")
    report.note("E_max", algebra.spec.cutoff)
    report.note("K_max", k_max)
    top = algebra.max_stored_arity()
    algebra._check_arity(max(2, min(k_max, top + 1)))
    basis = algebra.basis
    unit = basis.unit
    reach = min(k_max, top)
    report.tick(marked_word_count(len(basis), reach - 1) + (2 * len(basis) if reach < 2 else 0))
    slots = unit_slot_residuals(algebra)
    laws = slots.get(2, {})
    for x, name in enumerate(basis.names):
        if (unit, x) in laws:
            report.fail("m2(1,%s) != %s" % (name, name))
        if (x, unit) in laws:
            report.fail("m2(%s,1) != (-1)^{|%s|} %s" % (name, name, name))
    for k, words in slots.items():
        if k != 2 and k <= reach:
            for slot in range(k):
                for word in words:
                    if word[slot] == unit:
                        report.fail("m%d%s nonzero with the unit in slot %d"
                                    % (k, algebra.word_text(word), slot))
    return report


# -- weak bounding cochains -------------------------------------------------


def require_candidate(algebra: AInftyAlgebra, b: Element):
    """The one guard on a candidate b, which the curvature, the potentials
    and the rotation identity share: total degree 1, positive valuation."""
    if b and not b.is_homogeneous(1):
        raise ConfigurationError("candidate must be homogeneous of total degree 1")
    if b.valuation() <= 0:
        raise DivergenceError("candidate must have positive valuation")


def curvature(algebra: AInftyAlgebra, b: Element) -> Element:
    """The deformed curvature m_0^b = sum_k m_k(b,...,b), truncated."""
    require_candidate(algebra, b)
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


def validate_right_inverse(algebra: AInftyAlgebra, h: dict[int, Element]) -> None:
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


class Obstruction:
    """The first energy level whose residual ``solve_mc`` cannot absorb."""

    def __init__(self, level: Rational, residual: Element):
        self.level = level
        self.residual = residual

    def text(self) -> str:
        return "obstruction at energy %s: %s" % (self.level, self.residual.text())


def solve_mc(algebra: AInftyAlgebra, h: dict[int, Element], seed: Element):
    """Order-by-order correction of the curvature toward a weak MC element.

    Iterates b <- b - h(m_0^b - c 1) on the lowest uncorrected energy level.
    Returns (b, c) on success or an Obstruction naming the first energy level
    whose residual cannot be absorbed through the supplied right inverse.
    """
    validate_right_inverse(algebra, h)
    basis = algebra.basis
    b = seed
    require_candidate(algebra, b)
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

BimodWord = tuple[Word, int, Word]
BimodSum = dict[BimodWord, RingElement]
DualWord = tuple[Word, int, int, Word]  # (left, covector degree, argument, right)
DualSum = dict[DualWord, RingElement]


def delta_diagonal(algebra: AInftyAlgebra, words: BimodSum) -> BimodSum:
    """Bar differential of the diagonal bimodule on (left, y, right) words.

    One pass over the insertions into lw + (y,) + rw: a window holding y
    makes the new module slot, any other rewrites the left or right word,
    whose unit outputs ``quotient`` drops (the bar factors are reduced).
    Past unflagged tables this raises as ``m_word`` does on the first
    absorbing window lw[p:] + (y,) + rw[:q] (by p, then q) that is too long.
    """
    unit = algebra.basis.unit
    top = algebra.max_stored_arity()
    out: BimodSum = {}
    for (lw, y, rw), coeff in words.items():
        full = lw + (y,) + rw
        n = len(lw)
        if len(full) > top:
            algebra._check_arity(max(top + 1, n + 1))
        for i, k, inner, sign in insertions(algebra, full):
            signed = coeff.scale(sign) if sign < 0 else coeff
            absorbs = i <= n < i + k
            # y's slot after a window that does not hold it
            at = n - k + 1 if i + k <= n else n
            for comp, value in (inner if absorbs else quotient(inner, unit)).items():
                if absorbs:
                    key = (lw[:i], comp, rw[i + k - n - 1 :])
                else:
                    new = full[:i] + (comp,) + full[i + k :]
                    key = (new[:at], y, new[at + 1 :])
                add_term(out, key, signed * value)
    return out


def delta_dual(algebra: AInftyAlgebra, words: DualSum) -> DualSum:
    """Bar differential of the dual bimodule on flattened dual words.

    The covector slot is carried as (degree, evaluated argument); absorbing
    a span (x_(p+1)..x_k | cov | z_1..z_q) produces, at each basis argument
    w, the value (-1)^eps cov(m(z_1..z_q, w, x_(p+1)..x_k)) with, for L and
    R the shifted-degree sums of the absorbed left and right letters and c
    the covector's unshifted degree,

        eps = c + 1 + L (c + R + |w|'),

    the last term the crossing of L past c + R + |w|' (``crossing_sign``).
    The shifted-degree sums and the sign of the letters in front read one
    ``maltese_prefixes`` pass over lw + rw.

    The covector crosses with the parity of its unshifted degree (dualizing
    flips the shift): the unique small convention under which this
    differential squares to zero, the bimodule homomorphism check closes on
    generic cocycle towers, and p = q = 0 reduces to (-1)^{|cov|'} cov(m_1(w)).
    The result is again evaluated on basis arguments, keeping the
    representation flat.  An insertion into lw or rw whose output is the
    unit is dropped by ``quotient``, as in ``delta_diagonal``.
    """
    basis = algebra.basis
    unit = basis.unit
    out: DualSum = {}
    for (lw, cdeg, arg, rw), coeff in words.items():
        n = len(lw)
        # prefixes[i]: shifted degree of the first i letters of lw + rw
        prefixes = maltese_prefixes([basis.degree(i) for i in lw + rw])
        for i, k, inner, sign in insertions(algebra, lw):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in quotient(inner, unit).items():
                add_term(out, (lw[:i] + (comp,) + lw[i + k :], cdeg, arg, rw), signed * value)
        for i, k, inner, sign in insertions(algebra, rw, prefixes[n] + cdeg):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in quotient(inner, unit).items():
                add_term(out, (lw, cdeg, arg, rw[:i] + (comp,) + rw[i + k :]), signed * value)
        # dual structure maps absorbing the covector slot, signed by (-1)^{c + 1},
        # the letters in front, and L crossing c + R + |w|' = new_cdeg + |w| - 2 - L
        covector_sign = 1 if cdeg % 2 else -1
        for p in range(n + 1):
            prefix_sign = covector_sign * insertion_sign(prefixes, p)
            left = prefixes[n] - prefixes[p]
            for q in range(len(rw) + 1):
                right = prefixes[n + q] - prefixes[n]
                new_cdeg = cdeg + left + right + 1
                for w in range(len(basis)):
                    word = rw[:q] + (w,) + lw[p:]
                    if len(word) > algebra.max_stored_arity() and algebra.higher_arities_zero:
                        continue
                    inner = algebra.m_word(word)
                    value = inner.get(arg)
                    if not value:
                        continue
                    sign = prefix_sign * crossing_sign(new_cdeg + basis.degree(w) - 2, left)
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
    shifted degrees of the consumed slots.  Both read one
    ``maltese_prefixes`` pass over the word.
    """
    basis = algebra.basis
    table = phi.table
    out: DualSum = {}
    d = phi.degree
    for (lw, y, rw), coeff in words.items():
        n = len(lw)
        # prefixes[i]: shifted degree of the first i letters of lw, y, rw
        prefixes = maltese_prefixes([basis.degree(i) for i in lw + (y,) + rw])
        for p in range(n + 1):
            sign = insertion_sign(prefixes, p) if d % 2 else 1
            for q in range(len(rw) + 1):
                alpha = lw[p:]
                beta = rw[:q]
                cdeg = d + prefixes[n + 1 + q] - prefixes[p]
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
    quantifier's order: outer words of total length <= l_max that
    ``reduced`` accepts together.
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
                   and reduced(x[0] + x[2], unit)), key=_bar_order)


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


def check_bimodule_hom(algebra: AInftyAlgebra, phi) -> Report:
    """Verify phi-hat o delta = (-1)^{deg(phi)} delta' o phi-hat.

    The quantifier runs over the reduced bar coalgebra: unit-free left and
    right words with len(lw) + len(rw) <= l_max = ``algebra.l_max``, and
    the module slot (and the flattened covector argument) ranging over the
    whole basis.  The graded sign on the right side is the usual chain-map
    sign of a degree-d map.  ``checked`` counts every bar word of the quantifier, but only the
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
    l_max = algebra.l_max
    report = Report("bimodule-hom")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    basis = algebra.basis
    letters = basis.reduced_letters()
    top = algebra.max_stored_arity()
    if not algebra.higher_arities_zero and any(len(letters) ** t for t in range(top, l_max + 1)):
        algebra._check_arity(top + 1)
    report.tick(marked_word_count(len(letters), l_max) * len(basis))
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
