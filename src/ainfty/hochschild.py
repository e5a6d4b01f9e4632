"""Hochschild chains of the diagonal bimodule and the cyclic operators.

A chain is a linear combination of keys (module slot, tensor word) with ring
coefficients.  Reduced chains quotient by words with the unit in a tensor
slot; the module slot itself may be the unit.  All operators below descend
to the reduced quotient (strict unitality), and the reduced flag of the
input decides whether the quotient map is applied to the output.

Sign conventions, all derived from shifted degrees:

  * b' (bar-type differential): the coderivation on the full marked word,
    output marked at slot 0: a sum over ``ainfty.insertions``, the insertion
    loop of every differential but one (the dual absorption of delta' in
    ``ainfty.delta_dual``).
  * b (module differential): one term per cyclic window of the marked
    word.  A window in the word is an insertion with the sign of the
    letters in front of it, the module slot included; a window through the
    module slot is a wrap-around, whose output is the new module slot and
    whose tail block pays the Koszul cost of crossing everything it moves
    past (module slot plus the remaining prefix).  b = b' + D, where D
    adds the wrap-arounds whose tail block has at least one letter and
    subtracts m_0 inserted in front of the module slot, which b' has and b
    does not.  The b of a reduced chain is the quotient of the unreduced b.
  * t: signed rotation of the full marked word (last factor to the front),
    the module marking travelling with the rotation.
  * N = 1 + t + ... + t^{n-1} on length-n marked words.
  * B (reduced only): insert the unit as the new module slot in front of
    every cyclic rotation of the full word.

Only b and B descend to the reduced quotient (b through the unit-law
cancellations, B by its explicit formula).  The bar-type operators b', t, N
are operators on the unreduced space: they coerce their input along the
canonical section of the quotient and always return unreduced chains, and
the rotation identities relating them to b hold there.

A chain is its raw term map {key: {Monomial: scalar}}: per key, the term
map of its coefficient, the scalars nonzero and in stored form, no empty
maps, and no unit words in a reduced chain.  The maps are never mutated once
built, so operators share them.  Each of b, b', t, N and B has one
implementation, a private core on raw maps: ``_b_into``, ``_bar_into``
and ``_N_into`` add op(chain) (N with a sign) into a caller's raw map,
``_B_into`` adds B(chain), and ``_t`` returns t(chain); only ``cyclic_t``
reaches ``_t``.  b and b' add each signed product coeff * m(...) straight
into a raw map per output key with ``coeff.mul_into``, which applies the
level cutoff to every product; t, N and B add signed copies of the input
maps with ``coeff.add_into``.  The signs of a word come from one prefix
pass (``maltese_prefixes``); a rotation keeps the total shifted degree, so
the powers of t cost O(1) each after one ``maltese`` per word.  The sign
of a rotation and of a wrap-around is the Koszul cost of moving a block
past the rest of the cyclic word, which has one home,
``graded.crossing_sign``.  b's core ``_b_into`` is ``_windows_into`` on
the operation table: it walks the cyclic windows of each key once, so b
has no insertion loop of its own, and b^2 is the same walk on the
relation residual table.

``identity_residuals`` and ``cli.chain_identity_suite`` work on raw maps
only.  The residual kernel runs the cores into one map per chain identity
with no intermediate chain sum, and reads two residual tables of the
operation index where the operators would form products that cancel:

  * b'^2 is ``_bar_square_into`` on u, which puts the curved relation
    residual of each window of a key in its place, reading the table
    ``ainfty.relation_residuals`` that ``check_ainfty`` reports from;
  * b^2 is the quotient of ``_windows_into`` on u and the same table,
    which puts the relation residual at each cyclic window that b reads,
    less b of the terms of b(u) with the unit in a tensor slot
    (``_unit_outputs_into``);
  * bB+Bb is ``_unit_wraps_into``, the wrap-arounds of b on B(c) read off
    the strict-unit residual table ``ainfty.unit_residuals``, less
    ``_N_into`` of b(u'').

B^2, b(1-t)-(1-t)b' and b'N-Nb hold by construction and are not formed.
B(c) has no key that B reads.  Each term of one side of a rotation
identity has a twin on the other with the same key and product, and the
twins' signs can differ only at an operation entry off the A-infinity
degree, which no algebra that loads has (``ainfty.OperationIndex``).  So on
a table whose relations and unit laws hold, b is formed only on the keys
whose module is the unit, for N(b u''); the docstring of
``identity_residuals`` proves the identities, the pairings, the parity
lemma and the table readings this rests on.  All the operators are linear
over the coefficient ring, and the level cutoff is an ideal, which is what
lets ``cli.chain_identity_suite`` check each basis key once instead of each
drawn chain.

``HochschildChain`` is the wrapper of the public operators
(``hochschild_b``, ``chain_bar``, ``cyclic_t``, ``operator_N``,
``connes_B_reduced``) and of ``Functional.apply``: a raw map with its basis,
its coefficient ring ``spec`` and its reduced flag.  A public operator runs
its core on the chain's map and builds the output chain.  It checks the
ring of chain and algebra once per call, not per product, and it applies
the reduced quotient to b and refuses B on an unreduced chain.  A
RingElement is made only where a coefficient is read as one: in
``coefficient``, ``__eq__`` and the text (``chain_text``).

The dual side stores towers of finitely supported functionals.  A tower is
validated by pulling each level back through b and B, key by key
(``validate_negative_cocycle``), with the signs of the forward operators.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .ainfty import (AInftyAlgebra, insertion_sign, insertions, nonzero_words, relation_residuals,
                     unit_residuals, words_by_output)
from .coeff import RingElement, add_into, canonical, mul_into, require_compatible
from .errors import ConfigurationError
from .graded import Word, crossing_sign, maltese, maltese_prefixes, word_count, words_over
from .report import Report

ChainKey = Tuple[int, Word]
ChainTerms = Dict[ChainKey, RingElement]


class HochschildChain:
    """Linear combination of (module slot, tensor word) with a reduced flag.

    ``terms`` is the chain's raw map {key: {Monomial: scalar}} in the ring
    ``spec`` (None only for a chain built from no terms); see the module
    docstring for what a chain keeps clean.
    """

    __slots__ = ("basis", "spec", "terms", "reduced")

    def __init__(self, basis, terms: Optional[ChainTerms] = None, reduced: bool = True):
        """The chain of the nonzero RingElement coefficients in ``terms``,
        which must share one ring; a reduced chain drops words with the unit.

        The keys of ``terms`` are distinct, so nothing is summed here.
        """
        unit = basis.unit if reduced else None
        spec = None
        raw = {}
        for key, coeff in (terms or {}).items():
            if coeff and (unit is None or unit not in key[1]):
                if spec is None:
                    spec = coeff.spec
                else:
                    require_compatible(spec, coeff.spec)
                raw[key] = coeff.terms
        self.basis, self.spec, self.terms, self.reduced = basis, spec, raw, reduced

    @classmethod
    def generator(cls, basis, module: int, word: Word, coeff: RingElement, reduced=True):
        return cls(basis, {(module, tuple(word)): coeff}, reduced)

    @classmethod
    def _clean(cls, basis, spec, terms: dict, reduced: bool) -> "HochschildChain":
        """A chain of a raw map that is clean already: nothing is filtered."""
        chain = cls.__new__(cls)
        chain.basis, chain.spec, chain.terms, chain.reduced = basis, spec, terms, reduced
        return chain

    def unreduced(self) -> "HochschildChain":
        """The canonical unreduced representative (same terms, no quotient)."""
        return HochschildChain._clean(self.basis, self.spec, self.terms, False)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key: ChainKey) -> RingElement:
        """The coefficient at a key as a RingElement, zero off the support."""
        if self.spec is None:
            raise ConfigurationError("a chain built from no terms has no coefficient ring")
        return RingElement(self.spec, self.terms.get(key))

    def __eq__(self, other):
        if not isinstance(other, HochschildChain):
            return NotImplemented
        if (self.basis, self.reduced) != (other.basis, other.reduced):
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(self.coefficient(key) == other.coefficient(key) for key in self.terms)

    def text(self) -> str:
        return chain_text(self.basis, self.spec, self.terms)

    def __repr__(self):
        return "HochschildChain(%s)" % self.text()


def key_text(names, key: ChainKey) -> str:
    """The text [v|w1,...,wk] of a chain key, the one place of it."""
    return "[%s|%s]" % (names[key[0]], ",".join(names[i] for i in key[1]))


def chain_text(basis, spec, chain: dict) -> str:
    """The text of a raw map: its nonzero coefficients in key order, each
    as (coefficient)[v|w]; "0" when there are none."""
    parts = []
    for key, terms in sorted(chain.items()):
        coeff = RingElement(spec, terms)
        if coeff:
            parts.append("(%s)%s" % (coeff.text(), key_text(basis.names, key)))
    return " + ".join(parts) or "0"


def chain_degree(basis, module: int, word: Word) -> int:
    return basis.degree(module) + sum(basis.degree(i) - 1 for i in word)


def _cleaned(chain: dict) -> dict:
    """A raw map with each term map cleaned and the keys whose sum
    cancelled dropped."""
    out = {}
    for key, terms in chain.items():
        # a map of nonzero ints is clean already, and is kept as it is
        for value in terms.values():
            if type(value) is not int or not value:
                terms = canonical(terms)
                break
        if terms:
            out[key] = terms
    return out


def _built(basis, spec, chain: dict, reduced: bool) -> HochschildChain:
    """The chain of a raw map that a core built, cleaned."""
    return HochschildChain._clean(basis, spec, _cleaned(chain), reduced)


def _level_cutoff(chain: HochschildChain, spec):
    """The level cutoff of products of the chain's coefficients with
    elements of ``spec``, once the two rings are checked compatible."""
    if chain.spec is not None:
        require_compatible(chain.spec, spec)
    return spec.level_cutoff


def _b_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add b(chain) into acc on the unreduced space, one term per cyclic
    window of each key (``_windows_into``); products above the level
    cutoff ``top`` are never formed."""
    return _windows_into(acc, algebra, chain, top, nonzero_words(algebra), False)


def hochschild_b(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """The module differential, wrap-around and interior sums with exact
    signs; the b of a reduced chain is the quotient of the unreduced b."""
    raw = _b_into({}, algebra, chain.terms, _level_cutoff(chain, algebra.spec))
    if chain.reduced:
        raw = _quotient(raw, algebra.basis.unit)
    return _built(algebra.basis, algebra.spec, raw, chain.reduced)


def _bar_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add b'(chain) into acc, a raw {key: {Monomial: scalar}} map; an
    insertion at slot 0 makes the new module slot."""
    for (v, word), terms in chain.items():
        full = (v,) + word
        for p, arity, inner, inserted in insertions(algebra, full):
            for comp, value in inner.items():
                key = (v, full[1:p] + (comp,) + full[p + arity :]) if p else (comp, full[arity:])
                mul_into(acc.setdefault(key, {}), terms, value.terms, top, inserted)
    return acc


def chain_bar(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """Bar-type differential: coderivation on the full marked word, unreduced."""
    raw = _bar_into({}, algebra, chain.terms, _level_cutoff(chain, algebra.spec))
    return _built(algebra.basis, algebra.spec, raw, False)


def _rotations(degrees, full: Word, count: int):
    """The first ``count`` powers of the signed rotation t on a marked word.

    Yields (t^r(full), its sign) for r = 0, 1, ..., count - 1, where t^r is
    taken with r mod len(full).  t moves the last factor to the front past
    the others (``crossing_sign``); t^r moves r factors one at a time, and
    the signs of the steps multiply to that of moving the r as one block.
    Rotation keeps |full|', so it is read once and each power costs O(1).
    """
    n = len(full)
    total = maltese([degrees[x] for x in full], n)
    sign = 1
    for r in range(count):
        cut = n - r % n
        yield full[cut:] + full[:cut], sign
        sign *= crossing_sign(total, degrees[full[cut - 1]] - 1)


def _t(basis, chain: dict) -> dict:
    """t(chain), a new raw map sharing the maps of the keys t keeps unsigned."""
    degrees = basis.degrees
    out = {}
    for (v, word), terms in chain.items():
        # t permutes the keys, so no two terms meet
        _, (rotated, sign) = _rotations(degrees, (v,) + word, 2)
        out[(rotated[0], rotated[1:])] = add_into({}, terms, -1) if sign < 0 else terms
    return out


def cyclic_t(basis, chain: HochschildChain) -> HochschildChain:
    """Signed rotation of the marked word: the last factor moves to the front."""
    return HochschildChain._clean(basis, chain.spec, _t(basis, chain.terms), False)


def _N_into(acc: dict, basis, chain: dict, sign: int = 1) -> dict:
    """Add sign * N(chain) into acc, a raw {key: {Monomial: scalar}} map."""
    degrees = basis.degrees
    for (v, word), terms in chain.items():
        for rotated, turn in _rotations(degrees, (v,) + word, 1 + len(word)):
            add_into(acc.setdefault((rotated[0], rotated[1:]), {}), terms, sign * turn)
    return acc


def operator_N(basis, chain: HochschildChain) -> HochschildChain:
    """Rotation sum 1 + t + ... + t^{n-1} on each length-n component."""
    return _built(basis, chain.spec, _N_into({}, basis, chain.terms), False)


def _B_into(acc: dict, basis, chain: dict) -> dict:
    """Add B(chain) into acc for the raw map of a reduced chain."""
    unit = basis.require_unit()
    degrees = basis.degrees
    for (v, word), terms in chain.items():
        # words are unit-free, so a rotation has the unit exactly when v is
        if v == unit:
            continue
        full = (v,) + word
        for rotated, sign in _rotations(degrees, full, len(full)):
            add_into(acc.setdefault((unit, rotated), {}), terms, sign)
    return acc


def connes_B_reduced(basis, chain: HochschildChain) -> HochschildChain:
    """Connes operator on reduced chains: unit-marked cyclic rotations."""
    if not chain.reduced:
        raise ConfigurationError(
            "the Connes operator is only available on reduced chains"
        )
    return _built(basis, chain.spec, _B_into({}, basis, chain.terms), True)


def _quotient(raw: dict, unit: int) -> dict:
    """q on a raw map: its keys with no unit in a tensor slot, maps shared."""
    return {key: terms for key, terms in raw.items() if unit not in key[1]}


def _unit_front_into(acc: dict, raw: dict, unit: int, sign: int) -> dict:
    """Add sign * q s_1 of a raw map into acc, over its nonzero keys only:
    s_1 puts the unit in front, (v, w) -> (1, (v,) + w), and q drops the
    result when v or w holds the unit."""
    for (v, word), terms in raw.items():
        if v != unit and unit not in word and any(terms.values()):
            add_into(acc.setdefault((unit, (v,) + word), {}), terms, sign)
    return acc


def _bar_square_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add b'(b'(chain)) into acc on the unreduced space, from the curved
    relation residuals (the b'^2 fact of ``identity_residuals``).

    Each window f[q:q+n] of a marked word f with a nonzero residual R, the
    empty ones in front of every letter and after the last included, adds
    f[:q] R(f[q:q+n]) f[q+n:] with sign +1.  On a table whose relations
    hold, no product is formed.
    """
    relations = relation_residuals(algebra)
    for (v, word), terms in chain.items():
        f = (v,) + word
        for n, residuals in relations.items():
            for q in range(len(f) - n + 1):
                residual = residuals.get(f[q : q + n])
                if residual:
                    for comp, value in residual.items():
                        out = f[:q] + (comp,) + f[q + n :]
                        mul_into(acc.setdefault((out[0], out[1:]), {}), terms, value.terms, top)
    return acc


def _windows_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int, tables: dict,
                  nested: bool) -> dict:
    """Add, at each cyclic window W of a key, the entries tables[W] where b
    writes its output: b itself for ``tables`` = ``nonzero_words``, or, for
    ``nested``, b applied twice for ``tables`` = ``relation_residuals`` (the
    b^2 fact of ``identity_residuals``).

    A window in the word, at q >= 1, keeps the module slot f[0] in front
    and is written in place with b's sign ``insertion_sign`` at q, or +1
    for the nested pairs; the gaps are q = 1..n, after every letter, and b
    has none in front of f[0].  A window through f[0] starts at c, with
    c = n standing for 0; its output becomes the new module slot in front
    of the rest of the cyclic word, with the sign of the rotation taking
    f[c:] to the front (``crossing_sign``; +1 for c = n).  These are the
    terms of b, one per window (the pairing by cyclic window of
    ``identity_residuals``).
    """
    if not tables:
        return acc
    degrees = algebra.basis.degrees
    for (v, word), terms in chain.items():
        f = (v,) + word
        n = len(f)
        ring = f + f
        prefixes = maltese_prefixes([degrees[x] for x in f])
        for length, words in tables.items():
            if length > n:
                break
            for q in range(1, n - length + 1):
                inner = words.get(f[q : q + length])
                if inner:
                    sign = 1 if nested else insertion_sign(prefixes, q)
                    for comp, value in inner.items():
                        mul_into(acc.setdefault((v, f[1:q] + (comp,) + f[q + length :]), {}),
                                 terms, value.terms, top, sign)
            for c in range(n - length + 1, n + 1):
                inner = words.get(ring[c : c + length])
                if inner:
                    turn = crossing_sign(prefixes[n], prefixes[c])
                    for comp, value in inner.items():
                        mul_into(acc.setdefault((comp, ring[c + length : c + n]), {}),
                                 terms, value.terms, top, turn)
    return acc


def _unit_outputs_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add (1 - q) b(chain) into acc for the raw map of a reduced chain:
    the terms of b with the unit in a tensor slot.

    The words of the chain hold no unit, so b keeps the unit out of them
    except where an insertion at a slot p >= 1 outputs it: a window equal
    to a unit-free word that ``words_by_output`` lists under the unit.  At
    p = 0, b' puts m_0 in front of the module slot, which holds the unit
    in the word when the module is the unit, and D's -m_0 takes it away;
    an insertion of arity >= 1 there makes the module slot.
    """
    unit = algebra.basis.unit
    sources = [x for x in words_by_output(algebra).get(unit, ()) if unit not in x]
    if not sources:
        return acc
    degrees = algebra.basis.degrees
    tables = nonzero_words(algebra)
    for (v, word), terms in chain.items():
        f = (v,) + word
        prefixes = maltese_prefixes([degrees[x] for x in f])
        for x in sources:
            a = len(x)
            value = tables[a][x][unit].terms
            for p in range(1, len(f) - a + 1):
                if f[p : p + a] == x:
                    out = f[:p] + (unit,) + f[p + a :]
                    mul_into(acc.setdefault((out[0], out[1:]), {}), terms, value, top,
                             insertion_sign(prefixes, p))
    return acc


def _unit_wraps_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add W(B chain) into acc, the wrap-arounds of b (tail blocks of every
    length, the empty one included) on the B image of the keys of
    ``chain``, whose modules are not the unit; from the strict-unit
    residuals (the W(B c) fact of ``identity_residuals``).

    Each cyclic segment f°[c:c+l] of a marked word f, c < n and
    0 <= l <= n, with a nonzero residual U (``unit_residuals``), adds U of
    it as the new module slot in front of the rest of the cyclic word,
    with the sign of the rotation taking f[c:] to the front.  On a table
    whose unit laws hold strictly, no product is formed.
    """
    units = unit_residuals(algebra)
    if not units:
        return acc
    degrees = algebra.basis.degrees
    for (v, word), terms in chain.items():
        f = (v,) + word
        n = len(f)
        ring = f + f
        prefixes = maltese_prefixes([degrees[x] for x in f])
        for length, segments in units.items():
            if length > n:
                break
            for c in range(n):
                inner = segments.get(ring[c : c + length])
                if not inner:
                    continue
                rho = crossing_sign(prefixes[n], prefixes[c])
                rest = ring[c + length : c + n]
                for comp, value in inner.items():
                    mul_into(acc.setdefault((comp, rest), {}), terms, value.terms, top, rho)
    return acc


def identity_residuals(algebra: AInftyAlgebra, u: dict) -> list:
    """The chain identities that can fail at a reduced chain c, as raw
    residual maps.

    ``u`` is the raw map of c, in the algebra's ring.  Returns
    [(tag, {key: {Monomial: scalar}})] for b^2, bB+Bb and b'^2, in that
    order.  An identity holds at c exactly when every scalar of its map is
    zero.  Each map is the full sum of its identity's operator composites,
    scalar by scalar (``oracles.identity_residuals_reference`` computes
    them image by image); nothing is skipped by appeal to strict unitality
    or to the A-infinity relations.  The other three identities of the
    chain identity suite, B^2, b(1-t)-(1-t)b' and b'N-Nb, hold at every
    chain of every algebra that loads: B^2 on any tables, by item 1 below,
    and the two rotation identities by the pairing by cyclic window and
    the parity lemma.  So they are not formed.

    Write b for the classical module differential: the wrap-arounds plus
    the interior insertions into the word with base |v|', as
    ``oracles.hochschild_b_reference`` forms it.  ``_b_into`` forms it one
    term per cyclic window (``_windows_into``; the pairing below), and
    ``hochschild_b`` takes reduced b as its definition.  The b images rest
    on three facts that hold for any tables:

      * D.  D(x) := b(x) - b'(x) on unreduced chains is the wrap-arounds
        of b with a tail block i >= 1, minus m_0 inserted in front of the
        module slot.  Proof: b' inserts into the full word
        (v, a_1..a_k).  At p = 0 its arity-a >= 1 insertion
        m_a(v, a_1..a_{a-1}) gives the key (comp, word[a-1:]) with sign
        +1; so does b's wrap with i = 0, whose empty tail block crosses
        nothing.  At p >= 1 the window lies in the word, and the sign
        (-1)^{|v|' + |a_1..a_{p-1}|'} is that of b's interior insertion at
        p - 1 with base |v|', over the same positions and arities.  What
        is left is b's wraps with i >= 1 and b''s arity-0 insertion at
        p = 0, which b does not have: it is nonzero on curved tables (E2,
        whose m_0 outputs the unit, and SV1).
      * s_1 and q.  s_1(v, w) = (1, (v,) + w), and q drops the keys with
        the unit in a tensor slot.  (a) B(x) = q s_1 N(x) on reduced x:
        both run the same ``_rotations`` of (v,) + w, B writes rotation r
        at (1, r), which is s_1 of N's key, and the keys with v = 1 that B
        skips are the ones whose rotations q drops.  (b) For y with no unit
        in any slot, b_red(s_1 y) = W(s_1 y) + (-1)^{|1|'} q s_1 b'(y),
        W all the wraps (i >= 0): b's interior insertions at (1, f) are
        the insertions into f with base |1|', b''s at y are those into f
        with base 0, written at the key s_1 maps to (1, f'); reduced b
        skips an insertion that outputs the unit, which is what q drops.
      * Reduced b.  On keys with unit-free words, b_red = q b: the
        insertions it skips are the ones that put the unit in the word,
        and a wrap keeps a subword.

    The parity lemma.  Every entry m_a(W)[comp] of an algebra that loads
    has the A-infinity degree, |comp|' = |W|' + 1 mod 2, with |W|' the sum
    of the shifted degrees of W's letters.  ``AInftyAlgebra.validate``
    refuses an entry of m_{a,beta} whose output degree is not
    sum deg(W) + 2 - a - mu(beta), the coefficient's degree included, and
    mu and every coefficient degree are even (``RingSpec`` and
    ``validate`` refuse odd ones), so |comp| = sum deg(W) - a mod 2, which
    is |comp|' = |W|' + 1.  The sums that assemble m_word keep the parity
    (``ainfty.OperationIndex``).  The arguments below read the degrees of
    the tables only through it.

    The b'^2 map comes from one more fact, the coderivation property of
    b' (Stasheff 1963; Getzler-Jones 1990), which ``_bar_square_into``
    forms.  Let f be the marked word of a key with coefficient x, and
    R(W) = m(b'W) the curved relation residual at a word W, the arity-0
    insertions included (``ainfty.relation_residuals``).  A term of b'(b'f)
    is a first insertion m_k at f[j:j+k], output c at slot j, then a second
    m_a at a window of f[:j] c f[j+k:].  Either that window holds c, or it
    lies wholly in front of c or wholly behind it.

      * Nested.  The window holds c: it is W = f[q:q+n] of f with c's
        window inside, n = a - 1 + k.  The second insertion reads only the
        letters f[:q] in front of W, so the pair has the sign
        (-1)^{|f[:q]|' + |f[:j]|'} = (-1)^{|f[q:j]|'}, that of the
        insertion at j - q into W.  Summed over the insertions into W and
        the operations on their outputs, the pairs of W are
        f[:q] R(W) f[q+n:] with sign +1.  Every window counts, the n = 0
        ones (the gaps of f, in front of every letter and after the last)
        with R(()) = m_1(m_0).
      * Disjoint.  Windows A = f[i:i+a] and B = f[j:j+b] with i + a <= j,
        outputs c of m(A) and d of m(B): the pair reaches
        f[:i] c f[i+a:j] d f[j+b:] in two orders.  B first, then A, has
        the sign (-1)^{|f[:j]|' + |f[:i]|'}; A first, then B, has
        (-1)^{|f[:i]|' + |f[:i]|' + |c|' + |f[i+a:j]|'}.  The parities
        differ by |A|' + |c|' mod 2, which the parity lemma makes odd, so
        the two orders cancel.

    Each term is one product of structure constants times x, and the
    level cutoff is an ideal, so forming x R(W)[c] with each factor
    truncated drops exactly the terms that b' applied twice drops.  The
    windows of a chain of L letters have up to L + 1 letters, past the
    arity cutoff K when L + 1 > K; the chain identities read no arity
    cutoff (``check --kmax 0`` still runs them on the stored tables), so
    neither does R: it is built on every un-insertion of the stored words,
    with no length cap.  An operation on a word past the stored tables is
    zero in R, as it is for ``insertions``, so on tables not marked
    higher-arities-zero b'^2 is still b' applied twice, where
    ``check_ainfty`` refuses a cutoff past the tables.  On a table whose
    relations hold, every corpus document, b'^2 forms no product.

    Read as an unreduced chain, c is u.  Let u' and u'' be its keys whose
    module is not and is the unit, and eps = (-1)^{|1|'} from the unit's
    degree.  Then:

      1. B^2.  By (a), B(c) = q s_1 N(u) = s_1 N(u'): every key of
         s_1 N(u'') holds the unit and no key of s_1 N(u') does, which is
         why ``_B_into`` skips the keys of u''.  Every key of B(c) has the
         unit as its module, so ``_B_into`` skips all of them: B(B c) = 0.
      2. bB+Bb.  The b'N-Nb residual b'(N x) - N(b x) is zero at every x
         (the pairing below), so R := b'(N u') - N(b u) = -N(b u'').
         b_red(B c) = W(B c) + eps q s_1 b'(N u') by (b), applied to
         y = N(u').  B(b_red c) = q s_1 N(q b u) = q s_1 N(b u), by (a)
         and reduced b, since q s_1 N drops every key with a unit word.
         So bB+Bb = W(B c) + eps q s_1 R + (1 + eps) q s_1 N(b u), and
         the last term is zero because ``GradedBasis`` gives the unit
         degree 0.  q s_1 R is summed once R has cancelled, over its
         nonzero keys, and W(B c) is formed from the strict-unit residuals
         (the W(B c) fact below, ``_unit_wraps_into``).
      3. b^2.  b_red b_red c = q b(q b u) by reduced b, applied twice, so
         b^2 = q b(b u) - q b((1 - q) b u).  q b(b u) is the quotient of
         the unreduced b^2, which ``_windows_into`` forms from the
         relation residuals (the b^2 fact below).  (1 - q) b u, the terms
         of b u with the unit in a tensor slot, is formed by
         ``_unit_outputs_into``: the words of u hold no unit, a wrap
         keeps a subword and b''s insertions of arity >= 1 at slot 0 make
         the module slot, so the unit reaches a tensor slot only through
         an insertion at a slot p >= 1 that outputs it, a window equal to
         a unit-free word that ``words_by_output`` lists under the unit.
         b''s m_0 in front of a unit module also puts the unit in the
         word, and D's -m_0 takes it away.  (1 - q) b u is empty unless a
         unit-free word outputs the unit (E2's m_0).

    The pairing by cyclic window.  Let f = (f_0..f_{n-1}) be the marked
    word of a key with coefficient x, M its ``maltese_prefixes`` and
    T = M[n].  A cyclic window (c, a), c < n and a <= n, is the a letters
    f_c, f_{c+1}, ... read mod n; at a = 0 it is the gap in front of f_c.
    By D, b(f) has one term per window and output letter comp of m_a on
    it, with product x * m_a(window)[comp]:

      * c + a <= n, a >= 1: b''s insertion at c, output word
        out = f[:c] + (comp,) + f[c+a:], sign ``insertion_sign(M, c)``,
        comp at position pi = c;
      * c + a > n: a wrap-around of D, out = (comp,) + f[c+a-n:c], sign
        ``crossing_sign(T, M[c])``, pi = 0;
      * a = 0: b''s insertion at the gap, at q = c for c >= 1 and at
        q = n, after f_{n-1}, for c = 0, pi = q.  b''s insertion at 0
        and D's -m_0 in front of the module slot have the same key
        (comp, f), the same product and opposite signs: they cancel, and
        are never formed.

    Then out has m = n - a + 1 letters in every case.

      * b'N - Nb.  A term of b'(N f) is an insertion at p <= n - a into
        t^r f, r < n, of sign sigma_r (``_rotations``) times
        ``insertion_sign`` at p of t^r f.  Its window is the cyclic
        window of f that starts at c = (p - r) mod n, and its output word
        is the cyclic word of out with comp at p, which is t^s(out) for
        s = (p - pi) mod m.  For a fixed window, p -> r and p -> s are
        one to one onto r < n with (p - r) mod n = c and onto s < m, so
        the terms of b'(N f) and of N b(f) = sum_s t^s b(f) pair off one
        to one with the same key and product.
      * The rotation identity.  t f = (f_{n-1}, f_0, .., f_{n-2}) has sign
        sigma_1, and its window that starts at c + 1 (mod n for
        a >= 1; for a = 0 the gap at q = c + 1 <= n) is f's window at c.
        The term of b(t f) there has the key of D's wrap-around at c
        when c + a > n, and of t b'(f)'s insertion at c when c + a <= n:
        (comp,) + f[c+a-n:c], (comp,) + f[:c] when c + a = n, and
        (f_{n-1},) + f[:c] + (comp,) + f[c+a:n-1] otherwise.  That pairs
        every term of b(t f) with one of D(f) + t b'(f), which is
        b(f) - b'(f) + t b'(f).  Two are left: t b'(f) at the gap after
        f_{n-1}, key t(f + (comp,)) = (comp, f), and D's -m_0 in front of
        the module slot, at the same key with the same product.  They
        pair with each other.

    A pair of twins adds its product times the difference of the two
    signs (the sum, for the last pair of the rotation identity): nothing
    where the signs agree, and twice the product where they differ.  Twins
    have the same product, so truncation drops both or neither.

    When twins agree.  Let W be the window, e = |comp|', and rho(x -> y)
    the parity of the rotation between two linear words x, y of one cyclic
    word: moving a block B past the rest A costs |A|'|B|', the parity of
    ``crossing_sign``, the same for B as for A.  These parities add along
    rotations (both facts are tested in ``tests/test_graded.py``): moving C
    past AB and then B past CA costs |C|'(|A|' + |B|') + |B|'(|C|' + |A|'),
    which is |A|'(|B|' + |C|') mod 2, the cost of moving BC past A at once.
    Every twin has one of two shapes, both ending at the same output word
    H comp K:

      (i) rotate f to H W K, then insert after H: parity
          rho(f -> H W K) + |H|'.  The terms of b'(N f) have this shape;
          so do those of b(t f), as b's term at a window is a rotation
          (none for an insertion, the tail block to the front for a
          wrap-around: ``crossing_sign``) and then an insertion; and so do
          D's wrap-arounds, with H empty.
      (ii) rotate f to P W Q, insert after P, then rotate the output
          P comp Q to H comp K: parity rho(f -> P W Q) + |P|' +
          rho(P comp Q -> H comp K).  The terms of N b(f) and of t b'(f)
          have this shape.

    P and H are both the letters in front of the window in a linear word of
    one cyclic word, so one ends the other: P = X H or H = X P, with X the
    block that the second rotation moves across comp, and |P|' + |H|' =
    |X|' mod 2.  That rotation costs |X|' times the shifted degree of what
    X crosses, which holds comp where P W Q holds W, so
    rho(P comp Q -> H comp K) = rho(P W Q -> H W K) + (e - |W|') |X|', and
    rho(f -> P W Q) + rho(P W Q -> H W K) = rho(f -> H W K).  So the
    parities of a twin of shape (ii) and one of shape (i) differ by

        (e - |W|' - 1) |X|'  mod 2.

    Two twins of shape (i), a wrap-around of D and its twin in b(t f), have
    the same H and the same rotation, and always agree.  The last pair of
    the rotation identity fits as well: t b'(f) at the gap after f_{n-1} is
    of shape (ii) with P = X = f and W, Q empty, parity (e + 1) T, and D's
    -m_0 in front is minus the shape-(i) term with H empty, parity 0; the
    two cancel when (e - 1) T is even.  So a pair can fail to cancel only
    at an entry where |comp|' - |W|' - 1 is odd, and the parity lemma
    leaves none: every pair cancels, and b'N - Nb and
    b(1-t) - (1-t)b' are zero at every chain.

    The W(B c) fact: W(B c) is formed from the strict-unit residual
    U(S) = sum_i (-1)^{|S[:i]|'} m(S[:i] 1 S[i:]) (``ainfty.unit_residuals``).
    Let f be the marked word of a key of u' with coefficient x, n = |f|,
    T = |f|', f° = f + f, and rho_c = ``crossing_sign(T, |f[:c]|')``, the
    sign of the rotation taking f[c:] to the front.  B writes
    rho_c x (1, g) for g = f°[c:c+n], c < n: t^r moves the last r = n - c
    letters to the front one at a time, and those signs multiply to the
    crossing of the block.  W at (1, g) is, for i + j <= n,
    m(g[n-i:], 1, g[:j]) at (comp, g[j:n-i]), signed by the tail block
    X = g[n-i:] crossing 1 and g[:n-i], whose shifted degrees sum to
    T - 1 - |X|': parity |X|'(T - |X|') + |X|'.  The letters read,
    S = g[n-i:] + g[:j], are the cyclic segment f°[d:d+l] of f,
    d = c - i mod n and l = i + j, with the unit at slot i of S, and the
    kept word is f°[d+l:d+n].  (c, i, j) -> (d, l, i) is one to one onto
    d < n, 0 <= i <= l <= n.  The rotation of f to g and then of g's tail
    block X = S[:i] to the front is the rotation of f to f°[d:d+n]; the
    parities add along rotations, so rho_c (-1)^{|X|'(T - |X|')} =
    rho_d, and the term has the sign rho_d (-1)^{|S[:i]|'}.  Summed over
    the slots i of one segment:

        W(B c) = sum_{d < n, 0 <= l <= n} rho_d x U(f°[d:d+l])[comp]
                 at the key (comp, f°[d+l:d+n]).

    S holds no unit (f has none, its module not being the unit), and the
    word read holds the unit once, so only those stored words enter U.
    Each term is x times a sum of structure constants, and truncation is
    linear, so x U(S) truncates as its terms do.  On a table whose unit
    laws hold strictly, U is empty and W(B c) forms no product.

    The b^2 fact.  Let f, x, T and rho_c be as above, and read b(f) by
    cyclic window as in the pairing above: one term per window, the n
    gaps included, written in place with sign (-1)^{|f[:q]|'} for a window
    at q >= 1 in the word (f_0 stays in front), and as the new module slot
    in front of the rest of the cyclic word with sign rho_c for a window
    through f_0 that starts at c (``_windows_into``).  Both are of shape
    (i) above.  By the computation of "When twins agree" and the parity
    lemma, a term of b may be read from any linear word H W K of f with W
    linear in it: rotate f to H W K, insert after H, and rotate the
    output to the word that starts at its module letter; every choice of
    H gives the same sign.  b(b f) has two kinds of pairs: a first term at
    a window W1 with output c1, then a second at a window W2 of the
    output.

      * Nested: W2 holds c1.  Then W2 with W1 put back for c1 is a cyclic
        window W of f, and W1 = W[i:i+k].  Read both terms from b's own
        reading H W K of W: the first has the parity rho(f -> H W K) +
        |H|' + |W[:i]|', the second |H|', and the rotation of the middle
        word to its module reading and back costs nothing, the parities
        adding along rotations.  The output H c2 K is b's output at W: for
        W in the word, H W K is f itself, H starts at f_0, and the sign is
        (-1)^{|W[:i]|'}; for W through f_0, H is empty, c2 is the module,
        and the sign is rho_c (-1)^{|W[:i]|'}.  Summed over the
        insertions into W, the arity-0 ones at each of the l + 1 slots of
        W included (the first and last slot of a window of all n letters
        are one gap of f, reached by two pairs that W2 reads in two
        orders), and over the outputs: R(W) in place with sign +1, or
        rho_c R(W) as the new module slot.
      * Disjoint: W2 does not hold c1.  W1 and W2 are disjoint cyclic
        windows A and B, and the pair reaches one output in two orders.
        Read both from a linear word A M B K: A first costs 0 and then B
        costs |c1|' + |M|'; B first costs |A|' + |M|' and then A costs 0;
        both end at c1 M d K and rotate it alike.  By the parity lemma
        |c1|' = |A|' + 1, so the two orders cancel.

    So b(b f) = sum over the windows W of b of R(W), written where b
    writes its output, with sign +1 in the word and rho_c through f_0:
    ``_windows_into`` on the relation residual table.  Each term is x
    times a product of structure constants, so truncation drops what b
    applied twice drops; R has no length cap and reads a word past the
    stored tables as zero.  On a table whose relations hold, b^2 forms no
    product but those of (1 - q) b u.

    So the images are b(u'') for N(b u''), and (1 - q) b u and b of it
    where a unit-free word outputs the unit; b^2 and b'^2 are read off R,
    and W(B c) off U.  b'(u), D(u), t(u), b(tu), t b'(u), b'(b'u),
    b'(N u), N(b'u'), N(D u'), B(c) and B(B c) are never formed, nor are
    b(b c), b(B c) and B(b c).
    """
    basis = algebra.basis
    unit = basis.require_unit()
    top = algebra.spec.level_cutoff

    # b_red^2 c = q b(b u) - q b((1 - q) b u)
    square = _windows_into({}, algebra, u, top, relation_residuals(algebra), True)
    for key, terms in _b_into({}, algebra, _unit_outputs_into({}, algebra, u, top), top).items():
        add_into(square.setdefault(key, {}), terms, -1)

    front = {key: terms for key, terms in u.items() if key[0] != unit}
    units = {key: terms for key, terms in u.items() if key[0] == unit}
    R = _N_into({}, basis, _b_into({}, algebra, units, top), -1)
    eps = -1 if (basis.degrees[unit] - 1) % 2 else 1
    bB = _unit_front_into(_unit_wraps_into({}, algebra, front, top), R, unit, eps)
    return [
        ("b^2", _quotient(square, unit)),
        ("bB+Bb", bB),
        ("b'^2", _bar_square_into({}, algebra, u, top)),
    ]


# -- functionals and towers ---------------------------------------------------


class Functional:
    """Finitely supported functional on reduced chains.

    The table maps (module slot, tensor word) to values in the ring
    ``spec``; application to a chain pairs coefficients multiplicatively,
    with the chain's ring checked once against ``spec``.  ``degree`` is the
    uniform difference deg(value) - deg(chain key) over the support (None
    for the zero functional).
    """

    __slots__ = ("basis", "spec", "table", "degree")

    def __init__(self, basis, spec, table: Optional[ChainTerms] = None):
        self.basis = basis
        self.spec = spec
        self.table: ChainTerms = {}
        if table:
            unit = basis.unit
            for (v, word), value in table.items():
                if not value:
                    continue
                if unit is not None and unit in word:
                    raise ConfigurationError(
                        "functional entry on a non-reduced word (unit in a tensor slot)"
                    )
                require_compatible(spec, value.spec)
                self.table[(v, tuple(word))] = value
        self.degree = self._uniform_degree()

    def _uniform_degree(self):
        degs = set()
        for (v, word), value in self.table.items():
            key_deg = chain_degree(self.basis, v, word)
            degs |= {d - key_deg for d in value.degrees()}
        if not degs:
            return None
        if len(degs) > 1:
            raise ConfigurationError(
                "functional is not degree-homogeneous: offsets %s" % sorted(degs)
            )
        return degs.pop()

    def is_zero(self) -> bool:
        return not self.table

    def apply(self, chain: HochschildChain) -> RingElement:
        top = _level_cutoff(chain, self.spec)
        raw: dict = {}
        for key, terms in chain.terms.items():
            entry = self.table.get(key)
            if entry:
                mul_into(raw, entry.terms, terms, top)
        return RingElement(self.spec, raw)

    def text(self) -> str:
        return "; ".join("%s -> %s" % (key_text(self.basis.names, key), value.text())
                         for key, value in sorted(self.table.items())) or "0"


def iter_basis_chains(algebra: AInftyAlgebra, l_max: int):
    """All (module, reduced word) keys with word length <= l_max, in order."""
    basis = algebra.basis
    letters = basis.reduced_letters()
    for length in range(l_max + 1):
        for word in words_over(letters, length):
            for module in range(len(basis)):
                yield module, word


class CocycleTower:
    """Finite tower (psi_0, ..., psi_D) of functionals, one per u-power.

    Homogeneity: each nonzero level i has functional degree d_0 + 2i, where
    d_0 is the degree of the lowest nonzero level.
    """

    def __init__(self, levels: tuple, name: str = "tower"):
        self.levels = tuple(levels)
        self.name = name
        if not self.levels:
            raise ConfigurationError("a tower needs at least one level")
        base = None
        for i, psi in enumerate(self.levels):
            if psi.degree is None:
                continue
            if base is None:
                base = psi.degree - 2 * i
            elif psi.degree != base + 2 * i:
                raise ConfigurationError(
                    "tower level %d has degree %d, expected %d"
                    % (i, psi.degree, base + 2 * i)
                )

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def psi0(self) -> Functional:
        return self.levels[0]

    def degree(self):
        for i, psi in enumerate(self.levels):
            if psi.degree is not None:
                return psi.degree - 2 * i
        return None


def _pull_b_into(acc: dict, algebra: AInftyAlgebra, psi: Functional, top: int,
                 l_max: int) -> dict:
    """Add psi(b c) into acc[c], a raw {key: {Monomial: scalar}} map, for
    every reduced basis chain c of at most l_max letters that b sends to a
    key of psi; products above the level cutoff ``top`` are never formed.
    The families and their signs are in ``validate_negative_cocycle``."""
    degrees = algebra.basis.degrees
    unit = algebra.basis.unit
    index = words_by_output(algebra)
    tables = nonzero_words(algebra)
    for (v0, w0), value in psi.table.items():
        # prefixes[p]: shifted degree of the first p factors of v0, w0
        prefixes = maltese_prefixes([degrees[x] for x in (v0,) + w0])
        for q, letter in enumerate(w0):
            for u in index.get(letter, ()):
                if len(w0) - 1 + len(u) <= l_max and unit not in u:
                    mul_into(acc.setdefault((v0, w0[:q] + u + w0[q + 1 :]), {}), value.terms,
                             tables[len(u)][u][letter].terms, top, insertion_sign(prefixes, q + 1))
        for x in index.get(v0, ()):
            # the wrap at i moves x[:i] past x[i:] + w0
            crossed = maltese_prefixes([degrees[y] for y in x + w0])
            for i in range(len(x)):
                rest = x[i + 1 :] + w0 + x[:i]
                if len(rest) <= l_max and unit not in rest:
                    mul_into(acc.setdefault((x[i], rest), {}), value.terms,
                             tables[len(x)][x][v0].terms, top,
                             crossing_sign(crossed[-1], crossed[i]))
    return acc


def _pull_B_into(acc: dict, basis, psi: Functional, l_max: int) -> dict:
    """Add psi(B c) into acc[c], a raw {key: {Monomial: scalar}} map, for
    every reduced basis chain c of at most l_max letters that B sends to a
    key of psi (see ``validate_negative_cocycle``)."""
    for (v1, w1), value in psi.table.items():
        if v1 == basis.unit and len(w1) <= l_max + 1:
            for rotated, sign in _rotations(basis.degrees, w1, len(w1)):
                add_into(acc.setdefault((rotated[0], rotated[1:]), {}), value.terms, sign)
    return acc


def validate_negative_cocycle(algebra: AInftyAlgebra, tower: CocycleTower) -> Report:
    """Check b* psi_i = B* psi_{i+1} for i < D and b* psi_D = 0, chainwise,
    on the chains of at most ``algebra.l_max`` letters.

    ``checked`` counts every basis chain of ``iter_basis_chains`` at every
    level, and the failure lines are those of a check that evaluates
    psi_i(b c) and psi_{i+1}(B c) at every basis chain c, in the same order
    (``oracles.validate_negative_cocycle_reference``).  Both sides are
    computed by transposition, with no chain formed: for each key kappa of
    psi_i, the chains c whose b c has a term at kappa are walked, and
    psi_i(kappa) times that term's coefficient is added into a raw map
    lhs_i[c] (``_pull_b_into``); rhs_i[c] comes from psi_{i+1} and B in the
    same way (``_pull_B_into``).  A chain in neither map passes.

    At kappa = (v0, w0), b c = b'c + D c (fact D of ``identity_residuals``)
    has terms from three families:

      * an insertion at slot p >= 1 of c's marked word that made the letter
        w0[q], q = p - 1: c = (v0, w0[:q] + u + w0[q+1:]), an un-insertion
        of w0, for each u that ``words_by_output`` lists under w0[q].  Its
        sign ``insertion_sign`` reads the letters in front of the slot,
        v0 and w0[:q], which c and kappa share.
      * an insertion at slot 0 of arity >= 1, or a wrap-around of D: m(x)
        made v0 with c's module at x[i], so c = (x[i], x[i+1:] + w0 + x[:i])
        for each x listed under v0.  Slot 0 is i = 0 and D's wraps are
        i >= 1; the sign is ``crossing_sign`` of the tail block x[:i]
        crossing x[i:] and w0, +1 for i = 0 as at slot 0.
      * m_0 in front of the module slot: b' puts it there with sign +1 and
        D with sign -1, at the same key with the same product, so b has no
        such term.

    Each term of b c at kappa is one (family, u or x, position) walked from
    kappa, and each one walked is a term, so lhs_i[c] is psi_i(b c) summed
    in another order.  B c has terms only at keys (1, w1), one per
    rotation t^r of c's marked word, r < n = len(w1).  t^n is the identity
    on length-n words (the parity of its sign, the sum over letters x of
    |x|'(|w1|' - |x|'), is even), so c has a term at w1 exactly when
    t^r(w1) = sigma_r c for some r < n, and that term is
    t^{n-r} c = sigma_r w1, sigma_r the sign ``_rotations`` yields for t^r
    of w1.  So
    rhs_i[c] sums the rotations of each key (1, w1), a periodic w1
    reaching one c more than once.

    The reduced quotient: a family member whose word holds the unit is no
    reduced chain and is skipped, and reduced b drops only output keys
    with the unit in a tensor slot, where no functional has a key.  The
    truncation: psi_i(b c) truncates each term of b c, then each product
    with psi_i; here each product psi_i(kappa) * m(...) is truncated once.
    Levels are nonnegative and add under products, so the cutoff is an
    ideal: a product with a term above it is above it, and both drop the
    same terms.  B needs the unit, and the ring of each level is checked
    against the algebra's once, before any sum.
    """
    l_max = algebra.l_max
    report = Report("negative-cocycle")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    report.note("depth", tower.depth)
    basis = algebra.basis
    reduced = len(basis.reduced_letters())
    report.tick(len(tower.levels) * len(basis) * word_count(reduced, l_max))
    basis.require_unit()
    spec = algebra.spec
    for psi in tower.levels:
        require_compatible(spec, psi.spec)
    lhs = [_pull_b_into({}, algebra, psi, spec.level_cutoff, l_max) for psi in tower.levels]
    rhs = [_pull_B_into({}, basis, psi, l_max) for psi in tower.levels[1:]] + [{}]
    for key in sorted(set().union(*lhs, *rhs), key=lambda c: (len(c[1]), c[1], c[0])):
        for i, (pulled_b, pulled_B) in enumerate(zip(lhs, rhs)):
            left = RingElement(spec, pulled_b.get(key))
            right = RingElement(spec, pulled_B.get(key))
            if left != right:
                report.fail("level %d at %s: b* gives %s, B* of next level gives %s"
                            % (i, key_text(basis.names, key), left.text(), right.text()))
    return report
