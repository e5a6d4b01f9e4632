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
  * b (module differential) = b' + D.  D adds the wrap-around terms whose
    tail block has at least one letter: the block is absorbed together
    with the module slot and pays the Koszul cost of crossing everything it
    moves past (module slot plus the remaining prefix).  D also subtracts
    m_0 inserted in front of the module slot, which b' has and b does not.
    The b of a reduced chain is the quotient of b' + D.
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

A chain stores one coefficient ring ``spec`` and, per key, the raw term
map {Monomial: scalar} of its coefficient: the scalars nonzero and in
stored form, no empty maps, and no unit words in a reduced chain.  The maps
are never mutated once a chain holds them, so operators share them.  The
five operators read and write these maps: b and b' add each signed product
coeff * m(...) straight into a raw map per output key with
``coeff.mul_into``, which applies the level cutoff to every product; t, N
and B add signed copies of the input maps with ``coeff.add_into``.  The
ring compatibility of chain and algebra is checked once per call, not per
product.  An output map is only cleaned (zeros dropped, scalars in stored
form); a RingElement is made only where a coefficient is read as one: in
``coefficient``, ``__eq__`` and ``text``.  The signs of a word come from
one prefix pass (``maltese_prefixes``); a rotation keeps the total shifted
degree, so the powers of t cost O(1) each after one ``maltese`` per word.

Each of b', D, N and B has one implementation, a private core that adds
sign * op(chain) into a caller's raw {key: {Monomial: scalar}} map
(``_bar_into``, ``_D_into``, ``_N_into``, ``_B_into``); the public operator
runs its core into an empty map and builds the chain.  b's core
``_b_into`` is ``_bar_into`` plus ``_D_into``, so b has no insertion loop
of its own.  The wrap-around terms have one helper, ``_wraps_into``, which
takes the first tail-block length as a parameter: D runs it from 1, and
the bB+Bb residual from 0 (all the wraps, W).  ``identity_residuals`` runs
the cores into one map per chain identity with no intermediate chain sum.
It sums the b^2 and bB+Bb residuals from the b'^2 and b'N-Nb residuals, so
b is formed only on t(u) and on the small chain q D(u); its docstring
proves the three identities this rests on.  All the operators
are linear over the coefficient ring, and the level cutoff is an ideal,
which is what lets ``cli.chain_identity_suite`` check each basis key once
instead of each drawn chain.

The dual side stores towers of finitely supported functionals, applied to
chains key by key; a tower is validated chainwise against b and B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .ainfty import AInftyAlgebra, insertions, nonzero_words, uninsertions, words_by_output
from .coeff import RingElement, add_into, canonical, mul_into, require_compatible
from .errors import ConfigurationError
from .graded import Word, maltese, maltese_prefixes, words_over
from .report import Report

ChainKey = Tuple[int, Word]
ChainTerms = Dict[ChainKey, RingElement]


class HochschildChain:
    """Linear combination of (module slot, tensor word) with a reduced flag.

    ``terms`` maps each key to the raw term map {Monomial: scalar} of its
    coefficient in the ring ``spec`` (None only for a chain built from no
    terms); see the module docstring for what a chain keeps clean.
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
        """A chain of raw term maps that are clean already, as the operators
        below build them: nothing is filtered."""
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
        if not self.terms:
            return "0"
        names = self.basis.names
        parts = []
        for (v, word), terms in sorted(self.terms.items()):
            slot = "[%s|%s]" % (names[v], ",".join(names[i] for i in word))
            parts.append("(%s)%s" % (RingElement(self.spec, terms).text(), slot))
        return " + ".join(parts)

    def __repr__(self):
        return "HochschildChain(%s)" % self.text()


def chain_degree(basis, module: int, word: Word) -> int:
    return basis.degree(module) + sum(basis.degree(i) - 1 for i in word)


def _built(basis, spec, raw: dict, reduced: bool) -> HochschildChain:
    """The chain of raw term maps {key: {Monomial: scalar}}, each cleaned,
    and the keys whose sum cancelled dropped."""
    terms = {}
    for key, mono_terms in raw.items():
        # a map of nonzero ints is clean already, and is kept as it is
        for value in mono_terms.values():
            if type(value) is not int or not value:
                mono_terms = canonical(mono_terms)
                break
        if mono_terms:
            terms[key] = mono_terms
    return HochschildChain._clean(basis, spec, terms, reduced)


def _level_cutoff(chain: HochschildChain, spec):
    """The level cutoff of products of the chain's coefficients with
    elements of ``spec``, once the two rings are checked compatible."""
    if chain.spec is not None:
        require_compatible(chain.spec, spec)
    return spec.level_cutoff


def _wraps_into(acc: dict, algebra: AInftyAlgebra, chain: HochschildChain, top: int,
                start: int, sign: int = 1) -> dict:
    """Add sign * the wrap-around terms of b(chain) whose tail block has
    i >= start letters into acc: sign * W(chain) for start 0.

    At a key (v, a_1..a_k), m_a(a_{k-i+1}..a_k, v, a_1..a_j), i + j + 1 = a,
    puts its output in the module slot and keeps a_{j+1}..a_{k-i}.  The tail
    block crosses v and the kept prefix a_1..a_{k-i}: this is the one place
    of the wrap sign, which is +1 for i = 0.
    """
    degrees = algebra.basis.degrees
    tables = nonzero_words(algebra)
    for (v, word), terms in chain.terms.items():
        # prefixes[p]: shifted degree of the first p factors of v, a_1..a_k
        prefixes = maltese_prefixes([degrees[x] for x in (v,) + word])
        k = len(word)
        total = prefixes[-1]
        for a, words in tables.items():
            if a > k + 1:
                break
            for i in range(start, a):
                j = a - 1 - i
                inner = words.get(word[k - i :] + (v,) + word[:j])
                if not inner:
                    continue
                kept = prefixes[k - i + 1]
                wrap = -sign if (total - kept) * kept % 2 else sign
                rest = word[j : k - i]
                for comp, value in inner.items():
                    mul_into(acc.setdefault((comp, rest), {}), terms, value.terms, top, wrap)
    return acc


def _b_into(acc: dict, algebra: AInftyAlgebra, chain: HochschildChain, top: int,
            sign: int = 1) -> dict:
    """Add sign * b(chain) into acc, a raw {key: {Monomial: scalar}} map;
    products above the level cutoff ``top`` are never formed.

    b = b' + D (fact D of ``identity_residuals``).  A reduced chain's b is
    the quotient of that sum: acc must then hold no key with the unit in a
    tensor slot, and the ones the sum adds are dropped.
    """
    _D_into(_bar_into(acc, algebra, chain, top, sign), algebra, chain, top, sign)
    if chain.reduced:
        unit = algebra.basis.unit
        for key in [key for key in acc if unit in key[1]]:
            del acc[key]
    return acc


def hochschild_b(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """The module differential, wrap-around and interior sums with exact signs."""
    raw = _b_into({}, algebra, chain, _level_cutoff(chain, algebra.spec))
    return _built(algebra.basis, algebra.spec, raw, chain.reduced)


def _D_into(acc: dict, algebra: AInftyAlgebra, chain: HochschildChain, top: int,
            sign: int = 1) -> dict:
    """Add sign * D(chain) into acc, D = b - b' on unreduced chains: the
    wrap-arounds of b with a tail block i >= 1, minus m_0 inserted in front
    of the module slot (see ``identity_residuals`` for the proof)."""
    _wraps_into(acc, algebra, chain, top, 1, sign)
    curvature = nonzero_words(algebra).get(0, {}).get(())
    if curvature:
        for (v, word), terms in chain.terms.items():
            for comp, value in curvature.items():
                mul_into(acc.setdefault((comp, (v,) + word), {}), terms, value.terms, top, -sign)
    return acc


def _bar_into(acc: dict, algebra: AInftyAlgebra, chain: HochschildChain, top: int,
              sign: int = 1) -> dict:
    """Add sign * b'(chain) into acc, a raw {key: {Monomial: scalar}} map;
    an insertion at slot 0 makes the new module slot."""
    for (v, word), terms in chain.terms.items():
        full = (v,) + word
        for p, arity, inner, inserted in insertions(algebra, full):
            inserted *= sign
            for comp, value in inner.items():
                key = (v, full[1:p] + (comp,) + full[p + arity :]) if p else (comp, full[arity:])
                mul_into(acc.setdefault(key, {}), terms, value.terms, top, inserted)
    return acc


def chain_bar(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """Bar-type differential: coderivation on the full marked word, unreduced."""
    raw = _bar_into({}, algebra, chain, _level_cutoff(chain, algebra.spec))
    return _built(algebra.basis, algebra.spec, raw, False)


def _rotations(degrees, full: Word, count: int):
    """The first ``count`` powers of the signed rotation t on a marked word.

    Yields (t^r(full), parity of its sign) for r = 0, 1, ..., count - 1,
    where t^r is taken with r mod len(full).  t moves the last factor x to
    the front, past factors whose shifted degrees sum to |full|' - |x|';
    rotation keeps |full|', so it is read once and each power costs O(1).
    """
    n = len(full)
    total = maltese([degrees[x] for x in full], n)
    odd = 0
    for r in range(count):
        cut = n - r % n
        yield full[cut:] + full[:cut], odd
        last = degrees[full[cut - 1]] - 1
        odd ^= last * (total - last) & 1


def cyclic_t(basis, chain: HochschildChain) -> HochschildChain:
    """Signed rotation of the marked word: the last factor moves to the front."""
    degrees = basis.degrees
    out: dict = {}
    for (v, word), terms in chain.terms.items():
        # t permutes the keys, so no two terms meet
        _, (rotated, odd) = _rotations(degrees, (v,) + word, 2)
        out[(rotated[0], rotated[1:])] = add_into({}, terms, -1) if odd else terms
    return HochschildChain._clean(basis, chain.spec, out, False)


def _N_into(acc: dict, basis, chain: HochschildChain, sign: int = 1) -> dict:
    """Add sign * N(chain) into acc, a raw {key: {Monomial: scalar}} map."""
    degrees = basis.degrees
    for (v, word), terms in chain.terms.items():
        for rotated, odd in _rotations(degrees, (v,) + word, 1 + len(word)):
            add_into(acc.setdefault((rotated[0], rotated[1:]), {}), terms, -sign if odd else sign)
    return acc


def operator_N(basis, chain: HochschildChain) -> HochschildChain:
    """Rotation sum 1 + t + ... + t^{n-1} on each length-n component."""
    return _built(basis, chain.spec, _N_into({}, basis, chain), False)


def _B_into(acc: dict, basis, chain: HochschildChain, sign: int = 1) -> dict:
    """Add sign * B(chain) into acc, a raw {key: {Monomial: scalar}} map."""
    if not chain.reduced:
        raise ConfigurationError(
            "the Connes operator is only available on reduced chains"
        )
    unit = basis.require_unit()
    degrees = basis.degrees
    for (v, word), terms in chain.terms.items():
        # words are unit-free, so a rotation has the unit exactly when v is
        if v == unit:
            continue
        full = (v,) + word
        for rotated, odd in _rotations(degrees, full, len(full)):
            add_into(acc.setdefault((unit, rotated), {}), terms, -sign if odd else sign)
    return acc


def connes_B_reduced(basis, chain: HochschildChain) -> HochschildChain:
    """Connes operator on reduced chains: unit-marked cyclic rotations."""
    return _built(basis, chain.spec, _B_into({}, basis, chain), True)


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


def identity_residuals(algebra: AInftyAlgebra, chain: HochschildChain) -> list:
    """The six chain identities at a reduced chain c, as raw residual maps.

    Returns [(tag, {key: {Monomial: scalar}})] for b^2, B^2, bB+Bb, b'^2,
    b(1-t)-(1-t)b' and b'N-Nb, in that order.  An identity holds at c
    exactly when every scalar of its map is zero; ``_built`` makes the
    chain of a map.  Each map is the full sum of its identity's operator
    composites, scalar by scalar (``oracles.identity_residuals_reference``
    computes them image by image); nothing is skipped by appeal to strict
    unitality or to the A-infinity relations.  Write b for the classical
    module differential: the wrap-arounds plus the interior insertions into
    the word with base |v|', as ``oracles.hochschild_b_reference`` forms
    it.  The b images are assembled from b' images through three facts
    that hold for any tables; ``_b_into`` takes D and reduced b as b's
    definition:

      * D.  D(x) := b(x) - b'(x) on unreduced chains is the wrap-arounds
        of b with a tail block i >= 1, minus m_0 inserted in front of the
        module slot (``_D_into``).  Proof: b' inserts into the full word
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

    Let u be the unreduced c, u' and u'' its keys whose module is not and
    is the unit, P and Z the keys of b'(u) with a unit-free word and with
    the unit in a tensor slot, and eps = (-1)^{|1|'} from the unit's
    degree.  Then:

      1. b(u) = b'(u) + D(u), by D.
      2. The rotation residual b(u) - b(tu) - b'(u) + t b'(u) is
         D(u) + t b'(u) - b(tu).
      3. Let R := b'(N u') - N(b u) = b'(N u') - N(b'u) - N(Du).  By (a),
         B(c) = q s_1 N(u) = s_1 N(u'): every key of s_1 N(u'') holds the
         unit and no key of s_1 N(u') does.  So b_red(B c) = W(B c) +
         eps q s_1 b'(N u') by (b), applied to y = N(u').  B(b_red c) =
         q s_1 N(q b u) = q s_1 N(b u), by (a) and reduced b, since
         q s_1 N drops every key with a unit word.  So bB+Bb =
         W(B c) + eps q s_1 R + (1 + eps) q s_1 N(b u), and the last term
         is zero because ``GradedBasis`` gives the unit degree 0.  q s_1 R
         is summed once R has cancelled, over its nonzero keys.  The b'N-Nb
         residual is then R + b'(N u'').
      4. b_red b_red c = q b(q b u) by reduced b, and q b u = P + q D u, so
         b^2 = q b(P) + b_red(q D u); by D and b'(u) = P + Z, q b(P) =
         q b'(b'u) - q b'(Z) + q D(P), and q b'(b'u) is the quotient of
         the b'^2 residual.  Z is empty unless some insertion outputs the
         unit (E2's m_0) or m_0 goes in front of a unit module.

    So the images are b'(u), D(u), N(u'), N(u''), t(u), b(tu), t b'(u),
    b'(b'u), b'(Z), D(P), b_red(q D u), b'(N u'), b'(N u''), N(b'u),
    N(D u), W(B c) and B(B c): b is formed only on tu and q D u, and
    b(b c), b(B c) and B(b c) are never formed.  The b^2
    map shares the maps of the b'^2 residual at the keys the other terms
    of 4 do not reach.
    """
    basis = algebra.basis
    unit = basis.require_unit()
    spec = algebra.spec
    top = _level_cutoff(chain, spec)

    def unreduced(terms):
        return HochschildChain._clean(basis, spec, terms, False)

    u = chain.unreduced()
    bar_u = chain_bar(algebra, u)
    Du = _built(basis, spec, _D_into({}, algebra, u, top), False)

    bar_square = _bar_into({}, algebra, bar_u, top)
    P = _quotient(bar_u.terms, unit)
    Z = {key: terms for key, terms in bar_u.terms.items() if key not in P}
    qDu = HochschildChain._clean(basis, spec, _quotient(Du.terms, unit), True)
    extra = _b_into({}, algebra, qDu, top)
    _bar_into(extra, algebra, unreduced(Z), top, -1)
    _D_into(extra, algebra, unreduced(P), top)
    square = _quotient(bar_square, unit)
    for key, terms in _quotient(extra, unit).items():
        old = square.get(key)
        square[key] = terms if old is None else add_into(terms, old)

    rotation = _b_into({}, algebra, cyclic_t(basis, u), top, -1)
    for image in (Du, cyclic_t(basis, bar_u)):
        for key, terms in image.terms.items():
            add_into(rotation.setdefault(key, {}), terms)

    N_front = operator_N(basis, unreduced({key: terms for key, terms in u.terms.items()
                                           if key[0] != unit}))
    N_unit = operator_N(basis, unreduced({key: terms for key, terms in u.terms.items()
                                          if key[0] == unit}))
    Bc = HochschildChain._clean(basis, spec, {
        (unit, (v,) + word): terms for (v, word), terms in N_front.terms.items()}, True)
    R = _N_into(_N_into(_bar_into({}, algebra, N_front, top), basis, bar_u, -1), basis, Du, -1)
    eps = -1 if (basis.degrees[unit] - 1) % 2 else 1
    bB = _unit_front_into(_wraps_into({}, algebra, Bc, top, 0), R, unit, eps)
    return [
        ("b^2", square),
        ("B^2", _B_into({}, basis, Bc)),
        ("bB+Bb", bB),
        ("b'^2", bar_square),
        ("b(1-t)-(1-t)b'", rotation),
        ("b'N-Nb", _bar_into(R, algebra, N_unit, top)),
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
        if not self.table:
            return "0"
        names = self.basis.names
        parts = []
        for (v, word), value in sorted(self.table.items()):
            parts.append(
                "[%s|%s] -> %s" % (names[v], ",".join(names[i] for i in word), value.text())
            )
        return "; ".join(parts)


def iter_basis_chains(algebra: AInftyAlgebra, l_max: int):
    """All (module, reduced word) keys with word length <= l_max, in order."""
    basis = algebra.basis
    letters = basis.reduced_letters()
    for length in range(l_max + 1):
        for word in words_over(letters, length):
            for module in range(len(basis)):
                yield module, word


@dataclass
class CocycleTower:
    """Finite tower (psi_0, ..., psi_D) of functionals, one per u-power.

    Homogeneity: each nonzero level i has functional degree d_0 + 2i, where
    d_0 is the degree of the lowest nonzero level.
    """

    levels: tuple
    name: str = "tower"

    def __post_init__(self):
        self.levels = tuple(self.levels)
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

    def is_strict(self) -> bool:
        """Strictly cyclic shape: psi_{i>0} = 0 and psi_0 on length-1 words."""
        if any(not psi.is_zero() for psi in self.levels[1:]):
            return False
        return all(len(word) <= 1 for _, word in self.psi0.table)


def _cocycle_support(algebra: AInftyAlgebra, tower: CocycleTower, l_max: int) -> list:
    """The basis chains at which psi_i(b c) or psi_{i+1}(B c) can be nonzero.

    A term of b c at a key (v0, w0) of some psi_i comes from an interior
    insertion that made the letter w0[p], so c = (v0, w0[:p] + u + w0[p+1:])
    is an un-insertion of w0, or from a wrap-around m(u) that made the
    module v0 out of u with the module of c at u[j], so
    c = (u[j], u[j+1:] + w0 + u[:j]) for u listed under v0.  A term of B c
    at a key (1, w1) of psi_{i+1} needs (module,) + word to be a rotation
    of w1.  Listed as ``iter_basis_chains`` orders them: unit-free words of
    length <= l_max, by (length, word, module).
    """
    index = words_by_output(algebra)
    unit = algebra.basis.unit
    found = set()
    for level, psi in enumerate(tower.levels):
        for v0, w0 in psi.table:
            found.update((v0, word) for word in uninsertions(algebra, w0, l_max))
            for u in index.get(v0, ()):
                found.update((u[j], u[j + 1 :] + w0 + u[:j]) for j in range(len(u)))
            if level and v0 == unit:
                found.update((w0[s], w0[s + 1 :] + w0[:s]) for s in range(len(w0)))
    return sorted((c for c in found if len(c[1]) <= l_max and unit not in c[1]),
                  key=lambda c: (len(c[1]), c[1], c[0]))


def validate_negative_cocycle(
    algebra: AInftyAlgebra, tower: CocycleTower, l_max: Optional[int] = None
) -> Report:
    """Check b* psi_i = B* psi_{i+1} for i < D and b* psi_D = 0, chainwise.

    ``checked`` counts every basis chain of ``iter_basis_chains`` at every
    level.  Both sides vanish on a chain that reaches no key of the tower
    (``_cocycle_support``), so only the chains that do are evaluated, in
    the same order, with the failure lines of a check of every chain.
    """
    l_max = algebra.l_max if l_max is None else l_max
    report = Report("negative-cocycle")
    report.note("E_max", algebra.spec.cutoff)
    report.note("L_max", l_max)
    report.note("depth", tower.depth)
    basis = algebra.basis
    names = basis.names
    reduced = len(basis.reduced_letters())
    report.tick(len(tower.levels) * len(basis) * sum(reduced ** n for n in range(l_max + 1)))
    for module, word in _cocycle_support(algebra, tower, l_max):
        chain = HochschildChain.generator(basis, module, word, algebra.one_ring(), reduced=True)
        bc = hochschild_b(algebra, chain)
        Bc = connes_B_reduced(basis, chain)
        for i, psi in enumerate(tower.levels):
            lhs = psi.apply(bc)
            rhs = (
                tower.levels[i + 1].apply(Bc)
                if i + 1 < len(tower.levels)
                else RingElement.zero(algebra.spec)
            )
            if lhs != rhs:
                report.fail(
                    "level %d at [%s|%s]: b* gives %s, B* of next level gives %s"
                    % (i, names[module], ",".join(names[j] for j in word),
                       lhs.text(), rhs.text())
                )
    return report
