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

A chain is its raw term map {key: {Monomial: scalar}}: per key, the term
map of its coefficient, the scalars nonzero and in stored form, no empty
maps, and no unit words in a reduced chain.  The maps are never mutated once
built, so operators share them.  Each of b', D, t, N and B has one
implementation, a private core on raw maps: ``_bar_into`` and ``_N_into``
add sign * op(chain) into a caller's raw map, ``_B_into`` and ``_D_into``
add B(chain) and D(chain), and ``_t`` returns t(chain); only ``cyclic_t``
reaches ``_t``.
b' and D add each signed product coeff * m(...) straight into a raw map
per output key with ``coeff.mul_into``, which applies the level cutoff to
every product; t, N and B add signed copies of the input maps with
``coeff.add_into``.  The
signs of a word come from one prefix pass (``maltese_prefixes``); a
rotation keeps the total shifted degree, so the powers of t cost O(1) each
after one ``maltese`` per word, and the parity of a rotation has one home,
``_rotation_parity``.  b's core ``_b_into`` is ``_bar_into`` plus
``_D_into`` on the unreduced space, so b has no insertion loop of its own.
The wrap-around terms have one helper, ``_wraps_into``, which takes the
first tail-block length as a parameter: D runs it from 1, and the bB+Bb
residual from 0 (all the wraps, W).

``identity_residuals`` and ``cli.chain_identity_suite`` work on raw maps
only.  The residual kernel runs the cores into one map per chain identity
with no intermediate chain sum: b'^2 is ``_bar_square_into`` on u, which
puts the curved relation residual of each window of a key in its place,
reading the table ``ainfty.relation_residuals`` that ``check_ainfty``
reports from, and adds the disjoint pairs of insertions only where the
table has entries off the A-infinity degree; b^2 adds
``_b_into``, ``_bar_into`` and ``_D_into`` terms to its quotient, B^2 is
``_B_into`` on B(c), and bB+Bb is ``_wraps_into`` on B(c) plus the b'N-Nb
residual of the keys whose module is not the unit, less ``_N_into`` of
b(u'').  The two rotation identities have a core each,
``_bar_N_residual_into`` for b'N-Nb and ``_rotation_residual_into`` for
b(1-t)-(1-t)b': each walks the cyclic windows of a key once and forms a
product only for a pair of twin terms whose signs differ.  Twins can differ
only at an operation entry off the A-infinity degree, so the cores walk
only those entries (``ainfty.off_degree_words``) and do nothing on a table
that has none.  So b is formed only on the small chain q D(u); the
docstring of ``identity_residuals`` proves the identities, the pairings
and the off-degree criterion this rests on.  All
the operators are linear over the coefficient ring, and the level cutoff is
an ideal, which is what lets ``cli.chain_identity_suite`` check each basis
key once instead of each drawn chain.

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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .ainfty import (AInftyAlgebra, insertion_sign, insertions, nonzero_words, off_degree_words,
                     relation_residuals, words_by_output)
from .coeff import RingElement, add_into, canonical, mul_into, require_compatible
from .errors import ConfigurationError
from .graded import Word, maltese, maltese_prefixes, word_count, words_over
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


def _wraps_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int,
                start: int) -> dict:
    """Add the wrap-around terms of b(chain) whose tail block has i >= start
    letters into acc: W(chain) for start 0.

    At a key (v, a_1..a_k), m_a(a_{k-i+1}..a_k, v, a_1..a_j), i + j + 1 = a,
    puts its output in the module slot and keeps a_{j+1}..a_{k-i}.  The tail
    block crosses v and the kept prefix a_1..a_{k-i} (``_wrap_sign``).
    """
    degrees = algebra.basis.degrees
    tables = nonzero_words(algebra)
    for (v, word), terms in chain.items():
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
                wrap = _wrap_sign(total, kept)
                rest = word[j : k - i]
                for comp, value in inner.items():
                    mul_into(acc.setdefault((comp, rest), {}), terms, value.terms, top, wrap)
    return acc


def _wrap_sign(total: int, part: int) -> int:
    """The sign of a wrap-around, the one place of it: the tail block and
    the factors it crosses (module slot and kept prefix) have shifted
    degrees ``part`` and total - ``part``, in either order; +1 for an
    empty block."""
    return -1 if (total - part) * part % 2 else 1


def _b_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add b(chain) into acc on the unreduced space, b = b' + D (fact D of
    ``identity_residuals``); products above the level cutoff ``top`` are
    never formed."""
    return _D_into(_bar_into(acc, algebra, chain, top), algebra, chain, top)


def hochschild_b(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """The module differential, wrap-around and interior sums with exact
    signs; the b of a reduced chain is the quotient of the unreduced b."""
    raw = _b_into({}, algebra, chain.terms, _level_cutoff(chain, algebra.spec))
    if chain.reduced:
        raw = _quotient(raw, algebra.basis.unit)
    return _built(algebra.basis, algebra.spec, raw, chain.reduced)


def _D_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add D(chain) into acc, D = b - b' on unreduced chains: the
    wrap-arounds of b with a tail block i >= 1, minus m_0 inserted in front
    of the module slot (see ``identity_residuals`` for the proof)."""
    _wraps_into(acc, algebra, chain, top, 1)
    curvature = nonzero_words(algebra).get(0, {}).get(())
    if curvature:
        for (v, word), terms in chain.items():
            for comp, value in curvature.items():
                mul_into(acc.setdefault((comp, (v,) + word), {}), terms, value.terms, top, -1)
    return acc


def _bar_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int,
              sign: int = 1) -> dict:
    """Add sign * b'(chain) into acc, a raw {key: {Monomial: scalar}} map;
    an insertion at slot 0 makes the new module slot."""
    for (v, word), terms in chain.items():
        full = (v,) + word
        for p, arity, inner, inserted in insertions(algebra, full):
            inserted *= sign
            for comp, value in inner.items():
                key = (v, full[1:p] + (comp,) + full[p + arity :]) if p else (comp, full[arity:])
                mul_into(acc.setdefault(key, {}), terms, value.terms, top, inserted)
    return acc


def chain_bar(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """Bar-type differential: coderivation on the full marked word, unreduced."""
    raw = _bar_into({}, algebra, chain.terms, _level_cutoff(chain, algebra.spec))
    return _built(algebra.basis, algebra.spec, raw, False)


def _rotation_parity(total: int, last: int) -> int:
    """The parity of the sign of a rotation of a marked word of shifted
    degree ``total``, the one place of it: the rotation moves its last
    factors, of shifted degree ``last``, to the front past the others.
    For one factor this is t; t^r moves r factors one at a time, and the
    parities of the steps sum to that of moving the r as one block."""
    return last * (total - last) & 1


def _rotations(degrees, full: Word, count: int):
    """The first ``count`` powers of the signed rotation t on a marked word.

    Yields (t^r(full), parity of its sign) for r = 0, 1, ..., count - 1,
    where t^r is taken with r mod len(full).  t moves the last factor to the
    front (``_rotation_parity``); rotation keeps |full|', so it is read once
    and each power costs O(1).
    """
    n = len(full)
    total = maltese([degrees[x] for x in full], n)
    odd = 0
    for r in range(count):
        cut = n - r % n
        yield full[cut:] + full[:cut], odd
        odd ^= _rotation_parity(total, degrees[full[cut - 1]] - 1)


def _t(basis, chain: dict) -> dict:
    """t(chain), a new raw map sharing the maps of the keys t keeps unsigned."""
    degrees = basis.degrees
    out = {}
    for (v, word), terms in chain.items():
        # t permutes the keys, so no two terms meet
        _, (rotated, odd) = _rotations(degrees, (v,) + word, 2)
        out[(rotated[0], rotated[1:])] = add_into({}, terms, -1) if odd else terms
    return out


def cyclic_t(basis, chain: HochschildChain) -> HochschildChain:
    """Signed rotation of the marked word: the last factor moves to the front."""
    return HochschildChain._clean(basis, chain.spec, _t(basis, chain.terms), False)


def _N_into(acc: dict, basis, chain: dict, sign: int = 1) -> dict:
    """Add sign * N(chain) into acc, a raw {key: {Monomial: scalar}} map."""
    degrees = basis.degrees
    for (v, word), terms in chain.items():
        for rotated, odd in _rotations(degrees, (v,) + word, 1 + len(word)):
            add_into(acc.setdefault((rotated[0], rotated[1:]), {}), terms, -sign if odd else sign)
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
        for rotated, odd in _rotations(degrees, full, len(full)):
            add_into(acc.setdefault((unit, rotated), {}), terms, -1 if odd else 1)
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


def _twice_into(acc: dict, key: Word, terms: dict, value: dict, top: int, sign: int) -> None:
    """Add 2 * sign * terms * value at the chain key of the marked word
    ``key``: a pair of terms with the same product that do not cancel."""
    into = acc.setdefault((key[0], key[1:]), {})
    mul_into(into, terms, value, top, sign)
    mul_into(into, terms, value, top, sign)


def _bar_square_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add b'(b'(chain)) into acc on the unreduced space, from the curved
    relation residuals and the disjoint pairs (the b'^2 fact of
    ``identity_residuals``).

    Each window f[q:q+n] of a marked word f with a nonzero residual R, the
    empty ones in front of every letter and after the last included, adds
    f[:q] R(f[q:q+n]) f[q+n:] with sign +1.  Where the table has entries
    off the A-infinity degree, each pair of disjoint windows whose left one
    reads such an entry adds twice its product with the sign of both
    insertions.  On a table whose relations hold and which has no entry off
    the degree, no product is formed.
    """
    relations = relation_residuals(algebra)
    tables = off_degree_words(algebra)
    if not relations and not tables:
        return acc
    degrees = algebra.basis.degrees
    for (v, word), terms in chain.items():
        f = (v,) + word
        for n, residuals in relations.items():
            for q in range(len(f) - n + 1):
                residual = residuals.get(f[q : q + n])
                if residual:
                    for comp, value in residual.items():
                        out = f[:q] + (comp,) + f[q + n :]
                        mul_into(acc.setdefault((out[0], out[1:]), {}), terms, value.terms, top)
        if not tables:
            continue
        prefixes = maltese_prefixes([degrees[x] for x in f])
        for a, words in tables.items():
            for i in range(len(f) - a + 1):
                left = words.get(f[i : i + a])
                if not left:
                    continue
                # the right window at j = i + a + p: (-1)^{|f[:i]|' + |f[:j]|'}
                rest = f[i + a :]
                for p, b, right, sign in insertions(algebra, rest, prefixes[i + a] - prefixes[i]):
                    for lcomp, lvalue in left.items():
                        for rcomp, rvalue in right.items():
                            out = f[:i] + (lcomp,) + rest[:p] + (rcomp,) + rest[p + b :]
                            _twice_into(acc, out, terms, (lvalue * rvalue).terms, top, sign)
    return acc


def _bar_N_residual_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add b'N(chain) - N b(chain) into acc on the unreduced space.

    Each term of b'N has a twin in N b with the same key and product (the
    first pairing of ``identity_residuals``), so the core walks the cyclic
    windows of each key once, arity-0 gaps included, reads the sign of both
    twins, and forms a product only where they differ.  Only the operation
    entries off the A-infinity degree are walked: at any other the twins
    agree.
    """
    tables = off_degree_words(algebra)
    if not tables:
        return acc
    degrees = algebra.basis.degrees
    for (v, word), terms in chain.items():
        f = (v,) + word
        n = len(f)
        # every cyclic window of f is a slice of f + f, and t^r f is
        # ring[n - r : 2n - r]; prefixes[q] is the shifted degree of ring[:q]
        ring = f + f
        prefixes = maltese_prefixes([degrees[x] for x in ring])
        total = prefixes[n]
        # the sign of t^r f in N f over the sign of the letters in front of it
        rotated = [insertion_sign(prefixes, n - r)
                   * (-1 if _rotation_parity(total, total - prefixes[n - r]) else 1)
                   for r in range(n)]
        for a, words in tables.items():
            if a > n:
                break
            m = n - a + 1
            for c in range(n):
                # b's arity-0 term at the gap before f[0] is the one after f[-1]
                q = n if a == 0 and c == 0 else c
                inner = words.get(ring[q : q + a])
                if not inner:
                    continue
                # b's term of the window: its output letter goes to position at
                if q + a <= n:
                    head, tail, at, sign = f[:q], f[q + a :], q, insertion_sign(prefixes, q)
                else:
                    head, tail, at, sign = (), f[q + a - n : q], 0, _wrap_sign(total, prefixes[q])
                for comp, value in inner.items():
                    out = head + (comp,) + tail
                    out_prefixes = maltese_prefixes([degrees[x] for x in out])
                    out_total = out_prefixes[m]
                    # the sign of t^s out in N b, for s = 0 .. m - 1
                    turned = [-sign if _rotation_parity(out_total, out_total - out_prefixes[m - s])
                              else sign for s in range(m)]
                    for p in range(m):
                        r = (p - c) % n
                        s = (p - at) % m
                        bar = rotated[r] * insertion_sign(prefixes, n - r + p)
                        if bar != turned[s]:
                            _twice_into(acc, out[m - s :] + out[: m - s], terms, value.terms,
                                        top, bar)
    return acc


def _rotation_residual_into(acc: dict, algebra: AInftyAlgebra, chain: dict, top: int) -> dict:
    """Add D(chain) + t b'(chain) - b t(chain) into acc on the unreduced
    space: the b(1-t) - (1-t)b' residual less b(chain) - b'(chain) - D(chain),
    which is zero.

    Each term of b t has a twin in D or t b' with the same key and product
    (the second pairing of ``identity_residuals``), and one pair of D and
    t b' terms meet each other; the core walks the cyclic windows of each
    key once and forms a product only where a pair does not cancel.  As in
    ``_bar_N_residual_into``, only the entries off the A-infinity degree
    are walked.
    """
    tables = off_degree_words(algebra)
    if not tables:
        return acc
    degrees = algebra.basis.degrees
    for (v, word), terms in chain.items():
        f = (v,) + word
        n = len(f)
        ring = f + f
        prefixes = maltese_prefixes([degrees[x] for x in f])
        total = prefixes[n]
        # t f and the sign of t on f
        shifted = maltese_prefixes([degrees[x] for x in f[-1:] + f[:-1]])
        t_sign = -1 if _rotation_parity(total, total - prefixes[n - 1]) else 1
        for a, words in tables.items():
            if a > n:
                break
            for c in range(n):
                inner = words.get(ring[c : c + a])
                if not inner:
                    continue
                # b's term of t f at the window, which starts at c + 1 there
                d = c + 1 if a == 0 else (c + 1) % n
                bt = t_sign * (insertion_sign(shifted, d) if d + a <= n
                               else _wrap_sign(total, shifted[d]))
                for comp, value in inner.items():
                    if c + a > n:
                        # a wrap-around of D
                        key, sign = (comp,) + f[c + a - n : c], _wrap_sign(total, prefixes[c])
                    else:
                        # t b'(f): the insertion at c, then its last letter to the front
                        out = f[:c] + (comp,) + f[c + a :]
                        last = degrees[out[-1]] - 1
                        out_total = total - prefixes[c + a] + prefixes[c] + degrees[comp] - 1
                        key = out[-1:] + out[:-1]
                        sign = insertion_sign(prefixes, c) * (
                            -1 if _rotation_parity(out_total, last) else 1)
                    if sign != bt:
                        _twice_into(acc, key, terms, value.terms, top, sign)
        # t b'(f) at the gap after f[-1] meets D's -m_0 in front of f
        for comp, value in tables.get(0, {}).get((), {}).items():
            last = degrees[comp] - 1
            gap_sign = insertion_sign(prefixes, n) * (
                -1 if _rotation_parity(total + last, last) else 1)
            if gap_sign == -1:
                _twice_into(acc, (comp,) + f, terms, value.terms, top, -1)
    return acc


def identity_residuals(algebra: AInftyAlgebra, u: dict) -> list:
    """The six chain identities at a reduced chain c, as raw residual maps.

    ``u`` is the raw map of c, in the algebra's ring.  Returns
    [(tag, {key: {Monomial: scalar}})] for b^2, B^2, bB+Bb, b'^2,
    b(1-t)-(1-t)b' and b'N-Nb, in that order.  An identity holds at c
    exactly when every scalar of its map is zero.  Each map is the full sum
    of its identity's operator composites, scalar by scalar
    (``oracles.identity_residuals_reference`` computes them image by
    image); nothing is skipped by appeal to strict unitality or to the
    A-infinity relations.  Write b for the classical
    module differential: the wrap-arounds plus the interior insertions into
    the word with base |v|', as ``oracles.hochschild_b_reference`` forms
    it.  The b images are assembled from b' images through three facts
    that hold for any tables; ``_b_into`` takes D, and ``hochschild_b``
    reduced b, as b's definition:

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
        differ by |A|' + |c|' mod 2, and no letter of B enters: at an
        entry m(A)[c] with the A-infinity degree, |c|' = |A|' + 1, the
        two orders cancel.  At an entry off it
        (``ainfty.off_degree_words``) they agree, and the pair adds
        2 (-1)^{|f[:i]|' + |f[:j]|'} x m(A)[c] m(B)[d].  The criterion is
        read on the left entry only; the right entry may have any degree.

    Each term is one product of structure constants times x, and the
    level cutoff is an ideal, so forming x R(W)[c], or x (m(A)[c] m(B)[d]),
    with each factor truncated drops exactly the terms that b' applied
    twice drops.  The
    windows of a chain of L letters have up to L + 1 letters, past the
    arity cutoff K when L + 1 > K; the chain identities read no arity
    cutoff (``check --kmax 0`` still runs them on the stored tables), so
    neither does R: it is built on every un-insertion of the stored words,
    with no length cap.  An operation on a word past the stored tables is
    zero in R, as it is for ``insertions``, so on tables not marked
    higher-arities-zero b'^2 is still b' applied twice, where
    ``check_ainfty`` refuses a cutoff past the tables.  On a table whose
    relations hold and which has no entry off the degree, every corpus
    document, b'^2 forms no product.

    Read as an unreduced chain, c is u.  Let u' and u'' be its keys whose
    module is not and is the unit, P and Z the keys of b'(u) with a
    unit-free word and with the unit in a tensor slot, and
    eps = (-1)^{|1|'} from the unit's degree.  Then:

      1. b(u) = b'(u) + D(u), by D.
      2. The rotation residual b(u) - b(tu) - b'(u) + t b'(u) is
         D(u) + t b'(u) - b(tu), which ``_rotation_residual_into`` forms
         by the pairing below.
      3. Let Res(x) := b'(N x) - N(b x), the b'N-Nb residual at x, which
         ``_bar_N_residual_into`` forms by the pairing below, and
         R := b'(N u') - N(b u) = Res(u') - N(b u'').  By (a),
         B(c) = q s_1 N(u) = s_1 N(u'): every key of s_1 N(u'') holds the
         unit and no key of s_1 N(u') does.  So b_red(B c) = W(B c) +
         eps q s_1 b'(N u') by (b), applied to y = N(u').  B(b_red c) =
         q s_1 N(q b u) = q s_1 N(b u), by (a) and reduced b, since
         q s_1 N drops every key with a unit word.  So bB+Bb =
         W(B c) + eps q s_1 R + (1 + eps) q s_1 N(b u), and the last term
         is zero because ``GradedBasis`` gives the unit degree 0.  q s_1 R
         is summed once R has cancelled, over its nonzero keys.  The b'N-Nb
         residual is Res(u) = Res(u') + Res(u'').
      4. b_red b_red c = q b(q b u) by reduced b, and q b u = P + q D u, so
         b^2 = q b(P) + b_red(q D u); by D and b'(u) = P + Z, q b(P) =
         q b'(b'u) - q b'(Z) + q D(P), and q b'(b'u) is the quotient of
         the b'^2 residual.  Z is empty unless some insertion outputs the
         unit (E2's m_0) or m_0 goes in front of a unit module.

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
        ``_wrap_sign(T, M[c])``, pi = 0;
      * a = 0: b''s insertion at the gap, at q = c for c >= 1 and at
        q = n, after f_{n-1}, for c = 0, pi = q.  b''s insertion at 0
        and D's -m_0 in front of the module slot have the same key
        (comp, f), the same product and opposite signs: they cancel, and
        are never formed.

    Then out has m = n - a + 1 letters in every case.

      * b'N - Nb.  A term of b'(N f) is an insertion at p <= n - a into
        t^r f, r < n, of sign (-1)^{odd_r} (``_rotation_parity``) times
        ``insertion_sign`` at p of t^r f.  Its window is the cyclic
        window of f that starts at c = (p - r) mod n, and its output word
        is the cyclic word of out with comp at p, which is t^s(out) for
        s = (p - pi) mod m.  For a fixed window, p -> r and p -> s are
        one to one onto r < n with (p - r) mod n = c and onto s < m, so
        the terms of b'(N f) and of N b(f) = sum_s t^s b(f) pair off one
        to one with the same key and product.
      * The rotation identity.  t f = (f_{n-1}, f_0, .., f_{n-2}) has sign
        (-1)^{odd_1}, and its window that starts at c + 1 (mod n for
        a >= 1; for a = 0 the gap at q = c + 1 <= n) is f's window at c.
        The term of b(t f) there has the key of D's wrap-around at c
        when c + a > n, and of t b'(f)'s insertion at c when c + a <= n:
        (comp,) + f[c+a-n:c], (comp,) + f[:c] when c + a = n, and
        (f_{n-1},) + f[:c] + (comp,) + f[c+a:n-1] otherwise.  That pairs
        every term of b(t f) with one of D(f) + t b'(f).  Two are left:
        t b'(f) at the gap after f_{n-1}, key t(f + (comp,)) = (comp, f),
        and D's -m_0 in front of the module slot, at the same key with
        the same product.  They pair with each other.

    A pair of twins adds its product times the difference of the two
    signs (the sum, for the last pair of the rotation identity): nothing
    where the signs agree, and twice the product with the first sign
    where they differ.  Twins have the same product, so truncation drops
    both or neither.  Each core reads the signs from ``insertion_sign``,
    ``_wrap_sign`` and ``_rotation_parity``, the homes of the operators'
    conventions.

    When twins agree.  Let W be the window, e = |comp|', and rho(x -> y)
    the parity of the rotation between two linear words x, y of one cyclic
    word: moving a block B past the rest A costs |A|'|B|'
    (``_rotation_parity``).  These parities add along rotations: moving C
    past AB and then B past CA costs |C|'(|A|' + |B|') + |B|'(|C|' + |A|'),
    which is |A|'(|B|' + |C|') mod 2, the cost of moving BC past A at once.
    Every twin has one of two shapes, both ending at the same output word
    H comp K:

      (i) rotate f to H W K, then insert after H: parity
          rho(f -> H W K) + |H|'.  The terms of b'(N f) have this shape;
          so do those of b(t f), as b's term at a window is a rotation
          (none for an insertion, the tail block to the front for a
          wrap-around: ``_wrap_sign``) and then an insertion; and so do
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
    at an entry m_a(W)[comp] off the degree of an A-infinity structure,
    where |comp|' - |W|' - 1 is odd.  The cores walk only those entries
    (``ainfty.off_degree_words``), and return at once when the table has
    none; at such an entry a pair still cancels where |X|' is even, which
    the cores see as two equal signs.

    So the images are b'(u), D(u), N(u'), b'(Z), D(P), b_red(q D u),
    N(b'u''), N(D u''), W(B c) and B(B c), with b'(u'') and D(u'') formed
    again only when u' is not empty; b is formed only on q D u, and b'^2
    from R and the off-degree pairs.  t(u), b(tu), t b'(u), b'(b'u),
    b'(N u), N(b'u') and N(D u') are never formed, nor are b(b c),
    b(B c) and B(b c).  The b^2 map shares the maps of the b'^2 residual
    at the keys the other terms of 4 do not reach.
    """
    basis = algebra.basis
    unit = basis.require_unit()
    top = algebra.spec.level_cutoff
    bar_u = _cleaned(_bar_into({}, algebra, u, top))
    Du = _cleaned(_D_into({}, algebra, u, top))

    bar_square = _bar_square_into({}, algebra, u, top)
    P = _quotient(bar_u, unit)
    Z = {key: terms for key, terms in bar_u.items() if key not in P}
    extra = _b_into({}, algebra, _quotient(Du, unit), top)
    _bar_into(extra, algebra, Z, top, -1)
    _D_into(extra, algebra, P, top)
    square = _quotient(bar_square, unit)
    for key, terms in _quotient(extra, unit).items():
        old = square.get(key)
        square[key] = terms if old is None else add_into(terms, old)

    rotation = _rotation_residual_into({}, algebra, u, top)

    front = {key: terms for key, terms in u.items() if key[0] != unit}
    units = {key: terms for key, terms in u.items() if key[0] == unit}
    Bc = {(unit, (v,) + word): terms
          for (v, word), terms in _cleaned(_N_into({}, basis, front)).items()}
    bar_N = _bar_N_residual_into({}, algebra, units, top)
    R = _bar_N_residual_into({}, algebra, front, top)
    for key, terms in R.items():
        add_into(bar_N.setdefault(key, {}), terms)
    # N(b u''), with the images of u already formed when u'' is all of u
    if front:
        bar_units, D_units = _bar_into({}, algebra, units, top), _D_into({}, algebra, units, top)
    else:
        bar_units, D_units = bar_u, Du
    _N_into(_N_into(R, basis, bar_units, -1), basis, D_units, -1)
    eps = -1 if (basis.degrees[unit] - 1) % 2 else 1
    bB = _unit_front_into(_wraps_into({}, algebra, Bc, top, 0), R, unit, eps)
    return [
        ("b^2", square),
        ("B^2", _B_into({}, basis, Bc)),
        ("bB+Bb", bB),
        ("b'^2", bar_square),
        ("b(1-t)-(1-t)b'", rotation),
        ("b'N-Nb", bar_N),
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
                             tables[len(x)][x][v0].terms, top, _wrap_sign(crossed[-1], crossed[i]))
    return acc


def _pull_B_into(acc: dict, basis, psi: Functional, l_max: int) -> dict:
    """Add psi(B c) into acc[c], a raw {key: {Monomial: scalar}} map, for
    every reduced basis chain c of at most l_max letters that B sends to a
    key of psi (see ``validate_negative_cocycle``)."""
    for (v1, w1), value in psi.table.items():
        if v1 == basis.unit and len(w1) <= l_max + 1:
            for rotated, odd in _rotations(basis.degrees, w1, len(w1)):
                add_into(acc.setdefault((rotated[0], rotated[1:]), {}), value.terms,
                         -1 if odd else 1)
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
        i >= 1; the sign is ``_wrap_sign`` of the tail block x[:i] crossing
        x[i:] and w0, +1 for i = 0 as at slot 0.
      * m_0 in front of the module slot: b' puts it there with sign +1 and
        D with sign -1, at the same key with the same product, so b has no
        such term.

    Each term of b c at kappa is one (family, u or x, position) walked from
    kappa, and each one walked is a term, so lhs_i[c] is psi_i(b c) summed
    in another order.  B c has terms only at keys (1, w1), one per
    rotation t^r of c's marked word, r < n = len(w1).  t^n is the identity
    on length-n words (the parity of its sign, the sum over letters x of
    |x|'(|w1|' - |x|'), is even), so c has a term at w1 exactly when
    t^r(w1) = (-1)^{odd_r} c for some r < n, and that term is
    t^{n-r} c = (-1)^{odd_r} w1, odd_r from ``_rotations`` of w1.  So
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
