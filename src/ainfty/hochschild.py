"""Hochschild chains of the diagonal bimodule and the cyclic operators.

A chain is a linear combination of keys (module slot, tensor word) with ring
coefficients.  Reduced chains quotient by words with the unit in a tensor
slot; the module slot itself may be the unit.  All operators below descend
to the reduced quotient (strict unitality), and the reduced flag of the
input decides whether the quotient map is applied to the output.

Sign conventions, all derived from shifted degrees:

  * b (module differential): wrap-around terms absorb a tail block of the
    word together with the module slot; the block pays the Koszul cost of
    crossing everything it moves past (module slot plus the remaining
    prefix).  Interior insertions are ``ainfty.insertions`` into the word
    with base |v|': they pay |v|' plus the shifted prefix, and include the
    arity-0 insertions.
  * b' (bar-type differential): the coderivation on the full marked word,
    output marked at slot 0.
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

The dual side stores towers of finitely supported functionals; the dual
operators are plain precomposition with b and B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .ainfty import AInftyAlgebra, insertions, uninsertions, words_by_output
from .coeff import RingElement
from .errors import ConfigurationError
from .graded import Word, add_term, koszul_sign_cyclic, maltese, words_over
from .report import Report

ChainKey = Tuple[int, Word]
ChainTerms = Dict[ChainKey, RingElement]


class HochschildChain:
    """Linear combination of (module slot, tensor word) with a reduced flag."""

    __slots__ = ("basis", "terms", "reduced")

    def __init__(self, basis, terms: Optional[ChainTerms] = None, reduced: bool = True):
        """Keeps the nonzero terms; a reduced chain drops words with the unit.

        The keys of ``terms`` are distinct, so nothing is summed here.
        """
        self.basis = basis
        self.reduced = reduced
        unit = basis.unit if reduced else None
        self.terms = {
            key: coeff for key, coeff in (terms or {}).items()
            if coeff and (unit is None or unit not in key[1])
        }

    @classmethod
    def generator(cls, basis, module: int, word: Word, coeff: RingElement, reduced=True):
        return cls(basis, {(module, tuple(word)): coeff}, reduced)

    def __add__(self, other: "HochschildChain") -> "HochschildChain":
        if self.reduced != other.reduced:
            raise ConfigurationError("cannot mix reduced and unreduced chains")
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(terms, key, coeff)
        return HochschildChain(self.basis, terms, self.reduced)

    def __neg__(self):
        return HochschildChain(self.basis, {k: -v for k, v in self.terms.items()}, self.reduced)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, r):
        return HochschildChain(self.basis, {k: r * v for k, v in self.terms.items()}, self.reduced)

    def unreduced(self) -> "HochschildChain":
        """The canonical unreduced representative (same terms, no quotient)."""
        return HochschildChain(self.basis, self.terms, reduced=False)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, HochschildChain):
            return (self.basis, self.reduced, self.terms) == (
                other.basis,
                other.reduced,
                other.terms,
            )
        return NotImplemented

    def text(self) -> str:
        if not self.terms:
            return "0"
        names = self.basis.names
        parts = []
        for (v, word), coeff in sorted(self.terms.items()):
            slot = "[%s|%s]" % (names[v], ",".join(names[i] for i in word))
            parts.append("(%s)%s" % (coeff.text(), slot))
        return " + ".join(parts)

    def __repr__(self):
        return "HochschildChain(%s)" % self.text()


def chain_degree(basis, module: int, word: Word) -> int:
    return basis.degree(module) + sum(basis.degree(i) - 1 for i in word)


def hochschild_b(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """The module differential, wrap-around and interior sums with exact signs."""
    basis = algebra.basis
    out: ChainTerms = {}
    arity_set = set(algebra.stored_arities())
    for (v, word), coeff in chain.terms.items():
        k = len(word)
        marked = [basis.degree(v)] + [basis.degree(i) for i in word]
        # wrap-around: m_{i+j+1}(a_{k-i+1}..a_k, v, a_1..a_j) keeps a_{j+1}..a_{k-i}
        for i in range(k + 1):
            tail = sum(marked[k - i + 1 :]) - i
            for j in range(k - i + 1):
                if i + j + 1 not in arity_set:
                    continue
                inner = algebra.m_word(word[k - i :] + (v,) + word[:j])
                if not inner:
                    continue
                # the tail block crosses v and the kept prefix a_1..a_{k-i}
                sign = -1 if (tail * maltese(marked, k - i + 1)) % 2 else 1
                signed = coeff.scale(sign) if sign < 0 else coeff
                for comp, value in inner.items():
                    add_term(out, (comp, word[j : k - i]), signed * value)
        # interior: m_j inserted in the tensor word, arity 0 included
        for p, arity, inner, sign in insertions(algebra, word, marked[0] - 1):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                add_term(out, (v, word[:p] + (comp,) + word[p + arity :]), signed * value)
    return HochschildChain(basis, out, chain.reduced)


def chain_bar(algebra: AInftyAlgebra, chain: HochschildChain) -> HochschildChain:
    """Bar-type differential: coderivation on the full marked word, unreduced."""
    out: ChainTerms = {}
    for (v, word), coeff in chain.terms.items():
        full = (v,) + word
        for p, arity, inner, sign in insertions(algebra, full):
            signed = coeff.scale(sign) if sign < 0 else coeff
            for comp, value in inner.items():
                new_full = full[:p] + (comp,) + full[p + arity :]
                add_term(out, (new_full[0], new_full[1:]), signed * value)
    return HochschildChain(algebra.basis, out, reduced=False)


def cyclic_t(basis, chain: HochschildChain) -> HochschildChain:
    """Signed rotation of the marked word: the last factor moves to the front."""
    out: ChainTerms = {}
    for (v, word), coeff in chain.terms.items():
        full = (v,) + word
        sign = koszul_sign_cyclic([basis.degree(i) for i in full])
        rotated = (full[-1],) + full[:-1]
        add_term(out, (rotated[0], rotated[1:]), coeff.scale(sign) if sign < 0 else coeff)
    return HochschildChain(basis, out, reduced=False)


def operator_N(basis, chain: HochschildChain) -> HochschildChain:
    """Rotation sum 1 + t + ... + t^{n-1} on each length-n component."""
    out: ChainTerms = {}
    for key, coeff in chain.terms.items():
        piece = HochschildChain(basis, {key: coeff}, reduced=False)
        n = 1 + len(key[1])
        for _ in range(n):
            for pkey, pcoeff in piece.terms.items():
                add_term(out, pkey, pcoeff)
            piece = cyclic_t(basis, piece)
    return HochschildChain(basis, out, reduced=False)


def connes_B_reduced(basis, chain: HochschildChain) -> HochschildChain:
    """Connes operator on reduced chains: unit-marked cyclic rotations."""
    if not chain.reduced:
        raise ConfigurationError(
            "the Connes operator is only available on reduced chains"
        )
    unit = basis.require_unit()
    out: ChainTerms = {}
    for (v, word), coeff in chain.terms.items():
        current = (v,) + word
        acc = coeff
        for _ in range(len(current)):
            if unit not in current:
                add_term(out, (unit, current), acc)
            if koszul_sign_cyclic([basis.degree(i) for i in current]) < 0:
                acc = -acc
            current = (current[-1],) + current[:-1]
    return HochschildChain(basis, out, True)


# -- functionals and towers ---------------------------------------------------


class Functional:
    """Finitely supported functional on reduced chains.

    The table maps (module slot, tensor word) to ring values; application to
    a chain pairs coefficients multiplicatively.  ``degree`` is the uniform
    difference deg(value) - deg(chain key) over the support (None for the
    zero functional).
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
        acc = RingElement.zero(self.spec)
        for key, coeff in chain.terms.items():
            entry = self.table.get(key)
            if entry:
                acc = acc + entry * coeff
        return acc

    def scale(self, r) -> "Functional":
        return Functional(self.basis, self.spec, {k: r * v for k, v in self.table.items()})

    def __add__(self, other: "Functional") -> "Functional":
        table = dict(self.table)
        for key, value in other.table.items():
            add_term(table, key, value)
        return Functional(self.basis, self.spec, table)

    def __sub__(self, other: "Functional") -> "Functional":
        return self + other.scale(-1)

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


class PrecomposedFunctional:
    """Lazy dual image f o op, evaluated chainwise (op in {b, B})."""

    def __init__(self, algebra: AInftyAlgebra, base, operator: str):
        self.algebra = algebra
        self.base = base
        self.operator = operator

    def apply(self, chain: HochschildChain) -> RingElement:
        if self.operator == "b":
            return self.base.apply(hochschild_b(self.algebra, chain))
        if self.operator == "B":
            return self.base.apply(connes_B_reduced(self.algebra.basis, chain))
        raise ConfigurationError("unknown dual operator %r" % self.operator)


def dual_b_star(algebra: AInftyAlgebra, f) -> PrecomposedFunctional:
    return PrecomposedFunctional(algebra, f, "b")


def dual_B_star(algebra: AInftyAlgebra, f) -> PrecomposedFunctional:
    return PrecomposedFunctional(algebra, f, "B")


def tabulate(algebra: AInftyAlgebra, functional, l_max: int) -> Functional:
    """Materialize a lazy functional on all basis chains up to a word length."""
    table: ChainTerms = {}
    for module, word in iter_basis_chains(algebra, l_max):
        chain = HochschildChain.generator(
            algebra.basis, module, word, algebra.one_ring(), reduced=True
        )
        value = functional.apply(chain)
        if value:
            table[(module, word)] = value
    return Functional(algebra.basis, algebra.spec, table)


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


def coboundary_tower(algebra: AInftyAlgebra, chis: Sequence[Functional], l_max: int,
                     name="coboundary") -> CocycleTower:
    """The tower psi_i = b* chi_i - B* chi_{i+1}; a cocycle for any input."""
    levels = []
    for i, chi in enumerate(chis):
        psi = tabulate(algebra, dual_b_star(algebra, chi), l_max)
        if i + 1 < len(chis):
            psi = psi - tabulate(algebra, dual_B_star(algebra, chis[i + 1]), l_max)
        levels.append(psi)
    return CocycleTower(tuple(levels), name=name)


def connecting_map(algebra: AInftyAlgebra, chis: Sequence[Functional],
                   l_max: Optional[int] = None, name="connected") -> CocycleTower:
    """Levelwise B* image of positive-column data (u^0 column first).

    If the input satisfies the positive cocycle condition (b* chi_0 = 0 and
    b* chi_m = -B* chi_{m-1}), the output tower validates.
    """
    l_max = algebra.l_max if l_max is None else l_max
    levels = [tabulate(algebra, dual_B_star(algebra, chi), l_max) for chi in chis]
    return CocycleTower(tuple(levels), name=name)
