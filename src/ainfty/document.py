"""Versioned JSON document schema: algebras, towers, candidates, paths.

One self-contained document per run.  Exact rationals are serialized as
fraction strings ("3/4"), never decimals.  Structure-constant outputs carry
only ground-field coefficients and s/t exponents; the T- and e-content of an
operation comes from its monoid label.  All load-time invariants are
enforced here with (location, message) diagnostics collected into a single
DocumentError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Optional

from .ainfty import AInftyAlgebra
from .coeff import Poly, RingElement, RingSpec, as_fraction
from .errors import ConfigurationError, DocumentError
from .graded import Element, GradedBasis
from .hochschild import CocycleTower, Functional
from .potential import GaugePath

SCHEMA_VERSION = 1


@dataclass
class LoadedDocument:
    name: str
    algebra: AInftyAlgebra
    towers: Dict[str, CocycleTower] = field(default_factory=dict)
    candidates: Dict[str, Element] = field(default_factory=dict)
    gauge_path: Optional[GaugePath] = None
    m_minus_one: Optional[RingElement] = None
    gw_tilde: Optional[RingElement] = None
    wall_pair: Optional[tuple] = None
    right_inverse: Optional[Dict[int, Element]] = None


class _Collector:
    def __init__(self):
        self.items = []

    def error(self, location, message):
        self.items.append((location, message))

    def raise_if_any(self):
        if self.items:
            raise DocumentError(self.items)


def _fraction(value, where, errors, default=None):
    """An exact fraction: a JSON integer or a fraction string.  Anything
    else, null included, is a located error and reads as default; callers
    pass an absent field's default value in its place."""
    try:
        return as_fraction(value)
    except ConfigurationError:
        errors.error(where, "not an exact fraction: %r" % (value,))
        return default


def _int(value, where, errors, default=None):
    """A JSON integer; a bool, float, string or null is a located error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    errors.error(where, "not an integer: %r" % (value,))
    return default


def _str(value, where, errors, default):
    """A JSON string, such as a name; anything else is a located error."""
    if isinstance(value, str):
        return value
    errors.error(where, "not a JSON string: %r" % (value,))
    return default


def _list(value, where, errors):
    """A JSON array; anything else is a located error and reads as empty."""
    if isinstance(value, list):
        return value
    errors.error(where, "not a JSON array: %r" % (value,))
    return []


def _object(value, where, errors):
    """A JSON object; anything else is a located error and reads as None."""
    if isinstance(value, dict):
        return value
    errors.error(where, "not a JSON object: %r" % (value,))
    return None


def _objects(value, where, errors):
    """(index, location, entry) for each object of a JSON array of objects."""
    for i, entry in enumerate(_list(value, where, errors)):
        loc = "%s[%d]" % (where, i)
        if _object(entry, loc, errors) is not None:
            yield i, loc, entry


def _energy_grid(raw: dict) -> int:
    """The energy grid D of a document: the LCM of 2 and the denominator of
    every energy it states, the monoid's and every term's "T".

    The 2 keeps the seeded chains of `check`, drawn at energies in (1/2)Z, on
    the grid; the cutoff may lie off it.  A value that is not an exact
    fraction is skipped here and reported where the loader reads it.
    """
    monoid = raw.get("monoid")
    energies = [entry.get("energy") for entry in monoid
                if isinstance(entry, dict)] if isinstance(monoid, list) else []
    stack = [raw]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "T" in node:
                energies.append(node["T"])
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
    grid = 2
    for value in energies:
        try:
            grid = lcm(grid, as_fraction(value).denominator)
        except ConfigurationError:
            pass
    return grid


def _term_value(term, spec, where, errors, allow_poly=False, forbid_energy=False):
    """One serialized monomial term -> (Monomial, scalar)."""
    lam = _fraction(term.get("T", "0"), where + ".T", errors, Fraction(0))
    e = _int(term.get("e", 0), where + ".e", errors)
    s = _int(term.get("s", 0), where + ".s", errors)
    t = [_int(a, "%s.t[%d]" % (where, j), errors)
         for j, a in enumerate(_list(term.get("t", [0] * spec.num_t), where + ".t", errors))]
    if e is None or s is None or None in t:
        return None
    if forbid_energy and (lam != 0 or e != 0):
        errors.error(where, "structure constants must not carry T or e exponents")
        lam, e = Fraction(0), 0
    if "poly" in term:
        if not allow_poly:
            errors.error(where, "polynomial coefficients are only valid in gauge paths")
            return None
        coeffs = _list(term["poly"], where + ".poly", errors)
        try:
            value = Poly([as_fraction(c) for c in coeffs])
        except ConfigurationError:
            errors.error(where + ".poly", "not a list of exact fractions")
            return None
    else:
        value = _fraction(term.get("coeff", "1"), where + ".coeff", errors)
        if value is None:
            return None
    try:
        mono = spec.monomial(lam=lam, e=e, s=s, t=t)
    except ConfigurationError:
        errors.error(where, "invalid monomial exponents")
        return None
    return mono, value


def _ring_element(terms, spec, where, errors, allow_poly=False, forbid_energy=False):
    acc = {}
    for _, loc, term in _objects(terms, where, errors):
        parsed = _term_value(term, spec, loc, errors,
                             allow_poly=allow_poly, forbid_energy=forbid_energy)
        if parsed is None:
            continue
        mono, value = parsed
        acc[mono] = (acc[mono] + value) if mono in acc else value
    return RingElement(spec, acc)


def _element(entries, algebra, where, errors, allow_poly=False):
    comp = {}
    for _, loc, entry in _objects(entries, where, errors):
        name = entry.get("basis")
        if name not in algebra.basis.names:
            errors.error(loc + ".basis", "unknown basis element %r" % (name,))
            continue
        idx = algebra.basis.index(name)
        parsed = _term_value(entry, algebra.spec, loc, errors, allow_poly=allow_poly)
        if parsed is None:
            continue
        mono, value = parsed
        piece = RingElement(algebra.spec, {mono: value})
        comp[idx] = comp[idx] + piece if idx in comp else piece
    return Element(algebra.basis, comp)


def retruncate(doc: LoadedDocument, energy) -> LoadedDocument:
    """Rebuild the document with a smaller energy cutoff.

    Truncation only discards information, so the new cutoff must not exceed
    the document's own.
    """
    energy = as_fraction(energy)
    algebra = doc.algebra
    if energy < 0:
        raise DocumentError([("--emax", "must be >= 0")])
    if energy > algebra.spec.cutoff:
        raise DocumentError([("--emax", "cannot exceed the document cutoff %s"
                              % algebra.spec.cutoff)])
    spec = algebra.spec.with_cutoff(energy)

    def cut(value: RingElement) -> RingElement:
        return RingElement(spec, value.terms)

    ops = {
        key: {word: {i: cut(v) for i, v in out.items()} for word, out in table.items()}
        for key, table in algebra.ops.items()
    }
    new_algebra = AInftyAlgebra(
        basis=algebra.basis, monoid=algebra.monoid, ops=ops, spec=spec,
        k_max=algebra.k_max, l_max=algebra.l_max, n_max=algebra.n_max,
        higher_arities_zero=algebra.higher_arities_zero, name=algebra.name,
    )
    out = LoadedDocument(name=doc.name, algebra=new_algebra)
    for name, tower in doc.towers.items():
        levels = tuple(
            Functional(algebra.basis, spec, {k: cut(v) for k, v in psi.table.items()})
            for psi in tower.levels
        )
        out.towers[name] = CocycleTower(levels, name=tower.name)
    for name, element in doc.candidates.items():
        out.candidates[name] = Element(
            algebra.basis, {i: cut(v) for i, v in element.components.items()}
        )
    if doc.gauge_path is not None:
        out.gauge_path = GaugePath(Element(
            algebra.basis,
            {i: cut(v) for i, v in doc.gauge_path.element.components.items()},
        ))
    if doc.m_minus_one is not None:
        out.m_minus_one = cut(doc.m_minus_one)
    if doc.gw_tilde is not None:
        out.gw_tilde = cut(doc.gw_tilde)
    out.wall_pair = doc.wall_pair
    if doc.right_inverse is not None:
        out.right_inverse = {
            i: Element(algebra.basis, {j: cut(v) for j, v in el.components.items()})
            for i, el in doc.right_inverse.items()
        }
    return out


def load(path) -> LoadedDocument:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DocumentError([("%s:%d:%d" % (path, exc.lineno, exc.colno), exc.msg)])
    except UnicodeDecodeError as exc:
        raise DocumentError([(str(path), "not UTF-8 text: %s" % exc.reason)])
    except RecursionError:
        raise DocumentError([(str(path), "JSON nested too deeply to parse")])
    except OSError as exc:
        raise DocumentError([(str(path), str(exc))])
    return load_dict(raw)


def load_dict(raw: dict) -> LoadedDocument:
    if not isinstance(raw, dict):
        raise DocumentError([("(top level)", "must be a JSON object, not %s"
                              % type(raw).__name__)])
    errors = _Collector()
    if raw.get("version") != SCHEMA_VERSION:
        errors.error("version", "missing or unsupported schema version (expected %d)"
                     % SCHEMA_VERSION)
    if raw.get("field", "rational") != "rational":
        errors.error("field", "only the rational ground field is supported")
    errors.raise_if_any()

    doc_name = _str(raw.get("name", "algebra"), "name", errors, "algebra")
    coeffs = _object(raw.get("coefficients", {}), "coefficients", errors) or {}
    cutoffs = _object(raw.get("cutoffs", {}), "cutoffs", errors) or {}
    energy = _fraction(cutoffs.get("energy", "10"), "cutoffs.energy", errors, Fraction(10))
    try:
        spec = RingSpec(
            s_degree=_int(coeffs.get("s_degree", 2), "coefficients.s_degree", errors, 2),
            t_degrees=tuple(_int(d, "coefficients.t_degrees[%d]" % j, errors, 0)
                            for j, d in enumerate(_list(coeffs.get("t_degrees", []),
                                                        "coefficients.t_degrees", errors))),
            cutoff=energy,
            grid=_energy_grid(raw),
        )
    except ConfigurationError as exc:
        errors.error("coefficients", str(exc))
        errors.raise_if_any()
    errors.raise_if_any()

    names, degrees, unit = [], [], None
    for i, loc, entry in _objects(raw.get("basis", []), "basis", errors):
        names.append(_str(entry.get("name", "b%d" % i), loc + ".name", errors, "b%d" % i))
        degrees.append(_int(entry.get("degree", 0), loc + ".degree", errors, 0))
        is_unit = entry.get("unit", False)
        if not isinstance(is_unit, bool):
            errors.error(loc + ".unit", "not a JSON boolean: %r" % (is_unit,))
        elif is_unit:
            if unit is not None:
                errors.error(loc, "more than one unit designated")
            unit = i
    if unit is None:
        errors.error("basis", "no unit designated")
    errors.raise_if_any()
    try:
        basis = GradedBasis(tuple(names), tuple(degrees), unit=unit)
    except ConfigurationError as exc:
        errors.error("basis", str(exc))
        errors.raise_if_any()

    monoid = []
    for _, loc, entry in _objects(raw.get("monoid", []), "monoid", errors):
        lam = _fraction(entry.get("energy", "0"), loc + ".energy", errors, Fraction(0))
        monoid.append((lam, _int(entry.get("index", 0), loc + ".index", errors, 0)))
    if not monoid:
        monoid = [(Fraction(0), 0)]

    ops: dict = {}
    for _, where, entry in _objects(raw.get("operations", []), "operations", errors):
        inputs = _list(entry.get("inputs", []), where + ".inputs", errors)
        arity = _int(entry.get("arity", len(inputs)), where + ".arity", errors)
        bidx = _int(entry.get("monoid", 0), where + ".monoid", errors)
        if arity is None or bidx is None:
            continue
        if bidx >= len(monoid):
            errors.error(where + ".monoid", "monoid index out of range")
            continue
        if len(inputs) != arity:
            errors.error(where, "arity %d but %d inputs" % (arity, len(inputs)))
            continue
        try:
            word = tuple(basis.index(n) for n in inputs)
        except ConfigurationError as exc:
            errors.error(where + ".inputs", str(exc))
            continue
        out = {}
        for _, loc, term in _objects(entry.get("output", []), where + ".output", errors):
            name = term.get("basis")
            if name not in basis.names:
                errors.error(loc, "unknown basis element %r" % (name,))
                continue
            parsed = _term_value(term, spec, loc, errors, forbid_energy=True)
            if parsed is None:
                continue
            mono, value = parsed
            idx = basis.index(name)
            piece = RingElement(spec, {mono: value})
            out[idx] = out[idx] + piece if idx in out else piece
        table = ops.setdefault((arity, bidx), {})
        if word in table:
            errors.error(where, "duplicate table entry for this input word")
        table[word] = out
    k_max = _int(cutoffs.get("arity", 6), "cutoffs.arity", errors, 6)
    l_max = _int(cutoffs.get("word_length", 4), "cutoffs.word_length", errors, 4)
    n_max = _int(cutoffs.get("n_max", 5), "cutoffs.n_max", errors, 5)
    higher_zero = raw.get("higher_arities_zero", True)
    if not isinstance(higher_zero, bool):
        errors.error("higher_arities_zero", "not a JSON boolean: %r" % (higher_zero,))
    errors.raise_if_any()

    try:
        algebra = AInftyAlgebra(
            basis=basis,
            monoid=tuple(monoid),
            ops=ops,
            spec=spec,
            k_max=k_max,
            l_max=l_max,
            n_max=n_max,
            higher_arities_zero=higher_zero,
            name=doc_name,
        )
    except ConfigurationError as exc:
        raise DocumentError([("operations", str(exc))])

    doc = LoadedDocument(name=algebra.name, algebra=algebra)

    for i, where, tower_raw in _objects(raw.get("towers", []), "towers", errors):
        levels = []
        levels_raw = tower_raw.get("levels", [])
        if levels_raw == []:
            errors.error(where + ".levels", "a tower needs at least one level")
        for _, level_loc, level_raw in _objects(levels_raw, where + ".levels", errors):
            table = {}
            for _, loc, entry in _objects(level_raw.get("entries", []),
                                          level_loc + ".entries", errors):
                mname = entry.get("module")
                if mname not in basis.names:
                    errors.error(loc + ".module", "unknown basis element %r" % (mname,))
                    continue
                try:
                    word = tuple(basis.index(n) for n in
                                 _list(entry.get("word", []), loc + ".word", errors))
                except ConfigurationError as exc:
                    errors.error(loc + ".word", str(exc))
                    continue
                value = _ring_element(entry.get("value", []), spec, loc + ".value", errors)
                table[(basis.index(mname), word)] = value
            try:
                levels.append(Functional(basis, spec, table))
            except ConfigurationError as exc:
                errors.error(level_loc, str(exc))
        name = _str(tower_raw.get("name", "tower%d" % i), where + ".name", errors,
                    "tower%d" % i)
        if levels:
            try:
                tower = CocycleTower(tuple(levels), name=name)
                doc.towers[tower.name] = tower
            except ConfigurationError as exc:
                errors.error(where, str(exc))

    for i, where, cand in _objects(raw.get("candidates", []), "candidates", errors):
        name = _str(cand.get("name", "b%d" % i), where + ".name", errors, "b%d" % i)
        doc.candidates[name] = _element(cand.get("element", []), algebra, where + ".element",
                                        errors)

    if "gauge_path" in raw and _object(raw["gauge_path"], "gauge_path", errors) is not None:
        doc.gauge_path = GaugePath(_element(raw["gauge_path"].get("element", []), algebra,
                                            "gauge_path.element", errors, allow_poly=True))

    if "m_minus_one" in raw:
        doc.m_minus_one = _ring_element(raw["m_minus_one"], spec, "m_minus_one", errors)
    if "gw_tilde" in raw:
        doc.gw_tilde = _ring_element(raw["gw_tilde"], spec, "gw_tilde", errors)

    pair = raw.get("wall_crossing_pair")
    if "wall_crossing_pair" in raw and _object(pair, "wall_crossing_pair", errors) is not None:
        for role in ("minus", "plus"):
            where = "wall_crossing_pair." + role
            cname = _str(pair.get(role), where, errors, None)
            if cname is not None and cname not in doc.candidates:
                errors.error(where, "unknown candidate %r" % (cname,))
        doc.wall_pair = (pair.get("minus"), pair.get("plus"))

    if "right_inverse" in raw and _object(raw["right_inverse"], "right_inverse",
                                          errors) is not None:
        table = {}
        for name, entries in raw["right_inverse"].items():
            where = "right_inverse.%s" % name
            if name not in basis.names:
                errors.error(where, "unknown basis element %r" % (name,))
                continue
            table[basis.index(name)] = _element(entries, algebra, where, errors)
        doc.right_inverse = table

    errors.raise_if_any()
    return doc
