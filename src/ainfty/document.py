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
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Dict, Optional

from .ainfty import AInftyAlgebra, require_candidate
from .coeff import Poly, RingElement, RingSpec, as_fraction
from .errors import ConfigurationError, DivergenceError, DocumentError
from .graded import Element, GradedBasis
from .hochschild import CocycleTower, Functional

SCHEMA_VERSION = 1


class LoadedDocument:
    """A loaded document: its algebra and the objects it names over it.

    ``load_dict`` fills the towers, candidates and optional entries after
    construction.
    """

    def __init__(self, name: str, algebra: AInftyAlgebra, raw: Optional[dict] = None):
        self.name = name
        self.algebra = algebra
        self.towers: Dict[str, CocycleTower] = {}
        self.candidates: Dict[str, Element] = {}
        # the gauge path b_t: a degree-1 element with polynomial scalars
        self.gauge_path: Optional[Element] = None
        # zero in the document's ring when the document omits them
        self.m_minus_one: Optional[RingElement] = None
        self.gw_tilde: Optional[RingElement] = None
        self.wall_pair: Optional[tuple] = None
        self.right_inverse: Optional[Dict[int, Element]] = None
        # the parsed JSON, so that ``load_dict`` can load it again at a lower cutoff
        self.raw = raw


class _Collector:
    def __init__(self):
        self.items = []

    def error(self, location, message):
        self.items.append((location, message))

    def raise_if_any(self):
        if self.items:
            raise DocumentError(self.items)


def not_a_fraction(value) -> str:
    """The diagnostic of a value that ``as_fraction`` refuses: the value
    itself, or only the digit count of a string with a run of more digits
    than int() reads, which would flood the diagnostic."""
    limit = sys.get_int_max_str_digits()
    if isinstance(value, str) and limit and any(
            len(run) > limit for run in re.findall(r"\d+", value)):
        return ("not an exact fraction: a string of %d digits, more than int() reads"
                % sum(map(str.isdigit, value)))
    return "not an exact fraction: %r" % (value,)


def _fraction(value, where, errors, default=None):
    """An exact fraction: a JSON integer or a fraction string.  Anything
    else, null included, is a located error and reads as default; callers
    pass an absent field's default value in its place."""
    try:
        return as_fraction(value)
    except ConfigurationError:
        errors.error(where, not_a_fraction(value))
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


def _ring_element(terms, spec, where, errors):
    acc = {}
    for _, loc, term in _objects(terms, where, errors):
        parsed = _term_value(term, spec, loc, errors)
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


def _candidate(entries, algebra, where, errors, allow_poly=False):
    """An element that the potentials take, refused at ``where`` unless it
    passes ``require_candidate``.  An element with an entry that failed to
    parse is already refused, and is not checked: the entry it lost could
    decide the guard."""
    before = len(errors.items)
    element = _element(entries, algebra, where, errors, allow_poly=allow_poly)
    if len(errors.items) == before:
        try:
            require_candidate(algebra, element)
        except (ConfigurationError, DivergenceError) as exc:
            errors.error(where, str(exc))
    return element


def _unique_name(entry, default, taken, where, errors):
    """The name of a tower or candidate, refused when an earlier one has it."""
    name = _str(entry.get("name", default), where + ".name", errors, default)
    if name in taken:
        errors.error(where + ".name", "duplicate name %r" % (name,))
    return name


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
    except ValueError as exc:
        # such as an integer literal past the interpreter's digit limit
        raise DocumentError([(str(path), str(exc))])
    except OSError as exc:
        raise DocumentError([(str(path), str(exc))])
    return load_dict(raw)


def load_dict(raw: dict, cutoff: Optional[Fraction] = None) -> LoadedDocument:
    """The document of parsed JSON, at its own energy cutoff or at the
    lower ``cutoff`` of ``--emax``: truncation only discards terms."""
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
    energy = RingSpec.cutoff
    if "energy" in cutoffs:
        energy = _fraction(cutoffs["energy"], "cutoffs.energy", errors, energy)
    if cutoff is not None:
        if not 0 <= cutoff <= energy:
            errors.error("--emax", "must be >= 0" if cutoff < 0 else
                         "cannot exceed the document cutoff %s" % energy)
        energy = cutoff
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
    # a cutoff the document omits takes the default of its AInftyAlgebra field
    limits = {attr: _int(cutoffs[key], "cutoffs." + key, errors)
              for key, attr in (("arity", "k_max"), ("word_length", "l_max"),
                                ("n_max", "n_max")) if key in cutoffs}
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
            higher_arities_zero=higher_zero,
            name=doc_name,
            **limits,
        )
    except ConfigurationError as exc:
        raise DocumentError([("operations", str(exc))])

    doc = LoadedDocument(name=algebra.name, algebra=algebra, raw=raw)

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
        name = _unique_name(tower_raw, "tower%d" % i, doc.towers, where, errors)
        if levels:
            try:
                tower = CocycleTower(tuple(levels), name=name)
                doc.towers[tower.name] = tower
            except ConfigurationError as exc:
                errors.error(where, str(exc))

    for i, where, cand in _objects(raw.get("candidates", []), "candidates", errors):
        name = _unique_name(cand, "b%d" % i, doc.candidates, where, errors)
        doc.candidates[name] = _candidate(cand.get("element", []), algebra,
                                          where + ".element", errors)

    if "gauge_path" in raw and _object(raw["gauge_path"], "gauge_path", errors) is not None:
        doc.gauge_path = _candidate(raw["gauge_path"].get("element", []), algebra,
                                    "gauge_path.element", errors, allow_poly=True)

    doc.m_minus_one = _ring_element(raw.get("m_minus_one", []), spec, "m_minus_one", errors)
    doc.gw_tilde = _ring_element(raw.get("gw_tilde", []), spec, "gw_tilde", errors)

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
