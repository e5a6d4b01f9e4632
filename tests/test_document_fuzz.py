"""Mutated corpus documents get a verdict, never a traceback.

A mutation deletes one field of a corpus document (an object member or an
array item) or replaces its value with a value of another JSON type; the
mutated document then goes through one subcommand of ``ainfty.cli.main``,
which must return 0, 1 or 2.  Numbers are only ever replaced by values that
are not numbers, so no mutation enlarges an integer, and a deleted cutoff
falls back to a default equal to the corpus value; only the energy cutoff
grows, from 3 to 10, which bounds the terms kept and not the words checked.
The subcommands run with few chains and a short word length, so each
example takes at most a few tenths of a second.

A second property reads everything a mutated document loads to (the
algebra's tables, the name, towers, candidates, gauge path, m_minus_one,
gw_tilde, right inverse and wall-crossing pair): it must equal what the
corpus document loads to, unless the mutation deletes an array item, a
right-inverse entry or a member with a documented default, or puts the
integer 0 where a fraction string stood (all valid documents that say
something else).  So no replacement, a null included, is silently read as
another value.

A corpus document with an integer literal past the interpreter's digit limit
in one place exits 2 with a diagnostic located at the file, not a traceback;
so does a fraction string past that limit, located at its field or flag, with
its digit count in place of the string.  So does an arity or word-length
cutoff so large that a report's count of checked words could not be printed.
"""

import copy
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import ainfty
from ainfty.cli import main
from ainfty.document import load_dict
from ainfty.errors import EngineError

CORPUS = os.path.join(os.path.dirname(ainfty.__file__), "corpus")
DOCS = {}
for _name in sorted(os.listdir(CORPUS)):
    with open(os.path.join(CORPUS, _name)) as _handle:
        DOCS[_name] = json.load(_handle)

COMMANDS = (["check", "--chains", "2"], ["cocycle", "--lmax", "2"], ["mc"],
            ["mc", "--solve"], ["potential"], ["gauge"], ["wallcross"])
REPLACEMENTS = (None, True, 0, 0.5, "x", [], {})
DELETE = object()


def _paths(node, path=()):
    """The path of every field below node: object keys and array indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


PATHS = {name: list(_paths(raw)) for name, raw in DOCS.items()}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def _mutated(raw, path, replacement):
    doc = copy.deepcopy(raw)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def _value_at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_corpus_document_gets_a_verdict(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    path = data.draw(st.sampled_from(PATHS[name]))
    old = _json_type(_value_at(DOCS[name], path))
    replacement = data.draw(st.sampled_from(
        [DELETE] + [r for r in REPLACEMENTS if _json_type(r) != old]))
    argv = data.draw(st.sampled_from(COMMANDS))
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = os.path.join(tmp, name)
        with open(doc_path, "w") as handle:
            json.dump(_mutated(DOCS[name], path, replacement), handle)
        assert main(argv + ["--input", doc_path]) in (0, 1, 2)


# Object members that read a default when absent (the README's document
# format lists the defaults); the optional sections read as not given.  A
# gauge-path term without "poly" is a scalar term with the default coeff.
DEFAULTED = frozenset((
    "coefficients", "s_degree", "t_degrees", "cutoffs", "energy", "arity", "word_length",
    "n_max", "basis", "name", "degree", "unit", "monoid", "index", "operations", "inputs",
    "output", "T", "e", "s", "t", "coeff", "higher_arities_zero",
    "towers", "entries", "word", "value", "candidates", "element", "gauge_path", "poly",
    "m_minus_one", "gw_tilde", "wall_crossing_pair", "right_inverse"))


def _loaded(doc):
    """Everything a loaded document holds, in a form that compares by value."""
    algebra = doc.algebra
    towers = [(key, tower.name, [psi.table for psi in tower.levels])
              for key, tower in doc.towers.items()]
    return (doc.name, algebra.ops, algebra.basis, algebra.monoid, algebra.spec,
            algebra.k_max, algebra.l_max, algebra.n_max, algebra.higher_arities_zero,
            towers, list(doc.candidates.items()), doc.gauge_path, doc.m_minus_one,
            doc.gw_tilde, doc.right_inverse, doc.wall_pair)


LOADED = {name: _loaded(load_dict(raw)) for name, raw in DOCS.items()}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_document_that_loads_has_the_same_tables(data):
    name = data.draw(st.sampled_from(sorted(DOCS)))
    path = data.draw(st.sampled_from(PATHS[name]))
    old_value = _value_at(DOCS[name], path)
    replacement = data.draw(st.sampled_from(
        [DELETE] + [r for r in REPLACEMENTS if _json_type(r) != _json_type(old_value)]))
    if replacement is DELETE and (isinstance(path[-1], int) or path[-1] in DEFAULTED
                                  or path[:-1] == ("right_inverse",)):
        return
    if type(replacement) is int and isinstance(old_value, str):
        return
    try:
        doc = load_dict(_mutated(DOCS[name], path, replacement))
    except EngineError:
        return
    assert _loaded(doc) == LOADED[name], (name, path, replacement)


@pytest.mark.parametrize("path", (("x",), ("cutoffs", "arity"), ("towers", 0, "name")),
                         ids=lambda path: ".".join(map(str, path)))
def test_integer_literal_past_the_digit_limit_exits_2_located(path, tmp_path, capsys):
    # json.load raises a bare ValueError on such a literal; it is located at the file
    raw = copy.deepcopy(DOCS["e2.json"])
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "HUGE"
    doc_path = tmp_path / "huge.json"
    doc_path.write_text(json.dumps(raw).replace(
        '"HUGE"', "1" * (sys.get_int_max_str_digits() + 700)))
    assert main(["check", "--chains", "2", "--input", str(doc_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "\n  %s: Exceeds the limit" % doc_path in captured.err


def _digits_past_the_limit():
    return "1" * (sys.get_int_max_str_digits() + 700)


def test_fraction_string_past_the_digit_limit_exits_2_located(tmp_path, capsys):
    raw = copy.deepcopy(DOCS["e2.json"])
    raw["m_minus_one"][0]["coeff"] = _digits_past_the_limit()
    doc_path = tmp_path / "huge_coeff.json"
    doc_path.write_text(json.dumps(raw))
    assert main(["potential", "--input", str(doc_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "\n  m_minus_one[0].coeff: not an exact fraction: " in captured.err


def test_emax_past_the_digit_limit_exits_2_located(capsys):
    assert main(["check", "--emax", _digits_past_the_limit(),
                 "--input", os.path.join(CORPUS, "e2.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "\n  --emax: not an exact fraction: " in captured.err


@pytest.mark.parametrize("where", ("m_minus_one[0].coeff", "--emax"))
def test_fraction_string_past_the_digit_limit_is_not_echoed(where, tmp_path, capsys):
    digits = "1" * 5000
    raw = copy.deepcopy(DOCS["e2.json"])
    if where == "--emax":
        argv = ["check", "--emax", digits]
    else:
        raw["m_minus_one"][0]["coeff"] = digits
        argv = ["potential"]
    doc_path = tmp_path / "long.json"
    doc_path.write_text(json.dumps(raw))
    assert main(argv + ["--input", str(doc_path)]) == 2
    err = capsys.readouterr().err
    assert "\n  %s: not an exact fraction: a string of 5000 digits" % where in err
    assert len(err) < 200, err


@pytest.mark.parametrize("argv, where", (
    (["cocycle", "--input", os.path.join(CORPUS, "g1_gauge.json"), "--lmax", "10000"], "--lmax"),
    (["check", "--input", os.path.join(CORPUS, "e2.json"), "--kmax", "20000"], "--kmax"),
    (["check", "--chains", "2"], "cutoffs.arity"),
), ids=("cocycle --lmax 10000", "check --kmax 20000", "document arity 10^22"))
def test_cutoff_with_an_unprintable_count_exits_2_located(argv, where, tmp_path, capsys):
    # before, the first two ended in a ValueError traceback from Report.lines,
    # and the third summed 10^22 powers
    if where == "cutoffs.arity":
        raw = copy.deepcopy(DOCS["e2.json"])
        raw["cutoffs"]["arity"] = 10 ** 22
        doc_path = tmp_path / "wide.json"
        doc_path.write_text(json.dumps(raw))
        argv = argv + ["--input", str(doc_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "\n  %s: too large: a count of the words it checks could have more digits" % where \
        in captured.err
