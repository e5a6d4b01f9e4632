"""Document schema validation and the command-line interface."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ainfty
from ainfty.cli import main
from ainfty.document import load, load_dict
from ainfty.errors import DocumentError

CORPUS = os.path.join(os.path.dirname(ainfty.__file__), "corpus")


def corpus(name):
    return os.path.join(CORPUS, name)


def minimal_doc():
    return {
        "version": 1,
        "name": "tiny",
        "field": "rational",
        "coefficients": {"s_degree": 2, "t_degrees": []},
        "cutoffs": {"energy": "2", "arity": 4, "word_length": 3, "n_max": 4},
        "basis": [
            {"name": "1", "degree": 0, "unit": True},
            {"name": "x", "degree": 1},
        ],
        "monoid": [{"energy": "0", "index": 0}],
        "operations": [
            {"arity": 2, "monoid": 0, "inputs": ["1", "1"],
             "output": [{"basis": "1", "coeff": "1"}]},
            {"arity": 2, "monoid": 0, "inputs": ["1", "x"],
             "output": [{"basis": "x", "coeff": "1"}]},
            {"arity": 2, "monoid": 0, "inputs": ["x", "1"],
             "output": [{"basis": "x", "coeff": "-1"}]},
        ],
    }


def test_corpus_documents_load():
    for name in ("e1.json", "e2.json", "g1_gauge.json", "g1_wallcross.json", "sv1.json"):
        doc = load(corpus(name))
        assert doc.algebra.basis.unit is not None


def test_version_required():
    raw = minimal_doc()
    del raw["version"]
    with pytest.raises(DocumentError) as err:
        load_dict(raw)
    assert any("version" in loc for loc, _ in err.value.diagnostics)


def test_field_must_be_rational():
    raw = minimal_doc()
    raw["field"] = "real"
    with pytest.raises(DocumentError):
        load_dict(raw)


def test_neutral_curvature_rejected_with_location():
    raw = minimal_doc()
    raw["operations"].append(
        {"arity": 0, "monoid": 0, "inputs": [], "output": [{"basis": "1", "coeff": "1"}]}
    )
    with pytest.raises(DocumentError) as err:
        load_dict(raw)
    assert any("neutral" in msg for _, msg in err.value.diagnostics)


def test_odd_s_degree_rejected():
    raw = minimal_doc()
    raw["coefficients"]["s_degree"] = 1
    with pytest.raises(DocumentError) as err:
        load_dict(raw)
    assert any("unsupported" in msg or "even" in msg for _, msg in err.value.diagnostics)


def test_unknown_basis_name_located():
    raw = minimal_doc()
    raw["operations"][0]["inputs"] = ["1", "nope"]
    with pytest.raises(DocumentError) as err:
        load_dict(raw)
    assert any("operations[0]" in loc for loc, _ in err.value.diagnostics)


def test_decimal_exponent_rejected():
    raw = minimal_doc()
    raw["operations"][0]["output"][0]["coeff"] = 0.5
    with pytest.raises(DocumentError):
        load_dict(raw)


def test_structure_constants_must_be_energy_free():
    raw = minimal_doc()
    raw["operations"][0]["output"][0]["T"] = "1"
    with pytest.raises(DocumentError) as err:
        load_dict(raw)
    assert any("T or e" in msg for _, msg in err.value.diagnostics)


def test_duplicate_table_entry_rejected():
    raw = minimal_doc()
    raw["operations"].append(dict(raw["operations"][0]))
    with pytest.raises(DocumentError) as err:
        load_dict(raw)
    assert any("duplicate" in msg for _, msg in err.value.diagnostics)


def test_parse_error_is_positioned(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"version\": 1,,\n}\n")
    with pytest.raises(DocumentError) as err:
        load(path)
    assert any(":2:" in loc for loc, _ in err.value.diagnostics)


def test_load_dict_lowers_cutoff():
    doc = load(corpus("e2.json"))
    cut = load_dict(doc.raw, Fraction(3, 2))
    assert str(cut.algebra.spec.cutoff) == "3/2"
    with pytest.raises(DocumentError):
        load_dict(doc.raw, Fraction(100))


def test_omitted_scalars_load_as_zero_in_the_document_ring():
    doc = load_dict(minimal_doc(), Fraction(3, 2))
    for value in (doc.m_minus_one, doc.gw_tilde):
        assert value.is_zero() and value.spec == doc.algebra.spec


def test_cli_check_passes(capsys):
    assert main(["check", "--input", corpus("e2.json"), "--chains", "40"]) == 0
    out = capsys.readouterr().out
    assert "[ainfty-relations] PASS" in out
    assert "seed = " in out


def test_cli_cocycle(capsys):
    assert main(["cocycle", "--input", corpus("e1.json")]) == 0
    out = capsys.readouterr().out
    assert "[bimodule-hom:poincare] PASS" in out
    assert "[trace-identity:poincare] PASS" in out


def test_cli_mc_and_solve(capsys):
    assert main(["mc", "--input", corpus("e2.json")]) == 0
    out = capsys.readouterr().out
    assert "c = 1*T^1*e^1" in out
    assert main(["mc", "--input", corpus("sv1.json"), "--solve"]) == 0
    out = capsys.readouterr().out
    assert "b = (-1*T^1)*u" in out


def test_cli_potential(capsys):
    assert main(["potential", "--input", corpus("e2.json")]) == 0
    out = capsys.readouterr().out
    assert "Phi' = 1*T^3/2*e^1" in out
    assert "Phi = 1*T^3/2*e^1 + 1*T^2" in out
    # the zero candidate reduces to the inhomogeneous scalar alone
    assert "[potential:zero]" in out
    assert "Phi = 1*T^2" in out


def test_cli_gauge(capsys):
    assert main(["gauge", "--input", corpus("g1_gauge.json")]) == 0
    out = capsys.readouterr().out
    assert "[gauge-invariance] PASS" in out


def test_cli_wallcross(capsys):
    assert main(["wallcross", "--input", corpus("g1_wallcross.json")]) == 0
    out = capsys.readouterr().out
    assert "[wall-crossing] PASS" in out


def test_cli_missing_section(capsys):
    assert main(["gauge", "--input", corpus("e1.json")]) == 2
    err = capsys.readouterr().err
    assert "gauge_path" in err


def test_cli_unknown_tower(capsys):
    assert main(["potential", "--input", corpus("e2.json"), "--tower", "nope"]) == 2


def test_cli_reports_are_deterministic(tmp_path):
    paths = []
    for run in range(2):
        path = tmp_path / ("run%d.txt" % run)
        assert main(["check", "--input", corpus("e2.json"), "--chains", "60",
                     "--seed", "7", "--report", str(path)]) == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_cli_seed_changes_suite_but_not_result(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["check", "--input", corpus("e2.json"), "--chains", "30",
                 "--seed", "1", "--report", str(a)]) == 0
    assert main(["check", "--input", corpus("e2.json"), "--chains", "30",
                 "--seed", "2", "--report", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()  # seed is echoed in the report


@pytest.mark.parametrize("argv,location", (
    (["check", "--input", corpus("e2.json"), "--kmax", "-1"], "--kmax: must be >= 0"),
    (["cocycle", "--input", corpus("e1.json"), "--lmax", "-1"], "--lmax: must be >= 0"),
    (["potential", "--input", corpus("e2.json"), "--nmax", "-1"], "--nmax: must be >= 0"),
    (["check", "--input", corpus("e2.json"), "--chains", "0"], "--chains: must be >= 1"),
))
def test_cli_rejects_cutoffs_that_check_nothing(capsys, argv, location):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert location in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("emax,message", (
    ("abc", "--emax: not an exact fraction: 'abc'"),
    ("1/0", "--emax: not an exact fraction: '1/0'"),
    ("0.5", "--emax: not an exact fraction: '0.5'"),
    ("1e-1", "--emax: not an exact fraction: '1e-1'"),
    ("-1", "--emax: must be >= 0"),
    ("4", "--emax: cannot exceed the document cutoff 3"),
))
def test_cli_rejects_bad_emax_located(capsys, emax, message):
    assert main(["check", "--input", corpus("e2.json"), "--emax", emax, "--chains", "1"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ("check", "cocycle", "mc", "potential", "gauge", "wallcross"))
def test_entry_off_the_ainfty_degree_exits_2_located(tmp_path, capsys, command):
    # y's degree raised by one: m_2(x, y) = z no longer has degree 2 - k,
    # so no subcommand gets an algebra with an entry off the A-infinity degree
    with open(corpus("g1_gauge.json")) as handle:
        raw = json.load(handle)
    assert raw["basis"][2]["name"] == "y"
    raw["basis"][2]["degree"] += 1
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert ("  operations: m_{2,beta0}('x', 'y') is not degree-homogeneous"
            in captured.err.splitlines()[1])
    assert "Traceback" not in captured.err and captured.out == ""


def test_cli_rejects_negative_cutoff_from_document(tmp_path, capsys):
    raw = minimal_doc()
    raw["cutoffs"]["arity"] = -1
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(raw))
    assert main(["check", "--input", str(path)]) == 2
    assert "cutoffs.arity: must be >= 0" in capsys.readouterr().err


def test_top_level_must_be_an_object(tmp_path, capsys):
    with pytest.raises(DocumentError) as err:
        load_dict([minimal_doc()])
    assert err.value.diagnostics[0][0] == "(top level)"
    path = tmp_path / "list.json"
    path.write_text(json.dumps([minimal_doc()]))
    assert main(["check", "--input", str(path)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", (
    (b'{"version": 1, "name": "caf\xe9"}', "not UTF-8 text: invalid continuation byte"),
    (b"[" * 100000, "JSON nested too deeply to parse"),
), ids=("not-utf8", "deep-nesting"))
def test_unreadable_input_exits_2_located(tmp_path, capsys, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with pytest.raises(DocumentError) as err:
        load(path)
    assert err.value.diagnostics == [(str(path), message)]
    assert main(["check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "%s: %s" % (path, message) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("target", ("missing/report.txt", "."))
def test_unwritable_report_exits_2_located(tmp_path, capsys, target):
    # a missing directory, and a directory itself
    path = tmp_path / target
    assert main(["check", "--input", corpus("e2.json"), "--chains", "1",
                 "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "  --report: " in captured.err and str(path) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def _set(path, value):
    """Edit minimal_doc at a path of keys and list indices."""
    def edit(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return raw
    return edit


@pytest.mark.parametrize("edit,location", (
    (_set(("operations", 1, "arity"), "two"), "operations[1].arity: not an integer: 'two'"),
    (_set(("basis", 1, "degree"), None), "basis[1].degree: not an integer: None"),
    (_set(("cutoffs", "arity"), "six"), "cutoffs.arity: not an integer: 'six'"),
    (_set(("monoid", 0, "index"), "z"), "monoid[0].index: not an integer: 'z'"),
    (_set(("basis", 1, "degree"), 1.5), "basis[1].degree: not an integer: 1.5"),
    (_set(("higher_arities_zero",), "false"),
     "higher_arities_zero: not a JSON boolean: 'false'"),
    (_set(("operations", 1, "output", 0, "s"), 1.5),
     "operations[1].output[0].s: not an integer: 1.5"),
    (_set(("basis", 0, "unit"), "false"), "basis[0].unit: not a JSON boolean: 'false'"),
    (_set(("cutoffs", "energy"), True), "cutoffs.energy: not an exact fraction: True"),
    (_set(("operations", 1, "output", 0, "coeff"), None),
     "operations[1].output[0].coeff: not an exact fraction: None"),
    (_set(("operations", 1, "output", 0, "T"), None),
     "operations[1].output[0].T: not an exact fraction: None"),
    (_set(("cutoffs", "energy"), None), "cutoffs.energy: not an exact fraction: None"),
    (_set(("monoid", 0, "energy"), None), "monoid[0].energy: not an exact fraction: None"),
    (_set(("name",), None), "  name: not a JSON string: None"),
    (_set(("name",), 5), "  name: not a JSON string: 5"),
    (_set(("name",), ["a"]), "  name: not a JSON string: ['a']"),
    (_set(("operations", 1, "output", 0, "coeff"), "0.5"),
     "operations[1].output[0].coeff: not an exact fraction: '0.5'"),
    (_set(("monoid", 0, "energy"), "1e-1"), "monoid[0].energy: not an exact fraction: '1e-1'"),
    (_set(("cutoffs", "energy"), "2.0"), "cutoffs.energy: not an exact fraction: '2.0'"),
), ids=("arity-string", "degree-null", "cutoff-string", "index-string", "degree-float",
        "flag-string", "exponent-float", "unit-string", "energy-bool", "coeff-null",
        "exponent-T-null", "energy-null", "monoid-energy-null", "doc-name-null",
        "doc-name-number", "doc-name-list", "coeff-decimal", "energy-exponent",
        "cutoff-decimal"))
def test_typed_fields_exit_2_located(tmp_path, capsys, edit, location):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(edit(minimal_doc())))
    assert main(["check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert location in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("edit,location", (
    (_set(("coefficients", "t_degrees"), 5), "coefficients.t_degrees: not a JSON array: 5"),
    (_set(("basis", 1), 7), "basis[1]: not a JSON object: 7"),
    (_set(("cutoffs",), [4]), "cutoffs: not a JSON object: [4]"),
    (_set(("operations", 0, "output"), {"basis": "1"}),
     "operations[0].output: not a JSON array: {'basis': '1'}"),
    (_set(("gauge_path",), None), "gauge_path: not a JSON object: None"),
    (_set(("basis", 1, "name"), ["x"]), "basis[1].name: not a JSON string: ['x']"),
    (_set(("wall_crossing_pair",), {"minus": ["b"], "plus": "b"}),
     "wall_crossing_pair.minus: not a JSON string: ['b']"),
    (_set(("wall_crossing_pair",), []), "wall_crossing_pair: not a JSON object: []"),
    (_set(("gauge_path",), {"element": [{"basis": "x", "poly": None}]}),
     "gauge_path.element[0].poly: not a JSON array: None"),
    (_set(("candidates",), [{"name": "b", "element": None}]),
     "candidates[0].element: not a JSON array: None"),
    (_set(("candidates",), [{"name": "b", "element": 0}]),
     "candidates[0].element: not a JSON array: 0"),
    (_set(("m_minus_one",), {}), "m_minus_one: not a JSON array: {}"),
    (_set(("gw_tilde",), None), "gw_tilde: not a JSON array: None"),
    (_set(("right_inverse",), {"x": None}), "right_inverse.x: not a JSON array: None"),
    (_set(("towers",), [{"levels": [{"entries": [{"module": "1", "word": ["x"],
                                                  "value": None}]}]}]),
     "towers[0].levels[0].entries[0].value: not a JSON array: None"),
    (_set(("towers",), [{"name": "t"}]), "towers[0].levels: a tower needs at least one level"),
    (_set(("towers",), [{"levels": []}]), "towers[0].levels: a tower needs at least one level"),
    (_set(("wall_crossing_pair",), None), "wall_crossing_pair: not a JSON object: None"),
), ids=("t-degrees-number", "basis-entry-number", "cutoffs-list", "output-object",
        "gauge-path-null", "name-list", "pair-name-list", "pair-empty-list", "poly-null",
        "element-null", "element-zero", "m-minus-one-object", "gw-tilde-null",
        "right-inverse-entry-null", "tower-value-null", "tower-levels-absent",
        "tower-levels-empty", "pair-null"))
def test_container_shapes_exit_2_located(tmp_path, capsys, edit, location):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(edit(minimal_doc())))
    assert main(["check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert location in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out


def test_kmax_past_unflagged_tables_exits_2(tmp_path, capsys):
    # The document's own cutoff passes validation (tables reach K + 1 = 2);
    # --kmax 4 would need tables up to 5, and is refused where it is set,
    # before any check runs.
    raw = minimal_doc()
    raw["higher_arities_zero"] = False
    raw["cutoffs"]["arity"] = 1
    path = tmp_path / "unflagged.json"
    path.write_text(json.dumps(raw))
    for kmax in ("3", "4"):
        assert main(["check", "--input", str(path), "--kmax", kmax, "--chains", "1"]) == 2
        captured = capsys.readouterr()
        assert ("  --kmax: relation checking at arity %s needs tables up to %d"
                % (kmax, int(kmax) + 1)) in captured.err
        assert captured.out == ""
    assert main(["check", "--input", str(path), "--kmax", "1", "--chains", "1"]) == 0
    capsys.readouterr()


def _term(T, basis=None):
    term = {"coeff": "1", "T": T}
    if basis is not None:
        term["basis"] = basis
    return term


def _e2_file(tmp_path, edit):
    """The path of a copy of corpus E2 with ``edit`` applied to its JSON."""
    with open(corpus("e2.json"), encoding="utf-8") as handle:
        raw = json.load(handle)
    edit(raw)
    path = tmp_path / "e2_edited.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_potential_sums_no_level_past_the_energy_cutoff(tmp_path, capsys):
    # nu = 2/5 and E = 3: level N has valuation at least (N + 1) 2/5, so the
    # last level is 6 and needs m_6 at most, within the arity cutoff 6
    def edit(raw):
        raw["candidates"] = [{"name": "b", "element": [_term("2/5", "x")]}]
        del raw["wall_crossing_pair"]
    path = _e2_file(tmp_path, edit)
    for extra in ([], ["--kmax", "7"]):
        assert main(["potential", "--input", path] + extra) == 0
        assert "  Phi' = 1*T^7/5*e^1\n" in capsys.readouterr().out


BAD_CANDIDATES = (
    ([{"basis": "x", "coeff": "1"}], "candidate must have positive valuation"),
    ([_term("1", "1")], "candidate must be homogeneous of total degree 1"),
)


@pytest.mark.parametrize("command", ("mc", "potential", "wallcross", "cocycle"))
@pytest.mark.parametrize("element,message", BAD_CANDIDATES, ids=("valuation-0", "degree-0"))
def test_bad_candidate_exits_2_located(tmp_path, capsys, command, element, message):
    path = _e2_file(tmp_path, lambda raw: raw["candidates"].append(
        {"name": "c", "element": element}))
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input document rejected:\n  candidates[3].element: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("element,message", BAD_CANDIDATES, ids=("valuation-0", "degree-0"))
def test_bad_gauge_path_exits_2_located(tmp_path, capsys, element, message):
    path = _e2_file(tmp_path, lambda raw: raw.update(gauge_path={"element": element}))
    assert main(["gauge", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input document rejected:\n  gauge_path.element: %s\n" % message


@pytest.mark.parametrize("command", ("potential", "cocycle"))
@pytest.mark.parametrize("section,location", (
    ("candidates", "candidates[3].name: duplicate name 'b'"),
    ("towers", "towers[1].name: duplicate name 'poincare'"),
), ids=("candidate", "tower"))
def test_duplicate_names_exit_2_located(tmp_path, capsys, command, section, location):
    # a second entry of the same name would replace the first one unseen
    def edit(raw):
        entries = raw[section]
        entries.append(dict(entries[1 if section == "candidates" else 0]))
    path = _e2_file(tmp_path, edit)
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input document rejected:\n  %s\n" % location
    assert captured.out == ""


def test_energy_grid_is_the_lcm_of_the_document_energies():
    assert load(corpus("e2.json")).algebra.spec.grid == 4
    assert load(corpus("g1_gauge.json")).algebra.spec.grid == 2
    raw = minimal_doc()
    raw["cutoffs"]["energy"] = "12/7"
    assert load_dict(raw).algebra.spec.grid == 2
    # each place an energy can be stated contributes its denominator
    places = (
        ("monoid", lambda raw, T: raw["monoid"].append({"energy": T, "index": 2})),
        ("towers", lambda raw, T: raw.setdefault("towers", []).append(
            {"levels": [{"entries": [{"module": "1", "word": ["x"],
                                      "value": [_term(T)]}]}]})),
        ("candidates", lambda raw, T: raw.setdefault("candidates", []).append(
            {"name": "b", "element": [_term(T, "x")]})),
        ("gauge_path", lambda raw, T: raw.update(
            gauge_path={"element": [{"basis": "x", "T": T, "poly": ["0", "1"]}]})),
        ("m_minus_one", lambda raw, T: raw.update(m_minus_one=[_term(T)])),
        ("gw_tilde", lambda raw, T: raw.update(gw_tilde=[_term(T)])),
        ("right_inverse", lambda raw, T: raw.update(right_inverse={"x": [_term(T, "x")]})),
    )
    for where, add in places:
        raw = minimal_doc()
        add(raw, "1/3")
        spec = load_dict(raw).algebra.spec
        assert spec.grid == 6, where
    raw = minimal_doc()
    raw["candidates"] = [{"name": "b", "element": [_term("5/4", "x"), _term("2/3", "x")]}]
    doc = load_dict(raw)
    assert doc.algebra.spec.grid == 12
    assert doc.candidates["b"].text() == "(1*T^2/3 + 1*T^5/4)*x"


RUN_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from ainfty.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_in_one_process(argvs):
    """(exit code, stdout, stderr) of each ``main(argv)``, all made in one
    fresh interpreter, in order."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ainfty.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    done = subprocess.run([sys.executable, "-c", RUN_IN_ONE_PROCESS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [tuple(result) for result in json.loads(done.stdout)]


def test_main_calls_in_one_process_match_separate_calls():
    # the parser is built once per process and reused: a later call, after a
    # different subcommand, other flags or a bad-flag exit, parses the same
    argvs = [
        ["check", "--input", corpus("e1.json"), "--chains", "5", "--seed", "3"],
        ["mc", "--input", corpus("sv1.json"), "--solve"],
        ["check", "--input", corpus("e1.json"), "--chains", "many"],
        ["cocycle", "--input", corpus("e2.json"), "--lmax", "2", "--tower", "poincare"],
        ["check", "--input", corpus("e1.json")],
    ]
    together = _run_in_one_process(argvs)
    apart = [_run_in_one_process([argv])[0] for argv in argvs]
    assert together == apart
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 0]
    assert "invalid int value: 'many'" in together[2][2]
