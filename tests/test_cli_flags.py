"""The command-line grammar: ``cli.parse_args`` against its argparse reference.

``oracles.argparse_reference`` is the argparse parser that ``parse_args``
replaced.  On every command line the two accept the same ones with the same
values, except that ``parse_args`` takes an integer only as an optional '-'
and ASCII digits, where argparse's ``int()`` also takes ' 3', '+3', '3_0' and
other scripts' digits.  A line argparse refuses exits 2 from ``main`` with
one ``input document rejected:`` block and no usage text, located where
argparse's error is and in its words (short of such an integer, which
``parse_args`` refuses first).

Two kinds of token stay out of the drawn command lines and have example
tests instead: ``-h``/``--help`` and their forms, which exit 0, and a bare
``--``, which argparse reads differently from one Python version to the next
(``parse_args`` always refuses it).
"""

import ast
import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ainfty.cli import FLAGS, SUBCOMMANDS, main, parse_args
from ainfty.errors import DocumentError

from oracles import argparse_reference
from test_document_cli import _engine_env, corpus

REFERENCE = argparse_reference()
INT_FLAGS = {flag for flag, kind, _, _, _ in FLAGS if kind is int}
NAMES = [flag for flag, _, _, _, _ in FLAGS]
# every flag, every prefix of one that is at least '--' and a letter, and
# options no subcommand has
FLAG_TOKENS = sorted({name[:end] for name in NAMES for end in range(3, len(name) + 1)}
                     | {"--bogus", "-x", "-i", "---input", "-input"})
VALUES = [
    "3", "-3", "0", "-0", "007", "12345678901234567890", " 3", "+3", "3_0", "٨",
    "-٨", "3.5", "-1.5", "-.5", "1/2", "-1/2", "7/4", "", "-", "doc.json",
    "a b", "-x y", "--kmax 3", "poincare", "many", "-5\n",
]
COMMANDS = [name for name, _, _ in SUBCOMMANDS]
NOT_COMMANDS = ["chec", "x", "", "-5", "-", "a b"]


def _piece():
    """A flag and a value (half the time), a flag with a value attached, or
    one token."""
    flag = st.sampled_from(FLAG_TOKENS)
    value = st.one_of(st.sampled_from(["3", "0", "-2", "007", "doc.json"]),
                      st.sampled_from(VALUES))
    return st.one_of(
        st.builds(lambda f, v: [f, v], flag, value),
        st.builds(lambda f, v: [f, v], flag, value),
        st.builds(lambda f, v: [f + "=" + v], flag, value),
        st.builds(lambda token: [token], st.sampled_from(FLAG_TOKENS + VALUES)),
    )


@st.composite
def command_lines(draw):
    """A command line: the command and its tokens, mostly with an --input;
    now and then with no command, or with tokens before it, which argparse
    reads at the top level."""
    pieces = draw(st.lists(_piece(), max_size=5))
    if draw(st.sampled_from([True, True, True, False])):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(st.sampled_from(
            [["--input", "doc.json"], ["--input=doc.json"], ["--inp", "d"], ["--i", "-1"]])))
    rest = [token for piece in pieces for token in piece]
    shape = draw(st.sampled_from(["no command", "not a command", "tokens before"]
                                 + ["command"] * 12))
    if shape == "no command":
        return rest
    if shape == "not a command":
        return [draw(st.sampled_from(NOT_COMMANDS))] + rest
    before = draw(st.lists(st.sampled_from(FLAG_TOKENS + VALUES), min_size=1, max_size=2)
                  ) if shape == "tokens before" else []
    return before + [draw(st.sampled_from(COMMANDS))] + rest


def _located(text):
    """argparse's error text as the (location, message) of ``parse_args``:
    no 'argument ' before the location, the required flags as the location,
    and the choices of a command unquoted."""
    text = text.removeprefix("argument ")
    required = "the following arguments are required"
    if text.startswith(required + ": "):
        return text[len(required) + 2:], required
    location, _, message = text.partition(": ")
    head, choose, choices = message.partition(" (choose from ")
    return location, head + choose + choices.replace("'", "")


def _reference(argv):
    """argparse's values for argv and None, or None and its refusal, located
    as by ``_located``, where it exits 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(REFERENCE.parse_args(argv)), None
        except SystemExit as exc:
            code = exc.code
    assert code == 2
    return None, _located(err.getvalue().split(": error: ", 1)[1][:-1])


def _run(argv):
    """main's exit code, stdout and stderr on argv, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refusal(argv):
    """The one (location, message) of parse_args's refusal of argv."""
    with pytest.raises(DocumentError) as refused:
        parse_args(argv)
    assert len(refused.value.diagnostics) == 1, refused.value.diagnostics
    return refused.value.diagnostics[0]


def _non_canonical_int(argv, flag, message):
    """Is this the refusal of an integer that argparse's int() takes but that
    is not an optional '-' and ASCII digits, at an integer flag, where the
    value is a token of argv or attached to one?"""
    prefix = "invalid int value: "
    if flag not in INT_FLAGS or not message.startswith(prefix):
        return False
    text = ast.literal_eval(message[len(prefix):])
    digits = text[1:] if text.startswith("-") else text
    int(text)  # raises where argparse's int() would refuse it too
    return (not (digits.isascii() and digits.isdigit())
            and any(token == text or token.endswith("=" + text) for token in argv))


@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
def test_parse_args_accepts_what_argparse_accepts(argv):
    expected, refusal = _reference(argv)
    if expected is None:
        location, message = _refusal(argv)
        assert (location, message) == refusal or _non_canonical_int(argv, location, message)
        assert _run(argv) == (2, "", "input document rejected:\n  %s: %s\n" % (location, message))
        return
    try:
        values = vars(parse_args(argv))
    except DocumentError as exc:
        # the one difference: an integer that int() takes and the grammar does not
        assert len(exc.diagnostics) == 1 and _non_canonical_int(argv, *exc.diagnostics[0]), argv
        return
    assert values == expected


@pytest.mark.parametrize("value, argparse_reads", [("٨", 8), ("3_0", 30), (" 3", 3),
                                                    ("+3", 3)])
def test_integer_flags_take_ascii_digits_only(value, argparse_reads):
    argv = ["check", "--input", corpus("e1.json"), "--kmax", value]
    assert REFERENCE.parse_args(argv).kmax == argparse_reads
    assert _run(argv) == (2, "", "input document rejected:\n  --kmax: invalid int value: %r\n"
                          % value)


@pytest.mark.parametrize("argv, message", [
    (["check", "--input", corpus("e1.json"), "--chains", "many"],
     "--chains: invalid int value: 'many'"),
    (["check", "--input", corpus("e1.json"), "--kmax"], "--kmax: expected one argument"),
    (["check", "--kmax", "3"], "--input: the following arguments are required"),
    (["x", "--input", corpus("e1.json")],
     "command: invalid choice: 'x' (choose from check, cocycle, mc, potential, gauge, "
     "wallcross)"),
    ([], "command: the following arguments are required"),
    (["check", "--input", corpus("e1.json"), "stray", "-x"], "unrecognized arguments: stray -x"),
    (["mc", "--input", corpus("sv1.json"), "--s"],
     "ambiguous option: --s could match --seed, --solve"),
    (["mc", "--input", corpus("sv1.json"), "--solve=yes"],
     "--solve: ignored explicit argument 'yes'"),
    # a bare '--': no flag reads it and no subcommand takes a positional
    (["check", "--input", corpus("e1.json"), "--"], "unrecognized arguments: --"),
    (["--", "check", "--input", corpus("e1.json")], "unrecognized arguments: --"),
    (["check", "--input", "--", corpus("e1.json")], "--input: expected one argument"),
])
def test_a_malformed_command_line_exits_2_located(argv, message):
    assert _run(argv) == (2, "", "input document rejected:\n  %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["check", "--in", corpus("e1.json"), "--kmax=3"],
    ["cocycle", "--input=" + corpus("e2.json"), "--tower=poincare"],
    ["mc", "--inp", corpus("sv1.json"), "--solve", "--solve"],
    ["check", "--input", corpus("e2.json"), "--seed", "-7", "--chains", "007", "--seed", "9"],
])
def test_abbreviations_attached_values_and_repeats_read_as_argparse_reads_them(argv):
    assert vars(parse_args(argv)) == vars(REFERENCE.parse_args(argv))
    assert _run(argv)[0] == 0


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"], ["-hh"], ["-h=h"], ["-hx"], ["--help=x"], ["-h="],
    ["check", "-h"], ["check", "--h"], ["mc", "--input", "d", "--help"],
    ["check", "--kmax", "x", "--help"], ["check", "--help", "--kmax", "x"],
    ["mc", "--help", "--s"], ["check", "--kmax", "--help"], ["-x", "--help", "check"],
    ["-hhx"], ["check", "-hxh"], ["-h-"], ["check", "-h=hh"], ["--help="], ["check", "--he=h"],
])
def test_help_exits_where_argparse_exits(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exited:
            REFERENCE.parse_args(argv)
    if exited.value.code == 0:
        code, out, err = _run(argv)
        assert (code, out.startswith("usage: ainfty"), err) == (0, True, "")
    else:
        assert _run(argv) == (2, "", "input document rejected:\n  %s: %s\n" % _reference(argv)[1])


def _cli(*argv):
    done = subprocess.run([sys.executable, "-m", "ainfty.cli", *argv], env=_engine_env(),
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv", [["-h"], ["--help"]])
def test_help_lists_every_subcommand_and_flag(argv):
    code, out, err = _cli(*argv)
    assert (code, err) == (0, "")
    for name, _, text in SUBCOMMANDS:
        assert any(line.split() == [name] + text.split() for line in out.splitlines()), name
    for flag, _, _, text, _ in FLAGS:
        assert any(line.split()[:1] == [flag] and text in line for line in out.splitlines()), flag


def test_subcommand_help_lists_its_flags():
    code, out, err = _cli("check", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: ainfty check")
    assert dict((name, text) for name, _, text in SUBCOMMANDS)["check"] in out
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  --")}
    assert listed == {flag for flag, _, _, _, commands in FLAGS
                      if commands is None or "check" in commands}
    for flag, _, _, text, commands in FLAGS:
        assert (text in out) == (commands is None or "check" in commands), flag
