"""Command-line interface: load a document, run checks, emit reports.

Subcommands: check, cocycle, mc, potential, gauge, wallcross.  Every report
echoes the cutoffs and the seed in force, so a pass is always a bounded and
reproducible claim.  Output is deterministic for fixed inputs and flags:
exact arithmetic, canonical term ordering, fixed iteration orders.

``check``'s chain identity suite certifies every chain without a draw
where the relation table and the per-slot unit table are empty; elsewhere
it evaluates the identities on each of its seeded chains.  It draws its
chains as raw term maps and passes them to ``hochschild.identity_residuals``
as they are, so no ``HochschildChain`` is built; a failing residual is
printed by ``hochschild.chain_text``.  ``parse_args`` reads the command line
from two tables, ``SUBCOMMANDS`` and ``FLAGS``, which also write the
``--help`` text; it keeps no state between calls, and a malformed flag exits
2 with one located line, like every other input error.
"""

from __future__ import annotations

import os
import random
import re
import sys
from types import SimpleNamespace

from . import ainfty as core
from . import hochschild as hh
from . import pairing as pr
from . import potential as pt
from .coeff import Rational, as_fraction
from .document import load, load_dict, not_a_fraction
from .errors import ArityError, ConfigurationError, DocumentError, EngineError, TowerError
from .graded import Element
from .report import Report

DEFAULT_SEED = 20240601


def _random_reduced_chain(algebra, rng, max_len):
    """The raw map of a seeded reduced chain of one to four terms
    c T^lam e^m [v|w].

    Per term the draws are the word length, its letters, the module v, then
    c in -3..3, 2 lam in 0..2 and m in -1..1; a term whose coefficient is
    zero, or whose level is past the ring's level cutoff, is skipped.  A
    basis of the unit alone has no reduced letter, so its words are empty
    and their length is not drawn.
    """
    basis = algebra.basis
    spec = algebra.spec
    letters = basis.reduced_letters()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(0, max_len) if letters else 0
        word = tuple(rng.choice(letters) for _ in range(length))
        module = rng.randrange(len(basis))
        c = rng.randint(-3, 3)
        mono = spec.monomial(lam=Rational(rng.randint(0, 2), 2), e=rng.randint(-1, 1))
        if c and mono.lvl <= spec.level_cutoff:
            terms[(module, word)] = {mono: c}
    return terms


def _vanishes(raw: dict) -> bool:
    """Is a raw residual map {key: {Monomial: scalar}} zero?"""
    return not any(any(terms.values()) for terms in raw.values())


def chain_identity_suite(algebra, count, seed, max_len=5) -> Report:
    """Differential and rotation identities on ``count`` seeded chains,
    exact per chain, and certified at every chain where the tables allow.

    Six identities are checked on ``count`` seeded reduced chains of up to
    four terms: b^2, B^2, bB+Bb, b'^2, b(1-t)-(1-t)b' and b'N-Nb, six
    counted per chain.  ``hh.identity_residuals`` forms the three that can
    fail, b^2, bB+Bb and b'^2; the other three hold at every chain of every
    algebra that loads, B^2 because B(c) has no key that B reads and the
    rotation identities because every entry of a loaded table has the
    A-infinity degree (proofs in ``hh.identity_residuals``), so they are
    counted and never fail.

    ``hh.identity_residuals`` proves that at every reduced chain c, of any
    length and with any coefficients, each of the three maps is a sum of
    windows of two tables of the operation index, the curved relation
    residuals R (``core.relation_residuals``) and the per-slot strict-unit
    residuals V (``core.unit_slot_residuals``): b'^2 = the windows of R in
    place; b^2 = q of the cyclic windows of R, less q of the windows of V
    on (1 - q) b u; bB+Bb = the wraps of B(c) read off U, V's signed sum
    over slots, plus B of the seam windows of V.  So where R = V = {},
    every term of every map is zero, and each of the six identities holds
    at every chain, drawn or not.  The suite then counts its 6 * count
    checks, prints the same notes, and neither draws nor evaluates: a
    passing suite prints only its notes and its count, so its lines are
    those of the per-chain evaluation.  That is every corpus document
    (``check --chains 100000000`` costs what ``--chains 1`` does).
    Otherwise every drawn chain is evaluated, and its failures are reported
    from that evaluation.
    """
    report = Report("chain-identities")
    report.note("E_max", algebra.spec.cutoff)
    report.note("chains", count)
    report.note("max_length", max_len)
    report.note("seed", seed)
    if not core.relation_residuals(algebra) and not core.unit_slot_residuals(algebra):
        report.tick(6 * count)
        return report
    rng = random.Random(seed)
    for n in range(count):
        c = _random_reduced_chain(algebra, rng, max_len)
        report.tick(6)
        for tag, raw in hh.identity_residuals(algebra, c):
            if not _vanishes(raw):
                report.fail("%s nonzero on chain #%d: %s"
                            % (tag, n, hh.chain_text(algebra.basis, algebra.spec, raw)))
    return report


def _emit(reports, args, doc) -> int:
    algebra = doc.algebra
    lines = [
        "ainfty report",
        "input = %s" % doc.name,
        "seed = %d" % args.seed,
        "E_max = %s | K_max = %d | L_max = %d | N_max = %d | tower depths = %s"
        % (algebra.spec.cutoff, algebra.k_max, algebra.l_max, algebra.n_max,
           ",".join(str(t.depth) for t in doc.towers.values()) or "-"),
        "",
    ]
    ok = True
    for rep in reports:
        lines.extend(rep.lines())
        lines.append("")
        ok = ok and rep.passed
    text = "\n".join(lines)
    if args.report:
        try:
            with open(args.report, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise DocumentError([("--report", str(exc))])
    _print(text)
    return 0 if ok else 1


def _print(text):
    """Print to stdout; a reader that closes the pipe early ends it quietly."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # send the rest, and the flush at exit, to devnull, so the command
        # ends quietly with its own status
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _count_printable(doc, cutoff: int) -> bool:
    """Can a report print every count of words it checks at this arity or
    word-length cutoff c?  int() prints at most sys.get_int_max_str_digits()
    digits (no limit when that is 0).

    With b = max(|basis|, 2) and l the most levels of a tower, each count is
    below (c + 3)^3 b^(c + 3) l.  Each counts words of at most c + 2 letters
    over at most b letters, and there are at most 2 b^(c + 2) of those since
    b >= 2, with a weight per word: C(n, 3) <= (c + 3)^3 / 6 for
    closedness, n + 1 times |basis| or |basis|^2 for the bimodule and skew
    checks, and l |basis| for a tower.  So a cutoff passes when that bound
    is printable; past it a report could not print its count, or not even
    form it in memory.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return True
    base = max(len(doc.algebra.basis), 2)
    # past this, base^(c + 3) alone has more than limit digits: log10(2) > 0.3
    if (cutoff + 3) * (base.bit_length() - 1) * 3 > limit * 10:
        return False
    levels = max([len(tower.levels) for tower in doc.towers.values()] + [1])
    bound = (cutoff + 3) ** 3 * base ** (cutoff + 3) * levels
    # 2^(3 limit) < 10^limit, so only a bound near the limit needs 10^limit
    return bound.bit_length() <= 3 * limit or bound < 10 ** limit


def _load(args):
    doc = load(args.input)
    if args.emax is not None:
        try:
            energy = as_fraction(args.emax)
        except ConfigurationError:
            raise DocumentError([("--emax", not_a_fraction(args.emax))])
        # the document was checked whole at its own cutoff by the first load
        doc = load_dict(doc.raw, energy)
    algebra = doc.algebra
    if args.kmax is not None:
        algebra.k_max = args.kmax
    if args.lmax is not None:
        algebra.l_max = args.lmax
    if args.nmax is not None:
        algebra.n_max = args.nmax
    # A cutoff below its least value would check nothing and still PASS; an
    # arity cutoff past unflagged tables would fail midway through a check.
    errors = []
    for flag, field, override, value, counted in (
        ("--kmax", "cutoffs.arity", args.kmax, algebra.k_max, True),
        ("--lmax", "cutoffs.word_length", args.lmax, algebra.l_max, True),
        ("--nmax", "cutoffs.n_max", args.nmax, algebra.n_max, False),
    ):
        if value < 0:
            errors.append((field if override is None else flag, "must be >= 0"))
        elif counted and not _count_printable(doc, value):
            errors.append((field if override is None else flag,
                           "too large: a count of the words it checks could have more "
                           "digits than int() prints"))
    if getattr(args, "chains", 1) < 1:
        errors.append(("--chains", "must be >= 1"))
    try:
        algebra.check_arity_cutoff()
    except ConfigurationError as exc:
        errors.append(("cutoffs.arity" if args.kmax is None else "--kmax", str(exc)))
    if errors:
        raise DocumentError(errors)
    return doc


def cmd_check(args, doc) -> int:
    algebra = doc.algebra
    reports = [
        core.check_ainfty(algebra),
        core.check_strict_unit(algebra),
        chain_identity_suite(algebra, args.chains, args.seed),
    ]
    return _emit(reports, args, doc)


def _tower(doc, name):
    """The document's tower of this name; exits 2 at ``--tower`` if none."""
    if name not in doc.towers:
        raise DocumentError([("--tower", "unknown tower %r" % name)])
    return doc.towers[name]


def cmd_cocycle(args, doc) -> int:
    algebra = doc.algebra
    reports = []
    if not doc.towers:
        raise DocumentError([("towers", "the cocycle command needs a tower section")])
    towers = doc.towers if args.tower is None else {args.tower: _tower(doc, args.tower)}
    for name, tower in towers.items():
        validation = hh.validate_negative_cocycle(algebra, tower)
        validation.name = "negative-cocycle:%s" % name
        reports.append(validation)
        if not validation.passed:
            continue
        phi = pr.InfinityInnerProduct(algebra, tower)
        for rep in (
            core.check_bimodule_hom(algebra, phi),
            pr.check_skew(algebra, phi),
            pr.check_closed(algebra, phi),
            pr.trace_identity(algebra, phi),
        ):
            rep.name = "%s:%s" % (rep.name, name)
            reports.append(rep)
    return _emit(reports, args, doc)


def cmd_mc(args, doc) -> int:
    algebra = doc.algebra
    reports = []
    if args.solve:
        if doc.right_inverse is None:
            raise DocumentError([("right_inverse",
                                  "--solve needs a right_inverse section")])
        seed_el = doc.candidates.get("seed", Element.zero(algebra.basis))
        rep = Report("mc-solve")
        rep.note("E_max", algebra.spec.cutoff)
        outcome = core.solve_mc(algebra, doc.right_inverse, seed_el)
        rep.tick()
        if isinstance(outcome, core.Obstruction):
            rep.fail(outcome.text())
        else:
            b, c = outcome
            rep.note("b", b.text())
            rep.note("c", c.text())
        reports.append(rep)
    else:
        for name, b in doc.candidates.items():
            rep = Report("weak-mc:%s" % name)
            rep.note("E_max", algebra.spec.cutoff)
            ok, c, rest = core.check_weak_mc(algebra, b)
            rep.note("c", c.text())
            rep.tick()
            if not ok:
                rep.fail("curvature is not a unit multiple; residual %s" % rest.text())
            reports.append(rep)
    return _emit(reports, args, doc)


def _phi_for(doc, args):
    if not doc.towers:
        raise DocumentError([("towers", "this command needs a tower section")])
    name = next(iter(doc.towers)) if args.tower is None else args.tower
    try:
        return name, pr.build_phi(doc.algebra, _tower(doc, name))
    except TowerError as exc:
        # the first tower is the default one
        where = "towers[0]" if args.tower is None else "--tower"
        raise DocumentError([(where, "tower %r fails the negative cocycle condition at L_max = "
                              "%d (failures = %d); the cocycle command prints them"
                              % (name, doc.algebra.l_max, len(exc.report.failures)))])


def cmd_potential(args, doc) -> int:
    algebra = doc.algebra
    tower_name, phi = _phi_for(doc, args)
    reports = []
    for name, b in doc.candidates.items():
        rep = Report("potential:%s" % name)
        rep.note("E_max", algebra.spec.cutoff)
        rep.note("tower", tower_name)
        value = pt.infty_cyclic_potential(algebra, phi, b)
        rep.note("Phi'", value.text())
        rep.note("Phi", (doc.m_minus_one + value).text())
        rep.tick()
        reports.append(rep)
    return _emit(reports, args, doc)


def cmd_gauge(args, doc) -> int:
    algebra = doc.algebra
    if doc.gauge_path is None:
        raise DocumentError([("gauge_path", "this document has no gauge path")])
    tower_name, phi = _phi_for(doc, args)
    rep = pt.gauge_invariance_check(algebra, phi, doc.gauge_path)
    rep.note("tower", tower_name)
    return _emit([rep], args, doc)


def cmd_wallcross(args, doc) -> int:
    algebra = doc.algebra
    tower_name, phi = _phi_for(doc, args)
    reports = []
    for name, b in doc.candidates.items():
        if b.is_zero():
            continue
        rep = Report("decomposition:%s" % name)
        rep.note("E_max", algebra.spec.cutoff)
        rep.note("N_max", algebra.n_max)
        dec = pt.wall_crossing_decomposition(algebra, phi, b)
        for tag in ("ksplit", "psplit", "qsplit", "output", "clsum", "error_term"):
            rep.note(tag, getattr(dec, tag).text())
        for tag, value in dec.diagnostics.items():
            rep.note("diagnostic " + tag, value.text())
        rep.tick()
        if not dec.residual_i1.is_zero():
            rep.fail("telescoping identity residual: %s" % dec.residual_i1.text())
        if not dec.residual_i2.is_zero():
            rep.fail("rotation identity residual: %s" % dec.residual_i2.text())
        reports.append(rep)
    if doc.wall_pair:
        minus_name, plus_name = doc.wall_pair
        reports.append(pt.wall_crossing_report(
            algebra, phi, tower_name, (minus_name, doc.candidates[minus_name]),
            (plus_name, doc.candidates[plus_name]), doc.m_minus_one, doc.gw_tilde))
    return _emit(reports, args, doc)


# The command-line grammar, read by the parser and by --help.  Each
# subcommand with the function that runs it and its help text; each flag with
# the type of its value (None for a switch, which takes none), its default,
# its help text and the subcommands that take it (None: every one).
SUBCOMMANDS = (
    ("check", cmd_check, "relations, strict unit, chain-level identities"),
    ("cocycle", cmd_cocycle, "tower validation plus inner-product checks"),
    ("mc", cmd_mc, "weak Maurer-Cartan check, optionally order-by-order solving"),
    ("potential", cmd_potential, "cyclic and full potentials of the candidates"),
    ("gauge", cmd_gauge, "gauge path check: MC over the extended ring, d/dt = 0"),
    ("wallcross", cmd_wallcross, "wall-crossing decomposition and pair report"),
)
REQUIRED = object()
FLAGS = (
    ("--input", str, REQUIRED, "document path", None),
    ("--emax", str, None, "energy cutoff override (fraction)", None),
    ("--kmax", int, None, "arity cutoff override", None),
    ("--lmax", int, None, "word-length cutoff override", None),
    ("--nmax", int, None, "level cutoff override", None),
    ("--seed", int, DEFAULT_SEED, "seed for randomized suites (default %d)" % DEFAULT_SEED, None),
    ("--report", str, None, "also write the report to this path", None),
    ("--chains", int, 200, "random chains for the identity suite", ("check",)),
    ("--solve", None, False, "run the order-by-order solver from the seed candidate", ("mc",)),
    ("--tower", str, None, "tower name (default: first)",
     ("cocycle", "potential", "gauge", "wallcross")),
)
COMMANDS = {name: run for name, run, _ in SUBCOMMANDS}
HELP = ("-h", "--help")
# a token that names no flag but reads as a negative number is a value; re
# compiles the pattern on first use, which most command lines never reach
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


class _Help(Exception):
    """-h or --help: the usage text to print, in place of a run."""


def _usage(command=None) -> str:
    """The help text: every subcommand and every flag, or one subcommand's
    flags, from the grammar tables."""
    if command is None:
        lines = ["usage: ainfty {%s} --input INPUT [flags]" % ",".join(COMMANDS), "",
                 "exact verification engine for curved A-infinity algebras", "", "subcommands:"]
        lines += ["  %-10s %s" % (name, text) for name, _, text in SUBCOMMANDS]
        lines.append("")
    else:
        lines = ["usage: ainfty %s --input INPUT [flags]" % command, ""]
        lines += [text for name, _, text in SUBCOMMANDS if name == command] + [""]
    lines += ["flags (a value follows its flag or is attached with '='; a unique prefix",
              "names a flag; the last repeat wins; integers are ASCII digits):",
              "  %-16s %s" % ("-h, --help", "show this help and exit")]
    for flag, kind, default, text, commands in FLAGS:
        if command is None or commands is None or command in commands:
            name = flag if kind is None else "%s %s" % (flag, flag[2:].upper())
            if default is REQUIRED:
                text += " (required)"
            if command is None and commands is not None:
                text += " [%s]" % ", ".join(commands)
            lines.append("  %-16s %s" % (name, text))
    return "\n".join(lines)


def _option(token, names):
    """How argparse reads a token against these option names: None for a
    value, else the option it names (None for no known option) and the value
    attached with '=' (None for none).

    An exact name comes first, then a name before '=', then the unique name
    the token (before any '=') is a prefix of; past those, a negative number
    or a token with a space is a value.  A short option takes the rest of
    its token as its attached value.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    name, eq, attached = token.partition("=")
    if eq and name in names:
        return name, attached
    if token == "--":
        # no flag reads it and no subcommand takes a positional
        return None, None
    if token[1] == "-":
        matches = [(option, attached if eq else None) for option in names
                   if option.startswith(name)]
    else:
        matches = [(option, token[2:]) for option in names if option == token[:2]]
    if len(matches) > 1:
        raise DocumentError([("ambiguous option", "%s could match %s"
                              % (token, ", ".join(option for option, _ in matches)))])
    if matches:
        return matches[0]
    if re.match(_NEGATIVE, token) or " " in token:
        return None
    return None, None


def _help(option, attached, command=None):
    """Raise the help of the parser that read -h or --help."""
    # argparse reads -hh, like -h=h, as -h given twice, and refuses what
    # follows the last h of -hhx
    if option == "-h" and attached:
        attached = attached.lstrip("h") or None
    if attached is not None:
        raise DocumentError([("-h/--help", "ignored explicit argument %r" % attached)])
    raise _Help(_usage(command))


def _integer(flag, text) -> int:
    """A flag's integer: an optional '-' and ASCII digits.  int() alone would
    also take ' 3', '+3', '3_0' and other scripts' digits."""
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:
            pass  # more digits than int() converts
    raise DocumentError([(flag, "invalid int value: %r" % text)])


def parse_args(argv) -> SimpleNamespace:
    """The values of a command line, read by the grammar tables.

    A flag's value follows it or is attached with '=', a unique prefix names
    a flag, and the last repeat wins; a token that starts with '-' is a
    value only when it reads as a negative number (or holds a space).  This
    is the language the argparse parser of ``tests/oracles.argparse_reference``
    accepts, with the same values, except that an integer is an optional '-'
    and ASCII digits.  Any other command line, and any with a bare '--',
    raises ``DocumentError`` with one located line in argparse's words;
    -h or --help raises ``_Help``.
    """
    argv = list(argv)
    extras = []
    for at, token in enumerate(argv):
        option = _option(token, HELP)
        if option is None:
            break
        if option[0] is None:
            extras.append(token)
        else:
            _help(*option)
    else:
        raise DocumentError([("command", "the following arguments are required")])
    command, rest = argv[at], argv[at + 1:]
    if command not in COMMANDS:
        raise DocumentError([("command", "invalid choice: %r (choose from %s)"
                              % (command, ", ".join(COMMANDS)))])
    flags = {row[0]: row for row in FLAGS if row[4] is None or command in row[4]}
    options = [_option(token, HELP + tuple(flags)) for token in rest]
    values = {"command": command}
    values.update((flag[2:], default) for flag, _, default, _, _ in flags.values())
    at = 0
    while at < len(rest):
        flag, attached = options[at] or (None, None)
        if flag is None:
            extras.append(rest[at])
        elif flag in HELP:
            _help(flag, attached, command)
        elif flags[flag][1] is None:
            if attached is not None:
                raise DocumentError([(flag, "ignored explicit argument %r" % attached)])
            values[flag[2:]] = True
        else:
            if attached is None:
                if at + 1 == len(rest) or options[at + 1] is not None:
                    raise DocumentError([(flag, "expected one argument")])
                at += 1
                attached = rest[at]
            values[flag[2:]] = _integer(flag, attached) if flags[flag][1] is int else attached
        at += 1
    missing = [flag for flag in flags if values[flag[2:]] is REQUIRED]
    if missing:
        raise DocumentError([(", ".join(missing), "the following arguments are required")])
    if extras:
        raise DocumentError([("unrecognized arguments", " ".join(extras))])
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        doc = _load(args)
        try:
            return COMMANDS[args.command](args, doc)
        except ArityError as exc:
            # a command asked for an arity past K: located where K was set
            raise DocumentError([("cutoffs.arity" if args.kmax is None else "--kmax", str(exc))])
    except _Help as shown:
        _print(str(shown))
        return 0
    except DocumentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
