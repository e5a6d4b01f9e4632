"""Command-line interface: load a document, run checks, emit reports.

Subcommands: check, cocycle, mc, potential, gauge, wallcross.  Every report
echoes the cutoffs and the seed in force, so a pass is always a bounded and
reproducible claim.  Output is deterministic for fixed inputs and flags:
exact arithmetic, canonical term ordering, fixed iteration orders.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import ainfty as core
from . import hochschild as hh
from . import pairing as pr
from . import potential as pt
from .coeff import RingElement, as_fraction
from .document import load
from .errors import ConfigurationError, DocumentError, EngineError
from .graded import Element
from .report import Report

DEFAULT_SEED = 20240601


def _random_reduced_chain(algebra, rng, max_len=5):
    basis = algebra.basis
    letters = basis.reduced_letters()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        module = rng.randrange(len(basis))
        coeff = RingElement.monomial(
            algebra.spec,
            Fraction(rng.randint(-3, 3)),
            lam=Fraction(rng.randint(0, 2), 2),
            e=rng.randint(-1, 1),
        )
        if coeff:
            terms[(module, word)] = coeff
    return hh.HochschildChain(basis, terms, reduced=True)


def chain_identity_suite(algebra, count, seed, max_len=5) -> Report:
    """Randomized differential and rotation identities, exact per chain."""
    rng = random.Random(seed)
    report = Report("chain-identities")
    report.note("E_max", algebra.spec.cutoff)
    report.note("chains", count)
    report.note("max_length", max_len)
    report.note("seed", seed)
    basis = algebra.basis
    for n in range(count):
        c = _random_reduced_chain(algebra, rng, max_len)
        u = c.unreduced()
        bc = hh.hochschild_b(algebra, c)
        Bc = hh.connes_B_reduced(basis, c)
        bar_u = hh.chain_bar(algebra, u)
        checks = [
            ("b^2", hh.hochschild_b(algebra, bc)),
            ("B^2", hh.connes_B_reduced(basis, Bc)),
            ("bB+Bb", hh.hochschild_b(algebra, Bc) + hh.connes_B_reduced(basis, bc)),
            ("b'^2", hh.chain_bar(algebra, bar_u)),
            ("b(1-t)-(1-t)b'",
             hh.hochschild_b(algebra, u - hh.cyclic_t(basis, u))
             - (bar_u - hh.cyclic_t(basis, bar_u))),
            ("b'N-Nb", hh.chain_bar(algebra, hh.operator_N(basis, u))
             - hh.operator_N(basis, hh.hochschild_b(algebra, u))),
        ]
        report.tick(len(checks))
        for tag, value in checks:
            if not value.is_zero():
                report.fail("%s nonzero on chain #%d: %s" % (tag, n, value.text()))
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
        with open(args.report, "w") as handle:
            handle.write(text + "\n")
    print(text)
    return 0 if ok else 1


def _load(args):
    doc = load(args.input)
    if args.emax is not None:
        from .document import retruncate

        doc = retruncate(doc, as_fraction(args.emax))
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
    for flag, field, override, value in (
        ("--kmax", "cutoffs.arity", args.kmax, algebra.k_max),
        ("--lmax", "cutoffs.word_length", args.lmax, algebra.l_max),
        ("--nmax", "cutoffs.n_max", args.nmax, algebra.n_max),
    ):
        if value < 0:
            errors.append((field if override is None else flag, "must be >= 0"))
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


def cmd_cocycle(args, doc) -> int:
    algebra = doc.algebra
    reports = []
    if not doc.towers:
        raise DocumentError([("towers", "the cocycle command needs a tower section")])
    for name, tower in doc.towers.items():
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
    name = args.tower or next(iter(doc.towers))
    if name not in doc.towers:
        raise DocumentError([("--tower", "unknown tower %r" % name)])
    return name, pr.build_phi(doc.algebra, doc.towers[name])


def cmd_potential(args, doc) -> int:
    algebra = doc.algebra
    tower_name, phi = _phi_for(doc, args)
    m_minus_one = doc.m_minus_one or RingElement.zero(algebra.spec)
    reports = []
    for name, b in doc.candidates.items():
        rep = Report("potential:%s" % name)
        rep.note("E_max", algebra.spec.cutoff)
        rep.note("tower", tower_name)
        value = pt.infty_cyclic_potential(algebra, phi, b)
        rep.note("Phi'", value.text())
        rep.note("Phi", (m_minus_one + value).text())
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
        gw = doc.gw_tilde or RingElement.zero(algebra.spec)
        m_minus_one = doc.m_minus_one or RingElement.zero(algebra.spec)
        minus = pt.PotentialInput(algebra, phi, doc.candidates[minus_name], m_minus_one, gw)
        plus = pt.PotentialInput(algebra, phi, doc.candidates[plus_name], m_minus_one, gw)
        rep = Report("wall-crossing")
        rep.note("E_max", algebra.spec.cutoff)
        rep.note("tower", tower_name)
        rep.note("minus", minus_name)
        rep.note("plus", plus_name)
        result = pt.wall_crossing_report(minus, plus)
        rep.note("Phi(minus)", result.minus_value.text())
        rep.note("Phi(plus)", result.plus_value.text())
        rep.note("GW", result.gw.text())
        rep.tick()
        if not result.passed:
            rep.fail("residual %s" % result.residual.text())
        reports.append(rep)
    return _emit(reports, args, doc)


COMMANDS = {
    "check": cmd_check,
    "cocycle": cmd_cocycle,
    "mc": cmd_mc,
    "potential": cmd_potential,
    "gauge": cmd_gauge,
    "wallcross": cmd_wallcross,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ainfty",
        description="exact verification engine for curved A-infinity algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "relations, strict unit, chain-level identities"),
        ("cocycle", "tower validation plus inner-product checks"),
        ("mc", "weak Maurer-Cartan check, optionally order-by-order solving"),
        ("potential", "cyclic and full potentials of the candidates"),
        ("gauge", "gauge path check: MC over the extended ring, d/dt = 0"),
        ("wallcross", "wall-crossing decomposition and pair report"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="document path")
        p.add_argument("--emax", default=None, help="energy cutoff override (fraction)")
        p.add_argument("--kmax", type=int, default=None, help="arity cutoff override")
        p.add_argument("--lmax", type=int, default=None, help="word-length cutoff override")
        p.add_argument("--nmax", type=int, default=None, help="level cutoff override")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for randomized suites (default %d)" % DEFAULT_SEED)
        p.add_argument("--report", default=None, help="also write the report to this path")
        if name == "check":
            p.add_argument("--chains", type=int, default=200,
                           help="random chains for the identity suite")
        if name == "mc":
            p.add_argument("--solve", action="store_true",
                           help="run the order-by-order solver from the seed candidate")
        if name in ("cocycle", "potential", "gauge", "wallcross"):
            p.add_argument("--tower", default=None, help="tower name (default: first)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load(args)
        return COMMANDS[args.command](args, doc)
    except DocumentError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except EngineError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
