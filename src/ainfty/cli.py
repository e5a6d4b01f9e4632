"""Command-line interface: load a document, run checks, emit reports.

Subcommands: check, cocycle, mc, potential, gauge, wallcross.  Every report
echoes the cutoffs and the seed in force, so a pass is always a bounded and
reproducible claim.  Output is deterministic for fixed inputs and flags:
exact arithmetic, canonical term ordering, fixed iteration orders.

``check``'s chain identity suite evaluates the identities once per
distinct basis key of its seeded chains and once more per chain that has a
failing key (see ``chain_identity_suite`` for why that is exact).  It draws
its chains as raw term maps and passes them to
``hochschild.identity_residuals`` as they are, so no ``HochschildChain`` is
built; a failing residual is printed by ``hochschild.chain_text``.  The
argument parser is built on the first ``main`` call and reused by later
calls in the same process.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction

from . import ainfty as core
from . import hochschild as hh
from . import pairing as pr
from . import potential as pt
from .coeff import as_fraction
from .document import load, load_dict, not_a_fraction
from .errors import ConfigurationError, DocumentError, EngineError
from .graded import Element
from .report import Report

DEFAULT_SEED = 20240601


def _draw_monomials(spec) -> dict:
    """The monomials T^lam e^m of the seeded draw, keyed (2 lam, m) for lam
    in {0, 1/2, 1} and m in {-1, 0, 1}; None where the level cutoff drops
    the monomial."""
    top = spec.level_cutoff
    monomials = {}
    for half in range(3):
        for e in (-1, 0, 1):
            mono = spec.monomial(lam=Fraction(half, 2), e=e)
            monomials[half, e] = mono if mono.lvl <= top else None
    return monomials


def _random_reduced_chain(algebra, rng, max_len, monomials):
    """The raw map of a seeded reduced chain of one to four terms
    c T^lam e^m [v|w].

    Per term the draws are the word length, its letters, the module v, then
    c in -3..3, 2 lam in 0..2 and m in -1..1; a term whose coefficient is
    zero is skipped.  ``monomials`` is ``_draw_monomials`` of the algebra's
    ring.
    """
    basis = algebra.basis
    letters = basis.reduced_letters()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        module = rng.randrange(len(basis))
        c = rng.randint(-3, 3)
        mono = monomials[rng.randint(0, 2), rng.randint(-1, 1)]
        if c and mono is not None:
            terms[(module, word)] = {mono: c}
    return terms


def _vanishes(raw: dict) -> bool:
    """Is a raw residual map {key: {Monomial: scalar}} zero?"""
    return not any(any(terms.values()) for terms in raw.values())


def chain_identity_suite(algebra, count, seed, max_len=5) -> Report:
    """Randomized differential and rotation identities, exact per chain.

    Six identities are checked on ``count`` seeded reduced chains of up to
    four terms c = sum_k a_k key_k: b^2, B^2, bB+Bb, b'^2, b(1-t)-(1-t)b'
    and b'N-Nb, six counted per chain.  ``hh.identity_residuals`` forms the
    three that can fail, b^2, bB+Bb and b'^2; the other three hold at every
    chain of every algebra that loads, B^2 because B(c) has no key that B
    reads and the rotation identities because every entry of a loaded
    table has the A-infinity degree (proofs in ``hh.identity_residuals``),
    so they are counted and never fail.  Each distinct basis key
    (module, word) of the drawn chains is checked once, as the chain key
    with coefficient 1, and a chain all of whose keys pass passes; any
    other chain is evaluated exactly, and its failures are reported from
    that evaluation.  This is exact, not a sample of a sample:

      * every operator b, B, b', t, N and the reduced quotient is linear
        over the coefficient ring: it multiplies a chain's coefficients by
        structure constants or signs, with no sign taken from a scalar, so
        each residual R satisfies R(a x) = a R(x) before truncation;
      * levels are nonnegative and add under products, so the level cutoff
        is an ideal: truncating op(key) before scaling by a_k drops only
        products whose level already exceeds the cutoff, which ``mul_into``
        would drop anyway in op(a_k key);
      * so R(sum_k a_k key_k) = sum_k a_k R(key_k) holds exactly modulo
        T^{>E_max}, and R(c) is zero when every R(key_k) is;
      * the drawn coefficients c T^lambda e^m have even degree.  Under a
        convention in which a scalar of odd degree (``t_degrees``) picked
        up a sign crossing an operator, R(a x) = +-a R(x): a sign can at
        most flip a zero, so the argument would still hold.

    Report lines are those of the per-chain evaluation of every chain.  The
    cost is one evaluation per distinct key (on G1 at the default seed,
    231 keys for 200 chains of 421 terms) plus one per chain that fails;
    the certificates live only for this call.  An evaluation reads b'^2
    and b^2 off the curved relation residuals that ``check_ainfty``
    reports, and the wrap-arounds of bB+Bb off the strict-unit residuals
    (see ``hh.identity_residuals``).  Where the relations and unit laws
    hold, b is formed only on the keys whose module is the unit: on G1 at
    K = 8 and the default seed the suite makes 272 ``coeff.mul_into``
    calls.  The draws share one table of their nine monomials.
    """
    rng = random.Random(seed)
    report = Report("chain-identities")
    report.note("E_max", algebra.spec.cutoff)
    report.note("chains", count)
    report.note("max_length", max_len)
    report.note("seed", seed)
    one = algebra.one_ring().terms
    monomials = _draw_monomials(algebra.spec)
    verdicts = {}

    def certified(key):
        """Do the identities hold at the key with coefficient 1?"""
        if key not in verdicts:
            verdicts[key] = all(
                _vanishes(raw) for _, raw in hh.identity_residuals(algebra, {key: one}))
        return verdicts[key]

    for n in range(count):
        c = _random_reduced_chain(algebra, rng, max_len, monomials)
        report.tick(6)
        if all(certified(key) for key in c):
            continue
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
    print(text)
    return 0 if ok else 1


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


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by the next
    ones in the process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
