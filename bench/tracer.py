"""Per-layer tracing of the ainfty package, installed from outside it.

The tracer wraps public functions and methods of the engine's modules after
they are imported.  A plain function can be bound under several names (for
example `maltese` is imported into `ainfty` and `hochschild`), so every
module attribute that holds the original object is replaced, and the names
replaced are recorded.

Boundary calls (commands, checkers, operators) become spans with a name,
start, end and the index of the enclosing span.  Hot leaves (ring
operations, `m_word`, `eval_word`, `maltese`) are only aggregated into
counters and times, so memory stays bounded.  Everything stays in memory
until `dump` writes it out.

Self time of a timed call is its duration minus the durations of the timed
calls made inside it; calls that are only counted do not enter that sum.
"""

from __future__ import annotations

import json
import sys
import time

MAX_SPANS = 200_000

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _checked(args, result, extra):
    extra["words"] += result.checked


def _mul_terms(args, result, extra):
    a, b = args
    if hasattr(b, "terms"):
        extra["term_pairs"] += len(a.terms) * len(b.terms)
        extra["kept"] += len(result.terms)


def _b_terms(args, result, extra):
    extra["terms_in"] += len(args[1].terms)
    extra["terms_out"] += len(result.terms)


def _nonzero(args, result, extra):
    if result:
        extra["nonzero"] += 1


class _MWordCache:
    """Counts first calls per (algebra, word), i.e. cache entries filled."""

    def __init__(self):
        self.seen = {}

    def __call__(self, args, result, extra):
        algebra, word = args
        # Holding the algebra keeps its id from being reused by a new one.
        entry = self.seen.setdefault(id(algebra), (algebra, set()))
        if word not in entry[1]:
            entry[1].add(word)
            extra["misses"] += 1
        if not result:
            extra["empty"] += 1


# (metric prefix, module, attribute path, kind, post-call hook); a hook that
# is a class is instantiated once per tracer.
TARGETS = [
    ("document.load", "document", "load", SPAN, None),
    ("coeff.mul", "coeff", "RingElement.__mul__", LEAF, _mul_terms),
    ("coeff.add", "coeff", "RingElement.__add__", LEAF, None),
    ("coeff.scale", "coeff", "RingElement.scale", LEAF, None),
    ("coeff.init", "coeff", "RingElement.__init__", COUNT, None),
    ("coeff.poly_mul", "coeff", "Poly.__mul__", COUNT, None),
    ("coeff.text", "coeff", "RingElement.text", LEAF, None),
    ("graded.maltese", "graded", "maltese", COUNT, None),
    ("graded.add_term", "graded", "add_term", COUNT, None),
    ("ainfty.m_word", "ainfty", "AInftyAlgebra.m_word", LEAF, _MWordCache),
    ("ainfty.check_ainfty", "ainfty", "check_ainfty", SPAN, _checked),
    ("ainfty.check_strict_unit", "ainfty", "check_strict_unit", SPAN, None),
    ("ainfty.apply_m", "ainfty", "apply_m", SPAN, None),
    ("ainfty.check_bimodule_hom", "ainfty", "check_bimodule_hom", SPAN, _checked),
    ("ainfty.delta_diagonal", "ainfty", "delta_diagonal", SPAN, None),
    ("ainfty.delta_dual", "ainfty", "delta_dual", SPAN, None),
    ("ainfty.phi_hat", "ainfty", "phi_hat", SPAN, None),
    ("ainfty.curvature", "ainfty", "curvature", SPAN, None),
    ("ainfty.check_weak_mc", "ainfty", "check_weak_mc", SPAN, None),
    ("hochschild.hochschild_b", "hochschild", "hochschild_b", SPAN, _b_terms),
    ("hochschild.chain_bar", "hochschild", "chain_bar", SPAN, None),
    ("hochschild.connes_B_reduced", "hochschild", "connes_B_reduced", SPAN, None),
    ("hochschild.cyclic_t", "hochschild", "cyclic_t", SPAN, None),
    ("hochschild.operator_N", "hochschild", "operator_N", SPAN, None),
    ("hochschild.validate_negative_cocycle", "hochschild", "validate_negative_cocycle",
     SPAN, None),
    ("hochschild.Functional.apply", "hochschild", "Functional.apply", SPAN, None),
    ("pairing.eval_word", "pairing", "InfinityInnerProduct.eval_word", LEAF, _nonzero),
    ("pairing.eval_elements", "pairing", "InfinityInnerProduct.eval_elements", SPAN, None),
    ("pairing.build_phi", "pairing", "build_phi", SPAN, None),
    ("pairing.check_skew", "pairing", "check_skew", SPAN, None),
    ("pairing.check_closed", "pairing", "check_closed", SPAN, None),
    ("pairing.trace_identity", "pairing", "trace_identity", SPAN, None),
    ("potential.infty_cyclic_potential", "potential", "infty_cyclic_potential", SPAN, None),
    ("potential.gauge_invariance_check", "potential", "gauge_invariance_check", SPAN, None),
    ("potential.wall_crossing_decomposition", "potential", "wall_crossing_decomposition",
     SPAN, None),
    ("potential.wall_crossing_report", "potential", "wall_crossing_report", SPAN, None),
    ("cli.chain_identity_suite", "cli", "chain_identity_suite", SPAN, None),
    ("cli._emit", "cli", "_emit", SPAN, None),
]

# Binding sites that must be replaced, or calls through them would escape the
# trace; the self-test checks that `install` finds them all.
REQUIRED_SITES = [
    "ainfty.cli.load",
    "ainfty.ainfty.maltese",
    "ainfty.hochschild.maltese",
    "ainfty.ainfty.add_term",
    "ainfty.potential.apply_m",
    "ainfty.potential.curvature",
    "ainfty.potential.check_weak_mc",
    "ainfty.pairing.apply_m",
    "ainfty.pairing.validate_negative_cocycle",
]

# Exported per-layer metrics: (name, unit).  Each `<prefix>.<stat>` is read
# from the tracer's statistics by `Tracer.metrics`.
METRICS = [
    ("document.load.calls", "count"),
    ("document.load.total_s", "s"),
    ("coeff.mul.calls", "count"),
    ("coeff.mul.self_s", "s"),
    ("coeff.mul.term_pairs", "count"),
    ("coeff.mul.kept_ratio", "ratio"),
    ("coeff.add.calls", "count"),
    ("coeff.add.self_s", "s"),
    ("coeff.scale.calls", "count"),
    ("coeff.scale.self_s", "s"),
    ("coeff.init.calls", "count"),
    ("coeff.poly_mul.calls", "count"),
    ("coeff.text.calls", "count"),
    ("coeff.text.self_s", "s"),
    ("graded.maltese.calls", "count"),
    ("graded.add_term.calls", "count"),
    ("ainfty.m_word.calls", "count"),
    ("ainfty.m_word.misses", "count"),
    ("ainfty.m_word.hit_ratio", "ratio"),
    ("ainfty.m_word.empty_ratio", "ratio"),
    ("ainfty.check_ainfty.total_s", "s"),
    ("ainfty.check_ainfty.words", "count"),
    ("ainfty.check_strict_unit.total_s", "s"),
    ("ainfty.apply_m.calls", "count"),
    ("ainfty.apply_m.total_s", "s"),
    ("ainfty.check_bimodule_hom.total_s", "s"),
    ("ainfty.check_bimodule_hom.self_s", "s"),
    ("ainfty.check_bimodule_hom.words", "count"),
    ("ainfty.delta_diagonal.calls", "count"),
    ("ainfty.delta_diagonal.total_s", "s"),
    ("ainfty.delta_dual.calls", "count"),
    ("ainfty.delta_dual.total_s", "s"),
    ("ainfty.phi_hat.calls", "count"),
    ("ainfty.phi_hat.total_s", "s"),
    ("ainfty.phi_hat.self_s", "s"),
    ("ainfty.curvature.calls", "count"),
    ("ainfty.curvature.total_s", "s"),
    ("ainfty.check_weak_mc.calls", "count"),
    ("ainfty.check_weak_mc.total_s", "s"),
] + [
    ("hochschild.%s.%s" % (op, stat), unit)
    for op in ("hochschild_b", "chain_bar", "connes_B_reduced", "cyclic_t", "operator_N")
    for stat, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))
] + [
    ("hochschild.hochschild_b.terms_in", "count"),
    ("hochschild.hochschild_b.terms_out", "count"),
    ("hochschild.validate_negative_cocycle.calls", "count"),
    ("hochschild.validate_negative_cocycle.total_s", "s"),
    ("hochschild.Functional.apply.calls", "count"),
    ("hochschild.Functional.apply.total_s", "s"),
    ("pairing.eval_word.calls", "count"),
    ("pairing.eval_word.self_s", "s"),
    ("pairing.eval_word.nonzero_ratio", "ratio"),
    ("pairing.eval_elements.calls", "count"),
    ("pairing.eval_elements.total_s", "s"),
    ("pairing.build_phi.calls", "count"),
    ("pairing.build_phi.total_s", "s"),
    ("pairing.check_skew.total_s", "s"),
    ("pairing.check_closed.total_s", "s"),
    ("pairing.trace_identity.total_s", "s"),
    ("potential.infty_cyclic_potential.calls", "count"),
    ("potential.infty_cyclic_potential.total_s", "s"),
    ("potential.gauge_invariance_check.total_s", "s"),
    ("potential.wall_crossing_decomposition.calls", "count"),
    ("potential.wall_crossing_decomposition.total_s", "s"),
    ("potential.wall_crossing_report.total_s", "s"),
    ("cli.chain_identity_suite.total_s", "s"),
    ("cli._emit.total_s", "s"),
]

# Ratio stat -> (numerator, denominator), both fields of the same prefix.  A
# ratio over zero attempts reads 0.
RATIOS = {
    "kept_ratio": ("kept", "term_pairs"),
    "hit_ratio": ("hits", "calls"),
    "empty_ratio": ("empty", "calls"),
    "nonzero_ratio": ("nonzero", "calls"),
}


def _resolve(owner, path):
    """(object holding the last name, last name) for a dotted attribute path."""
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Stat:
    """Aggregates of one wrapped function; `extra` holds the post-hook counts."""

    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra = {"words": 0, "term_pairs": 0, "kept": 0, "terms_in": 0,
                      "terms_out": 0, "nonzero": 0, "misses": 0, "empty": 0}


class Tracer:
    """Wraps the targets, keeps spans and aggregates in memory, dumps them."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stats = {}
        # One list per open timed call: [time spent in timed children, span index].
        self.stack = []
        self.spans = []
        self.spans_dropped = 0
        self.sites = []
        self.missing = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, kind, post):
        stat = self.stats.setdefault(name, Stat())
        extra = stat.extra
        if kind == COUNT:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack, clock, spans = self.stack, self.clock, self.spans
        is_span = kind == SPAN

        def timed(*args, **kwargs):
            index = -1
            if is_span:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    spans.append([name, 0.0, 0.0, parent])
                else:
                    self.spans_dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    spans[index][1] = start
                    spans[index][2] = end
            if post is not None:
                post(args, result, extra)
            return result

        return timed

    def install(self, package="ainfty"):
        """Wrap every target and replace each module attribute bound to it.

        A target the package no longer has is skipped and listed in
        `missing`; its metrics read 0.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module, path, kind, post in TARGETS:
            try:
                owner, attr = _resolve(sys.modules["%s.%s" % (package, module)], path)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(post, type):
                post = post()
            wrapped = self._wrap(name, original, kind, post)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self.sites.append("%s.%s.%s" % (package, module, path))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self.sites.append("%s.%s" % (mod.__name__, key))
        commands = getattr(sys.modules[package + ".cli"], "COMMANDS", {})
        for command, fn in list(commands.items()):
            commands[command] = self._wrap("cli.cmd_" + command, fn, SPAN, None)
            self.sites.append("%s.cli.COMMANDS[%r]" % (package, command))

    # -- results ------------------------------------------------------------

    def _value(self, prefix, stat_name):
        stat = self.stats.get(prefix) or Stat()
        fields = dict(stat.extra, calls=stat.calls, total_s=stat.total_s,
                      self_s=stat.self_s, hits=stat.calls - stat.extra["misses"])
        if stat_name in RATIOS:
            num, den = RATIOS[stat_name]
            return fields[num] / fields[den] if fields[den] else 0.0
        return fields[stat_name]

    def metrics(self) -> dict:
        out = {}
        for name, unit in METRICS:
            prefix, stat_name = name.rsplit(".", 1)
            out[name] = {"value": self._value(prefix, stat_name), "unit": unit}
        return out

    def dump(self, path, extra=None):
        stats = {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                        **{k: v for k, v in s.extra.items() if v}}
                 for name, s in sorted(self.stats.items())}
        with open(path, "w") as handle:
            json.dump({"sites": self.sites, "missing": self.missing, "stats": stats,
                       "spans_fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "spans_dropped": self.spans_dropped,
                       **(extra or {})}, handle)
