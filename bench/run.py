"""The ainfty benchmark: time from `ainfty <cmd>` to a correct report.

    python3 bench/run.py --workload check-g1 --seed 7 --seconds 30 --trace 0

Run it from anywhere; the repository root is the parent of this directory.
Load model: closed loop, one client.  One child interpreter at a time runs a
workload's CLI commands (see child.py), so every sample pays import, document
load and the `m_word` cache fill, as a user does on every invocation.

With `--trace 0`, samples run back to back for `--seconds` and the end-to-end
metrics are medians over them; before each sample, set-up-only children add
set-up samples.  With `--trace 1`, one traced child gives the per-layer
metrics and untraced samples fill the rest of the time, for the overhead
ratio.  Every sample is gated: exit code 0 for every command, no FAIL line,
the pinned `checked` total, and report bytes equal to the pinned digest (or,
for a seed without one, to the run's first sample).  The last line printed is
the JSON result; the lines before it give provenance, the reason for the
workload and the per-metric spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, commands

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SOURCE = os.path.join(ROOT, "src", "ainfty")
# Generated inputs and traces; commands name them relative to ROOT.
WORK = ".bench_work"

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
# Per-layer metrics the traced run adds to the tracer's own: the traced
# verdict time and its ratio to the untraced median.
TRACE_METRICS = [("trace.verdict_s", "s"), ("trace.overhead_ratio", "ratio")]
SETUP_ONLY_PER_SAMPLE = 3
MIN_SAMPLES = 3
# Every child is killed by this many seconds after the run started, so a hung
# program still ends the run within the 180 s a run may take.
DEADLINE_S = 170.0
STARTED = time.perf_counter()


def run_child(cmds, setup_only=False, trace=None):
    """Run child.py once; (result dict or None, error text)."""
    argv = [sys.executable, os.path.join(BENCH, "child.py"), "--commands", json.dumps(cmds)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace", trace]
    # A fixed hash seed makes set and dict layouts, and so timings, repeat.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "child exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    return json.loads(lines[-1]), ""


def gate(workload, seed, result, reference):
    """Reasons the sample is not a correct run (empty when it is)."""
    reasons = []
    if any(code != 0 for code in result["exit_codes"]):
        reasons.append("exit codes %s" % result["exit_codes"])
    if result["fail_lines"]:
        reasons.append("%d FAIL reports" % result["fail_lines"])
    if result["checked"] != workload.checked:
        reasons.append("checked %d, pinned %d" % (result["checked"], workload.checked))
    expected = workload.pinned_digest(seed) or reference
    if expected and result["sha256"] != expected:
        reasons.append("report digest %s, expected %s" % (result["sha256"][:16], expected[:16]))
    return reasons


class Samples:
    """The samples of one benchmark run and their gate outcome."""

    def __init__(self, workload, seed, cmds):
        self.workload, self.seed, self.cmds = workload, seed, cmds
        self.results = []
        self.setup = []
        self.failures = []
        self.attempted = 0
        self.reference = None

    def run(self, trace=None):
        """One gated sample; its result, or None if the child did not finish."""
        self.attempted += 1
        result, error = run_child(self.cmds, trace=trace)
        if result is None:
            self.failures.append(error)
            return None
        reasons = gate(self.workload, self.seed, result, self.reference)
        if reasons:
            self.failures.append("; ".join(reasons))
        elif self.reference is None:
            self.reference = result["sha256"]
        return result

    def run_setup_only(self):
        result, error = run_child(self.cmds, setup_only=True)
        if result is None:
            raise RuntimeError("set-up child failed: " + error)
        self.setup.append(result["setup_s"])

    def values(self, name):
        if name == "setup_s":
            return self.setup + [r["setup_s"] for r in self.results]
        return [r[name] for r in self.results]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SOURCE):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _spread(values):
    """Median, quartiles and the highest percentile with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    q1, median, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    tail = None
    if n - 10 > n / 2:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"n": n, "median": median, "q1": q1, "q3": q3, "tail": tail, "max": ordered[-1]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print("error: no ainfty sources under %s" % SOURCE, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[opts.workload]
    workdir = os.path.join(WORK, "%s-seed%d" % (workload.name, opts.seed))
    os.makedirs(workdir, exist_ok=True)
    cmds = commands(workload.name, opts.seed, workdir)
    # Byte-compile first, as an installed package is; the first import after
    # an edit would otherwise pay for compilation inside set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SOURCE], check=True,
                   stdout=subprocess.DEVNULL)
    run_child(cmds, setup_only=True)  # warms the file cache; not a sample
    samples = Samples(workload, opts.seed, cmds)

    started = time.perf_counter()
    traced = samples.run(trace=os.path.join(workdir, "trace.json")) if opts.trace else None
    wanted = 1 if opts.trace else MIN_SAMPLES
    while len(samples.results) < wanted or time.perf_counter() - started < opts.seconds:
        if samples.attempted >= MIN_SAMPLES and not samples.results:
            break
        if not opts.trace:
            for _ in range(SETUP_ONLY_PER_SAMPLE):
                samples.run_setup_only()
        result = samples.run()
        if result is not None:
            samples.results.append(result)

    failed = len(samples.failures)
    provenance = {
        "workload": workload.name, "why": workload.why, "seed": opts.seed,
        "trace": opts.trace, "commands": cmds, "samples": samples.attempted,
        "error_rate": failed / samples.attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "commit": _commit(), "source_sha256": _source_digest(),
        "load_model": "closed loop, one client, one child interpreter at a time",
    }
    print("provenance " + json.dumps(provenance))
    if not samples.results or (opts.trace and traced is None):
        for failure in samples.failures:
            print("failure " + failure, file=sys.stderr)
        print("error: no sample completed", file=sys.stderr)
        return 1
    for name, unit in END_TO_END:
        print("spread %s %s %s" % (name, unit, json.dumps(_spread(samples.values(name)))))
    for failure in samples.failures:
        print("failure " + failure)

    if opts.trace:
        if traced["trace_missing"]:
            print("trace-missing " + " ".join(traced["trace_missing"]))
        metrics = dict(traced["per_layer"])
        untraced = statistics.median(samples.values("verdict_s"))
        for (name, unit), value in zip(TRACE_METRICS,
                                       (traced["verdict_s"], traced["verdict_s"] / untraced)):
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": statistics.median(samples.values(name)), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": samples.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
