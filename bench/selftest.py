"""Self-tests of the benchmark.

    python3 bench/selftest.py

1. A traced and an untraced sample of check-g1 produce identical report bytes,
   equal to the pinned digest.
2. Two traced samples on the same seed give identical per-layer counts, and
   the tracer found every target and every binding site it must replace.
3. The gate fails a sample whose document has one sign flipped: negating the
   output of m2(z,1) in g1_gauge.json makes `check` exit 1.
4. BENCHMARK.json names exactly the workloads and metrics the code emits.

Exits 1 and names the failed checks if any fails.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import sys

from run import END_TO_END, ROOT, TRACE_METRICS, WORK, gate, run_child
from tracer import METRICS, REQUIRED_SITES
from workloads import CORPUS, DEFAULT_SEED, WORKLOADS, commands

COUNT_UNITS = ("count", "ratio")


def _sign_flipped_g1(path):
    with open(os.path.join(CORPUS, "g1_gauge.json")) as handle:
        raw = json.load(handle)
    (op,) = [op for op in raw["operations"] if op["inputs"] == ["z", "1"]]
    for term in op["output"]:
        term["coeff"] = str(-int(term["coeff"]))
    with open(path, "w") as handle:
        json.dump(raw, handle)


def main() -> int:
    os.chdir(ROOT)
    workdir = os.path.join(WORK, "selftest")
    os.makedirs(workdir, exist_ok=True)
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    check = WORKLOADS["check-g1"]
    cmds = commands(check.name, DEFAULT_SEED, workdir)
    plain, error = run_child(cmds)
    expect(plain is not None, "untraced sample failed: %s" % error)
    traced = [run_child(cmds, trace=os.path.join(workdir, "trace%d.json" % i))[0]
              for i in range(2)]
    expect(None not in traced, "a traced sample failed")
    if plain is not None and None not in traced:
        digests = {plain["sha256"]} | {t["sha256"] for t in traced}
        expect(digests == {check.digest},
               "traced and untraced report bytes differ: %s" % sorted(digests))
        counts = [{k: v["value"] for k, v in t["per_layer"].items() if v["unit"] in COUNT_UNITS}
                  for t in traced]
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        expect(not differing, "per-layer counts differ between traced runs: %s" % differing)
        with open(os.path.join(workdir, "trace0.json")) as handle:
            dump = json.load(handle)
        expect(not dump["missing"], "trace targets not found: %s" % dump["missing"])
        unpatched = sorted(set(REQUIRED_SITES) - set(dump["sites"]))
        expect(not unpatched, "binding sites not traced: %s" % unpatched)

    flipped = os.path.join(workdir, "g1_gauge_flipped.json")
    _sign_flipped_g1(flipped)
    bad_cmds = [[arg if arg != cmds[0][2] else flipped for arg in cmds[0]]]
    bad, error = run_child(bad_cmds)
    expect(bad is not None and bad["exit_codes"] == [1],
           "sign-flipped document: expected exit 1, got %s" % (bad or error))
    if bad is not None:
        expect(gate(check, DEFAULT_SEED, bad, None) != [],
               "gate passed a sample of the sign-flipped document")

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == METRICS + TRACE_METRICS,
           "BENCHMARK.json per_layer differs from tracer.METRICS + run.TRACE_METRICS")

    for failure in failures:
        print("FAIL " + failure)
    print("selftest: %s" % ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
