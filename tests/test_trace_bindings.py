"""The benchmark tracer still finds, and can run, every function it wraps.

`bench/tracer.py` wraps engine functions from outside the package and
replaces each module attribute bound to them.  A refactor that renames a
traced function or drops a binding site would make its per-layer metrics
read 0, and one that changes what a traced function returns can make a
post-call hook raise, so that every traced sample crashes; these tests catch
both in the fast suite, on a `check` run and on the command lines of the
benchmark's cocycle-g1 and potential-g1 workloads.  They only read `bench/`.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import json
import ainfty.cli
from tracer import REQUIRED_SITES, Tracer
tracer = Tracer()
tracer.install()
print(json.dumps({"missing": tracer.missing,
                  "unbound": sorted(set(REQUIRED_SITES) - set(tracer.sites))}))
"""


TRACED_CHECK = """
import contextlib, io, json, os
import ainfty
from ainfty.cli import main
from tracer import Tracer
argv = ["check", "--input", os.path.join(os.path.dirname(ainfty.__file__), "corpus",
                                         "g1_gauge.json"), "--chains", "20"]

def run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, out.getvalue()]

plain = run()
tracer = Tracer()
tracer.install()
traced = run()
print(json.dumps({"plain": plain, "traced": traced,
                  "suite_calls": tracer.stats["cli.chain_identity_suite"].calls}))
"""


# argv: workload name, directory for its generated inputs
TRACED_WORKLOAD = """
import contextlib, io, json, sys
from ainfty.cli import main
from tracer import Tracer
from workloads import DEFAULT_SEED, commands
lines = commands(sys.argv[1], DEFAULT_SEED, sys.argv[2])

def run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [main(argv) for argv in lines]
    return [codes, out.getvalue()]

plain = run()
tracer = Tracer()
tracer.install()
traced = run()
print(json.dumps({"plain": plain, "traced": traced, "missing": tracer.missing}))
"""


def _probe(source, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", source, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracer_finds_every_target_and_binding_site():
    assert _probe(PROBE) == {"missing": [], "unbound": []}


def test_traced_check_prints_the_untraced_report():
    # a hook that raises (say, on an operator that returned no chain) ends the
    # traced run with a traceback, and the probe with a nonzero status
    result = _probe(TRACED_CHECK)
    assert result["traced"] == result["plain"]
    assert result["plain"][0] == 0
    assert result["suite_calls"] == 1


@pytest.mark.parametrize("workload", ("cocycle-g1", "potential-g1"))
def test_traced_workload_prints_the_untraced_reports(workload, tmp_path):
    result = _probe(TRACED_WORKLOAD, workload, str(tmp_path))
    assert result["traced"] == result["plain"]
    assert set(result["plain"][0]) == {0}
    assert result["missing"] == []
