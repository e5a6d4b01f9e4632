"""The benchmark tracer still finds every function and binding it wraps.

`bench/tracer.py` wraps engine functions from outside the package and
replaces each module attribute bound to them.  A refactor that renames a
traced function or drops a binding site would make its per-layer metrics
read 0; this test catches that in the fast suite.  It only reads `bench/`.
"""

import json
import os
import subprocess
import sys

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


def test_tracer_finds_every_target_and_binding_site():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"missing": [], "unbound": []}
