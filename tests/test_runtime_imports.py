"""The CLI runs on the standard library alone, and imports little of it.

A fresh interpreter records ``sys.modules``, imports ``ainfty.cli`` and
``ainfty.document`` (what every command loads before it reads a document),
and reports the modules that were added.  Each must be part of the package
or of the standard library (``sys.stdlib_module_names``), so a third-party
import fails here.  None may be one of ``HEAVY``: the modules that the
``dataclasses`` machinery pulls in, which cost an import several
milliseconds of every command's set-up and which nothing in the package
needs.
"""

import json
import os
import subprocess
import sys

import ainfty

HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

PROBE = """
import json
import sys
before = set(sys.modules)
import ainfty.cli, ainfty.document
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _added_modules():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ainfty.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_cli_imports_only_the_package_and_the_standard_library():
    added = _added_modules()
    assert "ainfty.cli" in added and "ainfty.document" in added
    foreign = [name for name in added if name.partition(".")[0] != "ainfty"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    assert HEAVY.isdisjoint(added), sorted(HEAVY.intersection(added))
