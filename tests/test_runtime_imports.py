"""The CLI runs on the standard library alone, and imports little of it.

A fresh interpreter, started with ``-S`` so that no ``site`` hook or
``.pth`` file has loaded modules first, records ``sys.modules``, imports
``ainfty.cli`` and ``ainfty.document`` (what every command loads before it
reads a document), runs one command, ``check`` on E1, and reports the
modules that were added.  Each must be part of the package or of the
standard library (``sys.stdlib_module_names``), so a third-party import
fails here.  None may be one of ``HEAVY``: the modules that the
``dataclasses`` machinery pulls in, ``argparse`` with the ``gettext`` and
``locale`` it pulls in, ``fractions`` with the ``decimal`` and ``numbers``
it pulls in, and ``typing``.  Each costs every command's set-up time (an
argparse parser build cost its verdict more), and nothing in the package
needs them: ``coeff.Rational`` is its exact rational, and builtin generics
and ``collections.abc`` write its annotations.
"""

import json
import os
import subprocess
import sys

import ainfty

HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "argparse", "gettext", "locale",
         "fractions", "decimal", "numbers", "typing"}

PROBE = """
import contextlib
import io
import json
import sys
before = set(sys.modules)
import ainfty.cli, ainfty.document
with contextlib.redirect_stdout(io.StringIO()):
    code = ainfty.cli.main(["check", "--input", sys.argv[1]])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""


def _added_modules():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(ainfty.__file__))
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    e1 = os.path.join(os.path.dirname(ainfty.__file__), "corpus", "e1.json")
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, e1], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, added = json.loads(done.stdout)
    assert code == 0
    return added


def test_cli_imports_only_the_package_and_the_standard_library():
    added = _added_modules()
    assert "ainfty.cli" in added and "ainfty.document" in added
    foreign = [name for name in added if name.partition(".")[0] != "ainfty"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
    assert HEAVY.isdisjoint(added), sorted(HEAVY.intersection(added))
