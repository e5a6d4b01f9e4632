"""Every name a module of the package imports is read in that module.

Each module of ``src/ainfty`` except ``__init__.py`` (whose imports are the
package's public names) is parsed with ``ast``.  An imported name counts as
used when the module reads it: as a name, as the root of an attribute
chain, or inside a string annotation.  A name left behind when the code
that read it goes fails here.
"""

import ast
import os

import pytest

import ainfty

PACKAGE = os.path.dirname(ainfty.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def _imported(tree) -> set:
    """The names the module's import statements bind, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _annotations(tree):
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg,
                                                                          args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree) -> set:
    """The names the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    assert sorted(_imported(tree) - _read(tree)) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from .errors import ConfigurationError, DocumentError\n"
                     "import os.path\n"
                     "def f(x: 'Report') -> None:\n"
                     "    raise DocumentError(os.sep)\n")
    assert _imported(tree) - _read(tree) == {"ConfigurationError"}
