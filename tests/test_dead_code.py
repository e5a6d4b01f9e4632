"""Every private function and class of the package is read somewhere in it.

Each module of ``src/ainfty`` is parsed with ``ast``.  A module-level
function or class whose name starts with one underscore is private: only
the package calls it.  It counts as used when some module of the package
reads its name, as a name or as an attribute, outside the object's own
definition, so recursion alone does not keep it.  A private core left behind
when its last caller goes fails here.
"""

import ast
import os
from collections import Counter

import pytest

import ainfty

PACKAGE = os.path.dirname(ainfty.__file__)
TREES = {}
for _name in sorted(os.listdir(PACKAGE)):
    if _name.endswith(".py"):
        with open(os.path.join(PACKAGE, _name), encoding="utf-8") as _handle:
            TREES[_name] = ast.parse(_handle.read())


def _private(tree):
    """The module-level private functions and classes of a module."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node


def _reads(node) -> Counter:
    """How often each name is read below node, as a name or an attribute."""
    return Counter(child.id if isinstance(child, ast.Name) else child.attr
                   for child in ast.walk(node)
                   if isinstance(child, (ast.Name, ast.Attribute)))


def _unread(trees) -> list:
    everywhere = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted("%s:%s" % (module, definition.name)
                  for module, tree in trees.items()
                  for definition in _private(tree)
                  if everywhere[definition.name] == _reads(definition)[definition.name])


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_definition_is_read(module):
    assert [name for name in _unread(TREES) if name.startswith(module + ":")] == []


def test_an_unread_private_definition_is_found():
    trees = {"a.py": ast.parse("def _kept():\n    return 1\n"
                               "def _recursive(n):\n    return _recursive(n - 1)\n"
                               "class _Orphan:\n    pass\n"),
             "b.py": ast.parse("from . import a\nX = a._kept()\n")}
    assert _unread(trees) == ["a.py:_Orphan", "a.py:_recursive"]
