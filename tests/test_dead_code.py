"""Every definition of the package is read somewhere.

Each module of ``src/ainfty`` and of ``bench`` is parsed with ``ast``.  A
module-level function or class whose name starts with one underscore is
private: only the package calls it.  It counts as used when some module of
the package reads its name, as a name or as an attribute, outside the
object's own definition, so recursion alone does not keep it.  A private
core left behind when its last caller goes fails here.

Any other module-level function or class is public.  It counts as used
when the package reads it in the same way, or ``bench`` reads it or names
it in a dotted string (the tracer wraps its targets by name).  So does
every method of a module-level class whose name has no leading
underscore; dunders are called by the language, not by name, and are
left out.  A method name is read as an attribute of any object, so a
method counts as used when any object's attribute of its name is read.
A public definition or method that only tests call is on
``UNREAD_PUBLIC`` with the ROADMAP item that will wire it to a command or
move it to the tests.
"""

import ast
import os
from collections import Counter

import pytest

import ainfty

PACKAGE = os.path.dirname(ainfty.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _parsed(directory):
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


TREES = _parsed(PACKAGE)
BENCH_TREES = _parsed(BENCH)

# Public definitions read by no command and no bench module, each with the
# ROADMAP item that will wire or move it.
UNREAD_PUBLIC = {
    "hochschild.py:iter_basis_chains": "item 2(b): the chain suite over every basis chain",
    "pairing.py:weak_cyclic_check": "item 5: wire it as potential --weak-cyclic, or move it",
}


def _definitions(tree, public):
    """The module-level public or private functions and classes of a module."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("__") and node.name.startswith("_") != public):
            yield node


def _methods(tree):
    """The public methods of the module-level classes of a module, each
    named class.method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield "%s.%s" % (node.name, item.name), item


def _reads(node) -> Counter:
    """How often each name is read below node, as a name or an attribute."""
    return Counter(child.id if isinstance(child, ast.Name) else child.attr
                   for child in ast.walk(node)
                   if isinstance(child, (ast.Name, ast.Attribute)))


def _named(node) -> Counter:
    """The names that the dotted-name strings below node hold."""
    return Counter(part for child in ast.walk(node)
                   if isinstance(child, ast.Constant) and isinstance(child.value, str)
                   and all(part.isidentifier() for part in child.value.split("."))
                   for part in child.value.split("."))


def _unread(trees, public=False, bench=None) -> list:
    everywhere = sum((_reads(tree) for tree in trees.values()), Counter())
    found = [(module, definition.name, definition) for module, tree in trees.items()
             for definition in _definitions(tree, public)]
    if public:
        everywhere += sum((_reads(tree) + _named(tree) for tree in bench.values()), Counter())
        found += [(module, name, method) for module, tree in trees.items()
                  for name, method in _methods(tree)]
    return sorted("%s:%s" % (module, name) for module, name, definition in found
                  if everywhere[definition.name] == _reads(definition)[definition.name])


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_definition_is_read(module):
    assert [name for name in _unread(TREES) if name.startswith(module + ":")] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_public_definition_is_read_or_listed(module):
    unread = _unread(TREES, public=True, bench=BENCH_TREES)
    assert [name for name in unread
            if name.startswith(module + ":") and name not in UNREAD_PUBLIC] == []


def test_every_listed_public_definition_is_unread():
    # an entry whose definition got a caller, or left, comes off the list
    assert sorted(UNREAD_PUBLIC) == [name for name in _unread(TREES, public=True,
                                                             bench=BENCH_TREES)
                                     if name in UNREAD_PUBLIC]


def test_an_unread_private_definition_is_found():
    trees = {"a.py": ast.parse("def _kept():\n    return 1\n"
                               "def _recursive(n):\n    return _recursive(n - 1)\n"
                               "class _Orphan:\n    pass\n"),
             "b.py": ast.parse("from . import a\nX = a._kept()\n")}
    assert _unread(trees) == ["a.py:_Orphan", "a.py:_recursive"]


def test_an_unread_public_definition_is_found():
    trees = {"a.py": ast.parse("def kept():\n    return 1\n"
                               "def traced():\n    return 2\n"
                               "def recursive(n):\n    return recursive(n - 1)\n"
                               "def _private():\n    return 3\n"
                               "class Orphan:\n    '''Named in prose: recursive, Orphan.'''\n"),
             "b.py": ast.parse("from . import a\nX = a.kept()\n")}
    bench = {"tracer.py": ast.parse("TARGETS = [('a.traced', 'a', 'Orphan x')]\n")}
    assert _unread(trees, public=True, bench=bench) == ["a.py:Orphan", "a.py:recursive"]


def test_an_unread_public_method_is_found():
    trees = {"a.py": ast.parse("class Kept:\n"
                               "    def __init__(self):\n        self.used()\n"
                               "    def used(self):\n        return 1\n"
                               "    def traced(self):\n        return 2\n"
                               "    def recursive(self):\n        return self.recursive()\n"
                               "    def unread(self):\n        return 3\n"
                               "    def _private(self):\n        return 4\n"),
             "b.py": ast.parse("from . import a\nX = a.Kept()\n")}
    bench = {"tracer.py": ast.parse("TARGETS = [('a.Kept.traced', 'a', 'x')]\n")}
    assert _unread(trees, public=True, bench=bench) == ["a.py:Kept.recursive",
                                                        "a.py:Kept.unread"]
