"""Every defaulted parameter of the package is set by some call.

Each module of ``src/ainfty`` and of ``bench/`` is parsed with ``ast``.  A
parameter of a function or method of ``src/ainfty`` that has a default is
set by a call when some call of that name, in the package or the benchmark,
passes it by keyword or reaches its position with its positional arguments
(after ``self`` or ``cls`` for a method; a class is called through its
``__init__``).  A call with ``*args`` or ``**kwargs`` sets every parameter
it could reach.  Calls are matched by name alone, so a parameter is only
reported when no call of any function of that name can set it: a cutoff or
switch that no caller uses fails here, as its default is then the one value
it ever takes.
"""

import ast
import os

import pytest

import ainfty

PACKAGE = os.path.dirname(ainfty.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(PACKAGE)), "bench")


def _trees(directory) -> dict:
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read())
    return trees


PACKAGE_TREES = _trees(PACKAGE)
CALLER_TREES = list(PACKAGE_TREES.values()) + list(_trees(BENCH).values())

# Kept on purpose, each with its reason:
ALLOWED = {
    # the benchmark's tracer still wraps HochschildChain; these go when the
    # chain class leaves the package
    "hochschild.py:HochschildChain.__init__.terms",
    "hochschild.py:HochschildChain.__init__.reduced",
    "hochschild.py:HochschildChain.generator.reduced",
    # the chain suite's tests draw chains of every length 0-5 through it, for
    # the kernel and for each mutant module
    "cli.py:chain_identity_suite.max_len",
}


def _functions(tree):
    """(qualified name, call name, def node, is a method) of every function
    and method of a module; a class's __init__ is called by the class name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    yield "%s.%s" % (node.name, item.name), called, item, not static


def _defaulted(node, method):
    """(name, position or None) of each parameter with a default; keyword-only
    parameters have no position.  A method's positions skip self or cls."""
    args = node.args
    positional = args.posonlyargs + args.args
    offset = 1 if method else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _calls(trees) -> dict:
    """call name -> [(positional count or None, keywords or None)]; None
    stands for a *args or a **kwargs that could reach anything."""
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            found.setdefault(name, []).append(
                (None if starred else len(node.args), None if None in keywords else keywords))
    return found


def _unset(package_trees, caller_trees) -> list:
    calls = _calls(caller_trees)
    unset = []
    for module, tree in package_trees.items():
        for qualified, called, node, method in _functions(tree):
            for name, position in _defaulted(node, method):
                if not any(count is None or keywords is None or name in keywords
                           or (position is not None and count > position)
                           for count, keywords in calls.get(called, ())):
                    unset.append("%s:%s.%s" % (module, qualified, name))
    return sorted(unset)


@pytest.mark.parametrize("module", sorted(PACKAGE_TREES))
def test_every_defaulted_parameter_is_set(module):
    unset = _unset(PACKAGE_TREES, CALLER_TREES)
    assert [name for name in unset if name.startswith(module + ":")
            and name not in ALLOWED] == []


def test_allowlist_names_unset_parameters():
    # an entry whose parameter is now set, or gone, is dropped from the list
    assert ALLOWED <= set(_unset(PACKAGE_TREES, CALLER_TREES))


def test_an_unset_parameter_is_found():
    package = {"a.py": ast.parse(
        "def check(algebra, l_max=None, *, sign=1):\n    return l_max\n"
        "def used(x, y=0, z=1):\n    return y + z\n"
        "class C:\n"
        "    def __init__(self, a=0, b=1):\n        pass\n"
        "    def m(self, k=2):\n        return check(k, sign=-1)\n")}
    callers = [package["a.py"], ast.parse("used(1, 2)\nused(1, z=3)\nC(5)\nC().m(*[])\n")]
    assert _unset(package, callers) == ["a.py:C.__init__.b", "a.py:check.l_max"]
