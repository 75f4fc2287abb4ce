"""The package imports only the standard library, mpmath and itself, and
every public definition in it has a caller inside it."""

import ast
import pathlib
import sys
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scbcert"
ALLOWED = set(sys.stdlib_module_names) | {"mpmath"}


def _absolute_imports(path):
    """(line, top-level module) for every absolute import in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in SRC.rglob("*.py")} >= {"analyzer.py", "poly.py", "recursion.py"}


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_imports_are_relative_stdlib_or_mpmath(path):
    stray = [(line, mod) for line, mod in _absolute_imports(path) if mod not in ALLOWED]
    assert not stray, "{} imports outside stdlib + mpmath: {}".format(path.name, stray)


def _identifiers(node):
    """How often each identifier is named under node: variables, attributes
    and imported names."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.alias):
            found[n.name.split(".")[-1]] += 1
    return found


def test_every_public_definition_has_a_caller_in_the_package():
    """A public top-level function or class that nothing else in the package
    names is a second implementation kept alive only by its tests."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.rglob("*.py"))}
    named = sum((_identifiers(tree) for tree in trees.values()), Counter())
    unused = [
        "{}.{}".format(module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and named[node.name] == _identifiers(node)[node.name]
    ]
    assert not unused, "public definitions no other code in the package names: {}".format(unused)
