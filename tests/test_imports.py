"""The package imports only the standard library, mpmath and itself."""

import ast
import pathlib
import sys

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
