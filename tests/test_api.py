"""The public API holds no name that only the tests use."""

import ast
from pathlib import Path

import pentaseries

SRC = Path(pentaseries.__file__).resolve().parent


def _names_used(tree):
    """Names read as ast.Name or ast.Attribute, each outside its own def or class."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in inside:
                used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_exported_name_has_a_caller_in_the_package():
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= _names_used(ast.parse(path.read_text(), str(path)))
    assert sorted(set(pentaseries.__all__) - used) == []
