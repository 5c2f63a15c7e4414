"""The public API holds no name that only the tests use, and every series it
returns is a plain tuple."""

import ast
from pathlib import Path

import pytest

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


# Every series producer, as a function of the order alone.
PRODUCERS = {
    "partial_product": lambda n: pentaseries.partial_product(n, n),
    "stream_series method1": lambda n: pentaseries.stream_series("method1", n),
    "stream_series method2": lambda n: pentaseries.stream_series("method2", n),
    "closed_form_series": pentaseries.closed_form_series,
    "residual_series method1": lambda n: pentaseries.residual_series("method1", 1, n),
    "residual_series method2": lambda n: pentaseries.residual_series("method2", 1, n),
    "series_inverse": lambda n: pentaseries.series_inverse([1] + [-1] * n),
    "partition_series": pentaseries.partition_series,
}


@pytest.mark.parametrize("order", [0, 1, 40])
def test_series_are_tuples_of_order_plus_one_ints(order):
    for name, build in PRODUCERS.items():
        s = build(order)
        assert type(s) is tuple, name
        assert all(type(c) is int for c in s), name
        assert len(s) == order + 1, name
    assert pentaseries.partition_series(order) == pentaseries.partition_values(order)
