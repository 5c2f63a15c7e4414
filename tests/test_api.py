"""Every public name of the package is reachable from a user's entry point,
each route reaches no other route's results, and every series the package
returns is a plain tuple."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import pentaseries

SRC = Path(pentaseries.__file__).resolve().parent

# Where a user enters the package: the command line and the library entry
# points that compute, count and check.
ROOTS = {
    ("cli", "main"),
    ("series", "product_series"),
    ("partitions", "partition_values"),
    ("telescoping", "verify_stage"),
    ("roots", "root_multiplicities"),
}

# Public names that no root reaches, each with the reason it stays.
UNREACHED = {
    ("partitions", "PartitionTable.computed_upto"): (
        "perfbench/tracer.py reads it to count each fill's new entries; "
        "it goes once the tracer no longer reads it"
    ),
}


def _reads(*nodes):
    """The names and the attribute names that the nodes' code reads;
    annotations are not reads."""
    names, attrs = set(), set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                children = value if isinstance(value, list) else [value]
                stack += [c for c in children if isinstance(c, ast.AST)]
    return names, attrs


def _package():
    """What each definition of the package reads, and each module's imports.

    A definition is (module, name) for a top-level def, class or assignment,
    and (module, "Class.name") for a def in a class body; a class's own reads
    leave its defs out.  Other module-level code, such as the __main__ guard,
    reads as the definition (module, None).
    """
    reads, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        imports[module] = {}
        entry = reads[module, None] = (set(), set())
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    imports[module][alias.asname or alias.name] = (stmt.module, alias.name)
            elif isinstance(stmt, ast.FunctionDef):
                reads[module, stmt.name] = _reads(stmt)
            elif isinstance(stmt, ast.ClassDef):
                defs = [d for d in stmt.body if isinstance(d, ast.FunctionDef)]
                body = [b for b in stmt.body if b not in defs]
                reads[module, stmt.name] = _reads(*stmt.bases, *stmt.keywords, *stmt.decorator_list, *body)
                for d in defs:
                    reads[module, f"{stmt.name}.{d.name}"] = _reads(d)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    reads[module, name.id] = _reads(stmt.value)
            else:
                for found, more in zip(entry, _reads(stmt)):
                    found |= more
    return reads, imports


def _resolve(reads, imports, module, name):
    """The definition that `name` is bound to in `module`, or None."""
    while (module, name) not in reads:
        if name not in imports.get(module, {}):
            return None
        module, name = imports[module][name]
    return module, name


def _reached(reads, imports, starts):
    """Every definition that the start definitions reach.

    A read name follows its binding.  A read attribute `.x` reaches every
    class member named x, whatever object it is read on, and a class reaches
    its dunder members, which Python calls implicitly.
    """
    members = {}
    for module, qualname in reads:
        if qualname and "." in qualname:
            members.setdefault(qualname.split(".")[1], []).append((module, qualname))
    reached = set()
    todo = list(starts)
    while todo:
        node = todo.pop()
        if node in reached:
            continue
        reached.add(node)
        module, qualname = node
        names, attrs = reads[node]
        todo += filter(None, (_resolve(reads, imports, module, name) for name in names))
        todo += [d for attr in attrs for d in members.get(attr, ())]
        todo += [key for key in reads if key[0] == module and (key[1] or "").startswith(f"{qualname}.__")]
    return reached


def test_every_public_name_is_reachable_from_a_root():
    reads, imports = _package()
    assert ROOTS <= set(reads)
    exported = {_resolve(reads, imports, "__init__", name) for name in pentaseries.__all__}
    assert None not in exported
    public = {
        (module, qualname)
        for module, qualname in reads
        if qualname and module != "__init__" and not any(p.startswith("_") for p in qualname.split("."))
    }
    # module-level code, such as the __main__ guard, is a root too
    starts = [*ROOTS, *(key for key in reads if key[1] is None)]
    assert sorted((exported | public) - _reached(reads, imports, starts)) == sorted(UNREACHED)


# The four expansions, and the checks built on them, may share arithmetic
# kernels but never each other's results.  Each route is walked from its root
# alone and must not reach what its row names: a whole module, or one
# definition as "module.name".
ROUTES = {
    ("series", "product_series"): {"pentagonal", "telescoping", "partitions"},
    ("telescoping", "stream_series"): {
        "pentagonal", "partitions", "series.product_series", "series._alternating_nest",
    },
    ("pentagonal", "closed_form_series"): {
        "telescoping", "partitions", "series.product_series", "series._alternating_nest",
    },
    ("telescoping", "verify_stage"): {
        "pentagonal", "partitions", "telescoping.stream_series", "series.product_series",
    },
    ("roots", "root_multiplicities"): {
        "pentagonal", "telescoping", "partitions", "series.product_series", "series._alternating_nest",
    },
    ("partitions", "partition_values"): {
        "series.series_inverse", "series.product_series", "telescoping",
    },
    ("partitions", "partition_series"): {
        "partitions._fill", "telescoping", "series.product_series",
    },
}

# Every definition that two or more routes reach, and why it may be shared.
# A new shared definition fails the test below until it is added here.
SHARED = {
    ("series", "Term"): "the one sparse term type",
    ("series", "_div_binomial_inplace"): "a kernel: the prefix-divide pass by (1 - x^k)",
    ("series", "_alternating_nest"): "a kernel: the alternating nest of the product and of the stage residuals",
    ("telescoping", "_stages"): "the stage walk that the streams and the residuals both take",
    ("telescoping", "_check_stage"): "the method, stage and order check, which both telescoping routes make",
    ("pentagonal", "gpent"): "the pentagonal numbers, read through pent_terms_upto",
    ("pentagonal", "pent_sign"): "the sign law, read through pent_terms_upto",
    ("pentagonal", "pent_terms_upto"): "the recurrence's offsets, which are the paper's point",
    ("pentagonal", "closed_form_series"): "the series that the inversion route inverts",
}


def _route_reach():
    reads, imports = _package()
    return {root: _reached(reads, imports, [root]) for root in ROUTES}


@pytest.mark.parametrize("root", sorted(ROUTES), ids=".".join)
def test_route_reaches_nothing_it_must_not(root):
    reached = _route_reach()[root]
    forbidden = ROUTES[root]
    hits = {(m, q) for m, q in reached if m in forbidden or f"{m}.{q}" in forbidden}
    assert not hits


def test_routes_share_only_the_listed_definitions():
    counts = Counter(node for reached in _route_reach().values() for node in reached)
    assert sorted(node for node, n in counts.items() if n > 1) == sorted(SHARED)


def _src_trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_every_import_is_at_module_level():
    # the walk reads only module-level imports, so an import inside a
    # function would hide what that function reaches
    for module, tree in _src_trees().items():
        top = {id(stmt) for stmt in tree.body}
        nested = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
        assert not nested, module


def test_no_module_object_is_imported():
    # the walk cannot follow an attribute read on a module object, as after
    # `from . import pentagonal` or `import pentaseries.pentagonal`
    trees = _src_trees()
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level:
                assert stmt.level == 1 and stmt.module in trees, (module, stmt.lineno)
                assert not {alias.name for alias in stmt.names} & set(trees), (module, stmt.lineno)
            elif isinstance(stmt, ast.ImportFrom):
                assert stmt.module.split(".")[0] != "pentaseries", (module, stmt.lineno)
            elif isinstance(stmt, ast.Import):
                assert all(a.name.split(".")[0] != "pentaseries" for a in stmt.names), (module, stmt.lineno)


# Every series producer, as a function of the order alone.
PRODUCERS = {
    "product_series": pentaseries.product_series,
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
