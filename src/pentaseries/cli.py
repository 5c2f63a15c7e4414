"""Command-line driver.

    pentaseries expand    --method {product|method1|method2|closed|all} --order N [--format text|json]
    pentaseries partition --upto N | --n N [--format text|json]
    pentaseries verify    --depth D --order N [--roots M]   (M <= 400)
    pentaseries bench     --sizes 2000,4000,8000 [--format csv|json]

Exit codes: 0 success (all checks pass), 1 mathematical mismatch, 2 usage or
precondition error, including an input too large for memory or for the
platform's index range.  On a mismatch, `expand --method all` names the first
differing exponent of each disagreeing method on stderr.  JSON is emitted
canonically (fixed key order, no spaces, coefficients as decimal strings), so
re-serializing a parsed payload gives back the same bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import BenchRecord, run_bench
from .partitions import iterated_division_check, partition_count, partition_values
from .pentagonal import closed_form_series
from .roots import root_multiplicities
from .series import partial_product
from .telescoping import identity_exponents, stream_series, verify_stage

_EXPAND_ORDER = ("product", "method1", "method2", "closed")
# The roots phase grows about as M^3.5: 2.5 s at M = 200, 8.9 s at 300 and
# 22 s at 400 on a 2-core VM, so the cap keeps a run under half a minute.
_ROOTS_LIMIT = 400


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _series_json(s: tuple[int, ...]) -> dict:
    """JSON form: coefficients as decimal strings so nothing can round."""
    return {"order": len(s) - 1, "coeffs": [str(c) for c in s]}


def format_series(s: tuple[int, ...]) -> str:
    """Human form: zero terms omitted, explicit sign separators,
    e.g. "1 - x - x^2 + x^5"."""
    parts: list[str] = []
    for e, c in enumerate(s):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            power = "x" if e == 1 else f"x^{e}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _build_series(method: str, order: int) -> tuple[int, ...]:
    if method == "product":
        return partial_product(order, order)
    if method == "closed":
        return closed_form_series(order)
    return stream_series(method, order)


def cmd_expand(method: str, order: int, fmt: str) -> int:
    if method != "all":
        s = _build_series(method, order)
        if fmt == "json":
            print(canonical_json(_series_json(s)))
        else:
            print(format_series(s))
        return 0

    results = {name: _build_series(name, order) for name in _EXPAND_ORDER}
    reference = results["product"]
    verdicts = {name: results[name] == reference for name in _EXPAND_ORDER[1:]}
    all_agree = all(verdicts.values())
    for name, ok in verdicts.items():
        if not ok:
            # every route returns order + 1 coefficients, so a mismatch
            # always has a first differing exponent
            e, want, got = next(
                (e, x, y) for e, (x, y) in enumerate(zip(reference, results[name])) if x != y
            )
            print(f"{name}: first difference at x^{e}: product {want}, {name} {got}", file=sys.stderr)
    if fmt == "json":
        payload = _series_json(reference)
        payload["agree"] = verdicts
        print(canonical_json(payload))
    else:
        print(format_series(reference))
        for name, ok in verdicts.items():
            print(f"{name}: {'agree' if ok else 'MISMATCH'}")
        print("4 methods agree" if all_agree else "methods disagree")
    return 0 if all_agree else 1


def cmd_partition(n: int | None, upto: int | None, fmt: str) -> int:
    """Exactly one of n (p(n) only) and upto (p(0)..p(upto)) is given."""
    if n is not None:
        p = partition_count(n)
        if fmt == "json":
            print(canonical_json({"n": n, "p": str(p)}))
        else:
            print(p)
        return 0
    values = partition_values(upto)
    if fmt == "json":
        print(canonical_json({"upto": upto, "p": [str(v) for v in values]}))
    else:
        print(" ".join(str(v) for v in values))
    return 0


def cmd_verify(depth: int, order: int, roots: int) -> int:
    try:
        for method in ("method1", "method2"):
            identity_exponents(method, depth, order)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2

    failures = 0
    for method in ("method1", "method2"):
        for m in range(1, depth + 1):
            ok = verify_stage(method, m, order)
            failures += not ok
            print(f"stage {method} m={m}: {'pass' if ok else 'FAIL'}")
    ok = iterated_division_check(depth)
    failures += not ok
    print(f"division depth={depth}: {'pass' if ok else 'FAIL'}")
    for d, measured in enumerate(root_multiplicities(roots), 1):
        expected = roots // d
        ok = measured == expected
        failures += not ok
        print(f"root d={d} expected={expected} measured={measured} {'match' if ok else 'MISMATCH'}")
    print("all checks passed" if not failures else f"{failures} check(s) failed")
    return 0 if not failures else 1


def cmd_bench(sizes: tuple[int, ...], fmt: str) -> int:
    records = run_bench(list(sizes))
    # the record's field order is the column order of both formats
    if fmt == "json":
        print(canonical_json([r._asdict() for r in records]))
    else:
        print("\n".join([",".join(BenchRecord._fields), *(",".join(map(str, r)) for r in records)]))
    return 0


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _roots_count(text: str) -> int:
    value = _positive(text)
    if value > _ROOTS_LIMIT:
        raise argparse.ArgumentTypeError(f"must be <= {_ROOTS_LIMIT}")
    return value


def _size_list(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    # the sizes are the x-axis of criterion 8's log-log fit, so each must be positive
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError("sizes must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise argparse.ArgumentTypeError("sizes must be strictly increasing")
    return sizes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentaseries",
        description="Expand (1-x)(1-x^2)(1-x^3)... exactly, by several methods that check each other.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="compute the expansion to a given order")
    p_expand.add_argument("--method", required=True, choices=_EXPAND_ORDER + ("all",))
    p_expand.add_argument("--order", required=True, type=_nonneg)
    p_expand.add_argument("--format", default="text", choices=("text", "json"))

    p_part = sub.add_parser("partition", help="partition counts from the expansion")
    which = p_part.add_mutually_exclusive_group(required=True)
    which.add_argument("--upto", type=_nonneg, help="print p(0)..p(N)")
    which.add_argument("--n", type=_nonneg, help="print p(N) only")
    p_part.add_argument("--format", default="text", choices=("text", "json"))

    p_verify = sub.add_parser("verify", help="stage identities, iterated division, root multiplicities")
    p_verify.add_argument("--depth", required=True, type=_positive)
    p_verify.add_argument("--order", required=True, type=_nonneg)
    p_verify.add_argument("--roots", default=10, type=_roots_count)

    p_bench = sub.add_parser("bench", help="time the product and partition routes")
    p_bench.add_argument("--sizes", required=True, type=_size_list)
    p_bench.add_argument("--format", default="csv", choices=("csv", "json"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if ns.command == "expand":
            return cmd_expand(ns.method, ns.order, ns.format)
        if ns.command == "partition":
            return cmd_partition(ns.n, ns.upto, ns.format)
        if ns.command == "verify":
            return cmd_verify(ns.depth, ns.order, ns.roots)
        return cmd_bench(ns.sizes, ns.format)
    except MemoryError:
        # a resource failure is a precondition error, never a mismatch (1)
        print(f"out of memory: {ns.command} input too large", file=sys.stderr)
        return 2
    except OverflowError:
        # a size past the platform's index range fails before any allocation
        print(f"input too large: {ns.command} size exceeds the index range", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
