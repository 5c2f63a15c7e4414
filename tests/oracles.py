"""Reference routines that only the tests call: a partition count from a
different algorithm family, the one-entry-at-a-time partition table fill,
Euler's totient for the degree bookkeeping of the root multiplicities, one
stage of the telescoping recurrences, the log-log fit of the benchmark
report, and the argparse parser the command line was once read with."""

import argparse
import math
from itertools import islice

from pentaseries import telescoping
from pentaseries.pentagonal import pent_terms_upto
from pentaseries.roots import _prime_factors


def partition_bruteforce(n):
    """p(n) by the largest-part dynamic program.

    Deliberately a different algorithm family from partition_values: it never
    touches pentagonal numbers, so the two cannot share a bug.
    """
    if n < 0:
        raise ValueError("negative n")
    if n > 100:
        raise ValueError("oracle bound exceeded")
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def split_sign_fill(vals, n):
    """Extend vals = [p(0), ..., p(start-1)] in place to p(0), ..., p(n).

    The table fill that two-lane windows replaced: one entry at a time, each
    a list-comprehension gather and one sum per recurrence sign.
    """
    start = len(vals)
    vals += [0] * (n + 1 - start)
    # Offsets <= n split by the recurrence sign (-1)^(k+1), which is
    # minus the series sign; each list stays ascending like its input.
    plus = []
    minus = []
    for t in pent_terms_upto(n):
        (plus if t.sign < 0 else minus).append(t.exponent)
    # ip / im count the offsets <= m, i.e. the terms entry m uses.
    ip = im = 0
    for m in range(start, n + 1):
        while ip < len(plus) and plus[ip] <= m:
            ip += 1
        while im < len(minus) and minus[im] <= m:
            im += 1
        vals[m] = sum([vals[m - g] for g in plus[:ip]]) - sum([vals[m - g] for g in minus[:im]])
    return vals


def totient(n):
    """Count of 1 <= k <= n coprime to n, from the distinct primes of n."""
    if n < 1:
        raise ValueError("totient of non-positive integer")
    result = n
    for prime in _prime_factors(n):
        result -= result // prime
    return result


def stage_of(method, m):
    """(low, high, head) of stage m >= 1, read off the recurrence."""
    return next(islice(telescoping._stages(method), m - 1, None))[1:]


def fitted_exponent(records, task):
    """Least-squares slope of log(wall_ns) against log(n) for one task.

    The growth-trend summary for reports; requires at least two sizes.
    """
    points = [(math.log(r.n), math.log(r.wall_ns)) for r in records if r.task == task]
    if len(points) < 2:
        raise ValueError("need at least two sizes to fit")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den


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
    if value > 400:
        raise argparse.ArgumentTypeError("must be <= 400")
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


def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser that the CLI's table-driven one replaced.  The
    methods and the --roots cap are written out here, not read from cli, so
    a change to either in cli shows as a disagreement."""
    parser = argparse.ArgumentParser(
        prog="pentaseries",
        description="Expand (1-x)(1-x^2)(1-x^3)... exactly, by several methods that check each other.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="compute the expansion to a given order")
    p_expand.add_argument("--method", required=True, choices=("product", "method1", "method2", "closed", "all"))
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
