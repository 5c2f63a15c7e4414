"""Reference routines that only the tests call: a partition count from a
different algorithm family, the one-entry-at-a-time partition table fill,
per-element forms of the two binomial kernels, the alternating nest with
each group expanded on its own, the trial-division count of
the root multiplicities and Euler's totient for their degree bookkeeping,
each telescoping stage's exponents from the pentagonal numbers, the log-log
fit of the benchmark report and of counted work, and the argparse parser the
command line was once read with."""

import argparse
import math
from types import SimpleNamespace

from pentaseries.pentagonal import pent_terms_upto
from pentaseries.series import _div_binomial_inplace

from schoolbook import schoolbook_product


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


def mul_binomial_oracle(c, k):
    """c times (1 - x^k) modulo x^len(c), one entry at a time."""
    return [c[i] - c[i - k] if i >= k else c[i] for i in range(len(c))]


def div_binomial_oracle(c, k):
    """c divided by (1 - x^k) modulo x^len(c), one entry at a time: each
    quotient entry q[i] = c[i] + q[i-k] reads a lower one."""
    q = []
    for i, ci in enumerate(c):
        q.append(ci + q[i - k] if i >= k else ci)
    return q


def nest_oracle(length, levels):
    """The alternating nest with each group expanded on its own and summed:
    (-1)^i x^(e_i) times the geometric series of each 1 / (1 - x^b_k), all
    by schoolbook products, for every e_i < length."""
    total = [0] * length
    e, group = 0, [1] + [0] * length
    for i, (gap, b) in enumerate([(0, None), *levels]):
        if i:
            e += gap
            geometric = [int(j % b == 0) for j in range(length)]
            group = schoolbook_product(group, geometric, length)
        if e >= length:
            break
        for j in range(length - e):
            total[e + j] += (-1) ** i * group[j]
    return tuple(total)


def trial_division_multiplicities(factors, product):
    """root_multiplicities(factors) computed from the given product by the
    route the fold replaced: for each n, divide a copy by (1 - x^n) and keep
    it only if the pass leaves the top n entries 0."""
    p = list(product)
    exponents = [0] * (factors + 1)
    for n in range(factors, 0, -1):
        while len(p) > n:
            q = p.copy()
            _div_binomial_inplace(q, n)
            if any(q[-n:]):
                break
            del q[-n:]
            p = q
            exponents[n] += 1
    if p != [1]:
        raise ArithmeticError(
            f"the product is not a product of factors (1 - x^n): leftover of degree {len(p) - 1}, "
            f"starting {p[:4]}"
        )
    return tuple(sum(exponents[d::d]) for d in range(1, factors + 1))


def totient(n):
    """Count of 1 <= k <= n coprime to n, counted one k at a time."""
    if n < 1:
        raise ValueError("totient of non-positive integer")
    return sum(math.gcd(k, n) == 1 for k in range(1, n + 1))


def stage_of(method, m):
    """(low, high, head) of stage m >= 1 from the generalized pentagonal
    numbers, not from the recurrence that telescoping walks."""
    if method == "method1":
        low = (3 * m * m + m) // 2
        return low, (3 * (m + 1) ** 2 - (m + 1)) // 2, low
    return (3 * m * m - m) // 2, (3 * m * m + m) // 2, 3 * m * (m + 1) // 2


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


def counted_exponent(sizes, counts):
    """fitted_exponent with a count of work standing in for the wall time."""
    return fitted_exponent([SimpleNamespace(task="", n=n, wall_ns=c) for n, c in zip(sizes, counts)], "")


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
