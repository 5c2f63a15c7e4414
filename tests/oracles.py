"""Reference routines that only the tests call: a partition count from a
different algorithm family, Euler's totient for the degree bookkeeping of the
root multiplicities, and the log-log fit of the benchmark report."""

import math

from pentaseries.roots import _prime_factors


def partition_bruteforce(n):
    """p(n) by the largest-part dynamic program.

    Deliberately a different algorithm family from partition_count: it never
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


def totient(n):
    """Count of 1 <= k <= n coprime to n, from the distinct primes of n."""
    if n < 1:
        raise ValueError("totient of non-positive integer")
    result = n
    for prime in _prime_factors(n):
        result -= result // prime
    return result


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
