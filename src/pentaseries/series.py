"""Exact truncated power series over arbitrary-precision integers.

A series of order N is a tuple of N+1 ints indexed by exponent: the value
modulo x^(N+1).  Everything is integer arithmetic; no float ever enters a
computation here.
"""

import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import count

Term = namedtuple("Term", "sign exponent")
Term.__doc__ = "One signed term sign * x^exponent of a sparse series."


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


def _alternating_nest(length: int, levels: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """sum over i >= 0 of (-1)^i x^(e_i) / ((1 - x^b_1)...(1 - x^b_i)) modulo x^length.

    Level i is (gap, b) with gap = e_i - e_(i-1) >= 1 and e_0 = 0; levels are
    read only while e_i < length, so an endless iterable is fine.  In nested
    (Horner) form from the innermost level outward, level i is kept modulo
    x^(length - e_(i-1)) at one prefix-divide pass by (1 - x^b) and a prepend.
    """
    if length < 1:
        return ()
    # allocated first, so a length too large for memory fails before any level
    c = [0] * length
    kept, e = [], 0
    for level in levels:
        if e + level[0] >= length:
            break
        kept.append(level)
        e += level[0]
    # c holds the nest from level i inward times (-1)^i, so the alternating
    # sign sits in each prepended constant and no pass negates.  The
    # innermost nest is 1, cut to the length its x^(e_i) leaves.
    del c[length - e :]
    sign = c[0] = -1 if len(kept) % 2 else 1
    for gap, b in reversed(kept):
        _div_binomial_inplace(c, b)
        sign = -sign
        c[:0] = [sign] + [0] * (gap - 1)
    return tuple(c)


def product_series(order: int) -> tuple[int, ...]:
    """Expand (1-x)(1-x^2)(1-x^3)... modulo x^(order+1) by Euler's identity,
    which groups the terms by the number j of factors that contribute -x^k:

        prod over n >= 1 of (1 - x^n) = sum over j >= 0 of (-1)^j x^(j(j+1)/2) / ((1 - x)...(1 - x^j)).

    That is the alternating nest (_alternating_nest) with levels (j, j).  Only
    the j with j(j+1)/2 <= order reach the order, about sqrt(2 * order) of them,
    each one prefix-divide pass: about 0.94 * order^1.5 element updates, where
    one multiply pass per factor makes order^2/4.
    """
    if order < 0:
        raise ValueError("negative order")
    return _alternating_nest(order + 1, ((j, j) for j in count(1)))
