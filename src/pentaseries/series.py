"""Exact truncated power series over arbitrary-precision integers.

A series of order N is a tuple of N+1 ints indexed by exponent: the value
modulo x^(N+1).  Everything is integer arithmetic; no float ever enters a
computation here.
"""

import operator
from collections import namedtuple
from collections.abc import Sequence

Term = namedtuple("Term", "sign exponent")
Term.__doc__ = "One signed term sign * x^exponent of a sparse series."


def _mul_binomial_inplace(c: list[int], k: int) -> None:
    # c[i] -= c[i-k] for i >= k, none if k >= len(c); both slices are
    # copies, so every subtrahend is an old entry.
    c[k:] = map(operator.sub, c[k:], c[: len(c) - k])


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


def _alternating_nest(length: int, shift: int, base: int) -> tuple[int, ...]:
    """The alternating nest modulo x^length, for length >= 1:

        sum over i >= 0 of (-1)^i x^(e_i) / ((1 - x^(base+1))...(1 - x^(base+i))),

    where e_i = shift*i + i(i+1)/2.  Only the levels with e_i < length are
    read.  In nested (Horner) form from the innermost level n outward, level
    i is kept modulo x^(length - e_(i-1)) at one prefix-divide pass by
    (1 - x^(base+i)) and a prepend of its gap e_i - e_(i-1) = shift + i.
    """
    # allocated first, so a length too large for memory fails before any level
    c = [0] * length
    n = e = 0
    while e + shift + n + 1 < length:
        n += 1
        e += shift + n
    # c holds the nest from level i inward times (-1)^i, so the alternating
    # sign sits in each prepended constant and no pass negates.  The
    # innermost nest is 1, cut to the length its x^(e_n) leaves.
    del c[length - e :]
    sign = c[0] = -1 if n % 2 else 1
    for i in range(n, 0, -1):
        _div_binomial_inplace(c, base + i)
        sign = -sign
        c[:0] = [sign] + [0] * (shift + i - 1)
    return tuple(c)


def product_series(order: int) -> tuple[int, ...]:
    """Expand (1-x)(1-x^2)(1-x^3)... modulo x^(order+1) by Euler's identity,
    which groups the terms by the number j of factors that contribute -x^k:

        prod over n >= 1 of (1 - x^n) = sum over j >= 0 of (-1)^j x^(j(j+1)/2) / ((1 - x)...(1 - x^j)).

    That is the alternating nest (_alternating_nest) with shift 0 and base 0.  Only
    the j with j(j+1)/2 <= order reach the order, about sqrt(2 * order) of them,
    each one prefix-divide pass: about 0.94 * order^1.5 element updates, where
    one multiply pass per factor makes order^2/4.
    """
    if order < 0:
        raise ValueError("negative order")
    return _alternating_nest(order + 1, 0, 0)
