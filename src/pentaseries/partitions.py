"""Partition counting via the sparse sign series, plus independent checks.

Multiplying the partition generating function by (1-x)(1-x^2)... gives 1, and
reading off the coefficient of x^n in that product turns the sparse expansion
into a recurrence:

    p(n) = sum over k = 1, 2, ... of
           (-1)^(k+1) * ( p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ),

with terms dropped once the argument goes negative.  Roughly 2*sqrt(2n/3)
earlier values contribute per n, so filling a table to n costs O(n^1.5)
big-integer additions, versus O(n^2) multiplications for direct series
inversion.  Each partition_values(n) call runs one fill, _fill, from p(0) to n
in a new list: it takes the offsets <= n from pent_terms_upto once and makes
two entries per addition.  Each window W[j] = p(j) + p(j+1)*2^w packs two
neighbours into one integer, and the windows sit in two lists by the parity of
j.  Each offset g >= 2 owns an iterator that starts at the head of list g & 1,
so the pair p(m), p(m+1) is one sum(map(next, ...)) per recurrence sign, run in
C, plus the offset-1 terms added by hand.  The lane width w is set once, from a
bound on the bits of p(n) (_entry_bits), so & and >> split each sum exactly.
Filling p(0..6500) took 22-37 ms in process on a 2-core VM with Python 3.11,
against 47-79 ms for one entry at a time (a test oracle).  The inversion route,
partition_series, cross-checks the fill, and the tests add a third leg.
"""

from __future__ import annotations

from math import isqrt

from .pentagonal import closed_form_series, pent_terms_upto
from .series import _div_binomial_inplace, series_inverse


def _low_lane_bits(largest: int, count: int) -> int:
    """Bits that hold any sum of `count` integers in [0, largest]; the sum
    is at most count*largest < 2^bit_length(count) * 2^bit_length(largest)."""
    return largest.bit_length() + count.bit_length()


def _entry_bits(n: int) -> int:
    """Bits that hold p(m) for every m <= n, as p(m) < e^(pi*sqrt(2m/3))
    (Apostol, Thm 14.5) and pi*sqrt(2/3)/ln 2 = 3.70066 < 3.701."""
    return 3701 * (isqrt(n) + 1) // 1000 + 2


def _fill(n: int) -> list[int]:
    """p(0)..p(n) in a new list, by the two-lane recurrence."""
    # Allocate every entry first, so an n too large for memory fails here at
    # once rather than after building ~sqrt(n) offsets.
    vals = [1] + [0] * n
    # One list iterator per offset g >= 2, added (odd k) or subtracted (even
    # k): the recurrence sign (-1)^(k+1) is minus the series sign.  Offset 1
    # reads W[m-1], whose high lane is the p(m) being computed, so its term is
    # added by hand.
    offsets = pent_terms_upto(n)[1:]
    # Each sign's low lanes sum at most len(offsets) values p(m-g) < 2^top,
    # so w bits hold the sum: & mask and >> w then split it with no carry.
    top = _entry_bits(n)
    w = _low_lane_bits((1 << top) - 1, len(offsets))
    mask = (1 << w) - 1
    # Window W[j] = p(j) + p(j+1)*2^w, with p(-1) = 0, holds two entries, so
    # one addition of W[m-g] serves offset g for both p(m) and p(m+1).
    # Pairs start at odd m, so wins[0] holds W[-1], W[1], W[3], ... and
    # wins[1] holds W[0], W[2], ...: the pair (m, m+1) reads W[m-g] and the
    # next pair W[m+2-g], so each offset's cursor steps once per pair.
    wins: tuple[list[int], list[int]] = ([1 << w], [])
    cursors: tuple[list, list] = ([], [])
    active = 0
    for m in range(1, n + 1, 2):
        # Offset g joins at the first pair with g <= m + 1, so g is m or
        # m + 1 and its first window W[m-g] is W[0] or W[-1]: the head of
        # wins[g & 1].
        while active < len(offsets) and offsets[active].exponent <= m + 1:
            t = offsets[active]
            cursors[t.sign > 0].append(iter(wins[t.exponent & 1]))
            active += 1
        prev = vals[m - 1]
        # p is nondecreasing, so p(m-1) bounds every value this pair reads:
        # while it fits in top bits each split is exact, else this raises.
        if prev.bit_length() > top:
            raise ArithmeticError(f"p({m - 1}) has more than {top} bits")
        # Invariant: every window a cursor reads (W[m-g], g >= 2, so at most
        # W[m-2]) exists before this pair reads it, as W[-1] or from the
        # appends after the pair before.  So no cursor is exhausted and
        # map(next, ...) cannot stop short.
        added = sum(map(next, cursors[0]))
        subtracted = sum(map(next, cursors[1]))
        low = (added & mask) - (subtracted & mask) + prev
        vals[m] = low
        if m < n:
            high = (added >> w) - (subtracted >> w) + low
            vals[m + 1] = high
            wins[1].append(prev + (low << w))
            wins[0].append(low + (high << w))
    return vals


class PartitionTable:
    """p(0), p(1), ... from one fill; extending it refills it from p(0).

    partition_values is the one caller.  The class stays only because the
    benchmark's tracer wraps extend_to and reads computed_upto.
    """

    def __init__(self) -> None:
        self._values: list[int] = [1]

    @property
    def computed_upto(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self._values)

    def extend_to(self, n: int) -> None:
        if n >= len(self._values):
            self._values = _fill(n)


def partition_values(n: int) -> tuple[int, ...]:
    """p(0)..p(n) as a tuple, by the sign-series recurrence."""
    if n < 0:
        raise ValueError("negative n")
    table = PartitionTable()
    table.extend_to(n)
    return table.values


def partition_series(order: int) -> tuple[int, ...]:
    """Generating-function route: invert the sparse sign series."""
    return series_inverse(closed_form_series(order))


def iterated_division_check(divisors: int) -> bool:
    """Divide the sparse series by (1-x), (1-x^2), ..., (1-x^divisors) in turn
    and test that the quotient is 1 modulo x^(divisors+1).

    The exact quotient is the product of the remaining factors, whose
    expansion starts 1 - x^(divisors+1), hence the modulus.  Each quotient
    coefficient reads only lower ones, so the series is taken to that order.
    """
    if divisors < 0:
        raise ValueError("negative divisor count")
    q = list(closed_form_series(divisors))
    for k in range(1, divisors + 1):
        _div_binomial_inplace(q, k)
    return q == [1] + [0] * divisors
