"""Partition counting via the sparse sign series, plus independent checks.

Multiplying the partition generating function by (1-x)(1-x^2)... gives 1, and
reading off the coefficient of x^n in that product turns the sparse expansion
into a recurrence:

    p(n) = sum over k = 1, 2, ... of
           (-1)^(k+1) * ( p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ),

with terms dropped once the argument goes negative.  Roughly 2*sqrt(2n/3)
earlier values contribute per n, so filling a table to n costs O(n^1.5)
big-integer additions, versus O(n^2) multiplications for direct series
inversion.  One fill, _fill, computes p(0..n) in a new list: it takes the
offsets <= n from pent_terms_upto once and makes two entries per addition.
Each window W[j] = p(j) + p(j+1)*2^w packs two neighbours into one integer,
and each offset g >= 2 owns a list iterator over the windows, so the pair
p(m), p(m+1) is one sum(map(next, ...)) per recurrence sign, run in C, plus
the offset-1 terms added by hand.  The lane width w covers the largest
possible low-lane sum, so & and >> split each sum exactly; when that bound
outgrows w, w becomes twice the bound and the windows are rebuilt.  Each
partition_values(n) call runs one fill from p(0) to n, and p(n) alone is its
last entry.  Filling p(0..6500) took 22-26 ms in process on a 2-core VM with
Python 3.11 (medians of 7, three rounds), against 42-46 ms for one entry at a
time (kept in the tests as the oracle).  Both routes are implemented; their
agreement is one of the artifact's cross-checks, and the tests add a small
dynamic-program oracle as the third leg.
"""

from __future__ import annotations

from .pentagonal import closed_form_series, pent_terms_upto
from .series import _div_binomial_inplace, series_inverse


def _low_lane_bits(largest: int, count: int) -> int:
    """Bits that hold any sum of `count` integers in [0, largest]; the sum
    is at most count*largest < 2^bit_length(count) * 2^bit_length(largest)."""
    return largest.bit_length() + count.bit_length()


def _fill(n: int) -> list[int]:
    """p(0)..p(n) in a new list, by the two-lane recurrence."""
    # Allocate every entry first, so an n too large for memory fails here at
    # once rather than after building ~sqrt(n) offsets.
    vals = [1] + [0] * n
    # Window W[j] = p(j) + p(j+1)*2^w, with p(-1) = 0, holds two entries, so
    # one addition of W[m-g] serves offset g for both p(m) and p(m+1).
    # wins[s & 1][s >> 1] is W[s-1]: the pair (m, m+1) reads W[m-g] and the
    # next pair W[m+2-g], so each offset's cursor steps once per pair.
    wins: tuple[list[int], list[int]] = ([], [])
    w = 0
    mask = 0
    # One list iterator per offset g >= 2, added (odd k) or subtracted (even
    # k): the recurrence sign (-1)^(k+1) is minus the series sign.  Offset 1
    # reads W[m-1], whose high lane is the p(m) being computed, so its term is
    # added by hand.
    offsets = pent_terms_upto(n)[1:]
    cursors: tuple[list, list] = ([], [])
    active = 0
    for m in range(1, n + 1, 2):
        # Offset g is active from the first pair with g <= m + 1.
        joined = active
        while active < len(offsets) and offsets[active].exponent <= m + 1:
            active += 1
        prev = vals[m - 1]
        # Each sign's low lanes sum at most `active` values p(m-g) <= p(m-1),
        # as p is nondecreasing, so need bits hold the sum: & mask and >> w
        # then split it with no carry.
        need = _low_lane_bits(prev, active)
        if need > w:
            w = 2 * need
            mask = (1 << w) - 1
            # Rebuild W[-1..m-2] in place, so the cursors keep their positions.
            lows = [0, *vals[: m - 1]]
            for parity in (0, 1):
                pairs = zip(lows[parity::2], vals[parity:m:2])
                wins[parity][:] = [lo + (hi << w) for lo, hi in pairs]
        # A new cursor stands at W[m-g].  __setstate__ clamps to the list's
        # length, so it runs only once that window exists.
        for t in offsets[joined:active]:
            s = m - t.exponent + 1
            cursor = iter(wins[s & 1])
            cursor.__setstate__(s >> 1)
            cursors[t.sign > 0].append(cursor)
        # Invariant: every window a cursor reads (W[m-g], g >= 2, so at most
        # W[m-2]) exists before this pair reads it, from the rebuild or from
        # the appends after the pair before.  So no cursor is exhausted and
        # map(next, ...) cannot stop short.
        added = sum(map(next, cursors[0]))
        subtracted = sum(map(next, cursors[1]))
        low = (added & mask) - (subtracted & mask) + prev
        vals[m] = low
        if m < n:
            high = (added >> w) - (subtracted >> w) + low
            vals[m + 1] = high
            wins[m & 1].append(prev + (low << w))
            wins[(m + 1) & 1].append(low + (high << w))
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
