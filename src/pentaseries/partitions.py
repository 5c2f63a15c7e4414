"""Partition counting via the sparse sign series, plus independent checks.

Multiplying the partition generating function by (1-x)(1-x^2)... gives 1, and
reading off the coefficient of x^n in that product turns the sparse expansion
into a recurrence:

    p(n) = sum over k = 1, 2, ... of
           (-1)^(k+1) * ( p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ),

with terms dropped once the argument goes negative.  Roughly 2*sqrt(2n/3)
earlier values contribute per n, so filling a table to n costs O(n^1.5)
big-integer additions, versus O(n^2) multiplications for direct series
inversion.  The table takes the offsets <= n from pent_terms_upto once per
extension, split by sign into two ascending lists (odd k added, even k
subtracted), and each new entry is one sum over the prefix of each list
that is <= m.  Both routes are implemented; their agreement is one of the
artifact's cross-checks, and the tests add a small dynamic-program oracle as
the third leg.
"""

from __future__ import annotations

from .pentagonal import closed_form_series, pent_terms_upto
from .series import TruncatedSeries, _div_binomial_inplace, series_inverse


class PartitionTable:
    """Monotonically growing memo of p(0), p(1), ..."""

    def __init__(self) -> None:
        self._values: list[int] = [1]

    @property
    def computed_upto(self) -> int:
        return len(self._values) - 1

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self._values)

    def extend_to(self, n: int) -> None:
        vals = self._values
        start = len(vals)
        if start > n:
            return
        # Reserve the new entries first, so an n too large for memory fails
        # here at once rather than after building ~sqrt(n) offsets.
        vals += [0] * (n + 1 - start)
        try:
            # Offsets <= n split by the recurrence sign (-1)^(k+1), which is
            # minus the series sign; each list stays ascending like its input.
            plus: list[int] = []
            minus: list[int] = []
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
        except BaseException:
            # never leave reserved zeros behind as if they were values
            del vals[start:]
            raise

    def count(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative n")
        self.extend_to(n)
        return self._values[n]


def partition_count(n: int) -> int:
    """p(n) by the sign-series recurrence, in a fresh table."""
    return PartitionTable().count(n)


def partition_values(n: int) -> tuple[int, ...]:
    """p(0)..p(n) as a tuple."""
    table = PartitionTable()
    table.count(n)
    return table.values


def partition_series(order: int) -> TruncatedSeries:
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
    q = list(closed_form_series(divisors).coeffs)
    for k in range(1, divisors + 1):
        _div_binomial_inplace(q, k)
    return q == [1] + [0] * divisors
