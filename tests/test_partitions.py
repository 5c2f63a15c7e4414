import operator
import random
import sys

import pytest

from pentaseries import partitions
from pentaseries.partitions import (
    PartitionTable,
    _entry_bits,
    _low_lane_bits,
    iterated_division_check,
    partition_series,
    partition_values,
)
from pentaseries.pentagonal import closed_form_series, gpent, pent_terms_upto
from pentaseries.series import series_inverse

from oracles import counted_exponent, partition_bruteforce, split_sign_fill
from schoolbook import series_product


def count_by_enumeration(n, largest=None, memo=None):
    """Third route: recursive count of partitions with bounded largest part."""
    if memo is None:
        memo = {}
    if largest is None:
        largest = n
    if n == 0:
        return 1
    key = (n, largest)
    if key not in memo:
        memo[key] = sum(
            count_by_enumeration(n - part, min(part, n - part), memo)
            for part in range(1, min(largest, n) + 1)
        )
    return memo[key]


KNOWN_PREFIX = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_small_values():
    assert [partition_values(n)[n] for n in range(13)] == KNOWN_PREFIX


def test_recurrence_vs_bruteforce():
    for n in range(61):
        assert partition_values(n)[n] == partition_bruteforce(n)


def test_recurrence_vs_enumeration():
    for n in range(41):
        assert partition_values(n)[n] == count_by_enumeration(n)


def test_bruteforce_examples():
    assert partition_bruteforce(0) == 1
    assert partition_bruteforce(4) == 5
    assert partition_bruteforce(7) == 15


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="oracle bound exceeded"):
        partition_bruteforce(101)
    assert partition_bruteforce(100) == partition_values(100)[100]
    with pytest.raises(ValueError):
        partition_bruteforce(-1)


def test_negative_n_is_rejected():
    with pytest.raises(ValueError, match="^negative n$"):
        partition_values(-1)


def test_values_monotone():
    values = partition_values(200)
    assert values[0] == 1
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(b > a for a, b in zip(values[1:], values[2:]))
    assert all(v > 0 for v in values)


def test_partition_series_prefix():
    assert partition_series(0) == (1,)
    assert partition_series(5) == (1, 1, 2, 3, 5, 7)


def test_series_route_equals_recurrence_route():
    n = 150
    assert partition_series(n) == partition_values(n)


def test_defining_identity():
    n = 120
    prod = series_product(partition_series(n), closed_form_series(n))
    assert prod == (1,) + (0,) * n


def per_term_recurrence(n):
    """The original table fill, calling gpent twice per term; slow oracle."""
    vals = [1]
    while len(vals) <= n:
        m = len(vals)
        total = 0
        k = 1
        while True:
            g = gpent(k)
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * vals[m - g]
            g2 = gpent(-k)
            if g2 <= m:
                total += sign * vals[m - g2]
            k += 1
        vals.append(total)
    return tuple(vals)


def test_split_sign_recurrence_matches_per_term_oracle():
    oracle = per_term_recurrence(3001)
    assert tuple(split_sign_fill([1], 3001)) == oracle
    # Every entry up to 3001 from one call, whose last pair is whole (3000)
    # or a single entry (3001), and fresh tables at every n <= 300, so the
    # first pair starts at 1 and the last ends either way.
    for n in (3000, 3001):
        table = PartitionTable()
        table.extend_to(n)
        assert table.values == oracle[: n + 1]
    for n in range(301):
        assert partition_values(n) == oracle[: n + 1], n


def uneven_schedule(seed, top):
    """Seeded targets for successive extend_to calls, ending at top."""
    rng = random.Random(seed)
    targets, n = [], 0
    while n < top:
        if n < 5:
            n += rng.choice((1, 2))
        elif n < 10:
            # one call from a start below 11 to past 1000: one fill carries
            # entries of 1 to over 100 bits in lanes sized once for its n
            n = rng.randrange(1000, 1500)
        else:
            n += rng.choice((1, 1, 2, 2, 3, rng.randrange(4, 200)))
        targets.append(min(n, top))
    return targets


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_uneven_extensions_match_split_sign_oracle(seed):
    oracle = tuple(split_sign_fill([1], 3000))
    table = PartitionTable()
    # (entries added, parity of the first new entry) for each call
    shapes = set()
    for n in uneven_schedule(seed, 3000):
        start = table.computed_upto + 1
        table.extend_to(n)
        shapes.add((n + 1 - start, start % 2))
        assert table.values == oracle[: n + 1], (start, n)
    # one- and two-entry extensions from odd and even starts all occurred
    assert {(1, 0), (1, 1), (2, 0), (2, 1)} <= shapes


def test_low_lane_bits_hold_the_worst_sum_and_no_fewer():
    for largest in range(70):
        for count in range(70):
            assert count * largest < 1 << _low_lane_bits(largest, count)
    # 2^k - 1 values of 2^b - 1 (b, k >= 2) need every one of those bits
    for b in range(2, 12):
        for k in range(2, 12):
            largest, count = (1 << b) - 1, (1 << k) - 1
            assert count * largest >= 1 << (_low_lane_bits(largest, count) - 1)


def test_a_bound_too_small_raises_instead_of_splitting_wrong(monkeypatch):
    # with isqrt read as 0 the bound is 5 bits, which p(10) = 42 outgrows.  The
    # guard runs once per group of four, at m = 1, 5, 9, 13, on p(m-1), which
    # bounds every entry the group reads: the group at 9 reads at most p(8) =
    # 22, and the one at 13 raises on p(12) = 77 before it reads p(10), so no
    # split can go wrong silently
    monkeypatch.setattr(partitions, "isqrt", lambda n: 0)
    assert _entry_bits(400) == 5
    with pytest.raises(ArithmeticError, match=r"^p\(12\) has more than 5 bits$"):
        partitions._fill(400)


def test_interrupted_extension_keeps_the_old_entries(monkeypatch):
    table = PartitionTable()
    table.extend_to(20)
    before = table.values

    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setattr(partitions, "pent_terms_upto", interrupted)
    with pytest.raises(KeyboardInterrupt):
        table.extend_to(50)
    # the fill builds a new list and the table takes it only once the fill
    # returns, so an interrupted fill leaves the old entries as they were
    assert table.values == before
    monkeypatch.undo()
    table.extend_to(50)
    assert table.values == partition_values(50)


def test_one_fill_per_call(monkeypatch):
    fills = []
    fill = partitions._fill

    def spy(n):
        fills.append(n)
        return fill(n)

    monkeypatch.setattr(partitions, "_fill", spy)
    values = partition_values(40)
    assert fills == [40]
    assert partition_values(41)[41] == 44583
    assert fills == [40, 41]
    table = PartitionTable()
    table.extend_to(30)
    assert fills == [40, 41, 30]
    # a larger n refills from p(0), to what a fresh fill gives
    table.extend_to(40)
    assert fills == [40, 41, 30, 40]
    assert table.values == values


def test_fill_window_additions_are_pinned(work):
    # every cursor step adds one window W[m-g] into a sign's sum and serves
    # offset g for all four entries of a group.  A change to this work
    # updates the pin on purpose (278,850 steps with two lanes).  The
    # metered cursors change no entry.
    assert partitions._fill(6500) == split_sign_fill([1], 6500)
    assert work["steps"] == 137_832


def test_fill_work_grows_below_inversion(work):
    # the recurrence reads about 2*sqrt(2n/3) earlier values per entry, so its
    # cursor steps grow about as n^1.5; series inversion makes exactly
    # n(n+1)/2 inner-product terms, as row n pairs a[1..n] with all n entries
    # of b so far
    sizes = (500, 1000, 2000, 4000)
    steps, terms = [], []
    for n in sizes:
        work.clear()
        partitions._fill(n)
        # a unit series keeps every product small; the term count is the same
        series_inverse([1] + [0] * n)
        steps.append(work["steps"])
        terms.append(work["terms"])
    assert steps == [2_690, 7_887, 22_890, 65_919]
    assert terms == [n * (n + 1) // 2 for n in sizes]
    # fitted 1.54 for the fill and 2.00 for inversion
    fill = counted_exponent(sizes, steps)
    assert abs(fill - 1.5) < 0.1
    assert fill < counted_exponent(sizes, terms)


def test_fill_peak_stays_within_a_multiple_of_its_table(memory):
    # the four-lane fill holds each p(j) in one of four window lists beside
    # the table it returns: the traced peak is 3.95-3.97x the table's own
    # size (tuple and ints) at n = 3000 on 3.10-3.13, and 4.31-4.32x at 6500
    table = partition_values(3000)
    size = sys.getsizeof(table) + sum(map(sys.getsizeof, table))
    assert memory(partition_values, 3000) <= 4.4 * size


def test_uneven_extensions_match_one_call():
    # each later call refills the table from p(0), to the same entries that
    # one call to its n gives
    oracle = per_term_recurrence(3000)
    table = PartitionTable()
    for n in (0, 1, 2, 7, 100, 101, 1500, 3000):
        table.extend_to(n)
        assert table.computed_upto == n
        assert table.values == oracle[: n + 1]


@pytest.fixture(scope="module")
def whole_table():
    """p(0..20000), filled once for the checks that read every entry."""
    return partition_values(20000)


def test_ramanujan_congruences_over_the_whole_table(whole_table):
    # p(5k+4) = 0 mod 5, p(7k+5) = 0 mod 7 and p(11k+6) = 0 mod 11 (Ramanujan,
    # "Some properties of p(n)", 1919) hold at every n and share no code with
    # the four-lane fill, so they check every entry far past the n = 3001
    # oracles, up to 20000, in the widest lanes the suite fills
    values = whole_table
    assert len(values) == 20001
    for modulus, residue in ((5, 4), (7, 5), (11, 6)):
        checked = values[residue::modulus]
        assert len(checked) == (20000 - residue) // modulus + 1
        assert all(p % modulus == 0 for p in checked), modulus


def test_entry_bits_hold_every_entry_of_the_whole_table(whole_table):
    # the fill's lanes are sized from _entry_bits(n); it must hold p(n) at
    # every n, and its largest slack to 20000 (at n = 116^2, where isqrt
    # steps) is pinned, so the lanes cannot silently widen
    slack = [_entry_bits(n) - p.bit_length() for n, p in enumerate(whole_table)]
    assert min(slack) >= 0
    assert max(slack) == 22
    assert slack.index(22) == 116**2


def test_lanes_stay_exact_at_the_tightest_bound(monkeypatch, whole_table):
    # with the entry bound cut to the bits of p(n) itself the lanes have no
    # slack: only the offset count's bits in w keep a sign's low-lane sum from
    # carrying into the high lane (a w of top alone already fails at n = 75)
    monkeypatch.setattr(partitions, "_entry_bits", lambda n: whole_table[n].bit_length())
    for n in [*range(401), 20000]:
        assert partitions._fill(n) == list(whole_table[: n + 1]), n


def test_defining_identity_over_the_whole_table(whole_table):
    # (1 + sum of s x^g over the pentagonal terms) times sum of p(n) x^n is 1,
    # so p(n) + sum of s p(n-g) is [n = 0] at every n <= 20000.  One slice
    # pass per offset: none of the fill's windows, lanes or cursors is used
    p = whole_table
    n = len(p) - 1
    acc = list(p)
    for sign, g in pent_terms_upto(n):
        acc[g:] = map(operator.add if sign > 0 else operator.sub, acc[g:], p[: n + 1 - g])
    assert acc == [1] + [0] * n


def test_big_value_exceeds_machine_words():
    assert partition_values(500)[500] == 2300165032574323995027
    assert partition_values(500)[500].bit_length() > 64


def test_iterated_division():
    assert iterated_division_check(0)
    assert iterated_division_check(1)
    assert iterated_division_check(5)
    assert all(iterated_division_check(m) for m in range(26))
    with pytest.raises(ValueError, match="^negative divisor count$"):
        iterated_division_check(-1)


@pytest.mark.parametrize("divisors", [0, 1, 5, 12])
def test_iterated_division_detects_a_wrong_coefficient(monkeypatch, divisors):
    asked = []
    for flip in range(divisors + 1):

        def corrupted(order, flip=flip):
            asked.append(order)
            c = list(closed_form_series(order))
            c[flip] += 1
            return tuple(c)

        monkeypatch.setattr(partitions, "closed_form_series", corrupted)
        assert not iterated_division_check(divisors), flip
    # the check reads the series only up to x^divisors
    assert asked == [divisors] * (divisors + 1)
