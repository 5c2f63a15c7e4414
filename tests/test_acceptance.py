"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen.  Everything except the timing report in criterion 8 is an exact
integer identity with zero tolerance.
"""

import io
import time
from contextlib import redirect_stdout
from itertools import islice

from pentaseries import telescoping
from pentaseries.bench import BenchRecord
from pentaseries.cli import main
from pentaseries.partitions import (
    iterated_division_check,
    partition_series,
    partition_values,
)
from pentaseries.pentagonal import closed_form_series, pent_terms_upto
from pentaseries.series import product_series
from pentaseries.telescoping import verify_stage
from pentaseries.roots import root_multiplicities

from oracles import fitted_exponent, partition_bruteforce, totient
from schoolbook import series_product


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}{suffix}")


def test_criterion_1_product_equals_closed_form():
    n = 2000
    start = time.perf_counter()
    product = product_series(n)
    closed = closed_form_series(n)
    elapsed = time.perf_counter() - start

    equal = product == closed
    small = set(product) <= {-1, 0, 1}
    expected_support = {t.exponent: t.sign for t in pent_terms_upto(n)}
    expected_support[0] = 1
    support = {e: c for e, c in enumerate(product) if c}
    signs_right = support == expected_support

    ok = equal and small and signs_right and elapsed < 10.0
    report("criterion 1: product equals closed form at order 2000", ok, f"{elapsed:.2f}s")
    assert equal
    assert small
    assert signs_right
    assert elapsed < 10.0


def test_criterion_2_golden_prefix():
    golden = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1, 35: -1, 40: -1, 51: 1}
    coeffs = [0] * 52
    for e, c in golden.items():
        coeffs[e] = c
    expected = tuple(coeffs)
    got_closed = closed_form_series(51)
    got_product = product_series(51)
    ok = got_closed == expected and got_product == expected
    report("criterion 2: golden prefix through x^51", ok)
    assert got_closed == expected
    assert got_product == expected


def test_criterion_3_stream_equivalence():
    count = 200
    s1 = sorted(islice(telescoping._terms("method1"), count), key=lambda t: t.exponent)
    s2 = sorted(islice(telescoping._terms("method2"), count), key=lambda t: t.exponent)
    streams_match = s1 == s2

    horizon = max(t.exponent for t in s1)
    pent = [(1, 0)] + [(t.sign, t.exponent) for t in pent_terms_upto(horizon)]
    pent_match = [(t.sign, t.exponent) for t in s1] == pent[:count]

    heads = [head for _, _, _, head in islice(telescoping._stages("method1"), 6)]
    anchors = [head for _, _, _, head in islice(telescoping._stages("method2"), 5)]
    heads_ok = heads == [2, 7, 15, 26, 40, 57]
    anchors_ok = anchors == [3, 9, 18, 30, 45]

    ok = streams_match and pent_match and heads_ok and anchors_ok
    report("criterion 3: 200-term stream equivalence, heads and anchors", ok)
    assert streams_match
    assert pent_match
    assert heads_ok
    assert anchors_ok


def test_criterion_4_stage_identities():
    order = 5000
    start = time.perf_counter()
    results = {
        (method, m): verify_stage(method, m, order)
        for m in range(1, 31)
        for method in ("method1", "method2")
    }
    elapsed = time.perf_counter() - start
    ok = all(results.values())
    report("criterion 4: stage identities m=1..30 both methods at order 5000", ok, f"{elapsed:.2f}s")
    failing = sorted(key for key, good in results.items() if not good)
    assert not failing, failing


def test_criterion_5_partition_correctness():
    oracle_ok = all(partition_values(n)[n] == partition_bruteforce(n) for n in range(61))

    n = 300
    unit = (1,) + (0,) * n
    identity_ok = series_product(partition_series(n), closed_form_series(n)) == unit

    routes_ok = partition_series(500) == partition_values(500)

    ok = oracle_ok and identity_ok and routes_ok
    report("criterion 5: partition oracle, defining identity, route agreement", ok)
    assert oracle_ok
    assert identity_ok
    assert routes_ok


def test_criterion_6_iterated_division():
    results = {m: iterated_division_check(m) for m in range(51)}
    ok = all(results.values())
    report("criterion 6: iterated division to unity for M = 0..50", ok)
    failing = [m for m, good in results.items() if not good]
    assert not failing, failing


def test_criterion_7_root_multiplicities():
    multiplicities = {m: root_multiplicities(m) for m in range(1, 31)}
    floor_ok = all(
        mults == tuple(m // d for d in range(1, m + 1)) for m, mults in multiplicities.items()
    )
    degrees_ok = all(
        sum(totient(d) * mult for d, mult in enumerate(mults, 1)) == m * (m + 1) // 2
        for m, mults in multiplicities.items()
    )
    ok = floor_ok and degrees_ok
    report("criterion 7: root multiplicities floor(M/d) and degree bookkeeping", ok)
    assert floor_ok
    assert degrees_ok


def test_criterion_8_performance_report():
    sizes = [2000, 4000, 8000]
    out = io.StringIO()
    with redirect_stdout(out):
        main(["bench", "--sizes", ",".join(map(str, sizes))])
    lines = out.getvalue().splitlines()
    records = [BenchRecord(t, int(n), int(w), int(b)) for t, n, w, b in (row.split(",") for row in lines[1:])]

    csv_complete = (
        # README's literal header
        lines[0] == "task,n,wall_ns,max_coeff_bits"
        # one row per size for each of the three tasks fitted below
        and len(lines) == 1 + len(sizes) * 3
        and all(r.wall_ns > 0 for r in records)
    )

    exp_inverse = fitted_exponent(records, "partition_inverse")
    exp_recurrence = fitted_exponent(records, "partition_recurrence")
    exp_product = fitted_exponent(records, "product")
    ordering = "holds" if exp_recurrence < exp_inverse else "NOT OBSERVED"

    report(
        "criterion 8: bench CSV complete; fitted exponents reported (non-gating)",
        csv_complete,
        f"product {exp_product:.2f}, inverse {exp_inverse:.2f}, "
        f"recurrence {exp_recurrence:.2f}; recurrence < inverse {ordering}",
    )
    # the exponent ordering is machine-dependent and explicitly not gated;
    # only the completeness of the emitted report is asserted
    assert csv_complete
