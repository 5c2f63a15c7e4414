import operator
import sys
from itertools import islice

import pytest

from pentaseries import telescoping
from pentaseries.pentagonal import closed_form_series, pent_terms_upto
from pentaseries.series import (
    Term,
    _mul_binomial_inplace,
    product_series,
)
from pentaseries.telescoping import (
    identity_exponents,
    residual_series,
    stream_series,
    verify_stage,
)

from oracles import counted_exponent, nest_oracle, stage_of


def residual_oracle(method, m, order):
    """Recompute a residual from its defining sum with full products.

    Same mathematics as the library routine but with none of its clipping
    tricks: products are expanded in full before truncation.
    """
    def full_product(lo, hi, n):
        c = [0] * (n + 1)
        c[0] = 1
        for k in range(lo, hi + 1):
            c = [ci - (c[i - k] if i - k >= 0 else 0) for i, ci in enumerate(c)]
        return c

    acc = [0] * (order + 1)
    if method == "method1":
        head = 2
        for i in range(1, m):
            head = head + (2 * i + 1) + (i + 1)
        j = 0
        while head + m * j <= order:
            base = head + m * j
            prod = full_product(m, m + j, order - base)
            for i, c in enumerate(prod):
                acc[base + i] += c
            j += 1
    else:
        anchor = 3 * m * (m + 1) // 2
        if anchor <= order:
            acc[anchor] += 1
        j = 0
        while anchor + m * j <= order:
            base = anchor + m * j
            prod = full_product(m, m + j + 1, order - base)
            for i, c in enumerate(prod):
                acc[base + i] -= c
            j += 1
    return tuple(acc)


def summation_residual_oracle(method, m, order):
    """The summand-by-summand loop that residual_series' nested form replaced,
    kept verbatim as its oracle: two list passes per summand."""
    _, _, head = stage_of(method, m)
    if order < 0:
        raise ValueError("negative order")

    acc = [0] * (order + 1)
    if head > order:
        return tuple(acc)

    # method 2 carries one more factor per summand and subtracts the sum
    extra = method == "method2"
    combine = operator.sub if extra else operator.add
    if extra:
        acc[head] = 1

    # prod holds the running factor product, truncated to the largest prefix
    # that can still contribute: summand j only touches acc[base..], so only
    # order - base + 1 of its coefficients matter.
    prod = [0] * (order - head + 1)
    prod[0] = 1
    if extra:
        _mul_binomial_inplace(prod, m)

    j = 0
    while (base := head + m * j) <= order:
        del prod[order - base + 1 :]
        _mul_binomial_inplace(prod, m + j + extra)
        acc[base:] = map(combine, acc[base:], prod)
        j += 1
    return tuple(acc)


def horner_residual_oracle(method, m, order):
    """The nested form that ran each method's whole nest on its own, one level
    per summand, kept as the oracle of the grouped nest and its complement."""
    _, _, head = stage_of(method, m)
    if order < 0:
        raise ValueError("negative order")
    # allocated first, so an order too large for memory fails before any level
    acc = [0] * (order + 1)
    if head > order:
        return tuple(acc)

    # method 2 carries one more factor per level and subtracts the sum, so
    # it nests -1 instead of 1 and adds x^t back after the outer (1 - x^m)
    extra = method == "method2"
    pad = [-1 if extra else 1] + [0] * (m - 1)
    levels, top = divmod(order - head, m)
    u = pad[:1] + [0] * top
    for j in range(levels - 1, -1, -1):
        u[:0] = pad
        _mul_binomial_inplace(u, m + j + extra)
    if extra:
        _mul_binomial_inplace(u, m)
        u[0] += 1
    acc[head:] = u
    return tuple(acc)


def first_terms(method, count):
    return list(islice(telescoping._terms(method), count))


def test_method1_first_terms():
    assert first_terms("method1", 6) == [
        Term(1, 0), Term(-1, 1), Term(-1, 2), Term(1, 5), Term(1, 7), Term(-1, 12),
    ]
    assert first_terms("method1", 0) == []


def test_method2_first_terms():
    assert first_terms("method2", 7) == [
        Term(1, 0), Term(-1, 1), Term(-1, 2), Term(1, 5), Term(1, 7),
        Term(-1, 12), Term(-1, 15),
    ]
    assert first_terms("method2", 1) == [Term(1, 0)]


def test_stage_heads_and_anchors():
    heads = [head for _, _, _, head in islice(telescoping._stages("method1"), 6)]
    assert heads == [2, 7, 15, 26, 40, 57]
    anchors = [head for _, _, _, head in islice(telescoping._stages("method2"), 5)]
    assert anchors == [3, 9, 18, 30, 45]


def test_stage_emissions_pairs():
    assert stage_of("method1", 1)[:2] == (2, 5)
    assert stage_of("method1", 2)[:2] == (7, 12)
    assert stage_of("method2", 1)[:2] == (1, 2)
    assert stage_of("method2", 2)[:2] == (5, 7)
    assert stage_of("method2", 3)[:2] == (12, 15)


def test_exponents_strictly_increase():
    for stream in (first_terms("method1", 120), first_terms("method2", 120)):
        exps = [t.exponent for t in stream]
        assert all(a < b for a, b in zip(exps, exps[1:]))


def test_streams_agree_sorted():
    a = sorted(first_terms("method1", 120), key=lambda t: t.exponent)
    b = sorted(first_terms("method2", 120), key=lambda t: t.exponent)
    assert a == b


def test_streams_match_pentagonal_enumeration():
    stream = first_terms("method1", 81)
    reference = [Term(1, 0)] + pent_terms_upto(10**6)[:80]
    assert stream == reference


def test_stream_series_matches_other_routes():
    for n in (0, 1, 40, 300):
        s1 = stream_series("method1", n)
        s2 = stream_series("method2", n)
        assert s1 == closed_form_series(n)
        assert s2 == closed_form_series(n)
        assert s1 == product_series(n)
    for method in ("method1", "method2"):
        with pytest.raises(ValueError, match="^negative order$"):
            stream_series(method, -1)


def test_routes_never_consult_the_closed_form(monkeypatch):
    """Product and both streams give the series with every pentagonal helper
    and the closed form made to raise: agreement is evidence, not circularity."""
    def forbidden(*args, **kwargs):
        raise AssertionError("closed form consulted")

    names = ("gpent", "pent_sign", "pent_terms_upto", "closed_form_series")
    for modname, module in list(sys.modules.items()):
        if modname == "pentaseries" or modname.startswith("pentaseries."):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
    residual_series.cache_clear()

    s1 = stream_series("method1", 600)
    assert s1 == stream_series("method2", 600) == product_series(600)
    golden = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1, 35: -1, 40: -1, 51: 1}
    assert s1[:52] == tuple(golden.get(e, 0) for e in range(52))
    for method in ("method1", "method2"):
        for m in range(1, 6):
            assert verify_stage(method, m, 200)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        stream_series("method3", 10)
    with pytest.raises(ValueError, match="unknown method"):
        residual_series("", 1, 10)
    with pytest.raises(ValueError, match="unknown method"):
        identity_exponents("method3", 1, 10)
    with pytest.raises(ValueError, match="unknown method"):
        verify_stage("", 1, 10)
    # the method is checked before the order
    with pytest.raises(ValueError, match="unknown method 'method3'"):
        stream_series("method3", -1)


def test_residual_known_values():
    r = residual_series("method1", 1, 8)
    assert r == (0, 0, 1, 0, 0, -1, 0, -1, 0)
    r = residual_series("method1", 2, 13)
    assert {e: c for e, c in enumerate(r) if c} == {7: 1, 12: -1}
    r = residual_series("method2", 1, 13)
    assert {e: c for e, c in enumerate(r) if c} == {5: 1, 7: 1, 12: -1}
    r = residual_series("method2", 2, 20)
    assert {e: c for e, c in enumerate(r) if c} == {12: 1, 15: 1}


def test_residual_zero_below_base():
    assert residual_series("method1", 3, 10) == (0,) * 11
    assert residual_series("method2", 2, 8) == (0,) * 9


def test_residual_matches_unclipped_oracle():
    for method in ("method1", "method2"):
        for m in (1, 2, 3):
            for order in (25, 60):
                got = residual_series(method, m, order)
                assert got == residual_oracle(method, m, order)


def test_residual_truncation_consistency():
    long = residual_series("method1", 1, 90)
    short = residual_series("method1", 1, 35)
    assert short == long[:36]


def test_verify_stage_examples():
    assert verify_stage("method1", 1, 100)
    assert verify_stage("method1", 4, 200)
    assert verify_stage("method2", 3, 200)
    assert verify_stage("method2", 1, 60)


def test_verify_stage_order_guard():
    with pytest.raises(ValueError, match="order below stage emissions"):
        verify_stage("method1", 1, 4)
    # the method-2 identity for stage 1 reaches exponent 7
    with pytest.raises(ValueError) as info:
        verify_stage("method2", 1, 6)
    assert str(info.value) == "order below stage emissions: stage 1 (method2) needs exponent 7, got order 6"
    assert verify_stage("method1", 1, 5) in (True, False)


@pytest.mark.parametrize("m", [10**9, 2**63 + 1], ids=["huge", "past-index-range"])
@pytest.mark.parametrize("method", ["method1", "method2"])
def test_stage_at_or_above_order_fails_before_walking(monkeypatch, method, m):
    def no_walk(*args):
        raise AssertionError("stages walked")

    monkeypatch.setattr(telescoping, "_stages", no_walk)
    message = f"order below stage emissions: stage {m} needs an exponent above {m}, got order 5"
    for check in (verify_stage, identity_exponents):
        with pytest.raises(ValueError) as info:
            check(method, m, 5)
        assert str(info.value) == message
    # the index check still comes first
    with pytest.raises(ValueError, match="stage index below 1"):
        verify_stage("method2", 0, 0)


@pytest.mark.parametrize("method", ["method1", "method2"])
def test_order_past_index_range_fails_before_walking(monkeypatch, method):
    def no_walk(*args):
        raise AssertionError("stages walked")

    monkeypatch.setattr(telescoping, "_stages", no_walk)
    # a dense series of order sys.maxsize needs sys.maxsize + 1 entries
    for check in (verify_stage, identity_exponents):
        with pytest.raises(OverflowError):
            check(method, 10**9, sys.maxsize)


@pytest.mark.parametrize("method", ["method1", "method2"])
def test_stage_walk_stops_at_first_emission_above_order(monkeypatch, method):
    walked = []
    stages = telescoping._stages

    def counted(method):
        for stage in stages(method):
            walked.append(stage)
            yield stage

    monkeypatch.setattr(telescoping, "_stages", counted)
    order = 10**6
    with pytest.raises(ValueError) as info:
        identity_exponents(method, 10**5, order)
    # about sqrt(2 * order / 3) = 816 stages instead of 10^5
    *below, (_, _, hi, _) = walked
    assert len(walked) < 1000
    assert hi > order and all(h <= order for _, _, h, _ in below)
    assert str(info.value) == (
        f"order below stage emissions: stage 100000 ({method}) needs an exponent above {hi}, got order {order}"
    )


def test_stage_identity_by_hand():
    # residual m plus residual m+1 collapses to the two emitted terms
    order = 120
    r1 = residual_series("method1", 1, order)
    r2 = residual_series("method1", 2, order)
    lhs = [a + b for a, b in zip(r1, r2)]
    rhs = [0] * (order + 1)
    rhs[2], rhs[5] = 1, -1
    assert lhs == rhs


@pytest.mark.parametrize("method", ["method1", "method2"])
def test_residual_matches_summation_oracle_every_order(method):
    # the oracle truncates exactly, so its order-400 value read to order + 1
    # entries is its value at `order`; every order still runs the nested form
    for m in range(1, 15):
        full = summation_residual_oracle(method, m, 400)
        for order in range(401):
            got = residual_series(method, m, order)
            assert got == full[: order + 1], (m, order)
            assert got == horner_residual_oracle(method, m, order), (m, order)


@pytest.mark.parametrize("method", ["method1", "method2"])
def test_residual_matches_summation_oracle_edge_orders(method):
    for m in (1, 2, 3, 7, 14, 20):
        _, _, head = stage_of(method, m)
        orders = {
            head - 1,  # head above the order: the zero series
            head,  # order == head
            head + m - 1,  # the last order with only one level; method 1's W_m is empty
            head + m,  # the first with two
            head + 2 * m - 1,  # the last with W_m at its innermost level alone
            head + 2 * m,  # W_m with one level
            head + 3 * m,  # W_m with two levels
            head + 3 * m + 1,
        }
        for order in sorted(orders):
            got = residual_series(method, m, order)
            assert got == summation_residual_oracle(method, m, order), (m, order)
            assert got == horner_residual_oracle(method, m, order), (m, order)


def test_residual_oracles_add_up_to_the_head_and_group_into_one_nest():
    # the two identities residual_series is built on, checked on the oracles
    # alone: method 1's and method 2's letters add up to x^h, and method 1's
    # is x^h times the alternating nest with levels (2m + i, m + i)
    for m in range(1, 15):
        _, _, h = stage_of("method1", m)
        # the nest oracle truncates exactly, so its longest value cut to a
        # shorter length is its value there
        levels = [(2 * m + i, m + i) for i in range(1, 402 - h)]
        shifted = (0,) * h + nest_oracle(401 - h, levels)
        for order in range(401):
            first = summation_residual_oracle("method1", m, order)
            second = summation_residual_oracle("method2", m, order)
            head = [int(e == h) for e in range(order + 1)]
            assert [a + b for a, b in zip(first, second)] == head, (m, order)
            assert first == shifted[: order + 1], (m, order)


@pytest.mark.parametrize("m", range(1, 7))
def test_second_method_reuses_the_nested_sum(work, m):
    # method 2's stage-m residual is x^h minus method 1's, so once method 1
    # has built its nest, method 2 makes no prefix-divide pass of its own
    residual_series.cache_clear()
    first = residual_series("method1", m, 200)
    assert work["series", "div", "passes"] >= 1
    work.clear()
    second = residual_series("method2", m, 200)
    assert work["series", "div", "passes"] == 0
    assert first == summation_residual_oracle("method1", m, 200)
    assert second == summation_residual_oracle("method2", m, 200)


def test_nested_sum_matches_the_horner_oracle_every_length():
    # the oracle truncates exactly, so its value at head + 400 read to
    # order + 1 entries is its value at `order`; every order still runs the
    # grouped nest, and for method 2 its complement
    for method in ("method1", "method2"):
        for m in range(1, 21):
            _, _, head = stage_of(method, m)
            full = horner_residual_oracle(method, m, head + 400)
            for order in range(head, head + 401):
                assert residual_series(method, m, order) == full[: order + 1], (method, m, order)


def test_nested_sum_matches_the_horner_oracle_at_group_edges():
    # orders where the innermost group of method 1's nest changes: group i
    # enters at h + 2mi + i(i+1)/2, and method 2 is its complement
    for m in range(1, 21):
        _, _, h = stage_of("method1", m)
        for i in range(1, 5):
            e = h + 2 * m * i + i * (i + 1) // 2
            for order in (e - 1, e, e + 1):
                for method in ("method1", "method2"):
                    expected = horner_residual_oracle(method, m, order)
                    assert residual_series(method, m, order) == expected, (method, m, i, order)


def test_nested_sum_work_grows_below_quadratic(work):
    # the summands' own nest makes about order^2 / (2m) updates; the grouped
    # form makes about sqrt(2 * order) prefix-divide passes of at most order each
    sizes = (250, 500, 1000, 2000, 4000)
    updates = []
    for length in sizes:
        residual_series.cache_clear()
        work.clear()
        residual_series("method1", 1, length + 2)
        updates.append(work["series", "div", "updates"])
    assert updates[2] == 26076
    assert counted_exponent(sizes, updates) < 1.7


@pytest.mark.parametrize("m", [10**9, 2**63 + 1], ids=["huge", "past-index-range"])
@pytest.mark.parametrize("method", ["method1", "method2"])
def test_residual_at_or_above_order_is_zero_without_walking(monkeypatch, method, m):
    def no_walk(*args):
        raise AssertionError("stages walked")

    monkeypatch.setattr(telescoping, "_stages", no_walk)
    for order in (0, 1, 5):
        assert residual_series(method, m, order) == (0,) * (order + 1)
    # the argument checks still come first, with their own messages
    with pytest.raises(ValueError, match="unknown method"):
        residual_series("method3", m, 5)
    with pytest.raises(ValueError, match="stage index below 1"):
        residual_series(method, 0, 5)
    with pytest.raises(ValueError, match="negative order"):
        residual_series(method, m, -1)


@pytest.mark.parametrize("method", ["method1", "method2"])
def test_residual_walk_stops_at_first_head_above_order(monkeypatch, method):
    walked = []
    stages = telescoping._stages

    def counted(method):
        for stage in stages(method):
            walked.append(stage)
            yield stage

    monkeypatch.setattr(telescoping, "_stages", counted)
    residual_series.cache_clear()
    order = 10**5
    # stage order - 1 is below the order, but its head is far above it
    assert residual_series(method, order - 1, order) == (0,) * (order + 1)
    # about sqrt(2 * order / 3) = 258 stages instead of order - 1
    *below, (_, _, _, head) = walked
    assert len(walked) < 300
    assert head > order and all(h <= order for _, _, _, h in below)
