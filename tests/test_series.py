import json

import pytest

from pentaseries import cli
from pentaseries.roots import _full_product
from pentaseries.series import (
    _alternating_nest,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    product_series,
    series_inverse,
)

from oracles import counted_exponent, div_binomial_oracle, mul_binomial_oracle, nest_oracle
from schoolbook import series_product


def conv_oracle(a, b, order):
    """Independent reference convolution, written dumb on purpose."""
    out = []
    for k in range(order + 1):
        total = 0
        for i in range(k + 1):
            if i < len(a) and k - i < len(b):
                total += a[i] * b[k - i]
        out.append(total)
    return out


def random_series(rng, order, lo=-9, hi=9):
    return tuple(rng.randint(lo, hi) for _ in range(order + 1))


def test_mul_difference_of_squares():
    a = (1, -1, 0)
    b = (1, 1, 0)
    assert series_product(a, b) == (1, 0, -1)


def test_mul_geometric_collapses():
    n = 20
    geo = (1,) * (n + 1)
    one_minus_x = (1, -1) + (0,) * (n - 1)
    out = series_product(one_minus_x, geo)
    assert out == (1,) + (0,) * n


def test_mul_three_binomials():
    assert _full_product(3) == [1, -1, -1, 0, 1, 1, -1]


def test_mul_matches_oracle(rng):
    for _ in range(25):
        na, nb = rng.randint(0, 12), rng.randint(0, 12)
        a, b = random_series(rng, na), random_series(rng, nb)
        got = series_product(a, b)
        assert list(got) == conv_oracle(a, b, min(na, nb))


def test_mul_commutative_associative(rng):
    for _ in range(10):
        a = random_series(rng, 9)
        b = random_series(rng, 9)
        c = random_series(rng, 9)
        assert series_product(a, b) == series_product(b, a)
        assert series_product(series_product(a, b), c) == series_product(a, series_product(b, c))


def test_mul_binomial_basic():
    one = [1, 0, 0, 0]
    _mul_binomial_inplace(one, 3)
    assert one == [1, 0, 0, -1]
    geo = [1] * 8
    _mul_binomial_inplace(geo, 1)
    assert geo == [1] + [0] * 7
    a = [1, -1, 0, 0]
    _mul_binomial_inplace(a, 2)
    assert a == [1, -1, -1, 1]


def test_mul_binomial_matches_series_mul(rng):
    for _ in range(15):
        n = rng.randint(4, 30)
        k = rng.randint(1, n)
        a = random_series(rng, n)
        binom = [0] * (n + 1)
        binom[0], binom[k] = 1, -1
        c = list(a)
        _mul_binomial_inplace(c, k)
        assert tuple(c) == series_product(a, tuple(binom))


def test_div_binomial_polynomial_quotient():
    a = [1, 0, -1, 0, 0]
    _div_binomial_inplace(a, 1)
    assert a == [1, 1, 0, 0, 0]
    one = [1] + [0] * 6
    _div_binomial_inplace(one, 1)
    assert one == [1] * 7


def test_div_binomial_round_trip(rng):
    a = random_series(rng, 64)
    for k in (1, 2, 5, 7, 64):
        c = list(a)
        _mul_binomial_inplace(c, k)
        _div_binomial_inplace(c, k)
        assert c == list(a)
        _div_binomial_inplace(c, k)
        _mul_binomial_inplace(c, k)
        assert c == list(a)


def test_inverse_geometric():
    a = (1, -1, 0, 0)
    assert series_inverse(a) == (1, 1, 1, 1)
    one = (1, 0, 0)
    assert series_inverse(one) == (1, 0, 0)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError, match="non-unit constant term"):
        series_inverse((2, 1))
    with pytest.raises(ValueError, match="non-unit constant term"):
        series_inverse((0, 1))


def test_inverse_rejects_empty():
    with pytest.raises(ValueError, match="empty series"):
        series_inverse(())


def test_inverse_is_right_inverse(rng):
    for lead in (1, -1):
        for _ in range(10):
            n = rng.randint(0, 40)
            coeffs = [lead] + [rng.randint(-9, 9) for _ in range(n)]
            prod = series_product(coeffs, series_inverse(coeffs))
            assert prod == (1,) + (0,) * n


def test_partial_product_edges():
    assert product_series(0) == (1,)
    assert product_series(12) == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
    assert _full_product(0) == [1]
    with pytest.raises(ValueError, match="^negative order$"):
        product_series(-1)


def test_partial_product_matches_repeated_mul():
    expected = [1] + [0] * 21
    for k in range(1, 7):
        _mul_binomial_inplace(expected, k)
    assert _full_product(6) == expected


def ascending_product_oracle(factors, order):
    """The ascending one-comprehension-per-factor loop, kept as the oracle
    of the partial product (1-x)...(1-x^factors); it shares no kernel."""
    c = [0] * (order + 1)
    c[0] = 1
    for k in range(1, factors + 1):
        if k < len(c):
            c[k:] = [hi - lo for hi, lo in zip(c[k:], c)]
    return tuple(c)


def descending_product_oracle(factors, order):
    """The largest-first loop that ran one binomial pass per factor, kept as
    the oracle of the expansion grouped by contributing factors."""
    c = [0] * (order + 1)
    c[0] = 1
    for k in range(min(factors, order), 0, -1):
        _mul_binomial_inplace(c, k)
    return tuple(c)


def test_partial_product_matches_ascending_oracle_grid():
    # includes order 0; no factor above the order changes the series, so
    # `order` factors give the whole product
    for order in range(61):
        assert product_series(order) == ascending_product_oracle(order, order)


def test_partial_product_matches_ascending_oracle_square():
    # odd and even n
    for n in [*range(41, 600, 13), 600]:
        assert product_series(n) == ascending_product_oracle(n, n)


def test_partial_product_matches_ascending_oracle_roots_shapes():
    # the (M, M(M+1)/2) products that root_multiplicities divides
    for m in range(41):
        order = m * (m + 1) // 2
        assert tuple(_full_product(m)) == ascending_product_oracle(m, order)


def test_partial_product_matches_descending_oracle_grid():
    for order in range(61):
        assert product_series(order) == descending_product_oracle(order, order)


def test_partial_product_matches_descending_oracle_square():
    # up to the expand workload's largest order; the level count steps from
    # 67 to 68 between 2345 and 2346 = 68 * 69 / 2
    for n in [*range(41, 600, 13), 600, 1199, 1200, 1800, 2345, 2346, 2399, 2400]:
        assert product_series(n) == descending_product_oracle(n, n)


def test_partial_product_matches_descending_oracle_roots_shapes():
    for m in range(41):
        order = m * (m + 1) // 2
        assert tuple(_full_product(m)) == descending_product_oracle(m, order)


@pytest.mark.parametrize("factors, order", [(0, 1000), (2500, 0), (1000, 45), (10**18, 40)])
def test_partial_product_matches_descending_oracle_edges(factors, order):
    # past the grid: order 0 and factors far above the order for the series,
    # and the full product of no factors, zero-padded to the order
    if factors >= order:
        assert product_series(order) == descending_product_oracle(factors, order)
    else:
        p = _full_product(factors)
        assert tuple(p + [0] * (order + 1 - len(p))) == descending_product_oracle(factors, order)


def test_alternating_nest_matches_groups_expanded_alone(rng):
    # shifts up to 60 cover 2m to verify's depth 30, and bases both below and
    # at or past the length
    shapes = []
    for _ in range(400):
        length = rng.randint(1, 60)
        shapes.append((length, rng.randint(0, 60), rng.randint(0, length + 2)))
    # a length of e_n + 1 reads level n and a length of e_n does not: for the
    # product and for the residuals of stages 1, 5 and 30
    for shift, base in ((0, 0), (2, 1), (10, 5), (60, 30)):
        for n in range(1, 16):
            e_n = shift * n + n * (n + 1) // 2
            if e_n <= 130:
                shapes += [(e_n, shift, base), (e_n + 1, shift, base)]
    for length, shift, base in shapes:
        levels = [(shift + i, base + i) for i in range(1, length + 1)]
        got = _alternating_nest(length, shift, base)
        assert got == nest_oracle(length, levels), (length, shift, base)


def test_binomial_kernels_match_per_element_oracles(rng):
    # the edges first: an empty list, k = 1, k = len - 1, k = len and k > len
    shapes = [(0, 1), (0, 5), (1, 1), (1, 2), (2, 1), (7, 1), (7, 6), (7, 7), (7, 30)]
    for _ in range(300):
        size = rng.randint(0, 40)
        shapes.append((size, rng.randint(1, size + 3)))
    for size, k in shapes:
        c = [rng.randint(-(10**40), 10**40) for _ in range(size)]
        for kernel, oracle in (
            (_mul_binomial_inplace, mul_binomial_oracle),
            (_div_binomial_inplace, div_binomial_oracle),
        ):
            got = list(c)
            kernel(got, k)
            assert got == oracle(c, k), (kernel.__name__, size, k)


@pytest.mark.parametrize(
    "module,factors,order,multiplies,divides",
    [
        # the untruncated products that root_multiplicities(34) and (120)
        # build in roots: one multiply pass per factor and no divide pass
        ("roots", 34, 595, (34, 6_579), (0, 0)),
        ("roots", 120, 7260, (120, 288_100), (0, 0)),
        # the expand workload's largest order: prefix-divide passes only
        ("series", 2400, 2400, (0, 0), (68, 106_195)),
    ],
    ids=["roots-34", "roots-120", "square-2400"],
)
def test_product_work_is_pinned(work, module, factors, order, multiplies, divides):
    # the passes of each binomial kernel, each counted as the entries it
    # updates.  A change to this work updates the pin on purpose.
    product = _full_product(factors) if module == "roots" else product_series(order)
    assert tuple(product) == descending_product_oracle(factors, order)
    assert work.kernel(module, "mul") == multiplies
    assert work.kernel(module, "div") == divides
    assert work["updates"] == multiplies[1] + divides[1]


def test_product_work_grows_below_inversion(work):
    # the grouped expansion's about sqrt(2n) prefix-divide passes make about
    # 0.94 n^1.5 updates, where series inversion makes n(n+1)/2 terms, exponent 2
    sizes = (500, 1000, 2000, 4000)
    updates = []
    for n in sizes:
        work.clear()
        product_series(n)
        updates.append(work["updates"])
    assert updates == [9_605, 27_907, 80_459, 230_695]
    # fitted 1.53
    exponent = counted_exponent(sizes, updates)
    assert abs(exponent - 1.5) < 0.1
    assert exponent < counted_exponent(sizes, [n * (n + 1) // 2 for n in sizes])


def test_partial_product_coefficients_stay_small():
    s = product_series(300)
    assert set(s) <= {-1, 0, 1}


def test_json_round_trip(rng, monkeypatch, capsys):
    a = random_series(rng, 17, lo=-(10**30), hi=10**30)
    monkeypatch.setitem(cli._EXPANSIONS, "product", lambda order: a)
    assert cli.main(["expand", "--method", "product", "--order", "17", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 17
    assert all(isinstance(c, str) for c in obj["coeffs"])
    assert tuple(int(c) for c in obj["coeffs"]) == a
