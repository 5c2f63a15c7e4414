import re
import sys
from functools import lru_cache

import pytest

from pentaseries import roots
from pentaseries.roots import _full_product, root_multiplicities

from oracles import counted_exponent, mul_binomial_oracle, totient, trial_division_multiplicities
from schoolbook import schoolbook_product

CYCLOTOMIC_SMALL = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


# The expanded-polynomial stack that root_multiplicities once used, kept as
# the oracle: dense long division by Phi_d, itself found by long division of
# x^d - 1.


def poly(coeffs=()):
    """Exact integer polynomial as a tuple of coefficients by ascending
    exponent, trailing zeros stripped; the zero polynomial is ()."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p):
    """The degree of a stripped polynomial; the zero polynomial reports 0."""
    return len(p) - 1 if p else 0


def is_monic(p):
    return bool(p) and p[-1] == 1


def poly_mul(a, b):
    if not a or not b:
        return ()
    return poly(schoolbook_product(a, b, len(a) + len(b) - 1))


def poly_divrem(a, b):
    """Long division a = b*q + r with deg r < deg b; b must be monic so the
    quotient stays over the integers."""
    if not is_monic(b):
        raise ValueError("non-monic divisor")
    db = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j, bj in enumerate(b):
                r[i - db + j] -= c * bj
    return poly(q), poly(r[:db])


@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial (d >= 1), by exact division:
    (x^d - 1) / product of cyclotomic(e) over proper divisors e of d."""
    num = poly([-1] + [0] * (d - 1) + [1])
    den = (1,)
    for e in range(1, d):
        if d % e == 0:
            den = poly_mul(den, cyclotomic(e))
    quot, rem = poly_divrem(num, den)
    if rem:
        raise ArithmeticError("internal division failure")
    return quot


def poly_mul_oracle(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_normalization():
    p = poly([1, 2, 0, 0])
    assert p == (1, 2)
    assert degree(p) == 1
    z = poly([0, 0])
    assert z == ()
    assert degree(z) == 0


def test_monic_flag():
    assert is_monic((5, 1))
    assert not is_monic((1, 2))
    assert not is_monic(())


def test_poly_mul_matches_oracle(rng):
    for _ in range(20):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        got = poly_mul(poly(a), poly(b))
        assert got == poly(poly_mul_oracle(a, b))


def test_divrem_exact_and_remainder():
    x2m1 = (-1, 0, 1)
    xm1 = (-1, 1)
    q, r = poly_divrem(x2m1, xm1)
    assert q == (1, 1)
    assert r == ()
    q, r = poly_divrem((1, 0, 1), xm1)
    assert q == (1, 1)
    assert r == (2,)


def test_divrem_rejects_non_monic():
    with pytest.raises(ValueError, match="non-monic divisor"):
        poly_divrem((1, 1), (1, 2))
    with pytest.raises(ValueError, match="non-monic divisor"):
        poly_divrem((1, 1), ())


def poly_add_oracle(a, b):
    n = max(len(a), len(b))
    padded_a = list(a) + [0] * (n - len(a))
    padded_b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(padded_a, padded_b)]


def test_divrem_round_trip(rng):
    for _ in range(20):
        a = poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
        b = poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        q, r = poly_divrem(a, b)
        recomposed = poly_add_oracle(poly_mul_oracle(b, q), r)
        assert poly(recomposed) == a
        assert not r or degree(r) < degree(b)


def test_cyclotomic_small_table():
    for d, coeffs in CYCLOTOMIC_SMALL.items():
        assert cyclotomic(d) == coeffs


def test_cyclotomic_monic_with_totient_degree():
    for d in range(1, 60):
        phi_d = cyclotomic(d)
        assert is_monic(phi_d)
        assert degree(phi_d) == totient(d)


def test_cyclotomic_product_reassembles():
    for d in (6, 12, 30):
        prod = (1,)
        for e in range(1, d + 1):
            if d % e == 0:
                prod = poly_mul(prod, cyclotomic(e))
        assert prod == (-1,) + (0,) * (d - 1) + (1,)


def test_cyclotomic_first_big_coefficient():
    # smallest order with a coefficient of magnitude 2
    phi = cyclotomic(105)
    assert degree(phi) == 48
    assert min(phi) == -2


def test_multiplicity_examples():
    assert root_multiplicities(6) == (6, 3, 2, 1, 1, 1)
    assert root_multiplicities(4)[1] == 2
    assert root_multiplicities(1) == (1,)
    assert root_multiplicities(0) == ()


def test_multiplicity_floor_rule():
    for m in range(13):
        assert root_multiplicities(m) == tuple(m // d for d in range(1, m + 1))


def test_multiplicities_reject_negative_factor_count():
    with pytest.raises(ValueError, match="negative factor count"):
        root_multiplicities(-1)


def dense_binomial_product(m):
    """(1-x)...(1-x^m) by poly_mul with each dense binomial; slow oracle."""
    p = (1,)
    for k in range(1, m + 1):
        p = poly_mul(p, (1,) + (0,) * (k - 1) + (-1,))
    return p


def per_d_multiplicity(m, d):
    """Divide the full product by Phi_d alone until a remainder appears;
    the one-d-at-a-time algorithm, kept as the oracle."""
    p = dense_binomial_product(m)
    count = 0
    while True:
        quot, rem = poly_divrem(p, cyclotomic(d))
        if rem:
            return count
        p = quot
        count += 1


def test_multiplicities_match_per_d_oracle():
    for m in range(25):
        expected = tuple(per_d_multiplicity(m, d) for d in range(1, m + 1))
        assert root_multiplicities(m) == expected


def test_multiplicities_build_the_product_once(monkeypatch):
    calls = []

    def counting_full_product(m):
        calls.append(m)
        return _full_product(m)

    monkeypatch.setattr(roots, "_full_product", counting_full_product)
    assert root_multiplicities(20) == tuple(20 // d for d in range(1, 21))
    assert calls == [20]


@pytest.mark.parametrize("m", [1, 5, 30])
def test_multiplicity_divides_the_full_product(monkeypatch, m):
    dividends = []
    divide = roots._div_binomial_inplace

    def recording_divide(c, k):
        dividends.append(tuple(c))
        divide(c, k)

    monkeypatch.setattr(roots, "_div_binomial_inplace", recording_divide)
    assert root_multiplicities(m)[0] == m
    assert dividends[0] == dense_binomial_product(m)
    assert len(dividends[0]) - 1 == m * (m + 1) // 2


def patch_product(monkeypatch, change):
    """Make roots build change(the product's coefficients) instead; each
    build returns a new list, which the division may change in place."""
    monkeypatch.setattr(roots, "_full_product", lambda m: list(change(_full_product(m))))


@pytest.mark.parametrize(
    "change,leftover",
    [
        (lambda p: [3 * c for c in p], "degree 0, starting [3]"),
        (lambda p: [-c for c in p], "degree 0, starting [-1]"),
        # 1 + x^2 + x^3, which no (1 - x^n) divides
        (lambda p: list(poly_mul(p, (1, 0, 1, 1))), "degree 3, starting [1, 0, 1, 1]"),
        # every fold of the zero product is 0, so only the length condition
        # stops its divisions
        (lambda p: [0] * len(p), "degree 0, starting [0]"),
    ],
    ids=["tripled", "negated", "times-1+x^2+x^3", "zero"],
)
def test_a_leftover_other_than_one_raises(monkeypatch, change, leftover):
    # the tripled and negated products have every count floor(M/d), so
    # only the leftover tells them from the product itself
    patch_product(monkeypatch, change)
    with pytest.raises(ArithmeticError, match=re.escape(f"leftover of {leftover}")):
        root_multiplicities(12)


@pytest.mark.parametrize("m", [6, 13, 20])
def test_a_product_times_one_plus_x_counts_one_more_square_root(monkeypatch, m):
    # 1 + x = (1 - x^2) / (1 - x), so the leftover is still 1, with one
    # factor 1 - x fewer and one 1 - x^2 more: the root 1 keeps its
    # multiplicity, and the root -1 gains one
    patch_product(monkeypatch, lambda p: list(poly_mul(p, (1, 1))))
    assert root_multiplicities(m) == (m, m // 2 + 1) + tuple(m // d for d in range(3, m + 1))


@pytest.mark.parametrize("m", [5, 13, 20])
def test_a_product_without_one_minus_x5_undercounts(monkeypatch, m):
    # built without 1 - x^5, so the primitive 1st and 5th roots are each one short
    without_5 = [1, *[0] * (m * (m + 1) // 2 - 5)]
    for k in range(1, m + 1):
        if k != 5:
            without_5 = mul_binomial_oracle(without_5, k)
    patch_product(monkeypatch, lambda p: without_5)
    assert root_multiplicities(m) == tuple(m // d - (d in (1, 5)) for d in range(1, m + 1))


def perturbed_products(rng):
    """(form, M, coefficients) for M < 25: each product exact, with one
    coefficient nudged, scaled, zeroed and times (1 + x^k)."""
    for _ in range(200):
        m = rng.randrange(25)
        p = _full_product(m)
        yield "exact", m, p
        nudged = list(p)
        nudged[rng.randrange(len(p))] += rng.choice((-2, -1, 1, 2))
        yield "nudged", m, nudged
        yield "scaled", m, [rng.choice((-3, -1, 2, 3)) * c for c in p]
        yield "zero", m, [0] * len(p)
        k = rng.randint(1, m + 2)
        yield "times 1+x^k", m, [a + b for a, b in zip(p + [0] * k, [0] * k + p)]


def outcome(count, *args):
    try:
        return count(*args)
    except ArithmeticError as e:
        return str(e)


def test_the_fold_matches_trial_division(monkeypatch, rng):
    # the same counts, or the same leftover message, as dividing a copy and
    # keeping it only when the pass leaves the top n entries 0
    returned = set()
    for form, m, p in perturbed_products(rng):
        # a copy, as the division changes the list it is given
        monkeypatch.setattr(roots, "_full_product", lambda _: list(p))
        expected = outcome(trial_division_multiplicities, m, p)
        assert outcome(root_multiplicities, m) == expected, (form, m, p)
        returned.add((form, isinstance(expected, tuple)))
    # every form ran, and the exact products all counted
    assert {form for form, _ in returned} == {"exact", "nudged", "scaled", "zero", "times 1+x^k"}
    assert ("exact", False) not in returned


@pytest.mark.parametrize("m,passes,updates", [(34, 34, 6_579), (120, 120, 288_100)])
def test_roots_division_work_is_pinned(work, m, passes, updates):
    # the prefix-divide passes that divide the product and the multiply
    # passes that build it, each counted as the entries it updates: one of
    # each per factor, and the same count.  A change to this work updates
    # the pin on purpose.
    assert root_multiplicities(m) == tuple(m // d for d in range(1, m + 1))
    assert work.kernel("roots", "div") == (passes, updates)
    assert work.kernel("roots", "mul") == (passes, updates)


def test_roots_peak_stays_within_a_multiple_of_the_product(memory):
    # the phase divides the product it built in place, so its traced peak is
    # 1.90-2.02x the product's own size (list and ints) at M = 80 on 3.10-3.13
    product = _full_product(80)
    size = sys.getsizeof(product) + sum(map(sys.getsizeof, product))
    assert memory(root_multiplicities, 80) <= 2.3 * size


def test_roots_work_grows_as_the_cube(work):
    # the product of degree M(M+1)/2 is built in M levels and divided by
    # each (1 - x^n) once, each pass at most that long: every kernel update
    # of the call grows about as M^3
    sizes = (10, 20, 40, 80)
    updates = []
    for m in sizes:
        work.clear()
        root_multiplicities(m)
        updates.append(work["updates"])
    assert updates == [350, 2_700, 21_400, 170_800]
    # at M = 80: the build's multiply updates and the division's, all in
    # roots, which reaches no route of the series module
    assert work["roots", "mul", "updates"] == work["roots", "div", "updates"] == 85_400
    assert work["series", "mul", "updates"] == work["series", "div", "updates"] == 0
    # fitted 2.98
    assert abs(counted_exponent(sizes, updates) - 3) < 0.1
    # exactly M + (M-1)M(M+1)/6 updates each to build and to divide, at every M to 40
    counts = []
    for m in range(41):
        work.clear()
        root_multiplicities(m)
        counts.append(work["updates"])
    assert counts == [2 * (m + (m - 1) * m * (m + 1) // 6) for m in range(41)]


def test_degree_bookkeeping():
    m = 12
    total = sum(totient(d) * mult for d, mult in enumerate(root_multiplicities(m), 1))
    assert total == m * (m + 1) // 2


@pytest.mark.parametrize(
    "n,phi",
    [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (7, 6), (8, 4), (9, 6),
     (10, 4), (11, 10), (12, 4), (36, 12), (97, 96)],
)
def test_totient(n, phi):
    assert totient(n) == phi


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)
