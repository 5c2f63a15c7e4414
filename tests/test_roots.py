import pytest

from pentaseries import roots
from pentaseries.roots import (
    IntPolynomial,
    cyclotomic,
    poly_divrem,
    poly_mul,
    root_multiplicities,
    totient,
)
from pentaseries.series import partial_product

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


def poly_mul_oracle(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_normalization():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    z = IntPolynomial([0, 0])
    assert z.is_zero
    assert z.degree == 0
    assert IntPolynomial([1, 2]) == p
    assert hash(IntPolynomial([1, 2])) == hash(p)


def test_monic_flag():
    assert IntPolynomial([5, 1]).is_monic
    assert not IntPolynomial([1, 2]).is_monic
    assert not IntPolynomial().is_monic


def test_poly_mul_matches_oracle(rng):
    for _ in range(20):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        got = poly_mul(IntPolynomial(a), IntPolynomial(b))
        assert got == IntPolynomial(poly_mul_oracle(a, b))


def test_divrem_exact_and_remainder():
    x2m1 = IntPolynomial([-1, 0, 1])
    xm1 = IntPolynomial([-1, 1])
    q, r = poly_divrem(x2m1, xm1)
    assert q == IntPolynomial([1, 1])
    assert r.is_zero
    q, r = poly_divrem(IntPolynomial([1, 0, 1]), xm1)
    assert q == IntPolynomial([1, 1])
    assert r == IntPolynomial([2])


def test_divrem_rejects_non_monic():
    with pytest.raises(ValueError, match="non-monic divisor"):
        poly_divrem(IntPolynomial([1, 1]), IntPolynomial([1, 2]))
    with pytest.raises(ValueError, match="non-monic divisor"):
        poly_divrem(IntPolynomial([1, 1]), IntPolynomial())


def poly_add_oracle(a, b):
    n = max(len(a), len(b))
    padded_a = list(a) + [0] * (n - len(a))
    padded_b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(padded_a, padded_b)]


def test_divrem_round_trip(rng):
    for _ in range(20):
        a = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 10))])
        b = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [1])
        q, r = poly_divrem(a, b)
        recomposed = poly_add_oracle(poly_mul_oracle(b.coeffs, q.coeffs), r.coeffs)
        assert IntPolynomial(recomposed) == a
        assert r.is_zero or r.degree < b.degree


def test_cyclotomic_small_table():
    for d, coeffs in CYCLOTOMIC_SMALL.items():
        assert cyclotomic(d).coeffs == coeffs


def test_cyclotomic_monic_with_totient_degree():
    for d in range(1, 60):
        phi_d = cyclotomic(d)
        assert phi_d.is_monic
        assert phi_d.degree == totient(d)


def test_cyclotomic_product_reassembles():
    for d in (6, 12, 30):
        prod = IntPolynomial([1])
        for e in range(1, d + 1):
            if d % e == 0:
                prod = poly_mul(prod, cyclotomic(e))
        assert prod == IntPolynomial([-1] + [0] * (d - 1) + [1])


def test_cyclotomic_first_big_coefficient():
    # smallest order with a coefficient of magnitude 2
    phi = cyclotomic(105)
    assert phi.degree == 48
    assert min(phi.coeffs) == -2


def test_cyclotomic_bounds():
    with pytest.raises(ValueError, match="cyclotomic index out of range"):
        cyclotomic(0)
    with pytest.raises(ValueError, match="cyclotomic index out of range"):
        cyclotomic(10001)


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
    p = IntPolynomial([1])
    for k in range(1, m + 1):
        p = poly_mul(p, IntPolynomial([1] + [0] * (k - 1) + [-1]))
    return p


def per_d_multiplicity(m, d):
    """Divide the full product by Phi_d alone until a remainder appears;
    the one-d-at-a-time algorithm, kept as the oracle."""
    p = dense_binomial_product(m)
    count = 0
    while True:
        quot, rem = poly_divrem(p, cyclotomic(d))
        if not rem.is_zero:
            return count
        p = quot
        count += 1


def test_multiplicities_match_per_d_oracle():
    for m in range(25):
        expected = tuple(per_d_multiplicity(m, d) for d in range(1, m + 1))
        assert root_multiplicities(m) == expected


def test_multiplicities_build_the_product_once(monkeypatch):
    calls = []

    def counting_partial_product(factors, order):
        calls.append((factors, order))
        return partial_product(factors, order)

    monkeypatch.setattr(roots, "partial_product", counting_partial_product)
    assert root_multiplicities(20) == tuple(20 // d for d in range(1, 21))
    assert calls == [(20, 210)]


@pytest.mark.parametrize("m", [1, 5, 30])
def test_multiplicity_divides_the_full_product(monkeypatch, m):
    dividends = []

    def recording_divrem(a, b):
        dividends.append(a)
        return poly_divrem(a, b)

    monkeypatch.setattr(roots, "poly_divrem", recording_divrem)
    assert root_multiplicities(m)[0] == m
    assert dividends[0] == dense_binomial_product(m)
    assert dividends[0].degree == m * (m + 1) // 2


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
