"""Root-of-unity multiplicities in partial products, checked algebraically.

Every root of (1-x)(1-x^2)...(1-x^M) is a root of unity: the factor 1 - x^k
vanishes exactly at the k-th roots.  A primitive d-th root appears in factor
k precisely when d divides k, so its multiplicity in the partial product is
floor(M/d).  The check here is exact: build the product once, divide
repeatedly by the cyclotomic polynomial of each order d and count the
divisions with zero remainder.  No complex arithmetic, no numerical
root-finding.

Only partial products are examined.  The truncated sparse series itself has
its own unrelated roots, and nothing is claimed about where those lie.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .series import convolve, partial_product

_CYCLOTOMIC_LIMIT = 10000


class IntPolynomial:
    """Exact integer polynomial, dense coefficients by ascending exponent.

    Trailing zeros are stripped on construction; the zero polynomial is the
    empty tuple and reports degree 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if a.is_zero or b.is_zero:
        return IntPolynomial()
    out_len = len(a.coeffs) + len(b.coeffs) - 1
    return IntPolynomial(convolve(a.coeffs, b.coeffs, out_len))


def poly_divrem(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Long division a = b*q + r with deg r < deg b; b must be monic so the
    quotient stays over the integers."""
    if not b.is_monic:
        raise ValueError("non-monic divisor")
    bc = b.coeffs
    db = len(bc) - 1
    r = list(a.coeffs)
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j, bj in enumerate(bc):
                r[i - db + j] -= c * bj
    return IntPolynomial(q), IntPolynomial(r[:db])


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial, by exact division:
    (x^d - 1) / product of cyclotomic(e) over proper divisors e of d."""
    if d < 1 or d > _CYCLOTOMIC_LIMIT:
        raise ValueError("cyclotomic index out of range")
    num = IntPolynomial([-1] + [0] * (d - 1) + [1])
    den = IntPolynomial([1])
    for e in range(1, d):
        if d % e == 0:
            den = poly_mul(den, cyclotomic(e))
    quot, rem = poly_divrem(num, den)
    if not rem.is_zero:
        raise ArithmeticError("internal division failure")
    return quot


def root_multiplicities(factors: int) -> tuple[int, ...]:
    """Multiplicities of the primitive d-th roots of unity in
    (1-x)(1-x^2)...(1-x^factors); entry d-1 is the count for d = 1..factors.

    The full product (degree factors(factors+1)/2, so nothing is truncated)
    is built once.  Phi_factors, ..., Phi_1 are then divided out of the
    running quotient, each until a nonzero remainder appears.  Distinct
    cyclotomic polynomials are coprime, so each count equals the one a
    division of the full product by Phi_d alone would give.  Largest d goes
    first because that keeps the quotient's coefficients small.
    """
    if factors < 0:
        raise ValueError("negative factor count")
    p = IntPolynomial(partial_product(factors, factors * (factors + 1) // 2).coeffs)
    counts = [0] * factors
    for d in range(factors, 0, -1):
        phi = cyclotomic(d)
        while True:
            quot, rem = poly_divrem(p, phi)
            if not rem.is_zero:
                break
            p = quot
            counts[d - 1] += 1
    return tuple(counts)


def totient(n: int) -> int:
    """Count of 1 <= k <= n coprime to n, by trial-division factoring."""
    if n < 1:
        raise ValueError("totient of non-positive integer")
    result = n
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            result -= result // f
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        result -= result // m
    return result
