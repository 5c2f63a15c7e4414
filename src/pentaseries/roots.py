"""Root-of-unity multiplicities in partial products, checked algebraically.

Every root of (1-x)(1-x^2)...(1-x^M) is a root of unity: the factor 1 - x^k
vanishes exactly at the k-th roots.  A primitive d-th root appears in factor
k precisely when d divides k, so its multiplicity in the partial product is
floor(M/d).  The check here is exact: build the product once, divide
repeatedly by the cyclotomic polynomial of each order d and count the
divisions with zero remainder.  No complex arithmetic, no numerical
root-finding.

Phi_d is never expanded.  Moebius inversion of x^d - 1 = prod_{e|d} Phi_e
gives it in factored form,

    Phi_d = +-prod_{e|d} (1 - x^e)^mu(d/e),

so dividing by Phi_d is multiplying by each (1 - x^e) with mu(d/e) = -1 and
then dividing exactly by each (1 - x^e) with mu(d/e) = +1.  Both are the
linear binomial passes of the series module; a division that leaves
anything in the top e entries means Phi_d does not divide.

Only partial products are examined.  The truncated sparse series itself has
its own unrelated roots, and nothing is claimed about where those lie.
"""

from __future__ import annotations

from .series import _div_binomial_inplace, _mul_binomial_inplace, partial_product


def _prime_factors(n: int) -> list[int]:
    """The distinct primes of n >= 1, ascending, by trial division."""
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def _divide_by_phi(p: list[int], d: int) -> list[int] | None:
    """p / prod_{e|d} (1 - x^e)^mu(d/e), or None if that does not divide p.

    p holds a nonzero polynomial with no trailing zeros, and so does the
    quotient.  The factored product is Phi_d for d > 1 and -Phi_1 for d = 1.
    The e with mu(d/e) = +-1 are d over the square-free products of d's
    primes, the sign being that of (-1)^(number of primes).
    """
    plus, minus = [d], []
    for prime in _prime_factors(d):
        plus, minus = plus + [e // prime for e in minus], minus + [e // prime for e in plus]
    q = list(p)
    for e in minus:
        q += [0] * e
        _mul_binomial_inplace(q, e)
    for e in plus:
        _div_binomial_inplace(q, e)
        if any(q[-e:]):
            return None
        del q[-e:]
    return q


def root_multiplicities(factors: int) -> tuple[int, ...]:
    """Multiplicities of the primitive d-th roots of unity in
    (1-x)(1-x^2)...(1-x^factors); entry d-1 is the count for d = 1..factors.

    The full product (degree factors(factors+1)/2, so nothing is truncated)
    is built once.  Phi_factors, ..., Phi_1 are then divided out of the
    running quotient, each until a division fails.  Distinct cyclotomic
    polynomials are coprime, so each count equals the one a division of the
    full product by Phi_d alone would give.  Largest d goes first because
    that keeps the quotient's coefficients small.

    The factored division drops the degree by phi(d) >= 1, so an accepted
    quotient not strictly shorter than its dividend means the division is
    wrong; that raises ArithmeticError instead of dividing forever.
    """
    if factors < 0:
        raise ValueError("negative factor count")
    p = list(partial_product(factors, factors * (factors + 1) // 2))
    counts = [0] * factors
    for d in range(factors, 0, -1):
        while (quot := _divide_by_phi(p, d)) is not None:
            if len(quot) >= len(p):
                raise ArithmeticError(f"division by Phi_{d} left the length at {len(quot)}")
            p = quot
            counts[d - 1] += 1
    return tuple(counts)
