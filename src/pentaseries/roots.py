"""Root-of-unity multiplicities in partial products, checked algebraically.

Every root of (1-x)(1-x^2)...(1-x^M) is a root of unity: the factor 1 - x^n
vanishes exactly at the n-th roots.  A primitive d-th root appears in factor
n precisely when d divides n, so its multiplicity in the partial product is
floor(M/d).  The check here is exact and needs no complex arithmetic and no
numerical root-finding: build the product once and divide out the paper's
own factors (1 - x^n), each as often as a fold shows that it divides:
1 - x^n divides p exactly when p is 0 modulo x^n - 1, that is, when the
coefficients of each residue class of exponents mod n sum to 0.

Counting the divisions gives exponents c_n, and a leftover quotient of
exactly 1 certifies that the product equals prod_n (1 - x^n)^c_n.  Since
x^n - 1 is the product of the cyclotomic polynomials Phi_e over the e
dividing n, a primitive d-th root then has multiplicity sum_{d|n} c_n.  Any
other leftover (the product negated or tripled, say) is a failed check.

Only partial products are examined.  The truncated sparse series itself has
its own unrelated roots, and nothing is claimed about where those lie.
"""

from .series import _div_binomial_inplace, _mul_binomial_inplace


def _full_product(m: int) -> list[int]:
    """(1-x)(1-x^2)...(1-x^m) untruncated: for n = 1..m, n new top zeros and
    one multiply pass by (1 - x^n), m + (m-1)m(m+1)/6 updates in all."""
    p = [1]
    for n in range(1, m + 1):
        p += [0] * n
        _mul_binomial_inplace(p, n)
    return p


def root_multiplicities(factors: int) -> tuple[int, ...]:
    """Multiplicities of the primitive d-th roots of unity in
    (1-x)(1-x^2)...(1-x^factors); entry d-1 is the count for d = 1..factors.

    The full product (degree factors(factors+1)/2, so nothing is truncated)
    is built once.  For n = factors, ..., 1, while the running quotient p is
    longer than n and its n sums sum(p[r::n]) are all 0, one prefix-divide
    pass divides p by (1 - x^n) in place and its top n entries, now 0, are
    dropped: the true product takes one pass per n.  Only the zero
    polynomial, whose every fold is 0, needs the length condition to stop.
    Largest n goes first: 1 - x^e divides 1 - x^n whenever e divides n, so a
    smaller e divided out first would take the factors of the larger n.
    The exponents c_n are unique, since Moebius inversion fixes them from
    the multiplicities of the Phi_d.  Dividing the true product updates as
    many entries as building it.

    Raises ArithmeticError, naming the degree and first coefficients of the
    leftover, when the quotient left at the end is not exactly 1.
    """
    if factors < 0:
        raise ValueError("negative factor count")
    p = _full_product(factors)
    exponents = [0] * (factors + 1)
    for n in range(factors, 0, -1):
        while len(p) > n and not any(sum(p[r::n]) for r in range(n)):
            _div_binomial_inplace(p, n)
            del p[-n:]
            exponents[n] += 1
    if p != [1]:
        raise ArithmeticError(
            f"the product is not a product of factors (1 - x^n): leftover of degree {len(p) - 1}, "
            f"starting {p[:4]}"
        )
    return tuple(sum(exponents[d::d]) for d in range(1, factors + 1))
