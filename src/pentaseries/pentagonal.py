"""Generalized pentagonal numbers, their sign law, and the closed-form series.

The single formula k(3k-1)/2 over all integers k covers both exponent
families: positive k gives (3k^2-k)/2 and negative k gives (3k^2+k)/2.
Walking k = 1, -1, 2, -2, 3, -3, ... visits the exponents in strictly
ascending order, so no sorting is ever needed.
"""

from .series import Term


def gpent(k: int) -> int:
    """k(3k-1)/2 for any integer k (0 allowed, giving 0)."""
    return k * (3 * k - 1) // 2


def pent_sign(k: int) -> int:
    """+1 when |k| is even, -1 when odd."""
    return 1 if k % 2 == 0 else -1


def pent_terms_upto(n: int) -> list[Term]:
    """All terms with gpent(k) <= n, k != 0, in ascending exponent order."""
    out: list[Term] = []
    k = 1
    while True:
        for kk in (k, -k):
            e = gpent(kk)
            if e > n:
                return out
            out.append(Term(pent_sign(kk), e))
        k += 1


def closed_form_series(n: int) -> tuple[int, ...]:
    """The sparse sign series: +1 at x^0, (-1)^|k| at each gpent(k) <= n."""
    if n < 0:
        raise ValueError("negative order")
    c = [0] * (n + 1)
    c[0] = 1
    for t in pent_terms_upto(n):
        c[t.exponent] = t.sign
    return tuple(c)
