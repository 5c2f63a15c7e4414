"""Two independent expansions of (1-x)(1-x^2)(1-x^3)... as term streams.

Both algorithms work the same way at heart: the tail of the product that has
not yet been expanded is held as a residual series (classically written with
the letters A, B, C, ...), one binomial factor of that residual is expanded,
equal powers are regrouped, and exactly two explicit terms fall out per
stage.  What distinguishes the methods is the regrouping, and therefore the
pairing of the emitted exponents:

* method 1 pairs the exponents (3m^2+m)/2 and (3(m+1)^2-(m+1))/2, i.e. each
  stage head together with the low exponent of the NEXT index.  Its stage
  heads run 2, 7, 15, 26, 40, 57, ...

* method 2 anchors stage n at t_n = 3n(n+1)/2 (three times a triangular
  number) and emits the pair (t_n - 2n, t_n - n), which is exactly
  ((3n^2-n)/2, (3n^2+n)/2) -- both exponents of one index.  Its anchors run
  3, 9, 18, 30, 45, ...

The streams below are driven ONLY by additive recurrences on those stage
quantities; neither consults the pentagonal closed form.  Their agreement
with each other and with the closed form is therefore genuine
cross-validation, not circularity.

Classical presentations also tabulate each stage head as nested sums of
smaller pieces (7 = 3 + 4, 15 = 7 + 8, and finer splittings).  That
bookkeeping is descriptive only; nothing here models or reproduces it.
Streams carry nothing but (sign, exponent) pairs.
"""

from collections.abc import Iterator
from functools import lru_cache

from .series import Term, _alternating_nest


def _check_stage(method: str, m: int = 1, order: int = 0) -> None:
    if method not in ("method1", "method2"):
        raise ValueError(f"unknown method {method!r}")
    if m < 1:
        raise ValueError("stage index below 1")
    if order < 0:
        raise ValueError("negative order")


def _stages(method: str) -> Iterator[tuple[int, int, int, int]]:
    """Yield (m, low, high, head) for m = 1, 2, ... forever.

    method 1: head = low starts at 2, high = low + (2m+1), and the next low
    is high + (m+1).
    method 2: head is the anchor t, which starts at 3 and grows by 3(m+1);
    the emitted pair is (t - 2m, t - m).
    """
    m = 1
    if method == "method1":
        low = 2
        while True:
            high = low + (2 * m + 1)
            yield m, low, high, low
            low = high + (m + 1)
            m += 1
    t = 3
    while True:
        yield m, t - 2 * m, t - m, t
        t += 3 * (m + 1)
        m += 1


def _terms(method: str) -> Iterator[Term]:
    # method 1 opens with -x and flips the sign inside each pair; method 2
    # emits equal-signed pairs.
    yield Term(1, 0)
    flip = 1
    if method == "method1":
        yield Term(-1, 1)
        flip = -1
    for m, low, high, _ in _stages(method):
        s = -1 if m % 2 else 1
        yield Term(s, low)
        yield Term(flip * s, high)


def identity_exponents(method: str, m: int, order: int) -> tuple[int, int]:
    """The exponent pair on the explicit side of stage m's identity (see
    verify_stage): stage m's emissions for method 1, stage m+1's for method 2.

    Raises ValueError unless both fit within `order`.  Every stage emission
    exceeds its index (method 1's low is >= 2m, method 2's (3m^2-m)/2 >= m),
    so m >= order fails before any stage is walked.  The emissions ascend, so
    the walk stops at the first stage that emits above the order, after at
    most about sqrt(2 * order / 3) stages.  Before the walk, a dense series of
    the order is allocated: an order past the platform's index range raises
    OverflowError there, and one whose series does not fit in memory
    MemoryError.
    """
    _check_stage(method, m)
    if m >= order:
        raise ValueError(
            f"order below stage emissions: stage {m} needs an exponent above {m}, got order {order}"
        )
    [0] * (order + 1)  # the dense series the identity is checked on (see above)
    target = m + (method == "method2")
    for stage, lo, hi, _ in _stages(method):
        if hi > order:
            need = f"exponent {hi}" if stage == target else f"an exponent above {hi}"
            raise ValueError(
                f"order below stage emissions: stage {m} ({method}) needs {need}, got order {order}"
            )
        if stage == target:
            return lo, hi


def stream_series(method: str, order: int) -> tuple[int, ...]:
    """Assemble the stream into a dense series truncated at `order`."""
    _check_stage(method, order=order)
    c = [0] * (order + 1)
    for sign, exponent in _terms(method):
        if exponent > order:
            break
        c[exponent] += sign
    return tuple(c)


@lru_cache(maxsize=4)
def residual_series(method: str, m: int, order: int) -> tuple[int, ...]:
    """The stage-m residual (letter value) from its defining sum, mod x^(order+1).

    method 1, stage m:   sum over j >= 0 of
        x^(h + m*j) * (1 - x^m)(1 - x^(m+1))...(1 - x^(m+j)),
    where h is the stage head (h = 2 for m = 1).

    method 2, stage m:   x^t  minus  the sum over j >= 0 of
        x^(t + m*j) * (1 - x^m)(1 - x^(m+1))...(1 - x^(m+j+1)),
    where t = 3m(m+1)/2 is the stage anchor.

    Grouped by the number i of factors that contribute their -x^k (the finite
    q-binomial theorem, then the sum over j swapped in), method 1's sum is

        x^h * sum over i >= 0 of (-1)^i x^(2mi + i(i+1)/2) / ((1 - x^(m+1))...(1 - x^(m+i))),

    the alternating nest (see series._alternating_nest) with shift 2m and
    base m: only the i with 2mi + i(i+1)/2 <= order - h are read,
    about sqrt(2 * order) of them instead of the order / m summands.
    The recurrences make t = h + m, so method 2's j-th summand is method 1's
    (j+1)-th and the two letters add up to x^h: method 2 is x^(t-m) minus
    method 1's residual, and makes no pass of its own.  Four are cached
    (stages m, m + 1 of both methods): verify's traced peak is flat in the depth.
    """
    _check_stage(method, m, order)
    # allocated first, so an order too large for memory fails before any level
    acc = [0] * (order + 1)
    # the heads ascend, so the walk stops at the first head above the order,
    # after at most about sqrt(2 * order / 3) stages
    for stage, _, _, head in _stages(method):
        if head > order:
            return tuple(acc)
        if stage == m:
            break

    if method == "method2":
        # the anchor t lies m above method 1's head h: x^h minus method 1's letter
        acc = [-c for c in residual_series("method1", m, order)]
        acc[head - m] += 1
        return tuple(acc)
    return (0,) * head + _alternating_nest(order - head + 1, 2 * m, m)


def verify_stage(method: str, m: int, order: int) -> bool:
    """Check the stage identity relating residual m to residual m+1.

    method 1:  residual(m) = x^e1 - x^e2 - residual(m+1)
    method 2:  residual(m) = x^a + x^b - residual(m+1),

    where (e1, e2) are stage m's emissions and (a, b) are stage (m+1)'s.
    Exact coefficient equality at the given order (ValueError below the
    identity's exponents, see identity_exponents); method 2 reads method 1's
    residuals from the cache only if both methods check stage m before
    stage m + 1.
    """
    lo, hi = identity_exponents(method, m, order)
    r = residual_series(method, m, order)
    r_next = residual_series(method, m + 1, order)
    expected = [0] * (order + 1)
    expected[lo] = 1
    expected[hi] = 1 if method == "method2" else -1
    return [a + b for a, b in zip(r, r_next)] == expected
