import pytest

from pentaseries.pentagonal import (
    closed_form_series,
    gpent,
    pent_sign,
    pent_terms_upto,
)
from pentaseries.series import Term, product_series


@pytest.mark.parametrize(
    "k,expected",
    [(1, 1), (-1, 2), (2, 5), (-2, 7), (3, 12), (-3, 15), (0, 0), (7, 70), (-7, 77)],
)
def test_gpent_values(k, expected):
    assert gpent(k) == expected


def test_pent_sign_parity():
    assert [pent_sign(k) for k in (1, -1, 2, -2, 3, -3, 4)] == [-1, -1, 1, 1, -1, -1, 1]


def test_terms_empty_below_first_exponent():
    assert pent_terms_upto(0) == []


def test_terms_up_to_seven():
    terms = pent_terms_upto(7)
    assert [(t.exponent, t.sign) for t in terms] == [(1, -1), (2, -1), (5, 1), (7, 1)]
    assert terms == [Term(-1, 1), Term(-1, 2), Term(1, 5), Term(1, 7)]


def test_terms_up_to_fifty_one():
    # the constant 1 of the full series is not a term, so eleven remain
    terms = pent_terms_upto(51)
    assert len(terms) == 11
    assert terms[-1].exponent == 51
    assert terms[-1].sign == 1
    assert [t.exponent for t in terms] == [1, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51]


def test_exponents_strictly_increase():
    terms = pent_terms_upto(5000)
    exps = [t.exponent for t in terms]
    assert all(a < b for a, b in zip(exps, exps[1:]))


def test_signs_come_in_alternating_pairs():
    terms = pent_terms_upto(2000)
    signs = [t.sign for t in terms]
    pairs = list(zip(signs[0::2], signs[1::2]))
    assert all(a == b for a, b in pairs)
    assert all(a != b for (a, _), (b, _) in zip(pairs, pairs[1:]))


def test_positive_branch_gaps_are_arithmetic():
    exps = [gpent(k) for k in range(1, 40)]
    gaps = [b - a for a, b in zip(exps, exps[1:])]
    second = [b - a for a, b in zip(gaps, gaps[1:])]
    assert set(second) == {3}


def test_closed_form_small_orders():
    assert closed_form_series(0) == (1,)
    assert closed_form_series(4) == (1, -1, -1, 0, 0)
    s = closed_form_series(15)
    nonzero = {e: c for e, c in enumerate(s) if c}
    assert nonzero == {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    with pytest.raises(ValueError, match="^negative order$"):
        closed_form_series(-1)


def test_closed_form_equals_product():
    for n in (0, 1, 17, 300):
        assert closed_form_series(n) == product_series(n)


def test_closed_form_equals_product_at_order_20000():
    # ten times criterion 1's order: the product's nest runs 199 levels
    assert closed_form_series(20000) == product_series(20000)
