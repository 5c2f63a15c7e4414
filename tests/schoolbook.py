"""The schoolbook product, kept in the tests as the reference that series
and polynomial identities are checked against; pentaseries itself only ever
multiplies by binomials."""


def schoolbook_product(a, b, out_len):
    """Product of coefficient sequences a and b, cut at out_len entries."""
    out = [0] * out_len
    for i, ai in enumerate(a[:out_len]):
        for j, bj in enumerate(b[: out_len - i]):
            out[i + j] += ai * bj
    return out


def series_product(a, b):
    """Truncated product of two series, at the smaller of their orders."""
    return tuple(schoolbook_product(a, b, min(len(a), len(b))))
