import os
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from pentaseries import partitions, series


@pytest.fixture
def rng():
    """Deterministic RNG for property tests; override via PENTASERIES_SEED."""
    return random.Random(int(os.environ.get("PENTASERIES_SEED", "20260817")))


class Work(Counter):
    def kernel(self, module, op):
        """(passes, updates) of one binomial kernel called from one module."""
        return self[module, op, "passes"], self[module, op, "updates"]


@pytest.fixture
def work(monkeypatch):
    """A Work that counts what the test runs; the test may clear it.

    Each call of a binomial kernel from a pentaseries module adds one
    (module, "mul" or "div", "passes") and max(0, len(c) - k) to that key's
    "updates" and to "updates".  Every binding of a kernel in a loaded
    pentaseries module is wrapped, found by identity.  "steps" counts the
    fill's cursor steps, through iter in partitions, and "terms"
    series_inverse's inner-product terms, through reversed in series.
    """
    work = Work()
    kernels = {series._mul_binomial_inplace: "mul", series._div_binomial_inplace: "div"}

    def metered(kernel, module, op):
        def counted(c, k):
            updates = max(0, len(c) - k)
            work[module, op, "passes"] += 1
            work[module, op, "updates"] += updates
            work["updates"] += updates
            kernel(c, k)

        return counted

    for name, module in list(sys.modules.items()):
        if name == "pentaseries" or name.startswith("pentaseries."):
            for attr, value in list(vars(module).items()):
                # functions compare by identity
                if callable(value) and value in kernels:
                    monkeypatch.setattr(module, attr, metered(value, name.rpartition(".")[2], kernels[value]))

    def cursor(windows):
        for window in windows:
            work["steps"] += 1
            yield window

    def reversing(b):
        # the nest in series reverses its level list too, which is no term
        if sys._getframe(1).f_code is series.series_inverse.__code__:
            work["terms"] += len(b)
        return reversed(b)

    monkeypatch.setattr(partitions, "iter", cursor, raising=False)
    monkeypatch.setattr(series, "reversed", reversing, raising=False)
    return work


@pytest.fixture
def memory():
    """A function that runs fn(*args) under tracemalloc and returns its traced
    peak in bytes.  Peaks differ between interpreters, so gate ratios of them."""

    def peak(fn, *args):
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
