"""Timing harness for the product expansion and the two partition routes.

Reporting only: nothing here passes or fails.  Each task runs at most five
times at a size, every call timed on the monotonic clock, and stops early
once its timed calls sum to a one-second budget.  At least one call is
always made, and a slow task (series inversion is O(n^2)) gives its figure
from one or two calls instead of five: a task at a size takes less than the
budget plus one call.  The recorded wall time is the median of the timed
calls, the upper one for an even count.  The peak coefficient bit-length is
read from a result after its clock stops.  It is reported because the two
partition routes are big-integer algorithms and their operand sizes grow
with n.  The command line prints the records as CSV or JSON.
"""

import time
from collections import namedtuple

from .partitions import partition_series, partition_values
from .series import product_series

REPETITIONS = 5
BUDGET_NS = 10**9

BenchRecord = namedtuple("BenchRecord", "task n wall_ns max_coeff_bits")


# Each task returns the coefficient sequence it computed.
_TASKS = (
    ("product", product_series),
    ("partition_inverse", partition_series),
    ("partition_recurrence", partition_values),
)


def run_bench(sizes: list[int]) -> list[BenchRecord]:
    """One BenchRecord per (size, task), sizes outermost."""
    records = []
    for n in sizes:
        for name, fn in _TASKS:
            times = []
            while len(times) < REPETITIONS and sum(times) < BUDGET_NS:
                start = time.perf_counter_ns()
                result = fn(n)
                times.append(time.perf_counter_ns() - start)
                bits = max(abs(c).bit_length() for c in result)
                # no earlier result stays alive through the next timed call
                del result
            records.append(BenchRecord(name, n, sorted(times)[len(times) // 2], bits))
    return records
