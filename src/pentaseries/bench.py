"""Timing harness for the product expansion and the two partition routes.

Reporting only: nothing here passes or fails.  Each task runs five times,
every call timed on the monotonic clock, and the recorded wall time is the
median.  The peak coefficient bit-length is read from a result after its
clock stops.  It is reported because the two partition routes are
big-integer algorithms and their operand sizes grow with n.  The command
line prints the records as CSV or JSON.
"""

import time
from collections import namedtuple

from .partitions import partition_series, partition_values
from .series import product_series

REPETITIONS = 5

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
            for _ in range(REPETITIONS):
                start = time.perf_counter_ns()
                result = fn(n)
                times.append(time.perf_counter_ns() - start)
                bits = max(abs(c).bit_length() for c in result)
                # no earlier result stays alive through the next timed call
                del result
            # REPETITIONS is odd, so the median is the middle sample
            records.append(BenchRecord(name, n, sorted(times)[REPETITIONS // 2], bits))
    return records
