"""Timing harness for the product expansion and the two partition routes.

Reporting only: nothing here passes or fails.  Each task runs once as a
discarded warm-up and then five times on the monotonic clock; the recorded
wall time is the median.  The peak coefficient bit-length is reported
alongside because the two partition routes are big-integer algorithms and
their operand sizes grow with n.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

from .partitions import partition_series, partition_values
from .series import partial_product

CSV_HEADER = "task,n,wall_ns,max_coeff_bits"

REPETITIONS = 5


class BenchRecord(NamedTuple):
    task: str
    n: int
    wall_ns: int
    max_coeff_bits: int


# Each task returns the coefficient sequence it computed.
_TASKS = (
    ("product", lambda n: partial_product(n, n).coeffs),
    ("partition_inverse", lambda n: partition_series(n).coeffs),
    ("partition_recurrence", partition_values),
)

TASK_NAMES = tuple(name for name, _ in _TASKS)


def _peak_bits(coeffs) -> int:
    return max(abs(c).bit_length() for c in coeffs)


def run_bench(sizes: list[int]) -> list[BenchRecord]:
    """One BenchRecord per (size, task), sizes outermost."""
    import statistics  # deferred: the other CLI commands never need it

    records = []
    for n in sizes:
        for name, fn in _TASKS:
            fn(n)  # warm-up, discarded
            times = []
            result = None
            for _ in range(REPETITIONS):
                start = time.perf_counter_ns()
                result = fn(n)
                times.append(time.perf_counter_ns() - start)
            records.append(
                BenchRecord(name, n, int(statistics.median(times)), _peak_bits(result))
            )
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(f"{r.task},{r.n},{r.wall_ns},{r.max_coeff_bits}")
    return "\n".join(lines)


def records_to_json_objs(records: list[BenchRecord]) -> list[dict]:
    return [
        {"task": r.task, "n": r.n, "wall_ns": r.wall_ns, "max_coeff_bits": r.max_coeff_bits}
        for r in records
    ]


def fitted_exponent(records: list[BenchRecord], task: str) -> float:
    """Least-squares slope of log(wall_ns) against log(n) for one task.

    The growth-trend summary for reports; requires at least two sizes.
    """
    points = [(math.log(r.n), math.log(r.wall_ns)) for r in records if r.task == task]
    if len(points) < 2:
        raise ValueError("need at least two sizes to fit")
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    num = sum((x - mean_x) * (y - mean_y) for x, y in points)
    den = sum((x - mean_x) ** 2 for x, _ in points)
    return num / den
