"""Exact expansion of (1-x)(1-x^2)(1-x^3)... and what follows from it.

Four independent routes to the same sparse sign series (direct product,
two telescoping term streams, closed formula), partition counting by the
resulting recurrence, iterated exact division, and algebraic root-of-unity
multiplicity checks.  All arithmetic is exact integers.
"""

from .bench import (
    CSV_HEADER,
    BenchRecord,
    fitted_exponent,
    records_to_csv,
    records_to_json_objs,
    run_bench,
)
from .partitions import (
    PartitionTable,
    iterated_division_check,
    partition_bruteforce,
    partition_count,
    partition_series,
    partition_values,
)
from .pentagonal import PentTerm, closed_form_series, gpent, pent_sign, pent_terms_upto
from .roots import root_multiplicities, totient
from .series import (
    TruncatedSeries,
    div_binomial,
    partial_product,
    series_inverse,
    series_to_json,
)
from .telescoping import (
    StageState,
    Term,
    identity_exponents,
    method1_stream,
    method2_stream,
    residual_series,
    stage_emissions,
    stage_states,
    stream_series,
    verify_stage,
)

__all__ = [
    "BenchRecord",
    "CSV_HEADER",
    "PartitionTable",
    "PentTerm",
    "StageState",
    "Term",
    "TruncatedSeries",
    "closed_form_series",
    "div_binomial",
    "fitted_exponent",
    "gpent",
    "identity_exponents",
    "iterated_division_check",
    "method1_stream",
    "method2_stream",
    "partial_product",
    "partition_bruteforce",
    "partition_count",
    "partition_series",
    "partition_values",
    "pent_sign",
    "pent_terms_upto",
    "records_to_csv",
    "records_to_json_objs",
    "residual_series",
    "root_multiplicities",
    "run_bench",
    "series_inverse",
    "series_to_json",
    "stage_emissions",
    "stage_states",
    "stream_series",
    "totient",
    "verify_stage",
]
