"""Exact expansion of (1-x)(1-x^2)(1-x^3)... and what follows from it.

Four independent routes to the same sparse sign series (direct product,
two telescoping term streams, closed formula), partition counting by the
resulting recurrence, iterated exact division, and algebraic root-of-unity
multiplicity checks.  All arithmetic is exact integers.
"""

from .bench import BenchRecord, run_bench
from .partitions import iterated_division_check, partition_series, partition_values
from .pentagonal import closed_form_series, gpent, pent_sign, pent_terms_upto
from .roots import root_multiplicities
from .series import Term, partial_product, series_inverse
from .telescoping import identity_exponents, residual_series, stream_series, verify_stage

__all__ = [
    "BenchRecord",
    "Term",
    "closed_form_series",
    "gpent",
    "identity_exponents",
    "iterated_division_check",
    "partial_product",
    "partition_series",
    "partition_values",
    "pent_sign",
    "pent_terms_upto",
    "residual_series",
    "root_multiplicities",
    "run_bench",
    "series_inverse",
    "stream_series",
    "verify_stage",
]
