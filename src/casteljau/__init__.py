"""Compensated de Casteljau evaluation of Bernstein-form polynomials.

The package provides error-free transformation kernels (:mod:`.eft`), the
K-fold compensated triangle evaluator, plain at K = 1 (:mod:`.evaluate`), an
exact rational oracle (:mod:`.oracle`), flop-count instrumentation
(:mod:`.counting`), and deterministic accuracy experiments with a CLI
(:mod:`.experiments`, ``casteljau`` / ``python -m casteljau``).
"""

from .counting import CountingFloat, FlopCounter, count_evaluation_flops
from .eft import sum_k, two_prod_fma, two_sum
from .evaluate import comp_de_casteljau_k, flop_count, horner, leading_terms
from .oracle import (
    ConditionReport,
    bernstein_from_root_form,
    condition_number,
    exact_eval,
    nearest_float,
    p_tilde,
    relative_error,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "CountingFloat",
    "FlopCounter",
    "bernstein_from_root_form",
    "comp_de_casteljau_k",
    "condition_number",
    "count_evaluation_flops",
    "exact_eval",
    "flop_count",
    "horner",
    "leading_terms",
    "nearest_float",
    "p_tilde",
    "relative_error",
    "sum_k",
    "two_prod_fma",
    "two_sum",
]
