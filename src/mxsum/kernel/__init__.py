"""Numeric kernel in binary64: compensated summation, exp-exp quadrature
on (0, inf) for exponentially decaying integrands, K-Bessel evaluation
and hypergeometric series.
Everything above this layer builds on these primitives.

Every process that uses the kernel (the evaluation routes) needs all of
its submodules, so they are imported here whole.
"""

from __future__ import annotations

from .bessel import kv_complex
from .hyper import pfq_series
from .quadrature import integrate
from .summation import SeriesSum, accelerated_alternating_complex, csum, sum_terms

__all__ = [
    "SeriesSum",
    "accelerated_alternating_complex",
    "csum",
    "integrate",
    "kv_complex",
    "pfq_series",
    "sum_terms",
]
