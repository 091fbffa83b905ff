"""Numeric kernel: compensated summation, exp-sinh quadrature on
(0, inf), K-Bessel evaluation, hypergeometric series and Hurwitz zeta.
Everything above this layer builds on these primitives.
"""

from .bessel import kv_complex
from .hyper import gamma_real, pfq_series
from .quadrature import integrate
from .summation import (
    KahanSum,
    SeriesSum,
    accelerated_alternating_complex,
    sum_terms,
)
from .zeta import bernoulli_even, hurwitz_zeta

__all__ = [
    "KahanSum",
    "SeriesSum",
    "accelerated_alternating_complex",
    "bernoulli_even",
    "gamma_real",
    "hurwitz_zeta",
    "integrate",
    "kv_complex",
    "pfq_series",
    "sum_terms",
]
