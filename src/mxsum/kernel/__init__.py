"""Numeric kernel: compensated summation, exp-exp quadrature on
(0, inf) for exponentially decaying integrands, K-Bessel evaluation,
hypergeometric series and Hurwitz zeta.
Everything above this layer builds on these primitives.
"""

from .bessel import kv_complex
from .hyper import gamma_real, pfq_series
from .quadrature import integrate
from .summation import (
    SeriesSum,
    accelerated_alternating_complex,
    csum,
    sum_terms,
)
from .zeta import bernoulli_even, hurwitz_zeta

__all__ = [
    "SeriesSum",
    "accelerated_alternating_complex",
    "bernoulli_even",
    "csum",
    "gamma_real",
    "hurwitz_zeta",
    "integrate",
    "kv_complex",
    "pfq_series",
    "sum_terms",
]
