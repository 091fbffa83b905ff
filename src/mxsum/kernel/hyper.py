"""Gamma-function helpers and the generalized hypergeometric series.

``pfq_series`` sums pFq(a_1..a_p; b_1..b_q; z) term by term with the
ratio recurrence

    t_0 = 1,   t_{m+1} = t_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1)

under compensated accumulation, in complex arithmetic throughout (with
real parameters and real z every term has a zero imaginary part, so the
value is exactly real). Inside |z| < 1 this converges for any parameter
choice with no denominator at a nonpositive integer.
"""

from __future__ import annotations

import math

from ..errors import NonConvergenceError, PreconditionError
from .summation import KahanSum, SeriesSum

__all__ = ["gamma_real", "pfq_series"]

_TOL = 1e-15
_MAX_TERMS = 200_000


def gamma_real(x: float) -> float:
    """Gamma(x) for real x, |x| <= 50, away from the poles."""

    x = float(x)
    if math.isnan(x) or abs(x) > 50.0:
        raise PreconditionError("gamma_real domain is real |x| <= 50")
    if x <= 0.0 and x == math.floor(x):
        raise PreconditionError(f"gamma pole at nonpositive integer x = {x}")
    return math.gamma(x)


def pfq_series(
    numerator_params: list[complex],
    denominator_params: list[complex],
    z: complex,
) -> SeriesSum:
    """Sum of the pFq series at z, |z| < 1.

    Stops once two successive terms fall below 1e-15 |partial sum|.
    """

    if abs(z) >= 1.0:
        raise NonConvergenceError(
            f"pfq_series requires |z| < 1 for convergence, got |z| = {abs(z)}"
        )
    for b in denominator_params:
        bb = complex(b)
        if bb.imag == 0.0 and bb.real <= 0.0 and bb.real == int(bb.real):
            raise PreconditionError(
                f"denominator parameter {b} hits a pole of the series"
            )

    nums = [complex(p) for p in numerator_params]
    dens = [complex(p) for p in denominator_params]
    zz = complex(z)

    acc = KahanSum()
    term: complex = 1.0
    acc.add(term)
    small_streak = 0
    for m in range(_MAX_TERMS):
        for p in nums:
            term *= p + m
        for q in dens:
            term /= q + m
        term *= zz / (m + 1)
        acc.add(term)
        mag = abs(term)
        if mag <= _TOL * abs(acc.value):
            small_streak += 1
            if small_streak >= 2:
                return SeriesSum(acc.value, m + 2, mag, True)
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"pFq series did not converge in {_MAX_TERMS} terms at z = {z!r}"
    )
