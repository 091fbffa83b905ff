"""The generalized hypergeometric series.

``pfq_series`` sums pFq(a_1..a_p; b_1..b_q; z) term by term with the
ratio recurrence

    t_0 = 1,   t_{m+1} = t_m * prod(a_i + m) / prod(b_j + m) * z / (m + 1)

summed by ``sum_terms``, in complex arithmetic throughout (with real
parameters and real z every term has a zero imaginary part, so the
value is exactly real). Inside |z| < 1 this converges for p <= q + 1
and any parameter choice with no denominator at a nonpositive integer.
For p > q + 1 the series diverges at every z != 0 unless a numerator
at a nonpositive integer ends it, and it is refused up front.
"""

from __future__ import annotations

from ..errors import NonConvergenceError, PreconditionError
from .summation import SeriesSum, sum_terms

__all__ = ["pfq_series"]

_TOL = 1e-15
_MAX_TERMS = 200_000


def _nonpositive_integer(c: complex) -> bool:
    return c.imag == 0.0 and c.real <= 0.0 and c.real == int(c.real)


def pfq_series(
    numerator_params: list[complex],
    denominator_params: list[complex],
    z: complex,
) -> SeriesSum:
    """Sum of the pFq series at z, |z| < 1.

    Stops once two successive terms fall below 1e-15 |partial sum|.
    """

    nums = [complex(p) for p in numerator_params]
    dens = [complex(p) for p in denominator_params]
    if len(nums) > len(dens) + 1 and not any(map(_nonpositive_integer, nums)):
        raise PreconditionError(
            f"{len(nums)}F{len(dens)} series diverges: p > q + 1 and no "
            "numerator parameter ends it"
        )
    if abs(z) >= 1.0:
        raise NonConvergenceError(
            f"pfq_series requires |z| < 1 for convergence, got |z| = {abs(z)}"
        )
    for b in dens:
        if _nonpositive_integer(b):
            raise PreconditionError(
                f"denominator parameter {b} hits a pole of the series"
            )

    zz = complex(z)
    term: complex = 1.0

    def next_term(m: int) -> complex:
        # t_m from t_(m-1), one rounding per factor: p + (m - 1), not p + m - 1
        nonlocal term
        if m:
            for p in nums:
                term *= p + (m - 1)
            for q in dens:
                term /= q + (m - 1)
            term *= zz / m
        return term

    return sum_terms(next_term, _TOL, _MAX_TERMS)
