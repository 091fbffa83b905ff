"""Compensated summation and series-acceleration primitives.

Everything downstream (hypergeometric series, the evaluation routines)
funnels floating-point accumulation through the helpers here so that
rounding behavior is uniform and testable. A finite list of terms is
summed by ``csum``. The two hottest loops, the quadrature scan and
``sum_terms``, keep a running sum s + c of each part inline, by
Neumaier's step for a term x: t = s + x, then c += (s - t) + x if
|s| >= |x| else (x - t) + s, then s = t. They take a float term as it
is: its ``.real``, ``.imag`` and ``abs`` are those of its complex
value, and the imaginary step is skipped when it would add +-0 to a
finite total, which leaves the total and its carry as they are.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

from ..errors import NonConvergenceError, PreconditionError

__all__ = [
    "SeriesSum",
    "csum",
    "sum_terms",
]


class SeriesSum(NamedTuple):
    """Result of an adaptive summation or quadrature.

    value: accumulated sum (complex; imaginary part 0.0 for real input)
    terms_used: number of terms (or function evaluations) consumed
    last_term_magnitude: |final increment|, the raw stopping quantity
    converged: True when the stopping criterion was met within budget
    abs_sum: sum of |term| over the terms consumed
    """

    value: complex
    terms_used: int
    last_term_magnitude: float
    converged: bool
    abs_sum: float = 0.0


def csum(terms: Iterable[complex]) -> complex:
    """Sum of real or complex terms, each part correctly rounded.

    The real parts and the imaginary parts are summed by ``math.fsum``
    separately, so the value does not depend on the order of the terms.
    """

    re = []
    im = []
    for t in terms:
        z = complex(t)
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


def sum_terms(
    term: Callable[[int], complex],
    tol: float,
    max_terms: int,
) -> SeriesSum:
    """Sum term(0) + term(1) + ... until two successive terms are small.

    Stops once |term| <= tol * |partial sum| holds for two consecutive
    terms (a single small term can be an accidental zero of an
    oscillating series). Raises NonConvergenceError at max_terms.
    """

    re_total = re_carry = im_total = im_carry = abs_sum = 0.0
    small_streak = 0
    last_mag = math.inf
    for n in range(max_terms):
        t = term(n)
        x = t.real
        total = re_total + x
        if abs(re_total) >= abs(x):
            re_carry += (re_total - total) + x
        else:
            re_carry += (x - total) + re_total
        re_total = total
        x = t.imag
        if x or im_total - im_total:
            total = im_total + x
            if abs(im_total) >= abs(x):
                im_carry += (im_total - total) + x
            else:
                im_carry += (x - total) + im_total
            im_total = total
        last_mag = abs(t)
        abs_sum += last_mag
        if n >= 1:
            value = complex(re_total + re_carry, im_total + im_carry)
            if last_mag <= tol * abs(value):
                small_streak += 1
                if small_streak >= 2:
                    return SeriesSum(value, n + 1, last_mag, True, abs_sum)
            else:
                small_streak = 0
    raise NonConvergenceError(
        f"series did not converge within {max_terms} terms "
        f"(last |term| = {last_mag:.3e})"
    )


def _cvz_core(magnitudes: Sequence[complex], n: int) -> complex:
    """Chebyshev-accelerated alternating sum of sum (-1)^k c_k.

    ``magnitudes`` supplies c_0 .. c_{n-1} (sign-free). This is the
    polynomial scheme with d = (3+sqrt 8)^n; exact for the geometric
    worst case and geometrically convergent for totally monotone c_k.
    """

    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    terms = []
    for k in range(n):
        c = b - c
        terms.append(c * magnitudes[k])
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return csum(terms) / d


def accelerated_alternating_complex(
    magnitude: Callable[[int], complex],
    tol: float = 1e-15,
    *,
    stages: int,
) -> SeriesSum:
    """CVZ acceleration of sum (-1)^k c_k, with c_k = ``magnitude(k)``.

    The error decays like (3 + sqrt 8)^(-stages); the value is taken at
    stages + 4, and its distance from the value at ``stages`` is the delta.
    ``abs_sum`` is sum |c_k| over the stages + 4 terms: the weights are at
    most 1 in size, so the rounding error of the value is about eps times
    that.
    """

    if stages < 4:
        raise PreconditionError("acceleration needs at least 4 stages")
    n_hi = stages + 4
    cs = [complex(magnitude(k)) for k in range(n_hi)]
    lo = _cvz_core(cs, stages)
    hi = _cvz_core(cs, n_hi)
    delta = abs(hi - lo)
    scale = max(abs(hi), 1e-300)
    return SeriesSum(
        hi,
        n_hi,
        delta,
        delta <= 10.0 * tol * scale + 1e-300,
        sum(abs(c) for c in cs),
    )
