"""Double-exponential quadrature (tanh-sinh on finite intervals,
exp-sinh on semi-infinite ones).

Endpoint handling is the whole point of this module. A node close to
an endpoint cannot be represented accurately as an abscissa ``t``
(``lower + 1e-40`` rounds to ``lower`` in binary64), so each node is
delivered to the integrand together with its exact distances to the
two endpoints. Every integrand takes the three-argument form

    f(t, d_lower, d_upper)

(``d_upper`` is ``math.inf`` on a semi-infinite range). Integrands with
an endpoint singularity evaluate the singular factor from the exact
distance, e.g. ``(1 - t*t)**-mu`` becomes ``(d_upper * (1 + t))**-mu``
near ``t = 1``; regular integrands ignore the two distances.

For the tanh-sinh map ``x = 1/(1 + exp(-2y))``, ``y = (pi/2) sinh s``,
the distances in unit coordinates are

    d_lower = 1/(1 + exp(-2y)),   d_upper = exp(-2y)/(1 + exp(-2y)),

and the weight is ``2 * d_lower * d_upper * (pi/2) cosh s``; none of
these cancels catastrophically even when the distance is 1e-280.

Declared singularities must sit at the LEFT endpoint (flip the variable
before building the spec if yours is on the right); exponents alpha < 1
are integrable and need no further special-casing because the
double-exponential weight decay swallows any algebraic blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..errors import IntegrandError, NonConvergenceError, PreconditionError
from .summation import KahanSum, SeriesSum

__all__ = ["QuadratureSpec", "integrate"]

_HALF_PI = 0.5 * math.pi

# side-scan control: a node is negligible once its |weighted value|
# drops below this fraction of the accumulated absolute mass
_TRUNC_FRACTION = 1e-19
_TRUNC_STREAK = 2


@dataclass
class QuadratureSpec:
    """Description of a 1-d integral for :func:`integrate`.

    lower: finite left endpoint
    upper: right endpoint, ``math.inf`` for a semi-infinite range
    left_singularity_exponent: alpha with integrand ~ (t-lower)^-alpha
        as t -> lower (0.0 for a regular integrand); must be < 1
    target_rel_tol: requested relative accuracy
    max_levels: refinement budget (mesh halvings)
    """

    lower: float
    upper: float
    left_singularity_exponent: float = 0.0
    target_rel_tol: float = 1e-13
    max_levels: int = 12

    def __post_init__(self) -> None:
        if math.isinf(self.lower) or math.isnan(self.lower):
            raise PreconditionError("lower endpoint must be finite")
        if not self.upper > self.lower:
            raise PreconditionError("upper endpoint must exceed lower")
        if not self.left_singularity_exponent < 1.0:
            raise PreconditionError(
                "left singularity exponent must be < 1 (integrable)"
            )
        if not 0.0 < self.target_rel_tol < 1.0:
            raise PreconditionError("target_rel_tol must lie in (0, 1)")
        if self.max_levels < 2:
            raise PreconditionError("max_levels must be at least 2")


def _check_value(fv: complex, t: float) -> complex:
    z = complex(fv)
    if z != z:
        raise IntegrandError(f"integrand returned NaN at t = {t!r}")
    if abs(z.real) == math.inf or abs(z.imag) == math.inf:
        raise IntegrandError(f"integrand returned an infinity at t = {t!r}")
    return z


class _LevelRule:
    """Shared level/refinement driver for both maps.

    Subclass supplies ``node(s)`` returning the weighted integrand value
    at transform parameter s (or None once s is out of representable
    range). The driver sums h * sum(node(j*h)) over successively halved
    h, reusing previous nodes, and stops when two successive level
    estimates agree to the target.
    """

    def __init__(self) -> None:
        self.acc = KahanSum()
        self.abs_mass = 0.0
        self.evals = 0

    def node(self, s: float) -> complex | None:
        raise NotImplementedError

    def _scan_side(self, start: float, step: float) -> None:
        s = start
        streak = 0
        while True:
            v = self.node(s)
            if v is None:
                return
            self.evals += 1
            self.acc.add(v)
            mag = abs(v)
            self.abs_mass += mag
            if mag <= _TRUNC_FRACTION * self.abs_mass:
                streak += 1
                if streak >= _TRUNC_STREAK:
                    return
            else:
                streak = 0
            s += step

    def run(self, rel_tol: float, max_levels: int) -> SeriesSum:
        # level 0: h = 1, nodes at all integers
        v0 = self.node(0.0)
        if v0 is not None:
            self.evals += 1
            self.acc.add(v0)
            self.abs_mass += abs(v0)
        self._scan_side(1.0, 1.0)
        self._scan_side(-1.0, -1.0)
        estimate = self.acc.value
        delta = math.inf

        h = 1.0
        for _level in range(1, max_levels + 1):
            h *= 0.5
            self._scan_side(h, 2.0 * h)
            self._scan_side(-h, -2.0 * h)
            new_estimate = h * self.acc.value
            delta = abs(new_estimate - estimate)
            estimate = new_estimate
            scale = max(abs(estimate), 1e-300)
            if _level >= 2 and delta <= max(rel_tol, 4e-16) * scale:
                return SeriesSum(estimate, self.evals, delta, True)
        raise NonConvergenceError(
            f"quadrature did not reach rel tol {rel_tol:.1e} within "
            f"{max_levels} refinements (last delta {delta:.3e}, "
            f"estimate {estimate!r})"
        )


class _TanhSinhRule(_LevelRule):
    def __init__(self, f, lo: float, width: float) -> None:
        super().__init__()
        self.f = f
        self.lo = lo
        self.width = width

    def node(self, s: float) -> complex | None:
        y = _HALF_PI * math.sinh(s)
        q = math.exp(-2.0 * abs(y))
        if q == 0.0:
            return None  # node indistinguishable from the endpoint
        near = q / (1.0 + q)
        far = 1.0 / (1.0 + q)
        if y >= 0.0:
            dl, du = far, near
        else:
            dl, du = near, far
        w = 2.0 * dl * du * _HALF_PI * math.cosh(s)
        t = self.lo + self.width * dl
        fv = self.f(t, self.width * dl, self.width * du)
        return self.width * w * _check_value(fv, t)


class _ExpSinhRule(_LevelRule):
    def __init__(self, f, lo: float) -> None:
        super().__init__()
        self.f = f
        self.lo = lo

    def node(self, s: float) -> complex | None:
        y = _HALF_PI * math.sinh(s)
        if y > 700.0 or y < -740.0:
            return None  # abscissa would overflow / hit the endpoint
        ey = math.exp(y)
        t = self.lo + ey
        fv = self.f(t, ey, math.inf)
        return ey * _HALF_PI * math.cosh(s) * _check_value(fv, t)


def integrate(f: Callable, spec: QuadratureSpec) -> SeriesSum:
    """Integrate ``f(t, d_lower, d_upper)`` over ``(spec.lower, spec.upper)``.

    Returns a SeriesSum whose ``value`` is the integral, ``terms_used``
    the number of integrand evaluations and ``last_term_magnitude`` the
    difference between the last two refinement levels (the error
    estimate). Raises NonConvergenceError when the refinement budget is
    exhausted and IntegrandError when the integrand yields NaN/inf.
    """

    if math.isinf(spec.upper):
        rule: _LevelRule = _ExpSinhRule(f, spec.lower)
    else:
        rule = _TanhSinhRule(f, spec.lower, spec.upper - spec.lower)
    return rule.run(spec.target_rel_tol, spec.max_levels)
