"""Double-exponential quadrature on the half-line (0, inf).

One rule, the exp-sinh map of Takahasi and Mori,

    t = exp(y),   y = (pi/2) sinh s,   dt = exp(y) (pi/2) cosh s ds,

summed by the trapezoid rule in s with step h = 2^-L at level L. Every
integrand takes the one-argument form ``f(t)`` and returns a float, an
int or a complex, used as it is: a float's ``.real``, ``.imag`` and
``abs`` are those of its complex value. The abscissa t = exp(y) is its
own exact distance to the endpoint 0, so a factor singular there, such
as ``t**-0.5``, is evaluated accurately down to t = 1e-300. An integral
over another range is brought onto (0, inf) by its caller: the
evaluators substitute t = tanh(sigma u), t = |a| u or t = x/a.

Shared node tables. The nodes ``(t, weight)`` depend only on s, so
each level's sides are built whole, as tuples in scan order, the first
time a scan reaches that level, and kept for the process. The s of each
node is generated by repeated ``s += step`` until the abscissa would
overflow or underflow, so every value and node count is the same
whatever was integrated before. Tables are immutable, so threads need
no lock: two that build a level at once build equal tuples. Levels 0
to 7, as far as typical integrands reach, hold 1746 nodes (0.35 MB);
all 12 levels, built only by an integral that refuses, hold 55,873
(6.7 MB).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from ..errors import IntegrandError, NonConvergenceError, PreconditionError
from .summation import SeriesSum

__all__ = ["integrate"]

_HALF_PI = 0.5 * math.pi

# side-scan control: a node is negligible once its |weighted value|
# drops below this fraction of the accumulated absolute mass and is no
# larger than the node before it on the same side
_TRUNC_FRACTION = 1e-19
_TRUNC_STREAK = 2

# each level doubles the nodes of the shared tables; 12 halvings reach
# h = 2^-12, far finer than binary64 integrands need
_MAX_LEVELS = 12

# the nodes (t, weight) of one side of one level, in scan order
_Side = tuple[tuple[float, float], ...]


def _node(s: float) -> tuple[float, float] | None:
    # t = exp(y), y = (pi/2) sinh s
    y = _HALF_PI * math.sinh(s)
    if y > 700.0 or y < -740.0:
        return None  # abscissa would overflow / hit the endpoint
    t = math.exp(y)
    return t, t * _HALF_PI * math.cosh(s)


def _side(s: float, step: float) -> _Side:
    """The nodes at s, s + step, ... up to the last representable one."""

    nodes = []
    while (node := _node(s)) is not None:
        nodes.append(node)
        s += step
    return tuple(nodes)


_TABLES: dict[int, tuple[_Side, ...]] = {}


def _level_sides(level: int) -> tuple[_Side, ...]:
    """The sides scanned at ``level``: level 0 is the centre s = 0 and
    the integers on each side, level L the odd multiples of 2^-L."""

    sides = _TABLES.get(level)
    if sides is None:
        if level == 0:
            # the centre is a side of one node: the truncation rule needs
            # two negligible nodes in a row, so it never cuts it
            sides = ((_node(0.0),), _side(1.0, 1.0), _side(-1.0, -1.0))
        else:
            h = 0.5**level
            sides = (_side(h, 2.0 * h), _side(-h, -2.0 * h))
        sides = _TABLES.setdefault(level, sides)
    return sides


def _scan(side: _Side, f: Callable, acc: tuple) -> tuple:
    """Add the weighted values of ``side``'s nodes to ``acc`` until the
    side is exhausted or two nodes in a row are negligible. A refined
    level restarts at the centre, where an integrand peaked near an
    endpoint is still rising, hence the falling-side condition.

    ``acc`` is (real total, real carry, imaginary total, imaginary carry,
    absolute mass, evaluations); the two sums are Neumaier-compensated.
    """

    re_total, re_carry, im_total, im_carry, abs_mass, evals = acc
    isfinite = cmath.isfinite
    streak = 0
    prev_mag = math.inf
    for t, w in side:
        evals += 1
        try:
            z = f(t)
            finite = isfinite(z)  # an int beyond float range overflows here
        except OverflowError as exc:
            raise IntegrandError(f"integrand overflowed at t = {t!r}") from exc
        if not finite:
            what = "NaN" if z != z else "an infinity"
            raise IntegrandError(f"integrand returned {what} at t = {t!r}")
        v = w * z
        x = v.real
        total = re_total + x
        if abs(re_total) >= abs(x):
            re_carry += (re_total - total) + x
        else:
            re_carry += (x - total) + re_total
        re_total = total
        x = v.imag
        if x or im_total - im_total:  # +-0 to a finite total: no change
            total = im_total + x
            if abs(im_total) >= abs(x):
                im_carry += (im_total - total) + x
            else:
                im_carry += (x - total) + im_total
            im_total = total
        mag = abs(v)
        abs_mass += mag
        if mag <= _TRUNC_FRACTION * abs_mass and mag <= prev_mag:
            streak += 1
            if streak >= _TRUNC_STREAK:
                break
        else:
            streak = 0
        prev_mag = mag
    return re_total, re_carry, im_total, im_carry, abs_mass, evals


def integrate(f: Callable, tol: float = 1e-13) -> SeriesSum:
    """Integrate ``f(t)`` over (0, inf) to relative tolerance ``tol``.

    Returns a SeriesSum whose ``value`` is the integral, ``terms_used``
    the number of integrand evaluations, ``last_term_magnitude`` the
    difference between the last two refinement levels (the error
    estimate) and ``abs_sum`` h times the sum of |weighted value|, the
    integral of |f| by the same rule, which sets the rounding floor of
    the value. Raises PreconditionError unless 0 < tol < 1,
    NonConvergenceError when the refinement budget of 12 levels is
    exhausted, and IntegrandError when the integrand yields NaN or an
    infinity or raises OverflowError.

    The sum h * sum(weighted values) runs over successively halved h,
    reusing the nodes of earlier levels, and stops when two successive
    level estimates agree to the target.
    """

    if not 0.0 < tol < 1.0:
        raise PreconditionError("tol must lie in (0, 1)")
    acc = (0.0, 0.0, 0.0, 0.0, 0.0, 0)
    for side in _level_sides(0):
        acc = _scan(side, f, acc)
    estimate = complex(acc[0] + acc[1], acc[2] + acc[3])
    delta = math.inf

    h = 1.0
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        for side in _level_sides(level):
            acc = _scan(side, f, acc)
        new_estimate = h * complex(acc[0] + acc[1], acc[2] + acc[3])
        delta = abs(new_estimate - estimate)
        estimate = new_estimate
        scale = max(abs(estimate), 1e-300)
        if level >= 2 and delta <= max(tol, 4e-16) * scale:
            return SeriesSum(estimate, acc[5], delta, True, h * acc[4])
    raise NonConvergenceError(
        f"quadrature did not reach rel tol {tol:.1e} within "
        f"{_MAX_LEVELS} refinements (last delta {delta:.3e}, "
        f"estimate {estimate!r})"
    )
