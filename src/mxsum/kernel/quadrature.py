"""Double-exponential quadrature (tanh-sinh on finite intervals,
exp-sinh on semi-infinite ones).

Endpoint handling is the whole point of this module. A node close to
an endpoint cannot be represented accurately as an abscissa ``t``
(``lower + 1e-40`` rounds to ``lower`` in binary64), so each node is
delivered to the integrand together with its exact distances to the
two endpoints. Every integrand takes the three-argument form

    f(t, d_lower, d_upper)

(``d_upper`` is ``math.inf`` on a semi-infinite range) and returns a
float, an int or a complex, used as it is: a float's ``.real``,
``.imag`` and ``abs`` are those of its complex value. Integrands with
an endpoint singularity evaluate the singular factor from the exact
distance, e.g. ``(1 - t*t)**-mu`` becomes ``(d_upper * (1 + t))**-mu``
near ``t = 1``; regular integrands ignore the two distances.

For the tanh-sinh map ``x = 1/(1 + exp(-2y))``, ``y = (pi/2) sinh s``,
the distances in unit coordinates are

    d_lower = 1/(1 + exp(-2y)),   d_upper = exp(-2y)/(1 + exp(-2y)),

and the weight is ``2 * d_lower * d_upper * (pi/2) cosh s``; none of
these cancels catastrophically even when the distance is 1e-280. An
interval (lower, upper) scales them by its width. The exp-sinh map
``t = lower + exp(y)`` has ``d_lower = exp(y)`` and the weight
``exp(y) (pi/2) cosh s``.

Shared node tables. Unit-interval distances and weights depend only on
the map and on s, never on the integrand or the interval, so they are
computed once per process and kept in module-level tables, one per
(map, level, side), holding ``(d_lower, d_upper, weight)`` in scan
order (exp-sinh stores ``d_upper = inf`` and is scanned with width 1).
A table grows lazily, as far as the longest scan so far has reached,
and is complete at the node that would round onto an endpoint or
overflow. The s of each node is generated by repeated ``s += step``,
as a scan without tables would, so every abscissa, weight, value,
node count and exception is the same whatever was integrated before.
The refinement budget is a fixed 12 levels, so the tables hold at
most about 51k tanh-sinh and 56k exp-sinh nodes (14 MB); typical use
stays far below that.
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from typing import Callable

from ..errors import IntegrandError, NonConvergenceError, PreconditionError
from .summation import SeriesSum

__all__ = ["QuadratureSpec", "integrate"]

_HALF_PI = 0.5 * math.pi

# side-scan control: a node is negligible once its |weighted value|
# drops below this fraction of the accumulated absolute mass and is no
# larger than the node before it on the same side
_TRUNC_FRACTION = 1e-19
_TRUNC_STREAK = 2

# each level doubles the nodes of the shared tables; 12 halvings reach
# h = 2^-12, far finer than binary64 integrands need
_MAX_LEVELS = 12


@dataclass
class QuadratureSpec:
    """Description of a 1-d integral for :func:`integrate`.

    lower: finite left endpoint
    upper: right endpoint, ``math.inf`` for a semi-infinite range
    target_rel_tol: requested relative accuracy
    """

    lower: float
    upper: float
    target_rel_tol: float = 1e-13

    def __post_init__(self) -> None:
        if math.isinf(self.lower) or math.isnan(self.lower):
            raise PreconditionError("lower endpoint must be finite")
        if not self.upper > self.lower:
            raise PreconditionError("upper endpoint must exceed lower")
        if not 0.0 < self.target_rel_tol < 1.0:
            raise PreconditionError("target_rel_tol must lie in (0, 1)")


class _NodeTable:
    """Nodes of one side of one level of one map, in scan order.

    ``nodes`` holds one ``(dl, du, w)`` tuple per node and only grows;
    ``_s`` is the transform parameter of the next node, generated by
    repeated ``s += step`` exactly as a scan from ``start`` would, and
    None once the side is complete (the next node would round onto an
    endpoint or overflow).
    """

    __slots__ = ("nodes", "_node", "_s", "_step")

    def __init__(self, node: Callable, start: float | None, step: float) -> None:
        self.nodes: list[tuple[float, float, float]] = []
        self._node = node
        self._s = start
        self._step = step

    def grow(self, i: int) -> tuple[float, float, float] | None:
        """Node ``i`` for a scan that found ``i == len(nodes)``; None
        once the side is complete."""

        with _GROW_LOCK:
            nodes = self.nodes
            if i == len(nodes):  # else another thread appended it
                if self._s is None:
                    return None
                node = self._node(self._s)
                if node is None:
                    self._s = None
                    return None
                nodes.append(node)
                self._s += self._step
            return nodes[i]


def _tanh_sinh_node(s: float) -> tuple[float, float, float] | None:
    # x = 1/(1 + exp(-2y)) on the unit interval, y = (pi/2) sinh s
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
    return dl, du, 2.0 * dl * du * _HALF_PI * math.cosh(s)


def _exp_sinh_node(s: float) -> tuple[float, float, float] | None:
    # t = lower + exp(y), y = (pi/2) sinh s; scanned with width 1
    y = _HALF_PI * math.sinh(s)
    if y > 700.0 or y < -740.0:
        return None  # abscissa would overflow / hit the endpoint
    ey = math.exp(y)
    return ey, math.inf, ey * _HALF_PI * math.cosh(s)


_GROW_LOCK = threading.Lock()
_TABLES: dict[tuple[Callable, int], tuple[_NodeTable, ...]] = {}


def _level_tables(node: Callable, level: int) -> tuple[_NodeTable, ...]:
    """The tables scanned at ``level``: level 0 is the centre s = 0 and
    the integers on each side, level L the odd multiples of 2^-L."""

    tables = _TABLES.get((node, level))
    if tables is None:
        if level == 0:
            # a complete one-node table: the truncation rule needs two
            # negligible nodes in a row, so it never cuts the centre
            centre = _NodeTable(node, None, 0.0)
            centre.nodes.append(node(0.0))
            tables = (
                centre,
                _NodeTable(node, 1.0, 1.0),
                _NodeTable(node, -1.0, -1.0),
            )
        else:
            h = 0.5**level
            tables = (_NodeTable(node, h, 2.0 * h), _NodeTable(node, -h, -2.0 * h))
        tables = _TABLES.setdefault((node, level), tables)
    return tables


def _scan(
    table: _NodeTable, f: Callable, lo: float, width: float, acc: tuple
) -> tuple:
    """Add the weighted values of ``table``'s nodes to ``acc`` until the
    side is exhausted or two nodes in a row are negligible. A refined
    level restarts at the centre, where an integrand peaked near an
    endpoint is still rising, hence the falling-side condition.

    ``acc`` is (real total, real carry, imaginary total, imaginary carry,
    absolute mass, evaluations); the two sums are Neumaier-compensated.
    """

    re_total, re_carry, im_total, im_carry, abs_mass, evals = acc
    nodes = table.nodes
    isfinite = cmath.isfinite
    i = 0
    streak = 0
    prev_mag = math.inf
    while True:
        try:
            dl, du, w = nodes[i]
        except IndexError:
            node = table.grow(i)
            if node is None:
                break
            dl, du, w = node
        i += 1
        d_lower = width * dl
        t = lo + d_lower
        try:
            z = f(t, d_lower, width * du)
            finite = isfinite(z)  # an int beyond float range overflows here
        except OverflowError as exc:
            raise IntegrandError(f"integrand overflowed at t = {t!r}") from exc
        if not finite:
            what = "NaN" if z != z else "an infinity"
            raise IntegrandError(f"integrand returned {what} at t = {t!r}")
        v = width * w * z
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
    return re_total, re_carry, im_total, im_carry, abs_mass, evals + i


def integrate(f: Callable, spec: QuadratureSpec) -> SeriesSum:
    """Integrate ``f(t, d_lower, d_upper)`` over ``(spec.lower, spec.upper)``.

    Returns a SeriesSum whose ``value`` is the integral, ``terms_used``
    the number of integrand evaluations, ``last_term_magnitude`` the
    difference between the last two refinement levels (the error
    estimate) and ``abs_sum`` h times the sum of |weighted value|, the
    integral of |f| by the same rule, which sets the rounding floor of
    the value. Raises NonConvergenceError when the refinement budget of
    12 levels is exhausted, and IntegrandError when the integrand yields
    NaN or an infinity or raises OverflowError.

    The sum h * sum(weighted values) runs over successively halved h,
    reusing the nodes of earlier levels, and stops when two successive
    level estimates agree to the target.
    """

    if math.isinf(spec.upper):
        node, width = _exp_sinh_node, 1.0
    else:
        node, width = _tanh_sinh_node, spec.upper - spec.lower
    lo = spec.lower
    acc = (0.0, 0.0, 0.0, 0.0, 0.0, 0)
    for table in _level_tables(node, 0):
        acc = _scan(table, f, lo, width, acc)
    estimate = complex(acc[0] + acc[1], acc[2] + acc[3])
    delta = math.inf

    h = 1.0
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        for table in _level_tables(node, level):
            acc = _scan(table, f, lo, width, acc)
        new_estimate = h * complex(acc[0] + acc[1], acc[2] + acc[3])
        delta = abs(new_estimate - estimate)
        estimate = new_estimate
        scale = max(abs(estimate), 1e-300)
        if level >= 2 and delta <= max(spec.target_rel_tol, 4e-16) * scale:
            return SeriesSum(estimate, acc[5], delta, True, h * acc[4])
    raise NonConvergenceError(
        f"quadrature did not reach rel tol {spec.target_rel_tol:.1e} within "
        f"{_MAX_LEVELS} refinements (last delta {delta:.3e}, "
        f"estimate {estimate!r})"
    )
