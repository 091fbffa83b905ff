"""Double-exponential quadrature on the half-line (0, inf).

One rule, the exp-exp map of Mori and Sugihara (J. Comput. Appl. Math.
127, 2001), built for integrands that decay exponentially,

    t = exp(5s/8 - e^-s)/8,   dt = t (5/8 + e^-s) ds,

summed by the trapezoid rule in s with step h = 2^-L at level L. The
map falls double exponentially towards 0 and rises single
exponentially towards inf, so an integrand that decays like e^-t falls
double exponentially in s at both ends. The slope 5/8 and the scale
1/8 took the fewest integrand evaluations on the full routes' H, ray
and J integrals among slopes 1/2 to 1 and scales 1/32 to 1/4.

Every integrand takes the one-argument form ``f(t)`` and returns a
float, an int or a complex, used as it is. A float (or int) value is
summed on a path with no imaginary part, and gives the same bits as
``complex(x, 0.0)`` would; an integrand may mix the two from node to
node. Each weighted value is added by TwoSum, whose exact rounding error
goes to a carry. A NaN or an infinity is caught once per node, on the
running absolute mass: the refusal then says whether the integrand
returned it or its weighted value overflowed. The abscissa t is
its own exact distance to the endpoint 0, so a factor singular there,
such as ``t**-0.5``, is evaluated accurately down to t = 1e-300. An
integral over another range is brought onto (0, inf) by its caller: the
evaluators substitute t = tanh(sigma u), t = |a| e^(i arg(a)/2) u or
t = c u/a.

A side ends at its first negligible node: a falling node whose
weighted value is below 1e-17, about eps/20, of the absolute mass so
far. The integrand must decay at least exponentially. The nodes stop at
t = e^23 (9.7e9), and a side scan that reaches its last node without a
negligible node raises NonConvergenceError: an algebraic decay such as
(1 + t)^-1.5 refuses at level 0 instead of returning a truncated
value. A node counts as negligible only once its side has met a
nonzero value, so an integrand that underflows to 0 near the centre is
scanned out to its mass, and a refined side does not stop short of the
last node where a coarser level still found mass, so a negligible
stretch between the centre and the mass does not end it.

Shared node tables. The nodes ``(t, weight)`` depend only on s, so
each level's sides are built whole, as tuples in scan order, the first
time a scan reaches that level, and kept for the process. The s of each
node is generated by repeated ``s += step`` from the centre outwards
until the abscissa would pass the cap or underflow, so every value and
node count is the same whatever was integrated before. Tables are
immutable, so threads need no lock: two that build a level at once
build equal tuples. Level L >= 1 holds about 47 2^(L-1) nodes: levels
0 to 5, as far as the full routes reach on random inputs, hold 1,496
(0.1 MB), and levels 0 to 8, the ones kept, 11,962 (1.3 MB). Levels 9
to 12 (179,425 nodes, 20 MB if kept), which only an integral that runs
out of levels reaches, are generated node by node, by the same
``s += step``, as far as each scan goes.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable, Iterable, Iterator

from ..errors import IntegrandError, NonConvergenceError, PreconditionError
from .summation import SeriesSum

__all__ = ["integrate"]

_EPS = sys.float_info.epsilon
_LN8 = math.log(8.0)
# the nodes end where y = ln t leaves [-740, 23]: t would underflow at
# one end and pass e^23 = 9.7e9 at the other
_Y_MIN, _Y_MAX = -740.0, 23.0

# side-scan control: a node is negligible once its |weighted value|
# drops below this fraction of the accumulated absolute mass (about
# eps/20) and is no larger than the node before it on the same side; a
# side ends at its first negligible node
_TRUNC_FRACTION = 1e-17
# a side records its edge only if its scan brought most of the mass so
# far: at least this many times the mass it started with (see _scan)
_EDGE_GROWTH = 4.0

# each level doubles the nodes of the shared tables; 12 halvings reach
# h = 2^-12, far finer than binary64 integrands need
_MAX_LEVELS = 12
# levels whose nodes are kept for the process; the deeper ones, which
# only an integral that runs out of levels reaches, are generated node
# by node as far as each scan goes
_KEPT_LEVELS = 8

# the nodes (t, weight) of one side of one level, in scan order
_Side = Iterable[tuple[float, float]]


def _node(s: float) -> tuple[float, float] | None:
    # t = exp(y), y = 5s/8 - e^-s - ln 8
    e = math.exp(-s)
    y = 0.625 * s - e - _LN8
    if not _Y_MIN <= y <= _Y_MAX:
        return None
    t = math.exp(y)
    return t, t * (0.625 + e)


def _side(s: float, step: float) -> Iterator[tuple[float, float]]:
    """The nodes at s, s + step, ... up to the last representable one."""

    while (node := _node(s)) is not None:
        yield node
        s += step


_TABLES: dict[int, tuple[_Side, ...]] = {}


def _level_sides(level: int) -> tuple[_Side, ...]:
    """The sides scanned at ``level``: level 0 the integers, from the
    centre s = 0 outwards, level L the odd multiples of 2^-L. Kept
    levels are tuples; deeper ones are generators, good for one scan."""

    sides = _TABLES.get(level)
    if sides is None:
        if level == 0:
            starts = ((0.0, 1.0), (-1.0, -1.0))
        else:
            h = 0.5**level
            starts = ((h, 2.0 * h), (-h, -2.0 * h))
        sides = tuple(_side(s, step) for s, step in starts)
        if level <= _KEPT_LEVELS:
            sides = tuple(tuple(side) for side in sides)
            sides = _TABLES.setdefault(level, sides)
    return sides


def _scan(
    side: _Side, f: Callable, acc: tuple, first: float, spacing: float, edges: list
) -> tuple:
    """Add the weighted values of ``side``'s nodes to ``acc`` up to the
    first negligible node. A refined level restarts at the centre,
    where an integrand peaked near an endpoint is still rising, hence
    the falling-side condition; and nodes count as negligible only
    after the side has met a nonzero value, so an integrand that
    underflows to 0 at the centre, such as exp(-(t - 30)^2), is scanned
    out to its mass. Raises NonConvergenceError if the side ends first
    with a nonzero value met: the integrand does not decay fast enough
    for the nodes to reach its tail. A side that is 0 at every node
    adds nothing.

    Edges. The side's node i lies at |s| = ``first + spacing * i``, its
    reach. A side's edge is the (reach, |weighted value|) of the last
    node before the negligible node that ended it; ``edges`` holds
    those that coarser levels on this side recorded (see below) and
    that were not negligible against the mass after their side, the
    farthest first, and the scan may add its own. A side stops only
    beyond every edge that is not negligible against the mass as it
    stands, so a refined level does not stop in a negligible stretch
    between the centre and the mass, as it would on
    exp(-(ln t + 12)^2)/t + 1e-25 e^-t; there a side goes on past
    negligible nodes until one lies beyond every such edge. On a tail
    that falls monotonically, a node beyond the stop is smaller than the
    stopping node, so the edges change nothing there.

    A side records its edge only if its scan at least quadrupled the
    absolute mass (_EDGE_GROWTH): the side that first meets the mass,
    at level 0, or at a later level for mass the coarser nodes missed.
    That edge is the one that can hold a later stop: it lies beyond a
    stretch that was scanned before the mass was known. A refined scan
    of mass already found adds about what the coarser levels held, so
    at most doubles it, and its edge lies within a node spacing of the
    edge already kept.

    ``acc`` is (real total, real carry, imaginary total, imaginary carry,
    absolute mass, evaluations). Each weighted value is added by TwoSum,
    the carry taking each addition's exact rounding error (the error
    Neumaier's branch on the larger magnitude gives, with no ``abs``); a
    float value skips the imaginary sum, and a zero imaginary part adds
    nothing. Finiteness is checked once per node, on the absolute mass:
    it is NaN or infinite once any value so far is, so one comparison
    replaces a test of every value, and it also catches a finite value
    whose weighted value overflows (see _non_finite).
    """

    re_total, re_carry, im_total, im_carry, abs_mass, evals = acc
    start, start_mass = evals, abs_mass
    cut, inf = _TRUNC_FRACTION, math.inf
    streak = 0
    prev_mag = inf
    # 0.0 until the side meets a nonzero value, then the |weighted value|
    # of the last node that ended a streak (before any, of the first
    # nonzero node)
    seen = 0.0
    for t, w in side:
        evals += 1
        try:
            z = f(t)
            v = w * z  # an int beyond float range overflows here
        except OverflowError as exc:
            raise IntegrandError(f"integrand overflowed at t = {t!r}") from exc
        try:
            mag = abs(v)
        except OverflowError:  # finite parts, but |v| past the float range
            mag = inf
        abs_mass += mag
        # a NaN or an infinity in this weighted value makes the mass one
        if not abs_mass < inf:
            raise _non_finite(z, t)
        # TwoSum: the exact rounding error of each addition goes to the
        # carry; a float has no imaginary part, and a zero one adds nothing
        if type(v) is float:
            x = v
        else:
            x = v.imag
            if x:
                total = im_total + x
                b = total - im_total
                im_carry += (im_total - (total - b)) + (x - b)
                im_total = total
            x = v.real
        total = re_total + x
        b = total - re_total
        re_carry += (re_total - (total - b)) + (x - b)
        re_total = total
        if mag <= cut * abs_mass and mag <= prev_mag:
            if mag or seen:  # a 0 before any nonzero value is no tail
                seen = seen or mag
                streak += 1
                reach = first + spacing * (evals - start - 1)
                if not edges or reach > edges[0][0]:
                    break
                floor = cut * abs_mass
                if not any(reach < r and m > floor for r, m in edges):
                    break
        else:  # mag > 0 here
            streak = 0
            seen = mag
        prev_mag = mag
    else:
        if seen:
            raise NonConvergenceError(
                f"quadrature reached its last node, t = {t!r}, before the "
                f"integrand became negligible: it must decay at least "
                f"exponentially"
            )
    if abs_mass > _EDGE_GROWTH * start_mass and seen > _TRUNC_FRACTION * abs_mass:
        edge = (first + spacing * (evals - start - 1 - streak), seen)
        if edges and edge[0] < edges[0][0]:
            edges.append(edge)
        else:
            edges.insert(0, edge)
    return re_total, re_carry, im_total, im_carry, abs_mass, evals


def _non_finite(z, t: float) -> IntegrandError:
    """The refusal at the node t whose value z made the mass NaN or
    infinite: z itself, or its weighted value (or the mass) overflowed."""

    if cmath.isfinite(z):
        return IntegrandError(
            f"weighted value overflowed at t = {t!r}: the integrand returned "
            f"{z!r}, which is finite, but weight * value or the absolute mass "
            f"is not"
        )
    what = "NaN" if z != z else "an infinity"
    return IntegrandError(f"integrand returned {what} at t = {t!r}")


def integrate(f: Callable, tol: float = 1e-13) -> SeriesSum:
    """Integrate ``f(t)`` over (0, inf) to relative tolerance ``tol``.

    Returns a SeriesSum whose ``value`` is the integral, ``terms_used``
    the number of integrand evaluations, ``abs_sum`` h times the sum of
    |weighted value|, the integral of |f| by the same rule, which sets
    the rounding floor of the value, and ``last_term_magnitude`` the
    error estimate: the difference between the last two refinement
    levels, but at least eps * abs_sum. Raises PreconditionError unless
    0 < tol < 1, NonConvergenceError when the refinement budget of 12
    levels is exhausted or when the integrand is not negligible at the
    last node of a side (it must decay at least exponentially), and
    IntegrandError when the integrand yields NaN or an infinity, when a
    finite value's weighted value overflows, or when the integrand
    raises OverflowError.

    The sum h * sum(weighted values) runs over successively halved h,
    reusing the nodes of earlier levels, and stops when two successive
    level estimates agree to the target. Each side of a level ends at
    its first falling node below 1e-17 of the absolute mass (see _scan).
    """

    if not 0.0 < tol < 1.0:
        raise PreconditionError("tol must lie in (0, 1)")
    acc = (0.0, 0.0, 0.0, 0.0, 0.0, 0)
    up, down = [], []  # the edges of each side
    # level 0 holds s = 0, 1, 2, ... and s = -1, -2, ...
    pos, neg = _level_sides(0)
    acc = _scan(pos, f, acc, 0.0, 1.0, up)
    acc = _scan(neg, f, acc, 1.0, 1.0, down)
    estimate = complex(acc[0] + acc[1], acc[2] + acc[3])
    delta = math.inf

    h = 1.0
    for level in range(1, _MAX_LEVELS + 1):
        h *= 0.5
        pos, neg = _level_sides(level)  # s = h, 3h, ... and -h, -3h, ...
        acc = _scan(pos, f, acc, h, 2.0 * h, up)
        acc = _scan(neg, f, acc, h, 2.0 * h, down)
        new_estimate = h * complex(acc[0] + acc[1], acc[2] + acc[3])
        delta = abs(new_estimate - estimate)
        estimate = new_estimate
        scale = max(abs(estimate), 1e-300)
        if level >= 2 and delta <= max(tol, 4e-16) * scale:
            abs_sum = h * acc[4]
            # two levels can agree to the bit on a value that is not
            # exact, so the estimate is at least the rounding floor
            delta = max(delta, _EPS * abs_sum)
            return SeriesSum(estimate, acc[5], delta, True, abs_sum)
    raise NonConvergenceError(
        f"quadrature did not reach rel tol {tol:.1e} within "
        f"{_MAX_LEVELS} refinements (last delta {delta:.3e}, "
        f"estimate {estimate!r})"
    )
