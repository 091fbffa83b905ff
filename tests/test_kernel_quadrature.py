"""Exp-exp quadrature on (0, inf): values, return types, shared node
tables, failure modes."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mxsum.errors import IntegrandError, NonConvergenceError, PreconditionError
from mxsum.kernel import integrate, quadrature

_SRC = Path(__file__).resolve().parents[1] / "src"


def test_semi_infinite_exponential():
    r = integrate(lambda t: math.exp(-t))
    assert r.converged
    assert abs(r.value.real - 1.0) < 1e-13
    assert r.terms_used > 0


def test_abs_sum_is_the_integral_of_abs_f():
    # abs_sum is h times the sum of |weighted value|: the integral of |f|
    # by the same rule, which the H and J routes floor their estimates on
    r = integrate(lambda t: math.exp(-t))
    assert abs(r.abs_sum - 1.0) < 1e-13
    # int_0^inf |sin t| e^-t dt, a sum over half periods of
    # e^(-k pi) (1 + e^-pi)/2; the kinks of |f| limit the rule there
    r = integrate(lambda t: math.sin(t) * math.exp(-t))
    assert abs(r.value.real - 0.5) < 1e-13
    want = 0.5 * (1.0 + math.exp(-math.pi)) / (1.0 - math.exp(-math.pi))
    assert abs(r.abs_sum - want) < 1e-4 * want


def test_complex_integrand():
    # int_0^inf e^((i-1)t) dt = 1/(1 - i)
    r = integrate(lambda t: cmath.exp(complex(-1.0, 1.0) * t))
    assert abs(r.value - complex(0.5, 0.5)) < 1e-13


def test_integrand_zero_near_the_centre():
    # exp(-(t - 30)^2) underflows to 0 at every node near the centre;
    # those zeros are not its tail, so the scan goes on to its mass
    r = integrate(lambda t: math.exp(-((t - 30.0) ** 2)))
    assert abs(r.value - math.sqrt(math.pi)) < 4e-15
    # a jump defeats the rule, which refuses instead of returning 0
    with pytest.raises(NonConvergenceError, match="within 12 refinements"):
        integrate(lambda t: math.exp(-t) if t >= 1.0 else 0.0)


def test_negligible_stretch_before_the_mass():
    # the mass sits at ln t = -12, and the 1e-25 term falls outwards from
    # the centre: on a refined level falling nodes below 1e-17 of the
    # mass lie between the centre and the peak; they must not end the
    # side before the nodes under the peak
    def peak(t):
        return math.exp(-((math.log(t) + 12.0) ** 2)) / t

    r = integrate(lambda t: peak(t) + 1e-25 * math.exp(-t))
    assert abs(r.value - math.sqrt(math.pi)) <= r.last_term_magnitude
    # without the term the side rises from the centre to the peak, and
    # the edges of the coarser levels cost the scan no extra node
    r = integrate(peak)
    assert abs(r.value - math.sqrt(math.pi)) <= r.last_term_magnitude
    assert r.terms_used == 186


def test_level_budget_exhaustion_raises():
    # a kink defeats the double-exponential rule, and so does a zero
    # integral, where a relative tolerance cannot be met
    for f in (
        lambda t: abs(t - 0.3) * math.exp(-t),
        lambda t: (1.0 - t) * math.exp(-t),
    ):
        with pytest.raises(NonConvergenceError, match="within 12 refinements"):
            integrate(f)


def test_slower_than_exponential_decay_refuses():
    # the nodes stop at t = e^23: an algebraic tail, or an exponential
    # one on a longer scale, is not negligible there, and the side scan
    # refuses instead of truncating it
    for f in (
        lambda t: (1.0 + t) ** -1.5,
        lambda t: t**-0.5 * (1.0 + t) ** -1.25,
        lambda t: math.exp(-1e-10 * t),
    ):
        with pytest.raises(NonConvergenceError, match="last node, t = 9"):
            integrate(f)
    # the same towards t = 0: t^-0.999 e^-t has about half its integral
    # below t = e^-740, where no node can go
    with pytest.raises(NonConvergenceError, match=r"last node, t = [0-9.]+e-\d{3},"):
        integrate(lambda t: t**-0.999 * math.exp(-t))


def test_node_tables_are_bounded():
    # every side ends inside [e^-740, e^23], so the 13 levels hold
    # 191,387 nodes; only levels 0 to 8, 11,962 nodes (about 1.3 MB),
    # are kept, even after an integral that runs out of levels: deeper
    # levels are generated as far as each scan goes
    with pytest.raises(NonConvergenceError, match="within 12 refinements"):
        integrate(lambda t: abs(t - 0.3) * math.exp(-t))
    assert sorted(quadrature._TABLES) == list(range(9))
    kept = sum(len(side) for sides in quadrature._TABLES.values() for side in sides)
    assert kept == 11_962
    nodes = 0
    for level in range(13):
        for side in quadrature._level_sides(level):
            side = tuple(side)
            nodes += len(side)
            ends = (side[0][0], side[-1][0])
            assert all(math.exp(-740.0) <= t <= math.exp(23.0) for t in ends)
    assert nodes == 191_387


def test_spec_validation():
    for tol in (0.0, 1.0, 2.0, -1e-13, math.nan):
        with pytest.raises(PreconditionError):
            integrate(lambda t: math.exp(-t), tol)


def test_infinite_integrand_raises():
    with pytest.raises(IntegrandError, match="infinity"):
        integrate(lambda t: -math.inf)
    with pytest.raises(IntegrandError, match="infinity"):
        integrate(lambda t: complex(1.0, math.inf))


def test_nan_integrand_raises_on_half_line():
    with pytest.raises(IntegrandError, match="NaN"):
        integrate(lambda t: math.nan)
    with pytest.raises(IntegrandError, match="NaN"):
        integrate(lambda t: complex(0.0, math.nan) if t > 3.0 else 1.0)


# Runs the slowly decaying integrals, after the early-truncating ones
# when argv[1] == "grown"; prints each result, the number of nodes in
# the shared tables after the call, and whether every level that an
# earlier call had built is still the very same tuple. Both kinds decay
# exponentially, as the rule requires; the slow ones scan out to
# t = 1e4, the early ones stop near t = 25, and the first of each needs
# 8 levels, so the first call builds the tables to 11,962 nodes.
_ORDER_SCRIPT = """
import math, sys
from mxsum.kernel import integrate, quadrature

SLOW = [
    lambda t: math.exp(-0.01 * t) / (9e-4 + (t - 1.0) ** 2),
    lambda t: math.exp(-0.01 * t) * (1e-6 + t) ** -0.5,
]
EARLY = [
    lambda t: math.exp(-5.0 * t) / (1e-4 + (t - 0.2) ** 2),
    lambda t: t * math.exp(-t),
]
built = {}
for f in (EARLY if sys.argv[1] == "grown" else []) + SLOW:
    r = integrate(f)
    tables = quadrature._TABLES
    nodes = sum(len(side) for sides in tables.values() for side in sides)
    reused = all(tables[level] is sides for level, sides in built.items())
    built.update(tables)
    print(repr(r.value), r.terms_used, repr(r.last_term_magnitude), nodes, reused)
"""


def _run_script(script, *args):
    # a fresh interpreter, so the shared node tables start empty
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.splitlines()


def test_results_do_not_depend_on_call_order():
    fresh = [line.rsplit(" ", 2) for line in _run_script(_ORDER_SCRIPT, "fresh")]
    grown = [line.rsplit(" ", 2) for line in _run_script(_ORDER_SCRIPT, "grown")]
    assert [r for r, _, _ in grown[2:]] == [r for r, _, _ in fresh]
    # the early integrals had built every level the slow ones scan, and
    # the slow ones scanned those levels as the same immutable tuples
    assert int(grown[1][1]) >= int(fresh[-1][1])
    assert all(reused == "True" for _, _, reused in grown)


# Three rounds of four threads that integrate the same integrals while
# the shared tables are still empty, under a very short switch interval:
# a slowly but exponentially decaying one that needs 8 levels, and a
# kink that runs all 12 levels and fails, so the tables grow by
# thousands of nodes while the threads interleave.
# Prints how many thread results differ from a serial run (a thread that
# died leaves None, which differs too).
_THREADS_SCRIPT = """
import math, sys, threading
from mxsum.kernel import integrate, quadrature

CASES = [
    lambda t: math.exp(-0.01 * t) / (9e-4 + (t - 1.0) ** 2),
    lambda t: abs(t - 0.3) * math.exp(-t),
]

def run():
    out = []
    for f in CASES:
        try:
            r = integrate(f)
            out.append((repr(r.value), r.terms_used, repr(r.last_term_magnitude)))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    return out

serial = run()
differ = 0
old = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    for _ in range(3):
        quadrature._TABLES.clear()
        results = [None] * 4
        start = threading.Barrier(4)

        def work(k):
            start.wait()
            results[k] = run()

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        differ += sum(r != serial for r in results)
finally:
    sys.setswitchinterval(old)
print(differ)
"""


def test_concurrent_table_growth_gives_the_same_bits():
    assert _run_script(_THREADS_SCRIPT) == ["0"]


def _damped(t):
    return math.exp(-t) * math.cos(3.0 * t)


def _flat_imaginary(t, real_type):
    x = math.exp(-t) * math.cos(t)
    y = math.exp(-1.0 / (t * t) - t)
    return real_type(x) if y == 0.0 else complex(x, y)


def _three_e_minus_t(t):
    # an int where 3 e^-t rounds to an integer: 3 near t = 0, 0 far out
    x = 3.0 * math.exp(-t)
    return int(x) if x.is_integer() else x


# family -> {form: integrand}; every form of a family returns the same
# number as a different type, so every form must give the same bits
RETURN_TYPES = {
    "damped-cosine": {
        "float": lambda t: _damped(t),
        "complex": lambda t: complex(_damped(t), 0.0),
        "complex-negative-zero": lambda t: complex(_damped(t), -0.0),
    },
    "constant": {
        "int": _three_e_minus_t,
        "float": lambda t: 3.0 * math.exp(-t),
        "complex": lambda t: complex(3.0 * math.exp(-t), 0.0),
    },
    "real-mixed": {
        "float": lambda t: math.sqrt(t) * math.exp(-t),
        "float-then-complex": lambda t: (
            math.sqrt(t) * math.exp(-t)
            if t < 0.5
            else complex(math.sqrt(t) * math.exp(-t), 0.0)
        ),
    },
    # the imaginary part underflows to 0.0 near t = 0, where the integrand
    # returns a float, after the scan has summed complex values elsewhere
    "complex-mixed": {
        "float-or-complex": lambda t: _flat_imaginary(t, float),
        "complex": lambda t: _flat_imaginary(t, complex),
    },
}
# family -> (repr(value), terms_used, repr(last_term_magnitude)), recorded
# again when the exp-exp map replaced exp-sinh; against the exact values
# (0.1, 3, sqrt(pi)/2 and 0.5 + 0.2931...i) the relative distances went
# from 8.3e-17, 0, 4.3e-17 and 1.8e-17 to 5.0e-16, 0, 4.3e-17 and
# 1.8e-17, each within 2x the rule's estimate; the counts were recorded
# again when a side came to end at its first negligible node, and no
# value moved
RETURN_TYPE_BITS = {
    "damped-cosine": ("(0.09999999999999995+0j)", 421, "4.163336342344337e-17"),
    "constant": ("(3+0j)", 111, "0.0"),
    "real-mixed": ("(0.886226925452758+0j)", 108, "0.0"),
    "complex-mixed": ("(0.5+0.29312676277195554j)", 216, "7.850462293418876e-17"),
}


@pytest.mark.parametrize(
    "family, form",
    [(family, form) for family, forms in RETURN_TYPES.items() for form in forms],
)
def test_integrand_return_type_keeps_bits(family, form):
    r = integrate(RETURN_TYPES[family][form])
    got = (repr(r.value), r.terms_used, repr(r.last_term_magnitude))
    assert got == RETURN_TYPE_BITS[family]
