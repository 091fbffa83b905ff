"""Exp-sinh quadrature on (0, inf): values, return types, shared node
tables, failure modes."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mxsum.errors import IntegrandError, NonConvergenceError, PreconditionError
from mxsum.kernel import integrate

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


def test_level_budget_exhaustion_raises():
    # a kink defeats the double-exponential rule, and so does a zero
    # integral, where a relative tolerance cannot be met
    for f in (
        lambda t: abs(t - 0.3) * math.exp(-t),
        lambda t: (1.0 - t) * math.exp(-t),
    ):
        with pytest.raises(NonConvergenceError, match="within 12 refinements"):
            integrate(f)


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
# earlier call had built is still the very same tuple.
_ORDER_SCRIPT = """
import math, sys
from mxsum.kernel import integrate, quadrature

SLOW = [
    lambda t: (1.0 + t) ** -1.5,
    lambda t: t**-0.5 * (1.0 + t) ** -1.25,
]
EARLY = [
    lambda t: math.exp(-50.0 * t),
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
# a slowly decaying one and a kink that runs all 12 levels and fails, so
# the tables grow by thousands of nodes while the threads interleave.
# Prints how many thread results differ from a serial run (a thread that
# died leaves None, which differs too).
_THREADS_SCRIPT = """
import math, sys, threading
from mxsum.kernel import integrate, quadrature

CASES = [
    lambda t: (1.0 + t) ** -1.5,
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
# when the scan still converted every integrand value to complex; the
# constant and real-mixed families were recorded again on (0, inf), by
# the same scan, when the finite-interval rule was removed
RETURN_TYPE_BITS = {
    "damped-cosine": ("(0.09999999999999999+0j)", 1478, "0.0"),
    "constant": ("(3+0j)", 205, "0.0"),
    "real-mixed": ("(0.886226925452758+0j)", 193, "0.0"),
    "complex-mixed": ("(0.5+0.29312676277195554j)", 389, "5.551115123125783e-17"),
}


@pytest.mark.parametrize(
    "family, form",
    [(family, form) for family, forms in RETURN_TYPES.items() for form in forms],
)
def test_integrand_return_type_keeps_bits(family, form):
    r = integrate(RETURN_TYPES[family][form])
    got = (repr(r.value), r.terms_used, repr(r.last_term_magnitude))
    assert got == RETURN_TYPE_BITS[family]
