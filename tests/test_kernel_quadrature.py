"""Double-exponential quadrature: values, endpoint handling, failure modes."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mxsum.errors import IntegrandError, NonConvergenceError, PreconditionError
from mxsum.kernel import QuadratureSpec, integrate

_SRC = Path(__file__).resolve().parents[1] / "src"


def test_arcsin_integral_with_declared_singularity():
    # integral of (1-t^2)^(-1/2) over (0,1) = pi/2, flipped so the
    # singular endpoint sits at the left end, where dl is its distance
    spec = QuadratureSpec(0.0, 1.0)
    r = integrate(lambda s, dl, du: 1.0 / math.sqrt(dl * (2.0 - s)), spec)
    assert r.converged
    assert abs(r.value.real - math.pi / 2) < 1e-13


def test_right_singularity_via_distance_argument():
    # same integral, unflipped: d_upper carries the exact distance to 1
    spec = QuadratureSpec(0.0, 1.0)
    r = integrate(lambda t, dl, du: 1.0 / math.sqrt(du * (1.0 + t)), spec)
    assert abs(r.value.real - math.pi / 2) < 1e-13


def test_moment_integral():
    # integral of t^2 (1-t^2)^(-1/2) = pi/4
    spec = QuadratureSpec(0.0, 1.0)
    r = integrate(lambda s, dl, du: (1.0 - s) ** 2 / math.sqrt(dl * (2.0 - s)), spec)
    assert abs(r.value.real - math.pi / 4) < 1e-13


def test_semi_infinite_exponential():
    r = integrate(lambda t, dl, du: math.exp(-t), QuadratureSpec(0.0, math.inf))
    assert r.converged
    assert abs(r.value.real - 1.0) < 1e-13
    assert r.terms_used > 0


def test_abs_sum_is_the_integral_of_abs_f():
    # abs_sum is h times the sum of |weighted value|: the integral of |f|
    # by the same rule, which the H and J routes floor their estimates on
    r = integrate(lambda t, dl, du: math.exp(-t), QuadratureSpec(0.0, math.inf))
    assert abs(r.abs_sum - 1.0) < 1e-13
    # int_0^inf |sin t| e^-t dt, a sum over half periods of
    # e^(-k pi) (1 + e^-pi)/2; the kinks of |f| limit the rule there
    r = integrate(
        lambda t, dl, du: math.sin(t) * math.exp(-t), QuadratureSpec(0.0, math.inf)
    )
    assert abs(r.value.real - 0.5) < 1e-13
    want = 0.5 * (1.0 + math.exp(-math.pi)) / (1.0 - math.exp(-math.pi))
    assert abs(r.abs_sum - want) < 1e-4 * want


def test_beta_function_grid():
    # B(p,q)/2 = integral of t^(2p-1) (1-t^2)^(q-1) over (0,1), split at
    # 1/2 so each half has its singularity at the left end
    half = QuadratureSpec(0.0, 0.5)
    for p in (0.25, 0.5, 0.75, 1.0):
        for q in (0.25, 0.5, 0.75, 1.0):
            part1 = integrate(
                lambda t, dl, du: t ** (2.0 * p - 1.0) * (1.0 - t * t) ** (q - 1.0),
                half,
            )
            part2 = integrate(
                lambda s, dl, du: (1.0 - s) ** (2.0 * p - 1.0)
                * (dl * (2.0 - s)) ** (q - 1.0),
                half,
            )
            got = part1.value.real + part2.value.real
            exact = math.gamma(p) * math.gamma(q) / math.gamma(p + q) / 2.0
            assert abs(got - exact) < 1e-12 * exact, (p, q, got, exact)


def test_complex_integrand():
    r = integrate(
        lambda t, dl, du: complex(math.cos(t), math.sin(t)), QuadratureSpec(0.0, 1.0)
    )
    exact = complex(math.sin(1.0), 1.0 - math.cos(1.0))
    assert abs(r.value - exact) < 1e-13


def test_nan_integrand_raises():
    with pytest.raises(IntegrandError):
        integrate(lambda t, dl, du: math.nan, QuadratureSpec(0.0, 1.0))


def test_level_budget_exhaustion_raises():
    # a kink inside the interval defeats the double-exponential rule
    with pytest.raises(NonConvergenceError, match="within 12 refinements"):
        integrate(lambda t, dl, du: abs(t - 0.3), QuadratureSpec(0.0, 1.0))


def test_spec_validation():
    bad = [
        dict(lower=math.inf, upper=1.0),
        dict(lower=0.0, upper=0.0),
        dict(lower=0.0, upper=1.0, target_rel_tol=0.0),
        dict(lower=0.0, upper=1.0, target_rel_tol=2.0),
    ]
    for kwargs in bad:
        with pytest.raises(PreconditionError):
            QuadratureSpec(**kwargs)


@pytest.mark.parametrize("upper", [1.0, math.inf], ids=["tanh-sinh", "exp-sinh"])
def test_infinite_integrand_raises(upper):
    spec = QuadratureSpec(0.0, upper)
    with pytest.raises(IntegrandError, match="infinity"):
        integrate(lambda t, dl, du: -math.inf, spec)
    with pytest.raises(IntegrandError, match="infinity"):
        integrate(lambda t, dl, du: complex(1.0, math.inf), spec)


def test_nan_integrand_raises_on_half_line():
    with pytest.raises(IntegrandError, match="NaN"):
        integrate(lambda t, dl, du: math.nan, QuadratureSpec(0.0, math.inf))
    with pytest.raises(IntegrandError, match="NaN"):
        integrate(
            lambda t, dl, du: complex(0.0, math.nan) if t > 3.0 else 1.0,
            QuadratureSpec(0.0, math.inf),
        )


# Runs the slowly decaying integrals, after the early-truncating ones
# when argv[1] == "grown"; prints each result and the number of nodes in
# the shared tables after the call.
_ORDER_SCRIPT = """
import math, sys
from mxsum.kernel import QuadratureSpec, integrate, quadrature

SLOW = [
    (lambda t, dl, du: (1.0 + t) ** -1.5, QuadratureSpec(0.0, math.inf)),
    (
        lambda t, dl, du: dl ** -0.5 * (1.0 + t),
        QuadratureSpec(0.0, 1.0),
    ),
]
EARLY = [
    (lambda t, dl, du: math.exp(-50.0 * t), QuadratureSpec(0.0, math.inf)),
    (lambda t, dl, du: t * (1.0 - t), QuadratureSpec(0.0, 1.0)),
]
for f, spec in (EARLY if sys.argv[1] == "grown" else []) + SLOW:
    r = integrate(f, spec)
    nodes = sum(len(t.nodes) for ts in quadrature._TABLES.values() for t in ts)
    print(repr(r.value), r.terms_used, repr(r.last_term_magnitude), nodes)
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
    fresh = [line.rsplit(" ", 1) for line in _run_script(_ORDER_SCRIPT, "fresh")]
    grown = [line.rsplit(" ", 1) for line in _run_script(_ORDER_SCRIPT, "grown")]
    assert [r for r, _ in grown[2:]] == [r for r, _ in fresh]
    # the slow integrals extended tables that the early ones had started
    sizes = [int(n) for _, n in grown]
    assert sizes[2] > sizes[1] and sizes[3] > sizes[2]


# Three rounds of four threads that integrate the same integrals while
# the shared tables are still empty, under a very short switch interval:
# a slowly decaying one and a kink that runs all 12 levels and fails, so
# the tables grow by thousands of nodes while the threads interleave.
# Prints how many thread results differ from a serial run (a thread that
# died leaves None, which differs too).
_THREADS_SCRIPT = """
import math, sys, threading
from mxsum.kernel import QuadratureSpec, integrate, quadrature

CASES = [
    (lambda t, dl, du: (1.0 + t) ** -1.5, QuadratureSpec(0.0, math.inf)),
    (lambda t, dl, du: abs(t - 0.3), QuadratureSpec(0.0, 1.0)),
]

def run():
    out = []
    for f, spec in CASES:
        try:
            r = integrate(f, spec)
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


# family -> (spec, {form: integrand}); every form of a family returns the
# same number as a different type, so every form must give the same bits
RETURN_TYPES = {
    "damped-cosine": (
        QuadratureSpec(0.0, math.inf),
        {
            "float": lambda t, dl, du: _damped(t),
            "complex": lambda t, dl, du: complex(_damped(t), 0.0),
            "complex-negative-zero": lambda t, dl, du: complex(_damped(t), -0.0),
        },
    ),
    "constant": (
        QuadratureSpec(-1.0, 2.0),
        {
            "int": lambda t, dl, du: 3,
            "float": lambda t, dl, du: 3.0,
            "complex": lambda t, dl, du: complex(3.0, 0.0),
        },
    ),
    "real-mixed": (
        QuadratureSpec(0.0, 1.0),
        {
            "float": lambda t, dl, du: math.sqrt(t) * math.exp(t),
            "float-then-complex": lambda t, dl, du: (
                math.sqrt(t) * math.exp(t)
                if t < 0.5
                else complex(math.sqrt(t) * math.exp(t), 0.0)
            ),
        },
    ),
    # the imaginary part underflows to 0.0 near t = 0, where the integrand
    # returns a float, after the scan has summed complex values elsewhere
    "complex-mixed": (
        QuadratureSpec(0.0, math.inf),
        {
            "float-or-complex": lambda t, dl, du: _flat_imaginary(t, float),
            "complex": lambda t, dl, du: _flat_imaginary(t, complex),
        },
    ),
}
# family -> (repr(value), terms_used, repr(last_term_magnitude)), recorded
# when the scan still converted every integrand value to complex
RETURN_TYPE_BITS = {
    "damped-cosine": ("(0.09999999999999999+0j)", 1478, "0.0"),
    "constant": ("(9+0j)", 69, "3.304023721284466e-13"),
    "real-mixed": ("(1.2556300825518636+0j)", 121, "0.0"),
    "complex-mixed": ("(0.5+0.29312676277195554j)", 389, "5.551115123125783e-17"),
}


@pytest.mark.parametrize(
    "family, form",
    [(family, form) for family, (_, forms) in RETURN_TYPES.items() for form in forms],
)
def test_integrand_return_type_keeps_bits(family, form):
    spec, forms = RETURN_TYPES[family]
    r = integrate(forms[form], spec)
    got = (repr(r.value), r.terms_used, repr(r.last_term_magnitude))
    assert got == RETURN_TYPE_BITS[family]
