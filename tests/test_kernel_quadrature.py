"""Double-exponential quadrature: values, endpoint handling, failure modes."""

import math

import pytest

from mxsum.errors import IntegrandError, NonConvergenceError, PreconditionError
from mxsum.kernel import QuadratureSpec, integrate


def test_arcsin_integral_with_declared_singularity():
    # integral of (1-t^2)^(-1/2) over (0,1) = pi/2, flipped so the
    # singular endpoint sits at the declared left end
    spec = QuadratureSpec(0.0, 1.0, left_singularity_exponent=0.5)
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
    spec = QuadratureSpec(0.0, 1.0, left_singularity_exponent=0.5)
    r = integrate(lambda s, dl, du: (1.0 - s) ** 2 / math.sqrt(dl * (2.0 - s)), spec)
    assert abs(r.value.real - math.pi / 4) < 1e-13


def test_semi_infinite_exponential():
    r = integrate(lambda t, dl, du: math.exp(-t), QuadratureSpec(0.0, math.inf))
    assert r.converged
    assert abs(r.value.real - 1.0) < 1e-13
    assert r.terms_used > 0


def test_beta_function_grid():
    # B(p,q)/2 = integral of t^(2p-1) (1-t^2)^(q-1) over (0,1), split at
    # 1/2 so each half has its singularity at the declared left end
    for p in (0.25, 0.5, 0.75, 1.0):
        for q in (0.25, 0.5, 0.75, 1.0):
            left = QuadratureSpec(
                0.0, 0.5, left_singularity_exponent=max(0.0, 1.0 - 2.0 * p)
            )
            part1 = integrate(
                lambda t, dl, du: t ** (2.0 * p - 1.0) * (1.0 - t * t) ** (q - 1.0),
                left,
            )
            right = QuadratureSpec(
                0.0, 0.5, left_singularity_exponent=max(0.0, 1.0 - q)
            )
            part2 = integrate(
                lambda s, dl, du: (1.0 - s) ** (2.0 * p - 1.0)
                * (dl * (2.0 - s)) ** (q - 1.0),
                right,
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
    with pytest.raises(NonConvergenceError):
        integrate(
            lambda t, dl, du: math.sin(40.0 * t),
            QuadratureSpec(0.0, 1.0, max_levels=2),
        )


def test_spec_validation():
    bad = [
        dict(lower=math.inf, upper=1.0),
        dict(lower=0.0, upper=0.0),
        dict(lower=0.0, upper=1.0, left_singularity_exponent=1.0),
        dict(lower=0.0, upper=1.0, target_rel_tol=0.0),
        dict(lower=0.0, upper=1.0, target_rel_tol=2.0),
        dict(lower=0.0, upper=1.0, max_levels=1),
    ]
    for kwargs in bad:
        with pytest.raises(PreconditionError):
            QuadratureSpec(**kwargs)
