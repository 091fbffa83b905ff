"""Compensated accumulation and series summation primitives."""

import math

import pytest

from mxsum.errors import NonConvergenceError, PreconditionError
from mxsum.kernel import (
    accelerated_alternating_complex,
    csum,
    sum_terms,
)

LN2 = 0.6931471805599453


def test_csum_survives_cancellation():
    # plain float addition loses both 1.0 terms here
    value = csum((1.0, 1e100, 1.0, -1e100))
    assert value == 2.0
    assert value.real == 2.0


def test_csum_complex_parts_independent():
    value = csum(complex(0.1, -0.1) for k in range(1000))
    err = abs(value - complex(100.0, -100.0))
    assert err < 1e-12, err
    naive = 0.0
    for _ in range(1000):
        naive += 0.1
    # the compensated path must beat naive accumulation
    assert err <= abs(naive - 100.0)


def test_sum_terms_geometric():
    r = sum_terms(lambda n: 0.5**n, tol=1e-15, max_terms=1000)
    assert r.converged
    assert abs(r.value - 2.0) < 1e-14
    assert 40 <= r.terms_used <= 120
    assert r.last_term_magnitude <= 1e-15 * abs(r.value) * 2

    rc = sum_terms(lambda n: (0.5j) ** n, tol=1e-15, max_terms=1000)
    assert abs(rc.value - (0.8 + 0.4j)) < 1e-14


def test_sum_terms_needs_two_small_terms():
    # term 1 is an accidental zero; a single-term stop would return 1.0
    def term(n):
        if n == 1:
            return 0.0
        return 0.5**n

    r = sum_terms(term, tol=1e-15, max_terms=1000)
    exact = 2.0 - 0.5
    assert abs(r.value - exact) < 1e-14, r.value


def test_sum_terms_divergence_raises():
    with pytest.raises(NonConvergenceError):
        sum_terms(lambda n: 1.0 / (n + 1.0), tol=1e-12, max_terms=2000)


def test_complex_acceleration_matches_oracle():
    # sum (-1)^k (k^2 + 3 + 4i)^(-1/2), oracle from 30-digit arithmetic
    oracle = 0.19830425161292795 - 0.09961237199047437j
    r = accelerated_alternating_complex(lambda k: (k * k + 3 + 4j) ** -0.5, stages=23)
    assert r.converged
    assert abs(r.value - oracle) < 1e-13, r.value

    # sum (-1)^k (k^2 + 25)^(-1/2): real terms decaying like 1/k only,
    # far too slow for direct summation
    r = accelerated_alternating_complex(lambda k: (k * k + 25.0) ** -0.5, stages=23)
    assert r.converged
    assert abs(r.value.real - 0.1000000945791869) < 1e-13, r.value


def test_complex_acceleration_stage_control():
    term = lambda k: 1.0 / (k + 1.0)
    lo = accelerated_alternating_complex(term, stages=6)
    hi = accelerated_alternating_complex(term, stages=24)
    assert abs(hi.value.real - LN2) < 1e-15
    assert abs(hi.value.real - LN2) <= abs(lo.value.real - LN2)
    with pytest.raises(PreconditionError):
        accelerated_alternating_complex(term, stages=3)
