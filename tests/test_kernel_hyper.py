"""Generalized hypergeometric series."""

import math

import pytest

from mxsum.errors import NonConvergenceError, PreconditionError
from mxsum.kernel import pfq_series


def test_pfq_closed_forms():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    r = pfq_series([1.0, 1.0], [2.0], 0.5)
    assert r.converged
    assert abs(r.value.real - 2.0 * math.log(2.0)) < 1e-14, r.value
    # 0F0(z) = e^z
    r2 = pfq_series([], [], 0.9)
    assert abs(r2.value.real - math.exp(0.9)) < 1e-14
    # z = 0 truncates immediately
    r3 = pfq_series([0.5, 1.5], [2.5], 0.0)
    assert r3.value == 1.0


def test_pfq_real_path_is_exactly_real():
    for z in (0.3, -0.7, 0.99):
        r = pfq_series([0.25, 1.0], [1.75], z)
        assert r.value.imag == 0.0, (z, r.value)


def test_pfq_complex_parameters():
    # 2F1(1, 3i; 1+3i; 1/e), oracle summed at 30 digits
    want = 1.4587522763769882 + 0.21097184880095135j
    r = pfq_series([1.0, 3j], [1 + 3j], math.exp(-1.0))
    assert r.converged
    assert abs(r.value - want) < 1e-13 * abs(want), r.value


def test_pfq_domain():
    with pytest.raises(NonConvergenceError):
        pfq_series([1.0], [2.0], 1.0)
    with pytest.raises(NonConvergenceError):
        pfq_series([1.0], [2.0], -1.2)
    for bad in (0.0, -2.0):
        with pytest.raises(PreconditionError):
            pfq_series([1.0], [bad], 0.5)
    # complex denominator away from the nonpositive integers is fine
    assert pfq_series([1.0], [-2.0 + 1j], 0.5).converged


def test_pfq_divergent_type_refused_up_front():
    # p > q + 1 diverges at every z != 0; it used to run 200,000 NaN
    # terms before giving up
    with pytest.raises(PreconditionError):
        pfq_series([1, 1, 1], [], 0.5)
    with pytest.raises(PreconditionError):
        pfq_series([0.5, 1.0, 2.0], [1.5], 1e-3)
    # a numerator at a nonpositive integer ends the series: 3F0(-2, 1, 1;; 1/2)
    # = 1 - 1 + 1
    r = pfq_series([-2.0, 1.0, 1.0], [], 0.5)
    assert r.converged and r.value == 1.0
