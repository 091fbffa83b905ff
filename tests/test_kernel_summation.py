"""Compensated accumulation and series summation primitives."""

import math
import random

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


def _neumaier_sum_terms(term, tol, max_terms):
    """sum_terms with Neumaier's step, which branches on the larger
    magnitude: the version that TwoSum replaced, kept as a reference."""

    re_total = re_carry = im_total = im_carry = abs_sum = 0.0
    streak = 0
    for n in range(max_terms):
        t = term(n)
        for part in ("re", "im"):
            x = t.real if part == "re" else t.imag
            s = re_total if part == "re" else im_total
            if part == "im" and not (x or s - s):
                continue
            total = s + x
            err = (s - total) + x if abs(s) >= abs(x) else (x - total) + s
            if part == "re":
                re_total, re_carry = total, re_carry + err
            else:
                im_total, im_carry = total, im_carry + err
        mag = abs(t)
        abs_sum += mag
        if n >= 1:
            value = complex(re_total + re_carry, im_total + im_carry)
            streak = streak + 1 if mag <= tol * abs(value) else 0
            if streak >= 2:
                return value, n + 1, mag, abs_sum
    raise AssertionError("reference did not converge")


def test_sum_terms_twosum_keeps_the_neumaier_bits():
    # TwoSum and Neumaier's step both add the exact rounding error of
    # each addition to the carry, so every result keeps its bits: real,
    # complex and mixed terms over 40 decades, in heavy cancellation
    rng = random.Random(2801)
    for case in range(60):
        n_rough = rng.randrange(5, 60)
        rough = []
        for _ in range(n_rough):
            size = 10.0 ** rng.uniform(-20.0, 20.0) * rng.choice((1.0, -1.0))
            kind = rng.randrange(3)
            if kind == 0:
                rough.append(size)
            elif kind == 1:
                rough.append(complex(size, size * rng.uniform(-2.0, 2.0)))
            else:
                rough.append(complex(size * rng.random(), 0.0))
        ratio = rng.uniform(-0.9, 0.9)

        def term(n, rough=rough, ratio=ratio):
            return rough[n] if n < len(rough) else rough[-1] * ratio ** (n - len(rough) + 1)

        got = sum_terms(term, 1e-16, 5000)
        want = _neumaier_sum_terms(term, 1e-16, 5000)
        assert (repr(got.value), got.terms_used, got.last_term_magnitude, got.abs_sum) == (
            repr(want[0]), want[1], want[2], want[3]
        ), case
