"""Modified Bessel function K_nu for complex argument."""

import cmath
import math
import random

import mpmath
import pytest
import scipy.special

from mxsum.errors import PreconditionError
from mxsum.kernel import kv_complex


def test_half_integer_closed_form():
    # K_{1/2}(z) = sqrt(pi/(2z)) e^(-z)
    exact = math.sqrt(math.pi / 4.0) * math.exp(-2.0)
    got = kv_complex(0.5, 2.0)
    assert got.imag == 0.0
    assert abs(got.real - exact) < 1e-13 * exact, got
    assert abs(got.real - 0.11993777196806145) < 1e-15

    z = 1.5 + 0.9j
    exact_c = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z)
    assert abs(kv_complex(0.5, z) - exact_c) < 1e-13 * abs(exact_c)


def test_frozen_reference_points():
    # oracles from 30-digit arithmetic
    cases = [
        (0.25, 3.0 + 1.0j, 0.013869634313956809 - 0.0312843038921946j),
        (2.0, 20.0 + 0.0j, 6.329543612292228e-10),
        (0.75, 18.0 + 5.0j, 1.8361758597407226e-09 + 4.0547796611959705e-09j),
        (3.0, 1.5 + 0.7j, 0.048955529831278266 - 1.4187213946074955j),
    ]
    for nu, z, want in cases:
        got = kv_complex(nu, z)
        assert abs(got - want) < 1e-12 * abs(want), (nu, z, got, want)


def test_conjugate_symmetry():
    # K_nu(conj z) = conj K_nu(z) across magnitudes and order signs
    rng = random.Random(20260817)
    for _ in range(100):
        nu = rng.uniform(-10.0, 10.0)
        mag = math.exp(rng.uniform(math.log(0.5), math.log(40.0)))
        phi = rng.uniform(-1.35, 1.35)
        z = cmath.rect(mag, phi)
        a = kv_complex(nu, z)
        b = kv_complex(nu, z.conjugate())
        assert abs(b - a.conjugate()) <= 1e-13 * abs(a), (nu, z, a, b)


def test_negative_order_equals_positive():
    for z in (0.7 + 0.2j, 5.0 - 2.0j, 30.0 + 4.0j, 21.0 + 0.0j):
        for nu in (0.25, 0.75, 1.5, 3.0):
            assert kv_complex(-nu, z) == kv_complex(nu, z), (nu, z)


def test_accuracy_across_regime_boundary():
    # the evaluation strategy switches near |z| = 20; both sides must
    # agree with an independent oracle
    for nu in (0.25, 1.5, 3.0):
        for r in (18.0, 19.5, 20.0, 20.5, 22.0):
            for phi in (0.0, 0.3, -0.6):
                z = cmath.rect(r, phi)
                want = complex(mpmath.besselk(nu, mpmath.mpc(z.real, z.imag)))
                got = kv_complex(nu, z)
                assert abs(got - want) <= 1e-11 * abs(want), (nu, z, got, want)


def test_hankel_series_at_its_boundary():
    # |z| = 20 is where the Hankel series needs the most terms; it must
    # converge there on its own, across the right half-plane and up to
    # the largest order (non-integer orders keep the oracle fast)
    for nu in (0.1, 1.7, 3.3, 5.5, 7.9, 9.9):
        for j in range(11):
            z = cmath.rect(20.0, -1.55 + 0.31 * j)
            with mpmath.workdps(20):
                want = complex(mpmath.besselk(nu, mpmath.mpc(z.real, z.imag)))
            got = kv_complex(nu, z)
            assert abs(got - want) <= 1e-13 * abs(want), (nu, z, got, want)


def test_oracle_sweep_moderate_arguments():
    for nu in (0.0, 0.5, 1.0, 2.5, 7.0):
        for z in (0.4, 2.0 + 1.0j, 8.0 - 3.0j, 1.0 + 6.0j, 35.0 + 10.0j):
            want = complex(mpmath.besselk(nu, mpmath.mpc(complex(z))))
            got = kv_complex(nu, complex(z))
            assert abs(got - want) <= 1e-12 * abs(want), (nu, z, got, want)


def test_second_independent_oracle():
    # a second implementation lineage, to rule out a shared-oracle slip
    rng = random.Random(77)
    for _ in range(60):
        nu = rng.uniform(0.0, 9.5)
        z = complex(rng.uniform(0.2, 30.0), rng.uniform(-12.0, 12.0))
        want = complex(scipy.special.kv(nu, z))
        got = kv_complex(nu, z)
        assert abs(got - want) <= 1e-11 * abs(want), (nu, z, got, want)


def test_domain_rejection():
    with pytest.raises(PreconditionError):
        kv_complex(11.0, 2.0)
    with pytest.raises(PreconditionError):
        kv_complex(0.5, -1.0 + 0.5j)
    with pytest.raises(PreconditionError):
        kv_complex(0.5, 0.0)
