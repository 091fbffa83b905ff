"""Hurwitz zeta at odd integer s and exact Bernoulli numbers."""

import math
from fractions import Fraction

import mpmath
import pytest

from mxsum.errors import PreconditionError
from mxsum.kernel import bernoulli_even, hurwitz_zeta
from mxsum.kernel.zeta import tangent_number


def test_bernoulli_exact():
    # B_{2m} as exact rationals
    want = {
        0: Fraction(1),
        1: Fraction(1, 6),
        2: Fraction(-1, 30),
        3: Fraction(1, 42),
        6: Fraction(-691, 2730),
        8: Fraction(-3617, 510),
    }
    for m, b in want.items():
        got = bernoulli_even(m)
        assert isinstance(got, Fraction)
        assert got == b, (m, got)
    with pytest.raises(PreconditionError):
        bernoulli_even(-1)


def test_bernoulli_matches_mpmath_exactly():
    # from the tangent numbers, across the table sizes 1, 2, 4, ..., 512
    for m in range(301):
        assert bernoulli_even(m) == Fraction(*mpmath.bernfrac(2 * m)), m


def test_tangent_numbers():
    # T_m = tan^(2m-1)(0); (-1)^(m-1) 2m T_m = 4^m (4^m - 1) B_2m
    assert [tangent_number(m) for m in range(1, 8)] == [
        1, 2, 16, 272, 7936, 353792, 22368256,
    ]
    for m in (63, 64, 65, 300):
        b = Fraction(*mpmath.bernfrac(2 * m))
        assert (-1) ** (m - 1) * 2 * m * tangent_number(m) == 4**m * (4**m - 1) * b
    with pytest.raises(PreconditionError):
        tangent_number(0)


def test_zeta_values():
    assert abs(hurwitz_zeta(3, 1.0).real - 1.2020569031595942) < 1e-15
    got = hurwitz_zeta(3, 1.0)
    assert got.imag == 0.0
    # index shift: zeta(s, q+1) = zeta(s, q) - q^(-s)
    assert abs(hurwitz_zeta(3, 2.0).real - 0.2020569031595943) < 1e-15
    assert abs(hurwitz_zeta(5, 2.5).real - 0.013073166646113807) < 1e-16


def test_zeta_shift_identity():
    for s in (3, 5, 7):
        for q in (0.3, 1.7, 0.4 + 1.1j):
            big = hurwitz_zeta(s, q)
            lhs = hurwitz_zeta(s, q + 1)
            rhs = big - complex(q) ** (-s)
            # the subtraction cancels when q < 1, so scale by the
            # larger operand, not the difference
            assert abs(lhs - rhs) < 1e-13 * max(abs(rhs), abs(big)), (s, q)


def test_zeta_complex_q_frozen():
    q = complex(0.5, 1.0 / (2.0 * math.pi))
    want = 4.561468314514204 - 5.634320925792611j
    got = hurwitz_zeta(3, q)
    assert abs(got - want) < 1e-12 * abs(want), got
    got7 = hurwitz_zeta(7, 0.3 + 2j)
    want7 = -0.004433506850337562 + 0.0026501631951582182j
    assert abs(got7 - want7) < 1e-12 * abs(want7)


def test_zeta_brute_force_cross_check():
    # direct sum of 10^6 terms plus an integral tail bound
    q = complex(0.5, 1.0 / (2.0 * math.pi))
    n_terms = 1_000_000
    re_parts = []
    im_parts = []
    for n in range(n_terms):
        t = (n + q) ** -3
        re_parts.append(t.real)
        im_parts.append(t.imag)
    # Euler-Maclaurin continuation: integral + half endpoint term
    edge = n_terms + q
    tail = edge**-2 / 2.0 + edge**-3 / 2.0
    brute = complex(math.fsum(re_parts), math.fsum(im_parts)) + tail
    got = hurwitz_zeta(3, q)
    assert abs(got - brute) < 1e-11 * abs(got), (got, brute)


def test_zeta_domain():
    for s in (2, 4, 1, 0, 3.5, -3):
        with pytest.raises(PreconditionError):
            hurwitz_zeta(s, 1.0)
    with pytest.raises(PreconditionError):
        hurwitz_zeta(3, -0.2)
    with pytest.raises(PreconditionError):
        hurwitz_zeta(3, 0.0 + 1j)
