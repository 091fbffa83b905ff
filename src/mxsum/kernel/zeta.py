"""Hurwitz zeta at odd integer s >= 3 by Euler-Maclaurin summation,
plus the exact Bernoulli numbers B_2m that its correction terms and
the coth series of ``mxsum.coefficients`` need.

zeta(s, q) = sum_{n<N} (n+q)^-s + (N+q)^{1-s}/(s-1) + (N+q)^{-s}/2
             + sum_j B_{2j}/(2j)! (s)_{2j-1} (N+q)^{-s-2j+1}

with N chosen so |N + q| >= 22; twelve correction terms then leave a
remainder safely below 1e-15 relative for every s >= 3.

The Bernoulli numbers come from the integer tangent numbers T_m, the
Taylor coefficients of tan x = sum T_m x^(2m-1)/(2m-1)!, as
B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1)). T_1..T_n take O(n^2) small
multiples and sums of integers (R. P. Brent and D. Harvey, "Fast
computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286,
algorithm TangentNumbers), where the Fraction recurrence for B_2m costs
O(m^2) rational operations. The table is built in sizes that are powers
of two, each by loops and once per process (a ``functools.cache`` with
an immutable result, so threads need no lock). ``fractions`` is
imported by ``bernoulli_even`` alone, the one function here that makes
a Fraction, so a process that only needs T_m never loads it.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from ..errors import PreconditionError
from .summation import csum

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["bernoulli_even", "hurwitz_zeta", "tangent_number"]


@functools.cache
def _tangent_numbers(n: int) -> tuple[int, ...]:
    """T_1..T_n: start from T_j = (j-1)!, then pass k = 2..n replaces
    T_j by (j-k) T_(j-1) + (j-k+2) T_j for j = k..n, in ascending j."""

    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, n + 1):
        prev = t[k - 1]
        for j in range(k, n + 1):
            prev = t[j] = (j - k) * prev + (j - k + 2) * t[j]
    return tuple(t[1:])


def tangent_number(m: int) -> int:
    """Tangent number T_m for m >= 1 (1, 2, 16, 272, 7936, ...), from the
    cached table of the smallest power-of-two size that holds it."""

    if m < 1:
        raise PreconditionError("tangent_number needs m >= 1")
    return _tangent_numbers(1 << (m - 1).bit_length())[m - 1]


def bernoulli_even(m: int) -> Fraction:
    """Exact Bernoulli number B_{2m} = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""

    if m < 0:
        raise PreconditionError("bernoulli_even needs m >= 0")
    from fractions import Fraction

    if m == 0:
        return Fraction(1)
    four_m = 4**m
    b = Fraction(2 * m * tangent_number(m), four_m * (four_m - 1))
    return b if m % 2 else -b


_EM_TERMS = 12


def hurwitz_zeta(s: float, q: complex) -> complex:
    """zeta(s, q) = sum_{n>=0} (n+q)^-s for odd integer s >= 3, Re q > 0."""

    sf = float(s)
    if sf != int(sf) or int(sf) < 3 or int(sf) % 2 == 0:
        raise PreconditionError(
            "hurwitz_zeta is implemented for odd integer s >= 3 only"
        )
    si = int(sf)
    q = complex(q)
    if not q.real > 0.0:
        raise PreconditionError("hurwitz_zeta needs Re q > 0")

    n_direct = 0
    while abs(n_direct + q) < 22.0:
        n_direct += 1

    total = csum((n + q) ** (-si) for n in range(n_direct))
    a = n_direct + q
    tail = a ** (1 - si) / (si - 1) + 0.5 * a ** (-si)
    correction: complex = 0.0
    a2 = a * a
    power = a ** (-si - 1)  # a^{-s-2j+1} at j = 1
    poch = float(si)  # (s)_{2j-1} at j = 1
    for j in range(1, _EM_TERMS + 1):
        b = bernoulli_even(j)
        correction += (
            b.numerator / b.denominator / math.factorial(2 * j) * poch * power
        )
        power /= a2
        poch *= (si + 2 * j - 1) * (si + 2 * j)
    return total + tail + correction
