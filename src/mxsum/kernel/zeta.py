"""Hurwitz zeta at odd integer s >= 3 by Euler-Maclaurin summation,
plus the exact Bernoulli numbers B_2m that its correction terms and
the coth series of ``mxsum.coefficients`` need, each computed once per
process by a ``functools.cache`` (immutable, so threads need no lock).

zeta(s, q) = sum_{n<N} (n+q)^-s + (N+q)^{1-s}/(s-1) + (N+q)^{-s}/2
             + sum_j B_{2j}/(2j)! (s)_{2j-1} (N+q)^{-s-2j+1}

with N chosen so |N + q| >= 22; twelve correction terms then leave a
remainder safely below 1e-15 relative for every s >= 3.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from ..errors import PreconditionError
from .summation import csum

__all__ = ["bernoulli_even", "hurwitz_zeta"]


@functools.cache
def bernoulli_even(m: int) -> Fraction:
    """Exact Bernoulli number B_{2m}, computed once per process.

    sum_{j=0}^{n} C(n+1, j) B_j = 0 at n = 2m, with B_1 = -1/2 and the
    odd B_j beyond it zero, gives
    B_2m = -(1 - (2m+1)/2 + sum_{0<i<m} C(2m+1, 2i) B_2i) / (2m+1).
    The sum asks for the B_2i in ascending order, so a cold call is a
    few frames deep however large m is.
    """

    if m < 0:
        raise PreconditionError("bernoulli_even needs m >= 0")
    if m == 0:
        return Fraction(1)
    n1 = 2 * m + 1
    total = Fraction(1) - Fraction(n1, 2)
    for i in range(1, m):
        total += math.comb(n1, 2 * i) * bernoulli_even(i)
    return -total / n1


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
