"""Reference values the benchmark checks mxsum's outputs against.

Everything here runs outside the timed loop. High-precision values use
mpmath at 40 digits with explicit sums or closed forms; ``mpmath.nsum``
is deliberately not used (its extrapolation has returned a reference off
by 7.8e-9 on this family of sums).

Coefficients:

* B_k = (-1)^k 2^(-2k-1) d^(2k)/dx^(2k) tanh x and
  Bhat_k = 2^(-2k-1) d^(2k)/dx^(2k) (coth x - 1/x) at x = lam/2, from
  the partial fractions of tanh and coth: for k >= 1 the derivative is
  (2k)! 2 Re[(i pi)^(-s) zeta(s, c - i x/pi)], s = 2k+1, with
  c = 1/2 for tanh and c = 1 for coth; k = 0 is the function itself.
* A_k by dividing the Taylor series of sin(lam x)/x by that of
  sinh(pi x)/x in 50-digit arithmetic.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

DPS = 40


def _complex_a(a) -> mpmath.mpc:
    return mpmath.mpc(a[0], a[1])


def explicit_sum(mu: float, lam: float, a, sign: str):
    """sum_n (+-1)^n e^(-lam n) / (n^2 + a^2)^mu to ~35 digits, lam > 0.

    The n-th term is computed as exp(-mu log(n^2 + a^2)), the principal
    branch mxsum uses. Stops when the remaining geometric tail bound is
    below 1e-36 of the partial sum.
    """

    with mp.workdps(DPS):
        a = _complex_a(a)
        mu = mp.mpf(mu)
        q = mp.exp(-mp.mpf(lam))
        if sign == "minus":
            q = -q
        tail_factor = 1 / (1 - abs(q))
        a2 = a * a
        total = mp.mpc(0)
        weight = mp.mpf(1)
        n = 0
        while True:
            term = weight * mp.exp(-mu * mp.log(n * n + a2))
            total += term
            n += 1
            weight *= q
            if n > 2 and abs(term) * tail_factor < mp.mpf(10) ** -36 * abs(total):
                return complex(total)


def coefficient(kind: str, k: int, lam: float):
    """B_k, Bhat_k or A_k at lam, as an mpf (40 digits)."""

    with mp.workdps(DPS):
        if kind == "A":
            return a_coefficients(lam, k)[k]
        x = mp.mpf(lam) / 2
        if k == 0:
            value = mp.tanh(x) if kind == "B" else mp.coth(x) - 1 / x
        else:
            s = 2 * k + 1
            shift = mp.mpf(1) / 2 if kind == "B" else mp.mpf(1)
            series = mp.zeta(s, shift - 1j * x / mp.pi)
            value = mp.factorial(2 * k) * 2 * mp.re((mp.pi * 1j) ** (-s) * series)
        sign = -1 if kind == "B" and k % 2 else 1
        return sign * value / mp.mpf(2) ** (2 * k + 1)


def a_coefficients(lam: float, K: int) -> list:
    """A_0..A_K with sin(lam x)/sinh(pi x) = (lam/pi) sum (-1)^k A_k x^(2k)."""

    with mp.workdps(DPS + 10):
        lam = mp.mpf(lam)
        # series in t = x^2: sin(lam x)/(lam x) and sinh(pi x)/(pi x)
        num = [(-1) ** j * lam ** (2 * j) / mp.factorial(2 * j + 1) for j in range(K + 1)]
        den = [mp.pi ** (2 * j) / mp.factorial(2 * j + 1) for j in range(K + 1)]
        quotient = []
        for j in range(K + 1):
            acc = num[j] - mp.fsum(quotient[i] * den[j - i] for i in range(j))
            quotient.append(acc / den[0])
        return [(-1) ** j * c for j, c in enumerate(quotient)]


def expansion(route: str, K: int, mu: float, lam: float, a) -> complex:
    """The truncated large-a expansion that ``route`` evaluates, k = 0..K.

    algebraic_minus: a^(-2mu) [1/2 + sum (mu)_k/k! B_k a^(-2k)]
    algebraic_plus:  a^(-2mu) [1/2 + sum (-1)^k (mu)_k/k! Bhat_k a^(-2k)]
                     + (a^(1-2mu)/2) sum (-1)^k (1/2)_k (mu)_k / (lam a/2)^(2k+1)
    """

    with mp.workdps(DPS):
        a = _complex_a(a)
        mu = mp.mpf(mu)
        plus = route == "algebraic_plus"
        kind = "Bhat" if plus else "B"
        total = mp.mpf(1) / 2
        for k in range(K + 1):
            factor = mp.rf(mu, k) / mp.factorial(k) * a ** (-2 * k)
            term = factor * coefficient(kind, k, lam)
            total += -term if plus and k % 2 else term
        value = a ** (-2 * mu) * total
        if plus:
            half = mp.mpf(lam) * a / 2
            laplace = mp.fsum(
                (-1) ** k * mp.rf(mp.mpf(1) / 2, k) * mp.rf(mu, k) / half ** (2 * k + 1)
                for k in range(K + 1)
            )
            value += a ** (1 - 2 * mu) / 2 * laplace
        return complex(value)


def relative_error(value: complex, reference: complex) -> float:
    return abs(value - reference) / abs(reference)
