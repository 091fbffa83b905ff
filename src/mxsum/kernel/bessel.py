"""Modified Bessel function K_nu(z) for complex z in the right
half-plane and real order |nu| <= 10.

The order is split as nu = n + mu with n = round(nu) and |mu| <= 1/2.
The regime is chosen by |z| alone:

* |z| >= 20: Hankel asymptotic series sqrt(pi/2z) e^-z sum a_k(nu)/z^k,
  summed until a term falls below 1e-17 of the sum. For |nu| <= 10 that
  happens by k = 36 across the half-plane (checked on nu in [0, 10] by
  0.1, |z| in {20, 20.5, 22, 30} and 51 angles in (-pi/2, pi/2)); a
  series that is not done within 40 terms raises.
* 1.5 <= |z| < 20: Steed's continued fraction CF2 in Temme's form
  (Thompson and Barnett, Comput. Phys. Commun. 47 (1987); the
  ``bessik`` scheme of Numerical Recipes) gives K_mu and K_{mu+1}. It
  takes 43 steps at |z| = 4.7 on the real axis and 17 at |z| = 20;
  next to the imaginary axis about 1.6 times as many (204 at
  |z| = 1.5).
* |z| < 1.5: Temme's series (J. Comput. Phys. 19 (1975)) for the same
  pair. Its gamma1 and gamma2 come from the Taylor coefficients of
  1/Gamma(1 + x) (A&S 6.1.34), so nothing cancels near mu = 0. The
  series' leading terms cancel more as |z| grows (at z = 2 they are
  near 1 and K is 0.11): on 1.5 <= |z| < 2 the pair erred by up to
  7.6e-15 against 7.4e-16 for CF2, so CF2 takes over at 1.5, not at 2
  as in ``bessik``.

Below |z| = 20 the pair is carried up to K_nu by the recurrence
K_{m+1} = (2m/z) K_m + K_{m-1}, which is stable for K.

Measured against 30-digit ``mpmath.besselk`` on a seeded grid of 5000
points (|nu| <= 10, |z| log-uniform on [0.05, 40], |arg z| <= 1.55),
the largest relative error is 1.9e-15 (in Temme's series; 1.5e-15 in
CF2, 9e-16 in the Hankel series), and no point raises.

Arguments in the lower half-plane are computed by conjugation, which
also makes the reflection K(conj z) = conj K(z) exact; the order is
replaced by |nu| up front, making K_{-nu} = K_nu exact.
"""

from __future__ import annotations

import cmath
import math

from ..errors import NonConvergenceError, PreconditionError

__all__ = ["kv_complex"]

# Taylor coefficients c_k of 1/Gamma(1 + x) = sum c_k x^k (A&S 6.1.34,
# shifted by one); beyond k = 21, c_k 2^-k < 1e-20
_RGAMMA_EVEN = (
    1.0,
    -0.6558780715202539,
    0.16653861138229148,
    -0.009621971527876973,
    -0.0011651675918590652,
    0.0001280502823881162,
    -1.2504934821426706e-06,
    -2.056338416977607e-07,
    5.002007644469223e-09,
    1.0434267116911005e-10,
    -3.696805618642206e-12,
)
_RGAMMA_ODD = (
    0.5772156649015329,
    -0.04200263503409524,
    -0.04219773455554433,
    0.0072189432466631,
    -0.00021524167411495098,
    -2.013485478078824e-05,
    1.133027231981696e-06,
    6.116095104481416e-09,
    -1.18127457048702e-09,
    7.782263439905071e-12,
    5.100370287454476e-13,
)
# c_k grows like k! and would overflow near k = 170, so c and the q pair
# (which shrink like 1/k!) are rescaled together once c passes this
_RESCALE = 1e150


def _asymptotic(nu: float, z: complex) -> complex:
    """Hankel series for |z| >= 20."""

    pref = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z)
    if pref == 0:
        return 0j  # K underflows; the true value is below 1e-300
    four_nu2 = 4.0 * nu * nu
    term = 1.0 + 0j
    acc = term
    for k in range(1, 41):
        term = term * ((four_nu2 - (2.0 * k - 1.0) ** 2) / (8.0 * k)) / z
        acc += term
        if abs(term) <= 1e-17 * abs(acc):
            return pref * acc
    raise NonConvergenceError(
        f"Hankel series for K_nu did not converge in 40 terms at nu={nu}, z={z!r}"
    )


def _steed(mu: float, z: complex) -> tuple[complex, complex]:
    """K_mu(z) and K_{mu+1}(z) by CF2, for |mu| <= 1/2 and |z| >= 1.5."""

    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = a1
    a = -a1
    # s - 1 is summed on its own: adding each small step to s ~ 1 would
    # cost about one rounding of s per step
    t = q * delh
    for i in range(1, 400):
        a -= 2 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        t += dels
        if abs(dels) <= 1e-17 * abs(1.0 + t):
            kmu = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z) / (1.0 + t)
            return kmu, kmu * (mu + 0.5 + z - a1 * h) / z
        if c > _RESCALE:
            c /= _RESCALE
            q1 *= _RESCALE
            q2 *= _RESCALE
    raise NonConvergenceError(
        f"continued fraction for K_nu did not converge at mu={mu}, z={z!r}"
    )


def _temme(mu: float, z: complex) -> tuple[complex, complex]:
    """K_mu(z) and K_{mu+1}(z) by Temme's series, |mu| <= 1/2, |z| < 1.5."""

    m2 = mu * mu
    g_even = g_odd = 0.0
    for ce, co in zip(reversed(_RGAMMA_EVEN), reversed(_RGAMMA_ODD)):
        g_even = g_even * m2 + ce
        g_odd = g_odd * m2 + co
    gam1 = -g_odd  # (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu)
    gam2 = g_even  # (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2
    gampl = gam2 - mu * gam1  # 1/Gamma(1 + mu)
    gammi = gam2 + mu * gam1  # 1/Gamma(1 - mu)

    half = 0.5 * z
    lg = -cmath.log(half)
    e = mu * lg
    pimu = math.pi * mu
    fact = pimu / math.sin(pimu) if pimu else 1.0
    sinhc = cmath.sinh(e) / e if e else 1.0
    f = fact * (gam1 * cmath.cosh(e) + gam2 * sinhc * lg)
    ee = cmath.exp(e)
    p = 0.5 * ee / gampl
    q = 0.5 / (ee * gammi)
    c = 1.0
    w = half * half
    s0 = f
    s1 = p
    for i in range(1, 100):
        f = (i * f + p + q) / (i * i - m2)
        c *= w / i
        p /= i - mu
        q /= i + mu
        t0 = c * f
        t1 = c * (p - i * f)
        s0 += t0
        s1 += t1
        if abs(t0) <= 1e-17 * abs(s0) and abs(t1) <= 1e-17 * abs(s1):
            return s0, s1 / half
    raise NonConvergenceError(
        f"Temme series for K_nu did not converge at mu={mu}, z={z!r}"
    )


def kv_complex(nu: float, z: complex) -> complex:
    """K_nu(z) for real |nu| <= 10 and complex z with Re z > 0.

    Accuracy: a few units in the last place (1.9e-15 relative at worst
    on the grid of the module docstring).
    """

    nu = float(nu)
    if math.isnan(nu) or abs(nu) > 10.0:
        raise PreconditionError("order must be real with |nu| <= 10")
    z = complex(z)
    if not z.real > 0.0 or z != z:
        raise PreconditionError("argument must satisfy Re z > 0")
    nu = abs(nu)
    if z.imag < 0.0:
        return kv_complex(nu, z.conjugate()).conjugate()

    if abs(z) >= 20.0:
        return _asymptotic(nu, z)

    n = int(nu + 0.5)
    mu = nu - n
    kmu, k1 = _steed(mu, z) if abs(z) >= 1.5 else _temme(mu, z)
    two_over_z = 2.0 / z
    for i in range(1, n + 1):
        kmu, k1 = k1, (mu + i) * two_over_z * k1 + kmu
    if not cmath.isfinite(kmu):
        raise NonConvergenceError(
            f"K_nu overflows double precision at nu={nu}, z={z!r}"
        )
    return kmu
