"""Modified Bessel function K_nu(z) for complex z in the right
half-plane and real order |nu| <= 10.

Route selection:

* |z| >= 20: Hankel asymptotic series sqrt(pi/2z) e^-z sum a_k(nu)/z^k,
  truncated at the smallest term. Near the order/argument boundary the
  attainable accuracy degrades (the series is not uniform in nu), so if
  the estimated error exceeds the target the integral route below is
  used instead.
* otherwise, |arg z| <= pi/4: K_nu(z) = int_0^inf e^{-z cosh t}
  cosh(nu t) dt on the half-line by trapezoid halving (the integrand
  extends to an even analytic function of t, for which the trapezoid
  rule converges geometrically).
* otherwise: the same integral becomes violently oscillatory, so the
  contour is rotated by phi = arg z (t -> t - i phi), which trades the
  oscillation for a bounded vertical piece:

      K_nu(z) = -i int_0^phi e^{-z cos u} cos(nu u) du
                + int_0^inf e^{-z cosh(s - i phi)} cosh(nu (s - i phi)) ds.

  On the rotated ray Re(z cosh(s - i phi)) = |z| (cos^2 phi cosh s +
  sin^2 phi sinh s) grows monotonically, so the integrand decays
  without sign changes.

Arguments in the lower half-plane are computed by conjugation, which
also makes the reflection K(conj z) = conj K(z) exact; the order is
replaced by |nu| up front, making K_{-nu} = K_nu exact.
"""

from __future__ import annotations

import cmath
import math

from ..errors import NonConvergenceError, PreconditionError
from .quadrature import QuadratureSpec, integrate

__all__ = ["kv_complex"]

_LOG2 = math.log(2.0)


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LOG2


def _asymptotic(nu: float, z: complex) -> tuple[complex, float]:
    """Hankel series value and a relative error estimate."""

    pref = cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z)
    if pref == 0:
        return 0j, 0.0  # K underflows; the true value is below 1e-300
    four_nu2 = 4.0 * nu * nu
    term = 1.0 + 0j
    acc = term
    best = math.inf
    for k in range(1, 41):
        term = term * ((four_nu2 - (2.0 * k - 1.0) ** 2) / (8.0 * k)) / z
        acc += term
        mag = abs(term)
        if mag <= 1e-17 * abs(acc):
            return pref * acc, mag / max(abs(acc), 1e-300)
        if mag < best or k == 1:  # the first smallest term wins a tie
            best, k_best, value = mag, k, acc
        elif k == k_best + 1:
            omitted = mag
    # no convergence: truncate at the smallest term (optimal truncation);
    # the estimate is the first omitted term (the smallest one at k = 40)
    if k_best == 40:
        omitted = best
    return pref * value, omitted / max(abs(value), 1e-300)


def _trapezoid(nu: float, z: complex) -> complex:
    """Half-line trapezoid for the cosh-kernel integral, |arg z| <= pi/4."""

    nz = -z

    def f(t: float) -> complex:
        ex = nz * math.cosh(t) + _log_cosh(nu * t)
        if ex.real < -745.0:
            return 0j
        return cmath.exp(ex)

    h = 1.0
    total = 0.5 * f(0.0)
    abs_mass = abs(total)
    estimate = 0j
    for level in range(11):
        h *= 0.5
        # level 0 scans every multiple of h = 1/2, later levels the odd
        # multiples of their h; a scan stops at two negligible nodes
        s = h
        step = h if level == 0 else 2.0 * h
        streak = 0
        while s <= 60.0:
            v = f(s)
            total += v
            abs_mass += abs(v)
            if abs(v) <= 1e-18 * abs_mass:
                streak += 1
                if streak >= 2:
                    break
            else:
                streak = 0
            s += step
        new_estimate = h * total
        delta = abs(new_estimate - estimate)
        estimate = new_estimate
        if level >= 2 and delta <= 5e-15 * max(abs(estimate), 1e-300):
            return estimate
    raise NonConvergenceError(
        f"cosh-kernel trapezoid for K_nu did not converge at nu={nu}, z={z!r}"
    )


def _rotated(nu: float, z: complex, phi: float) -> complex:
    nz, nphi, nnu_phi = -z, -phi, -nu * phi
    cos, cexp, ccosh = math.cos, cmath.exp, cmath.cosh
    arc = integrate(
        lambda u, _dl, _du: cexp(nz * cos(u)) * cos(nu * u),
        QuadratureSpec(0.0, phi, 1e-14),
    )

    def ray(s: float, _dl: float, _du: float) -> complex:
        if s > 700.0:
            return 0j  # cosh would overflow; integrand long dead by here
        ex = nz * ccosh(complex(s, nphi))
        if ex.real < -745.0:
            return 0j
        return cexp(ex) * ccosh(complex(nu * s, nnu_phi))

    tail = integrate(ray, QuadratureSpec(0.0, math.inf, 1e-14))
    return -1j * arc.value + tail.value


def kv_complex(nu: float, z: complex) -> complex:
    """K_nu(z) for real |nu| <= 10 and complex z with Re z > 0.

    Accuracy target: 12+ significant digits across the domain.
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
        value, rel_err = _asymptotic(nu, z)
        if rel_err <= 2e-13:
            return value

    phi = math.atan2(z.imag, z.real)
    if phi <= 0.25 * math.pi + 1e-14:
        return _trapezoid(nu, z)
    return _rotated(nu, z, phi)
