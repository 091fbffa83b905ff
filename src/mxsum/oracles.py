"""High-precision references for S and its parts, in mpmath only.

``explicit_sum`` (lam > 0) and ``lambda0_sum`` (lam = 0) give S with a
bound on what they omit, ``branch_cut`` H, ``laplace`` J, ``coefficient``
B_k and Bhat_k. Each works at ``dps`` digits (40), plus guard digits where
it sums or cancels; do arithmetic on the values inside ``mpmath.workdps``.
Nothing here comes from mxsum but its errors, so no reference shares code
with a route it checks; mxsum imports it lazily, only where a check runs.
"""

from __future__ import annotations

from collections import namedtuple

from mpmath import mp

from .errors import NonConvergenceError, PreconditionError

DPS = 40
_GUARD = 10
_MAX_TERMS = 500_000

# a reference value and a bound on the magnitude of what it omits
Bounded = namedtuple("Bounded", "value bound")


def _minus(sign: str) -> bool:
    if sign not in ("plus", "minus"):
        raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return sign == "minus"


def explicit_sum(mu, lam, a, sign, dps: int = DPS) -> Bounded:
    """sum_{n >= 0} (+-1)^n e^(-lam n) / (n^2 + a^2)^mu, mu >= 0, lam > 0.

    Once N^2 >= 2 |a|^2, |n^2 + a^2| >= n^2/2 for every n >= N, so the
    terms from N on sum to at most (N^2/2)^-mu e^(-lam N)/(1 - e^-lam);
    the power falls with N, so it is recomputed only when N doubles. The
    sum stops once that bound is below 10^-(dps-2) of it; NonConvergenceError
    after _MAX_TERMS terms.
    """

    minus = _minus(sign)
    if not (mu >= 0 and lam > 0):
        raise PreconditionError(f"explicit_sum needs mu >= 0 and lam > 0, got {mu}, {lam}")
    with mp.workdps(dps + _GUARD):
        mu, a2, q = mp.mpf(mu), mp.mpmathify(a) ** 2, mp.exp(-mp.mpf(lam))
        start = max(1, int(mp.ceil(mp.sqrt(2 * abs(a2)))))
        total, weight, refresh, goal = 0, mp.mpf(1), start, mp.mpf(10) ** (2 - dps)
        for n in range(_MAX_TERMS):
            term = weight * (n * n + a2) ** -mu
            total += -term if minus and n % 2 else term
            weight *= q
            if n + 1 == refresh:
                power, refresh = ((n + 1) ** 2 / mp.mpf(2)) ** -mu, 2 * n + 2
            if n + 1 >= start and power * weight / (1 - q) <= goal * abs(total):
                return Bounded(total, power * weight / (1 - q))
    raise NonConvergenceError(f"explicit sum did not converge at lam = {lam}")


def lambda0_sum(mu, a, sign, dps: int = DPS) -> Bounded:
    """sum_{n >= 0} (+-1)^n / (n^2 + a^2)^mu by its Bessel form

        1/(2 a^(2mu)) [+ sqrt(pi) Gamma(nu)/(2 Gamma(mu)) a^(-2nu)]
            + (2 pi^mu/Gamma(mu)) sum_x (x/a)^nu K_nu(2 pi x a),

    nu = mu - 1/2, over x = 1/2, 3/2, ... for sign - and over x = 1, 2, ...
    with the bracket for sign + (mu > 1/2). Since |K_nu(2 pi x a)| <=
    K_nu(y), y = 2 pi x Re a, and sqrt(y) e^y K_nu(y) is monotone with limit
    sqrt(pi/2), the terms from x on sum to at most |2 pi^mu/Gamma(mu)|
    (x/|a|)^nu max(K_nu(y), sqrt(pi/(2y)) e^-y)/(1 - r), with r =
    max(1, (1 + 1/x)^(mu-1)) e^(-2 pi Re a); the sum stops once that bound
    is below 10^-(dps-2) of it.
    """

    minus = _minus(sign)
    if not mu > (0 if minus else 0.5):
        raise PreconditionError(f"the lam = 0 sum with sign {sign} diverges at mu = {mu}")
    with mp.workdps(dps + _GUARD):
        mu, a = mp.mpf(mu), mp.mpmathify(a)
        nu, c, goal = mu - 0.5, 2 * mp.pi * mp.re(a), mp.mpf(10) ** (2 - dps)
        total, scale = 1 / (2 * a ** (2 * mu)), 2 * mp.pi**mu / mp.gamma(mu)
        if not minus:
            total += mp.sqrt(mp.pi) * mp.gamma(nu) / (2 * mp.gamma(mu)) * a ** (-2 * nu)
        x = mp.mpf(0.5 if minus else 1)
        for _ in range(_MAX_TERMS):
            term = scale * (x / a) ** nu * mp.besselk(nu, 2 * mp.pi * x * a)
            total, x = total + term, x + 1
            if abs(term) <= goal * abs(total):
                y, r = c * x, max(1, (1 + 1 / x) ** (mu - 1)) * mp.exp(-c)
                peak = max(mp.besselk(nu, y), mp.sqrt(mp.pi / (2 * y)) * mp.exp(-y))
                bound = abs(scale) * (x / abs(a)) ** nu * peak / (1 - r) if r < 1 else mp.inf
                if bound <= goal * abs(total):
                    return Bounded(total, bound)
    raise NonConvergenceError(f"Bessel sum did not converge at a = {a}")


def branch_cut(mu, lam, a, sign, dps: int = DPS):
    """H = a^(1-2mu) int_0^1 g(t) (1 - t^2)^-mu dt for 0 <= mu < 1, with
    g(t) = sin(lam a t)/sinh(pi a t), times e^(-pi a t) for sign +: one
    mp.quad of (g(t) - g(1)) (1 - t^2)^-mu, which vanishes at t = 1, plus
    g(1) B(1/2, 1 - mu)/2.
    """

    minus = _minus(sign)
    if not 0 <= mu < 1:
        raise PreconditionError(f"H needs 0 <= mu < 1, got {mu}")
    with mp.workdps(dps):
        mu, lam, a = mp.mpf(mu), mp.mpf(lam), mp.mpmathify(a)

        def g(t):
            value = mp.sin(lam * a * t) / mp.sinh(mp.pi * a * t)
            return value if minus else value * mp.exp(-mp.pi * a * t)

        g1 = g(mp.mpf(1))
        body = mp.quad(lambda t: (g(t) - g1) * (1 - t * t) ** -mu, [0, 1])
        return a ** (1 - 2 * mu) * (body + g1 * mp.beta(0.5, 1 - mu) / 2)


def laplace(mu, lam, a, dps: int = DPS):
    """J = int_0^inf e^(-lam t) (t^2 + a^2)^-mu dt, lam > 0, in closed form:

        sqrt(pi) Gamma(1-mu) a^(1-2mu) (H_nu(z) - Y_nu(z)) / (2 (z/2)^nu),

    z = lam a, nu = 1/2 - mu, H_nu the Struve function. H_nu - Y_nu cancels
    by about |Im z| + mu ln|z| nats, more near the poles mu = 1, 2, ... of
    Gamma(1 - mu) (refused): the guard digits double till _GUARD/2 are left.
    """

    if not lam > 0 or (mu >= 1 and mu == int(mu)):
        raise PreconditionError(f"J's closed form needs lam > 0 and mu off 1, 2, ...: {mu}, {lam}")
    for extra in (_GUARD << i for i in range(6)):
        with mp.workdps(dps + extra):
            nu, z = 0.5 - mp.mpf(mu), lam * mp.mpmathify(a)
            bessel = mp.bessely(nu, z)
            diff = mp.struveh(nu, z) - bessel
            lost = int(mp.log10(abs(bessel / diff))) + 1 if diff else extra
            if lost <= extra - _GUARD // 2:
                scale = mp.sqrt(mp.pi) * mp.gamma(0.5 + nu) * mp.mpmathify(a) ** (2 * nu)
                return scale * diff / (2 * (z / 2) ** nu)
    raise NonConvergenceError(f"J's closed form cancels beyond {extra} digits at a = {a}")


def coefficient(kind: str, k: int, lam, dps: int = DPS):
    """B_k = (-1)^k 2^(-2k-1) tanh^(2k)(x) or Bhat_k = 2^(-2k-1)
    (coth x - 1/x)^(2k) at x = lam/2 > 0. By the partial fractions of tanh
    and coth, the derivative (k >= 1) is (2k)! 2 Re[(i pi)^-s zeta(s, c -
    i x/pi)], s = 2k + 1, c = 1/2 (tanh) or 1 (coth). For B that real part
    cancels by up to about e^-lam, so it is taken with lam/2 more digits.
    """

    if kind not in ("B", "Bhat") or k < 0 or not lam > 0:
        raise PreconditionError(f"no coefficient {kind}_{k} at lam = {lam}")
    with mp.workdps(dps + _GUARD + int(lam / 2)):
        x = mp.mpf(lam) / 2
        if k == 0:
            value = mp.tanh(x) if kind == "B" else mp.coth(x) - 1 / x
        else:
            s = 2 * k + 1
            shift = mp.mpf(0.5 if kind == "B" else 1)
            value = mp.factorial(2 * k) * 2 * mp.re((mp.pi * 1j) ** -s * mp.zeta(s, shift - 1j * x / mp.pi))
        return (-1 if kind == "B" and k % 2 else 1) * value / mp.mpf(2) ** (2 * k + 1)
