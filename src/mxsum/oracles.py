"""High-precision references for S and its parts, in mpmath only.

``explicit_sum`` (lam > 0) and ``lambda0_sum`` (lam = 0) give S with a
bound on what they omit, ``branch_cut`` H, ``laplace`` J, ``coefficient``
B_k and Bhat_k. Each works at ``dps`` digits (40), plus guard digits where
it sums or cancels; do arithmetic on the values inside ``mpmath.workdps``.
Nothing here comes from mxsum but its errors, so no reference shares code
with a route it checks; mxsum imports it lazily, only where a check runs.

H comes from a tanh-sinh rule on [0, 1] written here (the scheme Bailey,
Jeyabalan and Li compare, Exp. Math. 14, 2005), with mp.quad's nodes, step
halving and stop, and mp.quad's 20 guard bits. A process builds each
level's nodes once per precision, and their weights times (1 - t^2)^-mu
once per (precision, mu), only to the deepest level reached. Where mp.quad
runs out of levels it returns its last estimate; the rule refuses with
NonConvergenceError.
"""

from __future__ import annotations

from collections import namedtuple

from mpmath import mp

from .errors import NonConvergenceError, PreconditionError

DPS = 40
_GUARD = 10
_MAX_TERMS = 500_000
_QUAD_BITS = 20
_LEVELS = 8
# tanh-sinh nodes by precision, and weights by (precision, mu), a list of
# levels each, to the deepest level reached
_NODES: dict = {}
_WEIGHTS: dict = {}

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


def _nodes(prec: int, level: int):
    """The new nodes of tanh-sinh level 1, 2, ... on [0, 1], as (t, 1 - t,
    weight) with t <= 1/2: t = q/(1 + q) and 1 - t = 1/(1 + q), q = e^(-pi
    sinh x), so 1 - t keeps its digits near t = 1; the weight is pi cosh(x)
    t (1 - t). Level 1 takes x = k/2, level l the odd multiples of 2^-l, and
    each ends before t reaches 2^-(prec+11), as mp.quad's do. Built once a
    process per prec, 20 bits past the working precision prec + 20.
    """

    levels = _NODES.setdefault(prec, [])
    while len(levels) < level:
        m = len(levels) + 1
        with mp.workprec(prec + 2 * _QUAD_BITS):
            h, end, half_pi = mp.ldexp(1, -m), mp.ldexp(1, -prec - 11), mp.pi / 2
            nodes = [(mp.mpf(0.5), mp.mpf(0.5), half_pi / 2)] if m == 1 else []
            e, grow = mp.exp(h), mp.exp(h if m == 1 else 2 * h)  # e = e^x
            while True:
                r = 1 / e
                q = mp.exp(half_pi * (r - e))
                u = 1 / (1 + q)
                t = q * u
                if t <= end:
                    break
                nodes.append((t, u, half_pi * (e + r) * t * u))
                e *= grow
        with mp.workprec(prec + _QUAD_BITS):
            levels.append([(+t, +u, +w) for t, u, w in nodes])
    return levels[level - 1]


def _weights(prec: int, mu, level: int):
    """Level ``level``'s nodes t and weights times (1 - t^2)^-mu, built once
    a process per (prec, mu) at the working precision prec + 20.
    """

    levels = _WEIGHTS.setdefault((prec, mu), [])
    while len(levels) < level:
        pairs = []
        for t, u, w in _nodes(prec, len(levels) + 1):
            pairs.append((t, w * (u * (1 + t)) ** -mu))
            if t != u:
                pairs.append((u, w * (t * (1 + u)) ** -mu))
        levels.append(pairs)
    return levels[level - 1]


def _tanh_sinh(f, mu, prec: int):
    """int_0^1 f(t) (1 - t^2)^-mu dt by the tanh-sinh rule, at the working
    precision prec + 20. Level l adds its new nodes to the sum at step
    2^-l; the levels stop once mp.quad's estimate of the error is below its
    goal eps/8 = 2^-(prec+2). NonConvergenceError after _LEVELS levels
    (mp.quad's cap from 35 to 71 digits).
    """

    goal, total, results = mp.ldexp(1, -prec - 2), 0, []
    for level in range(1, _LEVELS + 1):
        total += mp.fdot((w, f(t)) for t, w in _weights(prec, mu, level))
        results.append(total / 2**level)
        if level > 1 and _estimate(results, prec) <= goal:
            return results[-1]
    raise NonConvergenceError(f"H's tanh-sinh rule did not converge in {_LEVELS} levels")


def _estimate(results, prec: int):
    # mp.quad's error estimate of results[-1]: with D1 and D2 the log10 of
    # its distance from the last two results, 10^(D1^2/D2), as each level
    # doubles the digits, but at least 10^(2 D1) and at most 1
    if len(results) == 2:
        return abs(results[1] - results[0])
    if results[-1] == results[-2] == results[-3]:
        return 0
    d1, d2 = (mp.log(abs(results[-1] - r), 10) for r in (results[-2], results[-3]))
    return mp.mpf(10) ** int(min(0, max(d1**2 / d2, 2 * d1, -prec)))


def branch_cut(mu, lam, a, sign, dps: int = DPS):
    """H = a^(1-2mu) int_0^1 g(t) (1 - t^2)^-mu dt for 0 <= mu < 1, with
    g(t) = sin(lam a t)/sinh(pi a t), times e^(-pi a t) for sign +: the
    tanh-sinh rule of (g(t) - g(1)) (1 - t^2)^-mu, which vanishes at t = 1,
    plus g(1) B(1/2, 1 - mu)/2. Each node costs one sin and one sinh (sign
    -), or one sin and one exp or coth (sign +), as the cached weights hold
    (1 - t^2)^-mu. NonConvergenceError where the rule's levels run out.
    """

    minus = _minus(sign)
    if not 0 <= mu < 1:
        raise PreconditionError(f"H needs 0 <= mu < 1, got {mu}")
    with mp.workdps(dps):
        prec, mu, lam, a = mp.prec, mp.mpf(mu), mp.mpf(lam), mp.mpmathify(a)
        with mp.extraprec(_QUAD_BITS):
            la, pa = lam * a, mp.pi * a * (1 if minus else 2)

            def g(t):
                if minus:
                    return mp.sin(la * t) / mp.sinh(pa * t)
                # e^(-y/2)/sinh(y/2) = 2/(e^y - 1) = coth(y/2) - 1, each
                # taken where it does not cancel
                y = pa * t
                return mp.sin(la * t) * (2 / (mp.exp(y) - 1) if abs(y) > 1 else mp.coth(y / 2) - 1)

            g1 = g(1)
            body = _tanh_sinh(lambda t: g(t) - g1, mu, prec)
            value = a ** (1 - 2 * mu) * (body + g1 * mp.beta(0.5, 1 - mu) / 2)
        return +value


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
