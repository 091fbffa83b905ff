"""Evaluation routes for the exponentially weighted Mathieu-type sums

    S(a; lam, mu, sign) = sum_{n >= 0} (sign)^n exp(-lam n) / (n^2 + a^2)^mu

with sign = -1 (alternating) or +1, mu >= 0, lam >= 0 and Re a > 0.

Routes provided:

* ``direct_sum``: compensated brute-force summation, the reference
  against which every other route is tested;
* ``h_minus_quadrature`` / ``h_plus_quadrature``: the branch-cut
  contribution H, its defining integral over (0, 1) mapped onto
  (0, inf) by t = tanh(sigma u) and summed by the exp-exp rule;
* ``small_a_minus``: convergent expansion of H^- in powers of a^2
  (radius |a| = 1), with alternating-series acceleration close to the
  boundary;
* ``algebraic_minus`` / ``algebraic_plus``: large-a expansions in
  inverse powers of a with exact rational coefficient generation;
* ``bessel_tail_minus`` / ``bessel_tail_plus``: the exponentially small
  correction, a sum of modified Bessel functions K_nu of complex
  argument, which refuses when its term budget runs out;
* ``full_minus`` / ``full_plus``: 1/(2a^(2mu)) + H (+ J) + tail, an
  exact representation that must close against ``direct_sum``. For
  |Im a| >= 1, and below it where the tail's first argument is steep,
  the path of H is rotated onto the ray t = x/a, where a t is real: H
  and the dominant Bessel sum collapse into one non-oscillating
  integral over x in (0, inf), and only the subdominant Bessel sum is
  left, with no sector condition on a at |Im a| >= 1;
* ``j_mu_quadrature`` / ``j_mu_asymptotic``: the Laplace-type integral
  J that enters the plus case;
* ``olver_lambda0_minus`` / ``lambda0_plus``: lam = 0 reductions, whose
  Bessel sum is the full routes' subdominant sum at lam = 0;
* ``integer_mu_closed_form``: hypergeometric closed forms for
  mu = 1 .. 5;
* ``mu_step_check``: numerical verification of the recurrence
  S_{mu+1} = -(1/(2 mu a)) dS_mu/da.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import NonConvergenceError, PreconditionError
from .kernel import (
    accelerated_alternating_complex,
    csum,
    gamma_real,
    integrate,
    kv_complex,
    pfq_series,
    sum_terms,
)

# the coefficient generators are looked up on the package per call
# (``_pkg``), whose __getattr__ imports mxsum.coefficients on first use:
# routes that need none (the full, oracle, integer-mu and lam = 0 routes)
# do not load its exact arithmetic, and a generator replaced on the
# package (as by the benchmark's tracing) is the one that runs
_pkg = sys.modules[__package__]

_PI = math.pi
_SQRT_PI = math.sqrt(math.pi)
_EPS = sys.float_info.epsilon
# term budget of direct_sum at lam > 0
_MAX_TERMS = 5_000_000
# lam |a| above which J is integrated in t = u/lam (see j_mu_quadrature)
_J_RESCALE = 860.0
# the least rate lam s at which J's integrand decays in its variable u:
# its tail then ends near u = 5e7, inside the quadrature's nodes
# (t <= e^23), where a slower decay would make the scan refuse
_J_MIN_RATE = 1e-6
# 1 - mu below which H subtracts g(1) from its integrand (see _h_quadrature)
_H_SUBTRACT_Q = 1e-4
# |Im a| from which the full routes take the rotated path; below it the
# branch point x = a of the ray integrand comes within 1 of the real axis
_ROTATE_IM_A = 1.0
# below that, the rotated path is taken where the first Bessel argument
# X_0 = base pi a + i lam a of the straight path's tail turns steep,
# lam Re a > _ROTATE_STEEP Re X_0, unless |Im a| < _ROTATE_MIN_IM_A (see
# _rotated_path)
_ROTATE_STEEP = 50.0
_ROTATE_MIN_IM_A = 0.02
# the relative slack of _kv_bound over its own rounding and that of
# kv_complex (1.9e-15 at worst)
_KV_BOUND_SLACK = 1.0 + 1e-13


class _SeriesFields(NamedTuple):
    mu: float
    lam: float
    a: complex
    sign: str = "minus"


class SeriesParams(_SeriesFields):
    """Parameter bundle for one sum evaluation.

    mu: exponent on n^2 + a^2 (>= 0)
    lam: exponential decay rate (>= 0)
    a: shift parameter, must satisfy Re a > 0 (sector |arg a| < pi/2)
    sign: "minus" for the alternating sum, "plus" otherwise

    An immutable named tuple. Construction, ``_replace`` and unpickling
    all pass through ``__new__``, which coerces mu and lam to float and
    a to complex and checks the domain.
    """

    __slots__ = ()

    def __new__(cls, mu: float, lam: float, a: complex, sign: str = "minus"):
        mu, lam, a = float(mu), float(lam), complex(a)
        if sign not in ("plus", "minus"):
            raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
        if not (math.isfinite(mu) and mu >= 0.0):
            raise PreconditionError(f"mu must be finite and >= 0, got {mu}")
        if not (math.isfinite(lam) and lam >= 0.0):
            raise PreconditionError(f"lam must be finite and >= 0, got {lam}")
        if not (math.isfinite(a.real) and math.isfinite(a.imag) and a.real > 0.0):
            raise PreconditionError(
                f"a must lie in the open half-plane Re a > 0, got {a}"
            )
        return tuple.__new__(cls, (mu, lam, a, sign))

    @classmethod
    def _make(cls, iterable) -> SeriesParams:
        # the namedtuple _make, and so _replace, would skip the checks
        return cls(*iterable)

    @property
    def real_a(self) -> bool:
        return self.a.imag == 0.0

    @property
    def sign_factor(self) -> float:
        return -1.0 if self.sign == "minus" else 1.0


class Evaluation(NamedTuple):
    """One computed value plus diagnostics.

    value: the estimate (imaginary part ~0 for real a)
    method: route tag, e.g. "direct-sum"
    error_estimate: absolute error bound or heuristic (>= 0)
    truncation_index: last series index summed, where meaningful
    tail_terms_used: number of Bessel-tail terms, where meaningful
    notes: free-form diagnostics
    """

    value: complex
    method: str
    error_estimate: float
    truncation_index: int = 0
    tail_terms_used: int = 0
    notes: str = ""


class TailTerm(NamedTuple):
    """One term of the Bessel tail, in display form.

    k: term index
    X: Bessel argument (Re X > 0)
    kv: K_{1/2-mu}(X)
    theta: arg(X^{mu-1/2} K_{1/2-mu}(X)), in (-pi, pi]
    magnitude: |K_{1/2-mu}(X) / X^{1/2-mu}|
    """

    k: int
    X: complex
    kv: complex
    theta: float
    magnitude: float


def _apow(a: complex, p: float) -> complex | float:
    # principal a**p, staying on the float path for real a
    if a.imag == 0.0:
        return a.real**p
    return a**p


def _a2(p: SeriesParams) -> complex | float:
    # a^2, a float for real a: (x + a^2) ** -mu is then float pow for real
    # a, and for complex a the principal |w|^-mu e^(-i mu arg w) of complex **
    return p.a.real * p.a.real if p.real_a else p.a * p.a


def _shifted_square(p: SeriesParams):
    # n -> n^2 + a^2: for real a the float n*n + a^2; for complex a the
    # product (n + ia)(n - ia), as n*n + a^2 with a^2 rounded first
    # cancels near a = +-i n
    if p.real_a:
        a2 = p.a.real * p.a.real
        return lambda n: n * n + a2
    ia = 1j * p.a
    return lambda n: (n + ia) * (n - ia)


def _need_sign(p: SeriesParams, sign: str, route: str) -> None:
    # each _minus/_plus route evaluates the sum of its own sign only
    if p.sign != sign:
        raise PreconditionError(
            f"{route} evaluates the {sign} sum; got sign = {p.sign!r}"
        )


def _need_index(K, route: str) -> None:
    # an expansion truncated at K sums k = 0 .. K
    if not isinstance(K, int) or K < 0:
        raise PreconditionError(
            f"{route} needs an integer truncation index K >= 0, got K = {K!r}"
        )


# ---------------------------------------------------------------------------
# reference summation


def _lambda0_plus_direct(p: SeriesParams) -> Evaluation:
    """lam = 0, non-alternating: head sum + Euler-Maclaurin tail.

    Needs mu > 1/2 for convergence. The tail integral
    int_N^inf (t^2+a^2)^(-mu) dt is expanded binomially in (a/t)^2,
    valid because N is chosen > 3|a|.
    """

    mu, a2, base = p.mu, _a2(p), _shifted_square(p)
    n_head = max(50, math.ceil(3.0 * abs(p.a)) + 50)
    head_val = csum(base(n) ** (-mu) for n in range(n_head))

    nf = float(n_head)
    # tail integral: sum_j (-1)^j (mu)_j/j! a^(2j) N^(1-2mu-2j)/(2mu+2j-1)
    integral: complex = 0.0
    poch = 1.0 + 0.0j
    apow = 1.0 + 0.0j
    j = 0
    while True:
        term = poch * apow * nf ** (1.0 - 2.0 * mu - 2 * j) / (2.0 * mu + 2 * j - 1.0)
        integral += term
        if abs(term) < 1e-18 * max(abs(integral), 1e-300) or j > 200:
            break
        poch *= -(mu + j) / (j + 1.0)
        apow *= a2
        j += 1

    u = base(nf)
    f_n = u ** (-mu)
    fp_n = -2.0 * mu * nf * u ** (-mu - 1.0)
    fppp_n = 12.0 * mu * (mu + 1.0) * nf * u ** (-mu - 2.0) - 8.0 * mu * (
        mu + 1.0
    ) * (mu + 2.0) * nf**3 * u ** (-mu - 3.0)
    value = head_val + integral + 0.5 * f_n - fp_n / 12.0 + fppp_n / 720.0
    # next Euler-Maclaurin correction is ~ f^(5)(N)/30240
    err = abs(mu**5) * nf ** (-2.0 * mu - 5.0) * 40.0
    return Evaluation(
        complex(value),
        "direct-sum",
        err,
        truncation_index=n_head - 1,
        notes="lam = 0 head sum with Euler-Maclaurin tail",
    )


def direct_sum(p: SeriesParams, tol: float = 1e-15) -> Evaluation:
    """Brute-force reference value of the sum.

    Each term takes (n^2 + a^2) ** -mu on the principal branch: float
    pow for real a, complex ** of (n + ia)(n - ia) for complex a, which
    does not cancel near a = +-i n. For lam > 0 this is plain
    compensated summation, stopped when |term| <= tol * |partial sum|
    twice in a row; with sign + and lam < ln 2 the omitted tail is up to
    e^-lam/(1 - e^-lam) times that term, and the stop is tightened by
    the same factor (NonConvergenceError after 5 million terms, which
    at mu = 0 and tol = 1e-15 means lam below about 7e-6). The estimate
    is that tail bound, floored at (1 + mu) eps * sum |term|. For
    lam = 0 the alternating case is accelerated (30-stage scheme; the
    estimate is its order-to-order delta, with the same floor) and
    the non-alternating case uses a head sum with an Euler-Maclaurin
    tail (mu > 1/2 required; the series diverges for mu <= 1/2).
    """

    mu, lam, base = p.mu, p.lam, _shifted_square(p)
    if lam > 0.0:
        s = p.sign_factor

        def term(n: int) -> complex | float:
            return s**n * math.exp(-lam * n) * base(n) ** (-mu)

        # the omitted tail is at most geo times the last term; with sign +
        # it does not alternate and comes near that bound, so below
        # lam = ln 2 (geo > 1) the stop is geo times tighter than tol
        geo = math.exp(-lam) / (1.0 - math.exp(-lam))
        stop = tol / geo if s > 0.0 and geo > 1.0 else tol
        res = sum_terms(term, stop, _MAX_TERMS)
        # each term's rounding error is about eps * |term|, and the error
        # of a^2 is amplified by mu in the power (6.2 eps |term| at
        # mu = 6.5 in a seeded sweep), so the floor grows like 1 + mu
        return Evaluation(
            res.value,
            "direct-sum",
            max(res.last_term_magnitude * geo, (1.0 + mu) * _EPS * res.abs_sum),
            truncation_index=res.terms_used - 1,
        )

    if p.sign == "minus":
        if mu <= 0.0:
            raise PreconditionError(
                "lam = 0 alternating sum needs mu > 0 (the terms must decay)"
            )
        res = accelerated_alternating_complex(
            lambda n: base(n) ** (-mu), tol, stages=30
        )
        if not res.converged:
            raise NonConvergenceError(
                "alternating acceleration did not settle at lam = 0 "
                f"(order-to-order delta {res.last_term_magnitude:.3e})"
            )
        # the order-to-order delta alone can be 0; each term carries the
        # same (1 + mu) eps |term| rounding as at lam > 0
        return Evaluation(
            res.value,
            "direct-sum",
            max(res.last_term_magnitude, (1.0 + mu) * _EPS * res.abs_sum),
            truncation_index=res.terms_used - 1,
            notes="lam = 0 alternating acceleration",
        )

    if mu <= 0.5:
        raise PreconditionError(
            "sum_{n} 1/(n^2+a^2)^mu diverges for lam = 0 and mu <= 1/2"
        )
    return _lambda0_plus_direct(p)


# ---------------------------------------------------------------------------
# branch-cut contribution H


def _h_quadrature(p: SeriesParams, tol: float, sign: str) -> Evaluation:
    _need_sign(p, sign, f"h_{sign}_quadrature")
    tag, with_exp = f"h-{sign}-quadrature", sign == "plus"
    if not 0.0 <= p.mu < 1.0:
        raise PreconditionError(
            f"H integral needs 0 <= mu < 1 for integrability, got mu = {p.mu}"
        )
    if p.lam == 0.0:
        return Evaluation(0j, tag, 0.0, notes="integrand vanishes when lam = 0")

    # real a stays on the float path of the same expression
    m, a = (math, p.a.real) if p.real_a else (cmath, p.a)
    sin, sinh, cexp, isfinite = m.sin, m.sinh, m.exp, cmath.isfinite
    exp, expm1 = math.exp, math.expm1
    la, pa, npa = p.lam * a, _PI * a, -_PI * a

    # t = tanh(sigma u) gives (1 - t^2)^-mu dt = sigma sech(sigma u)^(2q) du
    # with q = 1 - mu: no singular factor is left. With e = exp(-2 sigma u),
    # t = (1 - e)/(1 + e) and sech^2 = 4e/(1 + e)^2. For large |a|, sigma
    # puts the peak of the integrand near t = 1/(pi |a|) at u = 1/(4 pi),
    # beside the centre of the exp-exp rule at 0.046
    sigma = min(0.5, 4.0 / abs(p.a))
    m2s, q, g0, ln4 = -2.0 * sigma, 1.0 - p.mu, p.lam / _PI, math.log(4.0)

    # Near mu = 1, sech^(2q) decays at the slow rate 2 q sigma, and the
    # plateau g(1) sech(sigma u)^(2q) would run past the last node, or be
    # cut where its nodes look negligible though their sum is not. Below
    # q = _H_SUBTRACT_Q the integrand takes g(t) - g(1), which falls like
    # e^(-2 sigma u) whatever q, and g(1) int_0^1 (1 - t^2)^-mu dt
    # = g(1) B(1/2, q)/2 is added in closed form; above it the plain
    # integrand decays fast enough and needs neither
    g1 = 0.0
    if q < _H_SUBTRACT_Q:
        try:
            sin_la = sin(la)
        except OverflowError as exc:
            # complex sin overflows once |Im(lam a)| > 710, as the
            # integrand's does near t = 1, where the rule refuses too
            raise NonConvergenceError(
                f"g(1) = sin(lam a)/sinh(pi a) overflowed at lam a = {la}"
            ) from exc
        try:
            g1 = sin_la / sinh(pa)
        except OverflowError:
            g1 = 2.0 * sin_la * cexp(npa)
        if with_exp:
            g1 *= cexp(npa)

    def f(u: float) -> complex | float:
        x = m2s * u
        if x < -600.0:  # e nears underflow: t = 1, sech^2 = 4e, from logs
            t, w = 1.0, exp(q * (ln4 + x))
        else:
            e = exp(x)
            d = 1.0 + e
            t = (-expm1(x) if x > -0.7 else 1.0 - e) / d
            w = (4.0 * e / (d * d)) ** q
            if t < 1e-150:  # sin and sinh would round to 0/0
                return (g0 - g1) * w
        try:
            v = sin(la * t) / sinh(pa * t)
        except OverflowError:
            # sinh overflows once pi Re(a t) > 710; there
            # 2 sin(lam a t) e^(-pi a t)/(1 - e^(-2 pi a t)) has a
            # denominator that rounds to 1
            try:
                v = 2.0 * sin(la * t) * cexp(npa * t)
                if not isfinite(v):
                    raise OverflowError
            except OverflowError:
                # complex sin overflows too, or 2 sin does, once
                # |Im(lam a t)| nears 710; inside the tail's sector
                # pi Re a > lam |Im a| both of e^(+-i lam a t - pi a t) decay
                z, x = 1j * la * t, npa * t
                v = -1j * (cexp(x + z) - cexp(x - z))
        if with_exp:
            v *= cexp(npa * t)
        return (v - g1) * w

    res = integrate(f, tol)
    pref = sigma * _apow(p.a, 1.0 - 2.0 * p.mu)
    value = complex(pref * res.value)
    estimate = abs(pref) * res.last_term_magnitude
    if g1:
        cut = g1 * _apow(p.a, 1.0 - 2.0 * p.mu) * _half_beta(q)
        value += cut
        # g(1) carries the rounding of lam a and pi a through sin, sinh
        # and exp: relative errors of |lam a cot(lam a)| and |pi a| eps
        cond = abs(la / m.tan(la)) + abs(pa) * (2.0 if with_exp else 1.0) + 4.0
        estimate += cond * _EPS * abs(cut)
    return Evaluation(
        value, tag, estimate, notes=f"{res.terms_used} integrand evaluations"
    )


def _half_beta(q: float) -> float:
    """int_0^1 (1 - t^2)^(q-1) dt = B(1/2, q)/2 for 0 < q < 1."""

    return 0.5 * _SQRT_PI * gamma_real(q) / gamma_real(q + 0.5)


def h_minus_quadrature(p: SeriesParams, tol: float = 1e-13) -> Evaluation:
    """H contribution of the alternating sum.

    H = a^(1-2 mu) * int_0^1 sin(lam a t)/sinh(pi a t) (1-t^2)^(-mu) dt.
    With t = tanh(sigma u), sigma = min(1/2, 4/|a|), this is
    a^(1-2 mu) sigma int_0^inf g(tanh sigma u) sech(sigma u)^(2-2mu) du,
    g = sin(lam a t)/sinh(pi a t), evaluated by exp-exp quadrature: the
    endpoint singularity becomes a decay like exp(-2 (1-mu) sigma u).
    Where sinh(pi a t) overflows (pi Re(a t) > 710), g is formed as
    2 sin(lam a t) e^(-pi a t). For 1 - mu < 1e-4 that decay is too slow
    for the nodes, so the integrand takes g(t) - g(1), which decays like
    exp(-2 sigma u), and g(1) B(1/2, 1-mu)/2 is added in closed form. The
    estimate is the last level-to-level delta, floored at eps times the
    absolute mass of the quadrature sum (and of the closed-form part,
    times the condition of g(1)). Requires 0 <= mu < 1.
    """

    return _h_quadrature(p, tol, "minus")


def h_plus_quadrature(p: SeriesParams, tol: float = 1e-13) -> Evaluation:
    """H contribution of the non-alternating sum.

    Same integrand as the minus case times an extra exp(-pi a t) factor.
    """

    return _h_quadrature(p, tol, "plus")


def small_a_minus(p: SeriesParams) -> Evaluation:
    """Convergent expansion of H^- in powers of a^2 (radius |a| = 1).

    H^- = (lam a^(1-2mu) / 2pi) Gamma(1-mu)
          * sum_k (-1)^k A_k Gamma(k+1/2)/Gamma(k+3/2-mu) a^(2k).

    Plain summation for |a| <= 0.7 up to a term below 1e-17 of the sum
    (at large lam the terms grow for a few k before they fall), over the
    A_k it needs: about (ln 1e17 + lam)/ln(1/|a|^2) of them. Closer to
    the boundary a 36-stage alternating-series acceleration converges
    even at |a| = 1, where the plain series is hopelessly slow. The
    acceleration degrades as |arg a| grows; when it cannot settle it
    raises, and the quadrature route remains available. |a| beyond the
    radius is rejected.
    """

    _need_sign(p, "minus", "small_a_minus")
    if not p.mu < 1.0:
        raise PreconditionError(f"small-a expansion needs mu < 1, got {p.mu}")
    if p.lam == 0.0:
        return Evaluation(0j, "small-a-minus", 0.0, notes="prefactor lam = 0")
    mod_a = abs(p.a)
    if mod_a > 1.0 + 1e-12:
        raise PreconditionError(
            f"|a| = {mod_a:.6g} is outside the convergence disc |a| <= 1"
        )

    mu, lam = p.mu, p.lam
    g = gamma_real(0.5) / gamma_real(1.5 - mu)  # Gamma(k+1/2)/Gamma(k+3/2-mu) at k=0
    pref = (lam / (2.0 * _PI)) * gamma_real(1.0 - mu) * _apow(p.a, 1.0 - 2.0 * mu)
    a2 = _a2(p)
    # rounding floor per unit of sum |term|: a few roundings in the Gamma
    # ratios and products, and the rounding of log a, amplified by the
    # exponent, in the power
    rnd = (4.0 + abs((1.0 - 2.0 * mu) * cmath.log(p.a))) * _EPS

    if mod_a <= 0.7:
        # in a seeded probe of 9360 points (mu up to 1 - 1e-6, lam 1e-3
        # to 25, |a| 0.01 to 0.7) the stop came at most 4 past this estimate
        stop = (math.log(1e17) + lam) / (-2.0 * math.log(mod_a))
        K = 60 if stop > 54.0 else math.ceil(stop) + 6
        # the rounded coefficients are cached
        coeff = _pkg.a_coefficients(lam, K).values
        acc: complex = 0.0
        apow: complex = 1.0
        abs_sum = 0.0
        for k in range(K + 1):
            t = (-1.0) ** k * coeff[k] * g * apow
            acc += t
            last_mag = abs(t)
            abs_sum += last_mag
            if last_mag <= 1e-17 * max(abs(acc), 1e-300) and k >= 2:
                break
            g *= (k + 0.5) / (k + 1.5 - mu)
            apow *= a2
        tail_bound = last_mag * mod_a**2 / max(1.0 - mod_a**2, 1e-3)
        return Evaluation(
            complex(pref * acc),
            "small-a-minus",
            abs(pref) * max(tail_bound, rnd * abs_sum),
            truncation_index=k,
        )

    # near the boundary: accelerate sum (-1)^k c_k over k < stages + 4
    stages = 36
    coeff = _pkg.a_coefficients(lam, stages + 3).values
    gs = [g]
    for k in range(stages + 3):
        g *= (k + 0.5) / (k + 1.5 - mu)
        gs.append(g)

    def magnitude(k: int) -> complex:
        return coeff[k] * gs[k] * a2**k

    res = accelerated_alternating_complex(magnitude, 1e-15, stages=stages)
    scale = max(abs(res.value), 1e-300)
    if res.last_term_magnitude > 1e-9 * scale:
        raise NonConvergenceError(
            "series acceleration did not settle near the convergence "
            f"boundary (|a| = {mod_a:.6g}, |arg a| = {abs(cmath.phase(p.a)):.3f}, "
            f"delta = {res.last_term_magnitude:.3e}); "
            "the quadrature route has no such restriction"
        )
    return Evaluation(
        complex(pref * res.value),
        "small-a-minus",
        abs(pref) * max(res.last_term_magnitude, rnd * res.abs_sum),
        truncation_index=res.terms_used - 1,
        notes="accelerated near |a| = 1",
    )


# ---------------------------------------------------------------------------
# large-a algebraic expansions


def _inverse_a2_sum(
    p: SeriesParams, coeffs: list[float], K: int, alternating: bool
) -> tuple[complex, float, int]:
    """Sum of 1/2, c_0 f_0, .., c_K f_K, an expansion in 1/a^2 with
    f_k = (mu)_k/(k! a^(2k)) and the sign (-1)^k if ``alternating``.

    The real and the imaginary parts of the terms are each summed with
    one rounding (fsum), as ``csum`` sums them. Also returns
    |c_(K+1) f_(K+1)|, the first omitted term, and the first k >= 1
    whose term outgrows the one before it (0 if none does).
    """

    inv_a2 = 1.0 / (p.a * p.a)
    re, im = [0.5], [0.0]
    factor: complex = 1.0
    grow_at, last = 0, 0.0
    for k in range(K + 1):
        t = factor * coeffs[k]
        if alternating and k % 2:
            t = -t
        re.append(t.real)
        im.append(t.imag)
        size = abs(t)
        if k >= 1 and size > last and grow_at == 0:
            grow_at = k
        last = size
        factor *= (p.mu + k) * inv_a2 / (k + 1.0)
    total = complex(math.fsum(re), math.fsum(im))
    return total, abs(factor * coeffs[K + 1]), grow_at


def algebraic_minus(p: SeriesParams, K: int = 8) -> Evaluation:
    """Large-a expansion 1/(2a^(2mu)) + a^(-2mu) sum (mu)_k B_k/(k! a^(2k)).

    Sums k = 0 .. K inclusive. Valid for every mu >= 0 (at mu = 0 the
    Pochhammer factor truncates the series and the result is exact).
    The error estimate is the first omitted term; the notes flag the
    index where terms start growing, if they do within the range.
    """

    _need_sign(p, "minus", "algebraic_minus")
    _need_index(K, "algebraic_minus")
    if p.lam <= 0.0:
        raise PreconditionError("algebraic expansion needs lam > 0")
    bvals = _pkg.b_coefficients(p.lam, K + 1).values
    total, omitted, grow_at = _inverse_a2_sum(p, bvals, K, False)
    pref = _apow(p.a, -2.0 * p.mu)
    notes = f"terms grow from k = {grow_at}" if grow_at else ""
    return Evaluation(
        complex(pref * total),
        "algebraic-minus",
        abs(pref) * omitted,
        truncation_index=K,
        notes=notes,
    )


def j_mu_asymptotic(p: SeriesParams, K: int = 5) -> Evaluation:
    """Large-a expansion of J = int_0^inf exp(-lam t)/(t^2+a^2)^mu dt.

    J ~ (a^(1-2mu)/2) sum_k (-1)^k (1/2)_k (mu)_k / (lam a / 2)^(2k+1),
    summed k = 0 .. K inclusive. Exactly 1/lam at mu = 0.
    """

    _need_index(K, "j_mu_asymptotic")
    if p.lam <= 0.0:
        raise PreconditionError("asymptotic J needs lam > 0")
    mu = p.mu
    half_la = 0.5 * p.lam * p.a
    inv2 = 1.0 / (half_la * half_la)

    # the real and the imaginary parts summed with one rounding each, as
    # csum sums them, in the pass that makes the terms
    re: list[float] = []
    im: list[float] = []
    t: complex = 1.0 / half_la
    grow_at, last = 0, 0.0
    for k in range(K + 1):
        re.append(t.real)
        im.append(t.imag)
        size = abs(t)
        if k >= 1 and size > last and grow_at == 0:
            grow_at = k
        last = size
        t *= -(0.5 + k) * (mu + k) * inv2
    omitted = abs(t)

    pref = 0.5 * _apow(p.a, 1.0 - 2.0 * mu)
    notes = f"terms grow from k = {grow_at}" if grow_at else ""
    return Evaluation(
        complex(pref * complex(math.fsum(re), math.fsum(im))),
        "j-mu-asymptotic",
        abs(pref) * omitted,
        truncation_index=K,
        notes=notes,
    )


def algebraic_plus(p: SeriesParams, K: int = 5) -> Evaluation:
    """Large-a expansion of the non-alternating sum.

    1/(2a^(2mu)) + J_K + a^(-2mu) sum_k (-1)^k (mu)_k Bhat_k/(k! a^(2k))
    with the same truncation index K in both series.
    """

    _need_sign(p, "plus", "algebraic_plus")
    _need_index(K, "algebraic_plus")
    if p.lam <= 0.0:
        raise PreconditionError("algebraic expansion needs lam > 0")
    bhat = _pkg.bhat_coefficients(p.lam, K + 1).values
    total, omitted, _ = _inverse_a2_sum(p, bhat, K, True)
    jpart = j_mu_asymptotic(p, K)
    pref = _apow(p.a, -2.0 * p.mu)
    return Evaluation(
        complex(pref * total + jpart.value),
        "algebraic-plus",
        abs(pref) * omitted + jpart.error_estimate,
        truncation_index=K,
        notes=jpart.notes,
    )


# ---------------------------------------------------------------------------
# Bessel tails


def _kv_sums(
    p: SeriesParams, base: float, offsets: tuple[complex, ...], pairs: list | None = None
) -> tuple[list[complex], int, float, float]:
    """sum_k (2/Z_k)^nu K_nu(Z_k), nu = 1/2 - mu, for each offset, over
    Z_k = (2k + base) pi a + offset, all in one loop.

    The loop stops at whichever comes first: a term of the first sum
    below 1e-18 of its plain running sum, or _kv_bound's bound on the
    first sum's next term below that level, which saves the K_nu call
    that would only confirm the stop. NonConvergenceError past
    _tail_budget(p). Returns the sums, each compensated in its real and
    imaginary parts, the number of terms, a bound on the omitted terms
    of every sum together, and the mass sum |Z_k| |term| over every sum.

    The omitted terms: Re Z_k grows by 2 pi Re a a term and |Z_k| grows
    too, so for |nu| <= 1/2 (mu <= 1) the bound falls at least by
    r = e^(-2 pi Re a) a term, and the bound on each sum's first omitted
    term over (1 - r) bounds all of them. At |nu| > 1/2, where the
    lam = 0 routes take mu > 1, its power |Z|^(mu-1) rises, by a factor
    that tends to 1 as |Z| grows, and the same sum is an estimate.

    The mass sets the rounding floor: K_nu(Z) falls like e^-Z, so the
    rounding of Z_k, about eps |Z_k|, becomes a relative error of its
    term. ``pairs``, if given, receives the (Z_k, K_nu(Z_k)) of the
    first sum.
    """

    nu, a = 0.5 - p.mu, p.a
    # per sum: real total, real carry, imaginary total, imaginary carry;
    # thousands of terms at small Re a: a plain sum's rounding would
    # outgrow the eps |Z_k| |term| floor, the compensated one does not.
    # The totals alone are the plain running sum
    accs = [[0.0, 0.0, 0.0, 0.0] for _ in offsets]
    first = accs[0]
    mass = 0.0
    last_mag = 0.0
    budget = _tail_budget(p)
    ma = base * _PI * a
    for k in range(budget):
        for off, acc in zip(offsets, accs):
            Z = ma + off
            kv = kv_complex(nu, Z)
            w = (2.0 / Z) ** nu * kv
            mass += abs(Z) * abs(w)
            # TwoSum: the exact rounding error of each addition to the carry
            re_total, re_carry, im_total, im_carry = acc
            x = w.real
            total = re_total + x
            b = total - re_total
            re_carry += (re_total - (total - b)) + (x - b)
            y = w.imag
            im = im_total + y
            b = im - im_total
            im_carry += (im_total - (im - b)) + (y - b)
            acc[:] = total, re_carry, im, im_carry
            if acc is first:
                last_mag = abs(w)
                if pairs is not None:
                    pairs.append((Z, kv))
        stop = 1e-18 * max(abs(complex(first[0], first[2])), 1e-300)
        ma = (2 * (k + 1) + base) * _PI * a  # of the next term
        if last_mag <= stop or _kv_bound(nu, ma + offsets[0]) <= stop:
            sums = [complex(r + rc, i + ic) for r, rc, i, ic in accs]
            omitted = sum(_kv_bound(nu, ma + off) for off in offsets)
            return sums, k + 1, omitted / -math.expm1(-2.0 * _PI * a.real), mass
    raise NonConvergenceError(
        f"Bessel sum did not reach its 1e-18 stop within its budget of "
        f"{budget} terms (last term {last_mag:.3e} of sum "
        f"{abs(complex(first[0], first[2])):.3e})"
    )


def _kv_bound(nu: float, Z: complex) -> float:
    """A bound on |(2/Z)^nu K_nu(Z)| for real nu and Re Z > 0.

    The Hankel expansion stopped after its first term, with Olver's
    error bound (DLMF 10.40.10-11, l = 1; |ph Z| <= pi/2):

        |K_nu(Z)| <= sqrt(pi/(2|Z|)) e^(-Re Z) (1 + b e^b),
        b = |nu^2 - 1/4|/|Z|,

    and |(2/Z)^nu| = (2/|Z|)^nu. It holds at every |Z|, and is within
    1.5x of the term from |Z| = 1 at |nu| <= 1/2. The factor
    _KV_BOUND_SLACK covers the rounding of the bound and of K_nu itself.
    Past b = 700, where e^b nears overflow, the bound is inf: there
    |Z| < 0.014 |nu^2 - 1/4|, and no sum stops (its terms still rise or
    stay level).
    """

    r = abs(Z)
    b = abs(nu * nu - 0.25) / r
    if b > 700.0:
        return math.inf
    return (
        (2.0 / r) ** nu
        * math.sqrt(_PI / (2.0 * r))
        * math.exp(-Z.real)
        * (1.0 + b * math.exp(b))
        * _KV_BOUND_SLACK
    )


def _tail_budget(p: SeriesParams) -> int:
    """Terms every Bessel sum is allowed.

    A term is about |Z_k|^(mu-1) e^(-Re Z_k) once |Z_k| passes |nu|, and
    Re Z_k grows by 2 pi Re a a term: the stop at 1e-18 of the sum (a
    term, or the bound on the next, below it; see _kv_sums) takes about
    ln(1e18)/(2 pi Re a) terms, 3 mu more in the exponent for the power
    and the plateau before |nu|, and at steep a, where |Z_k| is |a|/Re a
    times Re Z_k, twice (mu - 1) ln(|a|/Re a) more; 30 more terms cover
    the slower start at small |Z_k|. In seeded probes of 1600 sums
    (mu 0.05 to 10, Re a 1e-3 to 5, |Im a| up to 30, lam = 0 and lam > 0,
    both bases) every sum below the cap stopped within 0.93 of this; the
    stop on the bound of the next term saves at most one term of that.
    Capped at 10^4 + 30 (half a second of K_nu calls), so Re a below
    about 6.6e-4 refuses instead of running for seconds.
    """

    steep = 2.0 * (p.mu - 1.0) * math.log(abs(p.a) / p.a.real) if p.mu > 1.0 else 0.0
    exponent = math.log(1e18) + 3.0 * p.mu + steep
    return 30 + math.ceil(min(exponent / (2.0 * _PI * p.a.real), 1e4))


def _bessel_tail(
    p: SeriesParams, sign: str, pairs: list | None = None
) -> Evaluation:
    """The Bessel tail of the sum of ``sign``.

    The arguments run over X_k = (2k+1) pi a + i lam a (minus case) or
    X_k = (2k+2) pi a + i lam a (plus case). The tail is

        I2 + I3,  I2 = i exp(-i pi mu) a^(1-2mu) Gamma(1-mu)/sqrt(pi)
                       * sum_k (2/X_k)^(1/2-mu) K_{1/2-mu}(X_k)

    with I3 the reflected sum over conj-type arguments
    Y_k = (2k+?) pi a - i lam a; for real a, I3 = conj(I2) exactly and
    2 Re I2 is returned. Gamma(1-mu) keeps the prefactor regular for
    all 0 < mu < 1 (no 1/sin(pi mu)). The estimate is |prefactor| times
    the bound on the omitted terms of both sums, floored at
    eps |prefactor| sum |X_k| |term| (see _kv_sums).
    ``pairs`` collects (X_k, K_nu(X_k)) as in _kv_sums.
    """

    _need_sign(p, sign, f"bessel_tail_{sign}")
    mu, lam, a = p.mu, p.lam, p.a
    if not 0.0 < mu < 1.0:
        raise PreconditionError(
            f"Bessel tail is defined for 0 < mu < 1 only, got mu = {mu}"
        )
    base = 2.0 if sign == "plus" else 1.0
    # every argument needs Re X_k > 0; k = 0 is the binding case
    if base * _PI * a.real - lam * abs(a.imag) <= 0.0:
        raise PreconditionError(
            "tail arguments leave the right half-plane: need "
            f"{base:g}*pi*Re a > lam*|Im a| (a = {a}, lam = {lam})"
        )

    gpref = gamma_real(1.0 - mu) / _SQRT_PI
    rot = 1j * cmath.exp(-1j * _PI * mu)
    apw = _apow(a, 1.0 - 2.0 * mu)

    ila = 1j * lam * a
    offsets = (ila,) if p.real_a else (ila, -ila)
    sums, n, omitted, mass = _kv_sums(p, base, offsets, pairs)

    i2 = rot * apw * gpref * sums[0]
    if p.real_a:
        value: complex = complex(2.0 * i2.real)
        # I3 = conj(I2) carries the same terms
        omitted *= 2.0
        mass *= 2.0
    else:
        i3 = -1j * cmath.exp(1j * _PI * mu) * apw * gpref * sums[1]
        value = i2 + i3
    scale = abs(apw) * gpref
    err = scale * max(omitted, _EPS * mass)
    return Evaluation(value, f"bessel-tail-{sign}", err, tail_terms_used=n)


def _displayed_tail(p: SeriesParams, sign: str) -> tuple[Evaluation, list[TailTerm]]:
    pairs: list[tuple[complex, complex]] = []
    tail = _bessel_tail(p, sign, pairs)
    terms = []
    for k, (X, kv) in enumerate(pairs):
        disp = kv * X ** (p.mu - 0.5)
        terms.append(TailTerm(k, X, kv, cmath.phase(disp), abs(disp)))
    return tail, terms


def bessel_tail_minus(p: SeriesParams) -> tuple[Evaluation, list[TailTerm]]:
    """Exponentially small tail of the alternating sum.

    Arguments X_k = (2k+1) pi a + i lam a; leading magnitude
    O(a^(1-2mu) exp(-pi a)). Terms are added until one, or a proven
    bound on the next (DLMF 10.40.10-11), falls below 1e-18 of the sum,
    within the budget of _tail_budget (NonConvergenceError past it, at
    Re a below about 6.6e-4). Also returns the per-term display data
    (theta_k, magnitudes) of the terms summed.
    """

    return _displayed_tail(p, "minus")


def bessel_tail_plus(p: SeriesParams) -> tuple[Evaluation, list[TailTerm]]:
    """Exponentially small tail of the non-alternating sum.

    Arguments X_k = (2k+2) pi a + i lam a, so the leading magnitude
    O(a^(1-2mu) exp(-2 pi a)) is smaller than in the minus case. Stops
    and refuses as bessel_tail_minus.
    """

    return _displayed_tail(p, "plus")


def tail_display_form(mu: float, a: float, terms: list[TailTerm]) -> float:
    """Tail value reconstructed from display data (real a > 0 only).

    T = 2^(3/2-mu) sqrt(pi) a^(1-2mu)/Gamma(mu)
        * sum_k magnitude_k * sin(pi mu - theta_k)/sin(pi mu).

    Mathematically identical to the Gamma(1-mu) form used internally;
    kept as a cross-check because the removable 1/sin(pi mu) makes it
    the less stable of the two near integer mu.
    """

    if not 0.0 < mu < 1.0:
        raise PreconditionError("display form needs 0 < mu < 1")
    if isinstance(a, complex) or not a > 0.0:
        raise PreconditionError(f"display form needs a real a > 0, got a = {a!r}")
    s = math.fsum(
        t.magnitude * math.sin(_PI * mu - t.theta) for t in terms
    )
    return (
        2.0 ** (1.5 - mu)
        * _SQRT_PI
        * a ** (1.0 - 2.0 * mu)
        / gamma_real(mu)
        * s
        / math.sin(_PI * mu)
    )


# ---------------------------------------------------------------------------
# full representations


def _check_full_mu(p: SeriesParams, at_zero: str) -> None:
    if p.mu == 0.0:
        raise PreconditionError(f"full representation needs 0 < mu < 1; {at_zero}")
    if not p.mu < 1.0:
        raise PreconditionError(
            f"full representation needs 0 < mu < 1 (Bessel-tail validity); "
            f"got mu = {p.mu}. Use direct_sum for mu >= 1"
        )


def _full(
    p: SeriesParams, tag: str, parts: list[Evaluation], notes: str = ""
) -> Evaluation:
    """1/(2a^(2mu)) + the parts, the Bessel tail last.

    The real and the imaginary parts are each summed with one rounding
    (fsum). The estimate is the sum of the parts' estimates, floored at
    the rounding level of the sum.
    """

    values = [0.5 * _apow(p.a, -2.0 * p.mu)] + [e.value for e in parts]
    value = csum(values)
    # each part carries about one rounding error of its own size, so a
    # sum of parts is no better than eps * sum |part|; fsum keeps that
    # floor at or above eps |value| for real parts
    floor = _EPS * math.fsum(abs(v) for v in values)
    return Evaluation(
        complex(value),
        tag,
        max(sum(e.error_estimate for e in parts), floor),
        tail_terms_used=parts[-1].tail_terms_used,
        notes=notes,
    )


def _ray_quadrature(p: SeriesParams) -> Evaluation:
    """int_0^inf g(x) (a^2 - x^2)^-mu dx for Im a > 0, by exp-exp.

    g(x) = sin(lam x)/sinh(pi x), times exp(-pi x) for sign +: H's
    integrand on the ray t = x/a, where a t is real. (a^2 - x^2)^-mu
    stays in the upper half-plane, so its principal value is
    a^-2mu (1 - x^2/a^2)^-mu. For x > 1/2, g is formed as
    2 sin(lam x) e^(-pi x)/(1 - e^(-2 pi x)), which cannot overflow.

    The rule runs on x = c u with c = max(1, 4 min(1, pi/lam)). At
    lam <= pi, c = 4 puts the decay length 1/pi of sinh at u = 1/(4 pi),
    where H's sigma puts H's peak; above pi the scale follows the first
    zero pi/lam of sin(lam x), and it never falls below 1, so the
    nodes still reach the oscillations at large lam.
    """

    if p.lam == 0.0:
        return Evaluation(0j, "ray", 0.0, notes="integrand vanishes when lam = 0")
    lam, a2, nmu, g0 = p.lam, p.a * p.a, -p.mu, p.lam / _PI
    sin, sinh, exp, pi, npi = math.sin, math.sinh, math.exp, _PI, -_PI
    with_exp = p.sign == "plus"
    c = max(1.0, 4.0 * min(1.0, _PI / lam))

    def f(u: float) -> complex:
        x = c * u
        if x > 0.5:
            e = exp(npi * x)
            v = 2.0 * sin(lam * x) * e / (1.0 - e * e)
            if with_exp:
                v *= e
        elif x < 1e-150:  # sin and sinh would round to 0/0
            v = g0
        else:
            v = sin(lam * x) / sinh(pi * x)
            if with_exp:
                v *= exp(npi * x)
        return v * (a2 - x * x) ** nmu

    res = integrate(f, 1e-14)
    # the floor is 2 eps, not H's eps, per unit of absolute mass: on 500
    # random points with Im a >= 1 the error reached 1.14 eps abs_sum
    return Evaluation(
        c * res.value,
        "ray",
        c * max(res.last_term_magnitude, 2.0 * _EPS * res.abs_sum),
        notes=f"{res.terms_used} integrand evaluations",
    )


def _subdominant_tail(p: SeriesParams) -> Evaluation:
    """(2 sqrt(pi)/Gamma(mu)) a^(1-2mu) sum_k (2/Y_k)^(1/2-mu) K_(1/2-mu)(Y_k)
    over Y_k = (2k + base) pi a - i lam a, base 1 for sign - and 2 for
    sign +, for Im a > 0 (Re Y_k > 0).

    This is (1 - e^(-2 pi i mu)) I3 of the Bessel tail. The sum stops as
    _kv_sums does, and the estimate is |prefactor| times _kv_sums' bound
    on the omitted terms (a proven one for mu <= 1), floored at rounding.
    At lam = 0 it is the Bessel sum of the lam = 0 routes.
    """

    base = 2.0 if p.sign == "plus" else 1.0
    sums, n, omitted, mass = _kv_sums(p, base, (-1j * p.lam * p.a,))
    pref = 2.0 * _SQRT_PI / gamma_real(p.mu) * _apow(p.a, 1.0 - 2.0 * p.mu)
    return Evaluation(
        pref * sums[0],
        "subdominant-tail",
        abs(pref) * max(omitted, _EPS * mass),
        tail_terms_used=n,
    )


def _full_rotated(p: SeriesParams) -> Evaluation:
    """A full route on the path rotated onto t = x/a (see _rotated_path).

    The segment t in [0, 1] of H is deformed onto the ray t = x/a and
    back along t = 1 + x/a; no pole of 1/sinh(pi a t) and no point of
    the cut of (1 - t^2)^-mu lies between them. The second ray gives
    I2 + e^(-2 pi i mu) I3 exactly, so for Im a > 0

        H + I2 + I3 = int_0^inf g(x) (a^2 - x^2)^-mu dx
                      + (1 - e^(-2 pi i mu)) I3,

    the ray integral of _ray_quadrature and the subdominant sum of
    _subdominant_tail. Im a < 0 is served by S(conj a) = conj S(a).
    """

    q = p if p.a.imag > 0.0 else p._replace(a=p.a.conjugate())
    ray = _ray_quadrature(q)
    tail = _subdominant_tail(q)
    if p.sign == "plus":
        e = _full(q, "full-plus", [j_mu_quadrature(q, 1e-14), ray, tail])
    else:
        e = _full(q, "full-minus", [ray, tail], ray.notes)
    return e if q is p else e._replace(value=e.value.conjugate())


def _rotated_path(p: SeriesParams) -> bool:
    """Whether the full routes take the rotated path at p.

    Always at |Im a| >= 1. Below it, where the straight path's tail is
    defined (Re X_0 = base pi Re a - lam |Im a| > 0) and its first
    argument steep, lam Re a > 50 Re X_0: H's sin(lam a t) then turns
    through many periods per decay length of its 1/sinh(pi a t), and H
    cancels against the Bessel sum. In seeded probes (|Im a| 0.1 to
    0.9, lam 2 to 3000, steepness 4 to 7000, both signs) the straight
    path first missed 2x its estimate at a steepness of 133 and refused
    from 430, while the rotated one stayed within 1.2x of its estimate
    up to 400 (2.05x at worst, at 899) and took no more time from 30
    on; the benchmark's full-points draws no steepness above 29. Below
    |Im a| = 0.02 the branch point x = a of the ray integrand comes so
    close to the real axis that the ray refused (at 0.002 and 0.005)
    where the straight path served.
    """

    im = abs(p.a.imag)
    if im >= _ROTATE_IM_A:
        return True
    if im < _ROTATE_MIN_IM_A:
        return False
    base = 2.0 if p.sign == "plus" else 1.0
    re_x0 = base * _PI * p.a.real - p.lam * im
    return re_x0 > 0.0 and p.lam * p.a.real > _ROTATE_STEEP * re_x0


def full_minus(p: SeriesParams) -> Evaluation:
    """Exact representation: 1/(2a^(2mu)) + H^- + tail.

    Not an asymptotic truncation; closes against direct_sum to
    combined component tolerance. Requires 0 < mu < 1 (tail); lam = 0
    collapses H to zero and reproduces the classical alternating
    lam = 0 formula. For |Im a| >= 1, and below it where the tail's
    first argument is steep (see _rotated_path), the path is rotated
    (Im a > 0, Im a < 0 by conjugation):

        S = 1/(2a^(2mu)) + int_0^inf sin(lam x)/sinh(pi x) (a^2 - x^2)^-mu dx
            + (2 sqrt(pi)/Gamma(mu)) a^(1-2mu)
              * sum_k (2/Y_k)^(1/2-mu) K_(1/2-mu)(Y_k),

    Y_k = ((2k+1) pi - i lam) a, and Re Y_k > 0 for every Re a > 0, so
    the tail's sector pi Re a > lam |Im a| is not needed at |Im a| >= 1
    (below it, outside the sector, the route refuses). The
    notes give the evaluations of H's or the ray's quadrature. The
    error estimate is the sum of the parts' estimates, floored at
    eps * sum |part|.
    """

    _need_sign(p, "minus", "full_minus")
    _check_full_mu(p, "use algebraic_minus at mu = 0, where it is exact")
    if _rotated_path(p):
        return _full_rotated(p)
    h = h_minus_quadrature(p, 1e-14)
    tail = _bessel_tail(p, "minus")
    return _full(p, "full-minus", [h, tail], h.notes)


def j_mu_quadrature(p: SeriesParams, tol: float = 1e-13) -> Evaluation:
    """J = int_0^inf exp(-lam t)/(t^2+a^2)^mu dt by exp-exp quadrature.

    Integrated on the ray t = s w u, w = e^(i phi), phi = arg(a)/2, with
    s = |a|, s = 1e-6/lam below lam |a| = 1e-6, or s = 1/lam once
    lam |a| > 860. The sector between the real axis and the ray holds
    neither branch point t = +-ia, and e^(-lam t) decays on it since
    |phi| < pi/4, so J is w s^(1-2mu) times the integral over u > 0 of
    e^(-lam s w u) (w^2 u^2 + a^2/s^2)^-mu. The base has an argument
    between arg a and 2 arg a, so its principal power is the continued
    one. On the ray the branch points lie |a|/s from the path, where on
    the real axis they lay Re a/s from it: a steep a no longer costs
    thousands of evaluations. Real a has w = 1 and stays on the float
    path. The estimate is |w s^(1-2mu)| times the last level-to-level
    delta, floored at eps (2 eps at complex a) times the quadrature's
    absolute mass.
    """

    if p.lam <= 0.0:
        raise PreconditionError("J integral needs lam > 0")
    if p.mu == 0.0:
        return Evaluation(
            complex(1.0 / p.lam), "j-mu-quadrature", 0.0, notes="exact at mu = 0"
        )
    # in t = |a| w u the algebraic factor turns over at u = 1, beside the
    # rule's centre, and (t^2 + a^2)^-mu = |a|^-2mu (w^2 u^2 + a^2/|a|^2)^-mu
    # exactly. At small lam |a| the exponential decays far out, near
    # u = 5e7 for lam |a| = 1e-6; below that, s = 1e-6/lam keeps it there,
    # inside the nodes, and moves the turn-over towards 0, where the
    # nodes crowd (t = u/lam would put it at u = lam |a| at once, and
    # take 2 to 7 times the evaluations). Once lam |a| passes about 860
    # the mass sits at u < 1e-3 instead, so J runs in t = u/lam, where
    # the exponential falls on the unit scale
    s = max(abs(p.a), _J_MIN_RATE / p.lam)
    if p.lam * s > _J_RESCALE:
        s = 1.0 / p.lam
    nmu, b2 = -p.mu, _a2(p) / (s * s)
    if p.real_a:
        nlam, exp, pref = -p.lam * s, math.exp, s ** (1.0 - 2.0 * p.mu)

        def f(u: float) -> complex | float:
            return exp(nlam * u) * (u * u + b2) ** nmu

    else:
        w = cmath.rect(1.0, 0.5 * cmath.phase(p.a))
        nlam, w2, cexp = -p.lam * s * w, w * w, cmath.exp
        pref = w * s ** (1.0 - 2.0 * p.mu)

        def f(u: float) -> complex | float:
            return cexp(nlam * u) * (w2 * (u * u) + b2) ** nmu

    res = integrate(f, tol)
    # integrate's estimate carries a floor of eps abs_sum; at complex a
    # the floor is 2 eps, as the ray's: w and the complex products and
    # powers round more often than their float twins, and a seeded sweep
    # of 300 points reached 1.96 eps abs_sum
    floor = 0.0 if p.real_a else 2.0 * _EPS
    return Evaluation(
        pref * res.value,
        "j-mu-quadrature",
        abs(pref) * max(res.last_term_magnitude, floor * res.abs_sum),
        notes=f"{res.terms_used} integrand evaluations",
    )


def full_plus(p: SeriesParams) -> Evaluation:
    """Exact representation: 1/(2a^(2mu)) + J + H^+ + tail.

    Requires 0 < mu < 1 and lam > 0 (the lam = 0 case has its own
    closed form, see lambda0_plus; mu = 0 is served exactly by
    algebraic_plus). Where full_minus rotates its path, so does this
    route: J, the ray integral with an extra exp(-pi x) in its
    integrand, and the subdominant sum over Y_k = ((2k+2) pi - i lam) a,
    with no sector condition at |Im a| >= 1. The error estimate is the sum of the
    parts' estimates, floored at eps * sum |part|.
    """

    _need_sign(p, "plus", "full_plus")
    _check_full_mu(p, "use algebraic_plus at mu = 0")
    if p.lam <= 0.0:
        raise PreconditionError("full representation needs lam > 0")
    if _rotated_path(p):
        return _full_rotated(p)
    j = j_mu_quadrature(p, 1e-14)
    h = h_plus_quadrature(p, 1e-14)
    tail = _bessel_tail(p, "plus")
    return _full(p, "full-plus", [j, h, tail])


# ---------------------------------------------------------------------------
# lam = 0 closed forms


def olver_lambda0_minus(p: SeriesParams) -> Evaluation:
    """Alternating sum at lam = 0 via the classical Bessel representation.

    S = 1/(2a^(2mu)) + 2^(3/2-mu) sqrt(pi) a^(1-2mu)/Gamma(mu)
        * sum_k K_{1/2-mu}((2k+1) pi a) / ((2k+1) pi a)^(1/2-mu),

    for lam = 0, sign -, 0 < mu <= 10 (not only 0 < mu < 1) and Re a > 0.
    The Bessel sum is _subdominant_tail at lam = 0, stopped as the full
    routes' sums are (hundreds of terms at small |a| and large mu). The
    estimate is assembled as in the full routes, floored at the rounding
    of the parts and of the Bessel arguments.
    """

    return _lambda0_bessel(p, "minus")


def lambda0_plus(p: SeriesParams) -> Evaluation:
    """Non-alternating sum at lam = 0.

    S = 1/(2a^(2mu)) + sqrt(pi) Gamma(mu-1/2)/(2 a^(2mu-1) Gamma(mu))
        + the Bessel sum over arguments (2k+2) pi a.

    Needs mu > 1/2 (the sum itself diverges otherwise), p.lam = 0 and
    sign +. The Bessel sum stops as in olver_lambda0_minus.
    """

    if not p.mu > 0.5:
        raise PreconditionError(
            f"lam = 0 non-alternating sum diverges for mu <= 1/2, got {p.mu}"
        )
    return _lambda0_bessel(p, "plus")


def _lambda0_bessel(p: SeriesParams, sign: str) -> Evaluation:
    """The lam = 0 routes: the lead, for sign + the Gamma(mu - 1/2) term,
    and _subdominant_tail at lam = 0, assembled and floored by _full."""

    _need_sign(p, sign, "olver_lambda0_minus" if sign == "minus" else "lambda0_plus")
    if p.lam != 0.0:
        raise PreconditionError(
            f"the lam = 0 routes evaluate the lam = 0 sum, got lam = {p.lam}"
        )
    mu, a = p.mu, p.a
    if not 0.0 < mu <= 10.0:
        raise PreconditionError(
            f"the lam = 0 routes need 0 < mu <= 10 (the Bessel-order range "
            f"of the kernel), got {mu}"
        )

    parts = []
    if sign == "plus":
        # a few roundings in the Gamma ratio, and the rounding of log a,
        # amplified by the exponent, in the power
        e = 1.0 - 2.0 * mu
        v = _SQRT_PI * gamma_real(mu - 0.5) / (2.0 * gamma_real(mu)) * _apow(a, e)
        err = (4.0 + abs(e * cmath.log(a))) * _EPS * abs(v)
        parts.append(Evaluation(complex(v), "lambda0-gamma-term", err))
    parts.append(_subdominant_tail(p))
    e = _full(p, f"lambda0-{sign}", parts)
    return e._replace(value=complex(e.value.real)) if p.real_a else e


# ---------------------------------------------------------------------------
# integer mu and the mu-step recurrence

# numerators and overall divisors of the F-combinations for mu = 1 .. 5
_INT_MU_COMBO = {
    1: ((1,), 2),
    2: ((1, 1), 4),
    3: ((3, 3, 2), 16),
    4: ((5, 5, 4, 2), 32),
    5: ((35, 35, 30, 20, 8), 256),
}


def integer_mu_closed_form(p: SeriesParams) -> Evaluation:
    """Hypergeometric closed form for integer mu = n in 1 .. 5.

    Uses F_m = (m+1)F_m(1, ia, ..., ia; 1+ia, ..., 1+ia; z) with
    z = sign * exp(-lam), combined with fixed rational weights; e.g.
    mu = 2 gives (F-comb)/(4 a^4). Requires lam > 0.
    """

    n = int(p.mu)
    if n != p.mu or n not in _INT_MU_COMBO:
        raise PreconditionError(f"closed forms cover mu = 1 .. 5, got mu = {p.mu}")
    if p.lam <= 0.0:
        raise PreconditionError("hypergeometric argument needs lam > 0")

    z = p.sign_factor * math.exp(-p.lam)
    ia = 1j * p.a
    weights, divisor = _INT_MU_COMBO[n]
    total: complex = 0.0
    terms_used = 0
    for m in range(1, n + 1):
        fm = pfq_series([1.0] + [ia] * m, [1.0 + ia] * m, z)
        terms_used = max(terms_used, fm.terms_used)
        if p.real_a:
            calf: complex = 2.0 * fm.value.real  # F_m(-a) = conj(F_m(a))
        else:
            fm_neg = pfq_series([1.0] + [-ia] * m, [1.0 - ia] * m, z)
            calf = fm.value + fm_neg.value
        total += weights[m - 1] * calf

    value = total / (divisor * _apow(p.a, 2.0 * n))
    if p.real_a:
        value = complex(value).real
    return Evaluation(
        complex(value),
        "integer-mu-pfq",
        abs(value) * 1e-15 * terms_used,
        truncation_index=terms_used - 1,
    )


def mu_step_check(p: SeriesParams, h: float = 1e-4) -> float:
    """Relative discrepancy of the recurrence S_{mu+1} = -(1/(2 mu a)) dS/da.

    The derivative is a central difference of direct_sum at a +- h;
    the result is compared against direct_sum at mu + 1. O(h^2) by
    construction, so halving h should shrink it about fourfold.
    """

    if not 0.0 < p.mu < 1.0:
        raise PreconditionError(f"recurrence check needs 0 < mu < 1, got {p.mu}")
    if not p.real_a:
        raise PreconditionError("recurrence check is defined for real a")
    if not 0.0 < h < p.a.real:
        raise PreconditionError("step h must satisfy 0 < h < a")

    up = direct_sum(p._replace(a=p.a.real + h)).value.real
    dn = direct_sum(p._replace(a=p.a.real - h)).value.real
    derivative = (up - dn) / (2.0 * h)
    stepped = -derivative / (2.0 * p.mu * p.a.real)
    reference = direct_sum(p._replace(mu=p.mu + 1.0)).value.real
    return abs(stepped - reference) / abs(reference)
