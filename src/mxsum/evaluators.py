"""Evaluation routes for the exponentially weighted Mathieu-type sums

    S(a; lam, mu, sign) = sum_{n >= 0} (sign)^n exp(-lam n) / (n^2 + a^2)^mu

with sign = -1 (alternating) or +1, mu >= 0, lam >= 0 and Re a > 0.

Routes provided:

* ``direct_sum``: compensated brute-force summation, the reference
  against which every other route is tested;
* ``h_minus_quadrature`` / ``h_plus_quadrature``: the branch-cut
  contribution H as a double-exponential quadrature of its defining
  integral over (0, 1);
* ``small_a_minus``: convergent expansion of H^- in powers of a^2
  (radius |a| = 1), with alternating-series acceleration close to the
  boundary;
* ``algebraic_minus`` / ``algebraic_plus``: large-a expansions in
  inverse powers of a with exact rational coefficient generation;
* ``bessel_tail_minus`` / ``bessel_tail_plus``: the exponentially small
  correction, a sum of modified Bessel functions K_nu of complex
  argument;
* ``full_minus`` / ``full_plus``: algebraic part + tail, an exact
  representation that must close against ``direct_sum``;
* ``j_mu_quadrature`` / ``j_mu_asymptotic``: the Laplace-type integral
  J that enters the plus case;
* ``olver_lambda0_minus`` / ``lambda0_plus``: lam = 0 reductions;
* ``integer_mu_closed_form``: hypergeometric closed forms for
  mu = 1 .. 5;
* ``mu_step_check``: numerical verification of the recurrence
  S_{mu+1} = -(1/(2 mu a)) dS_mu/da.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace

from .coefficients import a_coefficients, b_coefficients, bhat_coefficients
from .errors import NonConvergenceError, PreconditionError
from .kernel import (
    QuadratureSpec,
    accelerated_alternating_complex,
    gamma_real,
    integrate,
    kv_complex,
    pfq_series,
    sum_terms,
)

_PI = math.pi
_SQRT_PI = math.sqrt(math.pi)
_EPS = sys.float_info.epsilon
# term budget of direct_sum at lam > 0
_MAX_TERMS = 5_000_000


@dataclass(frozen=True)
class SeriesParams:
    """Parameter bundle for one sum evaluation.

    mu: exponent on n^2 + a^2 (>= 0)
    lam: exponential decay rate (>= 0)
    a: shift parameter, must satisfy Re a > 0 (sector |arg a| < pi/2)
    sign: "minus" for the alternating sum, "plus" otherwise
    """

    mu: float
    lam: float
    a: complex
    sign: str = "minus"

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "a", complex(self.a))
        if self.sign not in ("plus", "minus"):
            raise PreconditionError(
                f"sign must be 'plus' or 'minus', got {self.sign!r}"
            )
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise PreconditionError(f"mu must be finite and >= 0, got {self.mu}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise PreconditionError(f"lam must be finite and >= 0, got {self.lam}")
        if not (
            math.isfinite(self.a.real)
            and math.isfinite(self.a.imag)
            and self.a.real > 0.0
        ):
            raise PreconditionError(
                f"a must lie in the open half-plane Re a > 0, got {self.a}"
            )

    @property
    def real_a(self) -> bool:
        return self.a.imag == 0.0

    @property
    def sign_factor(self) -> float:
        return -1.0 if self.sign == "minus" else 1.0


@dataclass
class Evaluation:
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


@dataclass
class TailTerm:
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


# ---------------------------------------------------------------------------
# reference summation


def _lambda0_plus_direct(p: SeriesParams) -> Evaluation:
    """lam = 0, non-alternating: head sum + Euler-Maclaurin tail.

    Needs mu > 1/2 for convergence. The tail integral
    int_N^inf (t^2+a^2)^(-mu) dt is expanded binomially in (a/t)^2,
    valid because N is chosen > 3|a|.
    """

    mu = p.mu
    a2 = _a2(p)
    n_head = max(50, math.ceil(3.0 * abs(p.a)) + 50)
    head_val = _csum((n * n + a2) ** (-mu) for n in range(n_head))

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

    u = nf * nf + a2
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


def _csum(terms) -> complex:
    re = []
    im = []
    for t in terms:
        z = complex(t)
        re.append(z.real)
        im.append(z.imag)
    return complex(math.fsum(re), math.fsum(im))


def direct_sum(p: SeriesParams, tol: float = 1e-15) -> Evaluation:
    """Brute-force reference value of the sum.

    Each term takes (n^2 + a^2) ** -mu on the principal branch: float
    pow for real a, complex ** for complex a. For lam > 0 this is plain
    compensated summation, stopped when |term| <= tol * |partial sum|
    twice in a row; with sign + and lam < ln 2 the omitted tail is up to
    e^-lam/(1 - e^-lam) times that term, and the stop is tightened by
    the same factor (NonConvergenceError after 5 million terms, which
    at mu = 0 and tol = 1e-15 means lam below about 7e-6). The estimate
    is that tail bound, floored at (1 + mu) eps * sum |term|. For
    lam = 0 the alternating case is accelerated (30-stage scheme) and
    the non-alternating case uses a head sum with an Euler-Maclaurin
    tail (mu > 1/2 required; the series diverges for mu <= 1/2).
    """

    mu, lam, a2 = p.mu, p.lam, _a2(p)
    if lam > 0.0:
        s = p.sign_factor

        def term(n: int) -> complex | float:
            return s**n * math.exp(-lam * n) * (n * n + a2) ** (-mu)

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
            lambda n: (n * n + a2) ** (-mu), tol, stages=30
        )
        if not res.converged:
            raise NonConvergenceError(
                "alternating acceleration did not settle at lam = 0 "
                f"(order-to-order delta {res.last_term_magnitude:.3e})"
            )
        return Evaluation(
            res.value,
            "direct-sum",
            res.last_term_magnitude,
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


def _h_quadrature(p: SeriesParams, tol: float, with_exp: bool, tag: str) -> Evaluation:
    if not 0.0 <= p.mu < 1.0:
        raise PreconditionError(
            f"H integral needs 0 <= mu < 1 for integrability, got mu = {p.mu}"
        )
    if p.lam == 0.0:
        return Evaluation(0j, tag, 0.0, notes="integrand vanishes when lam = 0")

    # real a stays on the float path of the same expression
    m, a = (math, p.a.real) if p.real_a else (cmath, p.a)
    sin, sinh, exp = m.sin, m.sinh, m.exp
    # loop invariants: lam*a*t parses as (lam*a)*t, so each product
    # rounds as it did when formed per node
    la, pa, npa, nmu = p.lam * a, _PI * a, -_PI * a, -p.mu

    # integrate over s = 1 - t so the algebraic singularity sits at the
    # left endpoint; du is then the exact distance t from the original
    # lower endpoint, which keeps sin/sinh well conditioned near t = 0
    def f(s: float, dl: float, du: float) -> complex | float:
        base = sin(la * du) / sinh(pa * du)
        if with_exp:
            base *= exp(npa * du)
        return base * (dl * (2.0 - dl)) ** nmu

    res = integrate(f, QuadratureSpec(0.0, 1.0, tol))
    pref = _apow(p.a, 1.0 - 2.0 * p.mu)
    return Evaluation(
        complex(pref * res.value),
        tag,
        abs(pref) * res.last_term_magnitude,
        notes=f"{res.terms_used} integrand evaluations",
    )


def h_minus_quadrature(p: SeriesParams, tol: float = 1e-13) -> Evaluation:
    """H contribution of the alternating sum.

    H = a^(1-2 mu) * int_0^1 sin(lam a t)/sinh(pi a t) (1-t^2)^(-mu) dt,
    evaluated by tanh-sinh quadrature; the singular factor at t = 1 is
    formed from each node's exact distance to that endpoint. Requires
    0 <= mu < 1.
    """

    return _h_quadrature(p, tol, False, "h-minus-quadrature")


def h_plus_quadrature(p: SeriesParams, tol: float = 1e-13) -> Evaluation:
    """H contribution of the non-alternating sum.

    Same integrand as the minus case times an extra exp(-pi a t) factor.
    """

    return _h_quadrature(p, tol, True, "h-plus-quadrature")


def small_a_minus(p: SeriesParams, K: int = 40) -> Evaluation:
    """Convergent expansion of H^- in powers of a^2 (radius |a| = 1).

    H^- = (lam a^(1-2mu) / 2pi) Gamma(1-mu)
          * sum_k (-1)^k A_k Gamma(k+1/2)/Gamma(k+3/2-mu) a^(2k).

    Plain summation for |a| <= 0.7; alternating-series acceleration
    closer to the boundary, which converges even at |a| = 1 where the
    plain series is hopelessly slow. The acceleration degrades as
    |arg a| grows; when it cannot settle it raises, and the quadrature
    route remains available. |a| beyond the radius is rejected.
    """

    if not p.mu < 1.0:
        raise PreconditionError(f"small-a expansion needs mu < 1, got {p.mu}")
    if not 0 <= K <= 60:
        raise PreconditionError("K must lie in 0 .. 60 (coefficient cap)")
    if p.lam == 0.0:
        return Evaluation(0j, "small-a-minus", 0.0, notes="prefactor lam = 0")
    mod_a = abs(p.a)
    if mod_a > 1.0 + 1e-12:
        raise PreconditionError(
            f"|a| = {mod_a:.6g} is outside the convergence disc |a| <= 1"
        )

    mu, lam = p.mu, p.lam
    # the call is cheap for K <= 60: exact coefficients are cached
    coeff = a_coefficients(lam, K).values
    g = gamma_real(0.5) / gamma_real(1.5 - mu)  # Gamma(k+1/2)/Gamma(k+3/2-mu) at k=0
    pref = (lam / (2.0 * _PI)) * gamma_real(1.0 - mu) * _apow(p.a, 1.0 - 2.0 * mu)
    a2 = _a2(p)

    if mod_a <= 0.7:
        acc: complex = 0.0
        apow: complex = 1.0
        prev_mag = math.inf
        grow_streak = 0
        last_mag = 0.0
        used = 0
        for k in range(K + 1):
            t = (-1.0) ** k * coeff[k] * g * apow
            acc += t
            last_mag = abs(t)
            used = k
            if last_mag >= prev_mag and k >= 2:
                grow_streak += 1
                if grow_streak >= 2:
                    raise NonConvergenceError(
                        f"term ratio reached 1 at k = {k} before K = {K}"
                    )
            else:
                grow_streak = 0
            if last_mag <= 1e-17 * max(abs(acc), 1e-300) and k >= 2:
                break
            prev_mag = last_mag
            g *= (k + 0.5) / (k + 1.5 - mu)
            apow *= a2
        tail_bound = last_mag * mod_a**2 / max(1.0 - mod_a**2, 1e-3)
        return Evaluation(
            complex(pref * acc),
            "small-a-minus",
            abs(pref) * tail_bound,
            truncation_index=used,
        )

    # near the boundary: accelerate sum (-1)^k c_k
    stages = min(max(K, 8), 56)
    gs = [g]
    for k in range(stages + 4):
        g *= (k + 0.5) / (k + 1.5 - mu)
        gs.append(g)

    def magnitude(k: int) -> complex:
        return coeff[k] * gs[k] * a2**k if k <= K else 0.0

    # acceleration order never exceeds K, so coeff[k] is always valid
    stages = min(stages, max(K - 4, 4))
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
        abs(pref) * res.last_term_magnitude,
        truncation_index=res.terms_used - 1,
        notes="accelerated near |a| = 1",
    )


# ---------------------------------------------------------------------------
# large-a algebraic expansions


def _inverse_a2_terms(
    p: SeriesParams, coeffs: list[float], K: int, alternating: bool
) -> tuple[list[complex], float, int]:
    """Terms 1/2, c_0 f_0, .., c_K f_K of an expansion in 1/a^2, with
    f_k = (mu)_k/(k! a^(2k)) and the sign (-1)^k if ``alternating``.

    Also returns |c_(K+1) f_(K+1)|, the first omitted term, and the
    first k >= 1 whose term outgrows the one before it (0 if none does).
    """

    inv_a2 = 1.0 / (p.a * p.a)
    terms: list[complex] = [0.5]
    factor: complex = 1.0
    grow_at = 0
    for k in range(K + 1):
        t = factor * coeffs[k]
        if alternating and k % 2:
            t = -t
        terms.append(t)
        if k >= 1 and abs(t) > abs(terms[-2]) and grow_at == 0:
            grow_at = k
        factor *= (p.mu + k) * inv_a2 / (k + 1.0)
    return terms, abs(factor * coeffs[K + 1]), grow_at


def algebraic_minus(p: SeriesParams, K: int = 8) -> Evaluation:
    """Large-a expansion 1/(2a^(2mu)) + a^(-2mu) sum (mu)_k B_k/(k! a^(2k)).

    Sums k = 0 .. K inclusive. Valid for every mu >= 0 (at mu = 0 the
    Pochhammer factor truncates the series and the result is exact).
    The error estimate is the first omitted term; the notes flag the
    index where terms start growing, if they do within the range.
    """

    if p.lam <= 0.0:
        raise PreconditionError("algebraic expansion needs lam > 0")
    bvals = b_coefficients(p.lam, K + 1).values
    terms, omitted, grow_at = _inverse_a2_terms(p, bvals, K, False)
    pref = _apow(p.a, -2.0 * p.mu)
    notes = f"terms grow from k = {grow_at}" if grow_at else ""
    return Evaluation(
        complex(pref * _csum(terms)),
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

    if p.lam <= 0.0:
        raise PreconditionError("asymptotic J needs lam > 0")
    mu = p.mu
    half_la = 0.5 * p.lam * p.a
    inv2 = 1.0 / (half_la * half_la)

    terms: list[complex] = []
    t: complex = 1.0 / half_la
    grow_at = 0
    for k in range(K + 1):
        terms.append(t)
        if k >= 1 and abs(t) > abs(terms[-2]) and grow_at == 0:
            grow_at = k
        t *= -(0.5 + k) * (mu + k) * inv2
    omitted = abs(t)

    pref = 0.5 * _apow(p.a, 1.0 - 2.0 * mu)
    notes = f"terms grow from k = {grow_at}" if grow_at else ""
    return Evaluation(
        complex(pref * _csum(terms)),
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

    if p.lam <= 0.0:
        raise PreconditionError("algebraic expansion needs lam > 0")
    bhat = bhat_coefficients(p.lam, K + 1).values
    terms, omitted, _ = _inverse_a2_terms(p, bhat, K, True)
    jpart = j_mu_asymptotic(p, K)
    pref = _apow(p.a, -2.0 * p.mu)
    return Evaluation(
        complex(pref * _csum(terms) + jpart.value),
        "algebraic-plus",
        abs(pref) * omitted + jpart.error_estimate,
        truncation_index=K,
        notes=jpart.notes,
    )


# ---------------------------------------------------------------------------
# Bessel tails


def _bessel_tail(
    p: SeriesParams, n_terms: int, step_even: bool, tag: str
) -> tuple[Evaluation, list[TailTerm]]:
    """Shared tail evaluator.

    The arguments run over X_k = (2k+1) pi a + i lam a (minus case) or
    X_k = (2k+2) pi a + i lam a (plus case). The tail is

        I2 + I3,  I2 = i exp(-i pi mu) a^(1-2mu) Gamma(1-mu)/sqrt(pi)
                       * sum_k (2/X_k)^(1/2-mu) K_{1/2-mu}(X_k)

    with I3 the reflected sum over conj-type arguments
    Y_k = (2k+?) pi a - i lam a; for real a, I3 = conj(I2) exactly and
    2 Re I2 is returned. Gamma(1-mu) keeps the prefactor regular for
    all 0 < mu < 1 (no 1/sin(pi mu)).
    """

    mu, lam, a = p.mu, p.lam, p.a
    if not 0.0 < mu < 1.0:
        raise PreconditionError(
            f"Bessel tail is defined for 0 < mu < 1 only, got mu = {mu}"
        )
    if n_terms < 1:
        raise PreconditionError("n_terms must be >= 1")
    base = 2.0 if step_even else 1.0
    # every argument needs Re X_k > 0; k = 0 is the binding case
    if base * _PI * a.real - lam * abs(a.imag) <= 0.0:
        raise PreconditionError(
            "tail arguments leave the right half-plane: need "
            f"{base:g}*pi*Re a > lam*|Im a| (a = {a}, lam = {lam})"
        )

    nu = 0.5 - mu
    gpref = gamma_real(1.0 - mu) / _SQRT_PI
    rot = 1j * cmath.exp(-1j * _PI * mu)
    apw = _apow(a, 1.0 - 2.0 * mu)

    terms: list[TailTerm] = []
    s2: complex = 0.0
    s3: complex = 0.0
    last_mag = 0.0
    for k in range(n_terms):
        mult = (2 * k + base) * _PI
        X = mult * a + 1j * lam * a
        kv = kv_complex(nu, X)
        w = (2.0 / X) ** nu * kv
        s2 += w
        disp = kv * X ** (-nu)
        terms.append(
            TailTerm(k, X, kv, cmath.phase(disp), abs(disp))
        )
        if not p.real_a:
            Y = mult * a - 1j * lam * a
            s3 += (2.0 / Y) ** nu * kv_complex(nu, Y)
        last_mag = abs(w)
        if last_mag <= 1e-18 * max(abs(s2), 1e-300):
            break

    i2 = rot * apw * gpref * s2
    if p.real_a:
        value: complex = complex(2.0 * i2.real)
    else:
        i3 = -1j * cmath.exp(1j * _PI * mu) * apw * gpref * s3
        value = i2 + i3
    # next term is down by ~ exp(-2 pi Re a)
    err = 2.0 * abs(apw) * gpref * last_mag * math.exp(-2.0 * _PI * a.real)
    return (
        Evaluation(value, tag, err, tail_terms_used=len(terms)),
        terms,
    )


def bessel_tail_minus(
    p: SeriesParams, n_terms: int = 30
) -> tuple[Evaluation, list[TailTerm]]:
    """Exponentially small tail of the alternating sum.

    Arguments X_k = (2k+1) pi a + i lam a; leading magnitude
    O(a^(1-2mu) exp(-pi a)). Terms are added until one contributes
    less than 1e-18 relatively, or n_terms is reached. Also returns
    the per-term display data (theta_k, magnitudes).
    """

    return _bessel_tail(p, n_terms, False, "bessel-tail-minus")


def bessel_tail_plus(
    p: SeriesParams, n_terms: int = 30
) -> tuple[Evaluation, list[TailTerm]]:
    """Exponentially small tail of the non-alternating sum.

    Arguments X_k = (2k+2) pi a + i lam a, so the leading magnitude
    O(a^(1-2mu) exp(-2 pi a)) is smaller than in the minus case.
    """

    return _bessel_tail(p, n_terms, True, "bessel-tail-plus")


def tail_display_form(mu: float, a: float, terms: list[TailTerm]) -> float:
    """Tail value reconstructed from display data (real a only).

    T = 2^(3/2-mu) sqrt(pi) a^(1-2mu)/Gamma(mu)
        * sum_k magnitude_k * sin(pi mu - theta_k)/sin(pi mu).

    Mathematically identical to the Gamma(1-mu) form used internally;
    kept as a cross-check because the removable 1/sin(pi mu) makes it
    the less stable of the two near integer mu.
    """

    if not 0.0 < mu < 1.0:
        raise PreconditionError("display form needs 0 < mu < 1")
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
    value = _csum(values)
    # each part carries about one rounding error of its own size, so a
    # sum of parts is no better than eps * sum |part|
    floor = _EPS * sum(abs(v) for v in values)
    return Evaluation(
        complex(value),
        tag,
        max(sum(e.error_estimate for e in parts), floor),
        tail_terms_used=parts[-1].tail_terms_used,
        notes=notes,
    )


def full_minus(p: SeriesParams) -> Evaluation:
    """Exact representation: 1/(2a^(2mu)) + H^- + tail.

    Not an asymptotic truncation; closes against direct_sum to
    combined component tolerance. Requires 0 < mu < 1 (tail); lam = 0
    collapses H to zero and reproduces the classical alternating
    lam = 0 formula. The error estimate is the sum of the parts'
    estimates, floored at eps * (|lead| + |H| + |tail|).
    """

    _check_full_mu(p, "use algebraic_minus at mu = 0, where it is exact")
    h = h_minus_quadrature(p, 1e-14)
    tail, _ = bessel_tail_minus(p)
    return _full(p, "full-minus", [h, tail], h.notes)


def j_mu_quadrature(p: SeriesParams, tol: float = 1e-13) -> Evaluation:
    """J = int_0^inf exp(-lam t)/(t^2+a^2)^mu dt by exp-sinh quadrature.

    The integrand takes (t^2 + a^2) ** -mu on the principal branch, as
    direct_sum does.
    """

    if p.lam <= 0.0:
        raise PreconditionError("J integral needs lam > 0")
    if p.mu == 0.0:
        return Evaluation(
            complex(1.0 / p.lam), "j-mu-quadrature", 0.0, notes="exact at mu = 0"
        )
    nlam, nmu, a2, exp = -p.lam, -p.mu, _a2(p), math.exp

    def f(t: float, _dl: float, _du: float) -> complex | float:
        return exp(nlam * t) * (t * t + a2) ** nmu

    res = integrate(f, QuadratureSpec(0.0, math.inf, tol))
    return Evaluation(
        res.value,
        "j-mu-quadrature",
        res.last_term_magnitude,
        notes=f"{res.terms_used} integrand evaluations",
    )


def full_plus(p: SeriesParams) -> Evaluation:
    """Exact representation: 1/(2a^(2mu)) + J + H^+ + tail.

    Requires 0 < mu < 1 and lam > 0 (the lam = 0 case has its own
    closed form, see lambda0_plus; mu = 0 is served exactly by
    algebraic_plus). The error estimate is the sum of the parts'
    estimates, floored at eps * (|lead| + |J| + |H| + |tail|).
    """

    _check_full_mu(p, "use algebraic_plus at mu = 0")
    if p.lam <= 0.0:
        raise PreconditionError("full representation needs lam > 0")
    j = j_mu_quadrature(p, 1e-14)
    h = h_plus_quadrature(p, 1e-14)
    tail, _ = bessel_tail_plus(p)
    return _full(p, "full-plus", [j, h, tail])


# ---------------------------------------------------------------------------
# lam = 0 closed forms


def olver_lambda0_minus(mu: float, a: complex, n_terms: int = 30) -> Evaluation:
    """Alternating sum at lam = 0 via the classical Bessel representation.

    S = 1/(2a^(2mu)) + 2^(3/2-mu) sqrt(pi) a^(1-2mu)/Gamma(mu)
        * sum_k K_{1/2-mu}((2k+1) pi a) / ((2k+1) pi a)^(1/2-mu),

    valid for mu > 0, Re a > 0 (mu is not restricted to (0, 1) here).
    """

    return _lambda0_bessel(mu, a, n_terms, 0.0, False, "lambda0-minus")


def lambda0_plus(mu: float, a: complex, n_terms: int = 30) -> Evaluation:
    """Non-alternating sum at lam = 0.

    S = 1/(2a^(2mu)) + sqrt(pi) Gamma(mu-1/2)/(2 a^(2mu-1) Gamma(mu))
        + the Bessel sum over arguments (2k+2) pi a.

    Needs mu > 1/2 (the sum itself diverges otherwise).
    """

    mu = float(mu)
    if not mu > 0.5:
        raise PreconditionError(
            f"lam = 0 non-alternating sum diverges for mu <= 1/2, got {mu}"
        )
    extra = (
        _SQRT_PI
        * gamma_real(mu - 0.5)
        / (2.0 * gamma_real(mu))
        * _apow(complex(a), 1.0 - 2.0 * mu)
    )
    return _lambda0_bessel(mu, a, n_terms, extra, True, "lambda0-plus")


def _lambda0_bessel(
    mu: float,
    a: complex,
    n_terms: int,
    extra: complex,
    step_even: bool,
    tag: str,
) -> Evaluation:
    mu = float(mu)
    a = complex(a)
    if not (math.isfinite(mu) and mu > 0.0):
        raise PreconditionError(f"mu must be positive, got {mu}")
    if not a.real > 0.0:
        raise PreconditionError(f"need Re a > 0, got a = {a}")
    if mu > 10.0:
        raise PreconditionError(
            "mu above 10 exceeds the Bessel-order range of the kernel"
        )
    if n_terms < 1:
        raise PreconditionError("n_terms must be >= 1")

    nu = 0.5 - mu
    base = 2.0 if step_even else 1.0
    real_a = a.imag == 0.0
    acc: complex = 0.0
    used = 0
    last = 0.0
    for k in range(n_terms):
        z = (2 * k + base) * _PI * a
        t = kv_complex(nu, z) * z ** (-nu)
        acc += t
        used = k + 1
        last = abs(t)
        if last <= 1e-18 * max(abs(acc), 1e-300):
            break

    pref = 2.0 ** (1.5 - mu) * _SQRT_PI / gamma_real(mu) * _apow(a, 1.0 - 2.0 * mu)
    value = 0.5 * _apow(a, -2.0 * mu) + extra + pref * acc
    if real_a:
        value = complex(value).real
    err = abs(pref) * last * math.exp(-2.0 * _PI * a.real)
    return Evaluation(complex(value), tag, err, tail_terms_used=used)


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


def integer_mu_closed_form(n: int, p: SeriesParams) -> Evaluation:
    """Hypergeometric closed form for integer mu = n in 1 .. 5.

    Uses F_m = (m+1)F_m(1, ia, ..., ia; 1+ia, ..., 1+ia; z) with
    z = sign * exp(-lam), combined with fixed rational weights; e.g.
    mu = 2 gives (F-comb)/(4 a^4). Requires p.mu == n and lam > 0.
    """

    if n not in _INT_MU_COMBO:
        raise PreconditionError(f"closed forms cover mu = 1 .. 5, got n = {n}")
    if float(n) != p.mu:
        raise PreconditionError(f"n = {n} does not match p.mu = {p.mu}")
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

    up = direct_sum(replace(p, a=p.a.real + h)).value.real
    dn = direct_sum(replace(p, a=p.a.real - h)).value.real
    derivative = (up - dn) / (2.0 * h)
    stepped = -derivative / (2.0 * p.mu * p.a.real)
    reference = direct_sum(replace(p, mu=p.mu + 1.0)).value.real
    return abs(stepped - reference) / abs(reference)
