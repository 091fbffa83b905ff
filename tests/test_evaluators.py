"""Evaluation routes for the two parameter sums and their cross-checks."""

import cmath
import math
import random
import sys
from dataclasses import FrozenInstanceError

import mpmath
import pytest

from mxsum.errors import NonConvergenceError, PreconditionError
from mxsum.evaluators import (
    SeriesParams,
    algebraic_minus,
    algebraic_plus,
    bessel_tail_minus,
    bessel_tail_plus,
    direct_sum,
    full_minus,
    full_plus,
    h_minus_quadrature,
    h_plus_quadrature,
    integer_mu_closed_form,
    j_mu_asymptotic,
    j_mu_quadrature,
    lambda0_plus,
    mu_step_check,
    olver_lambda0_minus,
    small_a_minus,
    tail_display_form,
)


def test_params_validation():
    bad = [
        dict(mu=0.5, lam=1.0, a=-2.0),
        dict(mu=0.5, lam=1.0, a=0.0),
        dict(mu=0.5, lam=1.0, a=1j),
        dict(mu=-0.5, lam=1.0, a=2.0),
        dict(mu=math.nan, lam=1.0, a=2.0),
        dict(mu=0.5, lam=-1.0, a=2.0),
        dict(mu=0.5, lam=1.0, a=2.0, sign="both"),
    ]
    for kwargs in bad:
        with pytest.raises(PreconditionError):
            SeriesParams(**kwargs)
    p = SeriesParams(0.5, 1.0, 2.0)
    assert p.sign == "minus"
    assert p.real_a
    assert p.sign_factor == -1.0
    with pytest.raises(FrozenInstanceError):
        p.mu = 1.0


def test_direct_sum_mu0_closed_forms():
    # at mu = 0 the sum is geometric: e^lam/(e^lam -+ 1)
    got = direct_sum(SeriesParams(0.0, 1.0, 7.0, "minus"))
    assert got.method == "direct-sum"
    assert abs(got.value.real - math.e / (math.e + 1.0)) < 1e-16
    gp = direct_sum(SeriesParams(0.0, 1.0, 7.0, "plus"))
    assert abs(gp.value.real - math.e / (math.e - 1.0)) < 5e-16
    for lam in (0.5, 2.0):
        want = math.exp(lam) / (math.exp(lam) + 1.0)
        v = direct_sum(SeriesParams(0.0, lam, 3.0, "minus")).value.real
        assert abs(v - want) < 5e-16 * want, lam


def test_direct_sum_frozen_values():
    # oracles from 30-digit brute summation
    cases = [
        (0.5, 1.0, 6.0, "minus", 0.12205969867572518),
        (0.25, 1.0, 10.0, "plus", 0.4987892392503316),
        (0.75, 0.5, 2.0, "minus", 0.22675086001279363),
        (0.75, 2.0, 3.0, "plus", 0.21950901035013876),
    ]
    for mu, lam, a, sign, want in cases:
        got = direct_sum(SeriesParams(mu, lam, a, sign))
        assert abs(got.value.real - want) <= 1e-15 * want, (mu, lam, a, sign)
        assert got.value.imag == 0.0
        assert got.truncation_index > 10
        assert got.error_estimate < 1e-13 * want

    pc = SeriesParams(0.5, 1.0, 4.0 * cmath.exp(0.2j * math.pi), "minus")
    want_c = 0.14759318226493556 - 0.10809345567010213j
    assert abs(direct_sum(pc).value - want_c) <= 1e-14 * abs(want_c)


def _bessel_lam0(mu, a, sign):
    """Sum at lam = 0 at 40 digits from the Bessel (Chowla-Selberg) form,
    mpmath only:

        S = 1/(2a^(2mu)) [+ sqrt(pi) Gamma(mu-1/2)/(2 Gamma(mu)) a^(1-2mu)]
            + 2 pi^mu/Gamma(mu) sum_x (x/a)^(mu-1/2) K_{mu-1/2}(2 pi x a),

    x = k + 1/2 (k >= 0) for the alternating sum and x = k (k >= 1), with
    the bracketed term, for the other.
    """

    with mpmath.workdps(40):
        mu, a = mpmath.mpf(mu), mpmath.mpc(a)
        s = 1 / (2 * a ** (2 * mu))
        if sign == "plus":
            s += (
                mpmath.sqrt(mpmath.pi) * mpmath.gamma(mu - 0.5)
                / (2 * mpmath.gamma(mu)) * a ** (1 - 2 * mu)
            )
        pref = 2 * mpmath.pi**mu / mpmath.gamma(mu)
        x = mpmath.mpf(1) if sign == "plus" else mpmath.mpf(0.5)
        while True:
            t = pref * (x / a) ** (mu - 0.5) * mpmath.besselk(mu - 0.5, 2 * mpmath.pi * x * a)
            s += t
            if abs(t) < mpmath.mpf(10) ** -45 * abs(s):
                return s
            x += 1


@pytest.mark.parametrize(
    "mu, a, sign",
    [
        (0.75, 5 + 2j, "minus"),
        (0.3, 2 - 1.5j, "minus"),
        (2.25, 1.5 + 1j, "minus"),
        (1.0, 30 + 20j, "minus"),
        (0.75, 5 + 2j, "plus"),
        (1.75, 2 - 1.5j, "plus"),
        (3.0, 1.5 + 1j, "plus"),
        (0.6, 20 + 12j, "plus"),
    ],
)
def test_direct_sum_lam0_complex_a(mu, a, sign):
    # the alternating acceleration and the head sum with Euler-Maclaurin
    # tail at complex a, against an independent Bessel-sum oracle
    got = direct_sum(SeriesParams(mu, 0.0, a, sign))
    ref = _bessel_lam0(mu, a, sign)
    with mpmath.workdps(40):
        actual = float(abs(mpmath.mpc(got.value) - ref))
        rel = actual / float(abs(ref))
    if sign == "minus":
        assert rel <= 2e-15, (mu, a, rel)
    else:
        assert actual <= got.error_estimate and rel <= 5e-14, (mu, a, actual)


def test_direct_sum_lam0():
    # alternating case accelerates; non-alternating needs mu > 1/2
    vm = direct_sum(SeriesParams(0.75, 0.0, 5.0, "minus"))
    assert abs(vm.value.real - 0.04472146216536063) < 1e-15
    assert "lam = 0" in vm.notes
    vp = direct_sum(SeriesParams(0.75, 0.0, 5.0, "plus"))
    # Euler-Maclaurin continued brute oracle: 1.2173411460128138
    assert abs(vp.value.real - 1.2173411460128138) < 2e-13
    with pytest.raises(PreconditionError):
        direct_sum(SeriesParams(0.5, 0.0, 5.0, "plus"))
    with pytest.raises(PreconditionError):
        direct_sum(SeriesParams(0.0, 0.0, 5.0, "minus"))


def test_h_quadrature_frozen():
    # oracles: 30-digit tanh-sinh of the branch-cut integrals
    cases = [
        (h_minus_quadrature, 0.5, 1.0, 3.0, 0.07898374333295641),
        (h_minus_quadrature, 0.25, 2.0, 1.5, 0.32320207162828135),
        (h_minus_quadrature, 0.6, 1.0, 0.5, 0.5360609478911502),
        (h_plus_quadrature, 0.25, 1.0, 2.0, 0.05833523136677497),
    ]
    for fn, mu, lam, a, want in cases:
        sign = "minus" if fn is h_minus_quadrature else "plus"
        got = fn(SeriesParams(mu, lam, a, sign))
        assert abs(got.value.real - want) <= 1e-12 * want, (fn.__name__, mu, lam, a)


def test_small_a_matches_quadrature():
    for a in (0.5, 0.25, complex(0.3, 0.4)):
        p = SeriesParams(0.5, 1.0, a)
        series = small_a_minus(p).value
        quad = h_minus_quadrature(p).value
        assert abs(series - quad) <= 1e-12 * max(abs(quad), 1e-3), a


def test_small_a_domain():
    with pytest.raises(PreconditionError):
        small_a_minus(SeriesParams(0.5, 1.0, 1.5))  # outside radius
    with pytest.raises(PreconditionError):
        small_a_minus(SeriesParams(1.2, 1.0, 0.5))  # mu cap
    with pytest.raises(PreconditionError):
        small_a_minus(SeriesParams(0.5, 1.0, 0.5), K=61)
    # near the radius at steep angle the acceleration cannot settle
    with pytest.raises(NonConvergenceError):
        small_a_minus(SeriesParams(0.5, 1.0, 0.9 * cmath.exp(0.3j * math.pi)))


def test_algebraic_minus_truncation():
    p = SeriesParams(0.5, 1.0, 6.0)
    s = direct_sum(p).value.real
    errs = []
    for K in (0, 2, 4):
        alg = algebraic_minus(p, K=K).value.real
        errs.append(abs(s - alg) / s)
    # super-algebraic improvement until the optimal index
    assert errs[0] > 1e-4
    assert errs[1] < errs[0] * 1e-2
    assert errs[2] < 1e-7, errs
    # exact at mu = 0 (expansion terminates at B_0)
    v0 = algebraic_minus(SeriesParams(0.0, 1.0, 3.0), K=0).value.real
    assert abs(v0 - math.e / (math.e + 1.0)) < 1e-16


def test_algebraic_plus_truncation():
    p = SeriesParams(0.25, 1.0, 10.0, "plus")
    s = direct_sum(p).value.real
    e0 = abs(algebraic_plus(p, K=0).value.real - s) / s
    e5 = abs(algebraic_plus(p, K=5).value.real - s) / s
    assert 1e-3 < e0 < 1e-2, e0
    assert 1e-6 < e5 < 1e-4, e5
    v0 = algebraic_plus(SeriesParams(0.0, 1.0, 3.0, "plus"), K=0).value.real
    assert abs(v0 - math.e / (math.e - 1.0)) < 1e-15
    with pytest.raises(PreconditionError):
        algebraic_plus(SeriesParams(0.25, 0.0, 10.0, "plus"))
    with pytest.raises(PreconditionError):
        algebraic_minus(SeriesParams(0.25, 0.0, 10.0))


def test_bessel_tail_minus_value_and_display():
    p = SeriesParams(0.5, 1.0, 3.0)
    ev, terms = bessel_tail_minus(p)
    assert ev.method == "bessel-tail-minus"
    # 40-digit reference: -6.3578382469545e-05
    assert abs(ev.value.real + 6.357838246954492e-05) < 1e-17
    assert ev.value.imag == 0.0  # real a collapses to 2 Re I2 exactly
    assert ev.tail_terms_used == 4
    mags = [t.magnitude for t in terms]
    assert mags == sorted(mags, reverse=True)
    assert terms[0].k == 0
    # the sin-form reconstruction agrees to the last digit
    alt = tail_display_form(0.5, 3.0, terms)
    assert abs(alt - ev.value.real) < 1e-19, (alt, ev.value.real)


def test_bessel_tail_plus_much_smaller():
    evm, _ = bessel_tail_minus(SeriesParams(0.5, 1.0, 3.0))
    evp, _ = bessel_tail_plus(SeriesParams(0.5, 1.0, 3.0, "plus"))
    # plus arguments start at 2 pi a rather than pi a
    assert abs(evp.value) < 1e-3 * abs(evm.value)
    assert abs(evp.value.real + 3.7054706565860077e-09) < 1e-21


def test_bessel_tail_conjugate_symmetry():
    up = SeriesParams(0.5, 1.0, 3.0 * cmath.exp(0.25j))
    dn = SeriesParams(0.5, 1.0, 3.0 * cmath.exp(-0.25j))
    va = bessel_tail_minus(up)[0].value
    vb = bessel_tail_minus(dn)[0].value
    assert abs(vb - va.conjugate()) <= 1e-15 * abs(va)


def test_bessel_tail_domain():
    for mu in (0.0, 1.0, 1.5):
        with pytest.raises(PreconditionError):
            bessel_tail_minus(SeriesParams(mu, 1.0, 3.0))
    with pytest.raises(PreconditionError):
        bessel_tail_minus(SeriesParams(0.5, 1.0, 3.0), n_terms=0)
    # steep a with large lam pushes X_0 out of the right half-plane
    with pytest.raises(PreconditionError):
        bessel_tail_minus(SeriesParams(0.5, 80.0, complex(0.05, 1.4)))
    with pytest.raises(PreconditionError):
        tail_display_form(1.5, 3.0, [])


def test_full_routes_match_direct():
    for sign in ("minus", "plus"):
        fn = full_minus if sign == "minus" else full_plus
        for mu in (0.25, 0.75):
            for a in (2.0, 6.0):
                p = SeriesParams(mu, 1.0, a, sign)
                ref = direct_sum(p).value.real
                got = fn(p).value.real
                assert abs(got - ref) <= 1e-10 * abs(ref), (sign, mu, a)
    pc = SeriesParams(0.5, 1.0, 4.0 * cmath.exp(0.2j * math.pi))
    ref_c = direct_sum(pc).value
    got_c = full_minus(pc).value
    assert abs(got_c - ref_c) <= 1e-10 * abs(ref_c)


def _explicit_sum(mu, lam, a, sign):
    """sum (+-1)^n e^(-lam n) / (n^2 + a^2)^mu at 40 digits, mpmath only.

    The omitted tail is below e^-95 / (1 - e^-lam).
    """

    with mpmath.workdps(40):
        mu, lam, a = mpmath.mpf(mu), mpmath.mpf(lam), mpmath.mpc(a)
        s = -1 if sign == "minus" else 1
        return mpmath.fsum(
            s**n * mpmath.exp(-lam * n) / (n * n + a * a) ** mu
            for n in range(int(95 / lam) + 10)
        )


def test_full_error_estimate_covers_actual_error():
    # the estimate carries a rounding floor eps * sum |part|; without it
    # full_plus reported 1.7e-18 at (1/2, 1, 6), against an actual error
    # of 1.6e-17
    cases = [
        (0.5, 1.0, 6.0, "plus"),
        (0.5, 1.0, 6.0, "minus"),
        (0.9, 8.0, 1.5, "minus"),
        (0.25, 0.3, 12.0, "plus"),
        (0.75, 4.0, 2.0, "plus"),
        (0.1, 1.0, 2.0, "minus"),
        (0.5, 1.0, 3 + 1j, "minus"),
        (0.75, 8.0, 3 + 1j, "minus"),
        (0.3, 0.3, 6 - 2j, "plus"),
        (0.9, 1.0, 10 + 4j, "plus"),
    ]
    for mu, lam, a, sign in cases:
        fn = full_minus if sign == "minus" else full_plus
        got = fn(SeriesParams(mu, lam, a, sign))
        ref = _explicit_sum(mu, lam, a, sign)
        with mpmath.workdps(40):
            actual = float(abs(mpmath.mpc(got.value) - ref))
        assert actual <= 2.0 * got.error_estimate, (mu, lam, a, sign, actual)
        assert got.error_estimate >= sys.float_info.epsilon * abs(got.value)


def _check_direct_sum(mu, lam, a, sign):
    got = direct_sum(SeriesParams(mu, lam, a, sign))
    ref = _explicit_sum(mu, lam, a, sign)
    with mpmath.workdps(40):
        actual = float(abs(mpmath.mpc(got.value) - ref))
    assert actual <= 2.0 * got.error_estimate, (mu, lam, a, sign, actual)


@pytest.mark.parametrize(
    "mu, lam, a, sign",
    [
        (0.77, 5.6, 1.25, "minus"),
        (0.51, 9.7, 4.1 - 1j, "plus"),
        (2.0, 2.85, 0.52, "minus"),
        (1.0, 7.8, 0.23 - 0.89j, "plus"),
        (0.43, 4.8, 42.7, "minus"),
        (0.35, 1.84, 0.21 + 0.59j, "minus"),
        (0.6, 1.5, 44 + 23j, "plus"),
    ],
)
def test_direct_sum_estimate_covers_rounding(mu, lam, a, sign):
    # the estimate is floored at eps * sum |term|; without the floor it
    # reported the omitted tail alone, down to 1e-25 here, against errors
    # of about 2e-16 relative
    _check_direct_sum(mu, lam, a, sign)


@pytest.mark.parametrize(
    "mu, lam, a",
    [(0.5, 0.01, 2.0), (1.5, 0.05, 5.0), (2.0, 0.05, 3 + 1j)],
)
def test_direct_sum_plus_meets_tol_at_small_lam(mu, lam, a):
    # with sign + the omitted tail is term/(1 - e^-lam); stopping at
    # |term| <= tol |S| left relative errors of 1e-14 to 1e-13 here
    got = direct_sum(SeriesParams(mu, lam, a, "plus"), tol=1e-15)
    ref = _explicit_sum(mu, lam, a, "plus")
    with mpmath.workdps(40):
        actual = float(abs(mpmath.mpc(got.value) - ref))
        rel = actual / float(abs(ref))
    assert rel <= 2e-15 and actual <= 2.0 * got.error_estimate, (mu, lam, a, rel)


def test_direct_sum_estimate_complex_a_large_mu():
    # the term exp(-mu log(n^2 + a^2)) lost about |mu log(n^2 + a^2)|
    # ulps here, and the error was 3.9x the estimate
    _check_direct_sum(3.0, 1.96, 24.07 - 10.75j, "minus")


@pytest.mark.parametrize(
    "mu, lam, a",
    [(7.845, 8.199, 8.665), (7.408, 1.572, 2.067), (7.039, 3.756, 4.153)],
)
def test_direct_sum_estimate_real_a_large_mu(mu, lam, a):
    # the rounding of a^2 is amplified by mu in the power; with a floor
    # of eps * sum |term| the error was 2.4x to 3.2x the estimate here
    _check_direct_sum(mu, lam, a, "plus")


def _complex_a_sweep(count):
    # seeded: mu from (0.02, 0.98) or {1, 2, 3}, lam log-uniform on
    # [0.1, 10], |a| log-uniform on [0.5, 60], |arg a| <= 1.4, both signs
    rng = random.Random(9)
    for i in range(count):
        if rng.random() < 0.5:
            mu = rng.uniform(0.02, 0.98)
        else:
            mu = float(rng.choice([1, 2, 3]))
        lam = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        mod = math.exp(rng.uniform(math.log(0.5), math.log(60.0)))
        yield mu, lam, cmath.rect(mod, rng.uniform(-1.4, 1.4)), ("minus" if i % 2 else "plus")


def test_direct_sum_estimate_complex_a_sweep():
    # the first 90 points of a 400-point sweep; with the exp-log term
    # and a floor of eps * sum |term|, 6 of them missed 2x their
    # estimate, by up to 8.5x
    for case in _complex_a_sweep(90):
        _check_direct_sum(*case)


def test_full_routes_near_mu_one_refuse_or_meet_estimate():
    # for mu >~ 0.96 the singular factor (d (2 - d))^-mu of H overflows
    # at subnormal node distances; that must surface as a refusal
    # (IntegrandError is a NonConvergenceError), never as OverflowError
    refused = 0
    for mu in (0.96, 0.99, 0.999):
        for lam in (1.0, 5.0):
            for mod in (1.5, 3.0, 10.0, 30.0):
                for a in (mod, mod * cmath.exp(0.3j)):
                    for sign in ("minus", "plus"):
                        fn = full_minus if sign == "minus" else full_plus
                        try:
                            got = fn(SeriesParams(mu, lam, a, sign))
                        except NonConvergenceError:
                            refused += 1
                            continue
                        ref = _explicit_sum(mu, lam, a, sign)
                        with mpmath.workdps(40):
                            actual = float(abs(mpmath.mpc(got.value) - ref))
                        assert actual <= 2.0 * got.error_estimate, (
                            mu, lam, a, sign, actual, got.error_estimate,
                        )
    assert 0 < refused < 96


def _large_a_grid():
    # seeded: |a| in [10, 40], mu in (0.05, 0.95), lam in [0.5, 8]; odd
    # points rotate a by up to 0.35 rad, which keeps the tail arguments
    # in the right half-plane at lam = 8
    rng = random.Random(1)
    cases = []
    for i in range(60):
        mod = rng.uniform(10.0, 40.0)
        mu = rng.uniform(0.05, 0.95)
        lam = rng.uniform(0.5, 8.0)
        a = mod if i % 2 == 0 else mod * cmath.exp(1j * rng.uniform(-0.35, 0.35))
        cases += [(mu, lam, a, "minus"), (mu, lam, a, "plus")]
    return cases


LARGE_A_GRID = _large_a_grid()
# points of LARGE_A_GRID where the H quadrature still refuses: the side
# scan stops at a zero of sin(lam a t) (ROADMAP item 1)
LARGE_A_REFUSALS = (13,)


def _check_full_route(mu, lam, a, sign):
    fn = full_minus if sign == "minus" else full_plus
    got = fn(SeriesParams(mu, lam, a, sign))
    ref = _explicit_sum(mu, lam, a, sign)
    with mpmath.workdps(40):
        actual = float(abs(mpmath.mpc(got.value) - ref))
    assert actual <= 2.0 * got.error_estimate, (mu, lam, a, sign, actual)


def test_full_routes_large_a_grid():
    # at |a| >~ 10 the H integrand is concentrated within ~1/(pi |a|) of
    # t = 0; a side scan that stopped at the small values near the
    # interval centre used to leave every refinement level empty, so the
    # quadrature refused at 55 of these 120 cases
    for i, case in enumerate(LARGE_A_GRID):
        if i not in LARGE_A_REFUSALS:
            _check_full_route(*case)


@pytest.mark.xfail(
    raises=NonConvergenceError,
    reason="ROADMAP item 1: the side scan stops at a zero of sin(lam a t)",
)
@pytest.mark.parametrize("index", LARGE_A_REFUSALS)
def test_full_routes_large_a_grid_refusals(index):
    _check_full_route(*LARGE_A_GRID[index])


def test_full_lam0_minus_reduction():
    p = SeriesParams(0.75, 0.0, 5.0)
    got = full_minus(p).value.real
    assert abs(got - 0.04472146216536063) < 1e-14


def test_full_domain():
    with pytest.raises(PreconditionError) as e:
        full_minus(SeriesParams(1.5, 1.0, 3.0))
    assert "direct_sum" in str(e.value)
    with pytest.raises(PreconditionError):
        full_minus(SeriesParams(0.0, 1.0, 3.0))
    with pytest.raises(PreconditionError):
        full_plus(SeriesParams(1.5, 1.0, 3.0, "plus"))
    with pytest.raises(PreconditionError):
        full_plus(SeriesParams(0.5, 0.0, 3.0, "plus"))


def test_lambda0_closed_forms():
    # mu = 1: (1 + pi csch pi)/2 and (1 + pi coth pi)/2 at a = 1
    got = olver_lambda0_minus(1.0, 1.0).value.real
    want = (1.0 + math.pi / math.sinh(math.pi)) / 2.0
    assert abs(got - want) < 1e-12 * want
    gp = lambda0_plus(1.0, 1.0).value.real
    wp = (1.0 + math.pi / math.tanh(math.pi)) / 2.0
    assert abs(gp - wp) < 1e-12 * wp
    # cotangent identity at a = 2: 1/(2a^2) + pi coth(pi a)/(2a)
    gp2 = lambda0_plus(1.0, 2.0).value.real
    wp2 = 0.125 + math.pi / (4.0 * math.tanh(2.0 * math.pi))
    assert abs(gp2 - wp2) < 1e-12 * wp2


def test_lambda0_against_summation_oracles():
    gm = olver_lambda0_minus(0.75, 5.0).value.real
    assert abs(gm - 0.04472146216536063) <= 1e-10 * 0.0447
    gp = lambda0_plus(0.75, 5.0).value.real
    assert abs(gp - 1.2173411460128138) <= 1e-10 * 1.2173
    # and both against the direct route in-process
    dm = direct_sum(SeriesParams(0.75, 0.0, 5.0, "minus")).value.real
    assert abs(gm - dm) <= 1e-12


def test_lambda0_domain():
    with pytest.raises(PreconditionError):
        olver_lambda0_minus(0.0, 1.0)
    with pytest.raises(PreconditionError):
        lambda0_plus(0.5, 1.0)
    with pytest.raises(PreconditionError):
        olver_lambda0_minus(0.5, -1.0)


def test_integer_mu_closed_forms():
    got = integer_mu_closed_form(2, SeriesParams(2.0, 1.0, 2.0, "minus"))
    assert abs(got.value.real - 0.04964389879410491) < 1e-16
    gp = integer_mu_closed_form(3, SeriesParams(3.0, 1.0, 3.0, "plus"))
    assert abs(gp.value.real - 0.0018111350531342925) < 1e-17
    for n in (1, 2, 3):
        for a in (2.0, 3.0):
            for sign in ("minus", "plus"):
                p = SeriesParams(float(n), 1.0, a, sign)
                ref = direct_sum(p).value.real
                v = integer_mu_closed_form(n, p).value.real
                assert abs(v - ref) <= 1e-12 * abs(ref), (n, a, sign)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_integer_mu_closed_forms_complex_a(n):
    # complex a sums F_m(a) and F_m(-a) as two series (no conjugate pair)
    for a, lam, sign in (
        (2 + 1j, 1.0, "minus"),
        (3 - 2j, 0.5, "plus"),
        (1.5 + 0.5j, 2.0, "plus"),
        (6 + 4j, 0.3, "minus"),
    ):
        got = integer_mu_closed_form(n, SeriesParams(float(n), lam, a, sign))
        ref = _explicit_sum(float(n), lam, a, sign)
        with mpmath.workdps(40):
            actual = float(abs(mpmath.mpc(got.value) - ref))
            rel = actual / float(abs(ref))
        assert rel <= 2e-15 and actual <= got.error_estimate, (n, a, lam, sign, rel)


def test_integer_mu_domain():
    with pytest.raises(PreconditionError):
        integer_mu_closed_form(6, SeriesParams(6.0, 1.0, 2.0))
    with pytest.raises(PreconditionError):
        integer_mu_closed_form(2, SeriesParams(2.5, 1.0, 2.0))
    with pytest.raises(PreconditionError):
        integer_mu_closed_form(2, SeriesParams(2.0, 0.0, 2.0))


def test_j_routes():
    got = j_mu_quadrature(SeriesParams(0.25, 1.0, 10.0, "plus"))
    assert abs(got.value.real - 0.31474593725834105) < 1e-13
    assert abs(
        j_mu_quadrature(SeriesParams(0.5, 2.0, 3.0, "plus")).value.real
        - 0.16279630104619588
    ) < 1e-13
    assert abs(
        j_mu_quadrature(SeriesParams(0.75, 1.0, 2.0, "plus")).value.real
        - 0.2956621132378796
    ) < 1e-13
    # mu = 0 is exactly 1/lam
    v0 = j_mu_quadrature(SeriesParams(0.0, 2.0, 1.0, "plus"))
    assert v0.value.real == 0.5
    # the asymptotic form is divergent; at lam*a = 10 its floor is
    # ~1.4e-5 relative, so only order-of-magnitude agreement is owed
    asym = j_mu_asymptotic(SeriesParams(0.25, 1.0, 10.0, "plus"), K=5)
    assert abs(asym.value.real - got.value.real) < 5e-5 * got.value.real
    with pytest.raises(PreconditionError):
        j_mu_quadrature(SeriesParams(0.25, 0.0, 10.0, "plus"))
    with pytest.raises(PreconditionError):
        j_mu_asymptotic(SeriesParams(0.25, 0.0, 10.0, "plus"))


def test_mu_step_recurrence():
    defect = mu_step_check(SeriesParams(0.5, 1.0, 4.0), h=1e-4)
    assert defect < 1e-7, defect
    with pytest.raises(PreconditionError):
        mu_step_check(SeriesParams(1.5, 1.0, 4.0))
    with pytest.raises(PreconditionError):
        mu_step_check(SeriesParams(0.5, 1.0, complex(4.0, 1.0)))
