"""Evaluation routes for the two parameter sums and their cross-checks."""

import cmath
import itertools
import math
import pickle
import random
import re
import sys

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
from mxsum import evaluators
from mxsum.evaluators import _TAIL_CAP, _kv_bound
from mxsum.oracles import branch_cut, explicit_sum, lambda0_sum, laplace


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
    with pytest.raises(AttributeError):
        p.mu = 1.0
    assert p.mu == 0.5
    # copies are checked as well: _full_rotated and mu_step_check make
    # theirs with _replace
    for change in (dict(a=-1.0), dict(sign="both")):
        with pytest.raises(PreconditionError):
            p._replace(**change)
    for q in (p._replace(mu=1), SeriesParams(1, 0, 2)):
        assert [type(x) for x in q[:3]] == [float, float, complex]
    assert pickle.loads(pickle.dumps(p)) == p


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
    ref = lambda0_sum(mu, a, sign).value
    actual = _meets_estimate(got, ref)[1]
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
    # the head of 3|a| + 50 terms, whose cost grows with |a| (1.5 s and
    # 250 MB at a = 1e6), is refused past the 5 million term budget of
    # lam > 0
    with pytest.raises(NonConvergenceError, match="lambda0_plus"):
        direct_sum(SeriesParams(0.75, 0.0, 2e6, "plus"))
    # every branch refuses a tol outside (0, 1) before summing: at lam > 0
    # a tol <= 0 or nan summed the 5 million terms of the budget and then
    # refused, and tol >= 1 stopped after a few terms
    for lam, sign in ((1.0, "minus"), (0.0, "minus"), (0.0, "plus")):
        p = SeriesParams(0.75, lam, 3.0, sign)
        for tol in (-1.0, 0.0, 1.0, math.inf, math.nan):
            with pytest.raises(PreconditionError, match=r"tol must lie in \(0, 1\)"):
                direct_sum(p, tol=tol)


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: algebraic_minus's estimate leaves out the "
    "smaller Bessel sum, the error beyond the algebraic series",
)
def test_algebraic_minus_estimate_sweep():
    # seeded, the first 20 points inside the tail's sector pi Re a >
    # lam |Im a|: mu in (0.05, 0.95), lam log-uniform on [0.1, 5], |a|
    # log-uniform on [3, 30], |arg a| <= 1.2
    rng = random.Random(5)
    misses = []
    checked = 0
    while checked < 20:
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
        a = cmath.rect(math.exp(rng.uniform(math.log(3.0), math.log(30.0))), rng.uniform(-1.2, 1.2))
        if not math.pi * a.real > lam * abs(a.imag):
            continue
        checked += 1
        got = algebraic_minus(SeriesParams(mu, lam, a), K=8)
        ok, actual = _meets_estimate(got, explicit_sum(mu, lam, a, "minus").value)
        if not ok:
            misses.append((mu, lam, a, actual / got.error_estimate))
    assert not misses, misses


def test_bessel_tail_minus_value_and_display():
    p = SeriesParams(0.5, 1.0, 3.0)
    ev, terms = bessel_tail_minus(p)
    assert ev.method == "bessel-tail-minus"
    # 40-digit reference: -6.3578382469545e-05
    assert abs(ev.value.real + 6.357838246954492e-05) < 1e-17
    assert ev.value.imag == 0.0  # real a collapses to 2 Re I2 exactly
    # the bound on the fourth term stops the sum: 3 terms (4 with the
    # K_nu call that only confirmed the stop)
    assert ev.tail_terms_used == 3
    mags = [t.magnitude for t in terms]
    assert mags == sorted(mags, reverse=True)
    assert terms[0].k == 0
    # the sin-form reconstruction agrees to the last digit
    alt = tail_display_form(0.5, 3.0, terms)
    assert abs(alt - ev.value.real) < 1e-19, (alt, ev.value.real)
    assert repr(alt) == "-6.357838246954497e-05"
    assert tail_display_form(0.5, 3, terms) == alt


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
    # steep a with large lam pushes X_0 out of the right half-plane
    with pytest.raises(PreconditionError):
        bessel_tail_minus(SeriesParams(0.5, 80.0, complex(0.05, 1.4)))
    with pytest.raises(PreconditionError):
        tail_display_form(1.5, 3.0, [])
    # the sin form holds for real a > 0 only: at a = 3 + 0.5i it gave
    # 9.35e-6 against the tail's 6.05e-6 + 7.10e-5i, at a = -3 a complex
    # number
    _, terms = bessel_tail_minus(SeriesParams(0.5, 1.0, complex(3.0, 0.5)))
    for a in (complex(3.0, 0.5), complex(3.0, 0.0), -3.0, 0.0, math.nan):
        with pytest.raises(PreconditionError):
            tail_display_form(0.5, a, terms)


def test_expansions_refuse_a_bad_truncation_index():
    # an expansion truncated at K sums k = 0 .. K: a negative K summed
    # nothing (j_mu_asymptotic returned 0.0) or the lead term alone (both
    # algebraic routes returned 1/(2 a^(2 mu))), and a K that is not an
    # int raised TypeError or the coefficient generators' refusal
    minus = SeriesParams(0.5, 1.0, 8.0)
    plus = SeriesParams(0.5, 1.0, 8.0, "plus")
    # the algebraic routes read c_(K+1), so K = 100 met the coefficient
    # generators' refusal of an index bound in [0, 100]
    for route, p in (
        (algebraic_minus, minus),
        (algebraic_plus, plus),
        (j_mu_asymptotic, minus),
        (j_mu_asymptotic, plus),
    ):
        capped = (100,) if route is not j_mu_asymptotic else ()
        for K in (-1, -3, 2.0, "2", None, *capped):
            with pytest.raises(PreconditionError, match="truncation index"):
                route(p, K=K)
        # K = 0 is the lead term of each series
        assert route(p, K=0).truncation_index == 0


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


def test_bessel_tail_term_cap_refuses():
    # at Re a = 0.08 the terms fall by e^(-2 pi 0.08) ~ 0.6 a term, and
    # the 1e-18 stop takes 77 of them (78 before the bound on the next
    # term saved the one that confirmed the stop); a fixed 30 used to
    # refuse here.
    # Every sum may take up to 10^4 + 30 terms, which Re a = 5e-4 would
    # need more than: there the sum refuses
    tail, terms = bessel_tail_minus(SeriesParams(0.5, 1.0, 0.08))
    assert tail.tail_terms_used == len(terms) == 77
    with pytest.raises(NonConvergenceError, match="budget of 10030 terms"):
        bessel_tail_minus(SeriesParams(0.5, 1.0, 5e-4))


TWINS = [
    (h_minus_quadrature, "minus"),
    (h_plus_quadrature, "plus"),
    (small_a_minus, "minus"),
    (algebraic_minus, "minus"),
    (algebraic_plus, "plus"),
    (bessel_tail_minus, "minus"),
    (bessel_tail_plus, "plus"),
    (full_minus, "minus"),
    (full_plus, "plus"),
    (olver_lambda0_minus, "minus"),
    (lambda0_plus, "plus"),
]


@pytest.mark.parametrize("route, sign", TWINS, ids=[r.__name__ for r, _ in TWINS])
def test_twin_routes_refuse_the_other_sign(route, sign):
    # full_minus(SeriesParams(0.5, 1, 3, "plus")) used to return S^-,
    # 0.2456, where S^+ is 0.5043
    lam = 0.0 if "lambda0" in route.__name__ else 1.0
    p = SeriesParams(0.75, lam, 0.5 if route is small_a_minus else 3.0, sign)
    route(p)
    other = "plus" if sign == "minus" else "minus"
    with pytest.raises(PreconditionError, match=route.__name__):
        route(p._replace(sign=other))


def _lambda0(p):
    return (olver_lambda0_minus if p.sign == "minus" else lambda0_plus)(p)


def _budget_grid():
    # mu in 0.05 .. 10, Re a log-uniform on 1e-3 .. 5, three points in
    # four at complex a (|Im a| up to 30), both bases: the lam = 0 routes
    # for every mu, the tails at lam > 0 for mu < 1; yields (route, params)
    rng = random.Random(19)
    for i in range(60):
        mu = math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
        re_a = math.exp(rng.uniform(math.log(1e-3), math.log(5.0)))
        im_a = (0.0, rng.uniform(-3.0, 3.0), rng.uniform(-30.0, 30.0), -0.27)[i % 4]
        a = complex(re_a, im_a)
        sign = "plus" if i % 3 == 2 else "minus"
        p = SeriesParams(mu, 0.0, a, sign)
        if sign == "minus" or mu > 0.5:
            yield _lambda0, p
        if mu < 1.0:
            # lam > 0, inside the tail's sector base pi Re a > lam |Im a|
            base = 1.0 if sign == "minus" else 2.0
            lam = rng.uniform(0.05, 5.0)
            if im_a:
                lam = min(lam, 0.9 * base * math.pi * re_a / abs(im_a))
            tail = bessel_tail_minus if sign == "minus" else bessel_tail_plus
            yield (lambda q, tail=tail: tail(q)[0]), p._replace(lam=lam)


def test_tail_budget_covers_every_bessel_sum():
    # each sum of _budget_grid either stops below the one cap of every
    # Bessel sum or refuses at it
    assert _TAIL_CAP == 10030
    for route, q in _budget_grid():
        try:
            used = route(q).tail_terms_used
        except NonConvergenceError as exc:
            assert "budget of 10030 terms" in str(exc), q
            continue
        assert used < _TAIL_CAP, q


# the terms each sum of _budget_grid took when it stopped only on a term
# below 1e-18 of its sum, before the bound on the next term could stop it
CONFIRMED_STOP_TERMS = (
    10, 3, 3, 365, 49, 49, 229, 229, 14, 4, 4, 59, 59, 31, 106, 106, 5, 5,
    236, 492, 493, 21, 21, 3745, 6583, 1236, 1237, 5, 33, 4, 3, 10, 10, 12,
    12, 5, 581, 3539, 3539, 142, 248, 248, 3, 194, 194, 41, 41, 444, 62, 64,
    855, 1616, 126, 126, 27, 1981, 9, 1790, 1800, 73, 73, 9, 9, 1136, 1136,
    3219, 3219, 4, 284, 2429, 5, 2980, 2980, 4, 7, 7, 1534, 1535, 28, 3, 3,
    47, 47, 3, 1337, 1337, 1578, 301,
)


def test_bound_stop_never_takes_more_terms():
    # the bound on the next term can only end a sum early: at most the
    # one term that confirmed the old stop is saved, and none is added
    used = [route(q).tail_terms_used for route, q in _budget_grid()]
    assert len(used) == len(CONFIRMED_STOP_TERMS)
    for got, old in zip(used, CONFIRMED_STOP_TERMS):
        assert old - 1 <= got <= old, (got, old)
    assert sum(CONFIRMED_STOP_TERMS) - sum(used) == 82


def test_kv_bound_against_30_digits():
    # DLMF 10.40.10-11 with one term: |(2/Z)^nu K_nu(Z)| <= _kv_bound on
    # a seeded grid of every order the routes pass (nu = 1/2 - mu, mu in
    # (0, 10]), |Z| log-uniform on [0.05, 200] and |arg Z| up to the edge
    # of the half-plane, against 30-digit mpmath; from |Z| = 1 at
    # |nu| <= 1/2 the bound is also within 1.5x of the term
    rng = random.Random(27)
    grid = [(0.5, 1.0, 0.0), (-0.5, 3.0, 1.0), (0.0, 0.05, -1.0), (-9.5, 200.0, 0.0)]
    for i in range(400):
        nu = rng.uniform(-0.5, 0.5) if i % 2 else rng.uniform(-9.5, 0.5)
        r = math.exp(rng.uniform(math.log(0.05), math.log(200.0)))
        # arg Z as a fraction of the edge; every fifth point on the edge
        edge = rng.choice((-1.0, 1.0)) if i % 5 == 0 else rng.uniform(-1.0, 1.0)
        grid.append((nu, r, edge))
    worst = loosest = 0.0
    with mpmath.workdps(30):
        for nu, r, edge in grid:
            Z = cmath.rect(r, edge * (math.pi / 2 - 1e-9))
            z = mpmath.mpc(Z)
            exact = float(abs((2 / z) ** nu * mpmath.besselk(nu, z)))
            bound = _kv_bound(nu, Z)
            worst = max(worst, exact / bound)
            if abs(nu) <= 0.5 and r >= 1.0:
                loosest = max(loosest, bound / exact)
    assert worst <= 1.0, worst
    assert loosest <= 1.5, loosest


def test_bessel_tails_skip_the_confirming_kv_call(monkeypatch):
    # the K_nu calls of the tails: the bound on the next term saves the
    # call that only confirmed the stop (2, 4 and 5 calls before)
    calls = []
    kv = evaluators.kv_complex
    monkeypatch.setattr(evaluators, "kv_complex", lambda nu, z: calls.append(z) or kv(nu, z))
    for tail, p, want in [
        (bessel_tail_minus, SeriesParams(0.5, 1.0, 10.0), 1),
        (bessel_tail_minus, SeriesParams(0.5, 1.0, 3.0), 3),
        (bessel_tail_plus, SeriesParams(0.5, 1.0, 2.0, "plus"), 4),
    ]:
        calls.clear()
        assert tail(p)[0].tail_terms_used == want
        assert len(calls) == want, (p, calls)


def test_full_routes_at_small_re_a():
    # the full routes give their Bessel sums about ln(1e18)/(2 pi Re a)
    # terms (78 to 208 are needed here); a fixed 30 left full_minus at
    # a = 0.08 2.4x and full_plus at a = 0.05 3.5x off their estimates
    for a, sign in [(0.08, "minus"), (0.05, "plus"), (0.03 + 1.2j, "minus"), (0.03 + 1.2j, "plus")]:
        _check_full_route(0.5, 1.0, a, sign)


def test_full_routes_at_tiny_re_a():
    # 553 to 5474 Bessel terms: summed with a plain +=, their rounding
    # left six of these points 2.4x to 19.9x off their estimates; the
    # sums are now compensated, and the stop (tail_terms_used) is the same
    cases = [
        (0.1, 5.0, 0.01, "minus"),
        (0.1, 5.0, 0.01, "plus"),
        (0.3, 2.0, 0.001, "minus"),
        (0.5, 1.0, 0.001, "minus"),
        (0.5, 1.0, 0.001, "plus"),
        (0.3, 2.0, 0.003, "plus"),
        (0.7, 0.5, 0.01, "minus"),
        (0.9, 1.0, 0.003, "plus"),
    ]
    for case in cases:
        _check_full_route(*case)


def _tail_minus_40(mu, lam, a):
    """The Bessel tail I2 + I3 of the alternating sum at 40 digits (40
    terms; each is down by e^(-2 pi Re a) on the one before)."""

    with mpmath.workdps(40):
        mu, lam, a = mpmath.mpf(mu), mpmath.mpf(lam), mpmath.mpc(a)
        nu = mpmath.mpf(0.5) - mu
        sums = []
        for s in (1, -1):
            z = [(2 * k + 1) * mpmath.pi * a + s * 1j * lam * a for k in range(40)]
            sums.append(mpmath.fsum((2 / x) ** nu * mpmath.besselk(nu, x) for x in z))
        g = mpmath.gamma(1 - mu) / mpmath.sqrt(mpmath.pi) * a ** (1 - 2 * mu)
        e = mpmath.exp(1j * mpmath.pi * mu)
        return 1j * g * (sums[0] / e - e * sums[1])


def test_small_a_minus_estimate_sweep():
    # the H oracle closes S = 1/(2 a^(2mu)) + H + tail against the
    # 40-digit explicit sum, at the strongest endpoint singularity
    for mu, lam, a in [(0.8, 3.0, 0.99), (0.2, 1.0, cmath.rect(0.75, 0.3))]:
        with mpmath.workdps(40):
            lead = 1 / (2 * mpmath.mpc(a) ** (2 * mpmath.mpf(mu)))
            rest = explicit_sum(mu, lam, a, "minus").value - lead - _tail_minus_40(mu, lam, a)
            assert abs(rest - branch_cut(mu, lam, a, "minus")) < 1e-35, (mu, lam, a)
    # the estimate was the bare truncation bound: 0.0 at seven of these
    # points, and 30 of the 81 near |a| = 1 that return missed 2x (up to
    # 8.9x at (0.8, 0.3, 1)); at |a| = 0.5, where that bound sits below
    # the rounding, up to 645x. It is now floored at the rounding of the
    # prefactor and the terms
    for mu, lam, mod, arg in itertools.product(
        (0.2, 0.5, 0.8), (0.3, 1.0, 3.0), (0.5, 0.75, 0.9, 0.99, 1.0), (0.0, 0.3, 0.8)
    ):
        a = cmath.rect(mod, arg) if arg else mod
        try:
            got = small_a_minus(SeriesParams(mu, lam, a))
        except NonConvergenceError:  # the acceleration near |a| = 1 at steep arg
            assert mod > 0.7 and arg == 0.8, (mu, lam, mod, arg)
            continue
        ok, actual = _meets_estimate(got, branch_cut(mu, lam, a, "minus"))
        assert ok, (mu, lam, mod, arg, actual, got.error_estimate)
    # at large lam the terms grow for a few k before they fall; the
    # plain branch used to take that for divergence and refuse, as at
    # (0.9, 12, 0.5)
    for mu, lam, mod, arg in itertools.product(
        (0.1, 0.5, 0.9), (8.0, 12.0, 16.0, 20.0), (0.3, 0.5, 0.7), (0.0, 0.8)
    ):
        a = cmath.rect(mod, arg) if arg else mod
        got = small_a_minus(SeriesParams(mu, lam, a))
        ok, actual = _meets_estimate(got, branch_cut(mu, lam, a, "minus"))
        assert ok, (mu, lam, mod, arg, actual, got.error_estimate)


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
    for case in cases:
        got = _check_full_route(*case)
        assert got.error_estimate >= sys.float_info.epsilon * abs(got.value)


def _check(route, mu, lam, a, sign):
    got = route(SeriesParams(mu, lam, a, sign))
    ok, actual = _meets_estimate(got, explicit_sum(mu, lam, a, sign).value)
    assert ok, (route.__name__, mu, lam, a, sign, got.tail_terms_used, actual, got.error_estimate)
    return got


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
    _check(direct_sum, mu, lam, a, sign)


@pytest.mark.parametrize(
    "mu, lam, a",
    [(0.5, 0.01, 2.0), (1.5, 0.05, 5.0), (2.0, 0.05, 3 + 1j)],
)
def test_direct_sum_plus_meets_tol_at_small_lam(mu, lam, a):
    # with sign + the omitted tail is term/(1 - e^-lam); stopping at
    # |term| <= tol |S| left relative errors of 1e-14 to 1e-13 here
    got = direct_sum(SeriesParams(mu, lam, a, "plus"), tol=1e-15)
    ref = explicit_sum(mu, lam, a, "plus").value
    ok, actual = _meets_estimate(got, ref)
    assert actual / float(abs(ref)) <= 2e-15 and ok, (mu, lam, a, actual)


def test_direct_sum_estimate_complex_a_large_mu():
    # the term exp(-mu log(n^2 + a^2)) lost about |mu log(n^2 + a^2)|
    # ulps here, and the error was 3.9x the estimate
    _check(direct_sum, 3.0, 1.96, 24.07 - 10.75j, "minus")


@pytest.mark.parametrize(
    "mu, lam, a",
    [(7.845, 8.199, 8.665), (7.408, 1.572, 2.067), (7.039, 3.756, 4.153)],
)
def test_direct_sum_estimate_real_a_large_mu(mu, lam, a):
    # the rounding of a^2 is amplified by mu in the power; with a floor
    # of eps * sum |term| the error was 2.4x to 3.2x the estimate here
    _check(direct_sum, mu, lam, a, "plus")


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
        _check(direct_sum, *case)


def test_direct_sum_estimate_near_imaginary_integers():
    # seeded: a near +-i n, n in 1..8, Re a log-uniform on [1e-4, 0.1],
    # mu in (0.05, 0.95), lam log-uniform on [0.1, 3.2], both signs.
    # n*n + a^2 with a^2 rounded first cancels there: 39 of these 80
    # values missed 2x of their estimate, the worst by 260x
    rng = random.Random(23)
    for i in range(80):
        n = rng.randint(1, 8)
        re = math.exp(rng.uniform(math.log(1e-4), math.log(0.1)))
        im = rng.choice((-1.0, 1.0)) * (n + rng.uniform(-1e-3, 1e-3))
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.1), math.log(3.2)))
        _check(direct_sum, mu, lam, complex(re, im), "minus" if i % 2 else "plus")


def test_direct_sum_lam0_minus_estimate_sweep():
    # seeded: mu in (0.05, 4), |a| log-uniform on [0.5, 60], every other
    # a rotated by up to 1.2 rad. The estimate used to be the CVZ
    # order-to-order delta alone: 55 of the 135 values missed 2x of it,
    # some with estimate 0. Refusals are allowed (15 here, at complex a).
    rng = random.Random(10)
    returned = 0
    for i in range(150):
        mu = rng.uniform(0.05, 4.0)
        a = math.exp(rng.uniform(math.log(0.5), math.log(60.0)))
        if i % 2:
            a *= cmath.exp(1j * rng.uniform(-1.2, 1.2))
        try:
            got = direct_sum(SeriesParams(mu, 0.0, a, "minus"))
        except NonConvergenceError:
            continue
        returned += 1
        ok, actual = _meets_estimate(got, lambda0_sum(mu, a, "minus").value)
        assert ok, (mu, a, actual, got.error_estimate)
    assert returned == 135
    # sign +, seeded: mu in (0.55, 4), |a| log-uniform on [0.5, 1e4], every
    # other a rotated by up to 1.2 rad. The estimate used to be the next
    # Euler-Maclaurin correction alone, with no rounding floor: 31 of these
    # 80 values missed 2x of it, by up to 1.3e10x at |a| near 1e4
    rng = random.Random(32)
    for i in range(80):
        mu = rng.uniform(0.55, 4.0)
        a = math.exp(rng.uniform(math.log(0.5), math.log(1e4)))
        if i % 2:
            a *= cmath.exp(1j * rng.uniform(-1.2, 1.2))
        got = direct_sum(SeriesParams(mu, 0.0, a, "plus"))
        ok, actual = _meets_estimate(got, lambda0_sum(mu, a, "plus").value)
        assert ok, (mu, a, actual, got.error_estimate)


def test_full_routes_near_mu_one_meet_estimate():
    # in t = tanh(sigma u) the H integrand has no singular factor; the
    # factor (d (2 - d))^-mu of the tanh-sinh era overflowed at subnormal
    # node distances for mu >~ 0.96, and 60 of these 120 points refused
    for mu in (0.96, 0.99, 0.999):
        for lam in (1.0, 5.0):
            for mod in (1.5, 3.0, 10.0, 30.0, 60.0):
                for a in (mod, mod * cmath.exp(0.3j)):
                    for sign in ("minus", "plus"):
                        _check_full_route(mu, lam, a, sign)


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


def _check_full_route(mu, lam, a, sign):
    return _check(full_minus if sign == "minus" else full_plus, mu, lam, a, sign)


def test_full_routes_large_a_grid():
    # at |a| >~ 10 the H integrand is concentrated within ~1/(pi |a|) of
    # t = 0. On (0, 1) a side scan that stopped at the small values near
    # the interval centre left every refinement level empty (55 of these
    # 120 cases refused), and later one that stopped at a zero of
    # sin(lam a t) before the peak (case 13); in u, with t = tanh(sigma u),
    # the peak sits at the centre of the rule
    for case in LARGE_A_GRID:
        _check_full_route(*case)


def _meets_estimate(got, ref):
    with mpmath.workdps(40):
        actual = float(abs(mpmath.mpc(got.value) - ref))
    return actual <= 2.0 * got.error_estimate, actual


def _sector_edge_sweep():
    # seed 23, benchmark ranges; three in four points at 0.8-0.99 of the
    # tail's sector limit atan(b pi/lam), b = 1 (minus) or 2 (plus), the
    # fourth beyond the limit, at either sign of arg a
    rng = random.Random(23)
    cases = []
    for i in range(120):
        sign = ("minus", "plus")[i % 2]
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        mod = math.exp(rng.uniform(math.log(1.5), math.log(40.0)))
        limit = math.atan((1.0 if sign == "minus" else 2.0) * math.pi / lam)
        if i % 4 < 3:
            arg = rng.uniform(0.8, 0.99) * limit
        else:
            arg = limit + rng.uniform(0.02, 0.9) * (0.5 * math.pi - limit)
        if rng.random() < 0.5:
            arg = -arg
        cases.append((mu, lam, cmath.rect(mod, arg), sign))
    return cases


def test_full_routes_sector_edge_sweep():
    # every point returns within 2x of its estimate. Before the rotated
    # path (|Im a| >= 1) 31 of them refused, 30 beyond the limit, and 2
    # missed, up to 4.2x: at (0.879, 6.858, 1.98 - 0.86i, -), on the
    # straight path, H and the tail cancel, and the tail's estimate now
    # carries the eps |X_k| rounding of each term
    for case in _sector_edge_sweep():
        _check_full_route(*case)


def test_full_routes_outside_tail_sector():
    # every Y_k = ((2k + b) pi - i lam) a has Re Y_k = b pi Re a +
    # lam Im a > 0 for Im a > 0, so at |Im a| >= 1 the routes return where
    # the tail's sector b pi Re a > lam |Im a| does not hold
    for mu, lam, a, sign in [
        (0.5, 5.0, 1 + 3j, "minus"),
        (0.3, 8.0, 2 + 10j, "plus"),
        (0.7, 3.0, 0.5 - 2j, "minus"),
        (0.9, 6.0, 1.2 - 4j, "plus"),
        (0.2, 2.0, 0.05 + 1.0j, "minus"),
    ]:
        b = 1.0 if sign == "minus" else 2.0
        assert b * math.pi * a.real <= lam * abs(a.imag)
        _check_full_route(mu, lam, a, sign)
    # below |Im a| = 1 the straight path needs the tail's sector
    for a, sign in [
        (0.1 + 0.99j, "minus"),
        (0.2 - 0.9j, "plus"),
        (complex(1.0, 1.0 - 1e-9), "minus"),
    ]:
        fn = full_minus if sign == "minus" else full_plus
        with pytest.raises(PreconditionError):
            fn(SeriesParams(0.5, 8.0, a, sign))


def test_full_rotated_path_conjugate_symmetry():
    # Im a < 0 is served as conj S(conj a): the same bits, conjugated
    for mu, lam, a in [(0.5, 1.0, 4 + 1j), (0.3, 2.0, 5 + 2j), (0.9, 7.0, 1 + 3j), (0.1, 0.05, 0.3 + 25j)]:
        for fn, sign in ((full_minus, "minus"), (full_plus, "plus")):
            up = fn(SeriesParams(mu, lam, a, sign))
            dn = fn(SeriesParams(mu, lam, a.conjugate(), sign))
            assert repr(dn.value) == repr(up.value.conjugate())
            assert (dn.error_estimate, dn.tail_terms_used, dn.notes) == (
                up.error_estimate, up.tail_terms_used, up.notes,
            )


def test_full_paths_agree_at_im_a_one():
    # the straight path at |Im a| = 1 - 1e-9 and the rotated one at
    # 1 + 1e-9: their difference matches that of the 40-digit sums to
    # within the two estimates
    for mu, lam, x in [(0.5, 1.0, 4.0), (0.2, 6.0, 8.0), (0.9, 0.1, 1.5), (0.6, 2.5, 2.0)]:
        for fn, sign in ((full_minus, "minus"), (full_plus, "plus")):
            for s in (1.0, -1.0):
                lo = complex(x, s * (1.0 - 1e-9))
                hi = complex(x, s * (1.0 + 1e-9))
                e_lo = fn(SeriesParams(mu, lam, lo, sign))
                e_hi = fn(SeriesParams(mu, lam, hi, sign))
                with mpmath.workdps(40):
                    want = explicit_sum(mu, lam, hi, sign).value
                    want -= explicit_sum(mu, lam, lo, sign).value
                    gap = float(abs(mpmath.mpc(e_hi.value) - mpmath.mpc(e_lo.value) - want))
                assert gap <= e_lo.error_estimate + e_hi.error_estimate, (mu, lam, lo, sign, gap)


def test_full_rotated_path_diagnostics():
    # notes count the ray integral's evaluations, as they counted H's;
    # tail_terms_used counts the subdominant sum over Y_k, here at a point
    # outside the tail's sector, where the X_k sum is not even defined.
    # The sum stops once a term, or the Hankel bound (DLMF 10.40.10, one
    # term) on the next one, falls below 1e-18 of the sum
    for a in (3 + 4j, 1 + 3j, 0.2 - 1.5j):
        mu, lam = 0.5, 5.0
        got = full_minus(SeriesParams(mu, lam, a))
        assert re.fullmatch(r"\d+ integrand evaluations", got.notes), got.notes
        q = a if a.imag > 0 else a.conjugate()
        with mpmath.workdps(30):
            nu = mpmath.mpf(0.5) - mu
            acc = 0
            for k in itertools.count():
                Y = ((2 * k + 1) * mpmath.pi - 1j * lam) * mpmath.mpc(q)
                w = (2 / Y) ** nu * mpmath.besselk(nu, Y)
                acc += w
                r = abs(Y + 2 * mpmath.pi * q)
                b = abs(nu * nu - 0.25) / r
                bound = (
                    (2 / r) ** nu * mpmath.sqrt(mpmath.pi / (2 * r))
                    * mpmath.exp(-(Y + 2 * mpmath.pi * q).real) * (1 + b * mpmath.exp(b))
                )
                if abs(w) <= 1e-18 * abs(acc) or bound <= 1e-18 * abs(acc):
                    break
        assert got.tail_terms_used == k + 1, (a, got.tail_terms_used, k + 1)
    assert full_plus(SeriesParams(0.5, 5.0, 3 + 4j, "plus")).notes == ""


def _rotated_sweep():
    # seed 31: the rotated path's whole range, |Im a| log-uniform on
    # [1, 10] and arg a log-uniform on [0.05, 1.5], so Re a reaches 200;
    # lam log-uniform on [0.05, 20], either sign of Im a and of the sum
    rng = random.Random(31)
    cases = []
    for i in range(64):
        sign = ("minus", "plus")[i % 2]
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        arg = math.exp(rng.uniform(math.log(0.05), math.log(1.5)))
        im = math.exp(rng.uniform(0.0, math.log(10.0)))
        cases.append((mu, lam, complex(im / math.tan(arg), rng.choice((-1, 1)) * im), sign))
    return cases


def test_full_routes_rotated_estimate_sweep():
    # the ray integral runs on x = c u, c = max(1, 4 min(1, pi/lam)),
    # and its sides end at their first negligible node; every point
    # stays within 2x of its estimate (the worst at 0.92)
    for case in _rotated_sweep():
        _check_full_route(*case)


def test_ray_evaluations_at_large_lam():
    # where sin(lam x) swings many times per decay length of the ray's
    # integrand; the counts before the ray's scale and the one-node stop
    # were 748, 1470, 5735 and 22744, and must not grow back
    for lam, a, most in [
        (20.0, 10 + 3j, 748),
        (50.0, 30 + 2j, 1470),
        (200.0, 100 + 1.5j, 5735),
        (1000.0, 300 + 1.2j, 22744),
    ]:
        got = _check_full_route(0.5, lam, a, "minus")
        evaluations = int(got.notes.split()[0])
        assert evaluations <= most, (lam, a, evaluations)


@pytest.mark.parametrize("a", [230.0, 300.0, 1000.0, 300 + 0.5j])
def test_h_and_full_routes_beyond_sinh_overflow(a):
    # pi Re(a t) passes 710 inside (0, 1) here, where sinh overflowed and
    # every H and full route refused
    mu, lam = 0.5, 1.0
    for sign in ("minus", "plus"):
        # H = S - 1/(2 a^(2 mu)) [- J]; the tail, below e^(-pi 230), is dropped
        with mpmath.workdps(40):
            s = explicit_sum(mu, lam, a, sign).value
            h = s - mpmath.mpc(a) ** (-2 * mpmath.mpf(mu)) / 2
            h -= laplace(mu, lam, a) if sign == "plus" else 0
        hq = h_minus_quadrature if sign == "minus" else h_plus_quadrature
        fn = full_minus if sign == "minus" else full_plus
        p = SeriesParams(mu, lam, a, sign)
        for got, ref in ((hq(p, 1e-14), h), (fn(p), s)):
            ok, actual = _meets_estimate(got, ref)
            assert ok, (a, sign, got.method, actual, got.error_estimate)


def test_j_quadrature_at_large_lam_a():
    # in t = |a| u, exp(-lam |a| u) underflowed beside u = 1 once lam |a|
    # passed about 863 and J refused; from 860 on J runs in t = u/lam
    for mu, lam, a in [(0.5, 1.0, 1000.0), (0.9, 0.87, 1000.0), (0.3, 5.0, 200 + 30j), (0.05, 8.0, 108.0)]:
        got = j_mu_quadrature(SeriesParams(mu, lam, a, "plus"), 1e-14)
        ok, actual = _meets_estimate(got, laplace(mu, lam, a))
        assert ok, (mu, lam, a, actual, got.error_estimate)


def test_j_quadrature_at_small_lam_a():
    # in t = |a| u the exponential decayed past the quadrature's last
    # node, t = e^23, once lam |a| fell below about 2e-8, and J refused;
    # below lam |a| = 1e-6 J runs in t = s u with s = 1e-6/lam
    for mu, lam_a, a in [
        (0.1, 1e-9, 1.5),
        (0.5, 1e-9, 6 + 3j),
        (0.9, 1e-12, 2 + 1.5j),
        (0.999, 1e-12, 40.0),
    ]:
        lam = lam_a / abs(a)
        got = j_mu_quadrature(SeriesParams(mu, lam, a, "plus"), 1e-14)
        ok, actual = _meets_estimate(got, laplace(mu, lam, a))
        assert ok, (mu, lam, a, actual, got.error_estimate)


def _j_sweep():
    # seed 13: mu up to 0.95, lam log-uniform on [1e-3, 20], |a| on
    # [0.3, 60] and |arg a| up to 1.55, Im a of either sign in turn
    rng = random.Random(13)
    for i in range(40):
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        mod = math.exp(rng.uniform(math.log(0.3), math.log(60.0)))
        yield mu, lam, cmath.rect(mod, (-1) ** i * rng.uniform(0.0, 1.55))


def test_j_quadrature_estimate_sweep():
    # J on the ray at arg(a)/2 against its closed form. With the 2 eps
    # floor at complex a the worst point is at 0.61 of its estimate, and
    # would be at 1.21 with an eps floor; a seeded draw of 300 points
    # reached 1.96 with an eps floor
    for mu, lam, a in _j_sweep():
        got = j_mu_quadrature(SeriesParams(mu, lam, a, "plus"), 1e-14)
        ok, actual = _meets_estimate(got, laplace(mu, lam, a))
        assert ok, (mu, lam, a, actual, got.error_estimate)


def test_j_quadrature_at_steep_a():
    # the two slowest J of the full-points stream: on the real axis the
    # branch point -ia lay Re a from the path and J took 886 and 363
    # evaluations; on the ray at arg(a)/2 it lies |a| away
    for mu, lam, a, evaluations in [(0.5, 0.33, 0.40 + 2.17j, 117), (0.5, 0.28, 3.10 + 16.19j, 94)]:
        got = j_mu_quadrature(SeriesParams(mu, lam, a, "plus"), 1e-14)
        assert got.notes == f"{evaluations} integrand evaluations"
        ok, actual = _meets_estimate(got, laplace(mu, lam, a))
        assert ok, (mu, lam, a, actual, got.error_estimate)


def test_h_and_full_routes_near_mu_one():
    # the plateau g(1) sech(sigma u)^(2 - 2mu) of H's integrand decays at
    # the rate 2 (1 - mu) sigma: from 1 - mu ~ 1e-8 it ran past the last
    # node at |a| <= 10 and H refused, and the exp-sinh rule, whose nodes
    # went further, cut it short, 5e-10 off at 1 - mu = 1e-15. Below
    # 1 - mu = 1e-4, H integrates g(t) - g(1) and adds g(1) B(1/2, 1-mu)/2
    for q in (1e-5, 1e-8, 1e-12):
        mu = 1.0 - q
        for a in (1.5, 3 + 0.5j, 10.0):
            for sign in ("minus", "plus"):
                p = SeriesParams(mu, 1.0, a, sign)
                hq = h_minus_quadrature if sign == "minus" else h_plus_quadrature
                got = hq(p, 1e-14)
                ok, actual = _meets_estimate(got, branch_cut(mu, 1.0, a, sign))
                assert ok, (q, a, sign, actual, got.error_estimate)
                _check_full_route(mu, 1.0, a, sign)
    # at mu = 1 itself (1 - t^2)^-mu is not integrable
    for mu in (1.0, 1.5):
        with pytest.raises(PreconditionError, match="H integral needs 0 <= mu < 1"):
            h_minus_quadrature(SeriesParams(mu, 1.0, 3.0))


def test_h_near_mu_one_refuses_past_sin_overflow():
    # near mu = 1, H forms g(1) = sin(lam a)/sinh(pi a), whose complex sin
    # overflows once |Im(lam a)| > 710; that raised a bare OverflowError
    p = SeriesParams(0.9999999938752246, 17.76565913616587, 188.42372090297235 - 75.0446968913082j)
    with pytest.raises(NonConvergenceError, match="overflowed"):
        h_minus_quadrature(p)


def test_h_integrand_past_sin_overflow(monkeypatch):
    # at (0.5, 1000, 300 + 0.9i), inside the tail's sector, |Im(lam a t)|
    # passes 710 near t = 0.79, where complex sin overflows, or 2 sin
    # does, and H refused with "integrand overflowed"; there
    # 2 sin(lam a t) e^(-pi a t) is formed from e^(+-i lam a t - pi a t)
    from mxsum import evaluators

    mu, lam, a = 0.5, 1000.0, 300 + 0.9j
    for sign in ("minus", "plus"):
        integrands = []

        def capture(f, tol):
            integrands.append(f)
            raise NonConvergenceError("captured")

        monkeypatch.setattr(evaluators, "integrate", capture)
        with pytest.raises(NonConvergenceError, match="captured"):
            evaluators._h_quadrature(SeriesParams(mu, lam, a, sign), 1e-14)
        monkeypatch.undo()
        sigma = 4.0 / abs(a)
        with mpmath.workdps(40):
            for u in (80.16998948412628, 120.96990027813328, 400.0):
                t = mpmath.tanh(sigma * mpmath.mpf(u))
                ma = mpmath.mpc(a)
                g = mpmath.sin(lam * ma * t) / mpmath.sinh(mpmath.pi * ma * t)
                if sign == "plus":
                    g *= mpmath.exp(-mpmath.pi * ma * t)
                want = g * mpmath.sech(sigma * mpmath.mpf(u)) ** (2 - 2 * mu)
                got = integrands[0](u)
                # the rounding of t moves lam a t by about eps |lam a|; the
                # plus integrand underflows to 0 there
                tol = 4.0 * abs(lam * a) * sys.float_info.epsilon
                assert abs(got - want) <= tol * abs(want) + 1e-300, (sign, u, got, want)
    # with it the plus sum on H's straight path lands within its
    # estimate; the minus sum's H swings through about 1,100 periods of
    # sin(lam a t) on its decay length, and runs out of refinement levels
    # instead (full_minus takes the rotated path here: see
    # test_full_routes_rotate_where_the_tail_is_steep)
    p = SeriesParams(mu, lam, a, "plus")
    straight = evaluators._full(
        p,
        "full-plus",
        [
            j_mu_quadrature(p, 1e-14),
            h_plus_quadrature(p, 1e-14),
            evaluators._bessel_tail(p),
        ],
    )
    ok, actual = _meets_estimate(straight, explicit_sum(mu, lam, a, "plus").value)
    assert ok, actual
    with pytest.raises(NonConvergenceError, match="within 12 refinements"):
        h_minus_quadrature(SeriesParams(mu, lam, a), 1e-14)


def test_full_routes_rotate_where_the_tail_is_steep():
    # below |Im a| = 1 the full routes take the rotated path where the
    # straight tail's first argument is steep, lam Re a > 50 Re X_0; here
    # the steepness is 7062, 678 and 934 (minus) and 305, 217 and 379
    # (plus). On the straight path full_minus refused all three, and
    # full_plus missed its estimate 4.1x at the third
    for mu, lam, a in [(0.5, 1000.0, 300 + 0.9j), (0.5, 1000.0, 300 + 0.5j), (0.5, 2000.0, 1000 + 0.5j)]:
        for fn, sign in ((full_minus, "minus"), (full_plus, "plus")):
            got = fn(SeriesParams(mu, lam, a, sign))
            ok, actual = _meets_estimate(got, explicit_sum(mu, lam, a, sign).value)
            assert ok, (lam, a, sign, actual, got.error_estimate)


def _h_sweep():
    # seeded: mu in (0, 0.05), in (0.05, 0.95) and at 1 - 10^U(-12, -1) in
    # turn, lam log-uniform on [1e-3, 20], |a| log-uniform on [0.05, 300],
    # arg a 0 or U(-1.4, 1.4), both signs
    rng = random.Random(7)
    cases = []
    for i in range(48):
        if i % 3 == 0:
            mu = rng.uniform(0.0, 0.05)
        elif i % 3 == 1:
            mu = rng.uniform(0.05, 0.95)
        else:
            mu = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        mod = math.exp(rng.uniform(math.log(0.05), math.log(300.0)))
        a = mod if rng.random() < 0.5 else cmath.rect(mod, rng.uniform(-1.4, 1.4))
        cases.append((mu, lam, a, "minus" if i % 2 else "plus"))
    return cases


H_SWEEP = _h_sweep()
# the points of H_SWEEP whose error is more than 2x their estimate
H_SWEEP_MISSES = (15,)


def _check_h(mu, lam, a, sign):
    # within 2x of the estimate, or a refusal of the two kinds allowed
    route = h_minus_quadrature if sign == "minus" else h_plus_quadrature
    try:
        got = route(SeriesParams(mu, lam, a, sign))
    except (NonConvergenceError, PreconditionError):
        return
    ok, actual = _meets_estimate(got, branch_cut(mu, lam, a, sign))
    assert ok, (route.__name__, mu, lam, a, actual, got.error_estimate)


def test_h_quadrature_estimate_sweep():
    for i, case in enumerate(H_SWEEP):
        if i not in H_SWEEP_MISSES:
            _check_h(*case)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: at lam near 10 and |Im a| > |Re a| H's rounding "
    "floor eps * sum |w f| leaves out the rounding of lam a t in sin",
)
def test_h_quadrature_estimate_sweep_misses():
    for i in H_SWEEP_MISSES:
        _check_h(*H_SWEEP[i])


def _count_grid():
    # seed 16: full routes at benchmark-like points, both signs, a third
    # at real a, a third at |Im a| < 1 inside the tail's sector and a
    # third on the rotated path (|Im a| >= 1), with mu = 0.999 at every
    # fourth point; then full_plus at steep a, where J's branch point -ia
    # lies only Re a from the real axis: the two slowest J of the
    # full-points stream, and four seeded points at 1.3 <= |arg a| <= 1.55
    # with lam from 0.01 to 1; then J alone at lam = 1e-6, whose scan runs
    # out to u = 1e6 to 3e7 on the rule's scale |a|
    rng = random.Random(16)
    routes = []
    for i in range(24):
        sign = ("minus", "plus")[i % 2]
        mu = 0.999 if i % 4 == 3 else rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        mod = math.exp(rng.uniform(math.log(1.5), math.log(40.0)))
        if i % 3 == 0:
            a = complex(mod)
        elif i % 3 == 1:
            base = 1.0 if sign == "minus" else 2.0
            limit = min(0.9 * math.atan(base * math.pi / lam), math.asin(0.9 / mod))
            a = cmath.rect(mod, rng.uniform(-limit, limit))
        else:
            a = complex(mod, rng.choice((-1, 1)) * rng.uniform(1.0, max(1.0, mod)))
        routes.append((mu, lam, a, sign))
    routes += [(0.5, 0.33, 0.40 + 2.17j, "plus"), (0.5, 0.28, 3.10 + 16.19j, "plus")]
    for i in range(4):
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.01), 0.0))
        mod = math.exp(rng.uniform(math.log(1.5), math.log(40.0)))
        arg = (-1) ** i * rng.uniform(1.3, 1.55)
        routes.append((mu, lam, cmath.rect(mod, arg), "plus"))
    j_points = [(mu, 1e-6, a) for mu in (0.05, 0.5, 0.999) for a in (1.5, 6 + 3j, 40.0)]
    return routes, j_points


# evaluations of each integrand on _count_grid, by the integrand's
# function; the exp-sinh rule took 3168 (H), 1451 (ray) and 8644 (J)
# before the steep points joined the grid. J on the real axis took 11105,
# 7472 of them at the six steep points; on the ray at arg(a)/2 it takes
# 908 there
GRID_EVALUATIONS = {"_h_quadrature": 1670, "_ray_quadrature": 1029, "j_mu_quadrature": 4252}


def test_quadrature_evaluation_counts(monkeypatch):
    # every H, ray and J value behind these counts is checked: the full
    # routes against 40-digit sums, J at lam = 1e-6 against 40-digit
    # quadrature, each within 2x its estimate
    from mxsum import evaluators

    integrate = evaluators.integrate
    counts = dict.fromkeys(GRID_EVALUATIONS, 0)

    def counting(f, tol):
        res = integrate(f, tol)
        counts[f.__qualname__.split(".")[0]] += res.terms_used
        return res

    monkeypatch.setattr(evaluators, "integrate", counting)
    routes, j_points = _count_grid()
    for route in routes:
        _check_full_route(*route)
    for mu, lam, a in j_points:
        got = j_mu_quadrature(SeriesParams(mu, lam, a, "plus"), 1e-14)
        ok, actual = _meets_estimate(got, laplace(mu, lam, a))
        assert ok, (mu, lam, a, actual, got.error_estimate)
    assert counts == GRID_EVALUATIONS


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
    got = olver_lambda0_minus(SeriesParams(1.0, 0.0, 1.0)).value.real
    want = (1.0 + math.pi / math.sinh(math.pi)) / 2.0
    assert abs(got - want) < 1e-12 * want
    gp = lambda0_plus(SeriesParams(1.0, 0.0, 1.0, "plus")).value.real
    wp = (1.0 + math.pi / math.tanh(math.pi)) / 2.0
    assert abs(gp - wp) < 1e-12 * wp
    # cotangent identity at a = 2: 1/(2a^2) + pi coth(pi a)/(2a)
    gp2 = lambda0_plus(SeriesParams(1.0, 0.0, 2.0, "plus")).value.real
    wp2 = 0.125 + math.pi / (4.0 * math.tanh(2.0 * math.pi))
    assert abs(gp2 - wp2) < 1e-12 * wp2


def test_lambda0_against_summation_oracles():
    gm = olver_lambda0_minus(SeriesParams(0.75, 0.0, 5.0)).value.real
    assert abs(gm - 0.04472146216536063) <= 1e-10 * 0.0447
    gp = lambda0_plus(SeriesParams(0.75, 0.0, 5.0, "plus")).value.real
    assert abs(gp - 1.2173411460128138) <= 1e-10 * 1.2173
    # and both against the direct route in-process
    dm = direct_sum(SeriesParams(0.75, 0.0, 5.0, "minus")).value.real
    assert abs(gm - dm) <= 1e-12
    # on the rotated path at lam = 0 the ray integral is 0, and full_minus
    # keeps the bits of the subdominant sum, as olver_lambda0_minus does
    for mu in (0.3, 0.5, 0.9):
        for a in (2 + 1.5j, 2 - 1.5j, 0.7 + 3j, 5 + 1j):
            p = SeriesParams(mu, 0.0, a)
            full, olver = full_minus(p), olver_lambda0_minus(p)
            assert full.notes == "integrand vanishes when lam = 0"
            assert repr(full[2:5]) == repr(olver[2:5]), (mu, a)
            assert repr(full.value) == repr(olver.value), (mu, a)


@pytest.mark.parametrize("mu, a", [(10.0, 0.02), (9.7, 0.03 + 0.01j)])
def test_lambda0_minus_large_mu_small_a(mu, a):
    # K_{9.5}(pi a) at |pi a| = 0.06 sent the quadrature of K_nu into
    # NonConvergenceError. The Bessel terms stay near their z -> 0 limit
    # until (2k+1) pi |a| ~ 10, so the sum needs a few hundred of them
    # (459 and 309 here).
    got = olver_lambda0_minus(SeriesParams(mu, 0.0, a))
    # 20 digits serve a 1e-13 check (1.8 s here; 4.6 s at 40)
    ref = lambda0_sum(mu, a, "minus", dps=20).value
    rel = _meets_estimate(got, ref)[1] / float(abs(ref))
    assert rel <= 1e-13, (mu, a, rel)


def test_lambda0_estimate_sweep():
    # the estimates carry the rounding floor of _full and of the Bessel
    # sum's arguments; the truncation estimate alone, e^(-2 pi Re a)
    # times the last term, missed by 5.5e6x at (1, 1, -) and 5.5e4x at
    # (1.7, 0.7, -)
    for mu in (0.3, 0.75, 1.0, 1.3, 1.7, 6.0):
        for a in (0.7, 1.0, 3.0, 1 + 0.5j, 2 - 1.5j):
            for fn, sign in ((olver_lambda0_minus, "minus"), (lambda0_plus, "plus")):
                if sign == "plus" and mu <= 0.5:
                    continue
                got = fn(SeriesParams(mu, 0.0, a, sign))
                ok, actual = _meets_estimate(got, lambda0_sum(mu, a, sign).value)
                assert ok, (mu, a, sign, actual, got.error_estimate)
                if a.imag == 0.0:
                    assert got.value.imag == 0.0


def test_lambda0_term_cap_refuses():
    # a sum cut short at a fixed 30 terms was 19% off at (10, 0.02),
    # against an estimate of 0.7%; only past 10^4 + 30 terms does the
    # sum refuse
    for mu, sign in ((0.75, "minus"), (10.0, "minus"), (0.75, "plus")):
        with pytest.raises(NonConvergenceError, match="budget of"):
            _lambda0(SeriesParams(mu, 0.0, 6e-4 + 0.5j, sign))
    # at mu <= 2 and a >= 0.5 both sums meet their stop within 16 terms
    for mu in (0.6, 1.3, 2.0):
        for a in (0.5, 0.5 + 0.3j, 8.0):
            for sign in ("minus", "plus"):
                assert _lambda0(SeriesParams(mu, 0.0, a, sign)).tail_terms_used <= 16


def test_lambda0_domain():
    with pytest.raises(PreconditionError):
        olver_lambda0_minus(SeriesParams(0.0, 0.0, 1.0))
    with pytest.raises(PreconditionError):
        olver_lambda0_minus(SeriesParams(10.5, 0.0, 1.0))
    with pytest.raises(PreconditionError):
        lambda0_plus(SeriesParams(0.5, 0.0, 1.0, "plus"))
    with pytest.raises(PreconditionError, match="lam = 0"):
        olver_lambda0_minus(SeriesParams(0.5, 1.0, 1.0))


def test_integer_mu_closed_forms():
    got = integer_mu_closed_form(SeriesParams(2.0, 1.0, 2.0, "minus"))
    assert abs(got.value.real - 0.04964389879410491) < 1e-16
    gp = integer_mu_closed_form(SeriesParams(3.0, 1.0, 3.0, "plus"))
    assert abs(gp.value.real - 0.0018111350531342925) < 1e-17
    for n in (1, 2, 3):
        for a in (2.0, 3.0):
            for sign in ("minus", "plus"):
                p = SeriesParams(float(n), 1.0, a, sign)
                ref = direct_sum(p).value.real
                v = integer_mu_closed_form(p).value.real
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
        got = integer_mu_closed_form(SeriesParams(float(n), lam, a, sign))
        ref = explicit_sum(float(n), lam, a, sign).value
        actual = _meets_estimate(got, ref)[1]
        rel = actual / float(abs(ref))
        assert rel <= 2e-15 and actual <= got.error_estimate, (n, a, lam, sign, rel)


def test_integer_mu_domain():
    with pytest.raises(PreconditionError):
        integer_mu_closed_form(SeriesParams(6.0, 1.0, 2.0))
    with pytest.raises(PreconditionError):
        integer_mu_closed_form(SeriesParams(2.5, 1.0, 2.0))
    with pytest.raises(PreconditionError):
        integer_mu_closed_form(SeriesParams(2.0, 0.0, 2.0))


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
    for h in (0.0, 4.0, 5.0):
        with pytest.raises(PreconditionError, match="step h must satisfy 0 < h < a"):
            mu_step_check(SeriesParams(0.5, 1.0, 4.0), h=h)
