"""Exact expansion-coefficient generation: algebraic coefficient tables
and their independent oracles, among them an exact Fraction evaluator of
the tanh derivative polynomials p_m."""

import functools
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from mxsum import coefficients
from mxsum.coefficients import a_coefficients, b_coefficients, bhat_coefficients
from mxsum.errors import NonConvergenceError, PreconditionError
from mxsum.kernel import bernoulli_even
from mxsum.oracles import coefficient

_SRC = Path(__file__).resolve().parents[1] / "src"


@functools.cache
def _p(m):
    """p_m with (d/dx)^m tanh x = p_m(tanh x), as exact Fraction
    coefficients, lowest power first: p_(m+1)(u) = (1 - u^2) p_m'(u)
    from p_0(u) = u. The reference for B_k and Bhat_k below."""

    if m == 0:
        return (Fraction(0), Fraction(1))
    dp = [j * c for j, c in enumerate(_p(m - 1))][1:]
    nxt = dp + [Fraction(0), Fraction(0)]
    for j, c in enumerate(dp):
        nxt[j + 2] -= c
    while len(nxt) > 1 and nxt[-1] == 0:
        nxt.pop()
    return tuple(nxt)


def _horner(coeffs, u):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def test_derivative_polynomials_low_orders():
    # p_0 = u, p_1 = 1 - u^2, p_2 = 2u^3 - 2u, p_3 = -6u^4 + 8u^2 - 2
    want = {
        0: (0, 1),
        1: (1, 0, -1),
        2: (0, -2, 0, 2),
        3: (-2, 0, 8, 0, -6),
    }
    for m, coeffs in want.items():
        assert _p(m) == tuple(Fraction(c) for c in coeffs), (m, _p(m))


def test_derivative_polynomial_structure():
    for m in range(1, 40):
        assert len(_p(m)) - 1 == m + 1, m
        # parity: even m keeps odd powers only, odd m even powers only
        for j, c in enumerate(_p(m)):
            if (j + m) % 2 == 0:
                assert c == 0, (m, j, c)


def test_derivative_polynomials_match_calculus():
    x = 0.7
    u = math.tanh(x)
    sech2 = 1.0 - u * u
    assert abs(float(_horner(_p(1), Fraction(u))) - sech2) < 1e-15
    assert abs(float(_horner(_p(2), Fraction(u))) - (-2.0 * u * sech2)) < 1e-15
    # exact evaluation stays rational
    assert _horner(_p(1), Fraction(3, 5)) == Fraction(16, 25)


def test_b_frozen_values():
    t = b_coefficients(1.0, 4)
    assert t.kind == "B"
    assert t.lam == 1.0
    assert t.K == 4
    want = [
        0.23105857863000487,
        0.09085774767294841,
        0.12350686136639322,
        0.2834339085296221,
        0.6305846057102897,
    ]
    assert len(t.values) == 5
    for got, ref in zip(t.values, want):
        assert abs(got - ref) <= 1e-16 * abs(ref), (got, ref)
    assert abs(b_coefficients(0.2, 0).values[0] - 0.04983399731247791) < 1e-17
    assert abs(b_coefficients(1.0, 6).values[6] + 134.05095450977564) < 1e-13


def test_b_closed_forms():
    for lam in (0.2, 1.0, 1.5, 3.0):
        x = lam / 2.0
        vals = b_coefficients(lam, 2).values
        assert abs(vals[0] - math.tanh(x) / 2.0) < 1e-16
        b1 = math.sinh(x) / (4.0 * math.cosh(x) ** 3)
        assert abs(vals[1] - b1) < 1e-16 * max(1.0, abs(b1))
        b2 = math.sinh(x) * (2.0 - math.sinh(x) ** 2) / (4.0 * math.cosh(x) ** 5)
        assert abs(vals[2] - b2) < 1e-15 * max(1.0, abs(b2))


def test_b_against_quadrature_oracle():
    # the 40-digit partial-fraction (zeta) form, not a quadrature
    for lam in (0.2, 1.0, 1.5, 3.0):
        vals = b_coefficients(lam, 6).values
        for k in range(7):
            ref = float(coefficient("B", k, lam))
            assert abs(vals[k] - ref) <= 1e-10 * max(1.0, abs(ref)), (lam, k)


def _tanh_half(lam):
    # u for tanh(lam/2), as b_coefficients takes it: tanh rounded to
    # binary64 up to 1/2 (lam <= ln 3), and 1 - delta above, with
    # delta = 2/(e^lam + 1) in binary64
    u = math.tanh(0.5 * lam)
    if u <= 0.5:
        return Fraction(u)
    q = math.exp(-lam)
    return 1 - Fraction(2.0 * q / (1.0 + q))


def _fraction_horner_b(lam, K):
    # B_k by Fraction Horner, the reference: exact rational arithmetic
    # over the dyadic u of tanh(lam/2), one float() at the end
    u = _tanh_half(lam)
    return [
        float(
            _horner(_p(2 * k), u) * Fraction((-1) ** k, 2 ** (2 * k + 1))
        )
        for k in range(K + 1)
    ]


def _fraction_horner_bhat(lam, K):
    # Bhat_k at lam >= 4 the same way, with u = coth(lam/2) rounded first
    x = Fraction(lam) / 2
    u = Fraction(1.0 / math.tanh(0.5 * lam))
    return [
        float(
            (
                _horner(_p(2 * k), u)
                - Fraction(math.factorial(2 * k)) / x ** (2 * k + 1)
            )
            * Fraction(1, 2 ** (2 * k + 1))
        )
        for k in range(K + 1)
    ]


def _reprs_or_overflow(fn, lam, K):
    try:
        return [repr(v) for v in fn(lam, K)]
    except OverflowError:
        return OverflowError


def test_integer_horner_keeps_fraction_bits():
    # one correctly rounded int/int division of the same exact rational
    # that float(Fraction) rounds: every bit equal, overflow included,
    # at K = 0 as at K = 100, and on both sides of lam = ln 3, where B
    # switches from tanh(lam/2) rounded to 1 - delta
    rng = random.Random(14)
    ln3 = math.log(3.0)
    lams = [math.exp(rng.uniform(math.log(0.05), math.log(30.0))) for _ in range(8)]
    lams += [0.05, 30.0, ln3, math.nextafter(ln3, 0.0), math.nextafter(ln3, 2.0)]
    lams += [rng.uniform(0.8, ln3) for _ in range(3)] + [rng.uniform(ln3, 1.5) for _ in range(3)]
    assert any(math.tanh(0.5 * lam) <= 0.5 for lam in lams)
    assert any(0.5 < math.tanh(0.5 * lam) < 0.6 for lam in lams)
    for lam in lams:
        want = _reprs_or_overflow(_fraction_horner_b, lam, 100)
        got = _reprs_or_overflow(lambda lam, K: b_coefficients(lam, K).values, lam, 100)
        assert got == want, lam
        assert [repr(v) for v in b_coefficients(lam, 0).values] == want[:1], lam
    for lam in [rng.uniform(4.0, 30.0) for _ in range(5)] + [4.0, 30.0, 80.0]:
        want = _reprs_or_overflow(_fraction_horner_bhat, lam, 100)
        got = _reprs_or_overflow(lambda lam, K: bhat_coefficients(lam, K).values, lam, 100)
        assert got == want, lam
        assert [repr(v) for v in bhat_coefficients(lam, 0).values] == want[:1], lam


# The 80-digit grid: lam on both sides of ln 3 and of Bhat's switch at 4,
# up to lam = 30, where B from a rounded tanh(lam/2) would be 5e-4 off;
# k up to 40. The bound is relative; B's worst is 1.9e-14, at (lam 1,
# k 30), from the rounding of tanh(1/2) itself
_GRID_LAMS = (0.2, 1.0, 3.99, 4.0, 6.0, 12.0, 20.0, 30.0)
_GRID_KS = (0, 1, 8, 20, 30, 40)
_GRID_REL = 3e-14


def _grid_misses(kind, values_at, lams=_GRID_LAMS):
    misses = []
    for lam in lams:
        values = values_at(lam)
        for k in _GRID_KS:
            ref = coefficient(kind, k, lam, dps=80)
            err = abs((values[k] - ref) / ref)
            if not err <= _GRID_REL:
                misses.append((lam, k, float(err)))
    return misses


def test_b_against_80_digits():
    assert _grid_misses("B", lambda lam: b_coefficients(lam, 40).values) == []


def _bhat_values(lam):
    # below lam = 4 each Bhat_k is its own coth series, which the table
    # would sum for every k <= 40 (6.5 s at lam = 3.99): take the grid's
    # k alone, the values bhat_coefficients puts in its table
    if lam < 4.0:
        return {k: coefficients._bhat_series(lam, k) for k in _GRID_KS}
    return bhat_coefficients(lam, 40).values


def test_bhat_against_80_digits_below_4():
    # lam = 3.999 is the slowest corner of the coth series: its ratio
    # bound r_m tends to (1.9995/pi)^2 = 0.405
    lams = [lam for lam in _GRID_LAMS if lam < 4.0] + [3.999]
    assert _grid_misses("Bhat", _bhat_values, lams) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: Bhat at lam >= 4 subtracts (2k)!/x^(2k+1) from "
    "p_2k(coth x) with coth x rounded first (2.2e-11 off at lam 6, k 8)",
)
def test_bhat_against_80_digits_from_4():
    lams = [lam for lam in _GRID_LAMS if lam >= 4.0]
    assert _grid_misses("Bhat", _bhat_values, lams) == []


def test_bhat_frozen_values():
    t = bhat_coefficients(1.0, 6)
    assert t.kind == "Bhat"
    x = 0.5
    closed = [
        (1.0 / math.tanh(x) - 1.0 / x) / 2.0,
        (math.cosh(x) / math.sinh(x) ** 3 - 1.0 / x**3) / 4.0,
    ]
    assert abs(t.values[0] - closed[0]) < 1e-16
    assert abs(t.values[0] - 0.08197670686932643) < 1e-16
    # the float closed form cancels ~3 digits (7.969.. - 8); the frozen
    # literal below comes from 30-digit arithmetic and is the tight check
    assert abs(t.values[1] - closed[1]) < 1e-12
    assert abs(t.values[1] + 0.007705232875012607) < 1e-17
    assert abs(t.values[3] + 0.0030644283535635111) < 1e-17
    assert abs(t.values[6] - 0.030350435252479321) < 1e-16


def test_bhat_against_zeta_oracle():
    for lam in (0.2, 1.0, 1.5, 3.0, 5.0):
        vals = bhat_coefficients(lam, 6).values
        for k in range(1, 7):
            ref = float(coefficient("Bhat", k, lam))
            assert abs(vals[k] - ref) <= 1e-10 * max(1.0, abs(ref)), (lam, k)


def test_bhat_small_lambda():
    # both defining terms blow up as lam -> 0 but the difference stays
    # small; the series route must keep full relative accuracy, and
    # warns of nothing (every lam < 4 takes the exact series)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = bhat_coefficients(1e-3, 6)
    for v in t.values:
        assert abs(v) < 1e-2, t.values
    assert abs(t.values[0] - 8.333333194444448e-05) < 1e-18
    assert abs(t.values[1] + 8.333332671957706e-06) < 1e-19
    assert abs(t.values[2] - 3.968253273809587e-06) < 1e-19


def test_bhat_route_consistency():
    # the evaluation strategy switches at lam = 4; hold both sides of
    # the seam against the closed form for Bhat_0 and Bhat_1
    for lam in (3.999, 4.001):
        vals = bhat_coefficients(lam, 1).values
        x = lam / 2.0
        c0 = (1.0 / math.tanh(x) - 1.0 / x) / 2.0
        c1 = (math.cosh(x) / math.sinh(x) ** 3 - 1.0 / x**3) / 4.0
        assert abs(vals[0] - c0) < 1e-14, (lam, vals[0], c0)
        assert abs(vals[1] - c1) < 1e-14, (lam, vals[1], c1)


def _coth_series_270_bits(lam, k):
    """The coth series as it was summed before its stop was proven: on
    to the first term 270 bits below the largest. Returns Bhat_k and the
    terms, from m = k + 1 on."""

    x = Fraction(lam) / 2
    x2, x_pow = x * x, x
    acc, terms, max_log = Fraction(0), [], -(10**9)
    for m in itertools.count(k + 1):
        term = coefficients._q(m) * math.perm(2 * m - 1, 2 * k) * x_pow
        acc += term
        terms.append(term)
        log2 = term.numerator.bit_length() - term.denominator.bit_length()
        max_log = max(max_log, log2)
        if log2 < max_log - 270:
            return float(acc * Fraction(1, 2 ** (2 * k + 1))), terms
        x_pow *= x2


def test_bhat_series_stop_keeps_the_bits():
    # the coth series stops once the bound on its omitted tail leaves one
    # binary64 for Bhat_k: the old 270-bit stop must give the same repr,
    # and its extra terms must sum, in modulus, to no more than that bound
    rng = random.Random(31)
    grid = [
        (math.exp(rng.uniform(math.log(1e-3), math.log(4.0))), rng.randint(0, 40))
        for _ in range(40)
    ]
    grid += [(lam, k) for lam in (3.999, 1e-300, 5e-324) for k in range(0, 41, 4)]
    for lam, k in grid:
        value, m, bound = coefficients._coth_series(lam, k)
        want, terms = _coth_series_270_bits(lam, k)
        assert repr(value) == repr(want), (lam, k)
        assert sum(abs(t) for t in terms[m - k :]) <= bound, (lam, k)


def test_bhat_series_at_high_k_below_4():
    # at (3.99, 70) the largest term of the coth series is 233 bits
    # above the sum, so a stop 270 bits below that term left 1.5e-12 of
    # error; the proven stop sums on until the value is settled
    value = coefficients._bhat_series(3.99, 70)
    ref = coefficient("Bhat", 70, 3.99, dps=80)
    assert abs((value - ref) / ref) <= _GRID_REL


def test_bhat_series_refuses_past_its_term_cap(monkeypatch):
    monkeypatch.setattr(coefficients, "_BHAT_SERIES_TERMS", 30)
    with pytest.raises(NonConvergenceError, match="did not close within 30 terms"):
        coefficients._coth_series(3.9, 20)


def test_bhat_series_cache_keeps_the_bits():
    # each Bhat_k of the coth series is cached per (lam, k): a table comes
    # out repr-identical cold, after a larger K and after a smaller one
    # (a value costs 5 ms at lam = 3.99 for k <= 3, and grows with k to
    # 0.5 s at k = 40, so K is small there)
    cache = coefficients._bhat_series
    for lam, K in ((0.2, 8), (1.0, 8), (3.99, 2)):
        cache.cache_clear()
        cold = repr(bhat_coefficients(lam, K).values)
        cache.cache_clear()
        bhat_coefficients(lam, K + 1)
        assert repr(bhat_coefficients(lam, K).values) == cold, lam
        cache.cache_clear()
        bhat_coefficients(lam, K - 2)
        assert repr(bhat_coefficients(lam, K).values) == cold, lam


def test_bhat_series_cache_is_bounded():
    cache = coefficients._bhat_series
    bound = coefficients._BHAT_SERIES_CACHE
    assert cache.cache_info().maxsize == bound
    before = repr(bhat_coefficients(1.0, 8).values)
    rng = random.Random(11)
    for _ in range(1000):  # 1000 (lam, 0) keys, four times the bound
        bhat_coefficients(rng.uniform(0.05, 0.2), 0)
        assert cache.cache_info().currsize <= bound
    assert repr(bhat_coefficients(1.0, 8).values) == before


def test_a_values_and_identity():
    t = a_coefficients(1.0, 4)
    assert t.kind == "A"
    assert t.values[0] == 1.0
    pi2 = math.pi**2
    assert abs(t.values[1] - (1.0 + pi2) / 6.0) < 1e-15
    a2 = (3.0 + 10.0 * pi2 + 7.0 * pi2 * pi2) / 360.0
    assert abs(t.values[2] - a2) < 1e-14
    want = [1.0, 1.811600733514893, 2.1765546701358627, 2.3006859890160993, 2.3370960461682313]
    for got, ref in zip(t.values, want):
        assert abs(got - ref) <= 1e-15 * ref, (got, ref)
    # lam dependence: A_1 = (lam^2 + pi^2)/6
    for lam in (0.0, 0.2, 2.0, 3.0):
        got = a_coefficients(lam, 1).values[1]
        assert abs(got - (lam * lam + pi2) / 6.0) < 1e-14


def test_e_closed_form_matches_the_recurrence():
    # the e_n of 1/D behind the A rows, in closed form from the tangent
    # numbers, equal the triangular recurrence of the power-series
    # reciprocal, e_n = -sum_{j=1..n} (-1)^j e_(n-j)/(2j+1)!, exactly
    e = [Fraction(1)]
    for n in range(1, 101):
        e.append(-sum(
            Fraction((-1) ** j, math.factorial(2 * j + 1)) * e[n - j]
            for j in range(1, n + 1)
        ))
    for n, want in enumerate(e):
        assert Fraction(*coefficients._e(n)) == want, n


def test_a_series_reconstruction():
    # sum (-1)^k A_k x^(2k) = (pi/lam) sin(lam x)/sinh(pi x) inside the
    # unit radius; x = 0.3 converges well before K = 20
    lam = 1.0
    x = 0.3
    vals = a_coefficients(lam, 20).values
    acc = math.fsum((-1.0) ** k * vals[k] * x ** (2 * k) for k in range(21))
    target = (math.pi / lam) * math.sin(lam * x) / math.sinh(math.pi * x)
    assert abs(acc - target) < 1e-12, (acc, target)


def test_table_domain():
    with pytest.raises(PreconditionError):
        b_coefficients(0.0, 3)
    with pytest.raises(PreconditionError):
        b_coefficients(-1.0, 3)
    with pytest.raises(PreconditionError):
        bhat_coefficients(0.0, 3)
    with pytest.raises(PreconditionError):
        a_coefficients(-0.5, 3)
    with pytest.raises(PreconditionError):
        a_coefficients(math.nan, 3)
    with pytest.raises(PreconditionError):
        b_coefficients(1.0, 101)
    with pytest.raises(PreconditionError):
        bhat_coefficients(1.0, 101)
    with pytest.raises(PreconditionError):
        a_coefficients(1.0, 61)
    with pytest.raises(PreconditionError):
        a_coefficients(1.0, -1)
    with pytest.raises(PreconditionError):
        b_coefficients(1.0, 2.5)


def test_prefix_stability():
    # growing K must not change earlier entries
    for maker in (a_coefficients, b_coefficients, bhat_coefficients):
        short = maker(1.0, 3).values
        long = maker(1.0, 8).values
        assert short == long[:4], maker.__name__


# Every per-process coefficient memo, filled from cold: B at K = 0, 5,
# ..., 100 (the derivative polynomials up to p_200), Bhat on its lam >= 4
# path and the A rows up to their cap. Prints the sha256 of the reprs;
# with argv[1] == "threads", four threads run it at once, behind a
# barrier and under a very short switch interval, and each prints its
# own (a thread that died prints None).
_RACE_SCRIPT = """
import hashlib, sys, threading
from mxsum import coefficients
from mxsum.coefficients import a_coefficients, b_coefficients, bhat_coefficients

def run():
    tables = [b_coefficients(1.0, K) for K in range(0, 101, 5)]
    tables += [bhat_coefficients(6.0, 100), a_coefficients(1.0, 60)]
    reprs = repr([t.values for t in tables])
    return hashlib.sha256(reprs.encode()).hexdigest()

if sys.argv[1] == "serial":
    print(run())
else:
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [None] * 4
        start = threading.Barrier(4)

        def work(k):
            start.wait()
            results[k] = run()

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    print(*results, sep="\\n")
"""


def _run_script(script, *args):
    # a fresh interpreter, so every coefficient memo starts cold
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    ).stdout.splitlines()


def test_concurrent_cold_coefficients_give_the_same_bits():
    (serial,) = _run_script(_RACE_SCRIPT, "serial")
    for _ in range(3):
        assert _run_script(_RACE_SCRIPT, "threads") == [serial] * 4


# The deepest cold fills, each in its own interpreter under a small
# recursion limit: p_200, which B and Bhat (lam >= 4) reach at K = 100,
# would need about 400 frames if asked for cold, so both must fill p_m
# in ascending order; the A rows recurse within their index cap of 60,
# and their e_n are in closed form; and the Bernoulli numbers, which
# have none (the coth series of Bhat below lam = 4 reaches
# m = k + 1500), come from a table of tangent numbers built by loops,
# with no recursion at all. The memo of
# p_2k's odd coefficients, which B and Bhat read, asks for p_2k in the
# same ascending order, on B's tanh and 1 - delta paths alike.
# Prints the sha256 of the repr of the values named by argv[1].
_DEPTH_SCRIPT = """
import hashlib, sys
sys.setrecursionlimit(250)
from mxsum import coefficients
from mxsum.coefficients import a_coefficients, b_coefficients, bhat_coefficients
from mxsum.kernel import bernoulli_even

CALLS = {
    "b": lambda: b_coefficients(1.0, 100).values,
    "b-delta": lambda: b_coefficients(20.0, 100).values,
    "odd-coeffs": lambda: [coefficients._odd_coeffs(k) for k in range(101)],
    "bhat-poly": lambda: bhat_coefficients(6.0, 100).values,
    "bhat-series": lambda: bhat_coefficients(1.0, 100).values,
    "a": lambda: a_coefficients(1.0, 60).values,
    "bernoulli": lambda: bernoulli_even(400),
}
print(hashlib.sha256(repr(CALLS[sys.argv[1]]()).encode()).hexdigest())
"""


def test_cold_memos_stay_shallow():
    want = {
        "b": b_coefficients(1.0, 100).values,
        "b-delta": b_coefficients(20.0, 100).values,
        "odd-coeffs": [coefficients._odd_coeffs(k) for k in range(101)],
        "bhat-poly": bhat_coefficients(6.0, 100).values,
        "bhat-series": bhat_coefficients(1.0, 100).values,
        "a": a_coefficients(1.0, 60).values,
        "bernoulli": bernoulli_even(400),
    }
    for name, values in want.items():
        assert _run_script(_DEPTH_SCRIPT, name) == [
            hashlib.sha256(repr(values).encode()).hexdigest()
        ], name
