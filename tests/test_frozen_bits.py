"""Frozen bits: exact reprs of quadrature-backed and expansion results.

The quadrature values were recorded from the straightforward scan that
recomputed each double-exponential node from its transform parameter.
The shared node tables of ``kernel.quadrature`` must reproduce each one
bit for bit: the same abscissae, weights, sums, node counts and error
messages, so the comparisons are exact string equality, not tolerances.

The expansion values were recorded while the routes still had separate
float code for real a; one path for real and complex a must keep them.

The two seeded streams (64 H, J and full-route results; 30 K_nu values)
were recorded before the scan stopped converting each integrand value
to complex and before the integrands hoisted their loop invariants;
that lean hot loop must keep every bit of them. The full routes at
complex a were recorded again when the terms of J took complex ** in
place of exp(-mu log), and their assembly an exactly rounded sum.
"""

import cmath
import hashlib
import math
import random

import pytest

from mxsum.coefficients import bhat_coefficients
from mxsum.evaluators import (
    SeriesParams,
    algebraic_minus,
    algebraic_plus,
    full_minus,
    full_plus,
    h_minus_quadrature,
    h_plus_quadrature,
    j_mu_asymptotic,
    j_mu_quadrature,
    small_a_minus,
)
from mxsum.kernel import QuadratureSpec, integrate, kv_complex

# (mu, lam, a, route) -> (repr(value), repr(error_estimate), notes); the
# full routes pin tail_terms_used instead of the estimate, which carries a
# rounding floor (see test_evaluators); notes give the integrand evaluations
ROUTES = {
    (0.5, 1.0, 6.0, "h_minus_quadrature"): ("(0.03872636172488832+0j)", "6.938893903907228e-18", "247 integrand evaluations"),
    (0.5, 1.0, 6.0, "h_plus_quadrature"): ("(0.01368078495450979+0j)", "1.734723475976807e-18", "212 integrand evaluations"),
    (0.5, 1.0, 6.0, "j_mu_quadrature"): ("(0.16279630104619588+0j)", "0.0", "204 integrand evaluations"),
    (0.5, 1.0, 6.0, "full_minus"): ("(0.12205969867572518+0j)", 3, "247 integrand evaluations"),
    (0.5, 1.0, 6.0, "full_plus"): ("(0.25981041933403903+0j)", 3, ""),
    (0.25, 0.05, 2.0, "h_minus_quadrature"): ("(0.009102234410330803+0j)", "4.1092263567114427e-16", "132 integrand evaluations"),
    (0.25, 0.05, 2.0, "h_plus_quadrature"): ("(0.002966263982346322+0j)", "0.0", "243 integrand evaluations"),
    (0.25, 0.05, 2.0, "j_mu_quadrature"): ("(6.303403226501214+0j)", "0.0", "422 integrand evaluations"),
    (0.25, 0.05, 2.0, "full_minus"): ("(0.36371259186775423+0j)", 5, "247 integrand evaluations"),
    (0.25, 0.05, 2.0, "full_plus"): ("(6.659924057193618+0j)", 5, ""),
    (0.75, 8.0, 3.0, "h_minus_quadrature"): ("(0.09607649986371068+0j)", "1.6024689053196365e-17", "278 integrand evaluations"),
    (0.75, 8.0, 3.0, "h_plus_quadrature"): ("(0.0722900025710965+0j)", "1.6024689053196365e-17", "269 integrand evaluations"),
    (0.75, 8.0, 3.0, "j_mu_quadrature"): ("(0.023994706532053215+0j)", "3.469446951953614e-18", "102 integrand evaluations"),
    (0.75, 8.0, 3.0, "full_minus"): ("(0.19239045153446388+0j)", 4, "278 integrand evaluations"),
    (0.75, 8.0, 3.0, "full_plus"): ("(0.1925097607999111+0j)", 4, ""),
    (0.4, 10.0, 10.0, "h_minus_quadrature"): ("(0.07923749312240316+0j)", "1.0997405711512485e-17", "421 integrand evaluations"),
    (0.4, 10.0, 10.0, "h_plus_quadrature"): ("(0.06340416169431373+0j)", "1.0997405711512485e-17", "264 integrand evaluations"),
    (0.4, 10.0, 10.0, "j_mu_quadrature"): ("(0.015847665072561346+0j)", "0.0", "99 integrand evaluations"),
    (0.4, 10.0, 10.0, "full_minus"): ("(0.1584821527454638+0j)", 2, "421 integrand evaluations"),
    (0.4, 10.0, 10.0, "full_plus"): ("(0.15849648638993075+0j)", 2, ""),
    (0.5, 1.0, (4+1j), "h_minus_quadrature"): ("(0.05485887002887847-0.014064848739439488j)", "0.0", "255 integrand evaluations"),
    (0.5, 1.0, (4+1j), "h_plus_quadrature"): ("(0.01932975981055848-0.004860051862093929j)", "8.673617379884035e-19", "242 integrand evaluations"),
    (0.5, 1.0, (4+1j), "j_mu_quadrature"): ("(0.22673275152522182-0.05256934453435507j)", "0.0", "204 integrand evaluations"),
    (0.5, 1.0, (4+1j), "full_minus"): ("(0.17250756423559188-0.04347917041106391j)", 3, "255 integrand evaluations"),
    (0.5, 1.0, (4+1j), "full_plus"): ("(0.3637095701546108-0.08684116109610586j)", 3, ""),
    (0.3, 2.0, (5-2j), "h_minus_quadrature"): ("(0.13523639642760218+0.031638201602113114j)", "3.401808448569556e-17", "244 integrand evaluations"),
    (0.3, 2.0, (5-2j), "h_plus_quadrature"): ("(0.05554241685756446+0.012938760983731912j)", "1.700904224284778e-17", "226 integrand evaluations"),
    (0.3, 2.0, (5-2j), "j_mu_quadrature"): ("(0.17682878930142512+0.04047658421494795j)", "0.0", "200 integrand evaluations"),
    (0.3, 2.0, (5-2j), "full_minus"): ("(0.312585104371449+0.07284556742167095j)", 3, "244 integrand evaluations"),
    (0.3, 2.0, (5-2j), "full_plus"): ("(0.40972178339699455+0.09462362219598913j)", 3, ""),
    (0.6, 0.1, (1.5+0.5j), "h_minus_quadrature"): ("(0.015356890913906535-0.007712639200785234j)", "1.3656500884821101e-15", "143 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "h_plus_quadrature"): ("(0.004501509994361109-0.001941887137039718j)", "1.9785465292076182e-19", "265 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "j_mu_quadrature"): ("(1.6429959207797433-0.2937924199940496j)", "1.3145040611561853e-13", "218 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "full_minus"): ("(0.2803349312556581-0.12713194707309497j)", 6, "268 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "full_plus"): ("(1.914722192507366-0.4043762032119788j)", 6, ""),
    (0.2, 6.0, (8+3j), "h_minus_quadrature"): ("(0.20869720257368582-0.030081998560883942j)", "7.109386066284364e-17", "464 integrand evaluations"),
    (0.2, 6.0, (8+3j), "h_plus_quadrature"): ("(0.14091848814059968-0.020368158134486895j)", "6.2838688719285336e-18", "400 integrand evaluations"),
    (0.2, 6.0, (8+3j), "j_mu_quadrature"): ("(0.06992832921559348-0.0100976406523348j)", "5.575456304969596e-17", "103 integrand evaluations"),
    (0.2, 6.0, (8+3j), "full_minus"): ("(0.41857634231797014-0.060486830206756124j)", 2, "464 integrand evaluations"),
    (0.2, 6.0, (8+3j), "full_plus"): ("(0.4206528308381492-0.06078310724450071j)", 2, ""),
}
# (nu, z) -> K_nu(z)
KV = {
    (0.25, (3+1j)): (0.013869634313956812-0.031284303892194595j),
    (0.1, (0.5+0.2j)): (0.8498931609814644-0.31389243802748645j),
    (0.4, (12+10j)): (-1.1765063502929396e-06+1.5477350369026261e-06j),
    (0.25, (1+3j)): (-0.2298017779912459+0.11326594158693562j),
    (0.3, (5+15j)): (-0.002111867840522327-0.0001866223130275041j),
    (0.45, (0.3+2j)): (-0.588342938792449-0.27753723061030744j),
}

# name -> (integrand, spec); covers both maps, a zero at the centre node,
# an integrand that is zero on half the interval, a shifted interval,
# the NaN/infinity messages, and (the first two) exhaustion of the
# 12-level budget
INTEGRANDS = {
    "centre-zero": (lambda t, dl, du: t - 0.5, QuadratureSpec(0.0, 1.0)),
    "left-half-only": (
        lambda t, dl, du: 0.0 if t > 0.5 else math.sqrt(t),
        QuadratureSpec(0.0, 1.0),
    ),
    "shifted-sqrt": (lambda t, dl, du: 1.0 / math.sqrt(du), QuadratureSpec(-1.0, 3.0)),
    "slow-power": (lambda t, dl, du: (1.0 + t) ** -1.5, QuadratureSpec(2.0, math.inf)),
    "oscillating-exp": (
        lambda t, dl, du: complex(math.cos(t), math.sin(t)) * math.exp(-t),
        QuadratureSpec(0.5, math.inf),
    ),
    "zero": (lambda t, dl, du: 0.0, QuadratureSpec(0.0, math.inf)),
    "inf-far": (
        lambda t, dl, du: math.inf if t > 4.0 else 1.0,
        QuadratureSpec(0.0, math.inf),
    ),
    "nan-near": (
        lambda t, dl, du: math.nan if t < 1e-3 else 1.0,
        QuadratureSpec(0.0, 1.0),
    ),
}

# name -> (repr(value), terms_used, repr(last_term_magnitude)), or
# (exception type, message)
INTEGRALS = {
    "centre-zero": ("NonConvergenceError", "quadrature did not reach rel tol 1.0e-13 within 12 refinements (last delta 5.459e-19, estimate (1.4267819091825689e-18+0j))"),
    "left-half-only": ("NonConvergenceError", "quadrature did not reach rel tol 1.0e-13 within 12 refinements (last delta 6.780e-05, estimate (0.2357700555756232+0j))"),
    "shifted-sqrt": ("(4+0j)", 75, "6.217248937900877e-15"),
    "slow-power": ("(1.1547005383792515+0j)", 161, "0.0"),
    "oscillating-exp": ("(0.12074722100148944+0.4115335092141813j)", 389, "5.551115123125783e-17"),
    "zero": ("0j", 13, "0.0"),
    "inf-far": ("IntegrandError", "integrand returned an infinity at t = 6.334441939256981"),
    "nan-near": ("IntegrandError", "integrand returned NaN at t = 1.1261403769203559e-05"),
}

# (mu, lam, a, K, route) -> (repr(value), repr(error_estimate), notes);
# algebraic_plus runs with sign plus, the other two with sign minus
EXPANSIONS = {
    (0.5, 1.0, 6.0, 0, "algebraic_minus"): ("(0.12184309643833414+0j)", "0.0002103188603540472", ""),
    (0.5, 1.0, 6.0, 0, "algebraic_plus"): ("(0.26366278447822106+0j)", "0.004647465816840307", ""),
    (0.5, 1.0, 6.0, 0, "j_mu_asymptotic"): ("(0.16666666666666666+0j)", "0.004629629629629629", ""),
    (0.5, 1.0, 6.0, 5, "algebraic_minus"): ("(0.12205970255144044+0j)", "2.3153448207891613e-09", ""),
    (0.5, 1.0, 6.0, 5, "algebraic_plus"): ("(0.2580373075162329+0j)", "0.00827337543276587", "terms grow from k = 4"),
    (0.5, 1.0, 6.0, 5, "j_mu_asymptotic"): ("(0.1610231892289666+0j)", "0.008273375432241653", "terms grow from k = 4"),
    (0.5, 1.0, 6.0, 8, "algebraic_minus"): ("(0.1220596982737214+0j)", "2.3164268004602217e-10", ""),
    (0.5, 1.0, 6.0, 8, "algebraic_plus"): ("(0.47021491495617374+0j)", "1.9486879315495491", "terms grow from k = 4"),
    (0.5, 1.0, 6.0, 8, "j_mu_asymptotic"): ("(0.37320079666833067+0j)", "1.948687931549549", "terms grow from k = 4"),
    (0.3, 2.5, (5-2j), 0, "algebraic_minus"): ("(0.3277941704463999+0.07616458420506969j)", "0.00022401958656086222", ""),
    (0.3, 2.5, (5-2j), 0, "algebraic_plus"): ("(0.3864204789601009+0.08978669470612974j)", "0.0005317353153259755", ""),
    (0.3, 2.5, (5-2j), 0, "j_mu_asymptotic"): ("(0.14188046179056588+0.03296662159789307j)", "0.0004821851455015071", ""),
    (0.3, 2.5, (5-2j), 5, "algebraic_minus"): ("(0.3279175147087879+0.07635088800346994j)", "4.946049508332919e-10", ""),
    (0.3, 2.5, (5-2j), 5, "algebraic_plus"): ("(0.3861807334084855+0.08944444341850763j)", "1.8438675573440878e-07", ""),
    (0.3, 2.5, (5-2j), 5, "j_mu_asymptotic"): ("(0.14161355265809564+0.0325826839365648j)", "1.8438588674917537e-07", ""),
    (0.3, 2.5, (5-2j), 8, "algebraic_minus"): ("(0.32791751450826084+0.0763508876178115j)", "1.571152066778375e-11", ""),
    (0.3, 2.5, (5-2j), 8, "algebraic_plus"): ("(0.38618082532180276+0.089444377189069j)", "3.134791470598798e-07", "terms grow from k = 8"),
    (0.3, 2.5, (5-2j), 8, "j_mu_asymptotic"): ("(0.14161364457152775+0.032582617706218606j)", "3.134791440099371e-07", "terms grow from k = 8"),
    (0.75, 6.0, 9.0, 0, "algebraic_minus"): ("(0.03694545840160612+0j)", "8.416707117216384e-07", ""),
    (0.75, 6.0, 9.0, 0, "algebraic_plus"): ("(0.037129070802105354+0j)", "5.492130252486901e-06", ""),
    (0.75, 6.0, 9.0, 0, "j_mu_asymptotic"): ("(0.006172839506172839+0j)", "3.175328964080678e-06", ""),
    (0.75, 6.0, 9.0, 5, "algebraic_minus"): ("(0.03694629133669429+0j)", "1.023783670386105e-15", ""),
    (0.75, 6.0, 9.0, 5, "algebraic_plus"): ("(0.03712822170696664+0j)", "2.4881750988581793e-15", ""),
    (0.75, 6.0, 9.0, 5, "j_mu_asymptotic"): ("(0.006169675505061886+0j)", "2.4693864637926716e-15", ""),
    (0.75, 6.0, 9.0, 8, "algebraic_minus"): ("(0.036946291336695275+0j)", "2.338462700993344e-19", ""),
    (0.75, 6.0, 9.0, 8, "algebraic_plus"): ("(0.03712822170696896+0j)", "1.2109703311001448e-18", ""),
    (0.75, 6.0, 9.0, 8, "j_mu_asymptotic"): ("(0.006169675505064219+0j)", "1.2089645108601365e-18", ""),
    (1.5, 0.5, (8+3j), 0, "algebraic_minus"): ("(0.00047362444838078787-0.0008784453451386911j)", "1.8961850155135943e-06", ""),
    (1.5, 0.5, (8+3j), 0, "algebraic_plus"): ("(0.0019338030174282674-0.0035866819478652663j)", "0.0005272480229500318", ""),
    (1.5, 0.5, (8+3j), 0, "j_mu_asymptotic"): ("(0.0015217843950264384-0.0028224987596943063j)", "0.0005271134420542567", ""),
    (1.5, 0.5, (8+3j), 5, "algebraic_minus"): ("(0.00047315350835784944-0.0008803287878536389j)", "7.72379640229932e-12", ""),
    (1.5, 0.5, (8+3j), 5, "algebraic_plus"): ("(0.0012921280170216762-0.016874282126784206j)", "0.12191603568397544", "terms grow from k = 3"),
    (1.5, 0.5, (8+3j), 5, "j_mu_asymptotic"): ("(0.000880140048792776-0.016109967062344292j)", "0.12191603568397441", "terms grow from k = 3"),
    (1.5, 0.5, (8+3j), 8, "algebraic_minus"): ("(0.00047315351503230725-0.0008803287816799518j)", "4.939776996632292e-14", ""),
    (1.5, 0.5, (8+3j), 8, "algebraic_plus"): ("(14.468839276582086-9.41546311473602j)", "322.1436240660426", "terms grow from k = 3"),
    (1.5, 0.5, (8+3j), 8, "j_mu_asymptotic"): ("(14.468427288613857-9.414698799671582j)", "322.1436240660426", "terms grow from k = 3"),
}
# (mu, lam, a) -> (repr(value), repr(error_estimate), truncation_index)
# of small_a_minus at K = 40: plain summation for |a| <= 0.7, the
# accelerated branch near |a| = 1
SMALL_A = {
    (0.5, 1.0, 0.5): ("(0.4076831964154203+0j)", "5.770567803758841e-19", 28),
    (0.25, 3.0, (0.4+0.3j)): ("(0.7209519077787515+0.028984641340626865j)", "1.0396430202392945e-18", 28),
    (0.7, 0.5, 0.95): ("(0.18499285068239846+0j)", "2.697801216093078e-17", 39),
    (0.4, 2.0, (0.8+0.4j)): ("(0.4838174662946712-0.1747072575183332j)", "1.498411747425604e-12", 39),
    (0.5, 1.0, 1.0): ("(0.264187808260733+0j)", "3.131881329541987e-17", 39),
}
# sha256 of the reprs of bhat_coefficients(lam, 20).values, lam = 0.2, 1, 3
BHAT_SHA256 = "e5ac90a5759fb3a5c625a6a7d881fcbcf2b5049313d05c6d14234ab5a6b38924"
# sha256 of the 64 results of _quadrature_stream, re-recorded when the
# terms of J at complex a took complex ** in place of exp(-mu log) and
# _full's assembly became an exactly rounded sum; and of the 30 K_nu
# values of _kv_stream, recorded before the Hankel series lost its
# optimal truncation (the 30 values did not move)
QUADRATURE_STREAM_SHA256 = "499fd97b70a2e2765c95d6b7ea5097cc3703582ffc25170b1689dac8f963d899"
KV_STREAM_SHA256 = "be6c3b35410063aee78d62ad72a294f00838cb44760170a91d183f9379bcaefb"

ROUTE_FUNCTIONS = {
    "h_minus_quadrature": h_minus_quadrature,
    "h_plus_quadrature": h_plus_quadrature,
    "j_mu_quadrature": j_mu_quadrature,
    "full_minus": full_minus,
    "full_plus": full_plus,
    "algebraic_minus": algebraic_minus,
    "algebraic_plus": algebraic_plus,
    "j_mu_asymptotic": j_mu_asymptotic,
}


@pytest.mark.parametrize("name", sorted(INTEGRALS))
def test_integrate_bits(name):
    f, spec = INTEGRANDS[name]
    try:
        r = integrate(f, spec)
        got = (repr(r.value), r.terms_used, repr(r.last_term_magnitude))
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    assert got == INTEGRALS[name]


def test_route_bits():
    for (mu, lam, a, route), want in ROUTES.items():
        e = ROUTE_FUNCTIONS[route](SeriesParams(mu, lam, a))
        if route.startswith("full"):
            got = (repr(e.value), e.tail_terms_used, e.notes)
        else:
            got = (repr(e.value), repr(e.error_estimate), e.notes)
        assert got == want, (mu, lam, a, route)


def test_kv_complex_bits():
    # trapezoid regime (|z| < 20, |arg z| <= pi/4) and rotated contour
    # (|arg z| > pi/4), which runs on both quadrature maps
    for (nu, z), want in KV.items():
        assert repr(kv_complex(nu, z)) == repr(want), (nu, z)


def test_expansion_bits():
    for (mu, lam, a, K, route), want in EXPANSIONS.items():
        sign = "plus" if route == "algebraic_plus" else "minus"
        e = ROUTE_FUNCTIONS[route](SeriesParams(mu, lam, a, sign), K)
        got = (repr(e.value), repr(e.error_estimate), e.notes)
        assert got == want, (mu, lam, a, K, route)


def test_small_a_bits():
    for (mu, lam, a), want in SMALL_A.items():
        e = small_a_minus(SeriesParams(mu, lam, a))
        assert (repr(e.value), repr(e.error_estimate), e.truncation_index) == want, a


def test_bhat_bits():
    h = hashlib.sha256()
    for lam in (0.2, 1.0, 3.0):
        h.update(repr(bhat_coefficients(lam, 20).values).encode())
    assert h.hexdigest() == BHAT_SHA256


def _outcome(fn, *args):
    try:
        e = fn(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{e.value!r} {e.error_estimate!r} {e.tail_terms_used} {e.notes}"


def _quadrature_stream():
    # 16 seeded points at full-points-like inputs, half at complex a;
    # full_minus, full_plus, one H route and J at each point
    rng = random.Random(8)
    for i in range(16):
        mu = rng.uniform(0.05, 0.95)
        lam = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        a = math.exp(rng.uniform(math.log(1.5), math.log(40.0)))
        if i % 2:
            a *= cmath.exp(1j * rng.uniform(-0.5, 0.5))
        h = h_plus_quadrature if i % 4 == 1 else h_minus_quadrature
        sign = "plus" if h is h_plus_quadrature else "minus"
        yield _outcome(full_minus, SeriesParams(mu, lam, a))
        yield _outcome(full_plus, SeriesParams(mu, lam, a, "plus"))
        yield _outcome(h, SeriesParams(mu, lam, a, sign))
        yield _outcome(j_mu_quadrature, SeriesParams(mu, lam, a, "plus"))


def _kv_stream():
    # ten seeded points in each regime of kv_complex: Hankel (|z| >= 20),
    # the trapezoid (|arg z| <= pi/4) and the rotated contour
    rng = random.Random(8)
    for lo, hi, arg_lo, arg_hi in (
        (20.0, 30.0, -1.4, 1.4),
        (0.2, 19.0, -0.78, 0.78),
        (0.2, 19.0, 0.8, 1.5),
    ):
        for _ in range(10):
            nu = rng.uniform(-0.5, 3.0)
            z = cmath.rect(rng.uniform(lo, hi), rng.uniform(arg_lo, arg_hi))
            yield repr(kv_complex(nu, z))


def test_quadrature_stream_bits():
    h = hashlib.sha256("\n".join(_quadrature_stream()).encode())
    assert h.hexdigest() == QUADRATURE_STREAM_SHA256


def test_kv_stream_bits():
    h = hashlib.sha256("\n".join(_kv_stream()).encode())
    assert h.hexdigest() == KV_STREAM_SHA256
