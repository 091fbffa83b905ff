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
place of exp(-mu log), and their assembly an exactly rounded sum. The
K_nu values below |z| = 20, and full_minus at (0.6, 0.1, 1.5 + 0.5i),
which moved by one ulp, were recorded again when Steed's continued
fraction and Temme's series replaced the two quadrature regimes there;
against 30-digit mpmath the worst relative error fell from 1.9e-15 to
2.7e-16 for the pinned K values and from 3.8e-15 to 4.8e-16 in the
stream.

The H, J and full-route values and the quadrature stream were recorded
again when H moved to the half-line t = tanh(sigma u) and J to
t = |a| u. Values moved by an ulp or two either way; in the stream the
worst relative distance to 40-digit references went from 3.3e-16 to
2.8e-16, and the H and J estimates gained a floor of eps times the
quadrature's absolute mass.

The full routes at |Im a| >= 1 (a = 4+1i, 5-2i, 8+3i) and the
quadrature stream were recorded again when those routes moved to the
rotated path: the ray integral and the subdominant Bessel sum in place
of H and the whole tail. Four of the six values moved: the distance to
a 40-digit sum fell at three (5.2e-17 -> 8.2e-18, 7.0e-17 -> 1.5e-17,
2.0e-17 -> 1.7e-17) and rose by one ulp, 1.0e-17 -> 1.1e-17, at
full_minus (0.5, 1, 4+1i); full_minus now counts the ray integral's
evaluations. In the stream one
value moved (relative distance 1.2e-16 -> 3.6e-17); the rest moved in
their estimate or evaluation count only, the tail's estimate now
carrying a rounding floor.

When the quadrature became one exp-sinh rule on (0, inf), whose
integrands take t alone, every route value, both streams and the
half-line integrals kept their bits. The finite-interval integrals went
with the tanh-sinh rule: four of them were recorded again as integrals
over (0, inf), by the two-rule scan before its removal.

The integrals, the route values and the quadrature stream were recorded
again when the exp-exp map t = exp(5s/8 - e^-s)/8 replaced exp-sinh,
checked first against 40-digit references (explicit sums for the full
routes, quadrature in t = tanh(u/2) for H, closed forms for the
integrals). Of the 40 route pins, 13 values moved; the worst relative
distance went from 2.8e-16 to 3.8e-16 (h_minus_quadrature at
(0.2, 6, 8+3i)) and the median from 9.2e-17 to 7.2e-17. In the stream
28 of 64 values moved; the worst distance stayed 2.8e-16 and the
median went from 8.3e-17 to 7.6e-17. The rest moved in their
evaluation counts and estimates only. No value misses 2x its estimate.
Of the integrals, oscillating-exp moved by one ulp (5.0e-17 ->
5.7e-17), the algebraic slow-power now refuses at the last node, and the
other five moved in count, message or refusal estimate. Zero takes 187
evaluations in place of 13: a side counts its nodes as negligible only
after a nonzero value, so a side that is 0 everywhere runs to its end.
That rule added off-centre-gaussian, which both maps had returned as 0
or refused because its values underflow near the centre; its relative
distance to sqrt(pi), 1.3e-15, is the rounding of t near 30 carried
through the steep exp(-(t - 30)^2), not quadrature error.

J at complex a, and full_plus at complex a through it, were recorded
again when J moved onto the ray t = |a| e^(i arg(a)/2) u, each checked
first against a 40-digit reference (the closed form of
``oracles.laplace`` for J, ``oracles.explicit_sum`` for full_plus). J's
estimates also gained the 2 eps floor of complex a. Three of the four
J values moved, by an ulp or two (worst relative distance 1.5e-16 ->
1.3e-16), two evaluation counts rose by one, and three of the four
full_plus pins moved by an ulp (worst 1.3e-16 -> 1.5e-16). In the
stream the 8 J and 8 full_plus results at complex a moved, 14 of them
in value, the rest in estimate; the worst relative distance went from
2.2e-16 to 2.3e-16, and every value is within 0.8 of its estimate.
Every real-a, H, ray, K_nu and integral pin kept its bits.

The integrals, the route pins and the quadrature stream were recorded
again when a side came to end at its first negligible node (below
1e-17 of the absolute mass, in place of two nodes below 1e-19) and the
ray integral moved onto x = c u, c = max(1, 4 min(1, pi/lam)). Each
moved value was checked first against a 40-digit reference (explicit
sums for the full routes, ``oracles.branch_cut`` for H, closed forms
for the integrals). No integral moved in value: six moved in their
count or in their refusal's message. Of the 40 route pins, 3 values
moved, each towards its reference (1.8e-16 -> 3.8e-17 at
h_plus_quadrature (0.4, 10, 10), 6.2e-17 -> 5.8e-17 and
4.0e-17 -> 3.7e-17 at the two complex-a full routes); the worst
relative distance stayed 3.8e-16 (h_minus_quadrature at
(0.2, 6, 8+3i)), and 30 more moved in their evaluation counts only.
In the stream 51 of 64 results moved, 3 of them in value (the worst of
the three at 4.8e-17); the worst relative distance stayed 2.8e-16, and
every value is within 1.3 of its estimate.

Three integrals were recorded again, in their estimate alone, when
``integrate`` came to floor its estimate at eps times its absolute
mass, as every route already did: no value, count or route pin moved,
nor the stream. Against the closed forms, shifted-sqrt (sqrt(pi)) is
0.37 of its new estimate and oscillating-exp (e^((i-1)/2)/(1-i)) 0.18;
off-centre-gaussian (sqrt(pi)) stays 6.0x its estimate, the rounding of
its abscissae that the estimate leaves out.

The three algebraic_minus pins at (0.75, 6, 9) were recorded again, in
their estimate alone, when B above lam = ln 3 came to take tanh(lam/2)
as 1 - delta: the estimate is the first omitted term, whose B_(K+1)
moved. Against that term with 40-digit B its relative distance fell from
2.8e-15, 4.7e-15 and 7.9e-15 (K = 0, 5, 8) to below 9e-17; the values,
which take B_0 .. B_K, kept their bits.
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
from mxsum.kernel import integrate, kv_complex

# (mu, lam, a, route) -> (repr(value), repr(error_estimate), notes); the
# full routes pin tail_terms_used instead of the estimate, which carries a
# rounding floor (see test_evaluators); notes give the integrand evaluations
ROUTES = {
    (0.5, 1.0, 6.0, "h_minus_quadrature"): ("(0.03872636172488832+0j)", "8.599879728587932e-18", "114 integrand evaluations"),
    (0.5, 1.0, 6.0, "h_plus_quadrature"): ("(0.01368078495450979+0j)", "3.037744501970347e-18", "96 integrand evaluations"),
    (0.5, 1.0, 6.0, "j_mu_quadrature"): ("(0.16279630104619588+0j)", "3.6148040349059026e-17", "88 integrand evaluations"),
    (0.5, 1.0, 6.0, "full_minus"): ("(0.12205969867572518+0j)", 3, "114 integrand evaluations"),
    (0.5, 1.0, 6.0, "full_plus"): ("(0.25981041933403903+0j)", 3, ""),
    (0.25, 0.05, 2.0, "h_minus_quadrature"): ("(0.009102234410330801+0j)", "2.0211020435769285e-18", "113 integrand evaluations"),
    (0.25, 0.05, 2.0, "h_plus_quadrature"): ("(0.002966263982346322+0j)", "6.586429140634393e-19", "112 integrand evaluations"),
    (0.25, 0.05, 2.0, "j_mu_quadrature"): ("(6.303403226501215+0j)", "1.399636679111631e-15", "139 integrand evaluations"),
    (0.25, 0.05, 2.0, "full_minus"): ("(0.36371259186775423+0j)", 5, "113 integrand evaluations"),
    (0.25, 0.05, 2.0, "full_plus"): ("(6.65992405719362+0j)", 5, ""),
    (0.75, 8.0, 3.0, "h_minus_quadrature"): ("(0.0960764998637107+0j)", "2.3075552236602768e-15", "127 integrand evaluations"),
    (0.75, 8.0, 3.0, "h_plus_quadrature"): ("(0.0722900025710965+0j)", "1.7361954731252666e-17", "123 integrand evaluations"),
    (0.75, 8.0, 3.0, "j_mu_quadrature"): ("(0.02399470653205321+0j)", "5.327895132201822e-18", "71 integrand evaluations"),
    (0.75, 8.0, 3.0, "full_minus"): ("(0.1923904515344639+0j)", 4, "247 integrand evaluations"),
    (0.75, 8.0, 3.0, "full_plus"): ("(0.1925097607999111+0j)", 4, ""),
    (0.4, 10.0, 10.0, "h_minus_quadrature"): ("(0.07923749312240315+0j)", "2.5666347368641764e-17", "203 integrand evaluations"),
    (0.4, 10.0, 10.0, "h_plus_quadrature"): ("(0.06340416169431372+0j)", "1.5823458829578353e-17", "138 integrand evaluations"),
    (0.4, 10.0, 10.0, "j_mu_quadrature"): ("(0.015847665072561346+0j)", "3.518888530021102e-18", "103 integrand evaluations"),
    (0.4, 10.0, 10.0, "full_minus"): ("(0.1584821527454638+0j)", 2, "203 integrand evaluations"),
    (0.4, 10.0, 10.0, "full_plus"): ("(0.15849648638993075+0j)", 2, ""),
    (0.5, 1.0, (4+1j), "h_minus_quadrature"): ("(0.05485887002887847-0.014064848739439488j)", "1.3270153324380461e-17", "117 integrand evaluations"),
    (0.5, 1.0, (4+1j), "h_plus_quadrature"): ("(0.01932975981055848-0.004860051862093928j)", "4.596172253852066e-18", "112 integrand evaluations"),
    (0.5, 1.0, (4+1j), "j_mu_quadrature"): ("(0.2267327515252218-0.05256934453435508j)", "1.0386857076147189e-16", "93 integrand evaluations"),
    (0.5, 1.0, (4+1j), "full_minus"): ("(0.17250756423559188-0.04347917041106391j)", 3, "293 integrand evaluations"),
    (0.5, 1.0, (4+1j), "full_plus"): ("(0.36370957015461075-0.08684116109610586j)", 3, ""),
    (0.3, 2.0, (5-2j), "h_minus_quadrature"): ("(0.13523639642760218+0.0316382016021131j)", "3.776692236782066e-17", "113 integrand evaluations"),
    (0.3, 2.0, (5-2j), "h_plus_quadrature"): ("(0.05554241685756446+0.012938760983731912j)", "1.401300361559723e-17", "104 integrand evaluations"),
    (0.3, 2.0, (5-2j), "j_mu_quadrature"): ("(0.17682878930142512+0.04047658421494794j)", "8.195385293656851e-17", "82 integrand evaluations"),
    (0.3, 2.0, (5-2j), "full_minus"): ("(0.312585104371449+0.07284556742167093j)", 3, "151 integrand evaluations"),
    (0.3, 2.0, (5-2j), "full_plus"): ("(0.40972178339699455+0.09462362219598912j)", 3, ""),
    (0.6, 0.1, (1.5+0.5j), "h_minus_quadrature"): ("(0.015356890913906535-0.007712639200785234j)", "4.132918540345233e-18", "122 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "h_plus_quadrature"): ("(0.004501509994361109-0.001941887137039718j)", "1.177730071216475e-18", "121 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "j_mu_quadrature"): ("(1.6429959207797435-0.2937924199940496j)", "7.424821747213494e-16", "133 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "full_minus"): ("(0.2803349312556581-0.12713194707309494j)", 6, "122 integrand evaluations"),
    (0.6, 0.1, (1.5+0.5j), "full_plus"): ("(1.9147221925073663-0.4043762032119788j)", 6, ""),
    (0.2, 6.0, (8+3j), "h_minus_quadrature"): ("(0.20869720257368576-0.030081998560883998j)", "1.362544955759445e-16", "221 integrand evaluations"),
    (0.2, 6.0, (8+3j), "h_plus_quadrature"): ("(0.14091848814059965-0.020368158134486898j)", "4.028062846094565e-17", "189 integrand evaluations"),
    (0.2, 6.0, (8+3j), "j_mu_quadrature"): ("(0.06992832921559348-0.010097640652334799j)", "3.188717290081003e-17", "62 integrand evaluations"),
    (0.2, 6.0, (8+3j), "full_minus"): ("(0.41857634231797014-0.06048683020675611j)", 2, "167 integrand evaluations"),
    (0.2, 6.0, (8+3j), "full_plus"): ("(0.42065283083814914-0.060783107244500714j)", 2, ""),
}
# (nu, z) -> K_nu(z)
KV = {
    (0.25, (3+1j)): (0.01386963431395681-0.03128430389219461j),
    (0.1, (0.5+0.2j)): (0.8498931609814643-0.31389243802748645j),
    (0.4, (12+10j)): (-1.1765063502929402e-06+1.5477350369026257e-06j),
    (0.25, (1+3j)): (-0.2298017779912459+0.11326594158693563j),
    (0.3, (5+15j)): (-0.0021118678405223235-0.0001866223130275059j),
    (0.45, (0.3+2j)): (-0.5883429387924489-0.2775372306103074j),
}

# name -> integrand on (0, inf); covers a zero integral, an integrand
# that is zero beyond t = 1, a singular endpoint, two integrands that
# shift their own argument (the integrals over (2, inf) and (0.5, inf)),
# the NaN/infinity messages, exhaustion of the 12-level budget (the first
# two and the jump of step-at-one), an algebraic decay, which refuses at
# the last node (slow-power), and a peak whose value underflows to 0 at
# every node near the centre (off-centre-gaussian, sqrt(pi))
INTEGRANDS = {
    "centre-zero": lambda t: (t - 1.0) * math.exp(-t),
    "left-half-only": lambda t: 0.0 if t > 1.0 else math.sqrt(t),
    "shifted-sqrt": lambda t: math.exp(-t) / math.sqrt(t),
    "slow-power": lambda t: (1.0 + (2.0 + t)) ** -1.5,
    "oscillating-exp": lambda t: (
        complex(math.cos(0.5 + t), math.sin(0.5 + t)) * math.exp(-(0.5 + t))
    ),
    "zero": lambda t: 0.0,
    "inf-far": lambda t: math.inf if t > 4.0 else 1.0,
    "nan-near": lambda t: math.nan if t < 1e-3 else math.exp(-t),
    "off-centre-gaussian": lambda t: math.exp(-((t - 30.0) ** 2)),
    "step-at-one": lambda t: math.exp(-t) if t >= 1.0 else 0.0,
}

# name -> (repr(value), terms_used, repr(last_term_magnitude)), or
# (exception type, message); every entry was recorded again when the
# exp-exp map replaced exp-sinh, six when a side came to end at its
# first negligible node, and three in their estimate alone when integrate
# floored its estimate at eps * abs_sum (see the module docstring)
INTEGRALS = {
    "centre-zero": ("NonConvergenceError", "quadrature did not reach rel tol 1.0e-13 within 12 refinements (last delta 9.983e-17, estimate (-1.942237229780584e-16+0j))"),
    "left-half-only": ("NonConvergenceError", "quadrature did not reach rel tol 1.0e-13 within 12 refinements (last delta 8.044e-05, estimate (0.6666462518267269+0j))"),
    "shifted-sqrt": ("(1.7724538509055159+0j)", 116, "3.935638150721655e-16"),
    "slow-power": ("NonConvergenceError", "quadrature reached its last node, t = 9000612417.173248, before the integrand became negligible: it must decay at least exponentially"),
    "oscillating-exp": ("(0.12074722100148942+0.4115335092141813j)", 216, "1.3467686071081032e-16"),
    "zero": ("0j", 187, "0.0"),
    "inf-far": ("IntegrandError", "integrand returned an infinity at t = 5.301976662114237"),
    "nan-near": ("IntegrandError", "integrand returned NaN at t = 2.2131743100271307e-05"),
    "off-centre-gaussian": ("(1.7724538509055137+0j)", 2013, "3.9356381507216503e-16"),
    "step-at-one": ("NonConvergenceError", "quadrature did not reach rel tol 1.0e-13 within 12 refinements (last delta 2.959e-05, estimate (0.3678869508911907+0j))"),
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
    (0.75, 6.0, 9.0, 0, "algebraic_minus"): ("(0.03694545840160612+0j)", "8.416707117216408e-07", ""),
    (0.75, 6.0, 9.0, 0, "algebraic_plus"): ("(0.037129070802105354+0j)", "5.492130252486901e-06", ""),
    (0.75, 6.0, 9.0, 0, "j_mu_asymptotic"): ("(0.006172839506172839+0j)", "3.175328964080678e-06", ""),
    (0.75, 6.0, 9.0, 5, "algebraic_minus"): ("(0.03694629133669429+0j)", "1.02378367038611e-15", ""),
    (0.75, 6.0, 9.0, 5, "algebraic_plus"): ("(0.03712822170696664+0j)", "2.4881750988581793e-15", ""),
    (0.75, 6.0, 9.0, 5, "j_mu_asymptotic"): ("(0.006169675505061886+0j)", "2.4693864637926716e-15", ""),
    (0.75, 6.0, 9.0, 8, "algebraic_minus"): ("(0.036946291336695275+0j)", "2.3384627009933627e-19", ""),
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
# accelerated branch near |a| = 1; the estimates were re-recorded when
# they gained their rounding floor (four of five were below the error)
SMALL_A = {
    (0.5, 1.0, 0.5): ("(0.4076831964154203+0j)", "5.737303547232723e-16", 28),
    (0.25, 3.0, (0.4+0.3j)): ("(0.7209519077787515+0.028984641340626865j)", "1.1436927238797841e-15", 28),
    (0.7, 0.5, 0.95): ("(0.18499285068239846+0j)", "2.6581241563732466e-15", 39),
    (0.4, 2.0, (0.8+0.4j)): ("(0.4838174662946712-0.1747072575183332j)", "1.498411747425604e-12", 39),
    (0.5, 1.0, 1.0): ("(0.264187808260733+0j)", "6.6684565203705825e-15", 39),
}
# sha256 of the reprs of bhat_coefficients(lam, 20).values, lam = 0.2, 1, 3
BHAT_SHA256 = "e5ac90a5759fb3a5c625a6a7d881fcbcf2b5049313d05c6d14234ab5a6b38924"
# sha256 of the 64 results of _quadrature_stream, re-recorded when H
# and J moved to their half-line variables, when the full routes at
# |Im a| >= 1 moved to the rotated path, when the exp-exp map replaced
# exp-sinh, when J at complex a moved onto the ray at arg(a)/2 and when
# a side came to end at its first negligible node; and of the 30 K_nu
# values of _kv_stream, recorded again when CF2 and Temme's series
# replaced the quadrature below |z| = 20 (the ten Hankel values did not
# move)
QUADRATURE_STREAM_SHA256 = "7645592edf15a02f85ffdeda65090b24b348d2124fec451b0af1cfd19bb8f95a"
KV_STREAM_SHA256 = "995c28aa54ada48c540a83311e51ad5b2a7a6eef70944afd09df29801650dbab"

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
    try:
        r = integrate(INTEGRANDS[name])
        got = (repr(r.value), r.terms_used, repr(r.last_term_magnitude))
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    assert got == INTEGRALS[name]


def test_route_bits():
    for (mu, lam, a, route), want in ROUTES.items():
        sign = "plus" if "plus" in route else "minus"
        e = ROUTE_FUNCTIONS[route](SeriesParams(mu, lam, a, sign))
        if route.startswith("full"):
            got = (repr(e.value), e.tail_terms_used, e.notes)
        else:
            got = (repr(e.value), repr(e.error_estimate), e.notes)
        assert got == want, (mu, lam, a, route)


def test_kv_complex_bits():
    # CF2 (1.5 <= |z| < 20) and Temme's series (|z| < 1.5), orders
    # below 1/2 and arguments on both sides of arg z = pi/4
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
    # ten seeded points each in three bands: Hankel (|z| >= 20), and
    # |z| < 20 on either side of arg z = pi/4 (CF2, and Temme's series
    # below |z| = 1.5)
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
