"""End-to-end acceptance gate.

One test per numbered criterion, each judged at its stated tolerance.
Every test prints a single "criterion N: PASS/FAIL - detail" line and
asserts the same verdict, so the summary of this module is the
acceptance report. One Table 1 reference value carries a single-digit
transcription slip (cell k0-a08: recorded 4.859e-4, true 9.859e-4).
The harness keeps it verbatim, so its report row reads false; criterion
1 accepts that one row only after a 40-digit explicit sum, independent
of the routes, confirms the corrected value and the program's figure.
"""

import math
import time

import mpmath

from mxsum.coefficients import a_coefficients, b_coefficients, bhat_coefficients
from mxsum.evaluators import (
    SeriesParams,
    bessel_tail_minus,
    direct_sum,
    full_minus,
    full_plus,
    h_minus_quadrature,
    integer_mu_closed_form,
    lambda0_plus,
    mu_step_check,
    olver_lambda0_minus,
)
from mxsum.harness import (
    decay_rate_fit,
    reproduce_table1,
    reproduce_table3,
    table2_convention_report,
)
from mxsum.oracles import coefficient, explicit_sum


def _verdict(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _table_summary(rows, elapsed, erratum=None):
    """Verdict over one reproduced table; row `erratum` may fail."""
    err_rows = [r for r in rows if r.k is not None]
    s_rows = [r for r in rows if r.k is None]
    bad = [r for r in rows if not r.passed and r.row_id != erratum]
    ok = (
        not bad
        and len(err_rows) == 18
        and len(s_rows) == 3
        and elapsed < 10.0
    )
    detail = (
        f"{sum(r.passed for r in err_rows)}/18 error cells within 2%, "
        f"{sum(r.passed for r in s_rows)}/3 sums within 1e-5, "
        f"{elapsed:.2f} s"
    )
    return ok, detail


# Table 1 cell (k = 0, a = 8): the recorded reference and the value an
# explicit sum gives; they differ only in the leading digit.
_T1_ERRATUM_ROW = "k0-a08"
_T1_ERRATUM_RECORDED = 4.859e-4
_T1_ERRATUM_CORRECTED = 9.859e-4


def _k0_minus_relative_error(a, mu=0.5, lam=1.0):
    # |S - a^(-2mu) (1 + tanh(lam/2))/2| / |S| for sign -, at 40 digits
    with mpmath.workdps(40):
        s = explicit_sum(mu, lam, a, "minus").value
        lead = mpmath.mpf(a) ** (-2 * mpmath.mpf(mu)) * (1 + mpmath.tanh(lam / 2)) / 2
        return float(abs(s - lead) / abs(s))


def _rel(x, ref):
    return abs(x - ref) / abs(ref)


def test_criterion_01_table1_reproduction():
    t0 = time.perf_counter()
    rows = reproduce_table1()
    ok, detail = _table_summary(
        rows, time.perf_counter() - t0, erratum=_T1_ERRATUM_ROW
    )
    cell = next(r for r in rows if r.row_id == _T1_ERRATUM_ROW)
    oracle = _k0_minus_relative_error(8.0)
    erratum_ok = (
        not cell.passed
        and cell.reference == _T1_ERRATUM_RECORDED
        and _rel(oracle, _T1_ERRATUM_CORRECTED) <= 0.02
        and _rel(oracle, _T1_ERRATUM_RECORDED) > 0.02
        and _rel(cell.computed, _T1_ERRATUM_CORRECTED) <= 0.02
    )
    ok = ok and erratum_ok
    detail += (
        f"; cell {cell.row_id} judged against a 40-digit explicit sum: "
        f"oracle {oracle:.6e}, recorded {cell.reference:.4e} (kept, "
        f"leading digit slipped), program {cell.computed:.6e}"
    )
    assert _verdict(1, ok, detail), detail


def test_criterion_02_table3_reproduction():
    t0 = time.perf_counter()
    rows = reproduce_table3()
    ok, detail = _table_summary(rows, time.perf_counter() - t0)
    assert _verdict(2, ok, detail), detail


def test_criterion_03_table2_reproduction():
    rows = table2_convention_report()
    marker = next(r for r in rows if r.row_id.startswith("matching-"))
    # the on-axis row must close under both angle readings
    axis = [r for r in rows if "phi0.00" in r.row_id]
    axis_ok = len(axis) == 6 and all(r.passed for r in axis)
    ok = axis_ok and marker.passed and marker.row_id == "matching-pi_phi"
    detail = (
        f"on-axis row within 2% under both conventions: {axis_ok}; "
        f"exactly one convention matches all 15 cells within 5%: "
        f"{marker.row_id.removeprefix('matching-')} "
        f"({marker.computed:.0f}/15), recorded by report row "
        f"{marker.row_id!r}"
    )
    assert _verdict(3, ok, detail), detail


def test_criterion_04_tail_agreement():
    p = SeriesParams(0.5, 1.0, 3.0)
    s = direct_sum(p, tol=1e-15).value.real
    h = h_minus_quadrature(p, tol=1e-14).value.real
    defect = math.fsum([s, -0.5 * 3.0 ** (-1.0), -h])
    tail = bessel_tail_minus(p)[0].value.real
    rel = abs(defect - tail) / abs(tail)
    digits = -math.log10(rel) if rel > 0.0 else 16.0
    formatted = f"{tail:.11e}"
    exponent = math.floor(math.log10(abs(tail)))
    ok = (
        rel <= 1e-11
        and tail < 0.0
        and formatted.startswith("-6.35783824695")
        and exponent == -5
    )
    detail = (
        f"defect and Bessel tail share {digits:.1f} digits "
        f"(need >= 11); value {formatted}, next digit (4); measured "
        f"magnitude 10^{exponent} (negative sign confirmed)"
    )
    assert _verdict(4, ok, detail), detail


def test_criterion_05_closure_grid():
    worst = {"minus": 0.0, "plus": 0.0}
    for sign, fn in (("minus", full_minus), ("plus", full_plus)):
        for mu in (0.25, 0.5, 0.75):
            for lam in (0.5, 1.0, 2.0):
                for a in (2.0, 3.0, 6.0):
                    p = SeriesParams(mu, lam, a, sign)
                    ref = direct_sum(p).value.real
                    rel = abs(fn(p).value.real - ref) / abs(ref)
                    worst[sign] = max(worst[sign], rel)
    ok = worst["minus"] <= 1e-10 and worst["plus"] <= 1e-10
    detail = (
        f"27-point grid, worst closure minus {worst['minus']:.2e}, "
        f"plus {worst['plus']:.2e} (need <= 1e-10)"
    )
    assert _verdict(5, ok, detail), detail


def test_criterion_06_lambda0_reductions():
    m11 = olver_lambda0_minus(SeriesParams(1.0, 0.0, 1.0)).value.real
    w_m = (1.0 + math.pi / math.sinh(math.pi)) / 2.0
    p11 = lambda0_plus(SeriesParams(1.0, 0.0, 1.0, "plus")).value.real
    w_p = (1.0 + math.pi / math.tanh(math.pi)) / 2.0
    e1 = abs(m11 - w_m) / w_m
    e2 = abs(p11 - w_p) / w_p
    # oracles at (3/4, 5): accelerated alternating sum and
    # Euler-Maclaurin continued brute sum
    m34 = olver_lambda0_minus(SeriesParams(0.75, 0.0, 5.0)).value.real
    e3 = abs(m34 - 0.04472146216536063) / 0.04472146216536063
    p34 = lambda0_plus(SeriesParams(0.75, 0.0, 5.0, "plus")).value.real
    e4 = abs(p34 - 1.2173411460128138) / 1.2173411460128138
    ok = e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-10 and e4 <= 1e-10
    detail = (
        f"mu=1 closed forms {e1:.1e}/{e2:.1e} (need <= 1e-12); "
        f"mu=3/4 vs summation oracles {e3:.1e}/{e4:.1e} (need <= 1e-10)"
    )
    assert _verdict(6, ok, detail), detail


def test_criterion_07_coefficient_oracles():
    worst_b = worst_bh = 0.0
    for lam in (0.2, 1.0, 3.0):
        bv = b_coefficients(lam, 6).values
        bh = bhat_coefficients(lam, 6).values
        for k in range(7):
            ref = float(coefficient("B", k, lam))
            worst_b = max(worst_b, abs(bv[k] - ref) / max(1.0, abs(ref)))
        for k in range(1, 7):
            ref = float(coefficient("Bhat", k, lam))
            worst_bh = max(worst_bh, abs(bh[k] - ref) / max(1.0, abs(ref)))
    x = 0.3
    av = a_coefficients(1.0, 20).values
    acc = math.fsum((-1.0) ** k * av[k] * x ** (2 * k) for k in range(21))
    target = math.pi * math.sin(x) / math.sinh(math.pi * x)
    e_a = abs(acc - target)
    ok = worst_b <= 1e-10 and worst_bh <= 1e-10 and e_a <= 1e-12
    detail = (
        f"B vs 40-digit zeta form {worst_b:.1e}, Bhat vs zeta form "
        f"{worst_bh:.1e} (need <= 1e-10); series reconstruction at "
        f"x=0.3 {e_a:.1e} (need <= 1e-12)"
    )
    assert _verdict(7, ok, detail), detail


def test_criterion_08_decay_rates():
    grid = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    s_minus = decay_rate_fit("minus", 0.5, 1.0, grid)
    s_plus = decay_rate_fit("plus", 0.25, 1.0, grid)
    d_minus = abs(s_minus + math.pi) / math.pi
    d_plus = abs(s_plus + 2.0 * math.pi) / (2.0 * math.pi)
    ok = d_minus <= 0.02 and d_plus <= 0.02
    detail = (
        f"fitted exponents {s_minus:.4f} (minus, want -pi, off "
        f"{d_minus:.2%}) and {s_plus:.4f} (plus, want -2pi, off "
        f"{d_plus:.2%}); need within 2%"
    )
    assert _verdict(8, ok, detail), detail


def test_criterion_09_integer_mu():
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        for a in (2.0, 3.0):
            for sign in ("minus", "plus"):
                p = SeriesParams(float(n), 1.0, a, sign)
                ref = direct_sum(p).value.real
                v = integer_mu_closed_form(p).value.real
                worst = max(worst, abs(v - ref) / abs(ref))
    ok = worst <= 1e-12
    detail = (
        f"mu = 1..5, a in (2, 3), both signs: worst deviation from "
        f"direct summation {worst:.2e} (need <= 1e-12)"
    )
    assert _verdict(9, ok, detail), detail


def test_criterion_10_mu_step():
    p = SeriesParams(0.5, 1.0, 4.0)
    d1 = mu_step_check(p, h=1e-4)
    d2 = mu_step_check(p, h=5e-5)
    ratio = d1 / d2
    ok = d1 <= 1e-7 and 3.5 <= ratio <= 4.5
    detail = (
        f"defect {d1:.3e} at h=1e-4 (need <= 1e-7); halving h scales "
        f"it by {ratio:.2f} (need within [3.5, 4.5])"
    )
    assert _verdict(10, ok, detail), detail
