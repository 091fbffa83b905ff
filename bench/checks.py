"""Correctness checks of every request the benchmark served.

A verdict is "ok", the name of a known failure class (see
``known_failures.py``) or a string starting with "unexpected". All
checks run after the timed loop.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import sys

import known_failures
import oracles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FULL_TOL = 1e-11  # full route vs direct_sum(tol=1e-15); seen <= 3e-13
DIRECT_TOL = 1e-12  # direct_sum vs the 40-digit sum; seen <= 2e-14
DIRECT_SUBSAMPLE = 16
EXPANSION_TOL = 1e-12  # the same truncation in binary64 vs 40 digits
COEFF_TOL = 1e-12
EVAL_TOL = 1e-10  # eval's oracle method sums to --tol 1e-12

# report rows that fail by design of the reference data, and exit status
EXPECTED_REPORTS = {
    # k0-a08: transcription slip in the recorded reference
    ("table", "1"): (21, {"k0-a08"}, 1),
    # both angle conventions run; off-axis rows of the one that does not
    # match the reference fail, and the marker row passes
    ("table", "2"): (31, {f"phi:phi0.{d}0-c{c}" for d in (1, 2, 3, 4) for c in (1, 2, 3)}, 0),
    ("table", "3"): (21, set(), 0),
    ("check",): (5, set(), 0),
}


class OracleError(RuntimeError):
    """An oracle could not be run or could not be trusted."""


def _mxsum():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mxsum

    return mxsum


def _sign(op: dict) -> str:
    return op["route"].rsplit("_", 1)[1]


def full_points(ops, outcomes, seed) -> list[str]:
    mx = _mxsum()
    verdicts, checked = [], []
    for op, outcome in zip(ops, outcomes):
        a = complex(*op["a"])
        if outcome[0] == "error":
            cls = known_failures.classify_route_error(op["route"], outcome[1], outcome[2])
            verdicts.append(cls.name if cls else f"unexpected: {outcome[1]}: {outcome[2]} at {op}")
            continue
        params = mx.SeriesParams(op["mu"], op["lam"], a, _sign(op))
        reference = mx.direct_sum(params, tol=1e-15).value
        error = oracles.relative_error(complex(outcome[1], outcome[2]), reference)
        verdicts.append("ok" if error <= FULL_TOL else f"unexpected: off by {error:.2e} at {op}")
        checked.append((op, reference))
    # direct_sum is trusted only where a 40-digit explicit sum confirms it
    picks = random.Random(f"full-points/oracle/{seed}").sample(
        checked, min(DIRECT_SUBSAMPLE, len(checked))
    )
    for op, reference in picks:
        exact = oracles.explicit_sum(op["mu"], op["lam"], op["a"], _sign(op))
        if oracles.relative_error(reference, exact) > DIRECT_TOL:
            raise OracleError(f"direct_sum is off at {op}: {reference} vs {exact}")
    return verdicts


def expansion_points(ops, outcomes, seed) -> list[str]:
    verdicts = []
    for op, outcome in zip(ops, outcomes):
        if outcome[0] == "error":
            verdicts.append(f"unexpected: {outcome[1]}: {outcome[2]} at {op}")
            continue
        reference = oracles.expansion(op["route"], op["K"], op["mu"], op["lam"], op["a"])
        error = oracles.relative_error(complex(outcome[1], outcome[2]), reference)
        verdicts.append("ok" if error <= EXPANSION_TOL else f"unexpected: off by {error:.2e} at {op}")
    return verdicts


def cli_reports(requests, records, seed) -> list[str]:
    return [_cli_request(q, r) for q, r in zip(requests, records)]


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _cli_request(request: dict, record: dict) -> str:
    argv = request["argv"]
    status = record["returncode"]
    try:
        if argv[0] in ("table", "check"):
            rows_expected, failing_expected, status_expected = EXPECTED_REPORTS[tuple(argv)]
            rows = _csv_rows(record["stdout"])
            failing = {row["row_id"] for row in rows if row["pass"] != "true"}
            if status != status_expected:
                return f"unexpected: {argv} exit {status}, want {status_expected}"
            if len(rows) != rows_expected or failing != failing_expected:
                return f"unexpected: {argv} {len(rows)} rows, failing {sorted(failing)}"
            return "ok"
        if status == 4 and argv[0] == "eval":  # non-convergence, as in full-points
            point = request["point"]
            message = record["stderr"].strip().removeprefix("non-convergence: ")
            route = f"{point['method']}_{point['sign']}"
            cls = known_failures.classify_route_error(route, "NonConvergenceError", message)
            if cls is not None:
                return cls.name
        if status != 0:
            return f"unexpected: {argv} exit {status}: {record['stderr'][-300:]}"
        if argv[0] == "coeffs":
            return _coeffs(argv, _csv_rows(record["stdout"]))
        return _eval(request["point"], json.loads(record["stdout"]))
    except (KeyError, ValueError) as exc:
        return f"unexpected: {argv} unreadable output ({exc})"


def _coeffs(argv, rows) -> str:
    kind, lam, K = argv[1], float(argv[3]), int(argv[5])
    if len(rows) != K + 1:
        return f"unexpected: {argv} gave {len(rows)} rows"
    if kind == "A":
        reference = oracles.a_coefficients(lam, K)
    else:
        reference = [oracles.coefficient(kind, k, lam) for k in range(K + 1)]
    classes = set()
    for row in rows:
        k = int(row["k"])
        error = float(abs(float(row["value"]) - reference[k]) / abs(reference[k]))
        if error > COEFF_TOL:
            cls = known_failures.classify_coefficient_row(kind, lam)
            if cls is None:
                return f"unexpected: {kind}_{k} at lam = {lam} off by {error:.2e}"
            classes.add(cls.name)
    return classes.pop() if classes else "ok"


def _eval(point: dict, record: dict) -> str:
    mx = _mxsum()
    value = complex(record["value_re"], record["value_im"])
    mu, lam, a, sign, method = (point[k] for k in ("mu", "lam", "a", "sign", "method"))
    params = mx.SeriesParams(mu, lam, a, sign)
    tol = EVAL_TOL
    if method == "algebraic":
        reference = oracles.expansion(f"algebraic_{sign}", point["K"], mu, lam, [a, 0.0])
        tol = EXPANSION_TOL
    elif method == "small-a":  # H alone: the quadrature route is independent
        reference = mx.h_minus_quadrature(params, 1e-14).value
    elif method == "lambda0":  # lam = 0: direct_sum accelerates or uses Euler-Maclaurin
        reference = mx.direct_sum(params, tol=1e-15).value
    else:
        reference = oracles.explicit_sum(mu, lam, [a, 0.0], sign)
    error = oracles.relative_error(value, reference)
    return "ok" if error <= tol else f"unexpected: {point} off by {error:.2e}"


VERDICTS = {
    "full-points": full_points,
    "expansion-points": expansion_points,
    "cli-reports": cli_reports,
}
