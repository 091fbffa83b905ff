"""Reference-table reproduction, consistency checks and report emission.

Three fixed parameter grids ("table 1", "table 2", "table 3") measure
the relative accuracy of the truncated large-a expansions against the
direct sum and compare the result with frozen reference values:

* table 1: sign -, mu = 1/2, lam = 1, a in {6, 8, 10}, truncation
  k in {0, 1, 2, 4, 6, 8}, plus one direct-sum value row per a;
* table 2: sign -, complex a = 6 e^(i pi phi) (or 6 e^(i phi) under the
  alternative angle convention), phi in {0, 0.1, 0.2, 0.3, 0.4}, three
  (mu, lam) columns, truncation k = 8;
* table 3: sign +, mu = 1/4, lam = 1, a in {10, 15, 20}, truncation
  k in {0, ..., 5}, plus one direct-sum value row per a.

The quoted error cell is  |S_direct - S_algebraic(k)| / |S_direct|,
i.e. the accuracy of the algebraic expansion alone, without the Bessel
tail.  "Truth" is the binary64 direct sum at tol = 1e-15; the frozen
error references carry four significant figures, so a 2 percent
comparison tolerance absorbs their last-digit rounding (value rows
carry six figures and get 1e-5).

Every row, of the tables and of the checks, is built by one rule: its
relative error is |computed - reference| / |reference|, and it passes
when that is within the row's tolerance (a row with no reference, when
the computed value itself is). Only the table-2 marker row, which
records the matching angle convention, brings its own verdict.

Beyond the tables: ``tail_agreement_check`` compares the Bessel tail
against the independently measured defect S - 1/(2 a^(2 mu)) - H,
``decay_rate_fit`` extracts the exponential decay rate of that defect
from a high-precision remainder (expected -pi for sign -, -2 pi for
sign +), and ``emit_report`` writes rows as CSV or JSON with
round-trip float formatting. The high-precision S, H and J of the two
checks come from ``mxsum.oracles``, imported only when a check runs, so
the tables and the CLI start without mpmath.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from contextlib import contextmanager
from csv import writer as _csv_writer
from typing import NamedTuple

from .errors import NonConvergenceError, PreconditionError
from .evaluators import (
    SeriesParams,
    algebraic_minus,
    algebraic_plus,
    bessel_tail_minus,
    direct_sum,
    mu_step_check,
)

__all__ = [
    "CSV_HEADER",
    "ReportRow",
    "TableSpec",
    "check_suite",
    "decay_rate_fit",
    "emit_report",
    "open_destination",
    "reproduce_table1",
    "reproduce_table2",
    "reproduce_table3",
    "row_record",
    "table2_convention_report",
    "table_spec",
    "tail_agreement_check",
    "write_csv",
]

CSV_HEADER = (
    "table",
    "row_id",
    "sign",
    "mu",
    "lambda",
    "a_re",
    "a_im",
    "k",
    "computed",
    "reference",
    "rel_error",
    "pass",
)


class ReportRow(NamedTuple):
    """One checked quantity.

    table: "1" | "2" | "3" for grid rows, "check" for the consistency
        suite
    row_id: stable identifier, unique within a report and chosen so
        that lexicographic order equals grid order
    sign, mu, lam, a, k: inputs (None where not applicable; k is the
        truncation index for expansion-error rows, None for value rows)
    computed: the measured quantity (a relative error for error rows,
        a value otherwise)
    reference: frozen comparison value, None for unreferenced checks
    relative_error: |computed - reference| / |reference| when a
        reference is present
    passed: whether the row met tolerance_used
    """

    table: str
    row_id: str
    sign: str
    mu: float | None
    lam: float | None
    a: complex | None
    k: int | None
    computed: float
    reference: float | None
    relative_error: float | None
    passed: bool
    tolerance_used: float


class TableSpec(NamedTuple):
    """Frozen definition of one reference table.

    parameter_grid: (row_id, params, truncation index or None) per cell
    reference_values: (row_id, reference) pairs, same row_ids
    """

    table_id: int
    parameter_grid: tuple[tuple[str, SeriesParams, int | None], ...]
    reference_values: tuple[tuple[str, float], ...]


# ---------------------------------------------------------------------------
# frozen reference data

# error cells, one tuple per truncation index, columns a = 6, 8, 10;
# the (k=0, a=8) entry disagrees with 30-digit recomputation of the
# same quantity (9.85925e-4) and with the monotone trend of its row;
# it is kept verbatim, so that one row reports as failing
# (acceptance criterion 1 checks the corrected value instead)
_T1_ERRORS = {
    0: (1.775e-3, 4.859e-4, 6.275e-4),
    1: (5.148e-5, 1.593e-5, 6.455e-6),
    2: (2.681e-6, 4.738e-7, 1.233e-7),
    4: (5.156e-8, 1.959e-9, 1.713e-10),
    6: (1.278e-8, 2.411e-10, 1.000e-11),
    8: (3.294e-9, 3.834e-12, 7.940e-14),
}

_T2_RADIUS = 6.0
_T2_K = 8
_T2_COLUMNS = ((0.25, 0.5), (0.75, 1.5), (1.0 / 3.0, 0.2))  # (mu, lam)
_T2_PHI = (0.0, 0.10, 0.20, 0.30, 0.40)
_T2_ERRORS = {
    0.0: (4.497e-9, 4.157e-10, 1.006e-8),
    0.10: (8.383e-9, 2.293e-9, 2.798e-8),
    0.20: (6.178e-8, 1.005e-8, 3.321e-7),
    0.30: (2.088e-6, 1.098e-7, 1.667e-5),
    0.40: (2.615e-4, 5.917e-6, 2.698e-3),
}

# columns a = 10, 15, 20
_T3_ERRORS = {
    0: (2.959e-3, 1.358e-3, 7.736e-4),
    1: (1.991e-4, 4.293e-5, 1.408e-5),
    2: (3.864e-5, 3.962e-6, 7.525e-7),
    3: (1.485e-5, 7.268e-7, 8.054e-8),
    4: (9.491e-6, 2.214e-7, 1.433e-8),
    5: (9.129e-6, 1.010e-7, 3.817e-9),
}

# tables 1 and 3 on the real axis: (mu, lam, sign, a values, error cells
# by truncation index, direct-sum values)
_REAL_AXIS_TABLES = {
    1: (0.5, 1.0, "minus", (6.0, 8.0, 10.0), _T1_ERRORS,
        (1.22060e-1, 9.14725e-2, 7.31518e-2)),
    3: (0.25, 1.0, "plus", (10.0, 15.0, 20.0), _T3_ERRORS,
        (4.98789e-1, 4.07911e-1, 3.53467e-1)),
}

_ERROR_CELL_TOL = 0.02  # four-significant-figure references
_VALUE_CELL_TOL = 1e-5  # six-significant-figure references
_T2_OFFAXIS_TOL = 0.05  # phi > 0 cells compare more loosely

_CONVENTIONS = ("pi_phi", "phi")


def table_spec(table_id: int, convention: str = "pi_phi") -> TableSpec:
    """Grid and reference values for one table.

    pre: table_id in {1, 2, 3}; convention in {"pi_phi", "phi"}
         (convention only affects table 2)
    """

    if table_id not in (1, 2, 3):
        raise PreconditionError(f"table_id must be 1, 2 or 3, got {table_id!r}")
    if convention not in _CONVENTIONS:
        raise PreconditionError(
            f"convention must be one of {_CONVENTIONS}, got {convention!r}"
        )
    # (row_id, params, truncation index or None, reference) per cell
    if table_id == 2:
        scale = math.pi if convention == "pi_phi" else 1.0
        cells = [
            (
                f"{convention}:phi{phi:.2f}-c{col}",
                SeriesParams(mu, lam, _T2_RADIUS * cmath.exp(1j * (scale * phi)), "minus"),
                _T2_K,
                _T2_ERRORS[phi][col - 1],
            )
            for phi in _T2_PHI
            for col, (mu, lam) in enumerate(_T2_COLUMNS, start=1)
        ]
    else:
        mu, lam, sign, a_values, errors, sums = _REAL_AXIS_TABLES[table_id]
        cells = [
            (f"k{k}-a{a:02.0f}", SeriesParams(mu, lam, a, sign), k, ref)
            for k in sorted(errors)
            for a, ref in zip(a_values, errors[k])
        ]
        cells += [
            (f"s-a{a:02.0f}", SeriesParams(mu, lam, a, sign), None, ref)
            for a, ref in zip(a_values, sums)
        ]
    return TableSpec(
        table_id,
        tuple(cell[:3] for cell in cells),
        tuple((cell[0], cell[3]) for cell in cells),
    )


# ---------------------------------------------------------------------------
# grid evaluation

def _row(
    table: str, row_id: str, point, k: int | None, computed: float,
    reference: float | None, tolerance: float, passed: bool | None = None,
) -> ReportRow:
    """The report row of one checked quantity.

    point is (mu, lam, a, sign), a SeriesParams or a tuple with None for
    an input that does not apply. relative_error is |computed - reference|
    / |reference|, and the row passes when it is within tolerance; a row
    with no reference passes when computed itself is. A row that judges
    itself (the table-2 marker) passes its own verdict as passed.
    """

    mu, lam, a, sign = point
    rel = None if reference is None else abs(computed - reference) / abs(reference)
    if passed is None:
        passed = (computed if rel is None else rel) <= tolerance
    return ReportRow(
        table, row_id, sign, mu, lam, a, k, computed, reference, rel, passed, tolerance
    )


def _reproduce(spec: TableSpec) -> list[ReportRow]:
    rows = []
    for (rid, params, k), (_, reference) in zip(spec.parameter_grid, spec.reference_values):
        exact = direct_sum(params, tol=1e-15).value
        if k is None:
            computed, tol = exact.real, _VALUE_CELL_TOL
        else:
            expansion = algebraic_minus if params.sign == "minus" else algebraic_plus
            computed = abs(exact - expansion(params, K=k).value) / abs(exact)
            offaxis = spec.table_id == 2 and "phi0.00" not in rid
            tol = _T2_OFFAXIS_TOL if offaxis else _ERROR_CELL_TOL
        rows.append(_row(str(spec.table_id), rid, params, k, computed, reference, tol))
    return rows


def reproduce_table1() -> list[ReportRow]:
    """18 expansion-error cells plus 3 direct-sum value rows (21 rows).

    post: failures are pass=False rows, never exceptions.
    """

    return _reproduce(table_spec(1))


def reproduce_table2(convention: str = "pi_phi") -> list[ReportRow]:
    """15 expansion-error cells at complex a under one angle convention.

    pre: convention in {"pi_phi", "phi"}; under "pi_phi" the grid point
         is a = 6 e^(i pi phi), under "phi" it is a = 6 e^(i phi).
    post: phi = 0 rows are identical under both conventions; phi = 0
          cells compare at 2 percent, the rest at 5 percent.
    """

    return _reproduce(table_spec(2, convention))


def reproduce_table3() -> list[ReportRow]:
    """18 expansion-error cells plus 3 direct-sum value rows (21 rows)."""

    return _reproduce(table_spec(3))


def table2_convention_report() -> list[ReportRow]:
    """Table 2 under both angle conventions, plus a marker row.

    The marker row records which convention reproduced all 15 cells
    (row_id "matching-pi_phi", "matching-phi", or "matching-none" if
    neither did; "matching-ambiguous" if both did); its computed value
    is the passing-cell count of the recorded convention.
    """

    rows: list[ReportRow] = []
    counts: dict[str, int] = {}
    for convention in _CONVENTIONS:
        sub = reproduce_table2(convention)
        counts[convention] = sum(r.passed for r in sub)
        rows.extend(sub)
    total = len(rows) // 2
    matching = [c for c in _CONVENTIONS if counts[c] == total]
    passed = len(matching) == 1
    if passed:
        name, best = matching[0], counts[matching[0]]
    else:
        name, best = "ambiguous" if matching else "none", max(counts.values())
    rows.append(
        _row("2", f"matching-{name}", (None, None, None, "minus"), None,
             float(best), float(total), 0.0, passed)
    )
    return rows


# ---------------------------------------------------------------------------
# consistency checks

def tail_agreement_check(a: float = 3.0) -> ReportRow:
    """Bessel tail vs the measured defect S - 1/(2 a^(2 mu)) - H.

    Fixed mu = 1/2, lam = 1, sign -. computed is the tail, reference
    the defect, formed at 40 digits from ``oracles.explicit_sum`` and
    ``oracles.branch_cut``. The tail falls like e^(-pi a), so binary64 S
    or H, each off by a few 1e-18, would leave the defect only eleven
    good digits at a = 4; at 40 digits the defect is exact to binary64
    and the row passes at 1e-11 relative, the tail's own accuracy.
    """

    from mpmath import mp  # deferred, with the references

    from . import oracles

    params = SeriesParams(0.5, 1.0, a, "minus")
    with mp.workdps(40):
        s_value = oracles.explicit_sum(params.mu, params.lam, a, "minus").value
        h_value = oracles.branch_cut(params.mu, params.lam, a, "minus")
        defect = float(s_value - mp.mpf(a) ** (-2 * mp.mpf(params.mu)) / 2 - h_value)
    tail, _ = bessel_tail_minus(params)
    return _row("check", f"tail-a{a:g}", params, None, tail.value.real, defect, 1e-11)


def decay_rate_fit(
    sign: str, mu: float, lam: float, a_grid
) -> float:
    """Least-squares slope of ln|remainder| + (2 mu - 1) ln a against a.

    The remainder is S - 1/(2 a^(2 mu)) - H for sign -, additionally
    minus the Laplace integral J for sign +, each from ``oracles``. It
    falls like e^(-rate a), rate = pi (sign -) or 2 pi (sign +), which
    is the slope expected, independent of mu; so each point keeps 25 good
    digits at 25 + rate a / ln 10 digits, rounded up to a multiple of 10
    (few precisions, few mpmath node tables) and at most 60.

    pre: sign in {"plus", "minus"}; 0 <= mu < 1; lam > 0; a_grid holds
         at least 4 distinct real points, each > 0.
    errors: NonConvergenceError when a remainder falls below the noise
        floor (grid reaches too far right); shrink the grid.  Roughly
        a <= 25 is safe for sign -, a <= 12 for sign +.
    """

    if sign not in ("plus", "minus"):
        raise PreconditionError(f"sign must be 'plus' or 'minus', got {sign!r}")
    if not 0.0 <= mu < 1.0:
        raise PreconditionError(
            f"remainder decomposition uses the branch-cut integral, "
            f"defined for 0 <= mu < 1; got mu = {mu}"
        )
    if not lam > 0.0:
        raise PreconditionError(f"lam must be positive, got {lam}")
    grid = [float(a) for a in a_grid]
    if len(grid) < 4 or len(set(grid)) != len(grid):
        raise PreconditionError("a_grid needs at least 4 distinct points")
    if any(not (a > 0.0 and math.isfinite(a)) for a in grid):
        raise PreconditionError("a_grid points must be positive real numbers")

    from mpmath import mp  # deferred, with the references

    from . import oracles

    rate = math.pi if sign == "minus" else 2.0 * math.pi
    xs: list[float] = []
    ys: list[float] = []
    for a in grid:
        dps = min(10 * math.ceil((25 + rate * a / math.log(10.0)) / 10), _DECAY_MAX_DPS)
        with mp.workdps(dps):
            s_value = oracles.explicit_sum(mu, lam, a, sign, dps).value
            remainder = s_value - mp.mpf(a) ** (-2 * mp.mpf(mu)) / 2
            remainder -= oracles.branch_cut(mu, lam, a, sign, dps)
            if sign == "plus":
                remainder -= oracles.laplace(mu, lam, a, dps)
            if abs(remainder) < abs(s_value) * mp.mpf(10) ** (6 - dps):
                raise NonConvergenceError(
                    f"remainder at a = {a} is below the {dps}-digit noise "
                    f"floor; shrink the grid"
                )
            xs.append(a)
            ys.append(float(mp.log(abs(remainder))) + (2 * mu - 1) * math.log(a))
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    return sxy / sxx


_DECAY_MAX_DPS = 60
_DECAY_GRID = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)


def check_suite() -> list[ReportRow]:
    """Tail agreement, decay-rate fits and the mu-step recurrence.

    Five rows: tail vs defect at a = 3 and a = 4; fitted decay rate vs
    -pi (sign -, mu = 1/2) and vs -2 pi (sign +, mu = 1/4) over
    a = 5 .. 10 at 2 percent; recurrence discrepancy of
    S_{mu+1} = -(1/(2 mu a)) dS_mu/da at (mu, lam, a) = (1/2, 1, 4)
    with step 1e-4, bounded by 1e-7.
    """

    rows = [tail_agreement_check(3.0), tail_agreement_check(4.0)]
    for sign, mu, target in (("minus", 0.5, -math.pi), ("plus", 0.25, -2 * math.pi)):
        slope = decay_rate_fit(sign, mu, 1.0, _DECAY_GRID)
        rows.append(
            _row("check", f"decay-{sign}-mu{mu:g}", (mu, 1.0, None, sign), None,
                 slope, target, 0.02)
        )
    params = SeriesParams(0.5, 1.0, 4.0, "minus")
    discrepancy = mu_step_check(params, h=1e-4)
    rows.append(_row("check", "mu-step-h1e-04", params, None, discrepancy, None, 1e-7))
    return rows


# ---------------------------------------------------------------------------
# report emission

def row_record(row: ReportRow) -> dict:
    """Flat mapping with the exact report columns, in header order."""

    return {
        "table": row.table,
        "row_id": row.row_id,
        "sign": row.sign,
        "mu": row.mu,
        "lambda": row.lam,
        "a_re": None if row.a is None else row.a.real,
        "a_im": None if row.a is None else row.a.imag,
        "k": row.k,
        "computed": row.computed,
        "reference": row.reference,
        "rel_error": row.relative_error,
        "pass": row.passed,
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@contextmanager
def open_destination(destination):
    """Yield standard output for None or "-", else the file opened for writing.

    errors: OSError, carrying the destination path, when the file cannot
        be opened or written.
    """

    if destination is None or destination == "-":
        yield sys.stdout
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise OSError(f"cannot write report to {destination!r}: {exc}") from exc


def write_csv(handle, header, records) -> None:
    """Header line, then one line per record (a sequence of cells)."""

    out = _csv_writer(handle, lineterminator="\n")
    out.writerow(header)
    for record in records:
        out.writerow([_csv_cell(value) for value in record])


def emit_report(rows, format: str = "csv", destination=None) -> None:
    """Write rows sorted by (table, row_id) as CSV or JSON.

    destination: a path, or None / "-" for standard output.  Floats are
    written in round-trip (shortest repr) form, so re-running the same
    grid yields byte-identical output.  Empty rows produce a header-only
    CSV (or an empty JSON array).

    errors: PreconditionError for an unknown format; OSError, carrying
        the destination path, when the file cannot be written.
    """

    if format not in ("csv", "json"):
        raise PreconditionError(f"format must be 'csv' or 'json', got {format!r}")
    ordered = sorted(rows, key=lambda r: (r.table, r.row_id))
    records = [row_record(r) for r in ordered]
    with open_destination(destination) as handle:
        if format == "csv":
            write_csv(handle, CSV_HEADER, (record.values() for record in records))
        else:
            json.dump(records, handle, indent=2, allow_nan=False)
            handle.write("\n")
