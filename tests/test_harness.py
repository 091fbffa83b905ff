"""Reference-table reproduction, consistency checks, and report output."""

import json
import math

import pytest

from mxsum.errors import NonConvergenceError, PreconditionError
from mxsum.harness import (
    CSV_HEADER,
    check_suite,
    decay_rate_fit,
    emit_report,
    reproduce_table1,
    reproduce_table2,
    reproduce_table3,
    row_record,
    table2_convention_report,
    table_spec,
    tail_agreement_check,
)

_DECAY_GRID = (5.0, 6.0, 7.0, 8.0, 9.0, 10.0)


def test_table_spec_shape():
    for table_id, n in ((1, 21), (2, 15), (3, 21)):
        spec = table_spec(table_id)
        assert spec.table_id == table_id
        assert len(spec.parameter_grid) == n
        assert len(spec.reference_values) == n
        ids = [rid for rid, _, _ in spec.parameter_grid]
        # row ids are built to sort in grid order
        assert ids == sorted(ids), table_id
        assert ids == [rid for rid, _ in spec.reference_values]
    with pytest.raises(PreconditionError):
        table_spec(9)
    with pytest.raises(PreconditionError):
        table_spec(2, convention="radians")


def test_reproduce_table1_rows():
    rows = reproduce_table1()
    assert len(rows) == 21
    fails = [r for r in rows if not r.passed]
    # one embedded reference value is irreproducible: at k = 0, a = 8
    # the 30-digit recomputation gives 9.859e-4 against the recorded
    # 4.859e-4 (single-digit transcription); every other cell closes
    assert [r.row_id for r in fails] == ["k0-a08"]
    assert abs(fails[0].computed - 0.0009859250182735347) < 1e-15
    assert fails[0].reference == 0.0004859
    for r in rows:
        assert r.table == "1"
        assert r.sign == "minus"
        assert r.mu == 0.5
        assert r.lam == 1.0
        if r.row_id.startswith("s-"):
            assert r.k is None
            assert r.tolerance_used == 1e-5
        else:
            assert r.tolerance_used == 0.02
    srow = next(r for r in rows if r.row_id == "s-a06")
    assert abs(srow.computed - 0.12205969867572516) < 1e-16
    assert srow.reference == 0.12206
    assert srow.passed


def test_reproduce_table3_rows():
    rows = reproduce_table3()
    assert len(rows) == 21
    assert all(r.passed for r in rows)
    assert all(r.sign == "plus" and r.mu == 0.25 for r in rows)
    svals = {r.row_id: r.reference for r in rows if r.row_id.startswith("s-")}
    assert svals == {"s-a10": 0.498789, "s-a15": 0.407911, "s-a20": 0.353467}


def test_reproduce_table2_conventions():
    rows = reproduce_table2("pi_phi")
    assert len(rows) == 15
    assert all(r.passed for r in rows)
    phi0 = [r for r in rows if "phi0.00" in r.row_id]
    assert len(phi0) == 3
    for r in phi0:
        assert r.tolerance_used == 0.02
        assert r.a == 6.0 + 0.0j
    off = next(r for r in rows if "phi0.30" in r.row_id)
    assert off.tolerance_used == 0.05
    assert off.a.imag > 0.0

    # reading the angle column as raw radians only matches at phi = 0
    alt = reproduce_table2("phi")
    assert len(alt) == 15
    assert sum(r.passed for r in alt) == 3
    assert all(("phi0.00" in r.row_id) == r.passed for r in alt)


def test_table2_convention_report():
    rows = table2_convention_report()
    assert len(rows) == 31
    markers = [r for r in rows if r.row_id.startswith("matching-")]
    assert len(markers) == 1
    m = markers[0]
    assert m.row_id == "matching-pi_phi"
    assert m.passed
    assert m.computed == 15.0
    assert m.reference == 15.0
    assert m.mu is None and m.lam is None and m.a is None and m.k is None


def test_tail_agreement_check():
    row = tail_agreement_check(3.0)
    assert row.table == "check"
    assert row.row_id == "tail-a3"
    assert row.passed
    assert row.tolerance_used == 1e-11
    assert abs(row.computed + 6.357838246954492e-05) < 1e-17
    assert row.relative_error < 1e-12


def test_decay_rate_fit_slopes():
    got = decay_rate_fit("minus", 0.5, 1.0, _DECAY_GRID)
    assert abs(got + math.pi) < 0.02 * math.pi, got
    gp = decay_rate_fit("plus", 0.25, 1.0, _DECAY_GRID)
    assert abs(gp + 2.0 * math.pi) < 0.02 * 2.0 * math.pi, gp
    # deterministic: 25 good digits at each point give the converged slopes
    # (a fixed 40 digits gave the plus slope as -6.28478270411597)
    assert abs(got - -3.1543332037983665) < 1e-10
    assert abs(gp - -6.28478270411597) < 1e-10


def test_decay_rate_fit_domain():
    with pytest.raises(PreconditionError):
        decay_rate_fit("both", 0.5, 1.0, _DECAY_GRID)
    with pytest.raises(PreconditionError):
        decay_rate_fit("minus", 1.5, 1.0, _DECAY_GRID)
    with pytest.raises(PreconditionError):
        decay_rate_fit("minus", 0.5, 0.0, _DECAY_GRID)
    with pytest.raises(PreconditionError):
        decay_rate_fit("minus", 0.5, 1.0, (5.0, 6.0, 7.0))
    with pytest.raises(PreconditionError):
        decay_rate_fit("minus", 0.5, 1.0, (5.0, 6.0, 6.0, 7.0))
    # far out the remainder sinks below the working-precision floor
    with pytest.raises(NonConvergenceError):
        decay_rate_fit("plus", 0.25, 1.0, (20.0, 25.0, 30.0, 35.0))


def test_check_suite():
    rows = check_suite()
    ids = [r.row_id for r in rows]
    assert ids == [
        "tail-a3",
        "tail-a4",
        "decay-minus-mu0.5",
        "decay-plus-mu0.25",
        "mu-step-h1e-04",
    ]
    assert all(r.passed for r in rows)
    mu_step = rows[-1]
    assert mu_step.reference is None
    assert mu_step.relative_error is None
    assert mu_step.computed < 1e-7


def test_row_record_order():
    rows = reproduce_table1()
    rec = row_record(rows[0])
    assert tuple(rec.keys()) == CSV_HEADER
    assert rec["lambda"] == 1.0
    assert rec["pass"] in (True, False)
    srec = row_record(next(r for r in rows if r.k is None))
    assert srec["k"] is None


def test_emit_csv_deterministic(tmp_path):
    rows = reproduce_table2("pi_phi")
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    emit_report(rows, format="csv", destination=str(p1))
    emit_report(list(reversed(rows)), format="csv", destination=str(p2))
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()  # input order must not matter
    lines = b1.decode().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 16
    # floats round-trip, booleans are lowercase words, None is empty
    cells = lines[1].split(",")
    assert cells[-1] in ("true", "false")
    assert float(cells[8]) == rows[0].computed


def test_emit_csv_empty_and_stdout(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    emit_report([], format="csv", destination=str(p))
    assert p.read_text() == ",".join(CSV_HEADER) + "\n"
    emit_report([], format="csv", destination=None)
    out = capsys.readouterr().out
    assert out == ",".join(CSV_HEADER) + "\n"
    emit_report([], format="csv", destination="-")
    assert capsys.readouterr().out == out


def test_emit_json(tmp_path):
    rows = check_suite()[:2]
    p = tmp_path / "report.json"
    emit_report(rows, format="json", destination=str(p))
    data = json.loads(p.read_text())
    assert len(data) == 2
    assert list(data[0].keys()) == list(CSV_HEADER)
    assert data[0]["table"] == "check"
    assert [d["row_id"] for d in data] == sorted(d["row_id"] for d in data)


def test_emit_errors(tmp_path):
    with pytest.raises(PreconditionError):
        emit_report([], format="xml")
    with pytest.raises(OSError) as e:
        emit_report([], format="csv", destination=str(tmp_path / "no" / "dir.csv"))
    assert "cannot write report" in str(e.value)
