"""Command-line interface: dispatch, formats, and exit statuses."""

import csv
import io
import json

import pytest

from mxsum.cli import main


def test_eval_oracle_text(capsys):
    rc = main(
        ["eval", "--sign", "minus", "--mu", "0.5", "--lambda", "1",
         "--a", "6", "--method", "oracle"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "value = 0.1220596986757315" in out
    assert "method = direct-sum" in out
    assert "truncation_index = 28" in out


def test_eval_default_method_depends_on_mu(capsys):
    rc = main(["eval", "--mu", "0.5", "--a", "6"])
    assert rc == 0
    assert "method = full-minus" in capsys.readouterr().out
    rc = main(["eval", "--mu", "2", "--a", "6", "--sign", "plus"])
    assert rc == 0
    assert "method = direct-sum" in capsys.readouterr().out


def test_eval_json_and_csv(capsys):
    rc = main(
        ["eval", "--mu", "0.5", "--a", "3", "--method", "tail", "--format", "json"]
    )
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "bessel-tail-minus"
    assert abs(record["value_re"] + 6.357838246954492e-05) < 1e-17
    assert record["tail_terms_used"] == 4

    rc = main(
        ["eval", "--mu", "0.5", "--a", "3", "--method", "tail", "--format", "csv"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == [
        "value_re", "value_im", "method", "error_estimate",
        "truncation_index", "tail_terms_used", "notes",
    ]
    assert float(rows[1][0]) == -6.357838246954492e-05


def test_eval_complex_argument(capsys):
    rc = main(
        ["eval", "--mu", "0.5", "--a", "2", "--a-im", "1",
         "--method", "oracle", "--format", "json"]
    )
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value_im"] != 0.0


def test_eval_named_routes(capsys):
    rc = main(
        ["eval", "--mu", "2", "--a", "2", "--method", "integer-mu"]
    )
    assert rc == 0
    assert "value = 0.04964389879410491" in capsys.readouterr().out

    rc = main(
        ["eval", "--mu", "0.75", "--lambda", "0", "--a", "5", "--method", "lambda0"]
    )
    assert rc == 0
    assert "method = lambda0-minus" in capsys.readouterr().out

    rc = main(
        ["eval", "--sign", "plus", "--mu", "0.25", "--a", "10", "--method", "j-mu"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "method = j-mu-quadrature" in out
    assert "value = 0.31474593725834105" in out

    rc = main(
        ["eval", "--sign", "plus", "--mu", "0.25", "--a", "10",
         "--method", "j-mu", "--K", "5"]
    )
    assert rc == 0
    assert "method = j-mu-asymptotic" in capsys.readouterr().out


@pytest.mark.parametrize(
    "sign, K, value, index",
    [
        ("minus", None, "0.1220596982737214", 8),
        ("minus", "5", "0.12205970255144044", 5),
        ("plus", None, "0.2580373075162329", 5),
        ("plus", "3", "0.25940480745381633", 3),
    ],
)
def test_eval_algebraic(sign, K, value, index, capsys):
    argv = ["eval", "--sign", sign, "--mu", "0.5", "--lambda", "1", "--a", "6",
            "--method", "algebraic"]
    rc = main(argv + ["--K", K] if K else argv)
    assert rc == 0
    out = capsys.readouterr().out
    assert f"method = algebraic-{sign}" in out
    assert f"value = {value}" in out
    assert f"truncation_index = {index}" in out


def test_eval_lambda0_term_cap(capsys):
    # --K caps the Bessel terms; at a = 0.2 the sum needs all 30 by default
    argv = ["eval", "--mu", "0.75", "--lambda", "0", "--a", "0.2",
            "--method", "lambda0"]
    assert main(argv + ["--K", "5"]) == 0
    capped = capsys.readouterr().out
    assert "tail_terms_used = 5" in capped
    assert "value = 10.436330651676045" in capped
    assert main(argv) == 0
    assert "tail_terms_used = 30" in capsys.readouterr().out


def test_eval_precondition_exits_3(capsys):
    cases = [
        ["eval", "--mu", "0.5", "--a", "-1"],
        ["eval", "--mu", "0.5", "--a", "5", "--method", "lambda0"],
        ["eval", "--mu", "0.5", "--a", "2", "--method", "small-a"],
        ["eval", "--sign", "plus", "--mu", "0.5", "--a", "0.5",
         "--method", "small-a"],
        ["eval", "--mu", "1.5", "--a", "3", "--method", "full"],
    ]
    for argv in cases:
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("precondition: "), argv
    assert main(["eval", "--mu", "1.5", "--a", "3", "--method", "full"]) == 3
    assert "direct_sum" in capsys.readouterr().err


def test_eval_nonconvergence_exits_4(capsys):
    rc = main(
        ["eval", "--mu", "0.5", "--a", "0.5305", "--a-im", "0.727",
         "--method", "small-a"]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith("non-convergence: ")


def test_eval_overflowing_integrand_exits_4(capsys):
    # near mu = 1 the H integrand overflows at subnormal node distances;
    # that is a refusal (exit 4), not a crash with a traceback
    for sign in ("minus", "plus"):
        rc = main(
            ["eval", "--sign", sign, "--mu", "0.97", "--lambda", "1", "--a", "3",
             "--method", "full"]
        )
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("non-convergence: integrand overflowed at t = ")
        assert "Traceback" not in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["eval", "--mu", "0.5", "--no-such-flag"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["table", "9"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_eval_output_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    rc = main(
        ["eval", "--mu", "0.5", "--a", "6", "--method", "oracle",
         "--format", "json", "--output", str(dest)]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["method"] == "direct-sum"

    rc = main(
        ["eval", "--mu", "0.5", "--a", "6",
         "--output", str(tmp_path / "no" / "file.txt")]
    )
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


def test_table_exit_codes(capsys):
    # table 1 carries the known irreproducible cell, so it reports 1
    assert main(["table", "1"]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 22
    assert lines[0].startswith("table,row_id,")
    bad = [l for l in lines if l.endswith(",false")]
    assert len(bad) == 1 and "k0-a08" in bad[0]

    assert main(["table", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 22


def test_table2_conventions(capsys):
    assert main(["table", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 32  # both conventions plus marker
    assert "matching-pi_phi" in out

    assert main(["table", "2", "--convention", "pi_phi"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 16

    # raw-radians reading fails off-axis rows, so the run reports 1
    assert main(["table", "2", "--convention", "phi"]) == 1
    capsys.readouterr()


def test_table_json_output(tmp_path):
    dest = tmp_path / "t3.json"
    rc = main(["table", "3", "--format", "json", "--output", str(dest)])
    assert rc == 0
    data = json.loads(dest.read_text())
    assert len(data) == 21
    assert all(d["pass"] for d in data)


def test_check_command(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert any("decay-minus-mu0.5" in l for l in lines)
    assert all(l.endswith(",true") for l in lines[1:])


def test_coeffs_output(capsys):
    rc = main(["coeffs", "B", "--lambda", "1", "--K", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,k,lambda,value"
    assert lines[1] == "B,0,1.0,0.23105857863000487"
    assert lines[2] == "B,1,1.0,0.09085774767294841"
    assert lines[3] == "B,2,1.0,0.12350686136639322"

    rc = main(["coeffs", "A", "--K", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "A,0,1.0,1.0"
    assert lines[2] == "A,1,1.0,1.811600733514893"

    with pytest.warns(UserWarning):
        rc = main(["coeffs", "Bhat", "--lambda", "0.001", "--K", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "Bhat,0,0.001,8.333333194444448e-05"


def test_coeffs_domain_exit(capsys):
    assert main(["coeffs", "B", "--lambda", "0", "--K", "2"]) == 3
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["coeffs", "C", "--K", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "B", "--lambda", "1", "--K", "8"],
        ["eval", "--mu", "0.5", "--a", "3", "--method", "tail", "--format", "csv"],
        ["table", "3"],
    ],
    ids=["coeffs", "eval-csv", "table"],
)
def test_output_file_matches_stdout(argv, tmp_path, capsys):
    rc = main(argv)
    printed = capsys.readouterr().out
    dest = tmp_path / "out.txt"
    assert main(argv + ["--output", str(dest)]) == rc == 0
    assert capsys.readouterr().out == ""
    assert dest.read_bytes() == printed.encode("utf-8")


def test_unwritable_output_exits_2(tmp_path, capsys):
    dest = str(tmp_path / "no" / "file.csv")
    for argv in (["coeffs", "A", "--K", "2"], ["table", "1"]):
        assert main(argv + ["--output", dest]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write" in captured.err, argv
