"""Command-line interface: dispatch, formats, and exit statuses."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import mxsum
import mxsum.cli
import mxsum.kernel
from mxsum.cli import main
from mxsum.oracles import explicit_sum, lambda0_sum


def _loaded(code: str, names) -> str:
    """The list of ``names`` that a fresh interpreter has imported after
    ``code``, as printed."""

    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"import sys\n{code}\nprint([m for m in {tuple(names)!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_import_footprint():
    # every mxsum process pays for its imports before any numerical work:
    # the package and its CLI load no dataclasses (with the inspect, ast
    # and dis that it pulls in) and no mpmath, which only the oracles use,
    # and each subcommand loads only the layers it runs
    heavy = ("dataclasses", "inspect", "mpmath")
    assert _loaded("import mxsum, mxsum.cli", heavy) == "[]"
    layers = ("mxsum.evaluators", "mxsum.harness", "mxsum.coefficients")
    assert _loaded("import mxsum", layers) == "[]"
    run = "import os, mxsum.cli\nassert mxsum.cli.main({!r}) == 0"
    coeffs = ["coeffs", "A", "--K", "2", "--output", os.devnull]
    assert _loaded(
        run.format(coeffs),
        ("mxsum.evaluators", "mxsum.harness", "mxsum.kernel.quadrature", "mxsum.kernel.bessel"),
    ) == "[]"
    evaluate = ["eval", "--mu", "0.5", "--a", "3", "--method", "full",
                "--format", "json", "--output", os.devnull]
    assert _loaded(run.format(evaluate), ("mxsum.harness", "mxsum.oracles") + heavy) == "[]"
    # the routes that need no expansion coefficients load neither the
    # coefficients' exact arithmetic nor the zeta kernel, and only a
    # process that writes CSV loads csv
    exact = ("mxsum.coefficients", "fractions", "decimal", "mxsum.kernel.zeta", "csv")
    for method, point in (
        ("full", ["--mu", "0.5", "--a", "3", "--sign", "plus"]),
        ("oracle", ["--mu", "0.5", "--a", "3"]),
        ("integer-mu", ["--mu", "2", "--a", "1.5"]),
        ("lambda0", ["--mu", "0.75", "--lambda", "0", "--a", "2"]),
    ):
        argv = ["eval", "--method", method, *point, "--output", os.devnull]
        assert _loaded(run.format(argv), exact) == "[]", method
    csv = ["eval", "--mu", "0.5", "--a", "3", "--format", "csv", "--output", os.devnull]
    assert _loaded(run.format(csv), ("csv",)) == "['csv']"
    # only the coth series of Bhat below lam = 4 makes Fractions: the A
    # rows, B, Bhat at lam >= 4 and the routes built on them load neither
    # fractions nor the decimal that it imports (table 1 has a failing
    # row, so it exits 1)
    rational = ("fractions", "decimal")
    run = "import os, mxsum.cli\nassert mxsum.cli.main({!r}) in (0, 1)"
    for argv in (
        ["coeffs", "B", "--lambda", "1", "--K", "50"],
        ["coeffs", "A", "--lambda", "1", "--K", "60"],
        ["coeffs", "Bhat", "--lambda", "6", "--K", "30"],
        ["table", "1"],
        ["eval", "--method", "algebraic", "--sign", "minus", "--mu", "0.5", "--a", "8"],
    ):
        assert _loaded(run.format(argv + ["--output", os.devnull]), rational) == "[]", argv
    bhat = ["coeffs", "Bhat", "--lambda", "1", "--output", os.devnull]
    assert _loaded(run.format(bhat), rational) == str(list(rational))


def test_lazy_exports():
    # mxsum and mxsum.kernel re-export through one name -> submodule map
    # each (PEP 562): every exported name resolves to the object its
    # submodule defines, dir() lists it and a star import binds it
    for package in (mxsum, mxsum.kernel):
        assert set(package.__all__) <= set(dir(package)), package
        for name in package.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(f"{package.__name__}.{package._EXPORTS[name]}")
            assert getattr(package, name) is getattr(module, name), name
        bound = {}
        exec(f"from {package.__name__} import *", bound)
        assert set(package.__all__) <= set(bound), package
        with pytest.raises(AttributeError):
            getattr(package, "no_such_name")
    with pytest.raises(AttributeError):
        getattr(mxsum.cli, "no_such_name")


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


def _eval_json(argv, capsys) -> dict:
    assert main(argv + ["--format", "json"]) == 0, argv
    return json.loads(capsys.readouterr().out)


def test_eval_default_method_depends_on_mu(capsys):
    rc = main(["eval", "--mu", "0.5", "--a", "6"])
    assert rc == 0
    assert "method = full-minus" in capsys.readouterr().out
    rc = main(["eval", "--mu", "2", "--a", "6", "--sign", "plus"])
    assert rc == 0
    assert "method = direct-sum" in capsys.readouterr().out
    # full_plus refuses lam = 0, so the default there is lambda0_plus;
    # sign - at lam = 0 stays on full_minus, which serves it
    point = ["eval", "--sign", "plus", "--lambda", "0", "--mu", "0.75", "--a", "2"]
    got = _eval_json(point, capsys)
    assert got == _eval_json(point + ["--method", "lambda0"], capsys)
    assert got["method"] == "lambda0-plus"
    with mpmath.workdps(30):
        want = float(lambda0_sum(0.75, 2.0, "plus").value)
    assert abs(got["value_re"] - want) <= 2.0 * got["error_estimate"]
    minus = _eval_json(["eval", "--lambda", "0", "--mu", "0.75", "--a", "2"], capsys)
    assert minus["method"] == "full-minus"
    # the full routes refuse mu = 0, so the default there is the
    # algebraic expansion, exact at mu = 0:
    # sum (+-1)^n e^(-lam n) = 1/(1 -+ e^(-lam))
    for sign, lam, want in (("minus", 1.0, 1.0 / (1.0 + math.exp(-1.0))),
                            ("plus", 0.5, 1.0 / -math.expm1(-0.5))):
        point = ["eval", "--sign", sign, "--lambda", repr(lam), "--mu", "0", "--a", "3"]
        got = _eval_json(point, capsys)
        assert got == _eval_json(point + ["--method", "algebraic"], capsys)
        assert got["method"] == f"algebraic-{sign}"
        assert got["error_estimate"] == 0.0
        assert abs(got["value_re"] - want) <= 4e-16 * want, sign
    # --K is checked against the method that runs: at mu = 0 the default
    # algebraic takes it, as --method algebraic does
    point = ["eval", "--mu", "0", "--a", "8", "--K", "3"]
    got = _eval_json(point, capsys)
    assert got == _eval_json(point + ["--method", "algebraic"], capsys)
    assert got["truncation_index"] == 3


def test_eval_json_and_csv(capsys):
    rc = main(
        ["eval", "--mu", "0.5", "--a", "3", "--method", "tail", "--format", "json"]
    )
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "bessel-tail-minus"
    assert abs(record["value_re"] + 6.357838246954497e-05) < 1e-17
    # one term fewer since the sum stops on a bound of its next term
    assert record["tail_terms_used"] == 3

    rc = main(
        ["eval", "--mu", "0.5", "--a", "3", "--method", "tail", "--format", "csv"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == [
        "value_re", "value_im", "method", "error_estimate",
        "truncation_index", "tail_terms_used", "notes",
    ]
    assert float(rows[1][0]) == -6.357838246954497e-05


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

    # at large lam the small-a terms grow for a few k before they fall;
    # that used to be refused as divergence (exit 4)
    rc = main(
        ["eval", "--mu", "0.9", "--lambda", "12", "--a", "0.5", "--method", "small-a"]
    )
    assert rc == 0
    assert "method = small-a-minus" in capsys.readouterr().out

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
    # the Bessel sums of lambda0 and tail size themselves: at a = 0.2 the
    # lambda0 sum needs 33 terms, at a = 0.08 the tail 77 (34 and 78
    # before the sums stopped on a bound of their next term), and a fixed
    # cap of 30 (the old --K default) refused both with exit 4
    argv = ["eval", "--mu", "0.75", "--lambda", "0", "--a", "0.2",
            "--method", "lambda0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "tail_terms_used = 33" in out
    assert "value = 10.442027486375242" in out
    argv = ["eval", "--mu", "0.5", "--lambda", "1", "--a", "0.08",
            "--method", "tail"]
    assert main(argv) == 0
    assert "tail_terms_used = 77" in capsys.readouterr().out


def test_eval_precondition_exits_3(capsys):
    cases = [
        ["eval", "--mu", "0.5", "--a", "-1"],
        ["eval", "--mu", "0.5", "--a", "5", "--method", "lambda0"],
        ["eval", "--mu", "0.5", "--a", "2", "--method", "small-a"],
        ["eval", "--sign", "plus", "--mu", "0.5", "--a", "0.5",
         "--method", "small-a"],
        ["eval", "--mu", "1.5", "--a", "3", "--method", "full"],
    ]
    # a negative --K printed 0.0 (j-mu) or the lead term alone (algebraic)
    # and exited 0
    for method in ("algebraic", "j-mu"):
        for sign in ("minus", "plus"):
            for K in ("-1", "-3"):
                cases.append(["eval", "--sign", sign, "--mu", "0.5", "--a", "8",
                              "--method", method, "--K", K])
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


def test_eval_full_near_mu_one_overflow_exits_4(capsys):
    # near mu = 1, H's g(1) = sin(lam a)/sinh(pi a) overflows at
    # |Im(lam a)| = 760; that was a traceback and exit 1, the status of a
    # failed report row. The full route takes H's straight path here
    # because |Im a| < 0.02; at (0.99999, 1000, 300 + 0.9i), where this
    # test first overflowed, it now takes the rotated path and returns
    rc = main(
        ["eval", "--mu", "0.99999", "--lambda", "40000", "--a", "300",
         "--a-im", "0.019", "--method", "full"]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("non-convergence: ") and err.count("\n") == 1, err


def test_eval_full_near_mu_one_meets_estimate(capsys):
    # near mu = 1 the H integrand of the tanh-sinh era overflowed at
    # subnormal node distances and the route refused (exit 4); in
    # t = tanh(sigma u) it has no singular factor and returns a value
    # within 2x of its estimate of a 40-digit explicit sum
    for sign in ("minus", "plus"):
        rc = main(
            ["eval", "--sign", sign, "--mu", "0.97", "--lambda", "1", "--a", "3",
             "--method", "full", "--format", "json"]
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        with mpmath.workdps(40):
            actual = float(abs(record["value_re"] - explicit_sum(0.97, 1.0, 3.0, sign).value))
        assert record["value_im"] == 0.0
        assert actual <= 2.0 * record["error_estimate"], (sign, actual)


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
    # --K is the truncation index of algebraic and j-mu; every other
    # method used to ignore it (full, oracle, integer-mu) or take it as
    # a term cap (lambda0, tail, small-a)
    for method in ("full", "oracle", "integer-mu", "lambda0", "tail", "small-a", None):
        argv = ["eval", "--mu", "0.5", "--a", "3", "--K", "5"]
        with pytest.raises(SystemExit) as e:
            main(argv + ["--method", method] if method else argv)
        assert e.value.code == 2, method


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

    rc = main(["coeffs", "Bhat", "--lambda", "0.001", "--K", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "Bhat,0,0.001,8.333333194444448e-05"


def test_coeffs_domain_exit(capsys):
    assert main(["coeffs", "B", "--lambda", "0", "--K", "2"]) == 3
    capsys.readouterr()
    # a non-finite lam is refused as SeriesParams refuses it, with no
    # traceback and no rows of inf
    for kind in ("A", "B", "Bhat"):
        assert main(["coeffs", kind, "--lambda", "inf", "--K", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "needs a finite lam" in captured.err, kind
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
