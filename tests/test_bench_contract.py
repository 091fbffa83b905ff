"""The package surface that the benchmark in ``bench/`` reads.

``bench/worker.py`` builds ``SeriesParams(mu, lam, a, sign)`` and calls
the routes by name, full_* as ``route(p)`` and algebraic_* as
``route(p, K=k)``; ``bench/checks.py`` calls ``h_minus_quadrature(p, tol)``
and ``direct_sum(p, tol=...)``; ``bench/tracing.py`` counts the work of
a call from ``.terms_used`` of the kernel sums, ``len(.values)`` of the
coefficient tables and ``[0].tail_terms_used`` of the Bessel tails, and
wraps these names on the package ``mxsum`` and on the modules that
import them (the kernel and the routes in ``evaluators``, the routes in
``harness``). The CLI and the evaluators hold none of the routes,
coefficient generators and report writers they run: they look each up
on the package per call, so a name wrapped there is the one that runs.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import mxsum
from mxsum import cli, evaluators, kernel
from mxsum.evaluators import SeriesParams

ROUTES = (
    "algebraic_minus",
    "algebraic_plus",
    "bessel_tail_minus",
    "bessel_tail_plus",
    "direct_sum",
    "full_minus",
    "full_plus",
    "h_minus_quadrature",
    "h_plus_quadrature",
    "integer_mu_closed_form",
    "j_mu_asymptotic",
    "j_mu_quadrature",
    "lambda0_plus",
    "mu_step_check",
    "olver_lambda0_minus",
    "small_a_minus",
    "tail_display_form",
)
KERNEL = (
    "integrate",
    "kv_complex",
    "sum_terms",
    "pfq_series",
    "accelerated_alternating_complex",
)
COEFFICIENTS = ("a_coefficients", "b_coefficients", "bhat_coefficients")
# (eval method, sign, --K) -> the route it runs; method None is the default
EVAL_ROUTES = {
    ("oracle", "minus", None): "direct_sum",
    ("oracle", "plus", None): "direct_sum",
    ("small-a", "minus", None): "small_a_minus",
    ("small-a", "plus", None): "small_a_minus",
    ("algebraic", "minus", None): "algebraic_minus",
    ("algebraic", "plus", None): "algebraic_plus",
    ("algebraic", "minus", "2"): "algebraic_minus",
    ("algebraic", "plus", "2"): "algebraic_plus",
    ("full", "minus", None): "full_minus",
    ("full", "plus", None): "full_plus",
    ("tail", "minus", None): "bessel_tail_minus",
    ("tail", "plus", None): "bessel_tail_plus",
    ("j-mu", "minus", None): "j_mu_quadrature",
    ("j-mu", "plus", None): "j_mu_quadrature",
    ("j-mu", "minus", "2"): "j_mu_asymptotic",
    ("j-mu", "plus", "2"): "j_mu_asymptotic",
    ("integer-mu", "minus", None): "integer_mu_closed_form",
    ("integer-mu", "plus", None): "integer_mu_closed_form",
    ("lambda0", "minus", None): "olver_lambda0_minus",
    ("lambda0", "plus", None): "lambda0_plus",
    (None, "minus", None): "full_minus",
    (None, "plus", None): "full_plus",
}
EVAL_POINTS = {
    "oracle": ["--mu", "0.5", "--a", "3"],
    "small-a": ["--mu", "0.5", "--a", "0.5"],
    "algebraic": ["--mu", "0.5", "--a", "8"],
    "full": ["--mu", "0.5", "--a", "3"],
    "tail": ["--mu", "0.5", "--a", "3"],
    "j-mu": ["--mu", "0.5", "--a", "8"],
    "integer-mu": ["--mu", "2", "--a", "1.5"],
    "lambda0": ["--mu", "0.75", "--lambda", "0", "--a", "2"],
    None: ["--mu", "0.5", "--a", "3"],
}


def test_route_calls():
    for sign in ("minus", "plus"):
        p = mxsum.SeriesParams(0.5, 1.0, complex(6.0, 0.5), sign)
        for name, kwargs in ((f"full_{sign}", {}), (f"algebraic_{sign}", {"K": 3})):
            value = complex(getattr(mxsum, name)(p, **kwargs).value)
            assert math.isfinite(value.real) and math.isfinite(value.imag), name
        tail = getattr(mxsum, f"bessel_tail_{sign}")(p)
        assert tail[0].tail_terms_used == len(tail[1]) > 0
    p = mxsum.SeriesParams(0.5, 1.0, 0.5, "minus")
    assert mxsum.h_minus_quadrature(p, 1e-14).value
    assert mxsum.direct_sum(p, tol=1e-15).value


def test_counted_results():
    assert kernel.integrate(lambda t: math.exp(-t)).terms_used > 0
    assert kernel.sum_terms(lambda n: 0.5**n, 1e-15, 100).terms_used > 0
    assert kernel.pfq_series([1.0, 1.0], [2.0], 0.5).terms_used > 0
    acc = kernel.accelerated_alternating_complex(lambda k: 1.0 / (k + 1), stages=8)
    assert acc.terms_used > 0
    for name in COEFFICIENTS:
        assert len(getattr(mxsum, name)(1.0, 4).values) == 5


def _counted(calls, name, fn):
    def call(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return call


def _run(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_wrapped_names_are_the_ones_called(monkeypatch):
    for name in ROUTES:
        assert callable(getattr(mxsum, name)) and callable(getattr(evaluators, name))
    for name in KERNEL:
        assert callable(getattr(evaluators, name)), name
    for name in COEFFICIENTS:
        assert callable(getattr(mxsum, name)), name
    # a route replaced on the package is the one `mxsum eval` runs, for
    # every method and sign, and with --K where a method takes it
    calls = []
    for name in set(EVAL_ROUTES.values()):
        monkeypatch.setattr(mxsum, name, _counted(calls, name, getattr(mxsum, name)))
    assert {method for method, _, _ in EVAL_ROUTES} == set(cli._METHODS) | {None}
    for (method, sign, K), name in EVAL_ROUTES.items():
        argv = ["eval", "--sign", sign] + EVAL_POINTS[method]
        argv += [] if method is None else ["--method", method]
        argv += [] if K is None else ["--K", K]
        calls.clear()
        # small_a_minus refuses the sign + sum itself
        assert _run(argv) == (3 if (method, sign) == ("small-a", "plus") else 0), argv
        assert calls == [name], argv


def test_wrapped_reports_are_the_ones_called(monkeypatch):
    # a coefficient generator replaced on the package is the one `mxsum
    # coeffs` runs, and a table, the check suite and the report writer
    # replaced there are the ones `mxsum table` and `mxsum check` run
    calls = []
    for name in COEFFICIENTS:
        monkeypatch.setattr(mxsum, name, _counted(calls, name, getattr(mxsum, name)))
    for kind, name in zip(("A", "B", "Bhat"), COEFFICIENTS):
        calls.clear()
        assert _run(["coeffs", kind, "--K", "3"]) == 0, kind
        assert calls == [name], kind

    written = []

    def report(name):
        def make(*args):
            rows = []
            written.append((name, args, rows))
            return rows

        return make

    for name in (
        "reproduce_table1",
        "reproduce_table2",
        "reproduce_table3",
        "table2_convention_report",
        "check_suite",
    ):
        monkeypatch.setattr(mxsum, name, report(name))
    monkeypatch.setattr(mxsum, "emit_report", lambda rows, *rest: written.append(rows))
    for argv, name, args in (
        (["table", "1"], "reproduce_table1", ()),
        (["table", "2"], "table2_convention_report", ()),
        (["table", "2", "--convention", "phi"], "reproduce_table2", ("phi",)),
        (["table", "3"], "reproduce_table3", ()),
        (["check"], "check_suite", ()),
    ):
        written.clear()
        assert _run(argv) == 0, argv
        assert len(written) == 2 and written[0][:2] == (name, args), argv
        assert written[1] is written[0][2], argv


def test_wrapped_generators_are_the_ones_the_routes_call(monkeypatch):
    # a coefficient generator replaced on the package is the one the
    # expansion routes call: algebraic_minus B, algebraic_plus Bhat, and
    # small_a_minus A in both of its branches (plain within |a| = 0.7,
    # accelerated beyond)
    calls = []
    for name in COEFFICIENTS:
        monkeypatch.setattr(mxsum, name, _counted(calls, name, getattr(mxsum, name)))
    for route, p, name in (
        (evaluators.algebraic_minus, SeriesParams(0.5, 1.0, 8.0), "b_coefficients"),
        (evaluators.algebraic_plus, SeriesParams(0.5, 1.0, 8.0, "plus"), "bhat_coefficients"),
        (evaluators.small_a_minus, SeriesParams(0.5, 1.0, 0.5), "a_coefficients"),
        (evaluators.small_a_minus, SeriesParams(0.5, 1.0, 0.9), "a_coefficients"),
    ):
        calls.clear()
        assert math.isfinite(abs(route(p).value)), (route, p)
        assert calls == [name], (route, p)
