"""The package surface that the benchmark in ``bench/`` reads.

``bench/worker.py`` builds ``SeriesParams(mu, lam, a, sign)`` and calls
the routes by name, full_* as ``route(p)`` and algebraic_* as
``route(p, K=k)``; ``bench/checks.py`` calls ``h_minus_quadrature(p, tol)``
and ``direct_sum(p, tol=...)``; ``bench/tracing.py`` counts the work of
a call from ``.terms_used`` of the kernel sums, ``len(.values)`` of the
coefficient tables and ``[0].tail_terms_used`` of the Bessel tails, and
wraps these names on the modules that import them, the CLI included.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import mxsum
from mxsum import cli, evaluators, kernel

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


def test_wrapped_names_are_the_ones_called(monkeypatch):
    for name in ROUTES:
        assert callable(getattr(mxsum, name)) and callable(getattr(evaluators, name))
    for name in KERNEL:
        assert callable(getattr(evaluators, name)), name
    for name in COEFFICIENTS:
        for module in (mxsum, evaluators, cli):
            assert callable(getattr(module, name)), (module, name)
    # a route replaced on the CLI module is the one `mxsum eval` runs, for
    # every method and sign, and with --K where a method takes it
    calls = []

    def counted(route):
        def call(*args, **kwargs):
            calls.append(route.__name__)
            return route(*args, **kwargs)

        return call

    for name in set(EVAL_ROUTES.values()):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    assert {method for method, _, _ in EVAL_ROUTES} == set(cli._METHODS) | {None}
    for (method, sign, K), name in EVAL_ROUTES.items():
        argv = ["eval", "--sign", sign] + EVAL_POINTS[method]
        argv += [] if method is None else ["--method", method]
        argv += [] if K is None else ["--K", K]
        calls.clear()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        # small_a_minus refuses the sign + sum itself
        assert status == (3 if (method, sign) == ("small-a", "plus") else 0), argv
        assert calls == [name], argv
