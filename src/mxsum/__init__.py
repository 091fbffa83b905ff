"""mxsum: evaluation of S(a; lam, mu, sign) = sum_{n>=0} (+-1)^n
e^{-lam n} / (n^2 + a^2)^mu for Re a > 0, by direct summation,
convergent small-a series, large-a algebraic expansions and
exponentially small Bessel-function tail corrections.

Every public name is re-exported lazily (PEP 562): ``import mxsum``
loads no submodule, and the first use of a name imports the submodule
that defines it (``mxsum.coefficients``, ``mxsum.evaluators`` or
``mxsum.harness``), so a process pays only for the layers it uses.
``from mxsum import *`` binds every name of ``__all__``.
"""

from __future__ import annotations

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("CoefficientTable", "a_coefficients", "b_coefficients", "bhat_coefficients"),
        "coefficients",
    ),
    **dict.fromkeys(
        ("IntegrandError", "NonConvergenceError", "PreconditionError"), "errors"
    ),
    **dict.fromkeys(
        (
            "Evaluation",
            "SeriesParams",
            "TailTerm",
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
        ),
        "evaluators",
    ),
    **dict.fromkeys(
        (
            "ReportRow",
            "TableSpec",
            "check_suite",
            "decay_rate_fit",
            "emit_report",
            "reproduce_table1",
            "reproduce_table2",
            "reproduce_table3",
            "table2_convention_report",
            "table_spec",
            "tail_agreement_check",
        ),
        "harness",
    ),
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
