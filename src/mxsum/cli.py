"""Command-line front end.

Subcommands: ``eval`` (one sum evaluation by a chosen route),
``table`` (reproduce a reference table and emit its report),
``coeffs`` (expansion-coefficient generation as CSV) and ``check``
(tail-agreement, decay-rate and recurrence consistency suite).

``eval`` runs every method from one table, ``_METHODS``: the route each
method runs for sign - and sign +, and the option it passes (``--tol``,
or ``--K`` where the method has an asymptotic expansion). ``table`` and
``check`` write their report and judge it by the rows' own verdicts.

A process imports only what its subcommand runs: this module loads no
layer, only ``mxsum.errors`` and ``mxsum.output`` (through which every
subcommand writes), and looks each name a subcommand runs up on the
package, whose ``__getattr__`` imports the defining module on first
use; so ``coeffs`` loads neither the evaluators nor the harness, and
``eval`` loads no harness. The parser registers every subcommand, so
that usage and help name them all, but ``main`` fills in the arguments
of the chosen one alone.

Exit status:

* 0: success (and, for ``table``/``check``, every judged row passed);
* 1: at least one report row failed its tolerance;
* 2: invalid command line, or an unwritable destination;
* 3: an evaluator precondition was violated;
* 4: an algorithm did not converge.

All numeric output uses round-trip (shortest repr) decimal formatting.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NonConvergenceError, PreconditionError
from .output import open_destination, write_csv

__all__ = ["cmd_check", "cmd_coeffs", "cmd_eval", "cmd_table", "main"]

# the package, on which every route, coefficient generator and report
# writer a subcommand runs is looked up per call: a name replaced there
# (as by the benchmark's tracing) is the one that runs
_pkg = sys.modules[__package__]


# every eval method: {keyword: (route for sign -, route for sign +)}. The
# keyword is what the route takes from the command line: "tol", "K" (an
# asymptotic expansion truncated at --K, run only when --K is given) or
# None (the route sizes its own sums); a method with no "K" entry refuses
# --K. Routes are named here and looked up on the package per call
_METHODS = {
    "oracle": {"tol": ("direct_sum", "direct_sum")},
    "small-a": {None: ("small_a_minus", "small_a_minus")},
    "algebraic": {
        None: ("algebraic_minus", "algebraic_plus"),
        "K": ("algebraic_minus", "algebraic_plus"),
    },
    "full": {None: ("full_minus", "full_plus")},
    "tail": {None: ("bessel_tail_minus", "bessel_tail_plus")},
    "j-mu": {
        "tol": ("j_mu_quadrature", "j_mu_quadrature"),
        "K": ("j_mu_asymptotic", "j_mu_asymptotic"),
    },
    "integer-mu": {None: ("integer_mu_closed_form", "integer_mu_closed_form")},
    "lambda0": {None: ("olver_lambda0_minus", "lambda0_plus")},
}

EVAL_CSV_HEADER = (
    "value_re",
    "value_im",
    "method",
    "error_estimate",
    "truncation_index",
    "tail_terms_used",
    "notes",
)

COEFFS_CSV_HEADER = ("kind", "k", "lambda", "value")


# ---------------------------------------------------------------------------
# parser

_EVAL_EPILOG = """\
methods and what they evaluate:
  oracle      the sum itself, by compensated direct summation (uses --tol)
  full        the sum itself, as algebraic part + Bessel tail (0 < mu < 1)
  algebraic   the sum's large-a algebraic expansion, truncated at --K
  integer-mu  the sum itself, hypergeometric closed form (mu = 1 .. 5)
  lambda0     the sum itself at lam = 0 (requires --lambda 0)
  small-a     the branch-cut contribution H alone, convergent small-a
              series (--sign minus only, |a| <= 1)
  tail        the exponentially small Bessel tail alone
  j-mu        the Laplace integral J alone: quadrature by default
              (uses --tol), or its large-a expansion truncated at --K

default method: algebraic at mu = 0, where it is exact; lambda0 at
--lambda 0 with --sign plus and mu < 1; full at any other mu < 1;
oracle at mu >= 1.
--K is accepted by algebraic and j-mu only (exit 2 elsewhere); the other
routes size their own sums.
--format csv prints header and one row:
  value_re,value_im,method,error_estimate,truncation_index,tail_terms_used,notes
"""


def build_parser(subcommand: str | None = None) -> argparse.ArgumentParser:
    """The ``mxsum`` parser, every subcommand registered, so that usage
    and help name them all; with ``subcommand`` given, only that one's
    arguments are added (a command line parses into it alone)."""

    parser = argparse.ArgumentParser(
        prog="mxsum",
        description=(
            "Evaluate S(a; lam, mu, sign) = sum_(n>=0) (sign)^n "
            "e^(-lam n) / (n^2 + a^2)^mu and its expansions."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ev = sub.add_parser(
        "eval",
        help="evaluate one sum (or one of its components) by a chosen route",
        epilog=_EVAL_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    if subcommand in (None, "eval"):
        ev.add_argument("--sign", choices=("minus", "plus"), default="minus",
                        help="minus: alternating sum; plus: all terms positive")
        ev.add_argument("--mu", type=float, required=True,
                        help="exponent on n^2 + a^2 (>= 0)")
        ev.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="exponential decay rate (>= 0, default 1)")
        ev.add_argument("--a", type=float, default=1.0,
                        help="real part of a (> 0, default 1)")
        ev.add_argument("--a-im", type=float, default=0.0,
                        help="imaginary part of a (default 0)")
        ev.add_argument("--method", choices=_METHODS, default=None,
                        help="evaluation route (see below, with the default)")
        ev.add_argument("--K", type=int, default=None,
                        help="truncation index of the asymptotic expansion "
                             "(algebraic and j-mu only)")
        ev.add_argument("--tol", type=float, default=1e-12,
                        help="target tolerance for oracle and quadrature routes")
        ev.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default text)")
        ev.add_argument("--output", default=None,
                        help="destination path (default: standard output)")

    tb = sub.add_parser(
        "table",
        help="reproduce one reference table and write its report",
        description=(
            "Recomputes every cell of the chosen reference table and "
            "writes a report; exits 0 only if all judged rows pass. "
            "Table 2 by default runs both angle conventions (a = 6 "
            "e^(i pi phi) and a = 6 e^(i phi)) and appends a marker row "
            "recording which one matched; the exit status then judges "
            "the matching convention's rows. With --convention given, "
            "only that convention runs and every row is judged."
        ),
        allow_abbrev=False,
    )
    if subcommand in (None, "table"):
        tb.add_argument("table_id", type=int, choices=(1, 2, 3),
                        help="which reference table to reproduce")
        tb.add_argument("--convention", choices=("pi_phi", "phi"), default=None,
                        help="angle convention for table 2 (default: run both)")
        tb.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
        tb.add_argument("--output", default=None,
                        help="destination path (default: standard output)")

    co = sub.add_parser(
        "coeffs",
        help="generate expansion coefficients as CSV",
        description=(
            "Writes coefficients k = 0 .. K as CSV with header "
            "kind,k,lambda,value. Kinds: A (Taylor coefficients of "
            "sin(lam x)/sinh(pi x), K <= 60), B and Bhat (large-a "
            "expansion coefficients, K <= 100)."
        ),
        allow_abbrev=False,
    )
    if subcommand in (None, "coeffs"):
        co.add_argument("kind", choices=("A", "B", "Bhat"),
                        help="coefficient family")
        co.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="decay rate the coefficients depend on (default 1)")
        co.add_argument("--K", type=int, default=8,
                        help="largest index to generate (default 8)")
        co.add_argument("--output", default=None,
                        help="destination path (default: standard output)")

    ck = sub.add_parser(
        "check",
        help="run the consistency suite (tail agreement, decay rates, mu-step)",
        description=(
            "Runs the tail-vs-defect agreement check at a = 3 and 4, "
            "fits the remainder decay rates against -pi and -2 pi, and "
            "verifies the mu-step recurrence; writes the five-row "
            "report and exits 0 only if every row passes."
        ),
        allow_abbrev=False,
    )
    if subcommand in (None, "check"):
        ck.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
        ck.add_argument("--output", default=None,
                        help="destination path (default: standard output)")
    return parser


# ---------------------------------------------------------------------------
# eval

def _run_method(method: str, p: SeriesParams, ns: argparse.Namespace) -> Evaluation:
    """Evaluate by the route of ``method`` for p.sign; every route checks
    its own domain, the sign included, and sizes its own sums."""

    routes = _METHODS[method]
    keyword = "K" if ns.K is not None else next(k for k in routes if k != "K")
    route = getattr(_pkg, routes[keyword][p.sign == "plus"])
    result = route(p, **{keyword: getattr(ns, keyword)}) if keyword else route(p)
    return result[0] if method == "tail" else result


def _scalar(value) -> float | complex:
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def _print_evaluation(evaluation: Evaluation, fmt: str, handle) -> None:
    value = complex(evaluation.value)
    if fmt == "text":
        print(f"value = {_scalar(value)!r}", file=handle)
        print(f"method = {evaluation.method}", file=handle)
        print(f"error_estimate = {evaluation.error_estimate!r}", file=handle)
        print(f"truncation_index = {evaluation.truncation_index}", file=handle)
        print(f"tail_terms_used = {evaluation.tail_terms_used}", file=handle)
        if evaluation.notes:
            print(f"notes = {evaluation.notes}", file=handle)
        return
    record = {
        "value_re": value.real,
        "value_im": value.imag,
        "method": evaluation.method,
        "error_estimate": evaluation.error_estimate,
        "truncation_index": evaluation.truncation_index,
        "tail_terms_used": evaluation.tail_terms_used,
        "notes": evaluation.notes,
    }
    if fmt == "json":
        import json

        json.dump(record, handle, indent=2, allow_nan=False)
        handle.write("\n")
        return
    write_csv(handle, EVAL_CSV_HEADER, [record.values()])


def _default_method(ns: argparse.Namespace) -> str:
    """The method that serves the point when --method is not given: the
    full routes need 0 < mu < 1, and full_plus lam > 0."""

    if ns.mu == 0.0:
        return "algebraic"
    if ns.mu < 1.0:
        return "lambda0" if ns.lam == 0.0 and ns.sign == "plus" else "full"
    return "oracle"


def cmd_eval(ns: argparse.Namespace) -> int:
    params = _pkg.SeriesParams(ns.mu, ns.lam, complex(ns.a, ns.a_im), ns.sign)
    evaluation = _run_method(ns.method or _default_method(ns), params, ns)
    with open_destination(ns.output) as handle:
        _print_evaluation(evaluation, ns.format, handle)
    return 0


# ---------------------------------------------------------------------------
# table / check / coeffs

def _emit_judged(rows, ns: argparse.Namespace, judged=None) -> int:
    """Write the report; 0 if every judged row (by default every row)
    passed, else 1."""

    _pkg.emit_report(rows, ns.format, ns.output)
    return 0 if all(r.passed for r in (rows if judged is None else judged)) else 1


def cmd_table(ns: argparse.Namespace) -> int:
    if ns.table_id == 1:
        return _emit_judged(_pkg.reproduce_table1(), ns)
    if ns.table_id == 3:
        return _emit_judged(_pkg.reproduce_table3(), ns)
    if ns.convention is not None:
        return _emit_judged(_pkg.reproduce_table2(ns.convention), ns)
    rows = _pkg.table2_convention_report()
    # the marker row judges the rows of the convention that matched
    return _emit_judged(rows, ns, [r for r in rows if r.row_id.startswith("matching-")])


def cmd_check(ns: argparse.Namespace) -> int:
    return _emit_judged(_pkg.check_suite(), ns)


def cmd_coeffs(ns: argparse.Namespace) -> int:
    generate = getattr(_pkg, {
        "A": "a_coefficients",
        "B": "b_coefficients",
        "Bhat": "bhat_coefficients",
    }[ns.kind])
    table = generate(ns.lam, ns.K)
    records = [
        (table.kind, k, table.lam, value) for k, value in enumerate(table.values)
    ]
    with open_destination(ns.output) as handle:
        write_csv(handle, COEFFS_CSV_HEADER, records)
    return 0


# ---------------------------------------------------------------------------
# dispatch

_DISPATCH = {
    "eval": cmd_eval,
    "table": cmd_table,
    "coeffs": cmd_coeffs,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top level takes no option with a value, so its first token
    # that is no option names the subcommand that parses the rest
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(chosen)
    ns = parser.parse_args(argv)
    if ns.subcommand == "eval" and ns.K is not None:
        if "K" not in _METHODS.get(ns.method, ()):
            expansions = " and ".join(m for m, routes in _METHODS.items() if "K" in routes)
            parser.error(f"--K applies to --method {expansions} only")
    try:
        return _DISPATCH[ns.subcommand](ns)
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
