"""Failure classes of the baseline that the workloads are expected to hit.

The workloads keep the ranges where these defects live, so that a
change that removes one shows as a lower failed fraction. A failed
request that matches none of these classes is an unexpected failure:
it makes the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KnownFailure:
    name: str
    symptom: str
    cause: str


FULL_PLUS_LARGE_A = KnownFailure(
    "full-plus-large-a",
    "full_plus raises NonConvergenceError from its H quadrature, for |a| >~ 14 "
    "(about one request in four there) and, rarely, at smaller |a| where the "
    "estimate misses the target by a hair",
    "h_plus_quadrature's tanh-sinh rule must reach a fixed 1e-14 relative "
    "target within 12 levels; it cannot resolve an integrand concentrated "
    "within ~1/(pi |a|) of t = 0",
)
FULL_MINUS_LARGE_A = KnownFailure(
    "full-minus-large-a",
    "full_minus raises NonConvergenceError from its H quadrature, for |a| >~ 27 "
    "and, rarely, at smaller |a|",
    "the same H quadrature limit as full-plus-large-a; without the extra "
    "exp(-pi a t) factor it sets in at larger |a|",
)
BHAT_SUBTRACTION = KnownFailure(
    "bhat-subtraction-lam-ge-4",
    "coeffs Bhat rows at lam >= 4 miss the 40-digit value by more than 1e-12, "
    "increasingly with k (6e-4 at lam = 6, k = 30)",
    "for lam >= 4 bhat_coefficients subtracts (2k)!/x^(2k+1) from p_2k(coth x) "
    "with coth x rounded to binary64; the rounding is amplified with k",
)
B_TANH_ROUNDING = KnownFailure(
    "b-tanh-rounding-large-lam",
    "coeffs B rows at lam >= 10 miss the 40-digit value by more than 1e-12 "
    "(9e-9 at lam = 20)",
    "b_coefficients rounds u = tanh(lam/2) to binary64 before the exact "
    "polynomial, so 1 - u^2 loses digits as lam grows",
)

BY_NAME = {
    cls.name: cls
    for cls in (FULL_PLUS_LARGE_A, FULL_MINUS_LARGE_A, BHAT_SUBTRACTION, B_TANH_ROUNDING)
}


def classify_route_error(route: str, error: str, message: str) -> KnownFailure | None:
    """The class of a route that raised ``error`` with ``message``, if any."""

    if error != "NonConvergenceError" or not message.startswith("quadrature did not reach"):
        return None
    if route == "full_plus":
        return FULL_PLUS_LARGE_A
    if route == "full_minus":
        return FULL_MINUS_LARGE_A
    return None


def classify_coefficient_row(kind: str, lam: float) -> KnownFailure | None:
    """The class of a coefficient row that missed its reference, if any."""

    if kind == "Bhat" and lam >= 4.0:
        return BHAT_SUBTRACTION
    if kind == "B" and lam >= 10.0:
        return B_TANH_ROUNDING
    return None
