"""Expansion coefficients: derivative polynomials of tanh/coth, the
large-a coefficients B_k and Bhat_k built from them, and the Taylor
coefficients A_k of sin(lam x)/sinh(pi x).

Numerical notes that shape the implementation:

* B_k = (-1)^k 2^(-2k-1) p_2k(tanh(lam/2)) is benign: the polynomial is
  evaluated by exact rational Horner (coefficients grow like (2k)!, so
  float Horner would lose digits long before k = 50).
* Bhat_k = 2^(-2k-1) [p_2k(coth x) - (2k)!/x^(2k+1)], x = lam/2, hides
  a subtraction of two nearly equal quantities whose ratio to the
  result grows like (|x - i pi| / x)^(2k+1); at lam = 1, k = 8 that is
  thirteen orders of magnitude, far beyond binary64. For lam < 4 the
  difference is therefore generated directly from the series
  coth x - 1/x = sum q_m x^(2m-1), q_m = 4^m B_2m / (2m)!, summed in
  exact rational arithmetic (radius pi, so lam < 2 pi); the term-by-term
  2k-th derivative of that series IS the difference, with no
  cancellation surviving the exact arithmetic. For lam >= 4 the direct
  subtraction is done in exact arithmetic as well, where its remaining
  sensitivity (through the rounding of coth itself) is harmless for
  moderate k.
* A_k comes from dividing the even power series of sin(lam x)/(lam x)
  by that of sinh(pi x)/(pi x) in the exact bivariate ring Q[lam^2,
  pi^2]; each A_k is homogeneous of degree k in (lam^2, pi^2) and is
  evaluated in float only at the very end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import NonConvergenceError, PreconditionError
from .kernel.zeta import bernoulli_even

__all__ = [
    "CoefficientTable",
    "PowerSeries",
    "UPolynomial",
    "a_coefficients",
    "b_coefficients",
    "bhat_coefficients",
    "coth_derivative_poly",
    "tanh_derivative_poly",
]

_MAX_DERIVATIVE_ORDER = 200
_MAX_A_INDEX = 60


# ---------------------------------------------------------------------------
# derivative polynomials


@dataclass(frozen=True)
class UPolynomial:
    """Polynomial p(u) with exact rational coefficients.

    Represents the m-th derivative of tanh (kind 'tanh', u = tanh x) or
    coth (kind 'coth', u = coth x); both satisfy the same recurrence
    p_{m+1}(u) = (1 - u^2) p_m'(u), differing only in the evaluation
    point, so the coefficient tuples coincide.
    """

    coeffs: tuple[Fraction, ...]  # coeffs[j] multiplies u^j
    kind: str = "tanh"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate_exact(self, u: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc


_DERIV_COEFFS: list[tuple[int, ...]] = [(0, 1)]  # p_0(u) = u


def _derivative_coeffs(m: int) -> tuple[int, ...]:
    while len(_DERIV_COEFFS) <= m:
        prev = _DERIV_COEFFS[-1]
        # q = p', then p_next = q - u^2 q
        q = tuple(j * prev[j] for j in range(1, len(prev)))
        nxt = [0] * (len(q) + 2)
        for j, c in enumerate(q):
            nxt[j] += c
            nxt[j + 2] -= c
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        _DERIV_COEFFS.append(tuple(nxt))
    return _DERIV_COEFFS[m]


def _check_order(m: int) -> None:
    if not isinstance(m, int) or m < 0 or m > _MAX_DERIVATIVE_ORDER:
        raise PreconditionError(
            f"derivative order must be an integer in [0, "
            f"{_MAX_DERIVATIVE_ORDER}], got {m!r}"
        )


def tanh_derivative_poly(m: int) -> UPolynomial:
    """p_m with (d/dx)^m tanh x = p_m(tanh x)."""

    _check_order(m)
    return UPolynomial(tuple(Fraction(c) for c in _derivative_coeffs(m)), "tanh")


def coth_derivative_poly(m: int) -> UPolynomial:
    """p_m with (d/dx)^m coth x = p_m(coth x); same tuple as tanh's."""

    _check_order(m)
    return UPolynomial(tuple(Fraction(c) for c in _derivative_coeffs(m)), "coth")


# ---------------------------------------------------------------------------
# power series with exact coefficients


@dataclass
class PowerSeries:
    """Finite list of exact coefficients of an even (or explicitly
    noted odd) power series; the ring of coefficients just needs + - *.

    scale_note records what index k means (e.g. 'coefficient of x^(2k)').
    """

    coeffs: list
    scale_note: str = "coefficient k multiplies x^(2k)"

    def divide(self, other: "PowerSeries", k_max: int) -> "PowerSeries":
        """Cauchy division self/other through index k_max.

        Requires other.coeffs[0] == 1 (multiplicative identity), which
        keeps the recurrence division-free and exact in any ring.
        """

        if not other.coeffs or not other.coeffs[0] == 1:
            raise PreconditionError(
                "series division requires a unit leading denominator "
                "coefficient"
            )
        out: list = []
        for k in range(k_max + 1):
            term = self.coeffs[k] if k < len(self.coeffs) else None
            acc = term
            for j in range(1, k + 1):
                if j >= len(other.coeffs) or k - j >= len(out):
                    continue
                prod = other.coeffs[j] * out[k - j]
                acc = -prod if acc is None else acc - prod
            if acc is None:
                raise PreconditionError(
                    f"numerator series too short for index {k}"
                )
            out.append(acc)
        return PowerSeries(out, self.scale_note)


# ---------------------------------------------------------------------------
# exact bivariate ring Q[L, P] with L = lam^2, P = pi^2


class _Poly2:
    """Sparse exact polynomial in (L, P); keys are (i, j) exponents."""

    __slots__ = ("data",)

    def __init__(self, data: dict[tuple[int, int], Fraction] | None = None):
        self.data = data or {}

    @classmethod
    def monomial(cls, i: int, j: int, c: Fraction) -> "_Poly2":
        return cls({(i, j): c} if c else {})

    def __add__(self, other: "_Poly2") -> "_Poly2":
        out = dict(self.data)
        for key, c in other.data.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return _Poly2(out)

    def __sub__(self, other: "_Poly2") -> "_Poly2":
        return self + (-other)

    def __neg__(self) -> "_Poly2":
        return _Poly2({k: -c for k, c in self.data.items()})

    def __mul__(self, other: "_Poly2") -> "_Poly2":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.data.items():
            for (i2, j2), c2 in other.data.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return _Poly2(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.data == ({} if other == 0 else {(0, 0): Fraction(other)})
        if isinstance(other, _Poly2):
            return self.data == other.data
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.data.items()))

    def evaluate(self, lam_sq: float, pi_sq: float) -> float:
        return math.fsum(
            float(c) * lam_sq**i * pi_sq**j for (i, j), c in self.data.items()
        )


_A_EXACT: list[_Poly2] = []


def _a_exact(k_max: int) -> list[_Poly2]:
    if len(_A_EXACT) <= k_max:
        num = PowerSeries(
            [
                _Poly2.monomial(k, 0, Fraction((-1) ** k, math.factorial(2 * k + 1)))
                for k in range(k_max + 1)
            ]
        )
        den = PowerSeries(
            [
                _Poly2.monomial(0, k, Fraction(1, math.factorial(2 * k + 1)))
                for k in range(k_max + 1)
            ]
        )
        ratio = num.divide(den, k_max)
        _A_EXACT.clear()
        # sin(lam x)/sinh(pi x) = (lam/pi) sum (-1)^k A_k x^(2k)
        _A_EXACT.extend(
            -p if k % 2 else p for k, p in enumerate(ratio.coeffs)
        )
    return _A_EXACT[: k_max + 1]


# ---------------------------------------------------------------------------
# coefficient tables


@dataclass
class CoefficientTable:
    """Computed coefficients values[k] for k = 0..K of one kind
    ('A', 'B' or 'Bhat') at a fixed lam."""

    kind: str
    lam: float
    K: int
    values: list[float] = field(default_factory=list)


def _check_k(K: int, cap: int) -> None:
    if not isinstance(K, int) or K < 0 or K > cap:
        raise PreconditionError(
            f"coefficient index bound must be an integer in [0, {cap}]"
        )


def b_coefficients(lam: float, K: int) -> CoefficientTable:
    """B_k = (-1)^k 2^(-2k-1) p_2k(tanh(lam/2)), k = 0..K."""

    lam = float(lam)
    if not lam > 0.0:
        raise PreconditionError("b_coefficients needs lam > 0")
    _check_k(K, _MAX_DERIVATIVE_ORDER // 2)
    u = Fraction(math.tanh(0.5 * lam))
    values = []
    for k in range(K + 1):
        poly = tanh_derivative_poly(2 * k)
        exact = poly.evaluate_exact(u) * Fraction((-1) ** k, 2 ** (2 * k + 1))
        values.append(float(exact))
    return CoefficientTable("B", lam, K, values)


def _coth_minus_inv_series(m_top: int) -> PowerSeries:
    """coth x - 1/x = sum_{m>=1} q_m x^(2m-1); coeffs[m-1] = q_m."""

    qs = [
        Fraction(4) ** m * bernoulli_even(m) / math.factorial(2 * m)
        for m in range(1, m_top + 1)
    ]
    return PowerSeries(qs, "coefficient m multiplies x^(2m+1) (odd series)")


def _frac_log2(x: Fraction) -> int:
    if x == 0:
        return -(10**9)
    return x.numerator.bit_length() - x.denominator.bit_length()


def _bhat_series(x: Fraction, K: int) -> list[float]:
    # Bhat_k = 2^(-2k-1) * d^(2k)/dx^(2k) [coth x - 1/x]
    #        = 2^(-2k-1) sum_{m>k} q_m (2m-1)!/(2m-1-2k)! x^(2m-1-2k)
    x2 = x * x
    values = []
    series = _coth_minus_inv_series(64)

    def q(m: int) -> Fraction:
        nonlocal series
        while m - 1 >= len(series.coeffs):
            series = _coth_minus_inv_series(2 * len(series.coeffs))
        return series.coeffs[m - 1]

    for k in range(K + 1):
        acc = Fraction(0)
        x_pow = x  # x^(2m-1-2k) at m = k+1
        max_log = -(10**9)
        m = k + 1
        while True:
            ff = 1
            for i in range(2 * k):
                ff *= 2 * m - 1 - i
            term = q(m) * ff * x_pow
            acc += term
            tl = _frac_log2(term)
            max_log = max(max_log, tl)
            if tl < max_log - 270:
                break
            x_pow *= x2
            m += 1
            if m > k + 1500:
                raise NonConvergenceError(
                    "coth-series fallback did not converge (lam too close "
                    "to the series radius 2*pi)"
                )
        values.append(float(acc * Fraction(1, 2 ** (2 * k + 1))))
    return values


def bhat_coefficients(lam: float, K: int) -> CoefficientTable:
    """Bhat_k = 2^(-2k-1) [p_2k(coth x) - (2k)!/x^(2k+1)], x = lam/2."""

    lam = float(lam)
    if not lam > 0.0:
        raise PreconditionError("bhat_coefficients needs lam > 0")
    _check_k(K, _MAX_DERIVATIVE_ORDER // 2)
    if lam < 0.05:
        warnings.warn(
            "bhat_coefficients: both terms of the defining difference blow "
            "up as lam -> 0; using the coth-series fallback",
            stacklevel=2,
        )
    x = Fraction(lam) / 2
    if lam < 4.0:
        values = _bhat_series(x, K)
    else:
        u = Fraction(1.0 / math.tanh(0.5 * lam))
        values = []
        for k in range(K + 1):
            poly = coth_derivative_poly(2 * k)
            exact = poly.evaluate_exact(u) - Fraction(
                math.factorial(2 * k)
            ) / x ** (2 * k + 1)
            values.append(float(exact * Fraction(1, 2 ** (2 * k + 1))))
    return CoefficientTable("Bhat", lam, K, values)


def a_coefficients(lam: float, K: int) -> CoefficientTable:
    """A_k with sin(lam x)/sinh(pi x) = (lam/pi) sum (-1)^k A_k x^(2k)."""

    lam = float(lam)
    if not lam >= 0.0 or math.isnan(lam):
        raise PreconditionError("a_coefficients needs lam >= 0")
    _check_k(K, _MAX_A_INDEX)
    polys = _a_exact(K)
    lam_sq = lam * lam
    pi_sq = math.pi * math.pi
    return CoefficientTable(
        "A", lam, K, [p.evaluate(lam_sq, pi_sq) for p in polys]
    )
