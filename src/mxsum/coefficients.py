"""Expansion coefficients: derivative polynomials of tanh/coth, the
large-a coefficients B_k and Bhat_k built from them, and the Taylor
coefficients A_k of sin(lam x)/sinh(pi x).

Numerical notes that shape the implementation:

* B_k = (-1)^k 2^(-2k-1) p_2k(tanh(lam/2)) is benign: the polynomial is
  evaluated exactly (coefficients grow like (2k)!, so float Horner would
  lose digits long before k = 50). Its argument is a dyadic rational
  u = n/2^s: tanh(lam/2) rounded to binary64 where that is at most 1/2
  (lam <= ln 3), and above, u = 1 - delta exactly, with
  delta = 2/(e^lam + 1) in binary64. As tanh(lam/2) -> 1 the value
  rests on 1 - u^2 = delta (2 - delta), which then keeps delta's
  relative error, where rounding tanh itself would leave B 9e-9 off at
  lam = 20 and 2e-4 off at lam = 30. B_k is exact integer Horner over
  u, in which every power of 2^s is a shift, and one correctly rounded
  division by a power of two: the bits that exact rational arithmetic
  gives, without a Fraction per step.
* Bhat_k = 2^(-2k-1) [p_2k(coth x) - (2k)!/x^(2k+1)], x = lam/2, hides
  a subtraction of two nearly equal quantities whose ratio to the
  result grows like (|x - i pi| / x)^(2k+1); at lam = 1, k = 8 that is
  thirteen orders of magnitude, far beyond binary64. For lam < 4 the
  difference is therefore generated directly from the series
  coth x - 1/x = sum q_m x^(2m-1), q_m = 4^m B_2m / (2m)!, summed in
  exact rational arithmetic (radius pi, so lam < 2 pi); the term-by-term
  2k-th derivative of that series IS the difference, with no
  cancellation surviving the exact arithmetic. Each q_m is exact,
  from the integer tangent number T_m (see ``kernel.zeta``), and
  computed once per process; the falling factorial (2m-1)!/(2m-1-2k)!
  of each term is one ``math.perm``. For lam >= 4 the direct subtraction
  is exact as well: coth x and x are both dyadic, so both terms go over
  one common denominator, a power of two times xn^(2k+1) for x = xn/2^t,
  by the same shifts, and one correctly rounded division. But coth x is
  rounded to binary64 first, and that rounding is amplified: the
  relative error is about 6e-10 at lam = 4, k = 8 and 1e-3 at k = 20
  (ROADMAP item 2).
* A_k comes from dividing the even power series of sin(lam x)/(lam x)
  by that of sinh(pi x)/(pi x). Each A_k is homogeneous of degree k in
  (lam^2, pi^2), so it is kept as one row, indexed by the power of
  lam^2, of exact rationals each rounded to binary64 once. The
  coefficients e_n of the reciprocal series are in closed form, from
  the Bernoulli expansion of y/sinh y and the cached tangent numbers,
  and each entry of a row is one correctly rounded integer division.

Only the coth series makes Fractions: ``fractions`` (which loads
``decimal``) is imported inside ``_q`` and ``_bhat_series``, so a
process that asks for A or B, or for Bhat at lam >= 4, loads neither.

Every memo here (the p_m, the odd coefficients of p_2k, the q_m, the
exact e_n behind the A rows, the rows, and the Bhat_k of the coth series
per (lam, k)) is a ``functools`` cache of a pure function with an
immutable result, so threads need no lock: two that miss at once compute
the same value twice. p_m and the rows recurse on their predecessor, so a
cold call is as deep as its index; B and Bhat ask for p_0, p_2, p_4, ...
(through the odd-coefficient memo) in ascending order, so each call
finds its predecessor cached and recurses a few frames at most. The
A rows recurse at most 60 frames, their index cap.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .errors import NonConvergenceError, PreconditionError
from .kernel.zeta import tangent_number

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CoefficientTable",
    "a_coefficients",
    "b_coefficients",
    "bhat_coefficients",
]

_MAX_DERIVATIVE_ORDER = 200
_MAX_A_INDEX = 60
# Bhat_k values of the coth series kept, keyed on (lam, k)
_BHAT_SERIES_CACHE = 256


# ---------------------------------------------------------------------------
# derivative polynomials


@functools.cache
def _derivative_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of p_m, lowest power first: the m-th
    derivative of tanh at u = tanh x, and equally that of coth at
    u = coth x, both from p_{m+1}(u) = (1 - u^2) p_m'(u), p_0(u) = u."""

    if m == 0:
        return (0, 1)  # p_0(u) = u
    prev = _derivative_coeffs(m - 1)
    # q = p', then p_m = q - u^2 q
    q = tuple(j * prev[j] for j in range(1, len(prev)))
    nxt = [0] * (len(q) + 2)
    for j, c in enumerate(q):
        nxt[j] += c
        nxt[j + 2] -= c
    while len(nxt) > 1 and nxt[-1] == 0:
        nxt.pop()
    return tuple(nxt)


# ---------------------------------------------------------------------------
# exact A_k rows


@functools.cache
def _e(n: int) -> tuple[int, int]:
    """e_n of 1/D = sum e_n P^n y^n (see _a_rows), exactly, as an
    integer numerator and denominator (not in lowest terms).

    At y = -x^2, 1/D is pi x/sinh(pi x), and z/sinh z = sum (2 - 4^n)
    B_2n z^(2n)/(2n)!; with B_2n's tangent-number form (see
    ``kernel.zeta``) that gives e_0 = 1 and, for n >= 1,
    e_n = (4^n - 2) T_n / (4^n (4^n - 1) (2n-1)!).
    """

    if n == 0:
        return 1, 1
    four_n = 4**n
    return (
        (four_n - 2) * tangent_number(n),
        four_n * (four_n - 1) * math.factorial(2 * n - 1),
    )


@functools.cache
def _a_rows(k_max: int) -> tuple[tuple[float, ...], ...]:
    """Rows 0..k_max of the A_k, each rounded to binary64 once.

    Row k holds the coefficient of L^i P^(k-i) in A_k, i = 0..k, with
    L = lam^2 and P = pi^2 (A_k is homogeneous of degree k in L and P).
    With y = -x^2, sum A_k y^k = N(y)/D(y) for N = sum L^k y^k/(2k+1)!
    (sin(lam x)/(lam x)) and D = sum (-P)^j y^j/(2j+1)! (sinh(pi x)/(pi x)).
    1/D = sum e_n P^n y^n has the closed form of ``_e``, from the
    cached tangent numbers, and A_k[i] = e_(k-i)/(2i+1)!: one integer
    quotient, which Python's int division rounds correctly, so no
    Fraction is made. Each k_max shares the rows of k_max - 1.
    """

    head = _a_rows(k_max - 1) if k_max else ()
    row = []
    for i in range(k_max + 1):
        num, den = _e(k_max - i)
        row.append(num / (den * math.factorial(2 * i + 1)))
    return head + (tuple(row),)


# ---------------------------------------------------------------------------
# coefficient tables


class CoefficientTable(NamedTuple):
    """Computed coefficients values[k] for k = 0..K of one kind
    ('A', 'B' or 'Bhat') at a fixed lam."""

    kind: str
    lam: float
    K: int
    values: list[float]


def _check_k(K: int, cap: int) -> None:
    if not isinstance(K, int) or K < 0 or K > cap:
        raise PreconditionError(
            f"coefficient index bound must be an integer in [0, {cap}]"
        )


@functools.cache
def _odd_coeffs(k: int) -> tuple[int, ...]:
    """The coefficients c_k, .., c_0 of u^(2k+1), .., u of p_2k, highest
    first: p_2k is odd of degree 2k+1."""

    return _derivative_coeffs(2 * k)[::-2]


def _dyadic(x: float) -> tuple[int, int]:
    """(n, s) with x = n/2^s exactly, n odd unless x is an integer."""

    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _scaled_poly(k: int, n: int, s: int) -> int:
    """2^(s(2k+1)) p_2k(n/2^s), exactly, by integer Horner.

    With c_i the coefficient of u^(2i+1) this is
    n sum_i c_i (n^2)^i 2^(2s(k-i)), so each power of 2^(2s) is a shift.
    """

    n2, step = n * n, 2 * s
    acc, shift = 0, 0
    for c in _odd_coeffs(k):
        acc = acc * n2 + (c << shift)
        shift += step
    return acc * n


def _tanh_half(lam: float) -> tuple[int, int]:
    """u = n/2^s standing for tanh(lam/2).

    Up to 1/2 (lam <= ln 3), tanh(lam/2) rounded to binary64. Above,
    u = 1 - delta exactly, with delta = 2/(e^lam + 1) in binary64, formed
    as 2q/(1 + q), q = e^-lam, which cannot overflow: 1 - u^2 =
    delta (2 - delta) then keeps delta's relative error of a few eps,
    where rounding tanh itself would leave an absolute error of eps in
    u, and so a relative one of about eps e^lam in 1 - u^2.
    """

    u = math.tanh(0.5 * lam)
    if u <= 0.5:
        return _dyadic(u)
    q = math.exp(-lam)
    n, s = _dyadic(2.0 * q / (1.0 + q))
    return (1 << s) - n, s


def b_coefficients(lam: float, K: int) -> CoefficientTable:
    """B_k = (-1)^k 2^(-2k-1) p_2k(tanh(lam/2)), k = 0..K.

    tanh(lam/2) is taken as the dyadic u = n/2^s of ``_tanh_half``:
    rounded to binary64 up to lam = ln 3, and 1 - delta above. B_k is
    then exact integer Horner over u and one correctly rounded division
    by a power of two: (-1)^k 2^(s(2k+1)) p_2k(u) / 2^((s+1)(2k+1)).
    """

    lam = float(lam)
    if not lam > 0.0:
        raise PreconditionError("b_coefficients needs lam > 0")
    _check_k(K, _MAX_DERIVATIVE_ORDER // 2)
    n, s = _tanh_half(lam)
    values = []
    for k in range(K + 1):
        num = _scaled_poly(k, n, s)
        values.append((-num if k % 2 else num) / (1 << ((s + 1) * (2 * k + 1))))
    return CoefficientTable("B", lam, K, values)


@functools.cache
def _q(m: int) -> Fraction:
    """q_m = 4^m B_2m/(2m)! of coth x - 1/x = sum_{m>=1} q_m x^(2m-1),
    which B_2m's tangent-number form (see ``kernel.zeta``) makes
    (-1)^(m-1) T_m / ((4^m - 1) (2m-1)!)."""

    from fractions import Fraction

    q = Fraction(tangent_number(m), (4**m - 1) * math.factorial(2 * m - 1))
    return q if m % 2 else -q


def _frac_log2(x: Fraction) -> int:
    if x == 0:
        return -(10**9)
    return x.numerator.bit_length() - x.denominator.bit_length()


@functools.lru_cache(maxsize=_BHAT_SERIES_CACHE)
def _bhat_series(lam: float, k: int) -> float:
    # Bhat_k = 2^(-2k-1) * d^(2k)/dx^(2k) [coth x - 1/x], x = lam/2
    #        = 2^(-2k-1) sum_{m>k} q_m (2m-1)!/(2m-1-2k)! x^(2m-1-2k)
    from fractions import Fraction

    x = Fraction(lam) / 2
    x2 = x * x
    acc = Fraction(0)
    x_pow = x  # x^(2m-1-2k) at m = k+1
    max_log = -(10**9)
    m = k + 1
    while True:
        term = _q(m) * math.perm(2 * m - 1, 2 * k) * x_pow
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
    return float(acc * Fraction(1, 2 ** (2 * k + 1)))


def bhat_coefficients(lam: float, K: int) -> CoefficientTable:
    """Bhat_k = 2^(-2k-1) [p_2k(coth x) - (2k)!/x^(2k+1)], x = lam/2.

    lam < 4: the exact coth-series, one value per (lam, k). Bhat_k does
    not depend on K, so each is kept in a bounded LRU cache of
    ``_BHAT_SERIES_CACHE`` entries keyed on (float lam, k): a table at a
    lam already seen, at any K, reuses its values, and the bits are the
    same however the cache was filled. lam >= 4: coth x is rounded to
    binary64 first, so coth x = n/2^s and x = xn/2^t are dyadic, and the
    difference is exact integer Horner over coth x, put over the common
    denominator 2^((s+1)(2k+1)) xn^(2k+1) by shifts, and one correctly
    rounded division. That rounding of coth x leaves Bhat_k at lam >= 4
    off by a relative 2e-11 at lam = 6, k = 8, growing with k (ROADMAP
    item 2).
    """

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
    if lam < 4.0:
        values = [_bhat_series(lam, k) for k in range(K + 1)]
    else:
        # coth x = n/2^s and x = xn/2^t; over the common denominator
        # 2^(s(2k+1)) xn^(2k+1), p_2k(coth x) - (2k)!/x^(2k+1) is one
        # integer, and xn^(2k+1) and (2k)! carry over from k - 1
        n, s = _dyadic(1.0 / math.tanh(0.5 * lam))
        xn, t = _dyadic(0.5 * lam)
        xn2 = xn * xn
        xn_pow, fact = xn, 1
        values = []
        for k in range(K + 1):
            # coth's derivatives share tanh's polynomials, at u = coth x
            e = 2 * k + 1
            num = _scaled_poly(k, n, s) * xn_pow - (fact << ((s + t) * e))
            values.append(num / (xn_pow << ((s + 1) * e)))
            xn_pow *= xn2
            fact *= e * (e + 1)
    return CoefficientTable("Bhat", lam, K, values)


def a_coefficients(lam: float, K: int) -> CoefficientTable:
    """A_k with sin(lam x)/sinh(pi x) = (lam/pi) sum (-1)^k A_k x^(2k)."""

    lam = float(lam)
    if not lam >= 0.0 or math.isnan(lam):
        raise PreconditionError("a_coefficients needs lam >= 0")
    _check_k(K, _MAX_A_INDEX)
    lam_sq = lam * lam
    pi_sq = math.pi * math.pi
    lam_pow = [lam_sq**i for i in range(K + 1)]
    pi_pow = [pi_sq**i for i in range(K + 1)]
    # fsum rounds the exact sum of the terms once, so the value does not
    # depend on their order (no entry of a row is zero)
    values = [
        math.fsum(c * lam_pow[i] * pi_pow[k - i] for i, c in enumerate(row))
        for k, row in enumerate(_a_rows(K))
    ]
    return CoefficientTable("A", lam, K, values)
