"""Seeded request streams for the three benchmark workloads.

A stream is a sequence of blocks, and a block is a list of cells. Each
input range is cut into equal bands and a block gives every band exactly
one cell, so every block carries the same mix of cheap and expensive
requests whatever the seed; the timed loop only reports whole blocks.
``draw`` turns a cell into concrete requests by drawing uniformly inside
its bands.

The warm-up requests come from a generator seeded independently of the
timed stream, so no warm-up input reappears among the timed requests.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("full-points", "expansion-points", "cli-reports")


def timed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/timed/{seed}")


def warmup_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/warm-up/{seed}")


def _bands(rng: random.Random, n: int) -> list[int]:
    """The band indices 0..n-1 in random order."""

    order = list(range(n))
    rng.shuffle(order)
    return order


def _in_band(rng: random.Random, band: int, n: int) -> float:
    return (band + rng.random()) / n


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# ---------------------------------------------------------------------------
# full-points: full_minus / full_plus, mu ~ U(0.05, 0.95), lam log-uniform
# on [0.05, 8], |a| log-uniform on [1.5, 40], half at complex a

FULL_BAND = 16  # requests per (sign, real/complex) pair in one block


def _full_op(rng, sign, complex_a, mu_band, lam_band, mod_band, arg_band):
    n = FULL_BAND
    lam = _log_scale(_in_band(rng, lam_band, n), 0.05, 8.0)
    modulus = _log_scale(_in_band(rng, mod_band, n), 1.5, 40.0)
    theta = 0.0
    if complex_a:
        # inside the sector where the tail arguments keep Re X_0 > 0:
        # base * pi * Re a > lam * |Im a|, base = 1 (minus) or 2 (plus)
        base = 1.0 if sign == "minus" else 2.0
        limit = 0.92 * math.atan(base * math.pi / lam)
        theta = (2.0 * _in_band(rng, arg_band, n) - 1.0) * limit
    a = cmath.rect(modulus, theta)
    return {
        "route": f"full_{sign}",
        "mu": 0.05 + 0.9 * _in_band(rng, mu_band, n),
        "lam": lam,
        "a": [a.real, a.imag],
    }


def full_block(rng: random.Random) -> list[dict]:
    """64 requests, 16 per (sign, real or complex a) pair, each of the
    four inputs stratified over 16 bands within a pair."""

    block = []
    for sign in ("minus", "plus"):
        for complex_a in (False, True):
            bands = [_bands(rng, FULL_BAND) for _ in range(4)]
            block += [
                _full_op(rng, sign, complex_a, *(b[i] for b in bands))
                for i in range(FULL_BAND)
            ]
    rng.shuffle(block)
    return block


# ---------------------------------------------------------------------------
# expansion-points: algebraic_minus / algebraic_plus, K uniform on 0..8,
# lam log-uniform on [0.2, 8] and fresh for every request, |a|
# log-uniform on [6, 30], half at complex a with |arg a| <= 0.3

EXPANSION_K_MAX = 8
# Bhat_k switches algorithm at lam = 4, where its cost drops ~1000-fold;
# one lam band edge sits exactly there (13 bands below, 3 above, with
# widths in log lam equal to within 0.3 percent), so no band straddles it
BHAT_SWITCH = 4.0
_BANDS_BELOW, _BANDS_ABOVE = 13, 3
LAM_BANDS = _BANDS_BELOW + _BANDS_ABOVE


def _expansion_lam(u: float) -> float:
    band, frac = divmod(u * LAM_BANDS, 1.0)
    if band < _BANDS_BELOW:
        return _log_scale((band + frac) / _BANDS_BELOW, 0.2, BHAT_SWITCH)
    return _log_scale((band - _BANDS_BELOW + frac) / _BANDS_ABOVE, BHAT_SWITCH, 8.0)


def _expansion_op(sign, K, mu, lam, modulus, theta):
    a = cmath.rect(modulus, theta)
    return {"route": f"algebraic_{sign}", "K": K, "mu": mu, "lam": lam, "a": [a.real, a.imag]}


def expansion_cells(rng: random.Random, index: int) -> list[tuple]:
    """288 cells: for each sign, every K meets every lam band once, with
    mu and |a| stratified alongside and half of them at complex a.
    Within a lam band the nine K take the band's nine equal sub-bands,
    K the sub-band (K + band + index) mod 9 in block ``index``: a Latin
    square that shifts by one sub-band per block. So every block pairs
    the costly high K with sub-bands spread evenly over the steep cost
    just below lam = 4, and nine blocks give every K every sub-band of
    every band; the seed moves lam only within its sub-band."""

    n_k = EXPANSION_K_MAX + 1
    cells = []
    for sign in ("minus", "plus"):
        for K in range(n_k):
            mus = _bands(rng, LAM_BANDS)
            mods = _bands(rng, LAM_BANDS)
            complex_a = [i % 2 == 1 for i in range(LAM_BANDS)]
            rng.shuffle(complex_a)
            cells += [
                ("expansion", sign, K, i, (K + i + index) % n_k, mus[i], mods[i], complex_a[i])
                for i in range(LAM_BANDS)
            ]
    rng.shuffle(cells)
    return cells


def _draw_expansion(rng, sign, K, lam_band, lam_sub, mu_band, mod_band, complex_a):
    n = LAM_BANDS
    lam_u = (lam_band + (lam_sub + rng.random()) / (EXPANSION_K_MAX + 1)) / n
    return _expansion_op(
        sign,
        K,
        0.05 + 0.9 * _in_band(rng, mu_band, n),
        _expansion_lam(lam_u),
        _log_scale(_in_band(rng, mod_band, n), 6.0, 30.0),
        rng.uniform(-0.3, 0.3) if complex_a else 0.0,
    )


# ---------------------------------------------------------------------------
# cli-reports: one mxsum process per request

REPORT_COMMANDS = (("table", "1"), ("table", "2"), ("table", "3"), ("check",))
COEFF_COMMANDS = (
    ("coeffs", "Bhat", "--lambda", "1", "--K", "50"),
    ("coeffs", "Bhat", "--lambda", "6", "--K", "30"),
    ("coeffs", "B", "--lambda", "20", "--K", "8"),
    ("coeffs", "B", "--lambda", "1", "--K", "50"),
    ("coeffs", "A", "--lambda", "1", "--K", "20"),
)
EVAL_METHODS = ("full", "algebraic", "oracle", "small-a", "integer-mu", "lambda0")


def _eval_point(rng: random.Random, method: str, sign: str) -> dict:
    """Parameters of one `mxsum eval` request, inside the method's domain."""

    point = {
        "method": method,
        "sign": sign,
        "mu": rng.uniform(0.1, 0.9),
        "lam": _log_scale(rng.random(), 0.25, 4.0),
    }
    if method == "full":
        point["a"] = _log_scale(rng.random(), 1.5, 12.0)
    elif method == "algebraic":
        # lam <= 1 keeps Bhat's cold Bernoulli cache small, so these
        # processes stay below table 3 and latency_p90_ms does not
        # depend on the seed
        point["lam"] = _log_scale(rng.random(), 0.25, 1.0)
        point["a"] = _log_scale(rng.random(), 6.0, 20.0)
        point["K"] = rng.randrange(EXPANSION_K_MAX + 1)
    elif method == "oracle":
        point["mu"] = rng.uniform(0.1, 2.0)
        point["a"] = _log_scale(rng.random(), 0.5, 20.0)
    elif method == "small-a":
        point["sign"] = "minus"
        point["a"] = rng.uniform(0.2, 0.95)
    elif method == "integer-mu":
        point["mu"] = float(rng.randint(1, 5))
        point["a"] = _log_scale(rng.random(), 0.5, 10.0)
    else:  # lambda0
        point["lam"] = 0.0
        point["mu"] = rng.uniform(0.6 if sign == "plus" else 0.2, 2.0)
        point["a"] = _log_scale(rng.random(), 0.5, 8.0)
    return point


def _eval_request(point: dict) -> dict:
    argv = [
        "eval",
        "--sign", point["sign"],
        "--mu", repr(point["mu"]),
        "--lambda", repr(point["lam"]),
        "--a", repr(point["a"]),
        "--method", point["method"],
        "--format", "json",
    ]
    if "K" in point:
        argv += ["--K", str(point["K"])]
    return {"argv": argv, "point": point}


def cli_cells(rng: random.Random) -> list[tuple]:
    """One cycle: the four reports, the coefficient tables and two seeded
    `eval` requests per method (one per sign where the method has both)."""

    cells = [("command", argv) for argv in REPORT_COMMANDS + COEFF_COMMANDS]
    cells += [("eval", m, s) for m in EVAL_METHODS for s in ("minus", "plus")]
    rng.shuffle(cells)
    return cells


# ---------------------------------------------------------------------------
# dispatch


def cells(workload: str, rng: random.Random, index: int) -> list[tuple]:
    """The cells of block ``index`` (0, 1, ...). full-points has a single
    cell per block, the whole 64-request block."""

    if workload == "full-points":
        return [("full-block",)]
    if workload == "expansion-points":
        return expansion_cells(rng, index)
    return cli_cells(rng)


def draw(cell: tuple, rng: random.Random) -> list[dict]:
    """Fresh requests for one cell."""

    kind = cell[0]
    if kind == "full-block":
        return full_block(rng)
    if kind == "expansion":
        return [_draw_expansion(rng, *cell[1:])]
    if kind == "command":
        return [{"argv": list(cell[1])}]
    return [_eval_request(_eval_point(rng, cell[1], cell[2]))]


def warmup(workload: str, seed: int) -> list[dict]:
    rng = warmup_rng(workload, seed)
    if workload == "full-points":
        return full_block(rng)[:16]
    if workload == "expansion-points":
        # led by the most demanding corner (K = 8 just below lam = 4), so
        # the lazily grown Bernoulli cache already holds every entry a
        # timed request can ask for
        ops = [
            _expansion_op(sign, EXPANSION_K_MAX, 0.5, rng.uniform(3.99, BHAT_SWITCH), 10.0, 0.0)
            for sign in ("plus", "minus")
        ]
        return ops + [_draw_expansion(rng, *cell[1:]) for cell in expansion_cells(rng, 0)[:16]]
    return draw(("eval", "full", "minus"), rng)
