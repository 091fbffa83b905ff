"""The high-precision references of mxsum.oracles: bounds and isolation."""

import ast
import cmath
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import mxsum
from mxsum import harness, oracles
from mxsum.errors import NonConvergenceError, PreconditionError


def test_sums_lie_within_their_bounds():
    # seed 17: every (mu, lam, sign) at lam in {0, 1, 5} with a drawn from real
    # and steep complex values, and two points at lam = 1e-2 (0.4 to 1 s each)
    rng = random.Random(17)
    mus, signs, a_values = (0.05, 0.7, 3.0), ("minus", "plus"), (0.3, 2.5, 12.0, 3 - 1j, 0.5 + 4j, 1 + 20j)
    grid = [(mu, lam, s, rng.choice(a_values)) for mu, lam, s in itertools.product(mus, (0, 1.0, 5.0), signs)]
    grid += [(rng.choice(mus), 1e-2, rng.choice(signs), rng.choice(a_values)) for _ in range(2)]
    grid.append((3.0, 5.0, "minus", 0.02 + 20j))  # terms peak near n = 20, past a first small bound
    assert {lam for _, lam, _, a in grid if abs(a.imag) > a.real} >= {0, 1.0, 5.0}
    for mu, lam, sign, a in grid:
        if lam == 0 and sign == "plus" and mu <= 0.5:  # the sum diverges
            with pytest.raises(PreconditionError):
                oracles.lambda0_sum(mu, a, sign)
            continue
        oracle = oracles.explicit_sum if lam else oracles.lambda0_sum
        args = (mu, lam, a, sign) if lam else (mu, a, sign)
        got, want = oracle(*args, 40), oracle(*args, 60).value
        with mpmath.workdps(60):
            assert 0 < got.bound <= 1e-38 * abs(want), (mu, lam, sign, a)
            assert abs(got.value - want) <= got.bound + 1e-38 * abs(want), (mu, lam, sign, a)


def _zeta_binomial_sum(mu, a, sign):
    """The lam = 0 sum: 40 terms, then the binomial series in a^2/n^2, each
    power of n summed by the Hurwitz zeta function (even and odd n apart for
    sign -); at 60 digits, as mpmath's zeta(30.4, 40) is 1e-15 off at 40."""

    with mpmath.workdps(60):
        mu, a = mpmath.mpf(mu), mpmath.mpc(a)
        s = -1 if sign == "minus" else 1
        head = mpmath.fsum(s**n * (n * n + a * a) ** -mu for n in range(40))
        tail = 0
        for j in range(40):
            e = 2 * mu + 2 * j
            if sign == "minus":
                z = (mpmath.zeta(e, 20) - mpmath.zeta(e, 20.5)) / 2**e
            else:
                z = mpmath.zeta(e, 40)
            tail += mpmath.binomial(-mu, j) * (a * a) ** j * z
        return head + tail


def test_lambda0_sum_against_zeta_binomial_form():
    # an independent form of the same sum, exact where |a| << 40; ten
    # points drawn (seed 18) from the grid below, 0.1 to 0.3 s each
    cases = itertools.product((0.3, 0.75, 1.7, 3.0), (0.7, 3.6, 1 + 0.5j, 0.5 + 3.5j), ("minus", "plus"))
    cases = [(mu, a, sign) for mu, a, sign in cases if sign == "minus" or mu > 0.5]
    for mu, a, sign in random.Random(18).sample(cases, 10):
        got, want = oracles.lambda0_sum(mu, a, sign), _zeta_binomial_sum(mu, a, sign)
        with mpmath.workdps(40):
            assert abs(got.value - want) <= got.bound + 1e-38 * abs(want), (mu, a, sign)


def test_parts_close_against_the_sum():
    # S = 1/(2 a^(2mu)) + H [+ J] + tail, the tail below e^(-pi a) (sign -)
    # or e^(-2 pi a) (sign +): 1e-34 and 3e-33 here
    for mu, lam, a, sign in [(0.25, 1.0, 25.0, "minus"), (0.7, 0.5, 12.0, "plus"), (0.4, 2.0, 12 + 1j, "plus")]:
        with mpmath.workdps(40):
            rest = oracles.explicit_sum(mu, lam, a, sign).value - mpmath.mpmathify(a) ** (-2 * mu) / 2
            rest -= oracles.branch_cut(mu, lam, a, sign)
            rest -= oracles.laplace(mu, lam, a) if sign == "plus" else 0
            assert abs(rest) < 1e-31, (mu, lam, a, sign, rest)


def test_oracle_domain(monkeypatch):
    for call in (
        lambda: oracles.explicit_sum(0.5, 0.0, 2.0, "minus"),
        lambda: oracles.explicit_sum(0.5, 1.0, 2.0, "both"),
        lambda: oracles.lambda0_sum(0.5, 2.0, "plus"),
        lambda: oracles.branch_cut(1.0, 1.0, 2.0, "minus"),
        lambda: oracles.laplace(2.0, 1.0, 2.0),
        lambda: oracles.coefficient("A", 1, 1.0),
    ):
        with pytest.raises(PreconditionError):
            call()
    monkeypatch.setattr(oracles, "_MAX_TERMS", 50)
    monkeypatch.setattr(oracles, "_LEVELS", 2)
    for call in (
        lambda: oracles.explicit_sum(0.5, 0.1, 2.0, "plus"),
        lambda: oracles.lambda0_sum(3.0, 0.01, "minus"),
        lambda: oracles.branch_cut(0.5, 1.0, 3.0, "minus"),
    ):
        with pytest.raises(NonConvergenceError):
            call()


def _mp_quad_h(mu, lam, a, sign, dps):
    """H by mp.quad of branch_cut's integrand, and whether mp.quad's own
    error estimate met its goal."""

    with mpmath.workdps(dps):
        mu, lam, a = mpmath.mpf(mu), mpmath.mpf(lam), mpmath.mpmathify(a)

        def g(t):
            value = mpmath.sin(lam * a * t) / mpmath.sinh(mpmath.pi * a * t)
            return value if sign == "minus" else value * mpmath.exp(-mpmath.pi * a * t)

        g1 = g(mpmath.mpf(1))
        body, error = mpmath.quad(lambda t: (g(t) - g1) * (1 - t * t) ** -mu, [0, 1], error=True)
        return a ** (1 - 2 * mu) * (body + g1 * mpmath.beta(0.5, 1 - mu) / 2), error <= mpmath.eps / 8


@functools.cache
def _check_suite_h_calls():
    # (arguments, value, integrand evaluations) of every H in check_suite
    calls, branch_cut, tanh_sinh = [], oracles.branch_cut, oracles._tanh_sinh

    def counted(f, mu, prec):
        def f_counted(t):
            calls[-1][2] += 1
            return f(t)

        return tanh_sinh(f_counted, mu, prec)

    def recorded(mu, lam, a, sign, dps=oracles.DPS):
        args = (mu, lam, a, sign, dps)
        calls.append([args, None, 0])
        calls[-1][1] = branch_cut(*args)
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "branch_cut", recorded)
        patch.setattr(oracles, "_tanh_sinh", counted)
        harness.check_suite()
    return [tuple(call) for call in calls]


def test_branch_cut_against_mp_quad():
    # the 14 H of check_suite at their 40 to 60 digits, and 8 points drawn
    # (seed 30) from the H sweep's domain at 40 and 60 digits: agreement
    # within 10^-(dps-3) where mp.quad meets its own goal, a refusal where
    # it does not (mu near 1 at |a| = 263, 60 digits: mp.quad stops at an
    # estimate of 1e-60 against its goal of 2e-62)
    rng = random.Random(30)
    cases = [(args, value) for args, value, _ in _check_suite_h_calls()]
    for i in range(8):
        mu = (rng.uniform(0.0, 0.05), rng.uniform(0.05, 0.95), 1.0 - 10.0 ** rng.uniform(-12.0, -1.0))[i % 3]
        lam = math.exp(rng.uniform(math.log(1e-3), math.log(20.0)))
        mod = math.exp(rng.uniform(math.log(0.05), math.log(300.0)))
        a = mod if i % 4 < 2 else cmath.rect(mod, rng.uniform(-1.4, 1.4))
        cases.append(((mu, lam, a, ("minus", "plus")[i % 2], (40, 60)[i // 4]), None))
    cases.append(((0.9999999997159084, 3.0926745051076656, 172.26903937126926 + 198.89828777744904j, "plus", 60), None))
    assert {(args[3], args[4], isinstance(args[2], complex)) for args, _ in cases} >= set(
        itertools.product(("minus", "plus"), (40, 60), (False, True))
    )
    for args, value in cases:
        want, converged = _mp_quad_h(*args)
        if not converged:
            with pytest.raises(NonConvergenceError):
                oracles.branch_cut(*args)
            continue
        got = oracles.branch_cut(*args) if value is None else value
        with mpmath.workdps(args[4] + 10):
            assert abs(got - want) <= mpmath.mpf(10) ** (3 - args[4]) * abs(want), args


def test_check_suite_h_cost():
    # check_suite's 14 H take 6,302 integrand evaluations, as many as
    # mp.quad took: the same nodes and the same stop
    calls = _check_suite_h_calls()
    assert len(calls) == 14
    assert sum(evaluations for _, _, evaluations in calls) == 6302


def test_branch_cut_tables_are_built_once(monkeypatch):
    # a second call at the same (dps, mu) reaching no deeper level builds no
    # node or weight table; the tables hold the levels reached, no more
    monkeypatch.setattr(oracles, "_NODES", {})
    monkeypatch.setattr(oracles, "_WEIGHTS", {})

    def tables():
        caches = (oracles._NODES, oracles._WEIGHTS)
        return {key: [id(level) for level in levels] for cache in caches for key, levels in cache.items()}

    first = oracles.branch_cut(0.25, 1.0, 10.0, "plus", 60)
    built = tables()
    assert oracles.branch_cut(0.25, 1.0, 10.0, "plus", 60) == first
    oracles.branch_cut(0.25, 0.5, 8.0, "plus", 60)
    assert tables() == built
    assert [len(levels) for levels in built.values()] == [6, 6]


def test_oracles_stay_apart_from_the_routes():
    # the CLI starts without mpmath, and no oracle shares code with a route
    # it checks: mxsum.oracles imports nothing of mxsum but errors
    path = os.pathsep.join([str(Path(mxsum.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    probe = [sys.executable, "-c", "import sys, mxsum, mxsum.cli; print('mpmath' in sys.modules)"]
    done = subprocess.run(probe, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert done.stdout == "False\n", done.stderr
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert "." * node.level + (node.module or "") in ("__future__", "collections", "mpmath", ".errors")
        elif isinstance(node, ast.Import):
            assert [alias.name for alias in node.names] == ["mpmath"]
