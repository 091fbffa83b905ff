"""The high-precision references of mxsum.oracles: bounds and isolation."""

import ast
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import mxsum
from mxsum import oracles
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
    for call in (lambda: oracles.explicit_sum(0.5, 0.1, 2.0, "plus"), lambda: oracles.lambda0_sum(3.0, 0.01, "minus")):
        with pytest.raises(NonConvergenceError):
            call()


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
