"""The demo scripts run to completion and print their report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["evaluate_point", "reference_tables", "tail_anatomy"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(_ROOT / "demos" / f"{demo}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
