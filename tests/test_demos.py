"""The narrative demos run to completion against the current API.

Demo 08 runs the three experiment harnesses and takes about a minute,
so it stays out of this suite. Each demo runs in its own interpreter,
where the suite's warning filters do not reach, so it runs in
development mode with resource and runtime warnings raised as errors.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    [
        "01_cascade_and_profit.py",
        "02_exact_model.py",
        "03_objective_language.py",
        "04_forest_profit_model.py",
        "05_forest_to_mip.py",
        "06_solver_tour.py",
        "07_guided_fixing.py",
    ],
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
            "-W", "error::RuntimeWarning", str(ROOT / "demos" / name),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
