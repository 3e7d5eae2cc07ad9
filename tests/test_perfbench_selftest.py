"""The benchmark's output checker must pass its own self-test.

``perfbench/oracle.py`` reads the program's models, forests and solve
settings (``MipProblem`` views, ``Forest``/``TreeNode``,
``SolveConfig``); a change that breaks what it reads fails here, not
only when the benchmark runs.
"""

import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_checker_self_test_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "checker self-test: ok" in done.stdout
