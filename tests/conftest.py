"""Fixtures shared by every test module."""

import pytest

from fleetopt.agent import loop
from fleetopt.mip import solver


@pytest.fixture(autouse=True)
def empty_memos():
    """Start each test with no stage-1 outcome and no day model kept
    from an earlier one.

    Tests that count the searches a lexicographic solve runs, or spy on
    them, would otherwise see a stage 1 taken from the memo and no
    stage-1 search at all; tests that spy on model builds would see a
    day model taken from the memo and no build.
    """
    solver.clear_stage1_memo()
    loop.clear_day_model_memo()
    yield
