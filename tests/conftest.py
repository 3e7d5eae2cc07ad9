"""Fixtures shared by every test module."""

import pytest

from fleetopt.mip import solver


@pytest.fixture(autouse=True)
def empty_stage1_memo():
    """Start each test with no stage-1 outcome kept from an earlier one.

    Tests that count the searches a lexicographic solve runs, or spy on
    them, would otherwise see a stage 1 taken from the memo and no
    stage-1 search at all.
    """
    solver.clear_stage1_memo()
    yield
