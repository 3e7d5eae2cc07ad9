"""Tableau rows priced in numpy against HiGHS's own, bit for bit.

:class:`fleetopt.mip.highs.Tableau` reads only the rows of B⁻¹ from
HiGHS and prices each tableau row's column part, ``B⁻¹ row @ A``, from
the rows the model holds. At every separation of a search (the root and
each cut round), every tableau row priced that way must equal HiGHS's
``getReducedRow`` bit for bit: on random problems, on the query models
of both perfbench worlds and on a desk model with half its allocations
fixed. A spy on the binding checks that each separation reads the B⁻¹
row of each source row it takes once, in the separator's order, and
reads no reduced row.
"""

import numpy as np
import pytest

from fleetopt.mip import SolveConfig, lexicographic_solve, solver
from fleetopt.mip import cuts as cutmod
from fleetopt.mip import highs
from fleetopt.mip.solver import fix_variables

from test_lexicographic_oracle import random_problem
from test_model_digests import QUERIES, agent_model


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def source_order(basic, int_mask, x):
    """The source rows in the order the separator takes them."""
    col = np.maximum(basic, 0)
    f = x[col] - np.floor(x[col])
    dist = np.minimum(f, 1 - f)
    source = (basic >= 0) & int_mask[col] & (dist >= cutmod.MIN_FRACTION)
    return np.flatnonzero(source)[np.argsort(-dist[source], kind="stable")].tolist()


@pytest.fixture
def checked(monkeypatch):
    """Counts of separations and tableau rows checked while every
    separation is compared with HiGHS's reduced rows and its reads spied."""
    seen = {"calls": 0, "rows": 0, "cuts": 0}
    reads = []  # the B⁻¹ rows read inside a separation; "reduced" if any reduced row is
    spying = [False]
    real_binv = highs._core._Highs.getBasisInverseRow
    real_reduced = highs._core._Highs.getReducedRow
    real_gomory = cutmod.gomory_cuts

    def binv_row(self, i):
        if spying[0]:
            reads.append(i)
        return real_binv(self, i)

    def reduced_row(self, i):
        if spying[0]:
            reads.append("reduced")
        return real_reduced(self, i)

    def compared(lp, lb, ub, int_mask, x, max_cuts=8, **kw):
        tab = lp.tableau()
        every = np.arange(len(tab.basic))
        priced = tab.reduced(tab.binv(every))
        for i in every.tolist():
            status, want = lp._highs.getReducedRow(i)
            assert status != highs._core.HighsStatus.kError
            assert np.array_equal(bits(priced[i]), bits(want)), i
        reads.clear()
        spying[0] = True
        try:
            got = real_gomory(lp, lb, ub, int_mask, x, max_cuts=max_cuts, **kw)
        finally:
            spying[0] = False
        order = source_order(tab.basic, int_mask, x)
        assert reads == order[: len(reads)]  # each once, most fractional first
        assert len(got) == max_cuts or reads == order
        seen["calls"] += 1
        seen["rows"] += len(every)
        seen["cuts"] += len(got)
        return got

    monkeypatch.setattr(highs._core._Highs, "getBasisInverseRow", binv_row)
    monkeypatch.setattr(highs._core._Highs, "getReducedRow", reduced_row)
    monkeypatch.setattr(cutmod, "gomory_cuts", compared)
    return seen


def cold_solve(problem):
    """A lexicographic solve that separates in both stages."""
    solver.clear_stage1_memo()
    return lexicographic_solve(problem, SolveConfig())


def test_random_problems(checked):
    rng = np.random.default_rng(2020)
    for _ in range(150):
        cold_solve(random_problem(rng))
    assert checked["calls"] > 50 and checked["cuts"] > 50


@pytest.mark.parametrize("world, day", [("small", 5), ("desk", 3)])
def test_query_models_of_both_worlds(checked, world, day):
    for query in QUERIES:
        mip, _ = agent_model(world, day, query)
        cold_solve(mip)
    assert checked["calls"] > 0
    if world == "desk":  # Gomory adds no cut on the small world
        assert checked["rows"] > 10_000 and checked["cuts"] > 100


def test_a_desk_model_with_half_its_allocations_fixed(checked):
    mip, _ = agent_model("desk", 3, QUERIES[0])
    sol = cold_solve(mip)
    allocations = [name for name in mip.names if name.startswith("x[")]
    fixed = fix_variables(mip, {name: sol.values[name] for name in allocations[::2]})
    calls = checked["calls"]
    assert cold_solve(fixed).status == sol.status
    assert checked["calls"] > calls
