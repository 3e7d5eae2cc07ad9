"""Reduced-cost tightening at the root is exact.

A search that starts with an incumbent (a ``warm`` point, such as stage
2's stage-1 point) tightens the integer bounds of its root box by the
root LP's reduced costs before the first node
(``solver._reduced_cost_box``). Each exactness case runs twice: once as
it is, and once with the tightening patched out. Both runs must give
the same outputs; node and LP counts may differ. The enumeration case
checks the tightened box against every lattice point of small problems.
"""

import numpy as np
import pytest

from fleetopt.agent import AgentConfig, run_agent
from fleetopt.bench import make_history
from fleetopt.mip import MipError, MipProblem, SolveConfig, branch_and_bound, solver
from fleetopt.mip import lexicographic_solve

from test_acceptance import enumerate_lattice, feasible_mask
from test_lexicographic_oracle import random_problem
from test_mip import random_integer_problem
from test_model_digests import QUERIES, agent_model, world_and_forest


@pytest.fixture
def tightening(monkeypatch):
    """``run(solve_it, on)``: ``solve_it()``'s output, with the root
    tightening on or patched out. ``boxes`` lists, for every tightening
    that ran, the search's sense and its integer bounds before and
    after."""
    real = solver._reduced_cost_box
    boxes = []

    def recorded(lp, x, lb, ub, int_idx, gap, maximize):
        before = lb.copy(), ub.copy()
        real(lp, x, lb, ub, int_idx, gap, maximize)
        boxes.append((maximize, before, (lb.copy(), ub.copy())))

    def run(solve_it, on):
        solver.clear_stage1_memo()
        with monkeypatch.context() as m:
            m.setattr(solver, "_reduced_cost_box", recorded if on else lambda *args: None)
            return solve_it()

    run.boxes = boxes
    return run


def tightened(boxes, maximize):
    """How many bounds the tightenings of searches in this sense moved."""
    return sum(
        int((lb != lb0).sum() + (ub != ub0).sum())
        for sense, (lb0, ub0), (lb, ub) in boxes if sense == maximize
    )


def solution_outcome(sol):
    return (sol.status, sol.objective_value, sol.secondary_value, sol.best_bound,
            sol.stage2_fallback, sol.values)


def assert_same_point(on, off, problem):
    """The same status and integer values; objectives, bound and
    continuous values to within LP rounding."""
    assert (on.status, on.stage2_fallback) == (off.status, off.stage2_fallback)
    assert on.values.keys() == off.values.keys()
    if not on.values:
        return
    x_on, x_off = on.value_array(problem), off.value_array(problem)
    ints = problem.kinds != "continuous"
    assert (x_on[ints] == x_off[ints]).all()
    assert x_on == pytest.approx(x_off, rel=1e-9, abs=1e-12)
    for a, b in ((on.objective_value, off.objective_value),
                 (on.secondary_value, off.secondary_value), (on.best_bound, off.best_bound)):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_tightening_is_exact_on_random_problems(tightening):
    # the polish of an integral point starts from the basis of the node
    # that found it, so where the tightening leads the search through other
    # node LPs, continuous values may differ in their last bits (2 of the
    # 120 solves, by at most 1.4e-15)
    rng = np.random.default_rng(8080)  # the problems of the milp oracle test
    for _ in range(60):
        p = random_problem(rng)
        for cfg in (SolveConfig(), SolveConfig(gomory=False, cover=True)):
            off = tightening(lambda: lexicographic_solve(p, cfg), on=False)
            on = tightening(lambda: lexicographic_solve(p, cfg), on=True)
            assert_same_point(on, off, p)
    # stage 2 runs under either sense, and the tightening acts under both
    assert tightened(tightening.boxes, True) > 0
    assert tightened(tightening.boxes, False) > 0


def test_tightening_is_exact_on_desk_day_3(tightening):
    world, forest = world_and_forest("desk")
    history = make_history(world, forest, m=14, seed=3)
    inst, exo = world.instance(3), world.days[3].exogenous()
    traces = {}
    for query in QUERIES:
        mip, _ = agent_model("desk", 3, query)
        off = tightening(lambda: lexicographic_solve(mip), on=False)
        on = tightening(lambda: lexicographic_solve(mip), on=True)
        assert solution_outcome(on) == solution_outcome(off)
        # the agent's fixed models, where stage 2 leaves a root gap
        for on_ in (False, True):
            trace = tightening(
                lambda: run_agent(query, inst, exo, forest, history, AgentConfig()), on=on_
            )
            traces[query, on_] = trace.to_dict()
        assert traces[query, True] == traces[query, False]
    assert tightened(tightening.boxes, False) > 0


def lattice(p):
    """Every feasible lattice point of a pure integer problem and its
    objective value."""
    points = enumerate_lattice(p.lb, p.ub)
    points = points[feasible_mask(p.rows, points)]
    c = np.zeros(p.n_vars)
    for j, a in p.objective.coeffs.items():
        c[j] = a
    return points, points @ c


def test_the_tightened_box_keeps_every_point_as_good_as_the_incumbent(tightening):
    """With a feasible warm point that is not optimal, every lattice point
    at least as good as it lies in the tightened root box (in the
    reduced columns) and agrees with the reduction's pinned values."""
    rng = np.random.default_rng(3636)
    checked = 0
    for _ in range(150):
        p = random_integer_problem(rng)
        if rng.random() < 0.5:  # the same problem as a minimum
            p.set_objective("min", {j: -a for j, a in p.objective.coeffs.items()})
        maximize = p.objective.sense == "max"
        points, values = lattice(p)
        if len(points) < 2:
            continue
        best = values.max() if maximize else values.min()
        worse = np.flatnonzero(values != best)
        red = solver._reduce(p)
        for w in worse[:: max(1, len(worse) // 3)]:
            for cfg in (SolveConfig(), SolveConfig(gomory=False)):
                tightening.boxes.clear()
                sol = tightening(lambda: branch_and_bound(p, cfg, warm=points[w]), on=True)
                assert sol.objective_value == pytest.approx(best)
                if not tightening.boxes:
                    continue
                (_, _, (lb, ub)), = tightening.boxes
                good = points[values >= values[w]] if maximize else points[values <= values[w]]
                inside = (good[:, red.keep] >= lb) & (good[:, red.keep] <= ub)
                assert inside.all()
                pinned = np.setdiff1d(np.arange(p.n_vars), red.keep)
                assert (good[:, pinned] == red.full_values[pinned]).all()
                checked += tightened(tightening.boxes, maximize) > 0
    assert checked >= 20


def test_cut_rounds_stop_once_the_root_meets_the_incumbent():
    # max x - 1e-8 y  s.t.  x - 1 <= 2y <= x, x in {0..2}, y in {0..3}:
    # the root LP's only optimum is x = 2, y = 0.5, a bound within gap_tol
    # of the optimum (2, 1)
    p = MipProblem()
    p.add_variable("x", "integer", 0, 2)
    p.add_variable("y", "integer", 0, 3)
    p.add_constraint({"y": 2, "x": -1}, ">=", -1)
    p.add_constraint({"y": 2, "x": -1}, "<=", 0)
    p.set_objective("max", {"x": 1, "y": -1e-8})
    cold = branch_and_bound(p)
    assert cold.cut_counts["gomory"] > 0
    warm = branch_and_bound(p, warm=np.array([2.0, 1.0]))
    assert warm.cut_counts["gomory"] == 0 and warm.node_count == 0
    assert warm.values == cold.values == {"x": 2.0, "y": 1.0}


def two_rows():
    # max 3a + 5b  s.t.  2a + 3b <= 10,  3a + 2b <= 11,  a, b in {0..4}
    p = MipProblem()
    p.add_variable("a", "integer", 0, 4)
    p.add_variable("b", "integer", 0, 4)
    p.add_constraint({"a": 2, "b": 3}, "<=", 10, name="first")
    p.add_constraint({"a": 3, "b": 2}, "<=", 11, name="second")
    p.set_objective("max", {"a": 3, "b": 5})
    return p


def test_a_warm_point_that_breaks_a_row_raises():
    p = two_rows()
    assert branch_and_bound(p, SolveConfig(gomory=False)).objective_value == 16.0
    # (3, 3) is inside the bounds but breaks the first row: it must not
    # become the incumbent, whose value 24 would beat the optimum
    with pytest.raises(MipError, match="'first'"):
        branch_and_bound(p, SolveConfig(gomory=False), warm=np.array([3.0, 3.0]))
    with pytest.raises(MipError, match="'b' at 5.0, outside"):
        branch_and_bound(p, warm=np.array([0.0, 4.6]))
    sol = branch_and_bound(p, warm=np.array([0.0, 0.0]))
    assert sol.objective_value == 16.0


def test_a_warm_point_off_a_pinned_value_raises():
    p = two_rows()
    p.add_variable("c", "integer", 2, 2)
    assert branch_and_bound(p, warm=np.array([2.0, 2.0, 2.0])).objective_value == 16.0
    with pytest.raises(MipError, match="'c' at 1.0, pinned at 2.0"):
        branch_and_bound(p, warm=np.array([2.0, 2.0, 1.0]))
