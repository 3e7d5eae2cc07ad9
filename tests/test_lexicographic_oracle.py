"""Lexicographic solves against ``scipy.optimize.milp`` replays of both stages.

Each case compares ``lexicographic_solve``'s stage-1 bound, retained
primary and secondary with milp on the problem's stated rows
(:mod:`milp_replay`), within ``gap_tol``: random integer problems, the
query models of both perfbench worlds (small-world day 5 and desk day
3, the benchmarked desk cells, and desk days 56, 61 and 91, where stage
2 searches longest), gridded small-world models (day 3, and
day 5 with its fares fixed) and the fixed models the agent loop solves.
The data are fixed; a mismatch is a finding about the solver, not a
tolerance to widen.
"""

import numpy as np
import pytest

from fleetopt.agent import AgentConfig, run_agent
from fleetopt.bench import make_history
from fleetopt.mip import OPTIMAL, MipProblem, SolveConfig, lexicographic_solve
from fleetopt.mip.solver import fix_variables

from milp_replay import assert_lexicographic_matches_milp
from test_model_digests import GRIDDED_QUERY, QUERIES, agent_model, fixed_model, world_and_forest

CFG = SolveConfig()


def assert_solve_matches_milp(problem, cfg=CFG):
    sol = lexicographic_solve(problem, cfg)
    assert not sol.stage2_fallback
    assert_lexicographic_matches_milp(
        problem, sol.status, sol.objective_value, sol.secondary_value, cfg, sol.best_bound
    )
    return sol


def random_problem(rng):
    """Integer, binary and continuous columns under mixed rows, with a
    secondary of either sense."""
    n = int(rng.integers(3, 10))
    p = MipProblem()
    for j in range(n):
        kind = ["binary", "integer", "continuous"][int(rng.integers(0, 3))]
        p.add_variable(f"v{j}", kind, 0, 1 if kind == "binary" else int(rng.integers(1, 8)))
    for _ in range(int(rng.integers(1, 6))):
        coeffs = {f"v{j}": float(rng.integers(-4, 6)) for j in range(n) if rng.random() < 0.8}
        rel = "=" if rng.random() < 0.1 else "<=" if rng.random() < 0.7 else ">="
        p.add_constraint(coeffs, rel, float(rng.integers(0, 15)))
    p.set_objective("max", {f"v{j}": float(rng.integers(-4, 7)) for j in range(n)})
    p.set_secondary_objective(
        ["max", "min"][int(rng.integers(0, 2))],
        {f"v{j}": float(rng.uniform(-3, 3)) for j in range(n)},
    )
    return p


def test_random_integer_problems():
    rng = np.random.default_rng(8080)
    solved = 0
    for _ in range(60):
        for cfg in (CFG, SolveConfig(gomory=False, cover=True)):
            sol = assert_solve_matches_milp(random_problem(rng), cfg)
            solved += sol.status == OPTIMAL
    assert solved > 60


# desk days 56, 61 and 91 hold criterion 4's long stage-2 searches; the
# four queries of a day run in turn, so the last three start stage 2
# from the start the first one kept in the stage-1 memo
@pytest.mark.parametrize(
    "world, day", [("small", 5), ("desk", 3), ("desk", 56), ("desk", 61), ("desk", 91)]
)
def test_agent_models(world, day):
    for query in QUERIES:
        mip, grid = agent_model(world, day, query)
        assert grid is None
        assert assert_solve_matches_milp(mip).status == OPTIMAL


def test_price_grid_models():
    # the gridded model with every fare fixed, and gridded with its fares
    # free where stage 2 solves in about a second (other days take longer)
    assert assert_solve_matches_milp(fixed_model()).status == OPTIMAL
    mip, grid = agent_model("small", 3, GRIDDED_QUERY)
    assert grid is not None
    assert assert_solve_matches_milp(mip).status == OPTIMAL


# the histories of the perfbench worlds
@pytest.mark.parametrize("world, day, history_m, seed", [("small", 5, 6, 1), ("desk", 3, 14, 3)])
def test_fixed_models_from_the_agent_loop(world, day, history_m, seed):
    w, forest = world_and_forest(world)
    history = make_history(w, forest, m=history_m, seed=seed)
    inst, exo = w.instance(day), w.days[day].exogenous()
    checked = 0
    for query in QUERIES:
        mip, _ = agent_model(world, day, query)
        trace = run_agent(query, inst, exo, forest, history, AgentConfig())
        for rec in trace.iterations:
            if rec.status != OPTIMAL:
                continue
            fixed = fix_variables(mip, rec.fixed_values)
            assert_lexicographic_matches_milp(
                fixed, rec.status, rec.g_value, rec.f_value, AgentConfig().solve
            )
            checked += 1
    assert checked >= 4
