"""Pruning by kept infeasibility proofs is exact.

A search skips the LP of a node that a proof from an earlier infeasible
node LP covers (``solver._Proofs``). Each case here runs twice: once as
it is, and once with the check patched to let every node solve its LP,
and to keep no proof from a node it would have skipped, as the search
never sees that LP. Both runs must give the same outputs and node counts
and the same LP record (status, iterations and ``x`` bytes of every
``HighsLp.solve``), apart from the skipped LPs, each of which must be
infeasible.
"""

import numpy as np
import pytest

from fleetopt.agent import AgentConfig, run_agent
from fleetopt.bench import make_history
from fleetopt.mip import INFEASIBLE, SolveConfig, lexicographic_solve, solver
from fleetopt.mip.highs import HighsLp

from test_lexicographic_oracle import random_problem
from test_model_digests import QUERIES, agent_model, world_and_forest


@pytest.fixture
def lp_record(monkeypatch):
    """``run(solve_it, check)``: ``solve_it()``'s output and the LP record
    of the run. Each entry of the record says whether the check covered
    the node whose LP it is, which happens only with the check off."""
    record, covered = [], [False]
    solve = HighsLp.solve
    covers, add = solver._Proofs.covers, solver._Proofs.add

    def recorded(self, lb, ub):
        res = solve(self, lb, ub)
        x = None if res.x is None else res.x.tobytes()
        record.append((res.status, res.iterations, x, covered[0]))
        covered[0] = False
        return res

    def checked_only(self, lb, ub):
        covered[0] = covers(self, lb, ub)
        return False

    def add_unless_covered(self, proof):
        if not covered[0]:
            add(self, proof)

    monkeypatch.setattr(HighsLp, "solve", recorded)

    def run(solve_it, check):
        record.clear()
        solver.clear_stage1_memo()
        with monkeypatch.context() as m:
            if not check:
                m.setattr(solver._Proofs, "covers", checked_only)
                m.setattr(solver._Proofs, "add", add_unless_covered)
            out = solve_it()
        return out, list(record)

    return run


def assert_exact(lp_record, solve_it, outcome):
    """Both runs of ``solve_it`` agree; returns the LPs the check
    skipped and each run's output."""
    out_on, on = lp_record(solve_it, check=True)
    out_off, off = lp_record(solve_it, check=False)
    assert outcome(out_on) == outcome(out_off)
    skipped = [r for r in off if r[3]]
    assert [r for r in off if not r[3]] == on
    assert all(r[0] == INFEASIBLE for r in skipped)
    return skipped, out_on, out_off


def assert_solve_exact(lp_record, problem, cfg=None):
    """A lexicographic solve's two runs agree, its iterations apart
    from the skipped LPs'; returns the number of LPs skipped."""
    skipped, on, off = assert_exact(
        lp_record, lambda: lexicographic_solve(problem, cfg), solution_outcome
    )
    assert on.lp_iterations == off.lp_iterations - sum(r[1] for r in skipped)
    return len(skipped)


def solution_outcome(sol):
    """Everything but the iterations, which the skipped LPs lower, and
    the wall time."""
    return (sol.status, sol.objective_value, sol.secondary_value, sol.best_bound,
            sol.node_count, sol.cut_counts, sol.stage2_fallback, sol.values)


def test_pruning_is_exact_on_random_problems(lp_record):
    rng = np.random.default_rng(8080)  # the problems of the milp oracle test
    skipped = 0
    for _ in range(60):
        p = random_problem(rng)
        for cfg in (SolveConfig(), SolveConfig(gomory=False, cover=True)):
            skipped += assert_solve_exact(lp_record, p, cfg)
    assert skipped > 0


def test_pruning_is_exact_on_desk_day_3(lp_record):
    world, forest = world_and_forest("desk")
    history = make_history(world, forest, m=14, seed=3)
    inst, exo = world.instance(3), world.days[3].exogenous()
    skipped = 0
    for query in QUERIES:
        mip, _ = agent_model("desk", 3, query)
        assert_solve_exact(lp_record, mip)
        # the agent's fixed models, where node LPs turn out infeasible
        skipped += len(assert_exact(
            lp_record,
            lambda: run_agent(query, inst, exo, forest, history, AgentConfig()),
            lambda trace: trace.to_dict(),
        )[0])
    assert skipped > 0
