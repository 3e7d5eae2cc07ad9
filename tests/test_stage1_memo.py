"""The stage-1 memo of the lexicographic solve.

Stage 1 reads the columns, the stated rows, the primary objective and
part of the configuration, and nothing else, so queries on one model
share it. A solve takes stage 1 from the memo only when every one of
those inputs is the same to the bit, and the solution it returns is the
one a cold solve returns, field by field, apart from ``wall_time`` and
``stage1_reused``. An entry also holds stage 2's start, which reads
``lex_slack_rel`` too, so the slack is keyed as well, and a hit runs no
reduction at all.
"""

import copy
import hashlib
from dataclasses import fields

import numpy as np
import pytest

from fleetopt.agent import AgentConfig, run_agent
from fleetopt.bench import make_history
from fleetopt.mip import solver
from fleetopt.mip.problem import MipProblem, Solution
from fleetopt.mip.rows import CompiledRows
from fleetopt.mip.solver import SolveConfig, lexicographic_solve

from test_model_digests import QUERIES, agent_model, world_and_forest

# what a reused stage 1 may change in a solution
TIMING = {"wall_time", "stage1_reused"}


def outcome(sol: Solution) -> dict:
    return {f.name: getattr(sol, f.name) for f in fields(sol) if f.name not in TIMING}


def bumped(x: float, what: str, bump: str | None) -> float:
    """``x``, or the next float above it when ``what`` is the input bumped."""
    return float(np.nextafter(x, np.inf)) if what == bump else x


def build(bump=None, kind="integer", names=("x", "y", "z", "b"), secondary=None):
    """A small mixed problem whose stage 1 needs a search; ``bump`` names
    the one input moved up by one ulp."""
    x, y, z, b = names
    p = MipProblem()
    p.add_variable(x, "integer", 0, bumped(7.0, "bound", bump))
    p.add_variable(y, "integer", 0, 5)
    p.add_variable(z, "continuous", 0, 3.5)
    p.add_variable(b, kind, 0, 1)
    p.add_constraint(
        {x: 2.5, y: bumped(3.1, "row coefficient", bump), z: 1.0, b: 2.0},
        "<=", bumped(17.3, "rhs", bump),
    )
    p.add_constraint({x: 1.0, y: -1.0, b: 1.5}, ">=", -2.0)
    p.set_objective(
        "max",
        {x: 3.1, y: bumped(4.2, "objective coefficient", bump), z: 0.7, b: 1.3},
        constant=bumped(1.5, "constant", bump),
    )
    p.set_secondary_objective("min", secondary or {x: 1.0, y: 1.0})
    return p


def test_a_repeat_reuses_stage_one_and_returns_the_same_solution():
    cold = lexicographic_solve(build())
    assert not cold.stage1_reused and cold.node_count > 0
    warm = lexicographic_solve(build())  # a new problem with the same bytes
    assert warm.stage1_reused
    assert outcome(warm) == outcome(cold)
    assert len(solver._stage1_memo) == 1
    # what the process solved before stays out of the solution's document
    assert warm.to_dict() == dict(cold.to_dict(), wall_time=warm.wall_time)
    assert "stage1_reused" not in warm.to_dict()


def test_clearing_the_memo_makes_the_next_solve_cold():
    cold = lexicographic_solve(build())
    solver.clear_stage1_memo()
    again = lexicographic_solve(build())
    assert not again.stage1_reused
    assert outcome(again) == outcome(cold)
    assert lexicographic_solve(build()).stage1_reused


@pytest.mark.parametrize(
    "bump",
    ["bound", "row coefficient", "rhs", "objective coefficient", "constant"],
)
def test_one_ulp_of_any_input_misses(bump):
    lexicographic_solve(build())
    sol = lexicographic_solve(build(bump=bump))
    assert not sol.stage1_reused
    assert len(solver._stage1_memo) == 2


def test_a_kind_the_sense_and_the_objective_order_are_keyed():
    lexicographic_solve(build())
    assert not lexicographic_solve(build(kind="binary")).stage1_reused
    p = build()
    p.objective.sense = "min"
    assert not lexicographic_solve(p).stage1_reused
    p = build()
    p.objective.coeffs = dict(reversed(p.objective.coeffs.items()))
    assert not lexicographic_solve(p).stage1_reused
    assert len(solver._stage1_memo) == 4


@pytest.mark.parametrize(
    "cfg",
    [
        SolveConfig(gomory=False),
        SolveConfig(cover=True),
        SolveConfig(gap_tol=float(np.nextafter(1e-6, 1.0))),
        SolveConfig(node_limit=1000),
    ],
)
def test_each_setting_stage_one_reads_misses(cfg):
    lexicographic_solve(build(), SolveConfig())
    assert not lexicographic_solve(build(), cfg).stage1_reused
    assert lexicographic_solve(build(), cfg).stage1_reused


def test_what_stage_one_does_not_read_still_hits():
    cold = lexicographic_solve(build())
    other = lexicographic_solve(build(secondary={"z": 1.0}))
    assert other.stage1_reused
    # other names, same bytes: the point comes back under the new names
    renamed = lexicographic_solve(build(names=("p", "q", "r", "s")))
    assert renamed.stage1_reused
    assert list(renamed.values.values()) == list(cold.values.values())
    assert list(renamed.values) == ["p", "q", "r", "s"]


def test_a_time_limit_bypasses_the_memo():
    cfg = SolveConfig(time_limit=60.0)
    first = lexicographic_solve(build(), cfg)
    again = lexicographic_solve(build(), cfg)
    assert not first.stage1_reused and not again.stage1_reused
    assert len(solver._stage1_memo) == 0
    lexicographic_solve(build())
    assert not lexicographic_solve(build(), cfg).stage1_reused


def test_the_least_recently_used_entry_is_evicted_at_capacity(monkeypatch):
    monkeypatch.setattr(solver, "STAGE1_MEMO_SIZE", 2)
    a, b, c = (lambda: build()), (lambda: build(bump="rhs")), (lambda: build(bump="bound"))
    for make in (a, b):
        assert not lexicographic_solve(make()).stage1_reused
    assert lexicographic_solve(a()).stage1_reused  # a is now the most recent
    assert not lexicographic_solve(c()).stage1_reused  # evicts b
    assert len(solver._stage1_memo) == 2
    assert lexicographic_solve(a()).stage1_reused
    assert not lexicographic_solve(b()).stage1_reused


def test_mutating_a_solution_leaves_a_later_hit_unchanged():
    cold = lexicographic_solve(build())
    want = copy.deepcopy(outcome(cold))
    for sol in (cold, lexicographic_solve(build())):
        sol.values["x"] = 99.0
        sol.cut_counts["gomory"] = 99
        sol.node_count = -1
    assert outcome(lexicographic_solve(build())) == want


def test_a_stage_two_fallback_leaves_a_later_hit_unchanged(monkeypatch):
    cold = lexicographic_solve(build())
    want = copy.deepcopy(outcome(cold))
    real = solver.branch_and_bound

    def stage_two_infeasible(problem, cfg=None, objective=None, warm=None,
                             reduced=None):
        if objective is not None:
            return Solution(status="Infeasible")
        return real(problem, cfg, reduced=reduced)

    monkeypatch.setattr(solver, "branch_and_bound", stage_two_infeasible)
    fallback = lexicographic_solve(build())
    assert fallback.stage1_reused and fallback.stage2_fallback
    assert fallback.secondary_value is not None
    fallback.values["x"] = 99.0
    fallback.cut_counts["gomory"] = 99
    monkeypatch.undo()
    again = lexicographic_solve(build())
    assert again.stage1_reused and not again.stage2_fallback
    assert outcome(again) == want


@pytest.mark.parametrize("world, day", [("desk", 3), ("small", 5)])
def test_warm_and_cold_solves_agree_on_the_query_models(world, day):
    models = [agent_model(world, day, query)[0] for query in QUERIES]
    cold = []
    for mip in models:
        solver.clear_stage1_memo()
        cold.append(lexicographic_solve(mip))
    solver.clear_stage1_memo()
    warm = [lexicographic_solve(mip) for mip in models]
    # the four queries on one day share stage 1
    assert [sol.stage1_reused for sol in warm] == [False, True, True, True]
    for c, w in zip(cold, warm):
        assert outcome(w) == outcome(c)


def count_reductions(monkeypatch) -> list:
    """Record each reduction's start as :func:`solver._reduce` runs."""
    seen = []
    real = solver._reduce

    def spy(problem, start=None):
        seen.append(start)
        return real(problem, start)

    monkeypatch.setattr(solver, "_reduce", spy)
    return seen


def stored_start():
    """Stage 2's start kept in the one memo entry."""
    (entry,) = solver._stage1_memo.values()
    return entry[0]


def test_a_hit_under_the_same_slack_runs_no_reduction(monkeypatch):
    cold = lexicographic_solve(build())
    seen = count_reductions(monkeypatch)
    for secondary in (None, {"z": 1.0}):
        warm = lexicographic_solve(build(secondary=secondary))
        assert warm.stage1_reused
    assert seen == []
    assert outcome(lexicographic_solve(build())) == outcome(cold)


def test_clearing_the_memo_reduces_both_stages_again(monkeypatch):
    lexicographic_solve(build())
    solver.clear_stage1_memo()
    seen = count_reductions(monkeypatch)
    assert not lexicographic_solve(build()).stage1_reused
    assert len(seen) == 2  # stage 1's reduction, then stage 2's start


def test_another_slack_misses_and_equals_a_cold_solve_under_it(monkeypatch):
    slack = SolveConfig(lex_slack_rel=1e-2)
    solver.clear_stage1_memo()
    want = lexicographic_solve(build(), slack)
    solver.clear_stage1_memo()
    lexicographic_solve(build())
    seen = count_reductions(monkeypatch)
    got = lexicographic_solve(build(), slack)
    assert not got.stage1_reused
    assert outcome(got) == outcome(want)
    assert len(seen) == 2  # stage 1's reduction, then stage 2's start
    # each slack keeps its own entry, and both now hit outright
    assert len(solver._stage1_memo) == 2
    assert lexicographic_solve(build(), slack).stage1_reused
    assert lexicographic_solve(build()).stage1_reused and len(seen) == 2


def start_bytes(start) -> list[bytes]:
    rows = start.rows
    arrays = [start.keep, start.lb, start.ub, start.binary, start.int_mask,
              start.full_values, rows.indptr, rows.indices, rows.data, rows.rhs,
              rows.le, rows.ge]
    arrays += list(rows.halves)
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("secondary", [None, {"z": 1.0}])
def test_a_hits_search_leaves_the_stored_start_as_it_was(secondary):
    cold = lexicographic_solve(build())
    start = stored_start()
    before = start_bytes(start)
    warm = lexicographic_solve(build(secondary=secondary))
    # stage 2 searched on the stored start: nodes beyond stage 1's
    (entry,) = solver._stage1_memo.values()
    assert warm.stage1_reused and warm.node_count > entry[1].node_count
    assert stored_start() is start
    assert start_bytes(start) == before
    if secondary is None:
        assert outcome(warm) == outcome(cold)


@pytest.fixture
def layout_builds(monkeypatch):
    """One entry per half-row layout built from here on."""
    built = []
    real = CompiledRows._layout

    def spy(self):
        built.append(self.m)
        return real(self)

    monkeypatch.setattr(CompiledRows, "_layout", spy)
    return built


@pytest.mark.parametrize("world, day, history_m, seed", [("small", 5, 6, 1), ("desk", 3, 14, 3)])
def test_a_repeat_builds_no_layout(layout_builds, world, day, history_m, seed):
    # a hit hands stage 2 the start whose layout its reduction built,
    # so only a cold solve builds layouts
    mip, _ = agent_model(world, day, QUERIES[0])
    lexicographic_solve(mip, SolveConfig())
    assert layout_builds
    layout_builds.clear()
    assert lexicographic_solve(mip, SolveConfig()).stage1_reused
    assert layout_builds == []

    w, forest = world_and_forest(world)
    history = make_history(w, forest, m=history_m, seed=seed)
    inst, exo = w.instance(day), w.days[day].exogenous()
    first = run_agent(QUERIES[1], inst, exo, forest, history, AgentConfig())
    layout_builds.clear()
    again = run_agent(QUERIES[1], inst, exo, forest, history, AgentConfig())
    assert layout_builds == []
    assert all(r.stage1_reused for r in again.iterations)
    assert again.to_dict() == first.to_dict()

    solver.clear_stage1_memo()
    assert not lexicographic_solve(mip, SolveConfig()).stage1_reused
    assert layout_builds


# desk day 3's four query models, each solved cold: status, primary and
# secondary optimum, nodes, LP iterations and the first 16 hex digits of
# the SHA-256 of the point's bytes in stated column order
DESK_DAY_3 = {
    QUERIES[0]: ("Optimal", 33.66859201923078, 49.0, 3, 278, "77ce47c21f577535"),
    QUERIES[1]: ("Optimal", 33.66859201923078, 61.1040012, 0, 268, "5d04bd0870d051aa"),
    QUERIES[2]: ("Optimal", 33.66859201923078, 94.0, 6, 310, "d74c887a26a854e4"),
    QUERIES[3]: ("Optimal", 33.66859201923078, 14.668000000000001, 0, 195,
                 "5d04bd0870d051aa"),
}


@pytest.mark.parametrize("query", QUERIES)
def test_cold_outputs_on_desk_day_3_are_pinned(query):
    mip, _ = agent_model("desk", 3, query)
    solver.clear_stage1_memo()
    sol = lexicographic_solve(mip)
    point = hashlib.sha256(sol.value_array(mip).tobytes()).hexdigest()[:16]
    got = (sol.status, sol.objective_value, sol.secondary_value, sol.node_count,
           sol.lp_iterations, point)
    assert got == DESK_DAY_3[query]
