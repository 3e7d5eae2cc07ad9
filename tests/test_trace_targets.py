"""The functions the benchmark's tracer wraps exist and are reached.

``perfbench/tracer.py`` times each layer by replacing a module
attribute with a wrapper, and it tells the lexicographic stages apart by
the ``objective`` keyword that stage 2 passes to ``branch_and_bound``.
A renamed function, or a call that no longer goes through the module
attribute, would leave a layer's metrics empty and fail nothing else.
"""

import importlib

from fleetopt.agent import AgentConfig
from fleetopt.agent import guides, loop
from fleetopt.bench import make_history
from fleetopt.mip import cuts, solver

from test_mip import knapsack_problem
from test_model_digests import QUERIES, world_and_forest

TARGETS = (
    ("fleetopt.agent.loop", "run_agent"),
    ("fleetopt.agent.loop", "indicator_generate"),
    ("fleetopt.agent.indicator", "indicator_generate"),
    ("fleetopt.agent.guides", "DeterministicGuide.propose"),
    ("fleetopt.agent.loop", "build_agent_model"),
    ("fleetopt.agent.loop", "fix_variables"),
    ("fleetopt.agent.loop", "lexicographic_solve"),
    ("fleetopt.mip.solver", "lexicographic_solve"),
    ("fleetopt.mip.solver", "branch_and_bound"),
    ("fleetopt.mip.solver", "_reduce"),
    ("fleetopt.mip.solver", "_propagate"),
    ("fleetopt.mip.cuts", "gomory_cuts"),
)


def test_every_target_exists():
    for module, name in TARGETS:
        owner = importlib.import_module(module)
        for part in name.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), (module, name)


def record(monkeypatch, owner, name, calls):
    """Wrap ``owner.name`` as the tracer does, recording each call."""
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((name, kwargs, result))
        return result

    monkeypatch.setattr(owner, name, wrapped)


def test_each_solver_layer_is_called_through_its_module(monkeypatch):
    p = knapsack_problem()
    p.set_secondary_objective("min", {f"b{j}": 1 for j in range(p.n_vars)})
    calls = []
    for owner, name in (
        (solver, "branch_and_bound"), (solver, "_reduce"), (solver, "_propagate"),
        (cuts, "gomory_cuts"),
    ):
        record(monkeypatch, owner, name, calls)
    sol = solver.lexicographic_solve(p)
    assert not sol.stage2_fallback

    searches = [(kw, res) for name, kw, res in calls if name == "branch_and_bound"]
    # the tracer's stage split: stage 2 alone passes ``objective=``
    assert [kw.get("objective") for kw, _ in searches] == [None, p.secondary]
    assert sum(res.node_count for _, res in searches) == sol.node_count
    reductions = [res for name, _, res in calls if name == "_reduce"]
    assert len(reductions) == 2 and all(len(r.keep) > 0 for r in reductions)
    assert any(name == "_propagate" for name, _, _ in calls)
    assert sum(len(res) for name, _, res in calls if name == "gomory_cuts") > 0


def test_the_agent_loop_solves_through_its_module(monkeypatch):
    world, forest = world_and_forest("small")
    history = make_history(world, forest, m=6, seed=1)
    calls = []
    for owner, name in (
        (loop, "indicator_generate"), (loop, "build_agent_model"), (loop, "fix_variables"),
        (loop, "lexicographic_solve"), (guides.DeterministicGuide, "propose"),
    ):
        record(monkeypatch, owner, name, calls)
    trace = loop.run_agent(
        QUERIES[0], world.instance(5), world.days[5].exogenous(), forest, history, AgentConfig()
    )
    names = [name for name, _, _ in calls]
    assert names[:2] == ["indicator_generate", "build_agent_model"]
    assert names.count("build_agent_model") == 1
    # one guide proposal, fixing and solve per iteration, and one more per re-prompt
    n = names.count("lexicographic_solve")
    assert n >= len(trace.iterations) > 0
    assert names.count("fix_variables") == names.count("propose") == n
