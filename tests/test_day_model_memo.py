"""The day-model memo behind ``build_agent_model``.

The day's profit model (the forest embedded over the fleet constraints)
is built once per set of exact inputs and kept; every query gets a copy
with its own objective installed. A model from the memo must be the one
a fresh ``build_feature_mip`` plus ``lower_to_mip`` gives, bit for bit,
and nothing done to a returned model may reach the next one.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from fleetopt import fleet_mip
from fleetopt.agent import loop
from fleetopt.agent.indicator import indicator_generate
from fleetopt.agent.types import AgentConfig
from fleetopt.dsl.analysis import canonicalize
from fleetopt.dsl.lower import lower_to_mip
from fleetopt.fleet import FleetError, PriceGrid
from fleetopt.fleet_mip import build_feature_mip
from fleetopt.mip import solver

from test_model_digests import (
    GRIDDED_QUERY,
    QUERIES,
    model_digest,
    rows_of_arrays,
    world_and_forest,
)

# products of fares and allocations need a grid; an absolute value adds
# columns and rows of the query's own to the copy
ALL_QUERIES = QUERIES + (
    GRIDDED_QUERY,
    "Market share of taxis",
    "Supply-demand matching degree of taxis",
)


def digest(mip) -> str:
    return model_digest(mip, rows_of_arrays(mip))


def day_inputs(world_name="small", day=5):
    world, forest = world_and_forest(world_name)
    return world.instance(day), forest, world.days[day].exogenous()


def shared(query, instance, forest, exogenous, cfg=None):
    ast = indicator_generate(query, instance, guide="deterministic").ast
    mip, _, grid = loop.build_agent_model(
        instance, forest, exogenous, ast, cfg or AgentConfig()
    )
    return mip, grid


def fresh(query, instance, forest, exogenous, cfg=None):
    """The model built from nothing kept, as before the memo."""
    ast = indicator_generate(query, instance, guide="deterministic").ast
    canonical = canonicalize(ast, instance)
    grid = (
        PriceGrid.uniform(instance, (cfg or AgentConfig()).grid_points)
        if loop.needs_price_grid(canonical) else None
    )
    mip = build_feature_mip(instance, forest, exogenous, grid=grid)
    lower_to_mip(canonical, mip)
    return mip


@pytest.fixture
def builds(monkeypatch):
    """The forest embeddings made from here on, one entry per build."""
    calls = []
    real = fleet_mip.embed_forest

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fleet_mip, "embed_forest", counted)
    return calls


def test_a_second_query_on_the_same_day_builds_nothing(builds):
    inputs = day_inputs()
    first, _ = shared(QUERIES[0], *inputs)
    assert len(builds) == 1
    second, _ = shared(QUERIES[1], *inputs)
    assert len(builds) == 1
    (kept,) = loop._day_model_memo.values()
    assert first is not second and kept[1] not in (first, second)
    # the copies share the day's stated rows, and the level schedule with them
    assert second.rows is first.rows is kept[1].rows
    loop.clear_day_model_memo()
    shared(QUERIES[1], *inputs)
    assert len(builds) == 2


@pytest.mark.parametrize("world_name,day", [("small", 5), ("small", 3), ("desk", 3)])
def test_shared_models_match_fresh_builds(world_name, day):
    inputs = day_inputs(world_name, day)
    # each query twice, so both a gridded and an ungridded model come
    # from a memo entry that another query made or read
    for query in ALL_QUERIES + ALL_QUERIES[::-1]:
        mip, _ = shared(query, *inputs)
        assert digest(mip) == digest(fresh(query, *inputs)), query
    assert len(loop._day_model_memo) == 2


def test_what_is_done_to_a_returned_model_stays_there():
    inputs = day_inputs()
    want = digest(fresh(QUERIES[0], *inputs))
    mip, _ = shared(QUERIES[0], *inputs)
    x = mip.names[0]
    mip.add_variable("extra", "binary", 0, 1)
    mip.add_constraint({x: 1.0, "extra": 2.0}, "<=", 3.0, name="extra row")
    mip.set_secondary_objective("max", {x: 1.0})
    mip.set_objective("min", {"extra": 1.0})
    mip.ub[1] = mip.lb[1]
    mip.expr_map[x].terms.clear()
    fixed = solver.fix_variables(
        shared(QUERIES[0], *inputs)[0], {x: 0.0, "u_hat[3,0]": 2.0}
    )
    fixed.add_constraint({x: 1.0}, ">=", 0.0)
    assert digest(shared(QUERIES[0], *inputs)[0]) == want
    # a solve of the returned model leaves it as it was built too
    again, _ = shared(QUERIES[0], *inputs)
    solver.lexicographic_solve(again)
    assert digest(again) == digest(shared(QUERIES[0], *inputs)[0]) == want


def one_ulp_up(value: float) -> float:
    return float(np.nextafter(value, np.inf))


def variants(instance, forest, exogenous):
    """Inputs that differ from these in one build input each."""
    name = forest.schema.exogenous_names[0]
    supply = instance.supply.copy()
    supply[0, 0] += 1
    lo, hi = instance.fare_bounds
    return {
        "exogenous value": (
            instance, forest, dict(exogenous, **{name: one_ulp_up(exogenous[name])})
        ),
        "supply entry": (replace(instance, supply=supply), forest, exogenous),
        "fare bounds": (replace(instance, fare_bounds=(lo, one_ulp_up(hi))), forest, exogenous),
        "forest object": (instance, copy.deepcopy(forest), exogenous),
    }


@pytest.mark.parametrize(
    "what", ["exogenous value", "supply entry", "fare bounds", "forest object"]
)
def test_each_build_input_is_part_of_the_key(builds, what):
    inputs = day_inputs()
    shared(QUERIES[0], *inputs)
    other = variants(*inputs)[what]
    mip, _ = shared(QUERIES[0], *other)
    assert len(builds) == 2 and len(loop._day_model_memo) == 2
    # and the first day model is still there
    shared(QUERIES[1], *inputs)
    shared(QUERIES[1], *other)
    assert len(builds) == 2
    assert digest(mip) == digest(fresh(QUERIES[0], *other))


def test_a_grid_and_its_points_are_part_of_the_key(builds):
    inputs = day_inputs()
    shared(QUERIES[0], *inputs)
    _, grid = shared(GRIDDED_QUERY, *inputs)
    assert grid is not None and len(builds) == 2
    mip, grid4 = shared(GRIDDED_QUERY, *inputs, cfg=AgentConfig(grid_points=4))
    assert grid4 != grid and len(builds) == 3
    shared("Market share of taxis", *inputs)
    assert len(builds) == 3
    assert digest(mip) == digest(fresh(GRIDDED_QUERY, *inputs, cfg=AgentConfig(grid_points=4)))


def test_a_missing_feature_still_raises_and_keeps_nothing():
    instance, forest, exogenous = day_inputs()
    name = forest.schema.exogenous_names[0]
    partial = {k: v for k, v in exogenous.items() if k != name}
    with pytest.raises(FleetError, match="missing exogenous features"):
        shared(QUERIES[0], instance, forest, partial)
    assert not loop._day_model_memo


def test_the_least_recently_used_day_goes_first(builds, monkeypatch):
    monkeypatch.setattr(loop, "DAY_MODEL_MEMO_SIZE", 2)
    world, forest = world_and_forest("small")

    def ask(day):
        shared(QUERIES[0], world.instance(day), forest, world.days[day].exogenous())
        return len(builds)

    assert [ask(1), ask(2), ask(1)] == [1, 2, 2]
    assert ask(3) == 3  # evicts day 2, the least recently used
    assert [ask(1), ask(3)] == [3, 3]
    assert ask(2) == 4  # evicts day 1
    assert len(loop._day_model_memo) == 2
    assert ask(3) == 4 and ask(1) == 5
