"""Pinned SHA-256 digests of the models the program builds.

Each digest covers a model's stated rows (the CSR arrays, each row's
sense and rhs, row names), its columns (names, kinds, bounds), both
objectives and the decision expressions, so any change to row order,
entry order within a row, rhs bits, names or columns shows here. Each
model is hashed twice: from the stated arrays and from the read-only
``constraints`` view, and both must give the pinned digest.

Lexicographic stage 2 builds no stated model: it appends the retention
row to stage 1's reduced rows. That row is pinned in reduced columns,
with stage 1's kept columns; its rhs comes from stage 1's optimum, so
the digest also pins that optimum to the bit.
"""

import hashlib

import numpy as np
import pytest

from fleetopt.agent.indicator import indicator_generate
from fleetopt.agent.loop import build_agent_model
from fleetopt.agent.types import AgentConfig
from fleetopt.bench.synth import SynthConfig, generate_world
from fleetopt.fleet import PriceGrid
from fleetopt.fleet_mip import build_deterministic_mip, build_feature_mip
from fleetopt.forest import TrainConfig, train, train_test_split
from fleetopt.mip import solver
from fleetopt.mip.problem import EQ, GE, LE

from milp_replay import milp_optimum
from milp_replay import retention_row as milp_retention_row

WORLDS = {
    "desk": (
        SynthConfig(seed=42),
        TrainConfig(n_trees=20, max_depth=6, min_samples_leaf=3, seed=7),
    ),
    "small": (
        SynthConfig(seed=13, n_supply=3, n_demand=2, soc_levels=3, n_days=40),
        TrainConfig(n_trees=6, max_depth=3, min_samples_leaf=4, seed=2),
    ),
}
QUERIES = (
    "Number of pre-allocated taxis",
    "Average travel price of taxis",
    "Service level of taxis",
    "Scheduled taxi response time",
)
GRIDDED_QUERY = "Dispatching efficiency of taxis"


def rows_of_arrays(mip):
    rows = mip.rows
    relations = [
        EQ if le and ge else LE if le else GE
        for le, ge in zip(rows.le.tolist(), rows.ge.tolist())
    ]
    return rows.indptr, rows.indices, rows.data, rows.rhs, relations, mip.row_names


def rows_of_constraints(mip):
    cons = mip.constraints
    indptr = np.cumsum([0] + [len(c.coeffs) for c in cons])
    indices = [j for c in cons for j in c.coeffs]
    data = [a for c in cons for a in c.coeffs.values()]
    return (
        indptr, indices, data, [c.rhs for c in cons],
        [c.relation for c in cons], [c.name for c in cons],
    )


def _ints(values) -> bytes:
    return np.asarray(values, dtype=np.int64).tobytes()


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _text(items) -> bytes:
    return "\n".join(items).encode()


def model_digest(mip, rows) -> str:
    indptr, indices, data, rhs, relations, names = rows
    parts = [
        _ints(indptr), _ints(indices), _floats(data), _floats(rhs),
        _text(relations), _text(names),
        _text(f"{name}\t{kind}" for name, kind in zip(mip.names, mip.kinds.tolist())),
        _floats(mip.lb),
        _floats(mip.ub),
    ]
    for obj in (mip.objective, mip.secondary):
        if obj is None:
            parts.append(b"none")
        else:
            parts += [
                obj.sense.encode(), _ints(list(obj.coeffs)),
                _floats(list(obj.coeffs.values())), _floats([obj.constant]),
            ]
    for name, expr in mip.expr_map.items():
        parts += [
            name.encode(), _ints(list(expr.terms)),
            _floats(list(expr.terms.values())), _floats([expr.constant]),
        ]
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def digests_of(mip) -> set[str]:
    """The digest from the arrays and from the constraints view."""
    return {
        model_digest(mip, rows_of_arrays(mip)),
        model_digest(mip, rows_of_constraints(mip)),
    }


def combined(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


_cache = {}


def world_and_forest(name):
    if name not in _cache:
        synth_cfg, cfg = WORLDS[name]
        world = generate_world(synth_cfg)
        train_rows, _ = train_test_split(world.training_rows(), cfg.test_fraction, cfg.seed)
        _cache[name] = world, train(train_rows, cfg, world.schema())
    return _cache[name]


def feature_models(name):
    world, forest = world_and_forest(name)
    for day in range(len(world.days)):
        yield build_feature_mip(world.instance(day), forest, world.days[day].exogenous())


def agent_model(name, day, query):
    world, forest = world_and_forest(name)
    inst = world.instance(day)
    ast = indicator_generate(query, inst, guide="deterministic").ast
    mip, _, grid = build_agent_model(
        inst, forest, world.days[day].exogenous(), ast, AgentConfig()
    )
    return mip, grid


def deterministic_model():
    world, _ = world_and_forest("small")
    inst = world.instance(5)
    return build_deterministic_mip(inst, PriceGrid.uniform(inst, 4))


def fixed_model():
    """The gridded model with every fare fixed through a ``fix:*`` row."""
    mip, grid = agent_model("small", 5, GRIDDED_QUERY)
    world, _ = world_and_forest("small")
    inst = world.instance(5)
    values = {
        f"u_hat[{j},{k}]": grid.cell(j_pos, k)[(j_pos + k) % 4]
        for j_pos, j in enumerate(inst.demand_areas)
        for k in range(inst.soc_levels)
    }
    values[f"x[{inst.supply_areas[0]},{inst.demand_areas[0]},0]"] = 0.0
    return solver.fix_variables(mip, values)


def retention_row(monkeypatch):
    """The row lexicographic stage 2 appends to stage 1's reduced rows,
    with stage 1's kept columns, optimum and slack it was built from."""
    mip, _ = agent_model("small", 5, QUERIES[0])
    seen = []
    real = solver._retention_row

    def spy(problem, red, g_star, eps):
        row = real(problem, red, g_star, eps)
        seen.append((red.keep, g_star, eps, row))
        return row

    monkeypatch.setattr(solver, "_retention_row", spy)
    sol = solver.lexicographic_solve(mip)
    assert len(seen) == 1
    return mip, sol, seen[0]


# recorded before the model rows moved from dicts to CSR arrays
PINNED = {
    "feature:desk": (
        "d2f6d3b9424f5cb0ecab41ca59ece036"
        "6fd6804bfe55b283355f999d191836bd"
    ),
    "feature:small": (
        "9d8d3bab6685d4a2f63d14166fae8871"
        "1987b868a374319d5f95d778b122ad3e"
    ),
    "agent:desk": (
        "f13ba2ab80e52946e9fda56912e3bf6e"
        "25d81a67ad4c495e018f74fd37134bc6"
    ),
    "agent:small": (
        "f80e86412761e159ed82fd0000b4dfa8"
        "40dbe0bf7d24d49c8d1b1c00c1137702"
    ),
    "gridded": (
        "16ecb9e8604f8b814b058e51280777e0"
        "260f9e6a295bcbdb8dee1e0c9a4cc0a7"
    ),
    "deterministic": (
        "7567d1a50d16a52dda985d88bb2bd734"
        "c0fac922c3cf9e64559859029fdeeab1"
    ),
    "fixed": (
        "21e308e0e69f95e8c4c0d6e49d38917f"
        "fd4460cb618e627a8857fcec67d6c7a0"
    ),
    # the parent's pinned "stage2" lex:retain row, reduced through stage
    # 1's pins and kept columns, gives this row bit for bit
    "retention": (
        "4727af59d89a63547bf818c50ad50c0d"
        "94643cb8db54c24bf3a92cd4bb4ecda0"
    ),
}


def test_feature_models_desk():
    assert combined(
        model_digest(m, rows_of_arrays(m)) for m in feature_models("desk")
    ) == PINNED["feature:desk"]
    # the constraints view, on a few days only: it is slower to read
    world, forest = world_and_forest("desk")
    for day in (0, 57, 119):
        mip = build_feature_mip(world.instance(day), forest, world.days[day].exogenous())
        assert len(digests_of(mip)) == 1


def test_feature_models_small():
    digests = []
    for mip in feature_models("small"):
        (digest,) = digests_of(mip)
        digests.append(digest)
    assert combined(digests) == PINNED["feature:small"]


@pytest.mark.parametrize("world", ["desk", "small"])
def test_agent_models(world):
    day = 3 if world == "desk" else 5
    digests = []
    for query in QUERIES:
        mip, grid = agent_model(world, day, query)
        assert grid is None
        (digest,) = digests_of(mip)
        digests.append(digest)
    assert combined(digests) == PINNED[f"agent:{world}"]


def test_gridded_agent_model():
    mip, grid = agent_model("small", 5, GRIDDED_QUERY)
    assert grid is not None
    assert digests_of(mip) == {PINNED["gridded"]}


def test_deterministic_model():
    assert digests_of(deterministic_model()) == {PINNED["deterministic"]}


def test_fixed_model_with_expression_rows():
    mip = fixed_model()
    assert sum(name.startswith("fix:") for name in mip.row_names) == 6
    assert digests_of(mip) == {PINNED["fixed"]}


def test_stage2_retention_row_in_reduced_columns(monkeypatch):
    mip, sol, (keep, g_star, eps, row) = retention_row(monkeypatch)
    assert (row.m, row.n) == (1, len(keep))
    h = hashlib.sha256()
    for part in (
        _ints(keep), _ints(row.indptr), _ints(row.indices), _floats(row.data),
        _ints(row.le), _ints(row.ge), _floats(row.rhs),
    ):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    assert h.hexdigest() == PINNED["retention"]
    # stage 2's optimum is milp's on the stated rows plus "lex:retain"
    f_star = milp_optimum(
        mip, mip.secondary, milp_retention_row(mip, g_star, solver.SolveConfig().lex_slack_rel)
    )
    gap_tol = solver.SolveConfig().gap_tol
    assert abs(sol.secondary_value - f_star) <= gap_tol * max(1.0, abs(f_star))
