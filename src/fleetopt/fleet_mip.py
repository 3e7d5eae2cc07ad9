"""MIP builders for the pre-allocation and pricing problem.

``build_deterministic_mip`` encodes the closed-form profit model with
exact cascade semantics: indicator binaries pick, per (area, level),
whether demand saturates or the inflow runs out, which pins the
satisfied-demand and surplus variables to their min/max definitions.
Fares live on a finite grid through selection binaries and the
fare-times-demand revenue is linearized per grid point.

``build_feature_mip`` swaps the closed-form objective for a trained
forest: exogenous features are pruned to constants, decision features
stay symbolic, and the tree paths become binary edge selections.

Both builders name the decisions in :func:`.fleet.decision_variable_names`
order, the one order every layer reads, and add the allocation columns
in it. They address an allocation by its position in that order,
through an (|I|, |J|, |K|) array of column indices, not by its name;
:func:`decision_from_solution` reads a solution back in the same order.
"""

from __future__ import annotations

import numpy as np

from .encoder import embed_forest
from .fleet import (
    Decision,
    FleetError,
    FleetInstance,
    PriceGrid,
    decision_variable_names,
    vector_to_decision,
)
from .forest import Forest
from .mip.problem import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    AffineExpr,
    MipProblem,
    Solution,
)


def _add_columns(mip: MipProblem, names: list[str], kind: str, lb, ub) -> range:
    """One block of columns, each its own decision expression; their indices."""
    cols = mip.add_variables(names, kind, lb, ub)
    for name, idx in zip(names, cols):
        mip.expr_map[name] = AffineExpr.of_var(idx)
    return cols


def _add_allocation_columns(
    mip: MipProblem, instance: FleetInstance, names: list[str]
) -> np.ndarray:
    """The x columns, named by the head of ``names`` (the shared decision
    order); their indices as an (|I|, |J|, |K|) array."""
    # x[i,j,k] is at most the supply at (i, k), for every j
    ub = np.repeat(instance.supply[:, None, :], instance.n_demand, axis=1)
    cols = _add_columns(mip, names[: ub.size], INTEGER, 0.0, ub.ravel())
    return np.arange(cols.start, cols.stop).reshape(ub.shape)


def _add_supply_rows(mip: MipProblem, instance: FleetInstance, x: np.ndarray) -> None:
    for i_pos, i in enumerate(instance.supply_areas):
        for k in range(instance.soc_levels):
            mip.add_constraint(
                dict.fromkeys(x[i_pos, :, k].tolist(), 1.0),
                LE,
                float(instance.supply[i_pos, k]),
                name=f"supply[{i},{k}]",
            )


def _add_gridded_fares(
    mip: MipProblem, instance: FleetInstance, grid: PriceGrid, u_names: list[str]
) -> None:
    """Fare selection binaries; each u_hat, named in ``u_names`` in (j, k)
    order, becomes a grid-weighted expression."""
    names = iter(u_names)
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            prices = grid.cell(j_pos, k)
            rho = mip.add_variables([f"rho[{j},{k},{p}]" for p in range(len(prices))], BINARY)
            terms = {idx: float(price) for idx, price in zip(rho, prices)}
            mip.add_constraint(
                dict.fromkeys(terms, 1.0), EQ, 1.0, name=f"one_price[{j},{k}]"
            )
            mip.expr_map[next(names)] = AffineExpr(terms=terms)


def add_binary_product(mip: MipProblem, name: str, rho: int, x: int, ub: float) -> int:
    """Column ``name`` equal to ``rho * x`` for a binary ``rho`` and a
    column ``x`` in [0, ub], pinned by three McCormick rows."""
    p = mip.add_variable(name, CONTINUOUS, 0.0, ub)
    mip.add_constraint({p: 1.0, rho: -ub}, LE, 0.0, name=f"{name}:cap")
    mip.add_constraint({p: 1.0, x: -1.0}, LE, 0.0, name=f"{name}:le_x")
    mip.add_constraint({p: 1.0, x: -1.0, rho: -ub}, GE, -ub, name=f"{name}:ge")
    return p


def build_deterministic_mip(instance: FleetInstance, grid: PriceGrid) -> MipProblem:
    """Exact profit-maximization model over a fare grid.

    Exactness of the cascade: with inflow = allocations plus the
    surplus from the level above, either the indicator is off, forcing
    the surplus to zero (inflow fits under demand), or on, forcing
    satisfied demand to equal demand (inflow saturates it); paired with
    the conservation row this reproduces the min/max recursion for
    every feasible point.
    """
    grid.validate_for(instance)
    mip = MipProblem("deterministic-fleet")
    names = decision_variable_names(instance)
    x = _add_allocation_columns(mip, instance, names)
    u_names = names[x.size :]

    z = instance.demand
    # max inflow at level k: everything at level k or above can cascade down
    tail_supply = [
        float(instance.supply[:, k:].sum()) for k in range(instance.soc_levels)
    ]
    d, v, delta = {}, {}, {}  # column index by (j position, k)
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            zjk = float(z[j_pos, k])
            d[j_pos, k] = mip.add_variable(f"d[{j},{k}]", INTEGER, 0, zjk)
            v[j_pos, k] = mip.add_variable(f"v[{j},{k}]", INTEGER, 0, tail_supply[k])
            delta[j_pos, k] = mip.add_variable(f"delta[{j},{k}]", BINARY)
    _add_gridded_fares(mip, instance, grid, u_names)

    _add_supply_rows(mip, instance, x)
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            zjk = float(z[j_pos, k])
            # conservation: d + v - inflow = 0
            row = {d[j_pos, k]: 1.0, v[j_pos, k]: 1.0}
            row.update(dict.fromkeys(x[:, j_pos, k].tolist(), -1.0))
            if k + 1 < instance.soc_levels:
                row[v[j_pos, k + 1]] = -1.0
            mip.add_constraint(row, EQ, 0.0, name=f"conserve[{j},{k}]")
            # v <= M_v * delta : surplus only after demand saturates
            mip.add_constraint(
                {v[j_pos, k]: 1.0, delta[j_pos, k]: -tail_supply[k]},
                LE,
                0.0,
                name=f"surplus_gate[{j},{k}]",
            )
            # z - d <= M_d * (1 - delta), i.e. d >= z * delta
            mip.add_constraint(
                {d[j_pos, k]: 1.0, delta[j_pos, k]: -zjk},
                GE,
                0.0,
                name=f"saturate[{j},{k}]",
            )

    # revenue linearization: rev[j,k,p] = rho[j,k,p] * d[j,k]
    obj: dict[int, float] = {}
    fares = iter(u_names)
    for j_pos, j in enumerate(instance.demand_areas):
        fee = float(instance.booking_fee[j_pos])
        for k in range(instance.soc_levels):
            zjk = float(z[j_pos, k])
            d_idx = d[j_pos, k]
            obj[d_idx] = obj.get(d_idx, 0.0) + fee
            rho = mip.expr_map[next(fares)].terms
            for p, (rho_idx, price) in enumerate(rho.items()):
                rev = add_binary_product(mip, f"rev[{j},{k},{p}]", rho_idx, d_idx, zjk)
                obj[rev] = obj.get(rev, 0.0) + instance.theta * price
    # each x column enters the objective here only, at minus its cost
    cost = np.broadcast_to(instance.reposition_cost[:, :, None], x.shape)
    obj.update(zip(x.ravel().tolist(), (-cost).ravel().tolist()))
    mip.set_objective("max", obj)
    return mip


def build_feature_mip(
    instance: FleetInstance,
    forest: Forest,
    exogenous: dict[str, float],
    grid: PriceGrid | None = None,
) -> MipProblem:
    """Forest-predicted profit as the objective over fleet constraints.

    The day's exogenous feature values are fixed inputs (their splits
    are pruned away). Fares are continuous within bounds unless a grid
    is supplied; a grid is required later if a query objective needs
    fare-allocation products.
    """
    names = decision_variable_names(instance)
    if tuple(forest.schema.decision_names) != tuple(names):
        raise FleetError(
            "forest schema decision block does not match this instance's "
            "decision variables"
        )
    missing = [n for n in forest.schema.exogenous_names if n not in exogenous]
    if missing:
        raise FleetError(f"missing exogenous features: {missing}")

    mip = MipProblem("feature-fleet")
    x = _add_allocation_columns(mip, instance, names)
    lo, hi = instance.fare_bounds
    if grid is not None:
        grid.validate_for(instance)
        _add_gridded_fares(mip, instance, grid, names[x.size :])
    else:
        _add_columns(mip, names[x.size :], CONTINUOUS, lo, hi)
    _add_supply_rows(mip, instance, x)

    schema = forest.schema
    fixed = {
        schema.index(name): float(exogenous[name])
        for name in schema.exogenous_names
    }
    var_bounds: dict[int, tuple[float, float]] = {}
    integer_features: set[int] = set()
    feature_exprs: dict[int, AffineExpr] = {}
    lb, ub = mip.lb, mip.ub
    for pos, name in enumerate(names):
        f_idx = schema.index(name)
        feature_exprs[f_idx] = mip.expr_map[name]
        if pos < x.size:  # an allocation, integer within its column's bounds
            col = x.flat[pos]
            var_bounds[f_idx] = (lb[col].item(), ub[col].item())
            integer_features.add(f_idx)
        else:
            var_bounds[f_idx] = (lo, hi)
    coeffs, constant = embed_forest(
        mip, forest, fixed, feature_exprs, var_bounds, integer_features
    )
    mip.set_objective("max", coeffs, constant)
    return mip


def decision_from_solution(
    instance: FleetInstance, mip: MipProblem, solution: Solution
) -> Decision:
    """The decision a solution holds: each decision expression's value,
    in the shared decision order, allocations rounded."""
    values = solution.value_array(mip)
    return vector_to_decision(
        instance,
        [mip.expr_map[name].value(values) for name in decision_variable_names(instance)],
    )


def fulfillment_from_solution(
    instance: FleetInstance, mip: MipProblem, solution: Solution
) -> tuple[np.ndarray, np.ndarray]:
    """The (d, v) matrices of a deterministic-model solution."""
    d = np.zeros((instance.n_demand, instance.soc_levels), dtype=np.int64)
    v = np.zeros_like(d)
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            d[j_pos, k] = int(round(solution.values[f"d[{j},{k}]"]))
            v[j_pos, k] = int(round(solution.values[f"v[{j},{k}]"]))
    return d, v
