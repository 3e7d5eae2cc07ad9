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


def _add_allocation_columns(mip: MipProblem, instance: FleetInstance) -> None:
    for i_pos, i in enumerate(instance.supply_areas):
        for j in instance.demand_areas:
            for k in range(instance.soc_levels):
                name = f"x[{i},{j},{k}]"
                idx = mip.add_variable(
                    name, INTEGER, 0, float(instance.supply[i_pos, k])
                )
                mip.expr_map[name] = AffineExpr.of_var(idx)


def _add_supply_rows(mip: MipProblem, instance: FleetInstance) -> None:
    for i_pos, i in enumerate(instance.supply_areas):
        for k in range(instance.soc_levels):
            row = {
                f"x[{i},{j},{k}]": 1.0 for j in instance.demand_areas
            }
            mip.add_constraint(
                row, LE, float(instance.supply[i_pos, k]), name=f"supply[{i},{k}]"
            )


def _add_gridded_fares(mip: MipProblem, instance: FleetInstance, grid: PriceGrid):
    """Fare selection binaries; u_hat becomes a grid-weighted expression."""
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            terms = {
                mip.add_variable(f"rho[{j},{k},{p}]", BINARY): float(price)
                for p, price in enumerate(grid.cell(j_pos, k))
            }
            mip.add_constraint(
                dict.fromkeys(terms, 1.0), EQ, 1.0, name=f"one_price[{j},{k}]"
            )
            mip.expr_map[f"u_hat[{j},{k}]"] = AffineExpr(terms=terms)


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
    _add_allocation_columns(mip, instance)

    z = instance.demand
    # max inflow at level k: everything at level k or above can cascade down
    tail_supply = [
        float(instance.supply[:, k:].sum()) for k in range(instance.soc_levels)
    ]
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            zjk = float(z[j_pos, k])
            mip.add_variable(f"d[{j},{k}]", INTEGER, 0, zjk)
            mip.add_variable(f"v[{j},{k}]", INTEGER, 0, tail_supply[k])
            mip.add_variable(f"delta[{j},{k}]", BINARY)
    _add_gridded_fares(mip, instance, grid)

    _add_supply_rows(mip, instance)
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            zjk = float(z[j_pos, k])
            # conservation: d + v - inflow = 0
            row = {f"d[{j},{k}]": 1.0, f"v[{j},{k}]": 1.0}
            for i in instance.supply_areas:
                row[f"x[{i},{j},{k}]"] = -1.0
            if k + 1 < instance.soc_levels:
                row[f"v[{j},{k + 1}]"] = -1.0
            mip.add_constraint(row, EQ, 0.0, name=f"conserve[{j},{k}]")
            # v <= M_v * delta : surplus only after demand saturates
            mip.add_constraint(
                {f"v[{j},{k}]": 1.0, f"delta[{j},{k}]": -tail_supply[k]},
                LE,
                0.0,
                name=f"surplus_gate[{j},{k}]",
            )
            # z - d <= M_d * (1 - delta), i.e. d >= z * delta
            mip.add_constraint(
                {f"d[{j},{k}]": 1.0, f"delta[{j},{k}]": -zjk},
                GE,
                0.0,
                name=f"saturate[{j},{k}]",
            )

    # revenue linearization: rev[j,k,p] = rho[j,k,p] * d[j,k]
    obj: dict[int, float] = {}
    for j_pos, j in enumerate(instance.demand_areas):
        fee = float(instance.booking_fee[j_pos])
        for k in range(instance.soc_levels):
            zjk = float(z[j_pos, k])
            d_idx = mip.var_index(f"d[{j},{k}]")
            obj[d_idx] = obj.get(d_idx, 0.0) + fee
            fares = mip.expr_map[f"u_hat[{j},{k}]"].terms
            for p, (rho_idx, price) in enumerate(fares.items()):
                rev = add_binary_product(mip, f"rev[{j},{k},{p}]", rho_idx, d_idx, zjk)
                obj[rev] = obj.get(rev, 0.0) + instance.theta * price
    cost = instance.reposition_cost
    for i_pos, i in enumerate(instance.supply_areas):
        for j_pos, j in enumerate(instance.demand_areas):
            for k in range(instance.soc_levels):
                idx = mip.var_index(f"x[{i},{j},{k}]")
                obj[idx] = obj.get(idx, 0.0) - float(cost[i_pos, j_pos])
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
    _add_allocation_columns(mip, instance)
    if grid is not None:
        grid.validate_for(instance)
        _add_gridded_fares(mip, instance, grid)
    else:
        lo, hi = instance.fare_bounds
        for j in instance.demand_areas:
            for k in range(instance.soc_levels):
                name = f"u_hat[{j},{k}]"
                idx = mip.add_variable(name, CONTINUOUS, lo, hi)
                mip.expr_map[name] = AffineExpr.of_var(idx)
    _add_supply_rows(mip, instance)

    schema = forest.schema
    fixed = {
        schema.index(name): float(exogenous[name])
        for name in schema.exogenous_names
    }
    var_bounds: dict[int, tuple[float, float]] = {}
    integer_features: set[int] = set()
    feature_exprs: dict[int, AffineExpr] = {}
    lo, hi = instance.fare_bounds
    lb, ub = mip.lb, mip.ub
    for name in schema.decision_names:
        f_idx = schema.index(name)
        expr = mip.expr_map[name]
        feature_exprs[f_idx] = expr
        if name.startswith("x["):
            col = next(iter(expr.terms))
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
    """Read the allocation tensor and fare matrix out of a solution."""
    values = solution.value_array(mip)
    x = np.zeros(
        (instance.n_supply, instance.n_demand, instance.soc_levels), dtype=np.int64
    )
    u = np.zeros((instance.n_demand, instance.soc_levels))
    for i_pos, i in enumerate(instance.supply_areas):
        for j_pos, j in enumerate(instance.demand_areas):
            for k in range(instance.soc_levels):
                x[i_pos, j_pos, k] = int(
                    round(mip.expr_map[f"x[{i},{j},{k}]"].value(values))
                )
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            u[j_pos, k] = mip.expr_map[f"u_hat[{j},{k}]"].value(values)
    return Decision(x=x, u_hat=u)


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
