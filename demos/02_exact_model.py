"""The exact profit-maximization MIP versus brute-force enumeration.

The model carries the cascade recursion as constraints: an indicator
per (area, level) decides whether demand saturates or the inflow runs
out, and fares live on a finite grid so revenue stays linear.
"""

import itertools

import numpy as np

from fleetopt import (
    Decision,
    FleetInstance,
    PriceGrid,
    build_deterministic_mip,
    cascade_fulfill,
    decision_from_solution,
    evaluate_decision,
    fulfillment_from_solution,
)
from fleetopt.mip import branch_and_bound

inst = FleetInstance(
    supply_areas=(0, 1),
    demand_areas=(8, 9),
    soc_levels=2,
    supply=[[2, 1], [1, 1]],
    demand=[[2, 1], [1, 0]],
    distance_km=[[4.0, 2.0], [3.0, 1.0]],
    fare_bounds=(1.0, 30.0),
)
grid = PriceGrid.uniform(inst, 3)
mip = build_deterministic_mip(inst, grid)
print(f"model: {mip.n_vars} variables, {len(mip.rows)} rows")

solution = branch_and_bound(mip)
print(f"solver: {solution.status}, objective {solution.objective_value:.2f}, "
      f"{solution.node_count} nodes")

decision = decision_from_solution(inst, mip, solution)
print("optimal allocation x:\n", decision.x)
print("optimal fares:\n", np.round(decision.u_hat, 2))

# the model's (d, v) columns must agree with the cascade recursion
d, v = fulfillment_from_solution(inst, mip, solution)
ful = cascade_fulfill(inst, decision.x)
assert np.array_equal(d, ful.d) and np.array_equal(v, ful.v)
print("model fulfillment equals the cascade recursion")

# brute force: every split of every supply cell times every grid fare
def all_decisions():
    cells = [(i, k) for i in range(2) for k in range(2)]

    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    options = [
        [c[:2] for c in comps(int(inst.supply[i, k]), 3)] for i, k in cells
    ]
    fare_cells = [grid.cell(j, k) for j in range(2) for k in range(2)]
    for combo in itertools.product(*options):
        x = np.zeros((2, 2, 2), dtype=int)
        for (i, k), alloc in zip(cells, combo):
            x[i, :, k] = alloc
        for prices in itertools.product(*fare_cells):
            yield Decision(x=x, u_hat=np.array(prices).reshape(2, 2))


best = max(evaluate_decision(inst, d) for d in all_decisions())
print(f"enumeration over all feasible decisions: {best:.2f}")
assert abs(best - solution.objective_value) < 1e-6
print("exact model matches the enumeration")
