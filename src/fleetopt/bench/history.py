"""Historical optimal decisions: the guide's small evidence base."""

from __future__ import annotations

import numpy as np

from ..agent.types import HistoryRecord, HistoryStore
from ..fleet import decision_variable_names
from ..fleet_mip import build_feature_mip, decision_from_solution
from ..forest import Forest
from ..mip.problem import OPTIMAL
from ..mip.solver import SolveConfig, branch_and_bound
from .synth import World


def make_history(
    world: World,
    forest: Forest,
    m: int,
    solve_cfg: SolveConfig | None = None,
    seed: int = 0,
) -> HistoryStore:
    """Solve the forest-profit model on m sampled days.

    Days are a seeded sample without replacement. Solver failures are
    recorded as skipped days; at least one day must solve.
    """
    solve_cfg = solve_cfg or SolveConfig()
    if m < 1:
        raise ValueError(f"m={m} must be at least 1")
    if m > len(world.days):
        raise ValueError(f"m={m} exceeds the number of days ({len(world.days)})")
    rng = np.random.default_rng(seed)
    day_indices = sorted(
        int(i) for i in rng.choice(len(world.days), size=m, replace=False)
    )
    records = []
    failures = []
    names = None
    for day in day_indices:
        instance = world.instance(day)
        if names is None:
            names = tuple(decision_variable_names(instance))
        exogenous = world.days[day].exogenous()
        mip = build_feature_mip(instance, forest, exogenous)
        solution = branch_and_bound(mip, solve_cfg)
        if solution.status != OPTIMAL:
            failures.append((world.days[day].date, solution.status))
            continue
        decision = decision_from_solution(instance, mip, solution)
        records.append(
            HistoryRecord(
                date=world.days[day].date,
                features=exogenous,
                decision=decision,
                objective=float(solution.objective_value),
            )
        )
    if not records:
        raise RuntimeError(f"no history day solved to optimality; failures: {failures}")
    return HistoryStore(variable_names=names, records=records)
