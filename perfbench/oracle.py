"""Output checks made apart from fleetopt's own solver and evaluator.

* ``milp_solve`` translates a ``MipProblem`` (its rows, bounds and
  integrality, read straight off the model) into ``scipy.optimize.milp``.
* ``QUERIES`` restates the catalog objectives of the benchmarked queries
  as numpy formulas over a plan; ``check_catalog`` fails if the catalog
  text they were transcribed from changes.
* ``plan_violations`` checks supply caps, integrality, fare bounds and
  pinned values of a plan.

Every check returns a list of reasons (empty when the check passes), so
a caller can tally failures per operation instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from fleetopt.mip import BINARY, EQ, GE, INTEGER, LE, MAX

# Absolute slack on top of the solver's relative gap: HiGHS and the
# native solver both accept rows violated by about 1e-7.
ABS_TOL = 1e-6
PROFIT_READBACK = "profit-readback"


@dataclass
class MilpResult:
    ok: bool
    value: float | None = None
    message: str = ""


def milp_solve(problem, objective=None, extra_rows=(), time_limit=60.0) -> MilpResult:
    """Optimize ``objective`` (default: the primary) over the model.

    ``extra_rows`` are ``(coeffs, relation, rhs)`` triples appended to the
    model's rows, as the lexicographic retention row is.
    """
    obj = objective if objective is not None else problem.objective
    n = len(problem.variables)
    rows = [(c.coeffs, c.relation, c.rhs) for c in problem.constraints]
    rows += list(extra_rows)
    indptr, indices, data, lo, hi = [0], [], [], [], []
    for coeffs, rel, rhs in rows:
        for j, a in coeffs.items():
            indices.append(j)
            data.append(a)
        indptr.append(len(indices))
        lo.append(rhs if rel in (GE, EQ) else -np.inf)
        hi.append(rhs if rel in (LE, EQ) else np.inf)
    c = np.zeros(n)
    for j, a in obj.coeffs.items():
        c[j] += a
    sign = -1.0 if obj.sense == MAX else 1.0
    integrality = np.array(
        [1 if v.kind in (INTEGER, BINARY) else 0 for v in problem.variables]
    )
    bounds = Bounds(
        np.array([v.lb for v in problem.variables], dtype=float),
        np.array([v.ub for v in problem.variables], dtype=float),
    )
    constraints = ()
    if rows:
        A = sparse.csr_matrix((data, indices, indptr), shape=(len(rows), n))
        constraints = LinearConstraint(A, np.array(lo), np.array(hi))
    res = milp(
        sign * c,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"mip_rel_gap": 1e-9, "time_limit": time_limit},
    )
    if res.status != 0 or res.x is None:
        return MilpResult(ok=False, message=f"milp status {res.status}: {res.message}")
    return MilpResult(ok=True, value=sign * float(res.fun) + obj.constant)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b)) + ABS_TOL


def retention_row(problem, g_star: float, slack_rel: float):
    """The stage-2 row that keeps the primary within slack of ``g_star``."""
    g = problem.objective
    eps = slack_rel * abs(g_star) + 1e-9
    if g.sense == MAX:
        return (g.coeffs, GE, g_star - eps - g.constant), eps
    return (g.coeffs, LE, g_star + eps - g.constant), eps


def check_lexicographic(problem, g_value, f_value, cfg, full_bound=None):
    """Replay both lexicographic stages with milp on the same rows.

    ``g_value``/``f_value`` are the primary and secondary values the
    program reported; ``full_bound``, when given, is the native stage-1
    bound that must agree with milp within ``gap_tol``. Returns
    ``(reasons, g_star)``.
    """
    reasons = []
    stage1 = milp_solve(problem)
    if not stage1.ok:
        return [f"milp stage 1: {stage1.message}"], None
    g_star = stage1.value
    row, eps = retention_row(problem, g_star, cfg.lex_slack_rel)
    if full_bound is not None and not close(full_bound, g_star, cfg.gap_tol):
        reasons.append(f"stage-1 bound {full_bound:.9g} != milp {g_star:.9g}")
    tol = cfg.gap_tol * max(1.0, abs(g_star)) + ABS_TOL
    if g_value > g_star + tol or g_value < g_star - eps - tol:
        reasons.append(f"stage-1 value {g_value:.9g} vs milp {g_star:.9g}")
    stage2 = milp_solve(problem, problem.secondary, extra_rows=[row])
    if not stage2.ok:
        reasons.append(f"milp stage 2: {stage2.message}")
    elif not close(f_value, stage2.value, cfg.gap_tol):
        reasons.append(f"stage-2 value {f_value:.9g} != milp {stage2.value:.9g}")
    return reasons, g_star


# --- query objectives, transcribed from the catalog ------------------------


def _pre_allocated(inst, x, u_hat):
    return float(x.sum())


def _travel_price(inst, x, u_hat):
    return float((inst.theta * u_hat + inst.booking_fee[:, None]).sum())


def _service_level(inst, x, u_hat):
    return float((x * (np.arange(inst.soc_levels) + 1.0)).sum())


def _response_time(inst, x, u_hat):
    return float((inst.distance_km[:, :, None] * x).sum())


QUERIES = {
    "Number of pre-allocated taxis": (
        "maximize sum(i in I, j in J, k in K) x[i,j,k]", "max", _pre_allocated,
    ),
    "Average travel price of taxis": (
        "minimize sum(j in J, k in K) u[j,k]", "min", _travel_price,
    ),
    "Service level of taxis": (
        "maximize sum(i in I, j in J, k in K) ((k + 1) * x[i,j,k])", "max",
        _service_level,
    ),
    "Scheduled taxi response time": (
        "minimize sum(i in I, j in J, k in K) (dist[i,j] * x[i,j,k])", "min",
        _response_time,
    ),
}


def check_catalog(queries) -> list[str]:
    """The catalog still holds the formulas ``QUERIES`` was written from."""
    from fleetopt.dsl.catalog import find_entry

    reasons = []
    for q in queries:
        entry = find_entry(q)
        if q not in QUERIES:
            reasons.append(f"no numpy formula for {q!r}")
        elif entry is None or entry.source != QUERIES[q][0]:
            reasons.append(f"catalog entry for {q!r} changed")
    return reasons


def query_value(query: str, inst, x, u_hat) -> float:
    return QUERIES[query][2](inst, np.asarray(x, dtype=float), np.asarray(u_hat))


def relative_improvement(query: str, inst, plan, base) -> float:
    """Improvement of a plan's query objective over a base plan, signed so
    positive is better, relative to the base value when that is nonzero."""
    new = query_value(query, inst, *plan)
    old = query_value(query, inst, *base)
    gain = new - old if QUERIES[query][1] == "max" else old - new
    return gain / abs(old) if abs(old) >= 1e-9 else gain


# --- plans -----------------------------------------------------------------


def plan_from_values(inst, values: dict[str, float]):
    """Allocation tensor and fare matrix read off a solution's values."""
    x = np.array([
        [[values[f"x[{i},{j},{k}]"] for k in range(inst.soc_levels)]
         for j in inst.demand_areas]
        for i in inst.supply_areas
    ])
    u = np.array([
        [values[f"u_hat[{j},{k}]"] for k in range(inst.soc_levels)]
        for j in inst.demand_areas
    ])
    return x, u


def plan_violations(inst, x, u_hat, pinned=None) -> list[str]:
    """Supply caps, integrality, fare bounds and pinned values of a plan."""
    reasons = []
    x = np.asarray(x, dtype=float)
    u_hat = np.asarray(u_hat, dtype=float)
    if np.any(np.abs(x - np.round(x)) > 1e-6):
        reasons.append("fractional allocation")
    if np.any(x < -1e-6):
        reasons.append("negative allocation")
    if np.any(np.round(x).sum(axis=1) > inst.supply + 1e-6):
        reasons.append("supply cap exceeded")
    lo, hi = inst.fare_bounds
    if np.any(u_hat < lo - 1e-7) or np.any(u_hat > hi + 1e-7):
        reasons.append("fare out of bounds")
    for name, value in (pinned or {}).items():
        got = _plan_entry(inst, x, u_hat, name)
        if abs(got - value) > 1e-6:
            reasons.append(f"pinned {name}={value} but plan has {got}")
    return reasons


def _plan_entry(inst, x, u_hat, name: str) -> float:
    head, idx = name[:-1].split("[")
    parts = [int(p) for p in idx.split(",")]
    if head == "x":
        i, j, k = parts
        return float(x[inst.supply_areas.index(i), inst.demand_areas.index(j), k])
    j, k = parts
    return float(u_hat[inst.demand_areas.index(j), k])


def readback_violations(forest, exogenous, inst, x, u_hat, reported: float):
    """The profit the program reports for a plan against Forest.predict."""
    features = np.concatenate([
        [exogenous[n] for n in forest.schema.exogenous_names],
        np.round(np.asarray(x, dtype=float)).ravel(),
        np.asarray(u_hat, dtype=float).ravel(),
    ])
    predicted = forest.predict(features)
    if abs(predicted - reported) > ABS_TOL * max(1.0, abs(predicted)):
        return [f"{PROFIT_READBACK}: reported {reported:.6f}, predict {predicted:.6f}"]
    return []
