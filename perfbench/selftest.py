"""Self-test of the output checker in ``oracle.py``.

The milp translation must agree with brute-force enumeration on tiny
models, and a perturbed objective, a wrong stage-2 value, an infeasible
plan and a misreported profit must each be rejected. ``run`` returns
the reasons the checker failed (empty when it works); the benchmark
calls it before every run, and it also runs on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import os
import sys

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fleetopt.fleet import FleetInstance
from fleetopt.forest import FeatureSchema, Forest, TrainConfig, TreeNode
from fleetopt.mip import BINARY, EQ, GE, INTEGER, LE, MipProblem, SolveConfig

import oracle


def _tiny_model(rng) -> MipProblem:
    mip = MipProblem("tiny")
    n = int(rng.integers(2, 5))
    for j in range(n):
        if rng.random() < 0.3:
            mip.add_variable(f"b{j}", BINARY)
        else:
            mip.add_variable(f"z{j}", INTEGER, 0, int(rng.integers(1, 4)))
    for r in range(int(rng.integers(1, 4))):
        coeffs = {j: float(rng.integers(-3, 4)) for j in range(n)}
        rel = (LE, GE, EQ)[int(rng.integers(0, 3))] if r else LE
        mip.add_constraint(coeffs, rel, float(rng.integers(-2, 6)))
    sense = "max" if rng.random() < 0.5 else "min"
    mip.set_objective(sense, {j: float(rng.integers(-4, 5)) for j in range(n)}, 1.5)
    return mip


def _brute_force(mip: MipProblem):
    best = None
    ranges = [range(int(v.lb), int(v.ub) + 1) for v in mip.variables]
    for point in itertools.product(*ranges):
        x = np.array(point, dtype=float)
        if mip.check_point(x):
            continue
        value = mip.objective.value(x)
        if best is None or (value > best if mip.objective.sense == "max" else value < best):
            best = value
    return best


def check_translation(n_models: int = 40) -> list[str]:
    rng = np.random.default_rng(2024)
    reasons = []
    for m in range(n_models):
        mip = _tiny_model(rng)
        expected = _brute_force(mip)
        got = oracle.milp_solve(mip)
        if expected is None:
            if got.ok:
                reasons.append(f"tiny model {m}: milp found {got.value}, enumeration none")
        elif not got.ok or not oracle.close(got.value, expected, 1e-9):
            reasons.append(f"tiny model {m}: milp {got.value}, enumeration {expected}")
    return reasons


def _lex_model() -> MipProblem:
    # max a + b + c subject to a + b + c <= 4, a, b, c in 0..2: several
    # points reach the optimum 4, and the secondary (minimize b) picks
    # b = 0 among them
    mip = MipProblem("lex")
    for name in ("a", "b", "c"):
        mip.add_variable(name, INTEGER, 0, 2)
    mip.add_constraint({0: 1.0, 1: 1.0, 2: 1.0}, LE, 4.0)
    mip.set_objective("max", {0: 1.0, 1: 1.0, 2: 1.0})
    mip.set_secondary_objective("min", {1: 1.0})
    return mip


def check_rejections() -> list[str]:
    reasons = []
    cfg = SolveConfig()
    mip = _lex_model()
    if oracle.check_lexicographic(mip, 4.0, 0.0, cfg, full_bound=4.0)[0]:
        reasons.append("true lexicographic values rejected")
    if not oracle.check_lexicographic(mip, 4.01, 0.0, cfg)[0]:
        reasons.append("perturbed stage-1 objective accepted")
    if not oracle.check_lexicographic(mip, 4.0, 0.0, cfg, full_bound=4.2)[0]:
        reasons.append("perturbed stage-1 bound accepted")
    if not oracle.check_lexicographic(mip, 4.0, 1.0, cfg)[0]:
        reasons.append("wrong stage-2 value accepted")

    inst = FleetInstance(
        supply_areas=(0, 1),
        demand_areas=(10,),
        soc_levels=2,
        supply=np.array([[1, 2], [0, 1]]),
        demand=np.array([[2, 2]]),
        distance_km=np.array([[1.0], [2.0]]),
        fare_bounds=(1.0, 30.0),
    )
    x = np.array([[[1, 2]], [[0, 1]]])
    u = np.array([[5.0, 6.0]])
    if oracle.plan_violations(inst, x, u, {"x[0,10,1]": 2.0, "u_hat[10,0]": 5.0}):
        reasons.append("feasible plan rejected")
    bad_plans = {
        "supply cap": (x + np.array([[[1, 0]], [[0, 0]]]), u, None),
        "fraction": (x + 0.5 * np.array([[[0, 0]], [[0, 1]]]), u, None),
        "fare bound": (x, np.array([[0.5, 6.0]]), None),
        "pinned value": (x, u, {"u_hat[10,1]": 7.0}),
    }
    for what, (bx, bu, pinned) in bad_plans.items():
        if not oracle.plan_violations(inst, bx, bu, pinned):
            reasons.append(f"infeasible plan ({what}) accepted")

    names = ("temperature",) + tuple(
        f"x[{i},10,{k}]" for i in (0, 1) for k in (0, 1)
    ) + ("u_hat[10,0]", "u_hat[10,1]")
    tree = TreeNode(feature=5, threshold=5.5, left=TreeNode(value=2.0),
                    right=TreeNode(value=3.0))
    forest = Forest([tree], FeatureSchema(names, 1), TrainConfig(n_trees=1), 0)
    exo = {"temperature": 10.0}
    if oracle.readback_violations(forest, exo, inst, x, u, 2.0):
        reasons.append("correct profit readback rejected")
    if not oracle.readback_violations(forest, exo, inst, x, u, 3.0):
        reasons.append("misreported profit accepted")
    return reasons


def run() -> list[str]:
    return [f"self-test: {m}" for m in check_translation() + check_rejections()]


if __name__ == "__main__":
    failures = run()
    for line in failures:
        print(line)
    print("checker self-test:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)
