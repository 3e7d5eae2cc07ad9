"""Embedding the trained forest into the optimizer.

Each tree edge gets a binary; big-M rows tie the branch binaries to the
decision features, flow rows conserve the active path and one leaf per
tree must light up. Known exogenous values are pruned out first, so the
model only branches over what the operator actually controls.
"""

import numpy as np

from fleetopt import build_feature_mip, decision_from_solution
from fleetopt.bench import SynthConfig, generate_world
from fleetopt.forest import TrainConfig, train, train_test_split
from fleetopt.mip import SolveConfig, branch_and_bound
from fleetopt.mip.solver import fix_variables

world = generate_world(SynthConfig(seed=42))
rows = world.training_rows()
cfg = TrainConfig(n_trees=12, max_depth=5, min_samples_leaf=3, seed=7)
train_rows, _ = train_test_split(rows, cfg.test_fraction, cfg.seed)
forest = train(train_rows, cfg, world.schema())

day = 0
inst = world.instance(day)
exogenous = world.days[day].exogenous()

# a full feature vector walks each tree down to exactly one leaf
vec = np.array([exogenous["temperature"], exogenous["dew_point"],
                exogenous["day_of_week"]] + [0.0] * (forest.schema.n_features - 3))
print(f"tree 0 sends this feature vector to a leaf worth {forest.trees[0].predict(vec):.2f}")

# pruning: today's weather is a constant, not a variable, so each split
# on it collapses into the branch it takes before the trees are embedded
mip = build_feature_mip(inst, forest, exogenous)
edges = sum(sum(tree.count_nodes()) - 1 for tree in forest.trees)
kept = sum(name.startswith("q[") for name in mip.names)
print(f"tree edges: {edges} in the forest, {kept} edge binaries after weather pruning")
print(f"\nembedded model: {mip.n_vars} variables, {len(mip.rows)} rows")

solution = branch_and_bound(mip, SolveConfig())
print(f"best predicted profit: {solution.objective_value:.2f} "
      f"({solution.status}, {solution.node_count} nodes)")
decision = decision_from_solution(inst, mip, solution)
print(f"taxis repositioned: {int(decision.x.sum())}")

# fidelity: freeze the decision columns and the model reproduces predict()
features = list(vec[:3])
sample = decision
flat = []
for i_pos, i in enumerate(inst.supply_areas):
    for j_pos, j in enumerate(inst.demand_areas):
        for k in range(inst.soc_levels):
            flat.append((f"x[{i},{j},{k}]", float(sample.x[i_pos, j_pos, k])))
for j_pos, j in enumerate(inst.demand_areas):
    for k in range(inst.soc_levels):
        flat.append((f"u_hat[{j},{k}]", float(sample.u_hat[j_pos, k])))
fixed = fix_variables(mip, dict(flat))
frozen = branch_and_bound(fixed)
direct = forest.predict(features + [v for _, v in flat])
print(f"\nfrozen-decision objective {frozen.objective_value:.6f} "
      f"vs predict() {direct:.6f}")
assert abs(frozen.objective_value - direct) < 1e-6
print("encoding is faithful to the forest")
