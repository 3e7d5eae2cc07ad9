"""A tour of the native solver: LP relaxation, cuts, search, two objectives.

Everything here is deterministic: the same problem and configuration
always reproduce the same values and node counts.
"""

import os
import tempfile

import numpy as np

from fleetopt.mip import (
    MipProblem,
    SolveConfig,
    branch_and_bound,
    cover_cuts,
    lexicographic_solve,
    lp_solve,
    read_lp,
    write_lp,
)

# --- the LP relaxation engine -------------------------------------------
p = MipProblem("classic")
p.add_variable("x", "continuous", 0, float("inf"))
p.add_variable("y", "continuous", 0, float("inf"))
p.add_constraint({"x": 6, "y": 4}, "<=", 24)
p.add_constraint({"x": 1, "y": 2}, "<=", 6)
p.set_objective("max", {"x": 5, "y": 4})
relax = lp_solve(p)
print(f"LP optimum {relax.objective_value} at "
      f"({relax.values['x']}, {relax.values['y']})")

# --- branch and bound on the integer version ------------------------------
for v in p.variables:
    v.kind = "integer"
    v.ub = 10
sol = branch_and_bound(p)
print(f"MIP optimum {sol.objective_value} at "
      f"({sol.values['x']:.0f}, {sol.values['y']:.0f}), "
      f"{sol.node_count} nodes")

# --- cover cuts on a knapsack ---------------------------------------------
k = MipProblem("knapsack")
for j in range(3):
    k.add_variable(f"x{j + 1}", "binary")
k.add_constraint({"x1": 3, "x2": 3, "x3": 3}, "<=", 5)
k.set_objective("max", {"x1": 1, "x2": 1, "x3": 1})
# a problem keeps its rows as CSR arrays; separators read them as they
# are and return their cuts in the same form
binary = np.array([v.kind == "binary" for v in k.variables])
rows = k.rows
cuts = cover_cuts(rows, binary, np.array([5 / 9, 5 / 9, 5 / 9]))
print("\ncover cut from 3x1+3x2+3x3 <= 5 at the fractional point:")
for i in range(len(cuts)):
    entries = slice(cuts.indptr[i], cuts.indptr[i + 1])
    terms = " + ".join(
        f"{c:g}*{k.variables[j].name}"
        for j, c in zip(cuts.indices[entries], cuts.data[entries])
    )
    print(f"  {terms} <= {cuts.rhs[i]:g}")

with_cuts = branch_and_bound(k, SolveConfig(gomory=True, cover=True))
print(f"knapsack solved with cuts: objective {with_cuts.objective_value}, "
      f"cuts added {with_cuts.cut_counts}")

# --- two objectives, lexicographically ------------------------------------
b = MipProblem("bi")
for j in range(4):
    b.add_variable(f"v{j}", "integer", 0, 3)
b.add_constraint({f"v{j}": 1 for j in range(4)}, "<=", 6)
b.set_objective("max", {"v0": 3, "v1": 3, "v2": 1, "v3": 1})
b.set_secondary_objective("min", {"v0": 1, "v1": 0, "v2": 0, "v3": 0})
lex = lexicographic_solve(b)
print(f"\nlexicographic: primary {lex.objective_value}, "
      f"secondary {lex.secondary_value}")
print("values:", {n: v for n, v in lex.values.items()})

# --- LP text interchange ---------------------------------------------------
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bi.lp")
    write_lp(b, path)
    again = read_lp(path)
assert branch_and_bound(again).objective_value == branch_and_bound(b).objective_value
print("\nwrote and re-read the LP file; optima agree")

# --- variable fixing --------------------------------------------------------
from fleetopt.mip import fix_variables

fixed = fix_variables(b, {"v0": 0, "v1": 0})
print("after fixing v0=v1=0:", branch_and_bound(fixed).objective_value)
