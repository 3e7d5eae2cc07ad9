"""Native MIP machinery: problem container, HiGHS LP model, cuts, search.

A problem keeps its columns as arrays (:attr:`MipProblem.names`,
``kinds``, ``lb``, ``ub``) and its rows as CSR arrays
(:attr:`MipProblem.rows`), and every layer here reads them in those
forms. ``Variable`` and ``Constraint`` are exported for the column and
row views that only the benchmark still reads.
"""

from .problem import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INFEASIBLE,
    INTEGER,
    LE,
    MAX,
    MIN,
    NODE_LIMIT,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    AffineExpr,
    Constraint,
    MipError,
    MipProblem,
    Objective,
    Solution,
    Variable,
)
from .cuts import cover_cuts, gomory_cuts
from .rows import CompiledRows
from .solver import (
    SolveConfig,
    branch_and_bound,
    clear_stage1_memo,
    fix_variables,
    lexicographic_solve,
    lp_solve,
)

__all__ = [
    "AffineExpr",
    "BINARY",
    "CONTINUOUS",
    "CompiledRows",
    "Constraint",
    "EQ",
    "GE",
    "INFEASIBLE",
    "INTEGER",
    "LE",
    "MAX",
    "MIN",
    "MipError",
    "MipProblem",
    "NODE_LIMIT",
    "OPTIMAL",
    "Objective",
    "Solution",
    "SolveConfig",
    "TIME_LIMIT",
    "UNBOUNDED",
    "Variable",
    "branch_and_bound",
    "clear_stage1_memo",
    "cover_cuts",
    "fix_variables",
    "gomory_cuts",
    "lexicographic_solve",
    "lp_solve",
]
