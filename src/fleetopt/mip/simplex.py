"""Dense two-phase primal simplex with tableau access.

Minimizes or maximizes a linear objective over linear rows and variable
bounds. Bounds are compiled into the standard form (lower bounds as
shifts, upper bounds as extra rows, free variables split), every row
receives a slack or artificial column, and the optimal tableau plus a
per-column affine map back to the original variables is retained so
fractional cutting planes can be separated from the final basis.

Dantzig pricing with a switch to Bland's rule for anti-cycling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import EQ, GE, LE, INFEASIBLE, OPTIMAL, UNBOUNDED, MipError

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-9
COST_TOL = 1e-9
BLAND_AFTER = 2000  # pivots after which pricing switches to Bland's rule
MAX_ITER = 200_000


@dataclass
class ColumnInfo:
    """One standard-form column and its meaning in original space."""

    kind: str  # "struct" | "slack" | "art"
    affine_const: float = 0.0
    affine_terms: dict[int, float] = field(default_factory=dict)
    is_integer: bool = False  # integer-valued at every integer-feasible point


@dataclass
class TableauState:
    """Final simplex tableau, kept for cut separation."""

    tableau: np.ndarray  # m x (n_cols + 1), last column is rhs
    basis: np.ndarray  # column index per row
    columns: list[ColumnInfo]


@dataclass
class LpResult:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    state: TableauState | None = None


class DenseSimplex:
    """Two-phase simplex over a dense standard form.

    ``rows`` is a list of (coeffs dict var->float, relation, rhs).
    ``integer_mask`` marks which original variables are integer; it only
    affects the integrality bookkeeping of columns, not the LP itself.
    """

    def __init__(
        self,
        n_vars: int,
        rows: list[tuple[dict[int, float], str, float]],
        objective: dict[int, float],
        sense: str,
        lb: np.ndarray,
        ub: np.ndarray,
        integer_mask: np.ndarray,
    ):
        self.n_vars = n_vars
        self.sense = sense
        self.iterations = 0
        self._build(rows, objective, lb, ub, integer_mask)

    # --- standard form construction ---

    def _build(self, rows, objective, lb, ub, integer_mask):
        cols: list[ColumnInfo] = []
        var_cols: list[list[tuple[int, float]]] = [[] for _ in range(self.n_vars)]
        shift_const = np.zeros(self.n_vars)  # x = sum(sign * s) + shift_const

        for v in range(self.n_vars):
            lo, hi = lb[v], ub[v]
            if np.isfinite(lo):
                idx = len(cols)
                cols.append(
                    ColumnInfo(
                        "struct",
                        affine_const=-float(lo),
                        affine_terms={v: 1.0},
                        is_integer=bool(integer_mask[v]) and float(lo).is_integer(),
                    )
                )
                var_cols[v].append((idx, 1.0))
                shift_const[v] = float(lo)
            elif np.isfinite(hi):
                idx = len(cols)
                cols.append(
                    ColumnInfo(
                        "struct",
                        affine_const=float(hi),
                        affine_terms={v: -1.0},
                        is_integer=bool(integer_mask[v]) and float(hi).is_integer(),
                    )
                )
                var_cols[v].append((idx, -1.0))
                shift_const[v] = float(hi)
            else:
                ip = len(cols)
                cols.append(ColumnInfo("struct", affine_terms={v: 1.0}))
                inn = len(cols)
                cols.append(ColumnInfo("struct", affine_terms={v: -1.0}))
                var_cols[v].append((ip, 1.0))
                var_cols[v].append((inn, -1.0))
                shift_const[v] = 0.0

        n_struct = len(cols)
        work_rows: list[tuple[np.ndarray, str, float, dict[int, float], float]] = []
        # each entry: (dense std coeffs, relation, rhs, original coeffs, original rhs)

        def transform(coeffs: dict[int, float], rhs: float):
            dense = np.zeros(n_struct)
            adj = rhs
            for v, a in coeffs.items():
                for col, sgn in var_cols[v]:
                    dense[col] += a * sgn
                adj -= a * shift_const[v]
            return dense, adj

        for coeffs, rel, rhs in rows:
            dense, adj = transform(coeffs, rhs)
            work_rows.append((dense, rel, adj, dict(coeffs), float(rhs)))
        # explicit rows for two-sided bounds (column <= ub - lb)
        for v in range(self.n_vars):
            if np.isfinite(lb[v]) and np.isfinite(ub[v]):
                col = var_cols[v][0][0]
                dense = np.zeros(n_struct)
                dense[col] = 1.0
                work_rows.append(
                    (dense, LE, float(ub[v] - lb[v]), {v: 1.0}, float(ub[v]))
                )

        m = len(work_rows)
        slack_cols: dict[int, int] = {}
        art_cols: dict[int, int] = {}
        for r, (dense, rel, rhs, orig_coeffs, orig_rhs) in enumerate(work_rows):
            flip = rhs < 0
            if flip:
                dense = -dense
                rhs = -rhs
                rel = {LE: GE, GE: LE, EQ: EQ}[rel]
                orig_coeffs = {v: -a for v, a in orig_coeffs.items()}
                orig_rhs = -orig_rhs
            work_rows[r] = (dense, rel, rhs, orig_coeffs, orig_rhs)

        def row_is_integral(orig_coeffs, orig_rhs):
            if not float(orig_rhs).is_integer():
                return False
            for v, a in orig_coeffs.items():
                if not integer_mask[v] or not float(a).is_integer():
                    return False
            return True

        for r, (dense, rel, rhs, orig_coeffs, orig_rhs) in enumerate(work_rows):
            if rel in (LE, GE):
                sgn = 1.0 if rel == LE else -1.0
                idx = len(cols)
                # slack s = sgn * (rhs - sum a x)
                cols.append(
                    ColumnInfo(
                        "slack",
                        affine_const=sgn * orig_rhs,
                        affine_terms={v: -sgn * a for v, a in orig_coeffs.items()},
                        is_integer=row_is_integral(orig_coeffs, orig_rhs),
                    )
                )
                slack_cols[r] = idx
            if rel in (GE, EQ):
                idx = len(cols)
                cols.append(ColumnInfo("art"))
                art_cols[r] = idx

        n_total = len(cols)
        T = np.zeros((m, n_total + 1))
        basis = np.full(m, -1, dtype=int)
        for r, (dense, rel, rhs, _, _) in enumerate(work_rows):
            T[r, :n_struct] = dense
            T[r, -1] = rhs
            if r in slack_cols:
                T[r, slack_cols[r]] = 1.0 if rel == LE else -1.0
            if r in art_cols:
                T[r, art_cols[r]] = 1.0
                basis[r] = art_cols[r]
            else:
                basis[r] = slack_cols[r]

        self.cols = cols
        self.n_struct = n_struct
        self.T = T
        self.basis = basis
        self.art_set = set(art_cols.values())
        self.shift_const = shift_const
        self.var_cols = var_cols
        self.m = m
        # structural objective in column space plus constant offset
        self.sign = 1.0 if self.sense == "min" else -1.0
        c_std = np.zeros(n_total)
        const = 0.0
        for v, cv in objective.items():
            cv = self.sign * cv
            for col, sgn in var_cols[v]:
                c_std[col] += cv * sgn
            const += cv * shift_const[v]
        self.c_std = c_std
        self.c_const = const

    # --- pivoting ---

    def _pivot(self, cost: np.ndarray, r: int, e: int) -> None:
        T = self.T
        piv = T[r, e]
        T[r] /= piv
        col = T[:, e].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        cost -= cost[e] * T[r]
        self.basis[r] = e

    def _run(self, cost: np.ndarray, allowed: np.ndarray) -> str:
        T = self.T
        n = T.shape[1] - 1
        while True:
            if self.iterations > MAX_ITER:
                raise MipError("simplex iteration limit exceeded")
            use_bland = self.iterations > BLAND_AFTER
            red = np.where(allowed, cost[:n], np.inf)
            if use_bland:
                neg = np.where(red < -COST_TOL)[0]
                if neg.size == 0:
                    return OPTIMAL
                e = int(neg[0])
            else:
                e = int(np.argmin(red))
                if red[e] >= -COST_TOL:
                    return OPTIMAL
            colvals = T[:, e]
            pos = colvals > PIVOT_TOL
            if not np.any(pos):
                return UNBOUNDED
            ratios = np.where(pos, T[:, -1] / np.where(pos, colvals, 1.0), np.inf)
            best = np.min(ratios)
            cand = np.where(ratios <= best + FEAS_TOL)[0]
            if cand.size > 1:
                # smallest basis column index for determinism / anti-cycling
                r = int(cand[np.argmin(self.basis[cand])])
            else:
                r = int(cand[0])
            self._pivot(cost, r, e)
            self.iterations += 1

    def solve(self) -> LpResult:
        n = self.T.shape[1] - 1
        allowed = np.ones(n, dtype=bool)

        if self.art_set:
            cost1 = np.zeros(n + 1)
            for c in self.art_set:
                cost1[c] = 1.0
            for r in range(self.m):
                if self.basis[r] in self.art_set:
                    cost1 -= self.T[r]
            status = self._run(cost1, allowed)
            if status == UNBOUNDED:  # phase 1 is always bounded below by 0
                raise MipError("phase-1 unbounded; numerical trouble")
            if -cost1[-1] > 1e-7:
                return LpResult(status=INFEASIBLE, iterations=self.iterations)
            # drive leftover artificials out of the basis
            for r in range(self.m):
                if self.basis[r] in self.art_set:
                    row = self.T[r, :n]
                    pick = -1
                    for c in range(n):
                        if c not in self.art_set and abs(row[c]) > 1e-7:
                            pick = c
                            break
                    if pick >= 0:
                        dummy = np.zeros(n + 1)
                        self._pivot(dummy, r, pick)
            for c in self.art_set:
                allowed[c] = False

        cost2 = np.zeros(n + 1)
        cost2[:n] = self.c_std
        for r in range(self.m):
            b = self.basis[r]
            if abs(cost2[b]) > 0:
                cost2 -= cost2[b] * self.T[r]
        status = self._run(cost2, allowed)
        if status == UNBOUNDED:
            return LpResult(status=UNBOUNDED, iterations=self.iterations)

        s_vals = np.zeros(n)
        s_vals[self.basis] = self.T[:, -1]
        x = self.shift_const.copy()
        for v in range(self.n_vars):
            for col, sgn in self.var_cols[v]:
                x[v] += sgn * s_vals[col]
        obj_min = float(self.c_std @ s_vals + self.c_const)
        objective = self.sign * obj_min
        return LpResult(
            status=OPTIMAL,
            x=x,
            objective=objective,
            iterations=self.iterations,
            state=TableauState(self.T, self.basis.copy(), self.cols),
        )


def solve_lp_dense(
    n_vars: int,
    rows: list[tuple[dict[int, float], str, float]],
    objective: dict[int, float],
    sense: str,
    lb: np.ndarray,
    ub: np.ndarray,
    integer_mask: np.ndarray | None = None,
) -> LpResult:
    """One-shot dense simplex solve; see :class:`DenseSimplex`."""
    if integer_mask is None:
        integer_mask = np.zeros(n_vars, dtype=bool)
    if np.any(lb > ub + 1e-9):
        return LpResult(status=INFEASIBLE)
    solver = DenseSimplex(n_vars, rows, objective, sense, lb, ub, integer_mask)
    return solver.solve()

