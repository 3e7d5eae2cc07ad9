"""Branch-and-bound with root cutting planes and bi-objective support.

Best-first search on the LP bound with most-fractional branching and a
depth tie-break that plunges after branching. Before the search starts,
a reduction pass substitutes pinned columns out of every row, turns
singleton rows into bounds and propagates activity bounds to a fixed
point, so a heavily fixed model really shrinks. Every node propagates
again before its LP. Propagation runs over rows compiled once per row
set into CSR arrays with a level schedule (:mod:`.rows`): rows on one
level share no column, so a numpy sweep per level tightens exactly the
bounds, bit for bit, that a row-by-row Gauss-Seidel sweep in row order
does. The HiGHS backend takes its matrices from the same compiled
rows. LP relaxations go
through the built-in dense simplex on small problems (which also feeds
the Gomory separator its tableau) and through scipy's HiGHS interface
above a size threshold; both paths are deterministic, so a given
problem and configuration always reproduce the same solution and node
count.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import cuts as cutmod
from .problem import (
    BINARY,
    EQ,
    GE,
    INFEASIBLE,
    INT_TOL,
    INTEGER,
    LE,
    MAX,
    MIN,
    NODE_LIMIT,
    OPTIMAL,
    TIME_LIMIT,
    UNBOUNDED,
    MipError,
    MipProblem,
    Objective,
    Solution,
)
from .rows import CompiledRows
from .simplex import LpResult, solve_lp_dense

BOUND_EPS = 1e-9
FIX_EPS = 1e-9
# statuses whose solution may carry a point: proven, or stopped at a limit
STOPPED_WITH_POINT = (OPTIMAL, TIME_LIMIT, NODE_LIMIT)


@dataclass
class SolveConfig:
    """Knobs for the solver; defaults follow double-precision practice."""

    gap_tol: float = 1e-6  # relative optimality gap
    time_limit: float | None = None
    branching: str = "most-fractional"  # or "lowest-index"
    gomory: bool = False
    cover: bool = False
    max_cut_rounds: int = 10  # per family, root node only
    cuts_per_round: int = 8
    lex_slack_rel: float = 1e-6  # stage-2 slack as a fraction of |g*|
    seed: int | None = None  # optional tie randomization, off by default
    lp_backend: str = "auto"  # "auto" | "simplex" | "highs"
    simplex_size_limit: int = 20_000  # rows*cols above which auto picks highs
    propagate: bool = True
    node_limit: int | None = None


def _propagate(rows: CompiledRows, lb, ub, int_mask, max_passes=4):
    """Activity-based bound tightening in place; returns False on infeasibility.

    Each pass is a Gauss-Seidel sweep over the rows in order: a row's
    least (greatest) activity under the current bounds first proves the
    row infeasible or tightens each column's bound on the "<=" (">=")
    side, and later rows see the tightened bounds. Integer bounds are
    rounded after every pass; passes stop when one tightens nothing.

    The sweep runs one level of the schedule at a time (see
    :mod:`.rows`), all rows of a level in a few numpy operations. Rows
    on a level share no column, and each row reads only bounds written
    by lower levels, so the bounds, the stop after an unchanged pass
    and the verdict are bit for bit those of the row-by-row sweep. That
    includes the bounds left behind on infeasibility: the row-by-row
    sweep stops at the first infeasible row, so a pass that finds one
    is re-run from its start with only the rows before it. (When only
    the ">=" side of an equality row fails, its "<=" side has run first
    but tightens nothing: its least slack exceeds the 1e-7 margin.)
    """
    n = rows.n
    w = np.concatenate([ub, -lb, [0.0, -np.inf]])
    rounded = np.concatenate([int_mask, int_mask, [False, False]])
    any_int = bool(np.any(int_mask))
    feasible = True
    # a half with unbounded least activity computes inf - inf in entries
    # that then tighten nothing
    with np.errstate(invalid="ignore"):
        for _ in range(max_passes):
            start = w.copy()
            limit = rows.first_empty_failure
            while (failed := _sweep(rows.levels, w, limit)) is not None:
                w[:] = start
                limit = failed
            if limit is not None:
                feasible = False
                break
            changed = not np.array_equal(w, start)
            if any_int:
                w[rounded] = np.floor(w[rounded] + INT_TOL)
            if np.any(-w[n : 2 * n] > w[:n] + 1e-7):
                feasible = False
                break
            if not changed:
                break
    ub[:] = w[:n]
    lb[:] = -w[n : 2 * n]
    return feasible


def _sweep(levels, w, limit):
    """One pass over the levels, tightening ``w`` in place.

    With ``limit`` None every row takes part, and the pass returns the
    index of an infeasible row as soon as a level shows one. With
    ``limit`` set, only rows before it take part, and the pass returns
    the index of an infeasible row among them, if any. None means the
    pass ran to the end.
    """
    for row_of, seg, half_of, k_p, k_t, coef, abs_coef, rhs, threshold in levels:
        terms = coef * w[k_p]
        least = np.add.reduceat(terms, seg)
        bad = least > threshold
        if limit is not None:
            before = row_of < limit
            bad &= before
        if bad.any():
            return int(row_of[bad][0])
        bound = ((rhs - least)[half_of] + terms) / abs_coef
        tighter = bound < w[k_t] - 1e-9
        if limit is not None:
            tighter &= before[half_of]
        w[k_t[tighter]] = bound[tighter]
    return None


@dataclass
class _Reduced:
    """Problem after substitution of pinned columns; reduced index space."""

    keep: np.ndarray  # original column index per reduced column
    lb: np.ndarray
    ub: np.ndarray
    kinds: list[str]
    int_mask: np.ndarray
    rows: list[tuple[dict[int, float], str, float]]
    obj_coeffs: dict[int, float]
    obj_constant: float
    full_values: np.ndarray  # original-length template with fixed values
    feasible: bool = True


def _reduce(problem: MipProblem, objective: Objective, propagate: bool) -> _Reduced:
    n = problem.n_vars
    lb, ub = problem.bounds_arrays()
    kinds_full = [v.kind for v in problem.variables]
    int_mask_full = np.array(
        [k in (INTEGER, BINARY) for k in kinds_full], dtype=bool
    )
    rows = [(dict(c.coeffs), c.relation, c.rhs) for c in problem.constraints]

    def fail():
        red = _Reduced(
            keep=np.zeros(0, dtype=int), lb=lb, ub=ub, kinds=[],
            int_mask=np.zeros(0, dtype=bool), rows=[], obj_coeffs={},
            obj_constant=0.0, full_values=np.zeros(n), feasible=False,
        )
        return red

    if propagate and not _propagate(
        CompiledRows(rows, n), lb, ub, int_mask_full, max_passes=6
    ):
        return fail()

    # substitute pinned columns and absorb singleton rows into bounds
    for _ in range(20):
        fixed = (ub - lb) <= FIX_EPS
        new_rows = []
        changed = False
        for coeffs, rel, rhs in rows:
            kept = {}
            r = rhs
            for j, a in coeffs.items():
                if fixed[j]:
                    r -= a * lb[j]
                else:
                    kept[j] = a
            if len(kept) < len(coeffs):
                changed = True
            if not kept:
                if (rel == LE and r < -1e-7) or (rel == GE and r > 1e-7) or (
                    rel == EQ and abs(r) > 1e-7
                ):
                    return fail()
                continue
            if len(kept) == 1:
                (j, a), = kept.items()
                if rel in (LE, EQ):
                    if a > 0:
                        ub[j] = min(ub[j], r / a)
                    else:
                        lb[j] = max(lb[j], r / a)
                if rel in (GE, EQ):
                    if a > 0:
                        lb[j] = max(lb[j], r / a)
                    else:
                        ub[j] = min(ub[j], r / a)
                changed = True
                continue
            new_rows.append((kept, rel, r))
        rows = new_rows
        if np.any(int_mask_full):
            lb[int_mask_full] = np.ceil(lb[int_mask_full] - INT_TOL)
            ub[int_mask_full] = np.floor(ub[int_mask_full] + INT_TOL)
        if np.any(lb > ub + 1e-7):
            return fail()
        if propagate and changed:
            if not _propagate(
                CompiledRows(rows, n), lb, ub, int_mask_full, max_passes=2
            ):
                return fail()
        if not changed:
            break

    fixed = (ub - lb) <= FIX_EPS
    keep = np.where(~fixed)[0]
    pos_of = {int(j): p for p, j in enumerate(keep)}
    full_values = np.where(fixed, lb, 0.0)
    for j in range(n):
        if fixed[j] and int_mask_full[j]:
            full_values[j] = round(full_values[j])

    red_rows = []
    for coeffs, rel, rhs in rows:
        red_rows.append(({pos_of[j]: a for j, a in coeffs.items()}, rel, rhs))
    obj_coeffs = {}
    obj_constant = objective.constant
    for j, c in objective.coeffs.items():
        if fixed[j]:
            obj_constant += c * full_values[j]
        else:
            obj_coeffs[pos_of[j]] = obj_coeffs.get(pos_of[j], 0.0) + c
    return _Reduced(
        keep=keep,
        lb=lb[keep].copy(),
        ub=ub[keep].copy(),
        kinds=[kinds_full[j] for j in keep],
        int_mask=int_mask_full[keep].copy(),
        rows=red_rows,
        obj_coeffs=obj_coeffs,
        obj_constant=obj_constant,
        full_values=full_values,
    )


class _Relaxation:
    """LP relaxation engine over reduced rows plus added cuts."""

    def __init__(self, red: _Reduced, cfg: SolveConfig):
        self.red = red
        self.cfg = cfg
        self.n = len(red.keep)
        self.rows = list(red.rows)
        self.compiled = CompiledRows(self.rows, self.n)
        self.iterations = 0

    def add_rows(self, rows) -> None:
        self.rows.extend(rows)
        self.compiled = CompiledRows(self.rows, self.n)

    def backend(self) -> str:
        if self.cfg.lp_backend in ("simplex", "highs"):
            return self.cfg.lp_backend
        size = max(1, len(self.rows)) * max(1, self.n)
        return "simplex" if size <= self.cfg.simplex_size_limit else "highs"

    def solve(self, sense: str, lb, ub, want_tableau=False) -> LpResult:
        use = self.backend()
        if want_tableau:
            use = "simplex"
        if self.n == 0:
            return LpResult(status=OPTIMAL, x=np.zeros(0), objective=0.0)
        if use == "simplex":
            res = solve_lp_dense(
                self.n, self.rows, self.red.obj_coeffs, sense, lb, ub,
                integer_mask=self.red.int_mask,
            )
            self.iterations += res.iterations
            return res
        return self._solve_highs(sense, lb, ub)

    def _solve_highs(self, sense: str, lb, ub) -> LpResult:
        A_ub, b_ub, A_eq, b_eq = self.compiled.highs_form
        c = np.zeros(self.n)
        for j, a in self.red.obj_coeffs.items():
            c[j] = a
        sign = 1.0 if sense == MIN else -1.0
        res = linprog(
            sign * c,
            A_ub=A_ub,
            b_ub=b_ub if A_ub is not None else None,
            A_eq=A_eq,
            b_eq=b_eq if A_eq is not None else None,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        self.iterations += int(res.nit) if res.nit is not None else 0
        if res.status == 2:
            return LpResult(status=INFEASIBLE)
        if res.status == 3:
            return LpResult(status=UNBOUNDED)
        if res.status != 0:
            raise MipError(f"LP backend failure: {res.message}")
        return LpResult(status=OPTIMAL, x=np.asarray(res.x), objective=sign * res.fun)


def _fractional_index(x, int_indices, rule: str, rng=None) -> int | None:
    best = None
    best_score = -1.0
    ties: list[int] = []
    for j in int_indices:
        f = x[j] - np.floor(x[j])
        dist = min(f, 1.0 - f)
        if dist <= INT_TOL:
            continue
        if rule == "lowest-index":
            return j
        if dist > best_score + 1e-12:
            best_score = dist
            best = j
            ties = [j]
        elif rng is not None and dist > best_score - 1e-12:
            ties.append(j)
    if rng is not None and len(ties) > 1:
        return int(ties[rng.integers(0, len(ties))])
    return best


def branch_and_bound(
    problem: MipProblem,
    cfg: SolveConfig | None = None,
    objective: Objective | None = None,
    warm_values: dict[str, float] | None = None,
) -> Solution:
    """Solve a MIP to proven optimality within the configured gap.

    Reduction first, then root-only cut rounds for the enabled
    families, then best-first branch and bound. ``objective`` overrides
    the problem's primary objective (the lexicographic driver uses it).
    ``warm_values`` seeds the incumbent with a known integer-feasible
    point, which only prunes; it never changes the optimum.
    """
    cfg = cfg or SolveConfig()
    obj = objective or problem.objective
    if obj is None:
        obj = Objective(MAX, {})
    t0 = time.perf_counter()
    maximize = obj.sense == MAX
    cut_counts = {"gomory": 0, "cover": 0}
    tie_rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None
    red = _reduce(problem, obj, cfg.propagate)

    def out_of_time():
        return cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit

    def make_solution(status, red_values=None, obj_value=None, bound=None,
                      nodes=0, iters=0):
        sol = Solution(
            status=status,
            node_count=nodes,
            lp_iterations=iters,
            cut_counts=dict(cut_counts),
            wall_time=time.perf_counter() - t0,
        )
        if red_values is not None:
            full = red.full_values.copy()
            full[red.keep] = red_values
            sol.values = {
                v.name: float(full[i]) for i, v in enumerate(problem.variables)
            }
            sol.objective_value = obj_value
        sol.best_bound = bound
        return sol

    if not red.feasible:
        return make_solution(INFEASIBLE)
    if len(red.keep) == 0:
        return make_solution(OPTIMAL, np.zeros(0), red.obj_constant,
                             bound=red.obj_constant)

    rel = _Relaxation(red, cfg)
    int_indices = [p for p in range(len(red.keep)) if red.int_mask[p]]
    lb, ub = red.lb.copy(), red.ub.copy()

    def lp(sense_lb, sense_ub, want_tableau=False):
        res = rel.solve(obj.sense, sense_lb, sense_ub, want_tableau=want_tableau)
        if res.objective is not None:
            res.objective += red.obj_constant
        return res

    root = lp(lb, ub, want_tableau=cfg.gomory and rel.backend() == "simplex")
    if root.status == INFEASIBLE:
        return make_solution(INFEASIBLE, iters=rel.iterations)
    if root.status == UNBOUNDED:
        return make_solution(UNBOUNDED, iters=rel.iterations)

    if cfg.gomory or cfg.cover:
        for _ in range(cfg.max_cut_rounds):
            added = 0
            if cfg.gomory:
                g = cutmod.gomory_cuts(root.state, max_cuts=cfg.cuts_per_round)
                if g:
                    rel.add_rows(g)
                    cut_counts["gomory"] += len(g)
                    added += len(g)
            if cfg.cover:
                cv = cutmod.cover_cuts_raw(
                    rel.rows, red.kinds, root.x, max_cuts=cfg.cuts_per_round
                )
                if cv:
                    rel.add_rows(cv)
                    cut_counts["cover"] += len(cv)
                    added += len(cv)
            if added == 0:
                break
            root = lp(lb, ub, want_tableau=cfg.gomory and rel.backend() == "simplex")
            if root.status != OPTIMAL:
                break
        if root.status == INFEASIBLE:
            return make_solution(INFEASIBLE, iters=rel.iterations)
        if root.status == UNBOUNDED:
            return make_solution(UNBOUNDED, iters=rel.iterations)

    incumbent = None
    incumbent_value = -np.inf if maximize else np.inf

    def better(a, b):
        return a > b + 1e-12 if maximize else a < b - 1e-12

    if warm_values is not None:
        full = np.array([warm_values[v.name] for v in problem.variables])
        warm_red = full[red.keep].copy()
        for p in range(len(red.keep)):
            if red.int_mask[p]:
                warm_red[p] = round(warm_red[p])
        if np.all(warm_red >= red.lb - 1e-6) and np.all(warm_red <= red.ub + 1e-6):
            incumbent = warm_red
            incumbent_value = red.obj_constant + sum(
                c * warm_red[j] for j, c in red.obj_coeffs.items()
            )

    def integral(x):
        return all(abs(x[j] - round(x[j])) <= INT_TOL for j in int_indices)

    def exact_value(x):
        x = x.copy()
        for j in int_indices:
            x[j] = round(x[j])
        val = red.obj_constant + sum(c * x[j] for j, c in red.obj_coeffs.items())
        return val, x

    heap = []
    seq = 0
    node_count = 0

    def push(bound, depth, lb, ub):
        nonlocal seq
        prio = -bound if maximize else bound
        heapq.heappush(heap, (prio, -depth, seq, bound, lb, ub))
        seq += 1

    if integral(root.x):
        val, xr = exact_value(root.x)
        return make_solution(OPTIMAL, xr, val, bound=root.objective, nodes=0,
                             iters=rel.iterations)
    push(root.objective, 0, lb, ub)

    status = OPTIMAL
    while heap:
        if out_of_time():
            status = TIME_LIMIT
            break
        if cfg.node_limit is not None and node_count >= cfg.node_limit:
            status = NODE_LIMIT
            break
        prio, negdepth, _, bound, lb_n, ub_n = heapq.heappop(heap)
        if incumbent is not None:
            gap = abs(bound - incumbent_value)
            if not better(bound, incumbent_value) or gap <= cfg.gap_tol * max(
                1.0, abs(incumbent_value)
            ):
                continue
        node_lb, node_ub = lb_n.copy(), ub_n.copy()
        if cfg.propagate and not _propagate(
            rel.compiled, node_lb, node_ub, red.int_mask, max_passes=1
        ):
            node_count += 1
            continue
        res = lp(node_lb, node_ub)
        node_count += 1
        if res.status != OPTIMAL:
            continue
        if incumbent is not None and not better(res.objective, incumbent_value):
            continue
        if integral(res.x):
            val, xr = exact_value(res.x)
            if incumbent is None or better(val, incumbent_value):
                incumbent, incumbent_value = xr, val
            continue
        j = _fractional_index(res.x, int_indices, cfg.branching, rng=tie_rng)
        if j is None:  # numerically integral after all
            val, xr = exact_value(res.x)
            if incumbent is None or better(val, incumbent_value):
                incumbent, incumbent_value = xr, val
            continue
        v = res.x[j]
        depth = -negdepth + 1
        left_ub = node_ub.copy()
        left_ub[j] = np.floor(v)
        if node_lb[j] <= left_ub[j] + BOUND_EPS:
            push(res.objective, depth, node_lb, left_ub)
        right_lb = node_lb.copy()
        right_lb[j] = np.ceil(v)
        if right_lb[j] <= node_ub[j] + BOUND_EPS:
            push(res.objective, depth, right_lb, node_ub)

    remaining = [item[3] for item in heap]
    if incumbent is not None:
        if maximize:
            best_bound = max(remaining + [incumbent_value])
        else:
            best_bound = min(remaining + [incumbent_value])
    else:
        best_bound = (max if maximize else min)(remaining, default=None)

    if incumbent is None:
        if status != OPTIMAL:
            return make_solution(status, bound=best_bound, nodes=node_count,
                                 iters=rel.iterations)
        return make_solution(INFEASIBLE, nodes=node_count, iters=rel.iterations)
    return make_solution(
        status,
        incumbent,
        incumbent_value,
        bound=float(best_bound),
        nodes=node_count,
        iters=rel.iterations,
    )


def lp_solve(problem: MipProblem, cfg: SolveConfig | None = None) -> Solution:
    """Solve the LP relaxation (integrality dropped) of a problem.

    The solution carries variable values and the relaxation objective.
    The reduction pass is skipped so the relaxation is solved exactly
    as stated.
    """
    cfg = cfg or SolveConfig()
    obj = problem.objective or Objective(MAX, {})
    lb, ub = problem.bounds_arrays()
    rows = [(dict(c.coeffs), c.relation, c.rhs) for c in problem.constraints]
    int_mask = np.zeros(problem.n_vars, dtype=bool)
    sol = Solution(status=INFEASIBLE)
    if problem.n_vars == 0:
        sol.status = OPTIMAL
        sol.objective_value = obj.constant
        return sol
    use_simplex = cfg.lp_backend != "highs" and (
        cfg.lp_backend == "simplex"
        or max(1, len(rows)) * problem.n_vars <= cfg.simplex_size_limit
    )
    if use_simplex:
        res = solve_lp_dense(
            problem.n_vars, rows, obj.coeffs, obj.sense, lb, ub, integer_mask=int_mask
        )
        sol.lp_iterations = res.iterations
        if res.status == OPTIMAL:
            sol.status = OPTIMAL
            sol.values = {
                v.name: float(res.x[i]) for i, v in enumerate(problem.variables)
            }
            sol.objective_value = res.objective + obj.constant
            sol.best_bound = sol.objective_value
            if res.state is not None:
                sol.basis = [
                    problem.variables[res.state.columns[c].var].name
                    if res.state.columns[c].kind == "struct"
                    else f"{res.state.columns[c].kind}[{c}]"
                    for c in res.basis
                ]
        else:
            sol.status = res.status
        return sol
    red = _Reduced(
        keep=np.arange(problem.n_vars),
        lb=lb, ub=ub,
        kinds=[v.kind for v in problem.variables],
        int_mask=int_mask,
        rows=rows,
        obj_coeffs=dict(obj.coeffs),
        obj_constant=obj.constant,
        full_values=np.zeros(problem.n_vars),
    )
    rel = _Relaxation(red, cfg)
    res = rel.solve(obj.sense, lb, ub)
    sol.lp_iterations = rel.iterations
    if res.status == OPTIMAL:
        sol.status = OPTIMAL
        sol.values = {v.name: float(res.x[i]) for i, v in enumerate(problem.variables)}
        sol.objective_value = res.objective + obj.constant
        sol.best_bound = sol.objective_value
    else:
        sol.status = res.status
    return sol


def fix_variables(problem: MipProblem, assignments: dict[str, float]) -> MipProblem:
    """Pin variables to values by collapsing their bounds.

    Names that map to composite affine expressions (through
    ``expr_map``) are fixed with an equality row instead. Out-of-bounds
    values or fractional values for integer variables raise.
    """
    fixed = problem.copy()
    for name, value in assignments.items():
        value = float(value)
        if name in fixed._index:
            idx = fixed._index[name]
            var = fixed.variables[idx]
            if value < var.lb - 1e-9 or value > var.ub + 1e-9:
                raise MipError(
                    f"fix of {name!r} to {value} violates bounds [{var.lb}, {var.ub}]"
                )
            if var.kind in (INTEGER, BINARY) and abs(value - round(value)) > INT_TOL:
                raise MipError(f"fix of integer variable {name!r} to fractional {value}")
            if var.kind in (INTEGER, BINARY):
                value = float(round(value))
            var.lb = var.ub = value
        elif name in fixed.expr_map:
            expr = fixed.expr_map[name]
            fixed.add_constraint(
                dict(expr.terms), EQ, value - expr.constant, name=f"fix:{name}"
            )
        else:
            raise MipError(f"unknown variable {name!r}")
    return fixed


def lexicographic_solve(
    problem: MipProblem, cfg: SolveConfig | None = None
) -> Solution:
    """Two-stage solve: optimize the primary objective, then the
    secondary subject to near-retention of the primary optimum.

    Stage 2 adds ``g >= g* - eps`` (or ``<= g* + eps`` when minimizing)
    with ``eps = lex_slack_rel * |g*|``; exact retention is numerically
    brittle, so a relative slack is used instead.
    """
    cfg = cfg or SolveConfig()
    if problem.objective is None or problem.secondary is None:
        raise MipError("lexicographic solve needs a primary and a secondary objective")
    stage1 = branch_and_bound(problem, cfg)
    if stage1.status not in STOPPED_WITH_POINT or stage1.objective_value is None:
        return stage1
    g_star = stage1.objective_value
    eps = cfg.lex_slack_rel * abs(g_star) + 1e-9
    stage2_problem = problem.copy()
    g = problem.objective
    if g.sense == MAX:
        stage2_problem.add_constraint(
            dict(g.coeffs), GE, g_star - eps - g.constant, name="lex:retain"
        )
    else:
        stage2_problem.add_constraint(
            dict(g.coeffs), LE, g_star + eps - g.constant, name="lex:retain"
        )
    stage2 = branch_and_bound(
        stage2_problem, cfg, objective=problem.secondary, warm_values=stage1.values
    )
    if stage2.status not in STOPPED_WITH_POINT or not stage2.values:
        # retention row plus solver tolerance squeezed stage 2 dry, or
        # stage 2 stopped before finding a point: return stage 1, marked
        x1 = stage1.value_array(problem)
        stage1.secondary_value = problem.secondary.value(x1)
        stage1.stage2_fallback = True
        return stage1
    x2 = stage2.value_array(problem)
    return Solution(
        status=stage2.status if stage1.status == OPTIMAL else stage1.status,
        values=stage2.values,
        objective_value=g.value(x2),
        secondary_value=problem.secondary.value(x2),
        best_bound=stage1.best_bound,
        node_count=stage1.node_count + stage2.node_count,
        lp_iterations=stage1.lp_iterations + stage2.lp_iterations,
        cut_counts={
            k: stage1.cut_counts.get(k, 0) + stage2.cut_counts.get(k, 0)
            for k in set(stage1.cut_counts) | set(stage2.cut_counts)
        },
        wall_time=stage1.wall_time + stage2.wall_time,
    )
