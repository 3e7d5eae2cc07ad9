"""Branch-and-bound with root cutting planes and bi-objective support.

Best-first search on the LP bound with most-fractional branching and a
depth tie-break that plunges after branching. Before the search starts,
a reduction pass substitutes pinned columns out of every row, turns
singleton rows into bounds and propagates activity bounds to a fixed
point, so a heavily fixed model really shrinks. Every node propagates
again before its LP, over the reduced rows only: cut rows tighten the
LP, not the bounds. Propagation runs over rows held as CSR arrays with
a half-row layout (:mod:`.rows`), and a pass reads every row at once,
from the bounds as they stood at its start. A search takes the
problem's stated rows (:attr:`.problem.MipProblem.rows`, the arrays
the problem keeps) at the start of its reduction and holds its rows in
that one form to the end: the reduction derives each later row set
from the last one, and its final rows, renumbered to the kept columns,
are what nodes propagate over; they build their own layout at the
first node. The search's LP
relaxation, one persistent HiGHS model (:class:`.highs.HighsLp`), is
built from those rows and holds the cuts too (``HighsLp.rows``). Each
search passes its own model, on the HiGHS object the last search handed
back when one waits: a search and ``lp_solve`` hand their object back
when they end, also when they raise (:meth:`.highs.HighsLp.release`).
Every
LP (root, cut rounds, nodes, incumbent polish and ``lp_solve``) is
solved on it: a node only sets column bounds, a cut round appends its
cut rows, and HiGHS warm-starts each solve from the basis it holds.
Each node LP starts from its parent's basis: a node that branches
keeps a snapshot of the basis its LP ended at
(:meth:`.highs.HighsLp.snapshot`) with its children, and a child
hands it back (:meth:`.highs.HighsLp.restore`) unless its parent's LP
was the last one HiGHS solved. A best-first jump to another subtree
thus starts from the parent's vertex, not from the last node's.
Each infeasible node LP leaves a Farkas proof
(:meth:`.highs.HighsLp.infeasibility_proof`): one row aggregated from
the rows HiGHS holds, and the interval its activity must lie in. Cuts
are added only before the first node, so a proof holds at every later
node; the search keeps the last :data:`PROOFS` of them as one matrix
(:class:`_Proofs`). A node thus ends in one of six ways: propagation
finds its box infeasible; a kept proof covers its box, and its LP is
skipped; its LP is infeasible or unbounded; its LP bound is no better
than the incumbent; its LP point is integral, and a polish offers it
as the incumbent; or it branches. A node whose LP a proof skips counts
as a node, and the next node restores its parent's basis, as it would
after an infeasible LP; since a restore clears what HiGHS kept from
earlier solves, every later LP solves to the bits it would have
without the skip. A fixed model shares the stated row arrays, which
are never changed in place, and appends only its own rows
(``fix:*``). A reduction holds rows, bounds and pinned values, and no
objective: a search maps its objective onto the reduction it
searches, once (:func:`_objective_on`).
A lexicographic solve reduces the problem once: stage 2 starts its
reduction from stage 1's, with the retention row appended in the
reduced columns, and searches it with stage 1's point, an array in
stated column order, as its warm start. Stage 1 (the reduction and the
profit search) does not depend on the secondary objective, and stage
2's start (that second reduction) only on stage 1 and
``lex_slack_rel``, so the queries on one model share both: a module
LRU memo of :data:`STAGE1_MEMO_SIZE` entries keeps each
stage 1's outcome, point and stage 2's start under the exact bytes of
everything the two read (column count, kinds and bounds; the stated
rows' CSR arrays, rhs and sense masks; the primary's sense,
coefficients in insertion order and constant; ``gap_tol``, ``gomory``,
``cover``, ``node_limit`` and ``lex_slack_rel``). A solve with a
``time_limit`` bypasses the memo. A reused stage 1 reports the node,
LP-iteration and cut counts of the search that produced it, so every
output stays as a cold solve gives it;
``Solution.stage1_reused`` says which happened, and
:func:`clear_stage1_memo` empties the memo.
:func:`branch_and_bound` alone never reads it.
An integral LP point becomes an incumbent only after a polish: its
integers are fixed at their rounded values and the LP is solved again,
and the incumbent takes that solve's continuous values and objective.
Root cut rounds separate the point the search branches on, and both
separators (:mod:`.cuts`) take and return CSR row sets: Gomory takes
the B⁻¹ rows of its source rows from the HiGHS basis of the root solve
just made (:meth:`.highs.HighsLp.tableau`), and cover separation reads the
model's rows, that round's Gomory cuts included, and the root point.
Gomory separation is on by default; on the desk models it closes most
of the root gap.
A ``warm`` point (stage 2's stage-1 point; nothing else passes one) is
checked against the reduction's pinned values, bounds and rows before
the root LP (:func:`_warm_on`), and is the incumbent from then on: cut
rounds stop once the root bound meets it within ``gap_tol``, since no
cut can change the outcome then. When the root bound still leads it
by more, the root's reduced costs tighten the root box before it is
pushed (:func:`_reduced_cost_box`): an integer column at a bound may
move off it only as far as the lead, widened by a margin for HiGHS's
dual tolerance, pays for. Cuts hold for every integer point, so that
LP bound holds for the search, and the first node's propagation
carries the tightened box on. Only the root is tightened, and only
against a warm incumbent. HiGHS and the search are deterministic, so a given
problem and configuration always reproduce the same solution and node
count.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from . import cuts as cutmod
from .problem import (
    BINARY,
    CONTINUOUS,
    EQ,
    INFEASIBLE,
    INT_TOL,
    MAX,
    NODE_LIMIT,
    OPTIMAL,
    TIME_LIMIT,
    MipError,
    MipProblem,
    Objective,
    Solution,
)
from .highs import DUAL_TOL, PROOF_MARGIN, HighsLp
from .rows import CompiledRows

BOUND_EPS = 1e-9
FIX_EPS = 1e-9
WARM_TOL = 1e-6  # how far a warm point may miss a bound, pin or row
# statuses whose solution may carry a point: proven, or stopped at a limit
STOPPED_WITH_POINT = (OPTIMAL, TIME_LIMIT, NODE_LIMIT)
MAX_CUT_ROUNDS = 10  # per family, root node only
CUTS_PER_ROUND = 8
PROOFS = 64  # infeasibility proofs a search keeps, the latest ones


@dataclass
class SolveConfig:
    """Knobs for the solver; defaults follow double-precision practice."""

    gap_tol: float = 1e-6  # relative optimality gap
    time_limit: float | None = None
    gomory: bool = True
    cover: bool = False
    lex_slack_rel: float = 1e-6  # stage-2 slack as a fraction of |g*|
    node_limit: int | None = None


def _propagate(rows: CompiledRows, lb, ub, int_mask, max_passes: int) -> bool:
    """Activity-based bound tightening; returns False on infeasibility.

    Each pass reads every row under the bounds as they stood at the
    start of the pass: a row's least (greatest) activity proves it
    infeasible or implies a bound on each of its columns on the "<="
    (">=") side, and each bound moves to the tightest value any row
    implies for it, so a chain of rows moves a bound one row per pass.
    Activity-based tightening is sound in any order the rows are read
    (Savelsbergh, ORSA J. Computing 6(4), 1994), so a pass is a few
    numpy operations over the row set's half-row layout (see
    :mod:`.rows`). After every pass, integer bounds are rounded and
    crossed bounds make the model infeasible, so even a call whose
    first pass tightens nothing rounds fractional integer bounds;
    passes stop at the first that tightens nothing. The tightened bounds
    are written to ``lb`` and ``ub`` only when the verdict is feasible;
    on False they are left as they are, and no caller reads them.
    """
    if rows.first_empty_failure is not None:
        return False
    n = rows.n
    seg, half_of, k_p, k_t, coef, abs_coef, rhs, threshold = rows.halves
    w = np.concatenate([ub, -lb, [0.0, -np.inf]])
    rounded = np.concatenate([int_mask, int_mask, [False, False]])
    any_int = bool(np.any(int_mask))
    # a half with unbounded least activity computes inf - inf in entries
    # that then tighten nothing
    with np.errstate(invalid="ignore"):
        for _ in range(max_passes):
            terms = coef * w[k_p]
            least = np.add.reduceat(terms, seg)
            if (least > threshold).any():
                return False
            bound = ((rhs - least)[half_of] + terms) / abs_coef
            tighter = np.flatnonzero(bound < w[k_t] - 1e-9)
            if len(tighter):
                np.minimum.at(w, k_t[tighter], bound[tighter])
            if any_int:
                w[rounded] = np.floor(w[rounded] + INT_TOL)
            if np.any(-w[n : 2 * n] > w[:n] + 1e-7):
                return False
            if not len(tighter):
                break
    ub[:] = w[:n]
    lb[:] = -w[n : 2 * n]
    return True


@dataclass
class _Reduced:
    """Problem after substitution of pinned columns; reduced index space.

    It holds rows, bounds and pinned values only, so one reduction
    serves any objective (:func:`_objective_on`).
    """

    keep: np.ndarray  # original column index per reduced column
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray  # binary columns, which cover separation reads
    int_mask: np.ndarray
    rows: CompiledRows | None  # None when infeasible
    full_values: np.ndarray  # original-length template with fixed values
    feasible: bool = True


def _unreduced(problem: MipProblem) -> _Reduced:
    """The problem as stated, in the reduced form: no column dropped."""
    kinds = problem.kinds
    return _Reduced(
        keep=np.arange(problem.n_vars),
        lb=problem.lb.copy(),
        ub=problem.ub.copy(),
        binary=kinds == BINARY,
        int_mask=kinds != CONTINUOUS,
        rows=problem.rows,
        full_values=np.zeros(problem.n_vars),
    )


def _reduce(problem: MipProblem, start: _Reduced | None = None) -> _Reduced:
    """The problem with its pinned columns substituted out.

    Propagation and substitution passes alternate until a substitution
    pass changes nothing. A pass moves every pinned column's terms into
    the rhs, checks the rows that become empty and turns singleton rows
    into bounds. Each pass that changes something drops a row entry or
    a row, so the loop ends. The rows the last propagation read are
    then the reduced rows, relabelled to the reduced columns
    (:meth:`.rows.CompiledRows.relabel`); they build their own layout
    when a node first propagates over them.

    The passes start from ``start``, by default the problem as stated;
    stage 2 starts from stage 1's reduction with the retention row
    appended (:func:`_stage2_start`). ``keep`` and ``full_values`` refer
    to the stated columns either way. No objective is read: a search
    maps its own onto the result (:func:`_objective_on`).
    """
    n = problem.n_vars
    if start is None:
        start = _unreduced(problem)
    lb, ub, compiled = start.lb.copy(), start.ub.copy(), start.rows
    int_mask = start.int_mask

    def fail():
        return _Reduced(
            keep=np.zeros(0, dtype=int), lb=lb, ub=ub, binary=np.zeros(0, dtype=bool),
            int_mask=np.zeros(0, dtype=bool), rows=None, full_values=np.zeros(n),
            feasible=False,
        )

    if not _propagate(compiled, lb, ub, int_mask, max_passes=6):
        return fail()

    # substitute pinned columns and absorb singleton rows into bounds
    while True:
        sub = compiled.substitute((ub - lb) <= FIX_EPS, lb)
        count = np.diff(sub.indptr)
        changed = len(sub.data) < len(compiled.data) or bool(np.any(count == 1))
        if sub.first_empty_failure is not None:
            return fail()
        single = np.flatnonzero(count == 1)
        at = sub.indptr[single]
        for j, a, r, le, ge in zip(
            sub.indices[at].tolist(), sub.data[at].tolist(), sub.rhs[single].tolist(),
            sub.le[single].tolist(), sub.ge[single].tolist(),
        ):
            if le:
                if a > 0:
                    ub[j] = min(ub[j], r / a)
                else:
                    lb[j] = max(lb[j], r / a)
            if ge:
                if a > 0:
                    lb[j] = max(lb[j], r / a)
                else:
                    ub[j] = min(ub[j], r / a)
        rows = sub.take(count >= 2)
        if np.any(int_mask):
            lb[int_mask] = np.ceil(lb[int_mask] - INT_TOL)
            ub[int_mask] = np.floor(ub[int_mask] + INT_TOL)
        if np.any(lb > ub + 1e-7):
            return fail()
        if not changed:
            break
        compiled = rows
        if not _propagate(compiled, lb, ub, int_mask, max_passes=2):
            return fail()
    if rows.m < compiled.m:  # the last pass only dropped empty rows
        compiled = rows

    fixed = (ub - lb) <= FIX_EPS
    local = np.flatnonzero(~fixed)
    keep = start.keep[local]
    full_values = start.full_values.copy()
    pinned = lb[fixed]
    pinned_int = int_mask[fixed]
    # + 0.0: a bound ceil'ed up from just below zero is -0.0
    pinned[pinned_int] = np.round(pinned[pinned_int]) + 0.0
    full_values[start.keep[fixed]] = pinned
    return _Reduced(
        keep=keep,
        lb=lb[local],
        ub=ub[local],
        binary=start.binary[local],
        int_mask=int_mask[local],
        rows=compiled.relabel(local),
        full_values=full_values,
    )


def _objective_on(red: _Reduced, objective: Objective | None):
    """``objective`` on ``red``'s kept columns: ``(cost, kept, constant)``.

    ``cost`` holds the coefficients on the reduced columns, ``kept``
    their reduced indices in the objective's order, and ``constant``
    the objective's constant with each pinned column's term added at
    its value in ``full_values``, left to right in the objective's
    order. No objective maps to zero.
    """
    cost = np.zeros(len(red.keep))
    kept = []
    if objective is None:
        return cost, kept, 0.0
    pos = np.full(len(red.full_values), -1)  # reduced index, -1 when pinned
    pos[red.keep] = np.arange(len(red.keep))
    pos = pos.tolist()
    constant = objective.constant
    for j, c in objective.coeffs.items():
        p = pos[j]
        if p >= 0:
            cost[p] += c
            kept.append(p)
        else:
            constant += c * red.full_values[j]
    return cost, kept, constant


class _Proofs:
    """The infeasibility proofs of a search's node LPs, as one matrix.

    A proof ``(a, lo, hi)`` (:meth:`.highs.HighsLp.infeasibility_proof`)
    says that every point of the LP relaxation has ``a @ x`` in
    ``[lo, hi]``. It aggregates the rows HiGHS holds, cuts included, and
    cuts are added only before the first node, so a proof from one node
    holds at every later node of the search. A node's box over which
    some proof's ``a @ x`` cannot reach its interval has an infeasible
    LP (:meth:`covers`). The last :data:`PROOFS` proofs are kept, each
    row split into its positive and its negative part.
    """

    def __init__(self, n: int):
        self.n = n
        self.count = 0  # proofs added so far; the next goes to row count % PROOFS
        self.parts = None  # (PROOFS, 2n), per row max(a, 0) then min(a, 0)
        self.lo = np.full(PROOFS, -np.inf)
        self.hi = np.full(PROOFS, np.inf)

    def add(self, proof) -> None:
        """Keep ``proof``, in place of the oldest when :data:`PROOFS` are
        kept already; None keeps nothing."""
        if proof is None:
            return
        if self.parts is None:
            self.parts = np.zeros((PROOFS, 2 * self.n))
        a, lo, hi = proof
        k = self.count % PROOFS
        np.maximum(a, 0.0, out=self.parts[k, : self.n])
        np.minimum(a, 0.0, out=self.parts[k, self.n :])
        self.lo[k], self.hi[k] = lo, hi
        self.count += 1

    def covers(self, lb, ub) -> bool:
        """Whether a kept proof shows the box ``[lb, ub]`` infeasible.

        A proof's least and greatest ``a @ x`` over the box come from one
        product of the box's corners with the kept rows. An infinite
        bound under a zero entry gives NaN, which proves nothing.
        """
        if not self.count:
            return False
        k = min(self.count, PROOFS)
        corners = np.concatenate((lb, ub, ub, lb)).reshape(2, 2 * self.n)
        least, most = corners @ self.parts[:k].T
        return bool(((least > self.hi[:k]) | (most < self.lo[:k])).any())


def _warm_on(problem: MipProblem, red: _Reduced, warm: np.ndarray) -> np.ndarray:
    """``warm``, a point in stated column order, on ``red``'s columns,
    with its integers rounded.

    Raises :class:`MipError` naming what the point breaks: a column
    ``red`` pinned at another value, or, with its integers rounded, a
    bound of ``red`` or one of its rows, each by more than
    :data:`WARM_TOL`. The rows are the ones the search holds; a broken
    one is named by the stated rows the point breaks
    (:meth:`.problem.MipProblem.check_point`), or by its index among
    the reduced rows when it breaks none of them.
    """
    names = problem.names
    off = np.abs(warm - red.full_values) > WARM_TOL
    off[red.keep] = False
    if off.any():
        j = int(np.argmax(off))
        raise MipError(
            f"warm point has {names[j]!r} at {warm[j]}, pinned at {red.full_values[j]}"
        )
    x = warm[red.keep]
    x[red.int_mask] = np.round(x[red.int_mask]) + 0.0  # no -0.0
    out = (x < red.lb - WARM_TOL) | (x > red.ub + WARM_TOL)
    if out.any():
        p = int(np.argmax(out))
        raise MipError(
            f"warm point has {names[red.keep[p]]!r} at {x[p]}, outside "
            f"[{red.lb[p]}, {red.ub[p]}]"
        )
    rows = red.rows
    act = np.bincount(
        np.repeat(np.arange(rows.m), np.diff(rows.indptr)), rows.data * x[rows.indices],
        minlength=rows.m,
    )
    broken = (rows.le & (act > rows.rhs + WARM_TOL)) | (rows.ge & (act < rows.rhs - WARM_TOL))
    if broken.any():
        stated = [b for b in problem.check_point(warm, WARM_TOL) if b.startswith("row:")]
        row = stated[0][4:] if stated else f"{int(np.argmax(broken))} of the reduced rows"
        raise MipError(f"warm point breaks row {row!r}")
    return x


def _reduced_cost_box(lp: HighsLp, x, lb, ub, int_idx, gap: float, maximize: bool) -> None:
    """Tighten the integer bounds of ``[lb, ub]``, in place, to the part
    of the box where a point can be no worse than an incumbent ``gap``
    short of the LP bound whose point is ``x``, the last solve of
    ``lp``.

    Moving a column off the bound it sits at by ``t`` costs the LP bound
    at least ``|d| t``, with ``d`` its reduced cost
    (:meth:`.highs.HighsLp.reduced_costs`), when ``d`` makes the
    objective worse that way. So an integer column at its lower bound
    keeps ``ub = lb + floor(gap / |d|)``, and one at its upper bound
    ``lb = ub - floor(gap / |d|)`` (Nemhauser & Wolsey, "Integer and
    Combinatorial Optimization", 1988). Only costs larger than
    :data:`.highs.DUAL_TOL` count: a smaller one is HiGHS's tolerance
    around zero. ``x`` stays in the box.
    """
    d = lp.reduced_costs()[int_idx]
    worse_up = -d if maximize else d  # how fast the objective worsens as x_j rises
    xi, lo, hi = x[int_idx], lb[int_idx], ub[int_idx]
    at_lo = (worse_up > DUAL_TOL) & (xi <= lo + INT_TOL)
    at_hi = (worse_up < -DUAL_TOL) & (xi >= hi - INT_TOL)
    reach = np.floor(gap / np.where(at_lo | at_hi, np.abs(worse_up), 1.0))
    ub[int_idx[at_lo]] = np.minimum(hi[at_lo], lo[at_lo] + reach[at_lo])
    lb[int_idx[at_hi]] = np.maximum(lo[at_hi], hi[at_hi] - reach[at_hi])


def _fractional_index(x, int_idx) -> int | None:
    """Most fractional integer column, or None if all are integral.

    A column replaces the best so far only when its distance to the
    nearest integer is larger by more than 1e-12, so among near-equal
    distances (LP noise around 0.5) the first column wins.
    """
    f = x[int_idx] - np.floor(x[int_idx])
    dist = np.minimum(f, 1.0 - f)
    best = None
    best_score = -1.0
    for p in np.flatnonzero(dist > INT_TOL):
        if dist[p] > best_score + 1e-12:
            best_score = dist[p]
            best = int(int_idx[p])
    return best


def branch_and_bound(
    problem: MipProblem,
    cfg: SolveConfig | None = None,
    objective: Objective | None = None,
    warm: np.ndarray | None = None,
    reduced: _Reduced | None = None,
) -> Solution:
    """Solve a MIP to proven optimality within the configured gap.

    Reduction first, then root-only cut rounds for the enabled
    families, then best-first branch and bound. ``objective`` overrides
    the problem's primary objective (:func:`lexicographic_solve`'s stage 2);
    with neither, the search maximizes zero. ``warm`` seeds the
    incumbent with a known integer-feasible point, one value per stated
    column in column order, and :class:`MipError` is raised when it
    breaks a pinned value, bound or row (:func:`_warm_on`). It prunes,
    ends the cut rounds once the root bound meets it, and tightens the
    root box by reduced cost (:func:`_reduced_cost_box`); it never
    changes the optimum. ``reduced`` is the reduction to search (:func:`_reduce`);
    without it the search reduces ``problem`` first. The objective is
    mapped onto the reduction once (:func:`_objective_on`).
    """
    cfg = cfg or SolveConfig()
    obj = objective or problem.objective
    sense = obj.sense if obj is not None else MAX
    t0 = time.perf_counter()
    maximize = sense == MAX
    cut_counts = {"gomory": 0, "cover": 0}
    red = _reduce(problem) if reduced is None else reduced

    def out_of_time():
        return cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit

    relaxation = None

    def make_solution(status, red_values=None, obj_value=None, bound=None, nodes=0):
        sol = Solution(
            status=status,
            node_count=nodes,
            lp_iterations=relaxation.iterations if relaxation else 0,
            cut_counts=dict(cut_counts),
            wall_time=time.perf_counter() - t0,
        )
        if red_values is not None:
            full = red.full_values.copy()
            full[red.keep] = red_values
            sol.values = dict(zip(problem.names, full.tolist()))
            sol.objective_value = obj_value
        sol.best_bound = bound
        return sol

    if not red.feasible:
        return make_solution(INFEASIBLE)
    cost, kept, constant = _objective_on(red, obj)
    if len(red.keep) == 0:
        return make_solution(OPTIMAL, np.zeros(0), constant, bound=constant)

    relaxation = HighsLp(cost, red.rows, sense)
    try:
        int_idx = np.flatnonzero(red.int_mask)
        lb, ub = red.lb.copy(), red.ub.copy()

        def integral(x):
            return bool(np.all(np.abs(x[int_idx] - np.round(x[int_idx])) <= INT_TOL))

        def lp(lo, hi):
            res = relaxation.solve(lo, hi)
            if res.objective is not None:
                res.objective += constant
            return res

        incumbent = None
        incumbent_value = -np.inf if maximize else np.inf
        if warm is not None:
            incumbent = _warm_on(problem, red, warm)
            incumbent_value = constant + sum(cost[p] * incumbent[p] for p in kept)

        def better(a, b):
            return a > b + 1e-12 if maximize else a < b - 1e-12

        def closed(bound):
            """Whether a bound leaves no room to beat the incumbent by
            more than ``gap_tol``."""
            return incumbent is not None and (
                not better(bound, incumbent_value)
                or abs(bound - incumbent_value) <= cfg.gap_tol * max(1.0, abs(incumbent_value))
            )

        root = lp(lb, ub)
        # cuts only at an optimal root: an integral one is already optimal,
        # and an infeasible or unbounded one is the answer; none once the
        # root bound meets the incumbent, since no cut changes the outcome
        if root.status == OPTIMAL and (cfg.gomory or cfg.cover) and not integral(root.x):
            for _ in range(MAX_CUT_ROUNDS):
                if closed(root.objective):
                    break
                added = 0
                # the model's last solve is this root: its basis gives the rows
                if cfg.gomory:
                    g = cutmod.gomory_cuts(
                        relaxation, lb, ub, red.int_mask, root.x, max_cuts=CUTS_PER_ROUND
                    )
                    if g:
                        relaxation.add_rows(g)
                        cut_counts["gomory"] += len(g)
                        added += len(g)
                if cfg.cover:
                    # over the rows as they stand: this round's Gomory cuts included
                    cv = cutmod.cover_cuts(
                        relaxation.rows, red.binary, root.x, max_cuts=CUTS_PER_ROUND
                    )
                    if cv:
                        relaxation.add_rows(cv)
                        cut_counts["cover"] += len(cv)
                        added += len(cv)
                if added == 0:
                    break
                root = lp(lb, ub)
                if root.status != OPTIMAL or integral(root.x):
                    break
        if root.status != OPTIMAL:
            return make_solution(root.status)

        # the node whose LP HiGHS solved last, by its heap sequence number;
        # None before the first node and after a polish
        held = None

        def exact_value(x):
            """``(objective, point)`` at x's rounded integers, or None.

            The integers are fixed at their rounded values within the root
            bounds and the LP is solved again, so the continuous values and
            the objective come from a point whose integers are exact. Without
            it, a binary within ``INT_TOL`` of 0 or 1 lets a big-M branch row
            pass a split threshold, and the objective credits a leaf that the
            point does not reach. None when that LP is not optimal: the point
            is no incumbent. HiGHS then holds no node's basis.
            """
            nonlocal held
            held = None
            ints = np.round(x[int_idx]) + 0.0  # HiGHS may return -0.0
            fixed_lb, fixed_ub = red.lb.copy(), red.ub.copy()
            fixed_lb[int_idx] = fixed_ub[int_idx] = ints
            res = lp(fixed_lb, fixed_ub)
            if res.status != OPTIMAL:
                return None
            res.x[int_idx] = ints
            return res.objective, res.x

        def offer(x):
            """Make x's exact point the incumbent if it is better."""
            nonlocal incumbent, incumbent_value
            exact = exact_value(x)
            if exact is not None and (incumbent is None or better(exact[0], incumbent_value)):
                incumbent_value, incumbent = exact

        heap = []
        seq = 0
        node_count = 0
        proofs = _Proofs(len(red.keep))

        def push(bound, depth, lb, ub, basis=None, parent=None):
            """Queue a node; a child carries its parent's basis and number."""
            nonlocal seq
            prio = -bound if maximize else bound
            heapq.heappush(heap, (prio, -depth, seq, bound, lb, ub, basis, parent))
            seq += 1

        if integral(root.x):
            if (exact := exact_value(root.x)) is not None:
                val, xr = exact
                return make_solution(OPTIMAL, xr, val, bound=root.objective)
        elif incumbent is not None and not closed(root.objective):
            # the margin covers the LP bound's error from HiGHS's dual tolerance
            gap = abs(root.objective - incumbent_value) + PROOF_MARGIN * DUAL_TOL * max(
                1.0, abs(incumbent_value)
            )
            _reduced_cost_box(relaxation, root.x, lb, ub, int_idx, gap, maximize)
        push(root.objective, 0, lb, ub)

        status = OPTIMAL
        while heap:
            if out_of_time():
                status = TIME_LIMIT
                break
            if cfg.node_limit is not None and node_count >= cfg.node_limit:
                status = NODE_LIMIT
                break
            prio, negdepth, node, bound, lb_n, ub_n, basis, parent = heapq.heappop(heap)
            if closed(bound):
                continue
            node_lb, node_ub = lb_n.copy(), ub_n.copy()
            node_count += 1
            # over the reduced rows only: cut rows tighten the LP, not bounds
            if not _propagate(red.rows, node_lb, node_ub, red.int_mask, max_passes=2):
                continue
            if proofs.covers(node_lb, node_ub):
                # ends as its infeasible LP would: the next node restores
                held = node
                continue
            # start from the parent's basis, unless HiGHS holds it already
            if basis is not None and parent != held:
                relaxation.restore(basis)
            res = lp(node_lb, node_ub)
            held = node
            if res.status != OPTIMAL:
                if res.status == INFEASIBLE:
                    proofs.add(relaxation.infeasibility_proof())
                continue
            if incumbent is not None and not better(res.objective, incumbent_value):
                continue
            j = None if integral(res.x) else _fractional_index(res.x, int_idx)
            if j is None:  # integral, or numerically integral after all
                offer(res.x)
                continue
            v = res.x[j]
            depth = -negdepth + 1
            basis = relaxation.snapshot()
            left_ub = node_ub.copy()
            left_ub[j] = np.floor(v)
            if node_lb[j] <= left_ub[j] + BOUND_EPS:
                push(res.objective, depth, node_lb, left_ub, basis, node)
            right_lb = node_lb.copy()
            right_lb[j] = np.ceil(v)
            if right_lb[j] <= node_ub[j] + BOUND_EPS:
                push(res.objective, depth, right_lb, node_ub, basis, node)

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
                return make_solution(status, bound=best_bound, nodes=node_count)
            return make_solution(INFEASIBLE, nodes=node_count)
        return make_solution(
            status,
            incumbent,
            incumbent_value,
            bound=float(best_bound),
            nodes=node_count,
        )
    finally:
        relaxation.release()


def lp_solve(problem: MipProblem) -> Solution:
    """Solve the LP relaxation (integrality dropped) of a problem.

    The solution carries variable values and the relaxation objective.
    The reduction pass is skipped so the relaxation is solved exactly
    as stated.
    """
    obj = problem.objective
    sol = Solution(status=INFEASIBLE)
    red = _unreduced(problem)
    cost, _, constant = _objective_on(red, obj)
    if problem.n_vars == 0:
        sol.status = OPTIMAL
        sol.objective_value = constant
        return sol
    lp = HighsLp(cost, red.rows, obj.sense if obj is not None else MAX)
    try:
        res = lp.solve(red.lb, red.ub)
    finally:
        lp.release()
    sol.lp_iterations = res.iterations
    if res.status != OPTIMAL:
        sol.status = res.status
        return sol
    sol.status = OPTIMAL
    sol.values = dict(zip(problem.names, res.x.tolist()))
    sol.objective_value = res.objective + constant
    sol.best_bound = sol.objective_value
    return sol


def fix_variables(problem: MipProblem, assignments: dict[str, float]) -> MipProblem:
    """Pin variables to values by collapsing their bounds.

    Names that map to composite affine expressions (through
    ``expr_map``) are fixed with an equality row instead. NaN values,
    out-of-bounds values and fractional values for integer variables
    raise.
    """
    fixed = problem.copy()
    kinds, lb, ub = fixed.kinds, fixed.lb, fixed.ub
    for name, value in assignments.items():
        value = float(value)
        if math.isnan(value):
            raise MipError(f"fix of {name!r} to NaN")
        try:
            idx = fixed.var_index(name)
        except KeyError:
            if name not in fixed.expr_map:
                raise MipError(f"unknown variable {name!r}") from None
            expr = fixed.expr_map[name]
            fixed.add_constraint(
                dict(expr.terms), EQ, value - expr.constant, name=f"fix:{name}"
            )
            continue
        lo, hi = lb[idx].item(), ub[idx].item()
        if value < lo - 1e-9 or value > hi + 1e-9:
            raise MipError(f"fix of {name!r} to {value} violates bounds [{lo}, {hi}]")
        if kinds[idx] != CONTINUOUS:
            if abs(value - round(value)) > INT_TOL:
                raise MipError(f"fix of integer variable {name!r} to fractional {value}")
            value = float(round(value))
        lb[idx] = ub[idx] = value
    return fixed


def lexicographic_solve(
    problem: MipProblem, cfg: SolveConfig | None = None
) -> Solution:
    """Two-stage solve: optimize the primary objective, then the
    secondary subject to near-retention of the primary optimum.

    Stage 2 adds ``g >= g* - eps`` (or ``<= g* + eps`` when minimizing)
    with ``eps = lex_slack_rel * |g*|``; exact retention is numerically
    brittle, so a relative slack is used instead.

    The problem is reduced once, for stage 1. Stage 2 appends the
    retention row to stage 1's reduced rows, in the reduced columns, and
    goes on reducing from stage 1's bounds; the stated problem is not
    copied or changed. That reduction is stage 2's start
    (:func:`_stage2_start`). Stage 2 searches it as it is, with the
    secondary as its objective and stage 1's point, an array in stated
    column order, as its warm start.

    Neither stage 1 nor stage 2's start reads the secondary, so queries
    on one model share both: they come from a memo of the last
    :data:`STAGE1_MEMO_SIZE` stage-1 problems solved, when one of them is
    this one under the same ``lex_slack_rel`` (:func:`_stage1`). A hit
    runs no reduction at all.
    A reused stage 1 reports the node, LP-iteration and cut counts of the
    search that produced it, so the returned solution is the same either
    way, bit for bit, apart from ``wall_time`` and ``stage1_reused``. A
    solve with a ``time_limit`` neither reads nor fills the memo, since
    its outcome depends on the clock.
    """
    cfg = cfg or SolveConfig()
    if problem.objective is None or problem.secondary is None:
        raise MipError("lexicographic solve needs a primary and a secondary objective")
    started = time.perf_counter()
    g = problem.objective
    stage1, x1, start2 = _stage1(problem, cfg)
    if start2 is None:  # stage 1 has no point
        return replace(stage1, wall_time=time.perf_counter() - started)
    stage2 = branch_and_bound(
        problem, cfg, objective=problem.secondary, warm=x1, reduced=start2
    )
    if stage2.status not in STOPPED_WITH_POINT or not stage2.values:
        # retention row plus solver tolerance squeezed stage 2 dry, or
        # stage 2 stopped before finding a point: return stage 1, marked
        return replace(
            stage1,
            values=dict(zip(problem.names, x1.tolist())),
            secondary_value=problem.secondary.value(x1),
            stage2_fallback=True,
            wall_time=time.perf_counter() - started,
        )
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
        wall_time=time.perf_counter() - started,
        stage1_reused=stage1.stage1_reused,
    )


# Stage-1 outcomes, least recently used first. An entry holds stage 2's
# start (:func:`_stage2_start`; None when stage 1 has no point), stage
# 1's solution without its values, and its point as an array in the
# stated column order, which stage 2 takes as its warm start. Stage 1's
# own reduction is not kept: no hit reads it. The benchmark's cuts-small
# round keeps 40 stage-1 problems in play (10 days under 4 cut settings,
# each shared by 4 queries in a shuffled order), the most of any
# workload; the capacity leaves room above that.
STAGE1_MEMO_SIZE = 64
_stage1_memo: OrderedDict[
    bytes, tuple[_Reduced | None, Solution, np.ndarray | None]
] = OrderedDict()


def clear_stage1_memo() -> None:
    """Forget every stage-1 outcome the memo keeps.

    The next lexicographic solve of each model then runs its stage-1
    search again: for callers that time solves, or replay them as
    checks made apart from the first solve.
    """
    _stage1_memo.clear()


def _stage1_key(start: _Reduced, objective: Objective, cfg: SolveConfig) -> bytes:
    """The bytes of everything stage 1 and stage 2's start read.

    The column count, kinds and bounds; the stated rows' CSR arrays,
    rhs and sense masks; the primary's sense, coefficients in their
    order and constant; the configuration the search reads; and
    ``lex_slack_rel``. The counts up front fix where each array's bytes
    end.
    """
    rows = start.rows
    coeffs = objective.coeffs
    return b"".join(
        a.tobytes()
        for a in (
            np.array(
                [len(start.lb), rows.m, len(rows.data), len(coeffs),
                 objective.sense == MAX, cfg.gomory, cfg.cover,
                 cfg.node_limit is None, cfg.node_limit or 0],
                dtype=np.int64,
            ),
            np.array([objective.constant, cfg.gap_tol, cfg.lex_slack_rel], dtype=float),
            start.int_mask, start.binary, start.lb, start.ub,
            rows.indptr.astype(np.int64, copy=False),
            rows.indices.astype(np.int64, copy=False),
            rows.data, rows.rhs, rows.le, rows.ge,
            np.fromiter(coeffs, dtype=np.int64, count=len(coeffs)),
            np.fromiter(coeffs.values(), dtype=float, count=len(coeffs)),
        )
    )


def _stage1(
    problem: MipProblem, cfg: SolveConfig
) -> tuple[Solution, np.ndarray | None, _Reduced | None]:
    """Stage 1 of :func:`lexicographic_solve`: its solution without
    values, its point as an array in stated column order, and stage 2's
    start; both of the last are None when stage 1 has no point.

    All three come from the memo when it holds this stage-1 problem
    under this ``lex_slack_rel``, and the solution then says
    ``stage1_reused``; a hit goes straight on to stage 2's search.
    Otherwise the problem is reduced and searched, stage 2's start is
    made, and all three are kept. The kept point and start are frozen,
    since every later hit hands them on again.
    """
    start = _unreduced(problem)
    key = None if cfg.time_limit is not None else _stage1_key(start, problem.objective, cfg)
    found = _stage1_memo.get(key) if key is not None else None
    if found is not None:
        _stage1_memo.move_to_end(key)
        start2, kept, x = found
        return replace(kept, cut_counts=dict(kept.cut_counts), stage1_reused=True), x, start2
    red1 = _reduce(problem, start)
    sol = branch_and_bound(problem, cfg, reduced=red1)
    start2 = _stage2_start(problem, red1, sol, cfg)
    # a point exists exactly when stage 2 has a start
    x = None if start2 is None else sol.value_array(problem)
    sol = replace(sol, values={})
    if key is not None:
        if start2 is not None:
            for a in (x, start2.keep, start2.lb, start2.ub, start2.binary, start2.int_mask,
                      start2.full_values):
                a.flags.writeable = False
        _stage1_memo[key] = (start2, replace(sol, cut_counts=dict(sol.cut_counts)), x)
        if len(_stage1_memo) > STAGE1_MEMO_SIZE:
            _stage1_memo.popitem(last=False)
    return sol, x, start2


def _stage2_start(
    problem: MipProblem, red1: _Reduced, stage1: Solution, cfg: SolveConfig
) -> _Reduced | None:
    """Stage 1's reduction ``red1`` with the retention row appended, in
    the reduced columns, and reduced again from stage 1's bounds; None
    when stage 1 has no point.

    Stage 1's bounds and rows hold for stage 2, whose region is stage
    1's cut by one row. The start depends on the stage-1 problem and on
    ``lex_slack_rel`` only, and carries no objective, so every query's
    stage 2 searches it as it is.
    """
    if stage1.status not in STOPPED_WITH_POINT or stage1.objective_value is None:
        return None
    g_star = stage1.objective_value
    eps = cfg.lex_slack_rel * abs(g_star) + 1e-9
    retain = _retention_row(problem, red1, g_star, eps)
    return _reduce(problem, replace(red1, rows=red1.rows.append(retain)))


def _retention_row(
    problem: MipProblem, red: _Reduced, g_star: float, eps: float
) -> CompiledRows:
    """The stage-2 row ``g >= g* - eps`` (``<=`` and ``+ eps`` when
    minimizing) over ``red``'s kept columns.

    The row is the primary's coefficients in their order, zeros dropped
    as a stated row drops them; the terms of columns ``red`` pinned
    leave it with their values moved into the rhs, in entry order
    (:meth:`.rows.CompiledRows.substitute`).
    """
    g = problem.objective
    coeffs = {j: a for j, a in g.coeffs.items() if a != 0.0}
    maximize = g.sense == MAX
    rhs = g_star - eps - g.constant if maximize else g_star + eps - g.constant
    row = CompiledRows(
        problem.n_vars,
        indptr=np.array([0, len(coeffs)], dtype=np.intp),
        indices=np.fromiter(coeffs, dtype=np.intp, count=len(coeffs)),
        data=np.fromiter(coeffs.values(), dtype=float, count=len(coeffs)),
        rhs=np.array([rhs]),
        le=np.array([not maximize]),
        ge=np.array([maximize]),
    )
    pinned = np.ones(problem.n_vars, dtype=bool)
    pinned[red.keep] = False
    return row.substitute(pinned, red.full_values).relabel(red.keep)
