"""Gomory separation against a row-by-row reference separator.

``per_row_gomory_cuts`` is the separator the solver used before it read
its source rows in batches: it reads HiGHS's basis statuses
(``getBasis``), then one tableau row at a time, and builds each cut's
coefficients with ``rows.matrix_t @ weight``. ``gomory_cuts`` reads no
status and must give the same cut rows bit for bit, on random problems,
on the query models of both perfbench worlds and on the fixed models the
agent loop solves. The sides it derives for the nonbasics must equal
the statuses HiGHS reports after every root and cut-round solve.
"""

import weakref

import numpy as np
import pytest

from fleetopt.agent import AgentConfig, run_agent
from fleetopt.bench import make_history
from fleetopt.mip import SolveConfig, lexicographic_solve
from fleetopt.mip import cuts as cutmod
from fleetopt.mip import highs
from fleetopt.mip.cuts import MAX_RANGE, TINY, _cut_rows, gomory_cuts, nonbasic_sides
from fleetopt.mip.highs import HighsLp
from fleetopt.mip.solver import _unreduced

from rowsets import row_set
from test_lexicographic_oracle import random_problem
from test_mip import blocks_problem, random_integer_problem
from test_model_digests import QUERIES, agent_model, world_and_forest

BASIC = int(highs._core.HighsBasisStatus.kBasic)
AT_LOWER = int(highs._core.HighsBasisStatus.kLower)
AT_UPPER = int(highs._core.HighsBasisStatus.kUpper)


def basis_statuses(lp):
    """HiGHS's status of each column and each row activity, as ints."""
    basis = lp._highs.getBasis()
    return (
        np.array([int(s) for s in basis.col_status]),
        np.array([int(s) for s in basis.row_status]),
    )


def tableau_row(tab, i):
    """Tableau row i of ``tab`` as ``(reduced, binv)``.

    Every x satisfies ``reduced @ x - binv @ (A @ x) == 0``.
    ``reduced`` is 0 at every basic column and ``binv`` at every
    basic row activity, except at row i's own basic variable: there
    a basic column has ``reduced`` 1, a basic row activity ``binv`` 1.
    """
    binv = tab.binv([i])
    return tab.reduced(binv)[0], binv[0]


def tidy(coef, rhs, lb, ub):
    """``coef @ x >= rhs`` without its tiny coefficients, or None.

    A tiny coefficient goes only where its column is bounded on the side
    that relaxes the rhs; None when the cut is empty or its coefficients
    span more than ``MAX_RANGE``. The separator applies this rule to a
    batch of cuts at once (``cuts._tidy_rows``); this one-cut form states
    it plainly.
    """
    size = np.abs(coef)
    if not size.any():
        return None
    tiny = np.flatnonzero((size > 0) & (size < TINY * size.max()))
    for j in tiny:
        most = max(coef[j] * lb[j], coef[j] * ub[j])  # largest value of the term
        if np.isfinite(most):
            rhs -= most
            coef[j] = 0.0
    size = np.abs(coef[coef != 0])
    if size.max() > MAX_RANGE * size.min():
        return None
    return coef, rhs


def per_row_gomory_cuts(lp, lb, ub, int_mask, x, max_cuts=8,
                        min_violation=cutmod.MIN_VIOLATION):
    """The reference separator: statuses from ``getBasis``, one row at a time."""
    rows = lp.rows
    tab = lp.tableau()
    col = np.maximum(tab.basic, 0)
    f = x[col] - np.floor(x[col])
    dist = np.minimum(f, 1 - f)
    source = (tab.basic >= 0) & int_mask[col] & (dist >= cutmod.MIN_FRACTION)
    order = np.flatnonzero(source)[np.argsort(-dist[source], kind="stable")]
    out = []
    if len(order) == 0:
        return _cut_rows(rows.n, out, ge=True)

    col_status, row_status = basis_statuses(lp)
    row_lower, row_upper = rows.row_bounds
    col_term = (col_status != BASIC) & (ub - lb > 0)
    row_term = (row_status != BASIC) & (row_lower < row_upper)
    col_up = col_status == AT_UPPER
    row_up = row_status == AT_UPPER
    col_at = np.where(col_up, ub, lb)
    row_at = np.where(row_up, row_upper, row_lower)
    col_ok = ((col_status == AT_LOWER) | col_up) & np.isfinite(col_at)
    row_ok = ((row_status == AT_LOWER) | row_up) & np.isfinite(row_at)
    col_int = int_mask & (col_at == np.floor(col_at))

    for i in order:
        if len(out) >= max_cuts:
            break
        f0 = f[i]
        reduced, binv = tableau_row(tab, i)
        cols = np.flatnonzero(col_term & (reduced != 0))
        rws = np.flatnonzero(row_term & (binv != 0))
        if not (col_ok[cols].all() and row_ok[rws].all()):
            continue
        a_col = np.where(col_up[cols], -1.0, 1.0) * reduced[cols]
        a_row = np.where(row_up[rws], 1.0, -1.0) * binv[rws]
        frac = a_col - np.floor(a_col)
        g_col = np.where(
            col_int[cols],
            np.where(frac <= f0, frac / f0, (1 - frac) / (1 - f0)),
            np.where(a_col >= 0, a_col / f0, -a_col / (1 - f0)),
        )
        g_row = np.where(a_row >= 0, a_row / f0, -a_row / (1 - f0))
        s_col = np.where(col_up[cols], -g_col, g_col)
        s_row = np.where(row_up[rws], -g_row, g_row)
        rhs = 1.0 + s_col @ col_at[cols] + s_row @ row_at[rws]
        weight = np.zeros(rows.m)
        weight[rws] = s_row
        coef = rows.matrix_t @ weight
        coef[cols] += s_col
        cut = tidy(coef, rhs, lb, ub)
        if cut is not None and cut[0] @ x <= cut[1] - min_violation:
            coef, rhs = cut
            nz = np.flatnonzero(coef)
            out.append((nz, coef[nz], rhs))
    return _cut_rows(rows.n, out, ge=True)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def assert_same_cuts(got, want):
    assert (got.n, got.m) == (want.n, want.m)
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert bits(got.data) == bits(want.data)
    assert bits(got.rhs) == bits(want.rhs)
    assert got.le.tolist() == want.le.tolist() and got.ge.tolist() == want.ge.tolist()


def assert_sides_match_highs(lp, lb, ub, x):
    """The sides derived from the basic variables and x are HiGHS's statuses."""
    col_status, row_status = basis_statuses(lp)
    side = nonbasic_sides(lp.tableau().basic, lp.rows, lb, ub, x)
    assert side.col_term.tolist() == ((col_status != BASIC) & (ub > lb)).tolist()
    t = side.col_term
    assert side.col_up[t].tolist() == (col_status[t] == AT_UPPER).tolist()
    assert side.col_ok[t].tolist() == np.isin(col_status[t], [AT_LOWER, AT_UPPER]).tolist()
    lower, upper = lp.rows.row_bounds
    assert side.row_term.tolist() == ((row_status != BASIC) & (lower < upper)).tolist()
    t = side.row_term
    assert side.row_up[t].tolist() == (row_status[t] == AT_UPPER).tolist()
    assert np.isin(row_status[t], [AT_LOWER, AT_UPPER]).all()


@pytest.fixture
def checked(monkeypatch):
    """Counts of checked calls while every search's separator and root
    solves are compared with the reference and with HiGHS's statuses."""
    seen = {"calls": 0, "cuts": 0, "sides": 0}
    real_gomory, real_solve = cutmod.gomory_cuts, HighsLp.solve
    at_root = weakref.WeakKeyDictionary()  # per model: root bounds, until a node

    def compared(lp, lb, ub, int_mask, x, max_cuts=8, **kw):
        got = real_gomory(lp, lb, ub, int_mask, x, max_cuts=max_cuts, **kw)
        assert_same_cuts(got, per_row_gomory_cuts(lp, lb, ub, int_mask, x, max_cuts, **kw))
        seen["calls"] += 1
        seen["cuts"] += len(got)
        return got

    def solve(lp, lb, ub):
        res = real_solve(lp, lb, ub)
        root = at_root.setdefault(lp, (lb.copy(), ub.copy()))
        if root is not None and not (np.array_equal(lb, root[0]) and np.array_equal(ub, root[1])):
            root = at_root[lp] = None  # a node: the root and its cut rounds are done
        if root is not None and res.status == "Optimal":
            assert_sides_match_highs(lp, lb, ub, res.x)
            seen["sides"] += 1
        return res

    monkeypatch.setattr(cutmod, "gomory_cuts", compared)
    monkeypatch.setattr(HighsLp, "solve", solve)
    return seen


def root_of(problem):
    red = _unreduced(problem, problem.objective)
    lp = HighsLp(red.cost, red.rows, problem.objective.sense)
    return red, lp, lp.solve(red.lb, red.ub)


def test_random_problems_at_every_cut_budget():
    # small budgets read the source rows in more than one batch whenever a
    # row of a batch yields no cut
    rng = np.random.default_rng(1515)
    problems = [blocks_problem()] + [random_integer_problem(rng) for _ in range(60)]
    problems += [random_problem(rng) for _ in range(60)]
    calls = cuts = 0
    for p in problems:
        red, lp, res = root_of(p)
        if res.status != "Optimal":
            continue
        assert_sides_match_highs(lp, red.lb, red.ub, res.x)
        for max_cuts in (0, 1, 2, 3, 8, 50):
            args = (lp, red.lb, red.ub, red.int_mask, res.x)
            got = gomory_cuts(*args, max_cuts=max_cuts)
            assert_same_cuts(got, per_row_gomory_cuts(*args, max_cuts=max_cuts))
            assert len(got) <= max_cuts
            calls += 1
            cuts += len(got)
    assert calls > 300 and cuts > 100


def test_searches_of_random_problems(checked):
    rng = np.random.default_rng(2929)
    for _ in range(40):
        for cfg in (SolveConfig(), SolveConfig(cover=True)):
            lexicographic_solve(random_problem(rng), cfg)
    assert checked["calls"] > 20 and checked["cuts"] > 20
    assert checked["sides"] > checked["calls"]


@pytest.mark.parametrize("world, day, history_m, seed", [("small", 5, 6, 1), ("desk", 3, 14, 3)])
def test_query_and_agent_models_of_the_perfbench_worlds(checked, world, day, history_m, seed):
    for query in QUERIES:
        mip, _ = agent_model(world, day, query)
        lexicographic_solve(mip, SolveConfig())
    w, forest = world_and_forest(world)
    history = make_history(w, forest, m=history_m, seed=seed)
    inst, exo = w.instance(day), w.days[day].exogenous()
    for query in QUERIES:
        run_agent(query, inst, exo, forest, history, AgentConfig())
    assert checked["sides"] > 0
    if world == "desk":  # Gomory adds no cut on the small world
        assert checked["calls"] > 20 and checked["cuts"] > 100


def test_a_nonbasic_column_at_neither_bound_is_free():
    # HiGHS's free status, which no model here has produced: a source row
    # holding such a column is skipped, so its side must not be guessed
    rows = row_set([({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 4.0), ({0: 1.0, 3: 1.0}, ">=", 1.0),
                    ({1: 1.0, 3: -1.0}, "=", 0.0)], 4)
    lb, ub = np.array([0.0, 0.0, -np.inf, 2.0]), np.array([1.0, 1.0, np.inf, 2.0])
    x = np.array([0.0, 1.0, 0.5, 2.0])
    side = nonbasic_sides(np.array([-2]), rows, lb, ub, x)  # row 1's activity is basic
    assert side.col_term.tolist() == [True, True, True, False]  # column 3 is fixed
    assert side.col_up.tolist()[:3] == [False, True, False]
    assert side.col_ok.tolist()[:3] == [True, True, False]
    assert side.row_term.tolist() == [True, False, False]
    assert side.row_up.tolist()[0]
