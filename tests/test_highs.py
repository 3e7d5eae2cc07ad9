import pathlib
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from fleetopt.mip import MipError, SolveConfig, branch_and_bound, lexicographic_solve, lp_solve
from fleetopt.mip import cuts as cutmod
from fleetopt.mip import highs, solver
from fleetopt.mip.cuts import nonbasic_sides
from fleetopt.mip.highs import HighsLp

from rowsets import row_set
from test_gomory_reference import assert_sides_match_highs, tableau_row
from test_mip import blocks_problem, knapsack_problem

INF = np.inf
# max x  s.t.  x - y <= 1,  x + y >= 1,  x + 2y == z
ROWS = [
    ({0: 1.0, 1: -1.0}, "<=", 1.0),
    ({0: 1.0, 1: 1.0}, ">=", 1.0),
    ({0: 1.0, 1: 2.0, 2: -1.0}, "=", 0.0),
]
C = np.array([1.0, 0.0, 0.0])


def test_scipy_still_has_every_highs_method():
    missing = [m for m in highs.METHODS if not callable(getattr(highs._core._Highs, m, None))]
    assert not missing, f"the installed scipy's HiGHS binding lacks {missing}"
    # METHODS lists exactly the methods the module calls on its HiGHS object
    source = pathlib.Path(highs.__file__).read_text()
    called = set(re.findall(r"\b(?:h|highs|self\._highs)\.(\w+)\(", source))
    assert called == set(highs.METHODS), called ^ set(highs.METHODS)


def test_src_reads_no_basis_status():
    # a node's basis goes back to HiGHS whole (HighsLp.snapshot and
    # restore); no code reads the status of a column or row from it
    package = pathlib.Path(highs.__file__).parents[1]
    readers = [
        str(path.relative_to(package)) for path in sorted(package.rglob("*.py"))
        if re.search(r"\b(?:col|row)_status\b", path.read_text())
    ]
    assert not readers


def bounds(lb, ub):
    return np.array(lb, dtype=float), np.array(ub, dtype=float)


CASES = [
    # x >= 3 and y <= 1 break x - y <= 1
    ("Infeasible", bounds([3, 0, 0], [4, 1, 10]), None),
    ("Optimal", bounds([0, 0, 0], [2, 2, 10]), 2.0),
    ("Unbounded", bounds([0, 0, -INF], [INF, INF, INF]), None),
]


def test_one_model_answers_each_bound_set_like_a_fresh_one():
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    for status, (lb, ub), objective in CASES + CASES[::-1]:
        res = lp.solve(lb, ub)
        fresh = HighsLp(C, row_set(ROWS, 3), "max").solve(lb, ub)
        assert res.status == fresh.status == status
        x = res.x
        if objective is None:
            assert x is None and res.objective is None
        else:
            assert res.objective == pytest.approx(objective)
            assert fresh.objective == pytest.approx(objective)
            assert np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9)
            assert x[0] - x[1] <= 1 + 1e-9 and x[0] + 2 * x[1] == pytest.approx(x[2])


def test_added_rows_bind_later_solves():
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    lb, ub = bounds([0, 0, 0], [2, 2, 10])
    assert lp.solve(lb, ub).objective == pytest.approx(2.0)
    lp.add_rows(row_set([({0: 1.0}, "<=", 1.5), ({}, "<=", 0.0)], 3))
    res = lp.solve(lb, ub)
    assert res.status == "Optimal" and res.objective == pytest.approx(1.5)
    assert res.x[0] <= 1.5 + 1e-9
    lp.add_rows(row_set([({1: 1.0}, ">=", 3.0)], 3))
    assert lp.solve(lb, ub).status == "Infeasible"


def test_other_highs_statuses_raise_with_their_name(monkeypatch):
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    monkeypatch.setattr(
        highs._core._Highs, "getModelStatus",
        lambda self: highs._core.HighsModelStatus.kUnboundedOrInfeasible,
    )
    name = highs._core._Highs().modelStatusToString(
        highs._core.HighsModelStatus.kUnboundedOrInfeasible
    )
    with pytest.raises(MipError, match=re.escape(name)):
        lp.solve(*bounds([0, 0, 0], [2, 2, 10]))


def test_tableau_rows_read_as_documented():
    # max 3x + 2y  s.t.  x + y <= 4 (row 0),  x - y >= -1 (row 1),
    # 0 <= x <= 3,  0 <= y <= 10. By hand: x sits at its upper bound 3,
    # row 0 at its upper bound 4, and y = 1 and row 1's activity 2 are basic
    rows = [({0: 1.0, 1: 1.0}, "<=", 4.0), ({0: 1.0, 1: -1.0}, ">=", -1.0)]
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    lp = HighsLp(np.array([3.0, 2.0]), row_set(rows, 2), "max")
    lb, ub = bounds([0, 0], [3, 10])
    res = lp.solve(lb, ub)
    assert res.objective == pytest.approx(11.0)
    assert res.x == pytest.approx([3.0, 1.0])
    tab = lp.tableau()
    assert sorted(tab.basic) == [-2, 1]  # row 1's activity is -1 - 1
    side = nonbasic_sides(tab.basic, lp.rows, lb, ub, res.x)
    assert side.col_term.tolist() == [True, False] and side.col_up[0] and side.col_ok[0]
    assert side.row_term.tolist() == [True, False] and side.row_up[0]
    assert_sides_match_highs(lp, lb, ub, res.x)
    rng = np.random.default_rng(0)
    for i, basic in enumerate(tab.basic):
        reduced, binv = tableau_row(tab, i)
        if basic == 1:  # y + x - (x + y) = 0, so y = 4 - 3 at the optimum
            assert reduced == pytest.approx([1.0, 1.0])
            assert binv == pytest.approx([1.0, 0.0])
        else:  # 2x - (x + y) - (x - y) = 0, so row 1's activity = 6 - 4
            assert reduced == pytest.approx([2.0, 0.0])
            assert binv == pytest.approx([1.0, 1.0])
        for x in [res.x] + list(rng.uniform(-5, 5, (3, 2))):
            assert reduced @ x - binv @ (A @ x) == pytest.approx(0.0, abs=1e-12)


def test_sides_follow_from_the_basic_variables_and_the_point():
    # max sum of w_j x_j over 0 <= x <= 1 under one knapsack row: the
    # densest columns sit at their upper bound, one is basic, the knapsack
    # row at its upper bound and the other inequality rows' activities are
    # basic; an equality row is never a term
    rng = np.random.default_rng(4)
    n = 13
    weight = rng.uniform(1, 3, n - 1)
    rows = [
        ({j: float(weight[j]) for j in range(n - 1)}, "<=", 7.5),
        ({0: 1.0, 1: 1.0}, "<=", 5.0),
        ({2: 1.0, 3: -1.0}, ">=", -4.0),
        ({4: 1.0, 12: 1.0}, "=", 0.5),
    ]
    cost = np.append(rng.uniform(1, 2, n - 1) * weight, 0.0)
    lp = HighsLp(cost, row_set(rows, n), "max")
    lb, ub = bounds([0] * n, [1] * (n - 1) + [2])
    res = lp.solve(lb, ub)
    assert res.status == "Optimal"
    side = nonbasic_sides(lp.tableau().basic, lp.rows, lb, ub, res.x)
    assert side.col_up[side.col_term].any() and not side.col_term.all()
    assert side.row_up[0] and side.row_term[0] and not side.row_term[3]
    assert_sides_match_highs(lp, lb, ub, res.x)


def test_solve_reads_what_highs_info_holds():
    # the iteration count and objective come from single-value reads,
    # which must agree with the whole info record bit for bit
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    for status, (lb, ub), _ in CASES + CASES[::-1]:
        res = lp.solve(lb, ub)
        info = lp._highs.getInfo()
        assert res.status == status
        assert res.iterations == info.simplex_iteration_count
        if res.objective is not None:
            assert res.objective == -info.objective_function_value


def test_primal_tolerance_is_highs_own():
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    _, tol = lp._highs.getOptionValue("primal_feasibility_tolerance")
    assert tol == highs.PRIMAL_TOL and highs.PROOF_MARGIN > 1


def test_dual_tolerance_is_highs_own():
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    _, tol = lp._highs.getOptionValue("dual_feasibility_tolerance")
    assert tol == highs.DUAL_TOL


def linprog_reduced_costs(c, rows, lb, ub, sense):
    """``linprog``'s optimum and its reduced costs in ``sense``, from
    the marginals of the column bounds (scipy minimizes, so a maximum
    negates the costs on the way in and the marginals on the way out)."""
    A = rows.matrix_t.T.toarray()
    sign = -1.0 if sense == "max" else 1.0
    res = linprog(
        sign * c,
        A_ub=np.vstack([A[rows.le], -A[rows.ge]]),
        b_ub=np.concatenate([rows.rhs[rows.le], -rows.rhs[rows.ge]]),
        bounds=list(zip(lb, ub)), method="highs",
    )
    assert res.status == 0
    return res.x, sign * (res.lower.marginals + res.upper.marginals)


@pytest.mark.parametrize("sense", ["max", "min"])
def test_reduced_costs_are_linprogs_marginals(sense):
    # a generic LP, so its optimal vertex and duals are unique; then the
    # same LP with a row that cuts that vertex off
    rng = np.random.default_rng(36)
    n = 8
    c = rng.uniform(-3, 3, n)
    rows = row_set(
        [({j: float(rng.uniform(-2, 4)) for j in range(n)}, rel, float(rng.uniform(4, 9)))
         for rel in ("<=", "<=", ">=", "<=", "<=")],
        n,
    )
    lb, ub = rng.uniform(-2, 0, n), rng.uniform(1, 3, n)
    lp = HighsLp(c, rows, sense)
    res = lp.solve(lb, ub)
    x, want = linprog_reduced_costs(c, lp.rows, lb, ub, sense)
    assert res.x == pytest.approx(x, abs=1e-9)
    d = lp.reduced_costs()
    assert d == pytest.approx(want, abs=1e-9)
    # d is the objective's own rate: nonbasic columns sit at the bound that
    # a worsening rate points away from
    better = d if sense == "max" else -d
    assert np.all(res.x[better < -1e-9] == lb[better < -1e-9])
    assert np.all(res.x[better > 1e-9] == ub[better > 1e-9])
    assert (np.abs(d) > 1e-9).sum() >= 3
    lp.add_rows(row_set([({j: 1.0 for j in range(n)}, "<=" if sense == "max" else ">=",
                          float(res.x.sum()) + (-0.5 if sense == "max" else 0.5))], n))
    res2 = lp.solve(lb, ub)
    x2, want2 = linprog_reduced_costs(c, lp.rows, lb, ub, sense)
    assert res2.x == pytest.approx(x2, abs=1e-9) and not np.allclose(res2.x, res.x)
    assert lp.reduced_costs() == pytest.approx(want2, abs=1e-9)


def test_an_infeasibility_proof_covers_its_box_and_no_feasible_point():
    # blocks_problem's LP under its bound sets: each infeasible one gives
    # a proof that shows that box infeasible, and every optimal point of
    # the others has a @ x inside the proof's interval
    lp = HighsLp(BLOCKS_COST, BLOCKS.rows, "max")
    lp.add_rows(row_set([({0: 1.0, 1: 1.0}, "<=", 7.0)], BLOCKS.n_vars))
    proofs, points = [], []
    for lb, ub in BLOCKS_BOUNDS:
        res = lp.solve(lb, ub)
        if res.status == "Optimal":
            points.append(res.x)
            continue
        a, lo, hi = lp.infeasibility_proof()
        least = np.where(a > 0, a * lb, a * ub).sum()
        most = np.where(a > 0, a * ub, a * lb).sum()
        assert least > hi or most < lo
        proofs.append((a, lo, hi))
    assert len(proofs) == 2 and len(points) == 3
    for a, lo, hi in proofs:
        for x in points:
            assert lo <= a @ x <= hi


def test_a_restored_basis_solves_the_same_whatever_came_before():
    """After ``restore(basis)``, a node LP gives the same status,
    iterations and ``x`` bytes whether the object last solved an
    infeasible LP, another node's LPs, or nothing since the snapshot.

    The nodes are the left children of the knapsack root's four most
    fractional columns; the other node is the right child of the same
    column with a second column at 0. Without the solver state cleared
    on restore, the fourth column's node gives other points.
    """
    p = knapsack_problem()
    red = solver._reduce(p)
    cost, _, _ = solver._objective_on(red, p.objective)
    int_idx = np.flatnonzero(red.int_mask)

    def box(lower=(), upper=()):
        lb, ub = red.lb.copy(), red.ub.copy()
        for j, v in lower:
            lb[j] = v
        for j, v in upper:
            ub[j] = v
        return lb, ub

    def node_after(before, node):
        lp = HighsLp(cost, red.rows, p.objective.sense)
        try:
            lp.solve(red.lb, red.ub)
            basis = lp.snapshot()
            statuses = [lp.solve(*b).status for b in before]
            lp.restore(basis)
            res = lp.solve(*node)
            return statuses, (res.status, res.iterations, res.x.tobytes())
        finally:
            lp.release()

    lp = HighsLp(cost, red.rows, p.objective.sense)
    x = lp.solve(red.lb, red.ub).x
    lp.release()
    frac = np.abs(x[int_idx] - np.round(x[int_idx]))
    columns = [int(j) for j in int_idx[np.argsort(-frac, kind="stable")][:4]]
    assert np.all(np.sort(frac)[-4:] > 1e-6)
    infeasible = box(lower=[(j, red.ub[j]) for j in int_idx])
    for i, j in enumerate(columns):
        node = box(upper=[(j, np.floor(x[j]))])
        k = columns[(i + 1) % 4]
        other = [box(lower=[(j, np.ceil(x[j]))]),
                 box(lower=[(j, np.ceil(x[j]))], upper=[(k, 0.0)])]
        _, alone = node_after([], node)
        statuses, after_infeasible = node_after([infeasible], node)
        assert statuses == ["Infeasible"]
        _, after_other = node_after(other, node)
        assert after_infeasible == alone, j
        assert after_other == alone, j


def test_separation_reads_no_basis_status(monkeypatch):
    # the search snapshots and restores node bases; Gomory separation,
    # which derives each nonbasic's side from the basic variables and the
    # point, calls neither while it runs
    separating = [False]
    calls = {"getBasis": 0, "setBasis": 0}
    for name in calls:
        def guarded(self, *args, _name=name, _real=getattr(highs._core._Highs, name)):
            assert not separating[0], f"{_name} called during Gomory separation"
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(highs._core._Highs, name, guarded)
    gomory_cuts = cutmod.gomory_cuts

    def separate(*args, **kwargs):
        separating[0] = True
        try:
            return gomory_cuts(*args, **kwargs)
        finally:
            separating[0] = False

    monkeypatch.setattr(cutmod, "gomory_cuts", separate)
    sol = branch_and_bound(knapsack_problem(), SolveConfig(gomory=True))
    assert sol.status == "Optimal" and sol.cut_counts["gomory"] > 0 and sol.node_count > 0
    assert calls["getBasis"] > 0 and calls["setBasis"] > 0


def test_unchanged_bounds_are_not_passed_again(monkeypatch):
    passed = []
    real = highs._core._Highs.changeColsBounds

    def recorded(self, n, cols, lb, ub):
        assert n == len(cols) == len(lb) == len(ub)
        passed.append((list(cols), list(lb), list(ub)))
        return real(self, n, cols, lb, ub)

    monkeypatch.setattr(highs._core._Highs, "changeColsBounds", recorded)
    lp = HighsLp(C, row_set(ROWS, 3), "max")
    lb, ub = bounds([0, 0, 0], [2, 2, 10])
    assert lp.solve(lb, ub).objective == pytest.approx(2.0)
    assert passed == [([0, 1, 2], [0, 0, 0], [2, 2, 10])]
    lp.add_rows(row_set([({0: 1.0}, "<=", 1.5)], 3))
    assert lp.solve(lb.copy(), ub.copy()).objective == pytest.approx(1.5)
    assert len(passed) == 1
    ub[0] = 1.0  # changed in place: the model still holds the old bounds
    assert lp.solve(lb, ub).objective == pytest.approx(1.0)
    lp.solve(lb, ub)
    assert passed[1:] == [([0], [0], [1])]
    assert lp.solve(*bounds([0, 0, 0], [2, 2, 10])).objective == pytest.approx(1.5)
    assert passed[2:] == [([0], [0], [2])]
    # only the columns that changed, each with both its bounds
    assert lp.solve(*bounds([0, 1, 0], [2, 2, 5])).objective == pytest.approx(1.5)
    assert passed[3:] == [([1, 2], [1, 0], [2, 5])]
    assert lp.solve(*bounds([0, 1, 0], [2, 2, 5])).objective == pytest.approx(1.5)
    assert len(passed) == 4


# the LP relaxation of blocks_problem, which presolve solves outright,
# under its root bounds and four sets with columns pinned; the middle
# two push a 2-column knapsack row past its rhs, which leaves it infeasible
BLOCKS = blocks_problem()
BLOCKS_COST = np.random.default_rng(5).integers(3, 9, BLOCKS.n_vars).astype(float)
BLOCKS_BOUNDS = [(BLOCKS.lb, BLOCKS.ub)]
for pins in ({0: 0, 1: 0}, {2: 3}, {0: 9, 1: 9}, {5: 1, 12: 0}):
    lb, ub = BLOCKS.lb.copy(), BLOCKS.ub.copy()
    for j, v in pins.items():
        lb[j] = ub[j] = v
    BLOCKS_BOUNDS.append((lb, ub))


def blocks_run():
    """The HiGHS object a new model took, and each solve's status,
    iteration count, point bytes and basis; the object goes back after."""
    lp = HighsLp(BLOCKS_COST, BLOCKS.rows, "max")
    try:
        outcomes = []
        for lb, ub in BLOCKS_BOUNDS:
            res = lp.solve(lb, ub)
            basis = lp.snapshot()
            outcomes.append((
                res.status, res.iterations, None if res.x is None else res.x.tobytes(),
                [int(s) for s in basis.col_status], [int(s) for s in basis.row_status],
            ))
        return lp._highs, outcomes
    finally:
        lp.release()


def test_a_reused_highs_object_solves_as_a_new_one(monkeypatch):
    monkeypatch.setattr(highs, "_spares", [])
    new, want = blocks_run()
    assert highs._spares == [new]
    assert {o[0] for o in want} == {"Optimal", "Infeasible"}
    lb, ub = BLOCKS_BOUNDS[0]

    # (a) a model that took cut rows and had a basis restored
    lp = HighsLp(BLOCKS_COST, BLOCKS.rows, "max")
    assert lp._highs is new and not highs._spares
    lp.solve(lb, ub)
    lp.add_rows(row_set([({0: 1.0, 1: 1.0}, "<=", 1.0), ({2: 1.0}, "<=", 0.5)], BLOCKS.n_vars))
    lp.solve(lb, ub)
    basis = lp.snapshot()
    lp.solve(*BLOCKS_BOUNDS[1])
    lp.restore(basis)
    assert lp.solve(lb, ub).iterations == 0
    lp.release()
    assert blocks_run() == (new, want)

    # (b) an infeasible model
    lp = HighsLp(C, row_set(ROWS + [({0: 1.0}, ">=", 5.0)], 3), "max")
    assert lp.solve(*bounds([0, 0, 0], [2, 2, 10])).status == "Infeasible"
    lp.release()
    assert blocks_run() == (new, want)

    # (c) a search that raised part way: its object still goes back
    real_solve = HighsLp.solve
    solves = []

    def failing(self, lo, hi):
        solves.append(self._highs)
        if len(solves) == 3:
            raise MipError("LP backend failure: injected")
        return real_solve(self, lo, hi)

    monkeypatch.setattr(HighsLp, "solve", failing)
    with pytest.raises(MipError, match="injected"):
        branch_and_bound(knapsack_problem(), SolveConfig(gomory=False))
    monkeypatch.setattr(HighsLp, "solve", real_solve)
    assert solves == [new] * 3 and highs._spares == [new]
    assert blocks_run() == (new, want)


def test_every_search_hands_its_object_back(monkeypatch):
    monkeypatch.setattr(highs, "_spares", [])
    p = knapsack_problem()
    p.set_secondary_objective("min", {"b0": 1, "b1": 1})
    made = []
    real_new = highs._core._Highs

    def counted():
        made.append(real_new())
        return made[-1]

    monkeypatch.setattr(highs._core, "_Highs", counted)
    sol = lexicographic_solve(p, SolveConfig())
    assert sol.status == "Optimal" and not sol.stage1_reused
    # two searches, one after the other, on one object
    assert len(made) == 1 and highs._spares == made
    assert lp_solve(p).status == "Optimal"
    assert len(made) == 1 and highs._spares == made
    # models alive at once each take an object; at most SPARES wait after
    lps = [HighsLp(C, row_set(ROWS, 3), "max") for _ in range(highs.SPARES + 2)]
    assert not highs._spares and len(made) == highs.SPARES + 2
    for lp in lps:
        lp.release()
    assert len(highs._spares) == highs.SPARES
    assert lp_solve(p).status == "Optimal"
    assert len(highs._spares) == highs.SPARES and len(made) == highs.SPARES + 2
