import pathlib
import re

import numpy as np
import pytest

from fleetopt.mip import MipError, SolveConfig, branch_and_bound, lexicographic_solve, lp_solve
from fleetopt.mip import cuts as cutmod
from fleetopt.mip import highs
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
