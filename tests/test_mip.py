import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from fleetopt.mip import (
    NODE_LIMIT,
    AffineExpr,
    MipError,
    MipProblem,
    Solution,
    SolveConfig,
    branch_and_bound,
    cover_cuts,
    fix_variables,
    gomory_cuts,
    lexicographic_solve,
    lp_solve,
)
from fleetopt.bench.experiments import CUT_FAMILIES
from fleetopt.mip import cuts as cutmod
from fleetopt.mip import highs
from fleetopt.mip import solver
from fleetopt.mip.highs import HighsLp
from fleetopt.mip.problem import Objective
from fleetopt.mip.rows import CompiledRows, HalfRows
from fleetopt.mip.solver import _fractional_index, _objective_on, _unreduced

from rowsets import row_set


def stated(p):
    """``p`` as stated in the reduced form, and its objective's costs."""
    red = _unreduced(p)
    return red, _objective_on(red, p.objective)[0]


def two_var_lp(kind="continuous", ub=float("inf")):
    p = MipProblem()
    p.add_variable("x", kind, 0, ub)
    p.add_variable("y", kind, 0, ub)
    p.add_constraint({"x": 6, "y": 4}, "<=", 24)
    p.add_constraint({"x": 1, "y": 2}, "<=", 6)
    p.set_objective("max", {"x": 5, "y": 4})
    return p


def enumerate_best(problem, maximize=True):
    """Brute-force optimum over the integer lattice of a pure-integer problem."""
    lb, ub = problem.lb, problem.ub
    ranges = [range(int(lb[i]), int(ub[i]) + 1) for i in range(problem.n_vars)]
    obj = problem.objective
    best = None
    best_point = None
    for point in itertools.product(*ranges):
        values = np.array(point, dtype=float)
        if problem.check_point(values, tol=1e-9):
            continue
        val = obj.value(values)
        if best is None or (val > best if maximize else val < best):
            best = val
            best_point = values
    return best, best_point


def knapsack_problem(seed=5, n=16):
    """Multi-row binary knapsack whose search takes about a hundred nodes."""
    rng = np.random.default_rng(seed)
    p = MipProblem()
    for j in range(n):
        p.add_variable(f"b{j}", "binary")
    for _ in range(12):
        p.add_constraint(
            {f"b{j}": int(rng.integers(2, 9)) for j in range(n)},
            "<=",
            int(rng.integers(12, 25)),
        )
    p.set_objective("max", {f"b{j}": int(rng.integers(3, 9)) for j in range(n)})
    return p


def blocks_problem():
    """Six 2-variable knapsack rows that leave the root fractional until
    Gomory cuts them, among 140 wide rows over 150 more columns."""
    rng = np.random.default_rng(0)
    p = MipProblem()
    for i in range(6):
        p.add_variable(f"a{i}", "integer", 0, 9)
        p.add_variable(f"b{i}", "integer", 0, 9)
        weights = {f"a{i}": int(rng.integers(2, 6)), f"b{i}": int(rng.integers(2, 6))}
        p.add_constraint(weights, "<=", int(rng.integers(7, 20)))
    for j in range(150):
        p.add_variable(f"y{j}", "integer", 0, 2)
    names = [v.name for v in p.variables]
    for _ in range(140):
        picked = rng.choice(len(names), 5, replace=False)
        p.add_constraint({names[k]: int(rng.integers(1, 4)) for k in picked}, "<=", 60)
    objective = {f"y{j}": int(rng.integers(1, 5)) for j in range(150)}
    for i in range(6):
        objective[f"a{i}"] = int(rng.integers(2, 7))
        objective[f"b{i}"] = int(rng.integers(2, 7))
    p.set_objective("max", objective)
    return p


def small_knapsack(rng):
    """A few binary and integer columns under 1-3 knapsack rows: fractional
    LP vertices, so both separators fire on many of them."""
    n = int(rng.integers(3, 6))
    p = MipProblem()
    for j in range(n):
        kind = "binary" if rng.random() < 0.7 else "integer"
        ub = 1 if kind == "binary" else int(rng.integers(2, 5))
        p.add_variable(f"v{j}", kind, 0, ub)
    for _r in range(int(rng.integers(1, 4))):
        coeffs = {f"v{j}": int(rng.integers(1, 6)) for j in range(n)}
        total = sum(coeffs.values())
        p.add_constraint(coeffs, "<=", int(max(1, 0.4 * total + rng.integers(0, 4))))
    p.set_objective("max", {f"v{j}": int(rng.integers(1, 7)) for j in range(n)})
    return p


def satisfied(rows, points, tol):
    """Which points (one per row of ``points``) satisfy every row within tol."""
    act = points @ rows.matrix_t
    ok = np.where(rows.le, act <= rows.rhs + tol, True)
    ok &= np.where(rows.ge, act >= rows.rhs - tol, True)
    return ok.all(axis=1)


def random_integer_problem(rng, n_max=6, allow_eq=True):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, 5))
    p = MipProblem()
    for j in range(n):
        kind = "binary" if rng.random() < 0.5 else "integer"
        ub = 1 if kind == "binary" else int(rng.integers(1, 6))
        p.add_variable(f"v{j}", kind, 0, ub)
    for _ in range(m):
        coeffs = {f"v{j}": int(rng.integers(-4, 5)) for j in range(n)}
        rel = "=" if (allow_eq and rng.random() < 0.15) else (
            "<=" if rng.random() < 0.7 else ">="
        )
        p.add_constraint(coeffs, rel, int(rng.integers(0, 12)))
    p.set_objective("max", {f"v{j}": int(rng.integers(-5, 6)) for j in range(n)})
    return p


class TestProblem:
    def test_duplicate_names_rejected(self):
        p = MipProblem()
        p.add_variable("x")
        with pytest.raises(MipError):
            p.add_variable("x")
        for names in (["y", "x"], ["y", "y"]):
            with pytest.raises(MipError, match="duplicate"):
                p.add_variables(names)
        # a rejected block leaves the names as they were
        assert p.n_vars == 1 and p.var_index("x") == 0
        assert p.add_variables(["y", "z"], "binary") == range(1, 3)
        assert [(v.kind, v.lb, v.ub) for v in p.variables[1:]] == [("binary", 0.0, 1.0)] * 2

    def test_row_blocks_match_rows_added_one_at_a_time(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = int(rng.integers(1, 6)), int(rng.integers(0, 6))
            one, block = MipProblem(), MipProblem()
            for p in (one, block):
                p.add_variables([f"v{j}" for j in range(n)])
            rows = []
            for r in range(m):
                cols = rng.permutation(n)[: int(rng.integers(0, n + 1))].tolist()
                coeffs = {j: float(rng.choice([0.0, -1.5, 2.0, 3.25])) for j in cols}
                rows.append((coeffs, str(rng.choice(["<=", "=", ">="])), float(r)))
                one.add_constraint(*rows[-1], name=f"r{r}")
            indptr = np.cumsum([0] + [len(c) for c, _, _ in rows])
            block.add_rows(
                indptr, [j for c, _, _ in rows for j in c],
                [a for c, _, _ in rows for a in c.values()],
                [rel for _, rel, _ in rows], [rhs for _, _, rhs in rows],
                [f"r{r}" for r in range(m)],
            )
            # zero coefficients are dropped either way, entry order kept
            assert one.constraints == block.constraints
            for name in ("indptr", "indices", "data", "rhs", "le", "ge"):
                assert np.array_equal(getattr(one.rows, name), getattr(block.rows, name))

    def test_malformed_row_blocks_rejected(self):
        p = MipProblem()
        p.add_variables(["x", "y"])
        good = dict(indptr=[0, 2], indices=[0, 1], data=[1.0, 2.0], relation="<=",
                    rhs=[1.0], names=["r"])
        for bad in (
            dict(relation="<"), dict(relation=["<=", "<="]), dict(indices=[0, 2]),
            dict(indices=[1, 1]), dict(data=[1.0, float("nan")]), dict(rhs=[1.0, 2.0]),
            dict(indptr=[0, 1]), dict(rhs=1.0), dict(indptr=[[0, 2]]),
            dict(indptr=0), dict(data=[1.0]), dict(indices=[[0, 1]], data=[[1.0, 2.0]]),
            dict(indptr=[0, 3, 2], rhs=[1.0, 1.0], names=["r", "s"]),
        ):
            with pytest.raises(MipError):
                p.add_rows(**{**good, **bad})
        # a scalar row pointer is rejected before any row length is read
        with pytest.raises(MipError, match="row pointers"):
            p.add_rows(0, [], [], "<=", [], [])
        assert p.rows.m == 0 and p.row_names == ()
        assert p.add_rows(**good) == range(0, 1)

    def test_add_rows_copies_its_arrays(self):
        p = MipProblem()
        p.add_variables(["x", "y"])
        indptr, indices = np.array([0, 2, 3], dtype=np.intp), np.array([0, 1, 1], dtype=np.intp)
        data, rhs = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])
        p.add_rows(indptr, indices, data, "<=", rhs, ["r", "s"])
        # written after the call, before the rows are first read
        indptr[1], indices[0], data[1], rhs[0] = 1, 1, -7.0, 99.0
        rows = p.rows
        assert rows.indptr.tolist() == [0, 2, 3] and rows.indices.tolist() == [0, 1, 1]
        assert rows.data.tolist() == [1.0, 2.0, 3.0] and rows.rhs.tolist() == [4.0, 5.0]

    def test_integer_needs_finite_bounds(self):
        p = MipProblem()
        with pytest.raises(MipError):
            p.add_variable("n", "integer", 0, float("inf"))

    def test_bounds_per_column_match_columns_added_one_at_a_time(self):
        lb = np.array([0.0, -2.0, 1.5, -np.inf])
        ub = np.array([3.0, 2.0, 1.5, 4.0])
        cases = (("continuous", lb, ub), ("integer", 0, ub), ("binary", [0, -2, 1, 0.5], 1))
        for kind, lo, hi in cases:
            one, block = MipProblem(), MipProblem()
            names = [f"v{j}" for j in range(4)]
            for j, name in enumerate(names):
                one.add_variable(name, kind, np.broadcast_to(lo, 4)[j].item(),
                                 np.broadcast_to(hi, 4)[j].item())
            assert block.add_variables(names, kind, lo, hi) == range(4)
            assert block.kinds.tolist() == one.kinds.tolist()
            assert block.lb.tolist() == one.lb.tolist() and block.ub.tolist() == one.ub.tolist()
        p = MipProblem()
        with pytest.raises(MipError, match="'b' needs finite bounds"):
            p.add_variables(["a", "b"], "integer", [0, -np.inf], 1)
        with pytest.raises(MipError, match=r"'b' has empty domain \[2.0, 1.0\]"):
            p.add_variables(["a", "b"], "continuous", [0, 2], 1)
        assert p.n_vars == 0

    def test_add_variables_copies_array_bounds(self):
        p = MipProblem()
        lb, ub = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        p.add_variables(["a", "b"], "continuous", lb, ub)
        lb[:], ub[:] = -5.0, 9.0  # before the columns are read
        assert p.lb.tolist() == [0.0, 1.0] and p.ub.tolist() == [2.0, 3.0]

    def test_nan_and_misshapen_bounds_rejected(self):
        p = MipProblem()
        for kind in ("continuous", "integer", "binary"):
            with pytest.raises(MipError, match="'b' has a NaN bound"):
                p.add_variables(["a", "b"], kind, [0, np.nan], 1)
            with pytest.raises(MipError, match="'a' has a NaN bound"):
                p.add_variable("a", kind, 0, np.nan)
        for lb, ub, shape in (([0, 1, 2], 5, "(3,)"), (0, [1.0], "(1,)"),
                              (np.zeros((2, 1)), 1, "(2, 1)")):
            with pytest.raises(MipError, match=re.escape(f"shape {shape} given for 2 variables")):
                p.add_variables(["a", "b"], "continuous", lb, ub)
        assert p.n_vars == 0
        # infinite bounds stay legal on continuous columns
        p.add_variables(["a", "b"], "continuous", -np.inf, [np.inf, 1.0])
        assert p.lb.tolist() == [-np.inf] * 2 and p.ub.tolist() == [np.inf, 1.0]

    def test_unknown_relation(self):
        p = MipProblem()
        p.add_variable("x")
        with pytest.raises(MipError):
            p.add_constraint({"x": 1}, "<", 1)

    def test_nan_rhs_rejected_by_add_constraint(self):
        p = MipProblem()
        p.add_variable("x")
        p.add_constraint({"x": 1}, "<=", np.inf, name="loose")
        with pytest.raises(MipError, match="row 'cap' has a NaN rhs"):
            p.add_constraint({"x": 1}, "<=", np.nan, name="cap")
        with pytest.raises(MipError, match="row 1 has a NaN rhs"):
            p.add_constraint({"x": 1}, ">=", float("nan"))
        assert p.row_names == ("loose",) and p.rows.rhs.tolist() == [np.inf]

    def test_nan_rhs_rejected_by_add_rows(self):
        p = MipProblem()
        p.add_variables(["x", "y"])
        p.add_constraint({"x": 1}, "<=", 1)
        block = dict(indptr=[0, 1, 2], indices=[0, 1], data=[1.0, 1.0], relation="<=")
        with pytest.raises(MipError, match="row 'b' has a NaN rhs"):
            p.add_rows(**block, rhs=[1.0, np.nan], names=["a", "b"])
        with pytest.raises(MipError, match="row 1 has a NaN rhs"):
            p.add_rows(**block, rhs=[np.nan, 1.0], names=["", ""])
        assert p.row_names == ("",)
        assert p.add_rows(**block, rhs=[-np.inf, np.inf], names=["a", "b"]) == range(1, 3)

    def test_coefficient_keys_are_column_indices_or_names(self):
        p = MipProblem()
        p.add_variables(["x", "y"])
        setters = (
            lambda c: p.add_constraint(c, "<=", 1),
            lambda c: p.set_objective("max", c),
            lambda c: p.set_secondary_objective("max", c),
        )
        for setter in setters:
            with pytest.raises(MipError, match="unknown variable 'z'"):
                setter({"z": 1.0})
            for key in (0.7, True, np.float64(1.0), None):
                with pytest.raises(MipError, match=re.escape(f"key {key!r} is neither")):
                    setter({key: 1.0})
        assert p.row_names == ()
        p.add_constraint({"x": 1.0, 1: 2.0, np.int64(0): 3.0}, "<=", 1)
        p.set_objective("max", {np.int32(1): 1.0})
        assert p.constraints[0].coeffs == {0: 4.0, 1: 2.0}
        assert p.objective.coeffs == {1: 1.0}

    def test_solution_json_round_trip(self):
        sol = Solution(
            status="Optimal",
            values={"x": 1.0},
            objective_value=3.5,
            best_bound=3.5,
            node_count=4,
            cut_counts={"gomory": 2},
        )
        again = Solution.from_json(sol.to_json())
        assert again.values == sol.values
        assert again.cut_counts == sol.cut_counts
        # a document written while the dense simplex counted its pivots
        doc = sol.to_dict()
        assert "tableau_pivots" not in doc
        old = Solution.from_json(json.dumps(dict(doc, tableau_pivots=7)))
        assert old.to_dict() == doc

    def test_copies_share_rows_and_add_their_own(self):
        p = two_var_lp()
        stated = p.rows
        for q in (p.copy(), p.copy()):
            # the copy shares the stated arrays, not copies of them
            assert q.rows is stated
            q.add_constraint({"x": 1}, "<=", 3, name="own")
            assert q.rows.indices.tolist() == [0, 1, 0, 1, 0]
            assert q.row_names == ("", "", "own")
            # its own row reaches neither the original nor its arrays
            assert p.rows is stated and p.rows.m == 2 and len(p.constraints) == 2
            assert stated.indices.tolist() == [0, 1, 0, 1]
        # rows the original adds later do not reach a copy made before
        q = p.copy()
        p.add_constraint({"y": 1}, ">=", 0)
        assert q.rows.m == 2 and p.rows.m == 3
        # views are frozen and read the arrays in row and entry order
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.constraints[0].rhs = 1.0
        assert [(c.coeffs, c.relation, c.rhs) for c in p.constraints] == [
            ({0: 6.0, 1: 4.0}, "<=", 24.0), ({0: 1.0, 1: 2.0}, "<=", 6.0), ({1: 1.0}, ">=", 0.0),
        ]

    def test_copies_keep_their_own_columns(self):
        p = MipProblem()
        for name in ("a", "b", "c"):
            p.add_variable(name, "integer", 0, 5)
        q = p.copy()  # made while the columns wait to be read
        # bound writes on either side stay there
        q.lb[0] = q.ub[0] = 3.0
        p.ub[1] = 4.0
        assert p.lb.tolist() == [0.0] * 3 and p.ub.tolist() == [5.0, 4.0, 5.0]
        assert q.lb.tolist() == [3.0, 0.0, 0.0] and q.ub.tolist() == [3.0, 5.0, 5.0]
        # columns appended on either side after the copy stay there
        p.add_variable("p0", "binary")
        for j in range(20):
            q.add_variable(f"q{j}", "continuous", -1.0, float(j))
        assert p.names == ["a", "b", "c", "p0"] and "q0" not in p._index
        assert p.kinds.tolist() == ["integer"] * 3 + ["binary"]
        assert p.ub.tolist() == [5.0, 4.0, 5.0, 1.0]
        assert q.names == ["a", "b", "c"] + [f"q{j}" for j in range(20)]
        assert "p0" not in q._index and q.var_index("q19") == 22
        assert q.kinds.tolist() == ["integer"] * 3 + ["continuous"] * 20
        assert q.lb.tolist() == [3.0, 0.0, 0.0] + [-1.0] * 20
        assert q.ub.tolist() == [3.0, 5.0, 5.0] + [float(j) for j in range(20)]
        # kinds are only read, and the views cannot be changed
        with pytest.raises(ValueError):
            p.kinds[0] = "binary"
        with pytest.raises(AttributeError):
            p.variables[0].ub = 1.0
        assert p.variables[3] == ("p0", "binary", 0.0, 1.0)

    def test_check_point_names_bounds_integrality_then_rows(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.add_variable("y", "continuous", -1, 4)
        p.add_variable("b", "binary")
        p.add_constraint({"x": 1, "y": 2}, "<=", 6, name="cap")
        p.add_constraint({"x": 1, "y": -1}, ">=", 1)
        p.add_constraint({"x": 1, "b": 1}, "=", 3, name="bal")
        p.add_constraint({}, ">=", 2)  # empty, so broken at every point
        off_domain = np.array([6.5, -2.0, 0.5])
        every_row = np.array([1.0, 3.0, 1.0])
        # columns in order, a column's bound before its integrality
        assert p.check_point(off_domain) == [
            "bound:x", "integrality:x", "bound:y", "integrality:b", "row:bal", "row:3",
        ]
        assert p.check_point(np.array([2.0, 0.0, 1.0])) == ["row:3"]
        # a row by its name, or by its index when it has none
        assert p.check_point(every_row) == ["row:cap", "row:1", "row:bal", "row:3"]
        f = p.copy()
        f.add_constraint({"y": 1}, "<=", 2.5, name="own")
        f.add_constraint({"x": 1}, ">=", 3)
        assert f.check_point(every_row) == [
            "row:cap", "row:1", "row:bal", "row:3", "row:own", "row:5",
        ]
        assert f.check_point(np.array([3.0, 1.0, 0.0])) == ["row:3"]
        # the copy's rows do not reach the problem it came from
        assert p.check_point(every_row) == ["row:cap", "row:1", "row:bal", "row:3"]


class TestLpSolve:
    def test_known_vertex(self):
        sol = lp_solve(two_var_lp())
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(21.0)
        assert sol.values["x"] == pytest.approx(3.0)
        assert sol.values["y"] == pytest.approx(1.5)

    def test_no_rows_hits_bounds(self):
        p = MipProblem()
        p.add_variable("x", "continuous", 0, 3)
        p.add_variable("y", "continuous", -1, 2)
        p.set_objective("max", {"x": 1, "y": 2})
        sol = lp_solve(p)
        assert sol.objective_value == pytest.approx(7.0)

    def test_contradiction_is_infeasible(self):
        p = MipProblem()
        p.add_variable("x")
        p.add_constraint({"x": 1}, "<=", 0)
        p.add_constraint({"x": 1}, ">=", 1)
        p.set_objective("max", {"x": 1})
        assert lp_solve(p).status == "Infeasible"

    def test_backends_agree(self):
        # scipy's interior-point HiGHS shares no code path with the simplex
        rng = np.random.default_rng(17)
        statuses = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}
        for _ in range(30):
            p = random_integer_problem(rng)
            red, cost = stated(p)
            rows = red.rows
            A = rows.matrix_t.T.toarray()
            eq = rows.le & rows.ge
            ineq = ~eq
            sign = np.where(rows.le, 1.0, -1.0)[ineq]
            ref = linprog(
                -cost,
                A_ub=sign[:, None] * A[ineq], b_ub=sign * rows.rhs[ineq],
                A_eq=A[eq], b_eq=rows.rhs[eq],
                bounds=list(zip(red.lb, red.ub)), method="highs-ipm",
            )
            res = HighsLp(cost, rows, "max").solve(red.lb, red.ub)
            assert res.status == statuses[ref.status]
            if res.status == "Optimal":
                assert res.objective == pytest.approx(-ref.fun, abs=1e-7)


class TestBranchAndBound:
    def test_known_integer_optimum(self):
        p = two_var_lp("integer", 10.0)
        sol = branch_and_bound(p)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(20.0)
        assert sol.values["x"] == 4.0 and sol.values["y"] == 0.0

    def test_integral_root_needs_no_branching(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.add_constraint({"x": 1}, "<=", 3)
        p.set_objective("max", {"x": 1})
        sol = branch_and_bound(p)
        assert sol.status == "Optimal" and sol.node_count == 0
        assert sol.objective_value == pytest.approx(3.0)

    def test_matches_enumeration_on_binaries(self):
        rng = np.random.default_rng(3)
        p = MipProblem()
        for j in range(10):
            p.add_variable(f"b{j}", "binary")
        for _ in range(4):
            p.add_constraint(
                {f"b{j}": int(rng.integers(-3, 4)) for j in range(10)},
                "<=",
                int(rng.integers(1, 9)),
            )
        p.set_objective("max", {f"b{j}": int(rng.integers(-4, 5)) for j in range(10)})
        best, _ = enumerate_best(p)
        sol = branch_and_bound(p)
        assert sol.objective_value == pytest.approx(best)

    def test_random_problems_all_cut_configs(self):
        rng = np.random.default_rng(11)
        configs = [
            SolveConfig(gomory=False),
            SolveConfig(gomory=True),
            SolveConfig(gomory=False, cover=True),
            SolveConfig(gomory=True, cover=True),
        ]
        for trial in range(30):
            p = random_integer_problem(rng)
            best, _ = enumerate_best(p)
            for cfg in configs:
                sol = branch_and_bound(p, cfg)
                if best is None:
                    assert sol.status == "Infeasible", trial
                else:
                    assert sol.status == "Optimal", (trial, sol.status)
                    assert sol.objective_value == pytest.approx(best), (trial, cfg)

    def test_gomory_separates_only_at_the_root_bounds(self, monkeypatch):
        calls = []  # ("solve" | "tableau", lb, ub) in call order
        builds = []  # one entry per HiGHS model passed
        iterations = []  # per HiGHS solve
        solve, tableau = highs.HighsLp.solve, highs.HighsLp.tableau
        pass_model = highs._core._Highs.passModel

        def spy_solve(self, lb, ub):
            calls.append(("solve", lb.copy(), ub.copy()))
            res = solve(self, lb, ub)
            iterations.append(res.iterations)
            return res

        def spy_tableau(self):
            calls.append(("tableau",) + calls[-1][1:])  # the basis of the last solve
            return tableau(self)

        def spy_build(self, *model):
            builds.append(model[0])  # the column count
            return pass_model(self, *model)

        monkeypatch.setattr(highs.HighsLp, "solve", spy_solve)
        monkeypatch.setattr(highs.HighsLp, "tableau", spy_tableau)
        monkeypatch.setattr(highs._core._Highs, "passModel", spy_build)

        def search(p, cfg):
            calls.clear()
            builds.clear()
            sol = branch_and_bound(p, cfg)
            # one model per search, however many nodes it solves
            assert len(builds) == (1 if calls else 0), (len(builds), sol.node_count)
            return sol

        rng = np.random.default_rng(11)
        problems = [knapsack_problem()] + [random_integer_problem(rng) for _ in range(20)]
        separated = searched = 0
        for p in problems:
            for cfg in (SolveConfig(gomory=False), SolveConfig(gomory=False, cover=True)):
                sol = search(p, cfg)
                assert all(kind == "solve" for kind, _, _ in calls)
                searched += sol.node_count > 0
            sol = search(p, SolveConfig(gomory=True))
            reads = [i for i, c in enumerate(calls) if c[0] == "tableau"]
            assert len(reads) <= solver.MAX_CUT_ROUNDS
            if reads:
                # every basis is read at the root bounds of the first solve,
                # right after a solve and before any node LP
                _, root_lb, root_ub = calls[0]
                for kind, lb, ub in calls[: reads[-1] + 1]:
                    assert np.array_equal(lb, root_lb) and np.array_equal(ub, root_ub)
                assert all(calls[i - 1][0] == "solve" for i in reads)
                separated += sol.cut_counts["gomory"] > 0
        assert separated > 0 and searched > 0
        # a model and a root each: the lexicographic driver runs two searches
        calls.clear()
        builds.clear()
        iterations.clear()
        b = knapsack_problem()
        b.set_secondary_objective("min", {"b0": 1, "b1": 1})
        sol = lexicographic_solve(b, SolveConfig(gomory=True))
        assert 0 < sum(c[0] == "tableau" for c in calls) <= 2 * solver.MAX_CUT_ROUNDS
        assert len(builds) == 2
        # reading the basis costs no iterations: lp_iterations are HiGHS's
        assert sol.lp_iterations == sum(iterations) > 0

    def test_each_node_lp_starts_from_its_parents_basis(self, monkeypatch):
        events = []  # ("prop", lb, ub, ok) | ("restore", basis) | ("solve", lb, ub) | ("snap", basis)
        propagate, solve = solver._propagate, highs.HighsLp.solve
        snapshot, restore = highs.HighsLp.snapshot, highs.HighsLp.restore
        reduce, reducing = solver._reduce, [False]

        def spy_reduce(*args):
            reducing[0] = True
            try:
                return reduce(*args)
            finally:
                reducing[0] = False

        def spy_propagate(rows, lb, ub, int_mask, max_passes):
            lb_in, ub_in = lb.copy(), ub.copy()
            ok = propagate(rows, lb, ub, int_mask, max_passes)
            if not reducing[0]:  # a node's, not the reduction's
                events.append(("prop", lb_in, ub_in, ok))
            return ok

        def spy_solve(self, lb, ub):
            events.append(("solve", lb.copy(), ub.copy()))
            return solve(self, lb, ub)

        def spy_snapshot(self):
            basis = snapshot(self)
            events.append(("snap", basis))
            return basis

        def spy_restore(self, basis):
            events.append(("restore", basis))
            return restore(self, basis)

        monkeypatch.setattr(solver, "_reduce", spy_reduce)
        monkeypatch.setattr(solver, "_propagate", spy_propagate)
        monkeypatch.setattr(highs.HighsLp, "solve", spy_solve)
        monkeypatch.setattr(highs.HighsLp, "snapshot", spy_snapshot)
        monkeypatch.setattr(highs.HighsLp, "restore", spy_restore)

        def nodes_of(events):
            """Per node in pop order: its bounds before propagation, whether
            propagation pruned it, the basis restored, the bounds of its LP,
            the snapshot taken after it and what HiGHS solved last before
            it (a node's index, "polish", or None before the first node)."""
            nodes, last = [], None
            for kind, *args in events:
                node = nodes[-1] if nodes else None
                if kind == "prop":
                    nodes.append(dict(
                        box=args[:2], pruned=not args[2], restored=None, lp=None,
                        snap=None, last=last,
                    ))
                elif kind == "restore":
                    assert node["lp"] is None and not node["pruned"]
                    node["restored"] = args[0]
                elif kind == "solve" and node and node["lp"] is None and not node["pruned"]:
                    node["lp"] = args
                    last = len(nodes) - 1
                elif kind == "solve":  # root and cut rounds, or a polish
                    last = "polish" if nodes else None
                else:  # a snapshot right after the node's own LP
                    assert last == len(nodes) - 1 and node["snap"] is None
                    node["snap"] = args[0]
            return nodes

        def parent_of(nodes, k):
            """The last node before k whose LP box holds k's box and
            differs from it in one column: k's parent."""
            lb, ub = nodes[k]["box"]
            for m in range(k - 1, -1, -1):
                if nodes[m]["lp"] is None:
                    continue
                plb, pub = nodes[m]["lp"]
                if np.all(lb >= plb) and np.all(ub <= pub):
                    if np.count_nonzero((lb != plb) | (ub != pub)) == 1:
                        return m
            raise AssertionError(f"node {k} has no parent")

        tally = dict(restored=0, kept=0, pruned=0, after_polish=0)
        rng = np.random.default_rng(19)
        runs = [(knapsack_problem(), cfg) for _, cfg in CUT_FAMILIES]
        runs += [(random_integer_problem(rng), SolveConfig(gomory=False)) for _ in range(60)]
        for p, cfg in runs:
            events.clear()
            sol = branch_and_bound(p, cfg)
            nodes = nodes_of(events)
            assert len(nodes) == sol.node_count
            for k, node in enumerate(nodes):
                if node["pruned"]:  # pruned by propagation: no LP, no snapshot
                    assert node["snap"] is None and node["lp"] is None
                    tally["pruned"] += 1
                    continue
                if k == 0:  # the root has no parent basis
                    assert node["restored"] is None
                    continue
                parent = nodes[parent_of(nodes, k)]
                assert parent["snap"] is not None
                if node["last"] == parent_of(nodes, k):
                    assert node["restored"] is None  # HiGHS holds the parent's basis
                    tally["kept"] += 1
                else:
                    # the snapshot taken right after the parent's LP
                    assert node["restored"] is parent["snap"]
                    tally["restored"] += 1
                    tally["after_polish"] += node["last"] == "polish"
        assert all(tally.values()), tally

    def test_gomory_cuts_above_the_old_tableau_size(self):
        # 162 columns x 146 rows after reduction, past the 20,000 cells at
        # which the root once got no tableau
        p = blocks_problem()
        red = solver._reduce(p)
        assert len(red.keep) * red.rows.m > 20_000

        A = np.zeros((len(p.constraints), p.n_vars))
        for i, c in enumerate(p.constraints):
            for j, a in c.coeffs.items():
                A[i, j] = a
        c = np.zeros(p.n_vars)
        for j, a in p.objective.coeffs.items():
            c[j] = a
        ref = milp(
            -c, constraints=LinearConstraint(A, -np.inf, [r.rhs for r in p.constraints]),
            integrality=np.ones(p.n_vars), bounds=Bounds(p.lb, p.ub),
            options={"mip_rel_gap": 0.0},
        )
        assert ref.status == 0
        plain = branch_and_bound(p, SolveConfig(gomory=False))
        sol = branch_and_bound(p, SolveConfig(gomory=True))
        assert sol.status == plain.status == "Optimal"
        assert sol.cut_counts["gomory"] > 0
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-9)
        assert plain.objective_value == pytest.approx(-ref.fun, abs=1e-9)
        assert sol.node_count < plain.node_count

    def test_default_search_separates_gomory_cuts(self):
        p = blocks_problem()
        default = branch_and_bound(p)
        explicit = branch_and_bound(p, SolveConfig(gomory=True))
        assert default.status == "Optimal"
        assert default.cut_counts["gomory"] == explicit.cut_counts["gomory"] > 0
        assert default.node_count == explicit.node_count

    def test_gomory_without_cuts_branches_like_no_cuts(self, monkeypatch):
        monkeypatch.setattr(cutmod, "gomory_cuts", lambda *args, max_cuts: [])
        rng = np.random.default_rng(7)
        problems = [knapsack_problem()] + [random_integer_problem(rng) for _ in range(20)]
        branched = 0
        for p in problems:
            plain = branch_and_bound(p, SolveConfig(gomory=False))
            gomory = branch_and_bound(p, SolveConfig(gomory=True))
            assert gomory.cut_counts["gomory"] == 0
            assert gomory.status == plain.status
            assert gomory.node_count == plain.node_count
            assert gomory.objective_value == plain.objective_value
            assert gomory.values == plain.values
            branched += plain.node_count > 0
        assert branched > 0

    def test_integer_values_have_no_negative_zero(self):
        rng = np.random.default_rng(19)
        problems = [knapsack_problem()] + [random_integer_problem(rng) for _ in range(30)]
        problems.append(two_var_lp("integer", 10))
        zeros = 0
        for p in problems:
            for cfg in (SolveConfig(gomory=False), SolveConfig(gomory=True, cover=True)):
                sol = branch_and_bound(p, cfg)
                for v in p.variables:
                    if v.kind in ("integer", "binary") and v.name in sol.values:
                        value = sol.values[v.name]
                        assert not (value == 0.0 and np.signbit(value)), (p, v.name)
                        zeros += value == 0.0
        assert zeros > 0

    def test_branching_tie_rule(self):
        # 0.5 - 1e-13 and 0.5 lie within the 1e-12 margin: the first column
        # keeps the branch, where a plain argmax would pick the second
        x = np.array([0.5 - 1e-13, 0.5, 3.0])
        assert _fractional_index(x, np.array([0, 1, 2])) == 0
        # a clearly larger distance wins; the result is a column index
        assert _fractional_index(np.array([0.2, 7.0, 2.45]), np.array([2, 0])) == 2
        assert _fractional_index(np.array([1.0, 2.0]), np.array([0, 1])) is None

    def test_determinism(self):
        rng = np.random.default_rng(23)
        p = random_integer_problem(rng)
        a = branch_and_bound(p, SolveConfig())
        b = branch_and_bound(p, SolveConfig())
        assert a.values == b.values
        assert a.node_count == b.node_count
        assert a.objective_value == b.objective_value

    def test_time_limit_status(self):
        rng = np.random.default_rng(5)
        p = MipProblem()
        n = 16
        for j in range(n):
            p.add_variable(f"b{j}", "binary")
        for _ in range(12):
            p.add_constraint(
                {f"b{j}": int(rng.integers(2, 9)) for j in range(n)},
                "<=",
                int(rng.integers(12, 25)),
            )
        p.set_objective("max", {f"b{j}": int(rng.integers(3, 9)) for j in range(n)})
        sol = branch_and_bound(p, SolveConfig(time_limit=0.0))
        assert sol.status in ("TimeLimit", "Optimal")

    def test_node_limit_status(self):
        # without cuts, 8 nodes find an incumbent but do not prove it
        p = knapsack_problem()
        full = branch_and_bound(p, SolveConfig(gomory=False))
        assert full.status == "Optimal" and full.node_count > 8
        sol = branch_and_bound(p, SolveConfig(gomory=False, node_limit=8))
        assert sol.status == NODE_LIMIT == "NodeLimit"
        assert sol.node_count == 8
        assert sol.objective_value <= full.objective_value
        assert sol.best_bound >= full.objective_value
        # stopped before any incumbent: no point, but still a node-limit stop
        early = branch_and_bound(p, SolveConfig(gomory=False, node_limit=1))
        assert early.status == NODE_LIMIT and not early.values

    def test_unbounded(self):
        p = MipProblem()
        p.add_variable("x", "continuous", 0, float("inf"))
        p.add_variable("n", "integer", 0, 3)
        p.set_objective("max", {"x": 1, "n": 1})
        sol = branch_and_bound(p)
        assert sol.status == "Unbounded"

    def test_warm_start_only_prunes(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_integer_problem(rng)
            cold = branch_and_bound(p)
            if cold.status != "Optimal":
                continue
            warm = branch_and_bound(p, warm=cold.value_array(p))
            assert warm.objective_value == pytest.approx(cold.objective_value)


def assert_cut_rows(cuts, indptr, indices, data, rhs):
    """``cuts`` are "<=" rows with exactly these CSR arrays and rhs."""
    assert cuts.indptr.tolist() == indptr
    assert cuts.indices.tolist() == indices
    assert cuts.data.tolist() == data
    assert cuts.rhs.tolist() == rhs
    assert cuts.le.all() and not cuts.ge.any()


class TestCuts:
    def test_integral_point_yields_no_cuts(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.add_constraint({"x": 1}, "<=", 3)
        p.set_objective("max", {"x": 1})
        red, cost = stated(p)
        lp = HighsLp(cost, red.rows, "max")
        res = lp.solve(red.lb, red.ub)
        assert res.x[0] == 3.0
        cuts = gomory_cuts(lp, red.lb, red.ub, red.int_mask, res.x)
        assert len(cuts) == 0 and cuts.n == 1

    def test_cover_cut_on_knapsack(self):
        rows = row_set([({0: 3.0, 1: 3.0, 2: 3.0}, "<=", 5.0)], 3)
        cuts = cover_cuts(rows, np.ones(3, dtype=bool), np.array([5 / 9, 5 / 9, 5 / 9]))
        assert_cut_rows(cuts, [0, 3], [0, 1, 2], [1.0, 1.0, 1.0], [1.0])
        # the cover {x1, x2} is listed first, then x0, which weighs at least
        # as much as any cover item: x1 + x2 + x0 <= 1, violated by 0.2
        rows = row_set([({0: 4.0, 1: 3.0, 2: 3.0}, "<=", 5.0)], 3)
        cuts = cover_cuts(rows, np.ones(3, dtype=bool), np.array([0.0, 0.6, 0.6]))
        assert_cut_rows(cuts, [0, 3], [1, 2, 0], [1.0, 1.0, 1.0], [1.0])

    def test_cover_cut_of_a_ge_row_complements_and_back_substitutes(self):
        # -2 x0 + 3 x1 - 4 x2 >= -4 is 2 x0 - 3 x1 + 4 x2 <= 4; with x1
        # complemented, 2 x0 + 3 (1 - x1) + 4 x2 <= 7. At x, the items' LP
        # values are 0.9, 1.0 and 1.0. Ordered by (1 - value) / weight, ties
        # in row order, the greedy cover takes 1 - x1 (weight 3), x2
        # (weight 7, not yet over 7), then x0 (weight 9). Dropping any item
        # leaves at most 7, so the cover is minimal, and no item lies
        # outside it. Its cut (1 - x1) + x2 + x0 <= 2 is -x1 + x2 + x0 <= 1,
        # listed in cover order and violated at x by 0.9
        rows = row_set([({0: -2.0, 1: 3.0, 2: -4.0}, ">=", -4.0)], 3)
        x = np.array([0.9, 0.0, 1.0])
        cuts = cover_cuts(rows, np.ones(3, dtype=bool), x)
        assert_cut_rows(cuts, [0, 3], [1, 2, 0], [-1.0, 1.0, 1.0], [1.0])
        # the cut holds at every binary point that satisfies the row
        points = np.array(list(itertools.product([0.0, 1.0], repeat=3)))
        feasible = points[satisfied(rows, points, 0.0)]
        assert len(feasible) == 7 and satisfied(cuts, feasible, 0.0).all()

    def test_cover_skips_rows_it_cannot_act_on(self):
        x = np.array([5 / 9, 5 / 9, 5 / 9, 0.5])
        binary = np.array([True, True, True, False])
        knapsack = ({0: 3.0, 1: 3.0, 2: 3.0}, "<=", 5.0)
        skipped = [
            ({0: 3.0, 1: 3.0, 3: 3.0}, "<=", 5.0),  # column 3 is not binary
            ({0: 3.0, 1: 3.0, 2: 3.0}, "=", 5.0),  # an equality row
            ({}, "<=", 5.0),  # an empty row
        ]
        assert len(cover_cuts(row_set(skipped, 4), binary, x)) == 0
        # the rows in between do not disturb the knapsack's cut
        cuts = cover_cuts(row_set(skipped + [knapsack], 4), binary, x)
        assert_cut_rows(cuts, [0, 3], [0, 1, 2], [1.0, 1.0, 1.0], [1.0])
        assert cuts.n == 4

    def test_cover_keeps_a_repeated_cut_once_and_stops_at_max_cuts(self):
        x = np.array([5 / 9, 5 / 9, 5 / 9, 0.6, 0.6])
        binary = np.ones(5, dtype=bool)
        first = ({0: 3.0, 1: 3.0, 2: 3.0}, "<=", 5.0)
        second = ({3: 2.0, 4: 2.0}, "<=", 3.0)  # x3 + x4 <= 1, violated by 0.2
        rows = row_set([first, first, second], 5)
        cuts = cover_cuts(rows, binary, x)
        assert_cut_rows(cuts, [0, 3, 5], [0, 1, 2, 3, 4], [1.0] * 5, [1.0, 1.0])
        # the repeated row counts toward no cut, so one cut is the first
        one = cover_cuts(rows, binary, x, max_cuts=1)
        assert_cut_rows(one, [0, 3], [0, 1, 2], [1.0, 1.0, 1.0], [1.0])
        assert len(cover_cuts(rows, binary, x, max_cuts=0)) == 0

    def test_all_cuts_valid_by_enumeration(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(100):
            p = small_knapsack(rng)
            red, cost = stated(p)
            lp = HighsLp(cost, red.rows, "max")
            res = lp.solve(red.lb, red.ub)
            if res.status != "Optimal":
                continue
            gomory = gomory_cuts(lp, red.lb, red.ub, red.int_mask, res.x)
            cover = cover_cuts(red.rows, red.binary, res.x)
            if not (gomory or cover):
                continue
            lb, ub = red.lb, red.ub
            ranges = [range(int(lb[i]), int(ub[i]) + 1) for i in range(len(red.keep))]
            points = np.array(list(itertools.product(*ranges)), dtype=float)
            feasible = points[satisfied(red.rows, points, 1e-9)]
            for cuts in (gomory, cover):
                held = satisfied(cuts, feasible, 1e-7)
                assert held.all(), feasible[~held]
            checked += 1
        assert checked >= 20  # enough problems actually produced cuts

    def test_mixed_integer_cuts_valid_by_milp(self):
        # continuous columns and "<=" rows whose activities enter Gomory's
        # source rows; milp gives each cut's least activity over the MIP
        rng = np.random.default_rng(37)
        checked = mixed = 0
        for _ in range(60):
            p = MipProblem()
            for j in range(3):
                p.add_variable(f"n{j}", "integer", 0, int(rng.integers(1, 4)))
            for j in range(2):
                p.add_variable(f"c{j}", "continuous", 0, float(rng.integers(2, 6)))
            for _r in range(int(rng.integers(2, 4))):
                coeffs = {v.name: int(rng.integers(-2, 6)) for v in p.variables}
                p.add_constraint(coeffs, "<=", int(rng.integers(3, 12)))
            p.set_objective("max", {v.name: int(rng.integers(1, 7)) for v in p.variables})
            red, cost = stated(p)
            lp = HighsLp(cost, red.rows, "max")
            res = lp.solve(red.lb, red.ub)
            if res.status != "Optimal":
                continue
            cuts = gomory_cuts(lp, red.lb, red.ub, red.int_mask, res.x)
            rows = LinearConstraint(red.rows.matrix_t.T.toarray(), *red.rows.row_bounds)
            assert cuts.ge.all() and not cuts.le.any()
            for c, rhs in zip(cuts.matrix_t.T.toarray(), cuts.rhs):
                least = milp(
                    c, constraints=rows, integrality=red.int_mask.astype(float),
                    bounds=Bounds(red.lb, red.ub), options={"mip_rel_gap": 0.0},
                )
                assert least.status == 0
                assert least.fun >= rhs - 1e-7 * max(1.0, abs(rhs)), (c, rhs)
                assert c @ res.x < rhs  # and the LP point is cut off
                mixed += bool(np.any(c[~red.int_mask]))
            checked += bool(cuts)
        assert checked >= 20 and mixed >= 20

    def test_search_pinned_under_each_cut_family(self):
        """Nodes, LP iterations, cut counts and optima of searches in which
        both separators fire, one tuple per ``CUT_FAMILIES`` setting.

        A cut row that changes an entry, its entry order or its place
        among the rows changes the bases HiGHS warm-starts from, and with
        them these counts; so does a node LP that starts from another
        basis than its parent's. Problem 54 gets a
        cover cut only with Gomory on: cover separates over rows that hold
        the same round's Gomory cuts.
        """
        pinned = {
            "knapsack": [
                (103, 219, 0, 0, 16.000000000000007),
                (89, 308, 55, 0, 15.999999999999972),
                (101, 243, 0, 3, 16.0),
                (41, 265, 71, 29, 16.000000000000014),
            ],
            12: [
                (5, 8, 0, 0, 6.0),
                (3, 24, 12, 0, 5.9999999999999964),
                (0, 5, 0, 2, 6.0),
                (0, 6, 2, 2, 6.0),
            ],
            19: [
                (3, 4, 0, 0, 4.0),
                (0, 5, 3, 0, 4.0),
                (3, 7, 0, 3, 4.0),
                (0, 4, 2, 3, 3.9999999999999996),
            ],
            27: [
                (7, 11, 0, 0, 4.0),
                (0, 8, 5, 0, 4.000000000000003),
                (0, 5, 0, 4, 4.0),
                (0, 7, 3, 4, 4.0),
            ],
            34: [
                (3, 4, 0, 0, 3.0),
                (0, 5, 4, 0, 2.999999999999999),
                (0, 4, 0, 2, 2.9999999999999996),
                (0, 4, 2, 1, 2.9999999999999982),
            ],
            36: [
                (4, 5, 0, 0, 8.0),
                (0, 3, 2, 0, 8.0),
                (3, 6, 0, 1, 8.0),
                (0, 5, 3, 3, 8.0),
            ],
            39: [
                (5, 6, 0, 0, 6.0),
                (0, 6, 3, 0, 5.999999999999998),
                (3, 8, 0, 4, 6.0),
                (0, 5, 3, 4, 6.000000000000003),
            ],
            54: [
                (5, 5, 0, 0, 7.0),
                (0, 2, 1, 0, 7.0),
                (5, 5, 0, 0, 7.0),
                (0, 2, 1, 1, 7.0),
            ],
            59: [
                (3, 6, 0, 0, 6.0),
                (0, 7, 5, 0, 6.0),
                (3, 10, 0, 3, 6.0),
                (0, 10, 9, 3, 5.999999999999982),
            ],
            90: [
                (7, 7, 0, 0, 6.0),
                (0, 4, 2, 0, 6.0),
                (0, 4, 0, 3, 6.0),
                (0, 4, 2, 2, 6.0),
            ],
        }
        rng = np.random.default_rng(29)  # the stream of test_all_cuts_valid_by_enumeration
        stream = [small_knapsack(rng) for _ in range(100)]
        for key, want in pinned.items():
            p = knapsack_problem() if key == "knapsack" else stream[key]
            got = []
            for _, cfg in CUT_FAMILIES:
                sol = branch_and_bound(p, cfg)
                assert sol.status == "Optimal"
                got.append((
                    sol.node_count, sol.lp_iterations, sol.cut_counts["gomory"],
                    sol.cut_counts["cover"], sol.objective_value,
                ))
            assert got == want, key

    def test_cuts_never_change_the_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p = random_integer_problem(rng)
            base = branch_and_bound(p, SolveConfig(gomory=False))
            cut = branch_and_bound(p, SolveConfig(gomory=True, cover=True))
            assert base.status == cut.status
            if base.status == "Optimal":
                assert base.objective_value == pytest.approx(cut.objective_value)

    def test_root_bound_never_loosens_with_cuts(self):
        rng = np.random.default_rng(43)
        tightened = 0
        for _ in range(40):
            p = random_integer_problem(rng, allow_eq=False)
            relax = lp_solve(p)
            if relax.status != "Optimal":
                continue
            sol = branch_and_bound(p, SolveConfig(gomory=True, cover=True))
            if sol.status != "Optimal":
                continue
            # the proven optimum can never exceed the root LP bound
            assert sol.objective_value <= relax.objective_value + 1e-6
            if sol.cut_counts["gomory"] + sol.cut_counts["cover"] > 0:
                tightened += 1
        assert tightened > 0


class TestReduction:
    def test_long_substitution_chain_reduces(self):
        # x0 = 3 pins one more column per propagation and substitution
        # pass, rows listed from the far end; 80 columns once ran out of
        # passes and left pinned columns in the kept rows
        p = MipProblem()
        for i in range(80):
            p.add_variable(f"x{i}", "integer", 0, 10)
        for i in reversed(range(79)):
            p.add_constraint({f"x{i + 1}": 1, f"x{i}": -1}, "=", 0)
        p.add_constraint({"x0": 1}, "=", 3)
        p.set_objective("max", {f"x{i}": 1 for i in range(80)})
        sol = branch_and_bound(p)
        assert sol.status == "Optimal"
        assert sol.objective_value == 240.0
        assert set(sol.values.values()) == {3.0}

    def test_fractional_integer_bound_in_a_slack_row_is_rounded_and_pinned(self):
        # b in [0.5, 1] rounds to 1 and n in [0, 1.5] to [0, 1] although
        # the row tightens nothing, so the reduction substitutes b out
        # before it drops b's column
        p = MipProblem()
        p.add_variable("b", "binary", 0.5, 1)
        p.add_variable("n", "integer", 0, 1.5)
        p.add_variable("y", "continuous", 0, 1)
        p.add_constraint({"b": 1, "n": 1, "y": 1}, "<=", 5)
        p.set_objective("max", {"b": 1, "n": 2, "y": 3})
        red = solver._reduce(p)
        assert red.feasible and red.keep.tolist() == [1, 2]
        assert red.ub.tolist() == [1.0, 1.0] and red.full_values.tolist() == [1.0, 0.0, 0.0]
        sol = branch_and_bound(p)
        assert sol.status == "Optimal"
        assert sol.values == {"b": 1.0, "n": 1.0, "y": 1.0}
        assert sol.objective_value == 6.0

    def test_objective_maps_pinned_terms_left_to_right(self):
        # terms listed out of column order, pinned ones whose sum depends
        # on the order it is taken in: 0.1 + 1 + 1e16 - 1e16 is 2 left to
        # right in the objective's order, 0 in column order and 1.1 exactly
        p = MipProblem()
        for name in ("k0", "p0", "k1", "p1", "p2"):
            pinned = name.startswith("p")
            p.add_variable(name, "integer", 1 if pinned else 0, 1 if pinned else 4)
        p.add_constraint({"k0": 1, "k1": 1}, "<=", 5)
        p.set_objective(
            "max", {"k1": 3.0, "p1": 1.0, "k0": 2.0, "p0": 1e16, "p2": -1e16}, 0.1
        )
        red = solver._reduce(p)
        assert red.keep.tolist() == [0, 2]
        cost, kept, constant = _objective_on(red, p.objective)
        assert cost.tolist() == [2.0, 3.0]
        assert kept == [1, 0]  # k1 first, as the objective lists it
        want = p.objective.constant
        for j, c in p.objective.coeffs.items():
            if j not in red.keep:
                want += c * red.full_values[j]
        assert want == 2.0
        assert constant == want

    def test_reused_rows_match_a_fresh_compile(self, monkeypatch):
        """The rows handed from reduction to the relaxation, and the rows
        after each cut round, are those compiled afresh from dict rows
        reduced row by row; no half-row layout is built in cut rounds,
        and a search's nodes build at most one, the reduced rows', at the
        first node."""
        phase = ["reduce"]
        reduced_rows = [None]  # the rows the current search's relaxation starts from
        layouts = []  # (phase, search, built for the reduced rows) per layout built
        cuts = []  # dict rows added so far in the current search
        ref = {}
        checks = {"reduced": 0, "rounds": 0}

        def reference(problem):
            # pinned columns substituted out of dict rows, row by row
            lb, ub = problem.lb.copy(), problem.ub.copy()
            int_mask = problem.kinds != "continuous"
            rows = [(dict(c.coeffs), c.relation, c.rhs) for c in problem.constraints]
            n = problem.n_vars
            if not real_propagate(row_set(rows, n), lb, ub, int_mask, max_passes=6):
                return None
            while True:
                fixed = (ub - lb) <= solver.FIX_EPS
                new_rows, changed = [], False
                for coeffs, rel, rhs in rows:
                    kept, r = {}, rhs
                    for j, a in coeffs.items():
                        if fixed[j]:
                            r -= a * lb[j]
                        else:
                            kept[j] = a
                    changed |= len(kept) < len(coeffs)
                    if len(kept) == 1:
                        (j, a), = kept.items()
                        if rel in ("<=", "=") and a > 0 or rel in (">=", "=") and a < 0:
                            ub[j] = min(ub[j], r / a)
                        if rel in ("<=", "=") and a < 0 or rel in (">=", "=") and a > 0:
                            lb[j] = max(lb[j], r / a)
                        changed = True
                    elif kept:
                        new_rows.append((kept, rel, r))
                rows = new_rows
                lb[int_mask] = np.ceil(lb[int_mask] - 1e-6)
                ub[int_mask] = np.floor(ub[int_mask] + 1e-6)
                if np.any(lb > ub + 1e-7):
                    return None
                if not changed:
                    break
                if not real_propagate(row_set(rows, n), lb, ub, int_mask, max_passes=2):
                    return None
            keep = np.flatnonzero((ub - lb) > solver.FIX_EPS)
            pos = {int(j): p for p, j in enumerate(keep)}
            return keep, [({pos[j]: a for j, a in c.items()}, rel, r) for c, rel, r in rows]

        def assert_same(got, n):
            was, phase[0] = phase[0], "check"
            want = row_set(ref["rows"] + cuts, n)
            for name in ("indptr", "indices", "data", "rhs", "le", "ge"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            for a, b in zip(got.row_bounds, want.row_bounds):
                assert np.array_equal(a, b)
            assert got.first_empty_failure == want.first_empty_failure
            # a row set over the same arrays builds the layout, so got
            # holds none that the search did not build itself
            got = dataclasses.replace(got)
            for name in HalfRows._fields:
                a, b = getattr(got.halves, name), getattr(want.halves, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            phase[0] = was

        real_reduce = solver._reduce
        real_propagate = solver._propagate
        real_init = HighsLp.__init__
        real_add = HighsLp.add_rows
        real_layout = CompiledRows._layout

        def spy_reduce(problem):
            phase[0] = "reduce"
            cuts.clear()
            out = reference(problem)
            red = real_reduce(problem)
            assert red.feasible == (out is not None)
            if out is not None:
                assert np.array_equal(red.keep, out[0])
                ref["rows"] = out[1]
            return red

        def spy_init(self, c, rows, sense):
            real_init(self, c, rows, sense)
            assert_same(self.rows, self.n)
            reduced_rows[0] = self.rows
            checks["reduced"] += 1
            phase[0] = "cuts"

        def spy_add(self, rows):
            real_add(self, rows)
            ptr, cols, vals = rows.indptr, rows.indices.tolist(), rows.data.tolist()
            for i, (le, ge, rhs) in enumerate(zip(rows.le, rows.ge, rows.rhs.tolist())):
                coeffs = dict(zip(cols[ptr[i] : ptr[i + 1]], vals[ptr[i] : ptr[i + 1]]))
                cuts.append((coeffs, "=" if le and ge else "<=" if le else ">=", rhs))
            assert_same(self.rows, self.n)
            checks["rounds"] += 1

        def spy_propagate(rows, *args, **kwargs):
            if phase[0] == "cuts":  # the first node: the cut rounds are over
                phase[0] = "nodes"
            return real_propagate(rows, *args, **kwargs)

        def spy_layout(self):
            layouts.append((phase[0], checks["reduced"], self is reduced_rows[0]))
            return real_layout(self)

        monkeypatch.setattr(solver, "_reduce", spy_reduce)
        monkeypatch.setattr(solver, "_propagate", spy_propagate)
        monkeypatch.setattr(HighsLp, "__init__", spy_init)
        monkeypatch.setattr(HighsLp, "add_rows", spy_add)
        monkeypatch.setattr(CompiledRows, "_layout", spy_layout)

        rng = np.random.default_rng(23)
        problems = [knapsack_problem(), blocks_problem()]
        for _ in range(30):
            p = random_integer_problem(rng)
            problems.append(p)
            # pinned columns for the reduction to substitute out
            pins = {v.name: float(rng.integers(0, int(v.ub) + 1)) for v in p.variables[:2]}
            problems.append(fix_variables(p, pins))
            # fractional terms, whose sum depends on the order they are taken in
            q = MipProblem()
            for v in p.variables:
                q.add_variable(v.name, v.kind, v.lb, v.ub)
            for j in range(3):
                q.add_variable(f"c{j}", "continuous", 0, 1)
            for c in p.constraints:
                coeffs = {j: a * rng.uniform(0.3, 3) for j, a in c.coeffs.items()}
                coeffs.update({p.n_vars + j: rng.uniform(-2, 2) for j in range(3)})
                q.add_constraint(coeffs, c.relation, c.rhs + rng.uniform(0, 1))
            q.set_objective("max", dict(p.objective.coeffs))
            pins = {f"c{j}": rng.uniform(0, 1) for j in range(3)}
            problems.append(fix_variables(q, pins))
        for p in problems:
            for cfg in (SolveConfig(gomory=False), SolveConfig(gomory=True, cover=True)):
                branch_and_bound(p, cfg)
        assert checks["reduced"] > 30 and checks["rounds"] > 10
        assert all(built[0] != "cuts" for built in layouts)
        at_nodes = [built[1:] for built in layouts if built[0] == "nodes"]
        assert at_nodes and all(reduced for _, reduced in at_nodes)
        assert len(set(at_nodes)) == len(at_nodes)  # one per search at most

    @pytest.mark.parametrize("rhs, verdict", [(-5e-8, "Optimal"), (-5e-7, "Infeasible")])
    def test_an_empty_row_has_one_verdict_however_it_is_reached(self, rhs, verdict):
        """A row whose terms are all gone has activity 0, and that fails
        its rhs by the same tolerance whether it was stated empty, is
        one column at its bound, or was emptied by substitution."""

        def problem(*names):
            p = MipProblem()
            p.add_variable("x", "integer", 0, 5)
            for name in names:
                p.add_variable(name, "continuous", 0, 4)
            p.set_objective("max", {"x": 1})
            return p

        stated = problem()
        stated.add_constraint({"x": 0.0}, "<=", rhs)
        bounded = problem("z")
        bounded.add_constraint({"z": 1.0}, "<=", rhs)
        emptied = problem("z", "w")
        emptied.add_constraint({"z": 1.0, "w": 1.0}, "<=", rhs)
        emptied = fix_variables(emptied, {"z": 0.0, "w": 0.0})
        for p in (stated, bounded, emptied):
            assert branch_and_bound(p).status == verdict


class TestFixVariables:
    def test_fix_binary(self):
        p = MipProblem()
        p.add_variable("b", "binary")
        p.set_objective("max", {"b": 1})
        fixed = fix_variables(p, {"b": 1})
        assert fixed.lb[0] == fixed.ub[0] == 1.0

    def test_fix_everything_reduces_to_evaluation(self):
        p = two_var_lp("integer", 10)
        fixed = fix_variables(p, {"x": 2, "y": 1})
        sol = branch_and_bound(fixed)
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(14.0)
        assert sol.node_count == 0

    def test_fix_violating_row_is_infeasible(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 9)
        p.add_constraint({"x": 1}, "<=", 3)
        p.set_objective("max", {"x": 1})
        sol = branch_and_bound(fix_variables(p, {"x": 5}))
        assert sol.status == "Infeasible"

    def test_out_of_bounds_fix_rejected(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 3)
        with pytest.raises(MipError):
            fix_variables(p, {"x": 7})
        with pytest.raises(MipError):
            fix_variables(p, {"x": 1.5})

    def test_nan_fix_rejected(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 3)
        p.add_variable("y", "continuous", 0, 3)
        p.expr_map["s"] = AffineExpr({0: 1.0, 1: 1.0})
        for name in ("x", "y", "s"):
            with pytest.raises(MipError, match=f"fix of '{name}' to NaN"):
                fix_variables(p, {name: float("nan")})

    def test_fixing_never_improves(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            p = random_integer_problem(rng)
            free = branch_and_bound(p)
            if free.status != "Optimal":
                continue
            name = p.variables[0].name
            value = float(rng.integers(0, int(p.variables[0].ub) + 1))
            fixed_sol = branch_and_bound(fix_variables(p, {name: value}))
            if fixed_sol.status == "Optimal":
                assert fixed_sol.objective_value <= free.objective_value + 1e-6


class TestLexicographic:
    def test_identical_objectives(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.add_constraint({"x": 1}, "<=", 4)
        p.set_objective("max", {"x": 1})
        p.set_secondary_objective("max", {"x": 1})
        sol = lexicographic_solve(p)
        assert sol.objective_value == pytest.approx(4.0)
        assert sol.secondary_value == pytest.approx(4.0)

    def test_opposed_objectives_keep_stage_one(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.set_objective("max", {"x": 1})
        p.set_secondary_objective("max", {"x": -1})
        sol = lexicographic_solve(p)
        assert sol.values["x"] == 5.0

    def test_matches_constrained_enumeration(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            p = random_integer_problem(rng, n_max=5)
            f = {f"v{j}": int(rng.integers(-4, 5)) for j in range(p.n_vars)}
            p.set_secondary_objective("max", f)
            sol = lexicographic_solve(p)
            if sol.status != "Optimal":
                continue
            g_best, _ = enumerate_best(p)
            assert sol.objective_value == pytest.approx(g_best)
            # brute-force max of f among integer points with g at optimum
            lb, ub = p.lb, p.ub
            obj = p.objective
            fobj = Objective("max", p._coerce_coeffs(f))
            best_f = None
            for point in itertools.product(
                *[range(int(lb[i]), int(ub[i]) + 1) for i in range(p.n_vars)]
            ):
                values = np.array(point, dtype=float)
                if p.check_point(values, tol=1e-9):
                    continue
                if abs(obj.value(values) - g_best) > 1e-9:
                    continue
                fv = fobj.value(values)
                if best_f is None or fv > best_f:
                    best_f = fv
            assert sol.secondary_value == pytest.approx(best_f)

    def test_stage_two_leaves_the_problem_as_stated(self):
        p = knapsack_problem()
        p.set_secondary_objective("min", {f"b{j}": 1 for j in range(p.n_vars)})
        rows = list(p.constraints)
        names, kinds = list(p.names), p.kinds.copy()
        lb, ub = p.lb.copy(), p.ub.copy()
        sol = lexicographic_solve(p)
        assert sol.status == "Optimal" and not sol.stage2_fallback
        assert len(p.constraints) == len(rows)
        assert all(a is b for a, b in zip(p.constraints, rows))
        assert p.names == names
        assert np.array_equal(p.kinds, kinds)
        assert np.array_equal(p.lb, lb) and np.array_equal(p.ub, ub)

    def test_node_limit_stop_still_runs_stage_two(self):
        p = knapsack_problem()
        p.set_secondary_objective("min", {f"b{j}": 1 for j in range(p.n_vars)})
        sol = lexicographic_solve(p, SolveConfig(gomory=False, node_limit=8))
        assert sol.status == NODE_LIMIT
        assert not sol.stage2_fallback
        assert sol.secondary_value is not None
        assert sol.objective_value >= 13.0 - 1e-6  # stage 1's incumbent, retained

    def test_stage_two_without_a_point_falls_back_explicitly(self, monkeypatch):
        from fleetopt.mip import solver

        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.add_constraint({"x": 1}, "<=", 4)
        p.set_objective("max", {"x": 1})
        p.set_secondary_objective("min", {"x": 1})
        real = solver.branch_and_bound

        def stage_two_infeasible(
            problem, cfg=None, objective=None, warm=None, reduced=None
        ):
            if objective is not None:
                return Solution(status="Infeasible")
            return real(problem, cfg, reduced=reduced)

        monkeypatch.setattr(solver, "branch_and_bound", stage_two_infeasible)
        sol = lexicographic_solve(p)
        assert sol.stage2_fallback
        assert sol.status == "Optimal"
        assert sol.values == {"x": 4.0}
        assert sol.secondary_value == pytest.approx(4.0)
        again = Solution.from_json(sol.to_json())
        assert again.stage2_fallback
        monkeypatch.undo()
        assert not lexicographic_solve(p).stage2_fallback

    def test_stage_one_infeasibility_propagates(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 3)
        p.add_constraint({"x": 1}, ">=", 5)
        p.set_objective("max", {"x": 1})
        p.set_secondary_objective("min", {"x": 1})
        assert lexicographic_solve(p).status == "Infeasible"
