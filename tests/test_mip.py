import itertools

import numpy as np
import pytest

from fleetopt.mip import (
    NODE_LIMIT,
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
    read_lp,
    write_lp,
)
from fleetopt.mip.problem import Objective
from fleetopt.mip.simplex import solve_lp_dense
from fleetopt.mip.solver import _Relaxation, _reduce


def two_var_lp():
    p = MipProblem()
    p.add_variable("x", "continuous", 0, float("inf"))
    p.add_variable("y", "continuous", 0, float("inf"))
    p.add_constraint({"x": 6, "y": 4}, "<=", 24)
    p.add_constraint({"x": 1, "y": 2}, "<=", 6)
    p.set_objective("max", {"x": 5, "y": 4})
    return p


def enumerate_best(problem, maximize=True):
    """Brute-force optimum over the integer lattice of a pure-integer problem."""
    lb, ub = problem.bounds_arrays()
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

    def test_integer_needs_finite_bounds(self):
        p = MipProblem()
        with pytest.raises(MipError):
            p.add_variable("n", "integer", 0, float("inf"))

    def test_unknown_relation(self):
        p = MipProblem()
        p.add_variable("x")
        with pytest.raises(MipError):
            p.add_constraint({"x": 1}, "<", 1)

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

    def test_lp_file_round_trip(self, tmp_path):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 10)
        p.add_variable("y", "continuous", -2, 7.5)
        p.add_variable("b", "binary")
        p.add_constraint({"x": 2, "y": -1.5}, "<=", 4)
        p.add_constraint({"x": 1, "b": 3}, ">=", 1)
        p.add_constraint({"y": 1, "b": -1}, "=", 0.5)
        p.set_objective("max", {"x": 1, "y": 2, "b": -3})
        path = tmp_path / "round.lp"
        write_lp(p, str(path))
        q = read_lp(str(path))
        assert [v.name for v in q.variables] == [v.name for v in p.variables]
        assert [(v.kind, v.lb, v.ub) for v in q.variables] == [
            (v.kind, v.lb, v.ub) for v in p.variables
        ]
        assert q.objective.sense == "max"
        sol_p = branch_and_bound(p)
        sol_q = branch_and_bound(q)
        assert sol_p.objective_value == pytest.approx(sol_q.objective_value)


class TestLpSolve:
    def test_known_vertex(self):
        sol = lp_solve(two_var_lp())
        assert sol.status == "Optimal"
        assert sol.objective_value == pytest.approx(21.0)
        assert sol.values["x"] == pytest.approx(3.0)
        assert sol.values["y"] == pytest.approx(1.5)
        # both structural variables sit in the optimal basis
        assert sol.basis is not None
        assert {"x", "y"} <= set(sol.basis)

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
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_integer_problem(rng)
            a = lp_solve(p, SolveConfig(lp_backend="simplex"))
            b = lp_solve(p, SolveConfig(lp_backend="highs"))
            assert a.status == b.status
            if a.status == "Optimal":
                assert a.objective_value == pytest.approx(
                    b.objective_value, abs=1e-7
                )


class TestBranchAndBound:
    def test_known_integer_optimum(self):
        p = two_var_lp()
        for v in p.variables:
            v.kind = "integer"
            v.ub = 10.0
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
            SolveConfig(),
            SolveConfig(gomory=True),
            SolveConfig(cover=True),
            SolveConfig(gomory=True, cover=True),
            SolveConfig(lp_backend="highs"),
            SolveConfig(seed=5),  # randomized tie-breaking stays exact
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
        p = knapsack_problem()
        full = branch_and_bound(p)
        assert full.status == "Optimal" and full.node_count > 8
        sol = branch_and_bound(p, SolveConfig(node_limit=8))
        assert sol.status == NODE_LIMIT == "NodeLimit"
        assert sol.node_count == 8
        assert sol.objective_value <= full.objective_value
        assert sol.best_bound >= full.objective_value
        # stopped before any incumbent: no point, but still a node-limit stop
        early = branch_and_bound(p, SolveConfig(node_limit=1))
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
            warm = branch_and_bound(p, warm_values=cold.values)
            assert warm.objective_value == pytest.approx(cold.objective_value)


class TestCuts:
    def test_integral_point_yields_no_cuts(self):
        p = MipProblem()
        p.add_variable("x", "integer", 0, 5)
        p.add_constraint({"x": 1}, "<=", 3)
        p.set_objective("max", {"x": 1})
        red = _reduce(p, p.objective, propagate=False)
        rel = _Relaxation(red, SolveConfig(lp_backend="simplex"))
        res = rel.solve("max", red.lb, red.ub, want_tableau=True)
        assert gomory_cuts(res.state) == []

    def test_cover_cut_on_knapsack(self):
        p = MipProblem()
        for j in range(3):
            p.add_variable(f"x{j + 1}", "binary")
        p.add_constraint({"x1": 3, "x2": 3, "x3": 3}, "<=", 5)
        p.set_objective("max", {"x1": 1, "x2": 1, "x3": 1})
        cuts = cover_cuts(p, np.array([5 / 9, 5 / 9, 5 / 9]))
        assert len(cuts) == 1
        coeffs, rel, rhs = cuts[0]
        assert rel == "<=" and rhs == 1.0
        assert coeffs == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_all_cuts_valid_by_enumeration(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(100):
            # knapsack-shaped problems: fractional LP vertices, so both
            # separators actually fire
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
            p.set_objective(
                "max", {f"v{j}": int(rng.integers(1, 7)) for j in range(n)}
            )
            red = _reduce(p, p.objective, propagate=False)
            if not red.feasible or len(red.keep) == 0:
                continue
            rel = _Relaxation(red, SolveConfig(lp_backend="simplex"))
            res = rel.solve("max", red.lb, red.ub, want_tableau=True)
            if res.status != "Optimal":
                continue
            from fleetopt.mip.cuts import cover_cuts_raw

            cuts = gomory_cuts(res.state) + cover_cuts_raw(
                rel.rows, red.kinds, res.x
            )
            if not cuts:
                continue
            lb, ub = red.lb, red.ub
            ranges = [range(int(lb[i]), int(ub[i]) + 1) for i in range(len(red.keep))]
            for point in itertools.product(*ranges):
                values = np.array(point, dtype=float)
                feasible = True
                for coeffs, relation, rhs in red.rows:
                    act = sum(a * values[j] for j, a in coeffs.items())
                    if relation == "<=" and act > rhs + 1e-9:
                        feasible = False
                    elif relation == ">=" and act < rhs - 1e-9:
                        feasible = False
                    elif relation == "=" and abs(act - rhs) > 1e-9:
                        feasible = False
                    if not feasible:
                        break
                if not feasible:
                    continue
                for coeffs, relation, rhs in cuts:
                    act = sum(a * values[j] for j, a in coeffs.items())
                    if relation == "<=":
                        assert act <= rhs + 1e-7, (coeffs, rhs, point)
                    else:
                        assert act >= rhs - 1e-7, (coeffs, rhs, point)
            checked += 1
        assert checked >= 20  # enough problems actually produced cuts

    def test_cuts_never_change_the_optimum(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p = random_integer_problem(rng)
            base = branch_and_bound(p, SolveConfig())
            cut = branch_and_bound(p, SolveConfig(gomory=True, cover=True))
            assert base.status == cut.status
            if base.status == "Optimal":
                assert base.objective_value == pytest.approx(cut.objective_value)

    def test_root_bound_never_loosens_with_cuts(self):
        rng = np.random.default_rng(43)
        tightened = 0
        for _ in range(40):
            p = random_integer_problem(rng, allow_eq=False)
            relax = lp_solve(p, SolveConfig(lp_backend="simplex"))
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


class TestFixVariables:
    def test_fix_binary(self):
        p = MipProblem()
        p.add_variable("b", "binary")
        p.set_objective("max", {"b": 1})
        fixed = fix_variables(p, {"b": 1})
        var = fixed.variables[0]
        assert var.lb == var.ub == 1.0

    def test_fix_everything_reduces_to_evaluation(self):
        p = two_var_lp()
        for v in p.variables:
            v.kind = "integer"
            v.ub = 10
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
            lb, ub = p.bounds_arrays()
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

    def test_node_limit_stop_still_runs_stage_two(self):
        p = knapsack_problem()
        p.set_secondary_objective("min", {f"b{j}": 1 for j in range(p.n_vars)})
        sol = lexicographic_solve(p, SolveConfig(node_limit=8))
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

        def stage_two_infeasible(problem, cfg=None, objective=None, warm_values=None):
            if objective is not None:
                return Solution(status="Infeasible")
            return real(problem, cfg)

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
