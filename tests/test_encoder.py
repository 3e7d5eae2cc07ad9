import numpy as np
import pytest

from fleetopt.encoder import (
    EPSILON_STRICT,
    EncoderError,
    embed_forest,
    prune,
    trace_leaf,
)
from fleetopt.forest import FeatureSchema, Forest, TrainConfig, TreeNode, train
from fleetopt.mip import AffineExpr, MipProblem, SolveConfig, branch_and_bound, lp_solve
from fleetopt.mip.problem import INT_TOL
from fleetopt.mip.solver import fix_variables


def stump(threshold=3.5, left=10.0, right=20.0, feature=0):
    return TreeNode(
        feature=feature, threshold=threshold,
        left=TreeNode(value=left), right=TreeNode(value=right),
    )


def forest_of(trees, n_features=1):
    schema = FeatureSchema(
        names=tuple(f"f{i}" for i in range(n_features)), n_exogenous=0
    )
    return Forest(trees=trees, schema=schema, config=TrainConfig(), seed=0)


class TestPrune:
    def test_stump_collapses_to_taken_leaf(self):
        pruned = prune(stump(), {0: 2.0})
        assert pruned.is_leaf and pruned.value == 10.0
        pruned = prune(stump(), {0: 4.0})
        assert pruned.is_leaf and pruned.value == 20.0

    def test_no_fixed_features_is_identity(self):
        tree = stump()
        pruned = prune(tree, {})
        assert pruned.threshold == tree.threshold
        assert pruned.left.value == 10.0 and pruned.right.value == 20.0

    def test_prediction_equality_on_random_trees(self):
        rng = np.random.default_rng(7)
        rows = [(row.tolist(), float(row[0] - 2 * row[1] + row[2] ** 2))
                for row in rng.uniform(0, 10, (80, 3))]
        schema = FeatureSchema(names=("a", "b", "c"), n_exogenous=1)
        f = train(rows, TrainConfig(n_trees=4, seed=1), schema)
        for _ in range(100):
            full = rng.uniform(0, 10, 3)
            fixed = {0: full[0]}
            for tree in f.trees:
                pruned = prune(tree, fixed)
                assert pruned.predict(full) == tree.predict(full)


class TestTraceLeaf:
    def test_boundary_goes_left(self):
        leaf, q = trace_leaf(stump(), np.array([3.5]))
        assert leaf == 1  # preorder: root 0, left leaf 1, right leaf 2
        assert q == {1: 1, 2: 0}

    def test_just_past_boundary_goes_right(self):
        leaf, q = trace_leaf(stump(), np.array([3.5 + 1e-9]))
        assert leaf == 2
        assert q == {1: 0, 2: 1}

    def test_traced_leaf_matches_single_tree_prediction(self):
        rng = np.random.default_rng(9)
        rows = [(row.tolist(), float(row[0] * row[1]))
                for row in rng.integers(0, 8, (60, 2)).astype(float)]
        schema = FeatureSchema(names=("a", "b"), n_exogenous=0)
        f = train(rows, TrainConfig(n_trees=3, seed=2), schema)
        ids_value = {}
        for tree in f.trees:
            for _ in range(20):
                x = rng.integers(0, 8, 2).astype(float)
                leaf_id, _ = trace_leaf(tree, x)
                # collect leaf values by id and compare against descent
                def find(node, nid=0):
                    order = {"next": 0}
                    found = {}

                    def visit(n):
                        my = order["next"]
                        order["next"] += 1
                        found[my] = n
                        if not n.is_leaf:
                            visit(n.left)
                            visit(n.right)

                    visit(node)
                    return found[nid]

                assert find(tree, leaf_id).value == tree.predict(x)


def feature_columns(mip, bounds, integer=True):
    """One bare column per bounded feature; returns their expressions."""
    kind = "integer" if integer else "continuous"
    return {
        f_idx: AffineExpr.of_var(mip.add_variable(f"f{f_idx}", kind, lo, hi))
        for f_idx, (lo, hi) in bounds.items()
    }


def embed_on_columns(forest, bounds, integer=True):
    """The forest embedded over bare feature columns, its prediction
    installed as the objective."""
    mip = MipProblem()
    exprs = feature_columns(mip, bounds, integer)
    integer_features = set(bounds) if integer else set()
    mip.set_objective(
        "max", *embed_forest(mip, forest, {}, exprs, bounds, integer_features)
    )
    return mip


def row(mip, name):
    return next(con for con in mip.constraints if con.name == name)


def stump_split(mip):
    """(M_left, M_right, strict right rhs) read off a stump's branch rows."""
    left, right = row(mip, "qbrL[0,0]"), row(mip, "qbrR[0,0]")
    m_left = left.coeffs[mip.var_index("q[0,1]")]
    m_right = -right.coeffs[mip.var_index("q[0,2]")]
    return m_left, m_right, right.rhs + m_right


class TestEncode:
    def test_stump_fragment_counts(self):
        mip = MipProblem()
        exprs = feature_columns(mip, {0: (0, 10)})
        coeffs, constant = embed_forest(
            mip, forest_of([stump()]), {}, exprs, {0: (0, 10)}, {0}
        )
        assert [v.name for v in mip.variables] == ["f0", "q[0,1]", "q[0,2]"]
        assert [con.name for con in mip.constraints] == [
            "qbrL[0,0]", "qbrR[0,0]", "qflow[0,0]", "qleaf[0]"
        ]
        assert coeffs == {1: 10.0, 2: 20.0} and constant == 0.0
        # per-node big-M from bounds
        m_left, m_right, right_rhs = stump_split(mip)
        assert row(mip, "qbrL[0,0]").rhs == 10.0  # threshold + M_left
        assert m_left == pytest.approx(10 - 3.5)
        assert right_rhs == 4.0  # integer feature: next integer past 3.5
        assert m_right == pytest.approx(4.0)

    def test_constant_forest_encodes_to_constant(self):
        mip = MipProblem()
        exprs = feature_columns(mip, {0: (0, 10)})
        forest = forest_of([TreeNode(value=4.0), TreeNode(value=6.0)])
        coeffs, constant = embed_forest(mip, forest, {}, exprs, {0: (0, 10)})
        assert mip.n_vars == 1 and not mip.constraints
        assert coeffs == {}
        assert constant == pytest.approx(5.0)

    def assert_rejected(self, bounds, expr_features=(0, 1)):
        # the second tree is the bad one: the first must not be embedded
        forest = forest_of([stump(feature=0), stump(feature=1)], n_features=2)
        mip = MipProblem()
        exprs = feature_columns(mip, {f_idx: (0, 10) for f_idx in expr_features})
        before = (mip.n_vars, len(mip.constraints))
        with pytest.raises(EncoderError):
            embed_forest(mip, forest, {}, exprs, bounds, {0, 1})
        assert (mip.n_vars, len(mip.constraints)) == before

    def test_unbounded_feature_rejected(self):
        self.assert_rejected({0: (0, 10), 1: (0, float("inf"))})

    def test_missing_bounds_rejected(self):
        self.assert_rejected({0: (0, 10)})

    def test_missing_expression_rejected(self):
        self.assert_rejected({0: (0, 10), 1: (0, 10)}, expr_features=(0,))

    def test_integral_threshold_right_branch(self):
        # threshold exactly 3.0 on an integer feature: right means >= 4
        mip = embed_on_columns(forest_of([stump(threshold=3.0)]), {0: (0, 10)})
        assert stump_split(mip)[2] == 4.0

    def test_continuous_feature_uses_epsilon(self):
        mip = embed_on_columns(
            forest_of([stump(threshold=3.5)]), {0: (0.0, 10.0)}, integer=False
        )
        assert stump_split(mip)[2] == 3.5 + EPSILON_STRICT

    def test_lp_debug_dump(self, tmp_path):
        from fleetopt.mip import read_lp, write_lp

        mip = embed_on_columns(forest_of([stump()]), {0: (0, 10)})
        path = tmp_path / "forest.lp"
        write_lp(mip, str(path))
        again = read_lp(str(path))
        sol = branch_and_bound(again)
        # the dumped model maximizes the stump: right leaf pays 20
        assert sol.objective_value == pytest.approx(20.0)


class TestFidelity:
    def test_fixed_decisions_reproduce_predict(self):
        rng = np.random.default_rng(11)
        rows = [(row.tolist(), float(np.sin(row[0]) * 4 + row[1]))
                for row in rng.integers(0, 10, (120, 2)).astype(float)]
        schema = FeatureSchema(names=("a", "b"), n_exogenous=0)
        f = train(rows, TrainConfig(n_trees=8, max_depth=4, seed=3), schema)
        mip = embed_on_columns(f, {0: (0, 9), 1: (0, 9)})
        for _ in range(25):
            a, b = rng.integers(0, 10, 2)
            fixed = fix_variables(mip, {"f0": float(a), "f1": float(b)})
            sol = branch_and_bound(fixed)
            assert sol.status == "Optimal"
            assert sol.objective_value == pytest.approx(
                f.predict([float(a), float(b)]), abs=1e-6
            )

    def test_free_decisions_reach_grid_maximum(self):
        rng = np.random.default_rng(13)
        rows = [(row.tolist(), float(row[0] * 2 - (row[1] - 4) ** 2))
                for row in rng.integers(0, 9, (100, 2)).astype(float)]
        schema = FeatureSchema(names=("a", "b"), n_exogenous=0)
        f = train(rows, TrainConfig(n_trees=6, max_depth=4, seed=5), schema)
        mip = embed_on_columns(f, {0: (0, 8), 1: (0, 8)})
        sol = branch_and_bound(mip)
        grid_max = max(
            f.predict([float(a), float(b)]) for a in range(9) for b in range(9)
        )
        assert sol.objective_value == pytest.approx(grid_max, abs=1e-6)

    def test_one_leaf_per_tree_at_solution(self):
        rng = np.random.default_rng(17)
        rows = [(row.tolist(), float(row[0] + row[1]))
                for row in rng.integers(0, 6, (60, 2)).astype(float)]
        schema = FeatureSchema(names=("a", "b"), n_exogenous=0)
        f = train(rows, TrainConfig(n_trees=5, max_depth=3, seed=7), schema)
        mip = embed_on_columns(f, {0: (0, 5), 1: (0, 5)})
        sol = branch_and_bound(mip)
        assert sol.status == "Optimal"
        # exactly one active leaf in-edge per encoded tree
        leaf_rows = [con for con in mip.constraints if con.name.startswith("qleaf[")]
        assert len(leaf_rows) == f.n_trees
        for con in leaf_rows:
            total = sum(sol.values[mip.variables[idx].name] for idx in con.coeffs)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_pruning_soundness_against_bound_fixing(self):
        rng = np.random.default_rng(19)
        schema = FeatureSchema(names=("e", "a", "b"), n_exogenous=1)
        rows = [(row.tolist(), float(row[0] * 2 + row[1] - row[2]))
                for row in rng.integers(0, 7, (80, 3)).astype(float)]
        f = train(rows, TrainConfig(n_trees=4, max_depth=4, seed=11), schema)
        for trial in range(20):
            e_val = float(rng.integers(0, 7))
            # route 1: prune the exogenous feature, embed the rest
            mip1 = MipProblem()
            exprs = {}
            for f_idx, name in ((1, "a"), (2, "b")):
                idx = mip1.add_variable(name, "integer", 0, 6)
                exprs[f_idx] = AffineExpr.of_var(idx)
            mip1.set_objective("max", *embed_forest(
                mip1, f, {0: e_val}, exprs, {1: (0, 6), 2: (0, 6)}, {1, 2}
            ))
            sol1 = branch_and_bound(mip1)
            # route 2: keep the feature as a column fixed through bounds
            mip2 = MipProblem()
            exprs = {}
            idx = mip2.add_variable("e", "integer", e_val, e_val)
            exprs[0] = AffineExpr.of_var(idx)
            for f_idx, name in ((1, "a"), (2, "b")):
                idx = mip2.add_variable(name, "integer", 0, 6)
                exprs[f_idx] = AffineExpr.of_var(idx)
            bounds = {0: (e_val, e_val), 1: (0, 6), 2: (0, 6)}
            mip2.set_objective("max", *embed_forest(mip2, f, {}, exprs, bounds, {1, 2}))
            sol2 = branch_and_bound(mip2)
            assert sol1.objective_value == pytest.approx(
                sol2.objective_value, abs=1e-6
            ), trial

    def test_reported_profit_matches_predict_on_split_threshold(self):
        # one stump on a continuous fare: the left leaf pays 100, and the
        # model also earns 200 per unit of fare. A row caps the fare 5e-7
        # past the threshold, so the LP optimum runs the fare there with
        # the left edge at 1 - 5e-7: integral within INT_TOL, but with
        # the fare on the right side of the split.
        forest = forest_of([stump(threshold=5.0, left=100.0, right=0.0)])
        mip = MipProblem()
        fare = mip.add_variable("fare", "continuous", 0.0, 6.0)
        coeffs, constant = embed_forest(
            mip, forest, {}, {0: AffineExpr.of_var(fare)}, {0: (0.0, 6.0)}
        )
        mip.add_constraint({fare: 1.0}, "<=", 5.0 + 5e-7)
        coeffs[fare] = 200.0
        mip.set_objective("max", coeffs, constant)
        # the unpolished LP point lands just past the threshold
        root = lp_solve(mip)
        assert abs(root.values["q[0,1]"] - 1.0) <= INT_TOL
        assert root.values["fare"] > 5.0
        assert forest.predict([root.values["fare"]]) == 0.0
        sol = branch_and_bound(mip)
        assert sol.status == "Optimal"
        fare_value = sol.values["fare"]
        predicted = sol.objective_value - 200.0 * fare_value
        assert predicted == pytest.approx(forest.predict([fare_value]), abs=1e-6)
        assert predicted == pytest.approx(100.0, abs=1e-6)
        assert sol.values["q[0,1]"] == 1.0
