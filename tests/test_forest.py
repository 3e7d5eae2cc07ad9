import hashlib

import numpy as np
import pytest

from fleetopt import forest as forest_mod
from fleetopt.bench.synth import SynthConfig, generate_world
from fleetopt.forest import (
    FeatureSchema,
    Forest,
    ForestError,
    TrainConfig,
    TreeNode,
    evaluate_r2,
    train,
    train_test_split,
)


def schema(n, n_exog=0):
    return FeatureSchema(names=tuple(f"f{i}" for i in range(n)), n_exogenous=n_exog)


class TestTraining:
    def test_single_row_gives_leaves(self):
        f = train([([1.0, 2.0], 5.0)], TrainConfig(n_trees=4, seed=0), schema(2))
        assert all(t.is_leaf and t.value == 5.0 for t in f.trees)

    def test_two_value_split_at_midpoint(self):
        rows = [([0.0], 0.0), ([10.0], 10.0), ([0.0], 0.0), ([10.0], 10.0)]
        cfg = TrainConfig(n_trees=3, max_depth=None, min_samples_leaf=1,
                          bootstrap=False, seed=1)
        f = train(rows, cfg, schema(1))
        for t in f.trees:
            assert not t.is_leaf
            assert t.threshold == pytest.approx(5.0)
        assert f.predict([3.0]) == 0.0
        assert f.predict([8.0]) == 10.0

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(0)
        rows = [(row.tolist(), float(row.sum())) for row in rng.normal(size=(30, 3))]
        cfg = TrainConfig(n_trees=6, seed=9)
        assert train(rows, cfg, schema(3)).to_json() == train(rows, cfg, schema(3)).to_json()

    def test_constant_labels_give_single_leaf_trees(self):
        rows = [([float(i)], 2.5) for i in range(10)]
        f = train(rows, TrainConfig(n_trees=2, seed=0), schema(1))
        assert all(t.is_leaf for t in f.trees)

    def test_exact_fit_without_bootstrap(self):
        rng = np.random.default_rng(3)
        X = np.unique(rng.integers(0, 9, (60, 3)).astype(float), axis=0)
        y = 2 * X[:, 0] - X[:, 1] + 0.5 * X[:, 2] ** 2
        rows = list(zip(X.tolist(), y.tolist()))
        cfg = TrainConfig(n_trees=3, max_depth=None, min_samples_leaf=1,
                          features_per_split=1.0, bootstrap=False, seed=5)
        f = train(rows, cfg, schema(3))
        for row, label in rows:
            assert f.predict(row) == pytest.approx(label)

    def test_empty_rows_rejected(self):
        with pytest.raises(ForestError):
            train([], TrainConfig(), schema(1))

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ForestError):
            train([([1.0, 2.0], 1.0)], TrainConfig(), schema(3))

    def test_bad_config_rejected(self):
        with pytest.raises(ForestError):
            TrainConfig(n_trees=0)
        with pytest.raises(ForestError):
            TrainConfig(test_fraction=1.5)
        with pytest.raises(ForestError):
            TrainConfig(features_per_split=0.0)


class TestPredict:
    def test_mean_of_constant_trees(self):
        f = Forest(
            trees=[TreeNode(value=4.0), TreeNode(value=6.0)],
            schema=schema(1), config=TrainConfig(), seed=0,
        )
        assert f.predict([0.0]) == pytest.approx(5.0)

    def test_stump_routing(self):
        stump = TreeNode(feature=0, threshold=3.5,
                         left=TreeNode(value=10.0), right=TreeNode(value=20.0))
        f = Forest(trees=[stump], schema=schema(1), config=TrainConfig(), seed=0)
        assert f.predict([2.0]) == 10.0
        assert f.predict([3.5]) == 10.0  # boundary goes left
        assert f.predict([3.6]) == 20.0

    def test_schema_mismatch(self):
        f = Forest(trees=[TreeNode(value=1.0)], schema=schema(2),
                   config=TrainConfig(), seed=0)
        with pytest.raises(ForestError):
            f.predict([1.0])

    def test_piecewise_constant_between_thresholds(self):
        rng = np.random.default_rng(8)
        rows = [(row.tolist(), float(row[0] * 3 - row[1])) for row in
                rng.integers(0, 10, (50, 2)).astype(float)]
        f = train(rows, TrainConfig(n_trees=5, seed=2), schema(2))
        thresholds = set()

        def collect(node):
            if node.is_leaf:
                return
            if node.feature == 0:
                thresholds.add(node.threshold)
            collect(node.left)
            collect(node.right)

        for t in f.trees:
            collect(t)
        # nudge feature 0 without crossing any threshold: output unchanged
        base = np.array([4.0, 5.0])
        eps = 1e-4
        if all(abs(4.0 - th) > 1e-3 for th in thresholds):
            assert f.predict(base) == f.predict(base + np.array([eps, 0.0]))


class TestEvaluation:
    def test_perfect_and_mean_predictors(self):
        rows = [([float(i)], float(i)) for i in range(10)]
        cfg = TrainConfig(n_trees=1, max_depth=None, min_samples_leaf=1,
                          bootstrap=False, seed=0)
        perfect = train(rows, cfg, schema(1))
        assert evaluate_r2(perfect, rows) == pytest.approx(1.0)
        mean_forest = Forest(
            trees=[TreeNode(value=4.5)], schema=schema(1), config=cfg, seed=0
        )
        assert evaluate_r2(mean_forest, rows) == pytest.approx(0.0)

    def test_zero_variance_labels_rejected(self):
        rows = [([0.0], 1.0), ([1.0], 1.0)]
        f = train(rows, TrainConfig(n_trees=1, seed=0), schema(1))
        with pytest.raises(ForestError):
            evaluate_r2(f, rows)

    def test_split_is_deterministic(self):
        rows = [([float(i), float(i % 3)], float(i)) for i in range(30)]
        a, b = train_test_split(rows, 0.3, seed=4), train_test_split(rows, 0.3, seed=4)
        assert a == b
        tr, te = a
        assert len(te) == 9 and len(tr) == 21


class TestSerialization:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(1)
        rows = [(row.tolist(), float(row.sum())) for row in rng.normal(size=(40, 4))]
        f = train(rows, TrainConfig(n_trees=5, seed=3), schema(4, n_exog=2))
        again = Forest.from_json(f.to_json())
        assert again.to_json() == f.to_json()
        probe = rng.normal(size=4)
        assert again.predict(probe) == f.predict(probe)

    def test_version_guard(self):
        with pytest.raises(ForestError):
            Forest.from_dict({"version": 99, "schema": {}, "config": {}, "trees": [],
                              "seed": 0})


class TestCounters:
    def test_node_and_split_counts_match_the_flat_arrays(self):
        rng = np.random.default_rng(4)
        rows = [(row.tolist(), float(row[0] - 2 * row[2] + row[3] * row[4]))
                for row in rng.normal(size=(80, 5))]
        forest = train(rows, TrainConfig(n_trees=4, max_depth=4, seed=1), schema(5))
        flat = forest.flat
        for t, tree in enumerate(forest.trees):
            features = flat.feature[flat.start[t]:flat.start[t + 1]]
            interior = int((features >= 0).sum())
            assert tree.count_nodes() == (interior, len(features) - interior)
        features, counts = np.unique(flat.feature[flat.feature >= 0], return_counts=True)
        assert forest.split_counts() == dict(zip(features.tolist(), counts.tolist()))
        assert sum(counts) > 2 * forest.n_trees  # deeper than stumps
        assert TreeNode(value=1.0).count_nodes() == (0, 1)


def scalar_best_split(X, y, feature_order, min_leaf):
    """Reference split search: one feature, then one split position, at a
    time. ``_best_split`` must pick exactly the same split."""
    n = len(y)
    parent_sse = float(np.sum(y * y) - (np.sum(y) ** 2) / n)
    best = None
    best_score = 1e-12
    for f in feature_order:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        xv = values[order]
        yv = y[order]
        csum = np.cumsum(yv)
        csq = np.cumsum(yv * yv)
        total_sum = csum[-1]
        total_sq = csq[-1]
        # split after position s (1-based count on the left)
        for s in range(min_leaf, n - min_leaf + 1):
            if xv[s - 1] == xv[s]:
                continue  # not between distinct values
            nl, nr = s, n - s
            sl, sr = csum[s - 1], total_sum - csum[s - 1]
            ql, qr = csq[s - 1], total_sq - csq[s - 1]
            sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
            score = parent_sse - sse
            if score > best_score + 1e-12:
                threshold = (xv[s - 1] + xv[s]) / 2.0
                best = (f, float(threshold))
                best_score = score
    return best


def random_training_case(rng):
    """Rows and a config drawn to cover ties, constant columns, every leaf
    size 1-4, shallow and unbounded depth, feature sampling and bootstrap."""
    n = int(rng.integers(1, 50))
    k = int(rng.integers(1, 7))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        X = rng.integers(0, 4, (n, k)).astype(float)
    elif kind == 1:
        X = rng.normal(size=(n, k))
    elif kind == 2:
        X = np.round(rng.normal(size=(n, k)), 1)
    else:
        X = rng.integers(0, 3, (n, k)).astype(float)
        X[:, int(rng.integers(0, k))] = 2.0
    if rng.random() < 0.5:
        y = rng.integers(0, 4, n).astype(float)
    else:
        y = X @ rng.normal(size=k) + rng.normal(size=n) * rng.random()
    cfg = TrainConfig(
        n_trees=int(rng.integers(1, 4)),
        max_depth=[None, 1, 2, 3][int(rng.integers(0, 4))],
        min_samples_leaf=int(rng.integers(1, 5)),
        features_per_split=[1.0, 0.5][int(rng.integers(0, 2))],
        bootstrap=bool(rng.integers(0, 2)),
        seed=int(rng.integers(0, 1000)),
    )
    return list(zip(X.tolist(), y.tolist())), cfg, k


class TestSplitOracle:
    def test_forests_match_the_scalar_search(self, monkeypatch):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            rows, cfg, k = random_training_case(rng)
            fast = train(rows, cfg, schema(k)).to_json()
            with monkeypatch.context() as m:
                m.setattr(forest_mod, "_best_split", scalar_best_split)
                slow = train(rows, cfg, schema(k)).to_json()
            assert fast == slow, (trial, cfg)

    def test_every_node_matches_the_scalar_search(self, monkeypatch):
        rng = np.random.default_rng(7)
        searched = []
        fast_split = forest_mod._best_split

        def checked(X, y, feature_order, min_leaf):
            got = fast_split(X, y, feature_order, min_leaf)
            want = scalar_best_split(X, y, feature_order, min_leaf)
            assert got == want
            if got is not None:
                assert type(got[0]) is int and type(got[1]) is float
            searched.append(got)
            return got

        monkeypatch.setattr(forest_mod, "_best_split", checked)
        for _ in range(200):
            rows, cfg, k = random_training_case(rng)
            train(rows, cfg, schema(k))
        assert sum(s is not None for s in searched) > 500
        assert sum(s is None for s in searched) > 50

    def test_constant_columns_give_no_split(self):
        X = np.array([[1.0, 3.0]] * 6)
        y = np.arange(6.0)
        assert forest_mod._best_split(X, y, [0, 1], 1) is None
        assert scalar_best_split(X, y, [0, 1], 1) is None

    def test_threshold_at_the_leaf_size_boundary(self):
        # the only distinct-value gap lies at the smallest left count allowed
        X = np.array([[0.0], [0.0], [5.0], [5.0], [5.0], [5.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        for min_leaf in (1, 2):
            assert forest_mod._best_split(X, y, [0], min_leaf) == (0, 2.5)
        assert forest_mod._best_split(X, y, [0], 3) is None

    def test_too_few_rows_or_features_give_no_split(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        assert forest_mod._best_split(X, y, [0], 2) is None
        assert forest_mod._best_split(X, y, [], 1) is None

    def test_equal_gains_keep_the_earlier_feature(self):
        # both features give the same gain: the one scanned first wins
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        assert forest_mod._best_split(X, y, [0, 1], 1) == (0, 0.5)
        assert forest_mod._best_split(X, y, [1, 0], 1) == (1, 0.5)


# SHA-256 of Forest.to_json() for the two worlds the benchmark trains:
# the desk world (acceptance criterion 4) and the small world (criterion 6)
PINNED_FORESTS = {
    "desk": (
        SynthConfig(seed=42),
        TrainConfig(n_trees=20, max_depth=6, min_samples_leaf=3, seed=7),
        "98f9b5b2a2d74390ae1c0d3475a3d785fa8c9826abdcee1c5509612f10834f44",
    ),
    "small": (
        SynthConfig(seed=13, n_supply=3, n_demand=2, soc_levels=3, n_days=40),
        TrainConfig(n_trees=6, max_depth=3, min_samples_leaf=4, seed=2),
        "f043b52b9b553e310c0aed252eba1d06eb3289fb20f80d8a563fcfbd1f32be63",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FORESTS))
def test_pinned_forest_digest(name):
    synth_cfg, cfg, digest = PINNED_FORESTS[name]
    world = generate_world(synth_cfg)
    train_rows, _ = train_test_split(world.training_rows(), cfg.test_fraction, cfg.seed)
    forest = train(train_rows, cfg, world.schema())
    assert hashlib.sha256(forest.to_json().encode()).hexdigest() == digest
