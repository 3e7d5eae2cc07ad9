"""Regression random forest: CART training, prediction, evaluation.

Trees split on maximum variance reduction with thresholds at midpoints
between consecutive distinct observed values; descent sends
``feature <= threshold`` left. Training is deterministic given the
seed (per-tree generators are spawned from one seed sequence). Splits
are scanned feature by feature in index order, then by threshold
ascending, and a split replaces the best so far only when its variance
reduction exceeds the best by more than 1e-12 (the first must exceed
2e-12). So ties, and near-ties within 1e-12, break toward the lowest
feature index and then the lowest threshold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

FOREST_SCHEMA_VERSION = 1


class ForestError(ValueError):
    """Raised for malformed training inputs or schema mismatches."""


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature names: exogenous block then the decision block.

    The decision block must follow the flat ordering produced by
    ``fleet.decision_variable_names`` so the encoder, the history store
    and the agent all speak about the same coordinates.
    """

    names: tuple[str, ...]
    n_exogenous: int

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ForestError("feature names must be unique")
        if not 0 <= self.n_exogenous <= len(self.names):
            raise ForestError("n_exogenous out of range")

    @property
    def n_features(self) -> int:
        return len(self.names)

    @property
    def exogenous_names(self) -> tuple[str, ...]:
        return self.names[: self.n_exogenous]

    @property
    def decision_names(self) -> tuple[str, ...]:
        return self.names[self.n_exogenous :]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ForestError(f"unknown feature {name!r}") from None


@dataclass
class TrainConfig:
    n_trees: int = 25
    max_depth: int = 6
    min_samples_leaf: int = 2
    features_per_split: float = 1.0  # fraction of features examined per split
    bootstrap: bool = True
    seed: int = 0
    test_fraction: float = 0.3

    def __post_init__(self):
        if self.n_trees < 1:
            raise ForestError("n_trees must be >= 1")
        if not 0.0 < self.features_per_split <= 1.0:
            raise ForestError("features_per_split must lie in (0, 1]")
        if not 0.0 < self.test_fraction < 1.0:
            raise ForestError("test_fraction must lie in (0, 1)")
        if self.min_samples_leaf < 1:
            raise ForestError("min_samples_leaf must be >= 1")


@dataclass
class TreeNode:
    """Interior split or leaf; leaves carry the mean response."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def predict(self, x: np.ndarray) -> float:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.value

    def count_nodes(self) -> tuple[int, int]:
        """(interior, leaves)."""
        if self.is_leaf:
            return 0, 1
        il, ll = self.left.count_nodes()
        ir, lr = self.right.count_nodes()
        return il + ir + 1, ll + lr

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"value": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeNode":
        if "value" in doc:
            return cls(value=float(doc["value"]))
        return cls(
            feature=int(doc["feature"]),
            threshold=float(doc["threshold"]),
            left=cls.from_dict(doc["left"]),
            right=cls.from_dict(doc["right"]),
        )


class FlatForest(NamedTuple):
    """Every tree's nodes in preorder, one array entry per node.

    The trees follow one another, tree ``t`` taking the positions
    ``start[t]`` to ``start[t + 1]``. A split's left child follows it,
    and its subtree ends just before ``end``.
    """

    start: np.ndarray  # first position of each tree, then the node count
    feature: np.ndarray  # split feature, -1 at a leaf
    threshold: np.ndarray
    value: np.ndarray  # a leaf's prediction
    right: np.ndarray  # position of a split's right child, -1 at a leaf
    end: np.ndarray  # one past the last position of the node's subtree


@dataclass
class Forest:
    trees: list[TreeNode]
    schema: FeatureSchema
    config: TrainConfig
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @cached_property
    def flat(self) -> FlatForest:
        """The trees as arrays, built on first access and kept; the
        trees must not change afterwards."""
        start, feature, threshold, value, right, end = [], [], [], [], [], []

        def visit(node: TreeNode):
            pos = len(feature)
            feature.append(-1 if node.is_leaf else node.feature)
            threshold.append(node.threshold)
            value.append(node.value)
            right.append(-1)
            end.append(0)
            if not node.is_leaf:
                visit(node.left)
                right[pos] = len(feature)
                visit(node.right)
            end[pos] = len(feature)

        for tree in self.trees:
            start.append(len(feature))
            visit(tree)
        start.append(len(feature))
        return FlatForest(
            start=np.array(start, dtype=np.intp),
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            value=np.array(value, dtype=float),
            right=np.array(right, dtype=np.intp),
            end=np.array(end, dtype=np.intp),
        )

    def predict(self, features: np.ndarray) -> float:
        features = np.asarray(features, dtype=float)
        if features.shape != (self.schema.n_features,):
            raise ForestError(
                f"feature vector has shape {features.shape}, "
                f"schema expects ({self.schema.n_features},)"
            )
        return float(np.mean([t.predict(features) for t in self.trees]))

    def predict_rows(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.array([self.predict(row) for row in X])

    def split_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}

        def visit(node: TreeNode):
            if node.is_leaf:
                return
            counts[node.feature] = counts.get(node.feature, 0) + 1
            visit(node.left)
            visit(node.right)

        for t in self.trees:
            visit(t)
        return counts

    def to_dict(self) -> dict:
        return {
            "version": FOREST_SCHEMA_VERSION,
            "schema": {
                "names": list(self.schema.names),
                "n_exogenous": self.schema.n_exogenous,
            },
            "config": asdict(self.config),
            "seed": self.seed,
            "trees": [t.to_dict() for t in self.trees],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "Forest":
        if doc.get("version") != FOREST_SCHEMA_VERSION:
            raise ForestError(f"unsupported forest schema version {doc.get('version')}")
        schema = FeatureSchema(
            names=tuple(doc["schema"]["names"]),
            n_exogenous=int(doc["schema"]["n_exogenous"]),
        )
        config = TrainConfig(**doc["config"])
        return cls(
            trees=[TreeNode.from_dict(t) for t in doc["trees"]],
            schema=schema,
            config=config,
            seed=int(doc["seed"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "Forest":
        return cls.from_dict(json.loads(text))


def _best_split(X, y, feature_order, min_leaf):
    """Best (feature, threshold) by variance reduction; None when no
    admissible split beats the parent by the improvement rule.

    Scores every (feature, split position) pair of the node in one array
    pass. The scan order of the rule is feature-major: features in
    ``feature_order``, then positions ascending. A candidate it accepts
    beats every score before it, so only the strict prefix maxima of the
    flattened scores are replayed through the scalar comparison.
    """
    n = len(y)
    parent_sse = float(np.sum(y * y) - (np.sum(y) ** 2) / n)
    feats = np.asarray(feature_order, dtype=np.intp)
    # split after s rows, min_leaf <= s <= n - min_leaf; row i of the
    # score table is s = i + min_leaf
    lo, hi = min_leaf, n - min_leaf
    if hi < lo:
        return None
    values = X[:, feats]
    order = np.argsort(values, axis=0, kind="stable")
    xv = np.take_along_axis(values, order, axis=0)
    yv = y[order]
    csum = np.cumsum(yv, axis=0)
    csq = np.cumsum(yv * yv, axis=0)
    sl, ql = csum[lo - 1 : hi], csq[lo - 1 : hi]
    sr, qr = csum[-1] - sl, csq[-1] - ql
    nl = np.arange(lo, hi + 1, dtype=float)[:, None]
    nr = n - nl
    sse = (ql - sl * sl / nl) + (qr - sr * sr / nr)
    score = parent_sse - sse
    score[xv[lo - 1 : hi] == xv[lo : hi + 1]] = -np.inf  # not between distinct values
    flat = score.ravel(order="F")
    # fmax skips NaN scores, which the scalar comparison never accepts
    before = np.fmax.accumulate(np.concatenate(([-np.inf], flat[:-1])))
    best = None
    best_score = 1e-12
    n_pos = hi - lo + 1
    for c in np.flatnonzero(flat > before):
        if flat[c] > best_score + 1e-12:
            j, i = divmod(int(c), n_pos)
            p = i + lo
            best = (int(feats[j]), float((xv[p - 1, j] + xv[p, j]) / 2.0))
            best_score = flat[c]
    return best


def _grow(X, y, depth, cfg, rng, n_features):
    n = len(y)
    if (
        n < 2 * cfg.min_samples_leaf
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
        or np.all(y == y[0])
    ):
        return TreeNode(value=float(np.mean(y)))
    if cfg.features_per_split >= 1.0:
        feature_order = range(n_features)
    else:
        count = max(1, int(round(cfg.features_per_split * n_features)))
        picked = rng.choice(n_features, size=count, replace=False)
        feature_order = sorted(int(f) for f in picked)
    split = _best_split(X, y, feature_order, cfg.min_samples_leaf)
    if split is None:
        return TreeNode(value=float(np.mean(y)))
    f, threshold = split
    mask = X[:, f] <= threshold
    left = _grow(X[mask], y[mask], depth + 1, cfg, rng, n_features)
    right = _grow(X[~mask], y[~mask], depth + 1, cfg, rng, n_features)
    return TreeNode(feature=f, threshold=threshold, left=left, right=right)


def train(rows, cfg: TrainConfig, schema: FeatureSchema) -> Forest:
    """Fit a forest on (feature vector, label) rows."""
    if not rows:
        raise ForestError("training needs at least one row")
    X = np.asarray([r[0] for r in rows], dtype=float)
    y = np.asarray([r[1] for r in rows], dtype=float)
    if X.ndim != 2 or X.shape[1] != schema.n_features:
        raise ForestError(
            f"rows have {X.shape[1] if X.ndim == 2 else '?'} features, "
            f"schema expects {schema.n_features}"
        )
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ForestError("features and labels must be finite")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(seeds[t])
        if cfg.bootstrap:
            idx = rng.integers(0, len(y), size=len(y))
            Xt, yt = X[idx], y[idx]
        else:
            Xt, yt = X, y
        trees.append(_grow(Xt, yt, 0, cfg, rng, schema.n_features))
    return Forest(trees=trees, schema=schema, config=cfg, seed=cfg.seed)


def evaluate_r2(forest: Forest, rows) -> float:
    """Coefficient of determination, 1 - SSE/SST, on held-out rows."""
    if len(rows) < 2:
        raise ForestError("R^2 needs at least two rows")
    X = np.asarray([r[0] for r in rows], dtype=float)
    y = np.asarray([r[1] for r in rows], dtype=float)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst <= 0:
        raise ForestError("labels have zero variance; R^2 undefined")
    pred = forest.predict_rows(X)
    sse = float(np.sum((y - pred) ** 2))
    return 1.0 - sse / sst


def train_test_split(rows, test_fraction: float, seed: int):
    """Deterministic shuffle split into (train, test)."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(rows))
    n_test = max(1, int(round(test_fraction * len(rows))))
    test_idx = set(idx[:n_test].tolist())
    train_rows = [rows[i] for i in range(len(rows)) if i not in test_idx]
    test_rows = [rows[i] for i in sorted(test_idx)]
    return train_rows, test_rows
