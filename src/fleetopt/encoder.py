"""Embedding a trained forest into a MIP.

Each tree contributes one binary per edge (the in-edge of every
non-root node; the root's in-edge is the constant one). Big-M rows tie
the branch binaries to the decision features, each M taken from the
bounds of the split's feature: an active left edge forces ``feature <=
threshold``, an active right edge forces the feature strictly past the
threshold (next integer up for integer features, threshold plus a
``EPSILON_STRICT`` for continuous ones). Flow rows make a node's in-edge
split across its children and a one-leaf row keeps exactly one
root-to-leaf path active per tree; the objective averages the selected
leaf values.

Known exogenous features are pruned out of the trees before encoding,
which shrinks the model without changing its predictions.
"""

from __future__ import annotations

import math
from collections.abc import Collection

import numpy as np

from .forest import Forest, TreeNode
from .mip.problem import BINARY, EQ, GE, LE, AffineExpr, MipProblem

EPSILON_STRICT = 1e-6  # strict-side margin for continuous splits


class EncoderError(ValueError):
    """Raised for unusable bounds or malformed embedding inputs."""


def prune(tree: TreeNode, fixed_features: dict[int, float]) -> TreeNode:
    """Collapse splits on fixed features into the branch they take.

    Predictions are unchanged for every input that agrees with the
    fixed assignment.
    """
    if tree.is_leaf:
        return TreeNode(value=tree.value)
    if tree.feature in fixed_features:
        taken = (
            tree.left if fixed_features[tree.feature] <= tree.threshold else tree.right
        )
        return prune(taken, fixed_features)
    return TreeNode(
        feature=tree.feature,
        threshold=tree.threshold,
        left=prune(tree.left, fixed_features),
        right=prune(tree.right, fixed_features),
    )


def trace_leaf(tree: TreeNode, features: np.ndarray) -> tuple[int, dict[int, int]]:
    """Deterministic descent (<= goes left); returns the reached leaf's
    preorder id and the implied 0/1 assignment of in-edge binaries."""
    ids = {id(node): nid for nid, node in enumerate(_preorder(tree))}
    q: dict[int, int] = {nid: 0 for nid in ids.values() if nid != 0}
    node = tree
    while not node.is_leaf:
        child = node.left if features[node.feature] <= node.threshold else node.right
        nid = ids[id(child)]
        q[nid] = 1
        node = child
    return ids[id(node)], q


def _preorder(tree: TreeNode) -> list[TreeNode]:
    """The nodes in preorder; a node's position is its id (the root's is 0)."""
    nodes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)
    return nodes


def _strict_right_rhs(threshold: float, is_integer: bool) -> float:
    if is_integer:
        floor = np.floor(threshold)
        return float(floor + 1.0) if floor == threshold else float(np.ceil(threshold))
    return threshold + EPSILON_STRICT


def embed_forest(
    mip: MipProblem,
    forest: Forest,
    fixed_features: dict[int, float],
    feature_exprs: dict[int, AffineExpr],
    var_bounds: dict[int, tuple[float, float]],
    integer_features: Collection[int] = (),
) -> tuple[dict[int, float], float]:
    """Add a forest's edge binaries and rows to ``mip``.

    ``fixed_features`` are pruned away first. Every feature still split
    on needs finite ``var_bounds`` and an affine expression over the
    model's columns in ``feature_exprs``; ``integer_features`` marks the
    coordinates whose strict right branch snaps to the next integer.
    All splits are checked before any column is added, so a rejected
    forest leaves the model as it was. Returns the objective that
    averages the trees' predictions: a coefficient per edge column and
    a constant, for the caller to install or compose.
    """
    trees = [
        _preorder(prune(tree, fixed_features) if fixed_features else tree)
        for tree in forest.trees
    ]
    for nodes in trees:
        for node in nodes:
            if node.is_leaf:
                continue
            f = node.feature
            if f in fixed_features:
                raise EncoderError("fixed feature survived pruning")
            if f not in var_bounds:
                raise EncoderError(f"no bounds for decision feature {f}")
            if not all(map(math.isfinite, var_bounds[f])):
                raise EncoderError(f"decision feature {f} needs finite bounds")
            if f not in feature_exprs:
                raise EncoderError(f"no model expression for feature {f}")

    scale = 1.0 / forest.n_trees
    coeffs: dict[int, float] = {}
    constant = 0.0
    branch_rows, flow_rows, leaf_rows = [], [], []
    for t, nodes in enumerate(trees):
        if len(nodes) == 1:  # pruned to a bare leaf
            constant += scale * nodes[0].value
            continue
        # the root's in-edge is the constant one, so it gets no column
        q = [None] + [
            mip.add_variable(f"q[{t},{nid}]", BINARY) for nid in range(1, len(nodes))
        ]
        ids = {id(node): nid for nid, node in enumerate(nodes)}
        leaves = {}
        for nid, node in enumerate(nodes):
            if node.is_leaf:
                leaves[q[nid]] = 1.0
                coeffs[q[nid]] = scale * node.value
                continue
            f = node.feature
            expr = feature_exprs[f]
            lb, ub = var_bounds[f]
            left, right = q[ids[id(node.left)]], q[ids[id(node.right)]]
            right_rhs = _strict_right_rhs(node.threshold, f in integer_features)
            m_left = max(0.0, ub - node.threshold)
            m_right = max(0.0, right_rhs - lb)
            branch_rows.append((
                {**expr.terms, left: m_left}, LE,
                node.threshold + m_left - expr.constant, f"qbrL[{t},{nid}]",
            ))
            branch_rows.append((
                {**expr.terms, right: -m_right}, GE,
                right_rhs - m_right - expr.constant, f"qbrR[{t},{nid}]",
            ))
            if nid == 0:
                flow_rows.append(({left: 1.0, right: 1.0}, EQ, 1.0, f"qflow[{t},{nid}]"))
            else:
                flow_rows.append((
                    {left: 1.0, right: 1.0, q[nid]: -1.0}, EQ, 0.0, f"qflow[{t},{nid}]"
                ))
        leaf_rows.append((leaves, EQ, 1.0, f"qleaf[{t}]"))
    for row in branch_rows + flow_rows + leaf_rows:
        mip.add_constraint(*row)
    return coeffs, constant
