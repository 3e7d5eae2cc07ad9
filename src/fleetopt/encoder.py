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

from dataclasses import dataclass, field

import numpy as np

from .forest import Forest, TreeNode
from .mip.problem import BINARY, EQ, GE, LE, AffineExpr, MipProblem

EPSILON_STRICT = 1e-6  # strict-side margin for continuous splits


class EncoderError(ValueError):
    """Raised for unusable bounds or malformed encode inputs."""


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
    ids = _assign_ids(tree)
    q: dict[int, int] = {nid: 0 for nid in ids.values() if nid != 0}
    node = tree
    while not node.is_leaf:
        child = node.left if features[node.feature] <= node.threshold else node.right
        nid = ids[id(child)]
        q[nid] = 1
        node = child
    return ids[id(node)], q


def _assign_ids(tree: TreeNode) -> dict[int, int]:
    """Preorder node ids keyed by object identity; the root gets 0."""
    ids: dict[int, int] = {}

    def visit(node: TreeNode):
        ids[id(node)] = len(ids)
        if not node.is_leaf:
            visit(node.left)
            visit(node.right)

    visit(tree)
    return ids


@dataclass
class MipFragment:
    """Forest encoding detached from any concrete model.

    ``q_edges`` lists (tree, node id) per edge binary. Branch rows pin
    features against thresholds, flow rows conserve path activation,
    leaf rows force one active leaf per tree. Objective terms attach
    the per-leaf scores scaled by 1/|H|; trees pruned to a bare leaf
    contribute through ``objective_constant`` instead.
    """

    n_trees: int
    q_edges: list[tuple[int, int]] = field(default_factory=list)
    # (tree, node, feature, threshold, left id, right id, M_left, M_right, right_rhs)
    branch_rows: list[tuple] = field(default_factory=list)
    flow_rows: list[tuple[int, int, int, int]] = field(default_factory=list)
    leaf_rows: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    objective_terms: list[tuple[int, int, float]] = field(default_factory=list)
    objective_constant: float = 0.0
    feature_refs: set[int] = field(default_factory=set)

    @property
    def n_q(self) -> int:
        return len(self.q_edges)


def _strict_right_rhs(threshold: float, is_integer: bool) -> float:
    if is_integer:
        floor = np.floor(threshold)
        return float(floor + 1.0) if floor == threshold else float(np.ceil(threshold))
    return threshold + EPSILON_STRICT


def encode(
    forest: Forest,
    fixed_features: dict[int, float],
    var_bounds: dict[int, tuple[float, float]],
    integer_features: set[int] | None = None,
) -> MipFragment:
    """Encode a forest over its unfixed features.

    ``var_bounds`` must give finite bounds for every decision feature
    that survives pruning; ``integer_features`` marks the coordinates
    whose strict right branch snaps to the next integer.
    """
    integer_features = integer_features or set()
    fragment = MipFragment(n_trees=forest.n_trees)
    scale = 1.0 / forest.n_trees
    for t, raw_tree in enumerate(forest.trees):
        tree = prune(raw_tree, fixed_features) if fixed_features else raw_tree
        ids = _assign_ids(tree)
        if tree.is_leaf:
            fragment.objective_constant += scale * tree.value
            continue
        nodes = []
        leaves = []

        def visit(node: TreeNode):
            nid = ids[id(node)]
            nodes.append(nid)
            if node.is_leaf:
                leaves.append(nid)
                fragment.objective_terms.append((t, nid, scale * node.value))
                return
            f = node.feature
            if f in fixed_features:
                raise EncoderError("fixed feature survived pruning")
            if f not in var_bounds:
                raise EncoderError(f"no bounds for decision feature {f}")
            lb, ub = var_bounds[f]
            if not (np.isfinite(lb) and np.isfinite(ub)):
                raise EncoderError(f"decision feature {f} needs finite bounds")
            fragment.feature_refs.add(f)
            lid = ids[id(node.left)]
            rid = ids[id(node.right)]
            right_rhs = _strict_right_rhs(node.threshold, f in integer_features)
            m_left = max(0.0, ub - node.threshold)
            m_right = max(0.0, right_rhs - lb)
            fragment.branch_rows.append(
                (t, nid, f, node.threshold, lid, rid, m_left, m_right, right_rhs)
            )
            fragment.flow_rows.append((t, nid, lid, rid))
            visit(node.left)
            visit(node.right)

        visit(tree)
        fragment.q_edges.extend((t, nid) for nid in nodes if nid != 0)
        fragment.leaf_rows.append((t, tuple(leaves)))
    return fragment


def attach_fragment(
    fragment: MipFragment,
    mip: MipProblem,
    feature_exprs: dict[int, AffineExpr],
    set_objective: bool = True,
    prefix: str = "q",
) -> dict:
    """Materialize a fragment inside a model.

    ``feature_exprs`` maps each referenced feature index to an affine
    expression over the model's columns. Returns the objective terms
    (coefficient per added q column, plus the constant) so callers can
    compose them with other objective parts.
    """
    missing = fragment.feature_refs - set(feature_exprs)
    if missing:
        raise EncoderError(f"no model expression for features {sorted(missing)}")
    q_index: dict[tuple[int, int], int] = {}
    for t, nid in fragment.q_edges:
        q_index[(t, nid)] = mip.add_variable(f"{prefix}[{t},{nid}]", BINARY)

    def q_coeff(t: int, nid: int) -> dict[int, float] | None:
        # the root in-edge is the constant 1, so it has no column
        if (t, nid) in q_index:
            return {q_index[(t, nid)]: 1.0}
        return None

    for t, nid, f, threshold, lid, rid, m_left, m_right, right_rhs in fragment.branch_rows:
        expr = feature_exprs[f]
        left = q_index[(t, lid)]
        row = dict(expr.terms)
        row[left] = row.get(left, 0.0) + m_left
        mip.add_constraint(
            row, LE, threshold + m_left - expr.constant, name=f"{prefix}brL[{t},{nid}]"
        )
        right = q_index[(t, rid)]
        row = dict(expr.terms)
        row[right] = row.get(right, 0.0) - m_right
        mip.add_constraint(
            row, GE, right_rhs - m_right - expr.constant, name=f"{prefix}brR[{t},{nid}]"
        )
    for t, nid, lid, rid in fragment.flow_rows:
        row = {q_index[(t, lid)]: 1.0, q_index[(t, rid)]: 1.0}
        if nid == 0:
            mip.add_constraint(row, EQ, 1.0, name=f"{prefix}flow[{t},{nid}]")
        else:
            row[q_index[(t, nid)]] = row.get(q_index[(t, nid)], 0.0) - 1.0
            mip.add_constraint(row, EQ, 0.0, name=f"{prefix}flow[{t},{nid}]")
    for t, leaves in fragment.leaf_rows:
        row = {}
        constant = 0.0
        for nid in leaves:
            coeffs = q_coeff(t, nid)
            if coeffs is None:
                constant += 1.0
            else:
                for idx, c in coeffs.items():
                    row[idx] = row.get(idx, 0.0) + c
        mip.add_constraint(row, EQ, 1.0 - constant, name=f"{prefix}leaf[{t}]")

    obj_coeffs: dict[int, float] = {}
    constant = fragment.objective_constant
    for t, nid, value in fragment.objective_terms:
        coeffs = q_coeff(t, nid)
        if coeffs is None:
            constant += value
        else:
            for idx, c in coeffs.items():
                obj_coeffs[idx] = obj_coeffs.get(idx, 0.0) + c * value
    if set_objective:
        mip.set_objective("max", obj_coeffs, constant)
    return {"coeffs": obj_coeffs, "constant": constant, "q_index": q_index}


def dump_fragment_lp(
    fragment: MipFragment,
    var_bounds: dict[int, tuple[float, float]],
    path: str,
    integer_features: set[int] | None = None,
) -> None:
    """Debug dump: materialize a fragment over bare feature columns and
    write it in LP text format."""
    from .mip.problem import CONTINUOUS, INTEGER, write_lp

    integer_features = integer_features or set()
    mip = MipProblem("fragment-dump")
    exprs = {}
    for f_idx in sorted(fragment.feature_refs):
        lb, ub = var_bounds[f_idx]
        kind = INTEGER if f_idx in integer_features else CONTINUOUS
        idx = mip.add_variable(f"feat[{f_idx}]", kind, lb, ub)
        exprs[f_idx] = AffineExpr.of_var(idx)
    attach_fragment(fragment, mip, exprs, set_objective=True)
    write_lp(mip, path)
