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

The encoder walks the forest's preorder arrays (:attr:`.forest.Forest.flat`)
and hands the model its rows as CSR blocks
(:meth:`.mip.problem.MipProblem.add_rows`), so no row passes through a
dict. A node's id is its preorder position in its pruned tree: the root
is 0, and a left subtree comes before the right one.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from itertools import chain

import numpy as np

from .forest import Forest
from .mip.problem import BINARY, EQ, GE, LE, AffineExpr, MipProblem

EPSILON_STRICT = 1e-6  # strict-side margin for continuous splits


class EncoderError(ValueError):
    """Raised for unusable bounds or malformed embedding inputs."""


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

    The walk runs on the forest's preorder arrays (:attr:`.Forest.flat`)
    and adds the edge binaries as one block of columns, then the rows
    as three blocks: every tree's branch rows, then the flow rows, then
    the one-leaf rows. Node ids are preorder positions in the pruned
    tree.
    """
    flat = forest.flat
    feature = flat.feature
    alive = np.ones(len(feature), dtype=bool)
    if fixed_features:
        # a fixed split goes away with the child it does not take
        fx = np.flatnonzero([f in fixed_features for f in feature.tolist()])
        fixed_value = np.array([fixed_features[f] for f in feature[fx].tolist()], dtype=float)
        goes_left = fixed_value <= flat.threshold[fx]
        lo = np.where(goes_left, flat.right[fx], fx + 1)
        hi = np.where(goes_left, flat.end[fx], flat.right[fx])
        bounds = len(feature) + 1
        dropped = np.cumsum(
            np.bincount(lo, minlength=bounds) - np.bincount(hi, minlength=bounds)
        )
        alive = dropped[:-1] == 0
        alive[fx] = False
    # the pruned trees: their nodes in preorder, tree after tree
    nodes = np.flatnonzero(alive)
    tree_of = np.searchsorted(flat.start, nodes, side="right") - 1
    size = np.bincount(tree_of, minlength=forest.n_trees)
    first = np.cumsum(size) - size  # position of each tree's root in nodes
    nid = np.arange(len(nodes)) - first[tree_of]
    feat = feature[nodes]
    inner = np.flatnonzero(feat >= 0)
    f_inner = feat[inner]

    for f in dict.fromkeys(f_inner.tolist()):  # in order of first split
        if f not in var_bounds:
            raise EncoderError(f"no bounds for decision feature {f}")
        if not all(map(math.isfinite, var_bounds[f])):
            raise EncoderError(f"decision feature {f} needs finite bounds")
        if f not in feature_exprs:
            raise EncoderError(f"no model expression for feature {f}")

    scale = 1.0 / forest.n_trees
    constant = 0.0
    for value in flat.value[nodes[first[size == 1]]].tolist():  # bare leaves
        constant += scale * value
    grown = size[tree_of] > 1
    if not grown.any():
        return {}, constant

    # a node's names end in "t,i]": its tree and its id
    heads = [f"{t}," for t in range(forest.n_trees)]
    ends = [f"{i}]" for i in range(int(size.max()))]
    tail = [heads[t] + ends[i] for t, i in zip(tree_of.tolist(), nid.tolist())]
    tail_inner = [tail[p] for p in inner.tolist()]

    # one column per edge; the root's in-edge is the constant one
    edge = grown & (nid > 0)
    col = np.full(len(nodes), -1, dtype=np.intp)
    col[edge] = mip.add_variables(
        ["q[" + tail[p] for p in np.flatnonzero(edge).tolist()], BINARY
    )
    left = col[inner + 1]  # a split's first survivor after it heads its left subtree
    right = col[np.searchsorted(nodes, flat.right[nodes[inner]])]

    # per feature split on: its expression's terms and constant, its domain
    used, s = np.unique(f_inner, return_inverse=True)
    used = used.tolist()
    terms = [feature_exprs[f].terms for f in used]
    n_terms = np.fromiter(map(len, terms), dtype=np.intp, count=len(used))
    term_start = np.cumsum(n_terms) - n_terms
    term_col = np.fromiter(chain.from_iterable(terms), dtype=np.intp)
    term_val = np.fromiter(chain.from_iterable(map(dict.values, terms)), dtype=float)
    const = np.array([feature_exprs[f].constant for f in used], dtype=float)[s]
    lb = np.array([var_bounds[f][0] for f in used], dtype=float)[s]
    ub = np.array([var_bounds[f][1] for f in used], dtype=float)[s]
    integer = np.array([f in integer_features for f in used], dtype=bool)[s]

    # branch rows: an active left edge forces feature <= threshold, an
    # active right edge forces it strictly past
    thr = flat.threshold[nodes[inner]]
    floor = np.floor(thr)
    right_rhs = np.where(
        integer, np.where(floor == thr, floor + 1.0, np.ceil(thr)), thr + EPSILON_STRICT
    )
    m_left, m_right = ub - thr, right_rhs - lb
    m_left = np.where(m_left > 0.0, m_left, 0.0)
    m_right = np.where(m_right > 0.0, m_right, 0.0)
    # rows qbrL, qbrR per split: the feature's terms, then the edge column
    row_len = np.repeat(n_terms[s] + 1, 2)
    indptr = np.zeros(len(row_len) + 1, dtype=np.intp)
    np.cumsum(row_len, out=indptr[1:])
    row_of = np.repeat(np.arange(len(row_len)), row_len)
    within = np.arange(indptr[-1]) - indptr[row_of]
    last = within == row_len[row_of] - 1
    src = (np.repeat(term_start[s], 2)[row_of] + within)[~last]
    indices = np.empty(indptr[-1], dtype=np.intp)
    data = np.empty(indptr[-1])
    indices[~last], data[~last] = term_col[src], term_val[src]
    indices[last] = np.column_stack((left, right)).ravel()
    data[last] = np.column_stack((m_left, -m_right)).ravel()
    mip.add_rows(
        indptr, indices, data,
        np.tile([LE, GE], len(inner)),
        np.column_stack((thr + m_left - const, right_rhs - m_right - const)).ravel(),
        [name for tl in tail_inner for name in ("qbrL[" + tl, "qbrR[" + tl)],
    )

    # flow rows: a split's in-edge (1 at the root) splits across its children
    root = nid[inner] == 0
    entries = np.column_stack((left, right, col[inner]))
    held = np.ones(entries.shape, dtype=bool)
    held[:, 2] = ~root
    indptr = np.zeros(len(inner) + 1, dtype=np.intp)
    np.cumsum(held.sum(axis=1), out=indptr[1:])
    mip.add_rows(
        indptr, entries[held], np.tile([1.0, 1.0, -1.0], (len(inner), 1))[held],
        EQ, np.where(root, 1.0, 0.0),
        ["qflow[" + tl for tl in tail_inner],
    )

    # one-leaf rows: exactly one leaf edge per grown tree
    leaf = grown & (feat < 0)
    trees = np.flatnonzero(size > 1)
    indptr = np.zeros(len(trees) + 1, dtype=np.intp)
    np.cumsum(np.bincount(tree_of[leaf], minlength=forest.n_trees)[trees], out=indptr[1:])
    mip.add_rows(
        indptr, col[leaf], np.ones(int(leaf.sum())), EQ, np.ones(len(trees)),
        [f"qleaf[{t}]" for t in trees.tolist()],
    )
    coeffs = dict(zip(col[leaf].tolist(), (scale * flat.value[nodes[leaf]]).tolist()))
    return coeffs, constant
