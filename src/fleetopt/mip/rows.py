"""Linear rows compiled once into CSR arrays and a level schedule.

The solver keeps its rows as ``(coeffs dict, relation, rhs)`` triples,
which is what the dense simplex and the cut separators read. Bound
propagation and the HiGHS backend instead work on a :class:`CompiledRows`
built from those triples once per row set:

- ``indptr``/``indices``/``data`` hold the rows in CSR form, each row's
  entries in the order of its dict;
- ``rhs`` and the ``le``/``ge`` masks give each row's sense (an equality
  row is set in both);
- ``levels`` is the level schedule that propagation sweeps.

A row's level is 1 + the highest level of any earlier row that shares a
column with it. Rows on one level touch disjoint columns, and every
earlier row that touches one of a row's columns sits on a lower level,
while every later one sits on a higher level. Sweeping the levels in
order, all rows of a level at once, therefore reads and writes bounds
exactly as a row-by-row sweep in row order does.

Within a level, each row is split into halves, each in "<=" form: a
"<=" row gives one half, a ">=" row one half with coefficients and rhs
negated, and an equality row both. Bounds live in one vector
``w = [ub, -lb, 0, -inf]``, so every tightening lowers an entry of
``w``. For coefficient ``b`` on column ``j`` a half tightens
``w[k_t]`` (``ub[j]`` when ``b > 0``, ``-lb[j]`` when ``b < 0``) and its
least activity uses ``w[k_p]``, the other bound of ``j``; the term is
``-|b| * w[k_p]``, which equals ``b`` times that bound exactly, and the
new value of ``w[k_t]`` is ``slack / |b|``, the row-by-row sweep's
``slack / b`` or its exact negation. Each
half's entries are preceded by a slot that contributes an exact 0.0
(it reads the ``0`` sentinel and tightens the ``-inf`` one, which never
happens), so ``np.add.reduceat`` over a segment adds the row's terms in
the same order, and to the same bits, as ``np.sum`` over the row.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .problem import GE, LE

EMPTY_ROW_TOL = 1e-9  # an empty row is 0 against its rhs
INFEASIBLE_TOL = 1e-7  # least activity above rhs by more than this is infeasible


class RowLevel(NamedTuple):
    """The halves of one level, with their entries laid out for a sweep."""

    row_of: np.ndarray  # original row index per half, ascending
    seg: np.ndarray  # start of each half's entries (its 0.0 slot)
    half_of: np.ndarray  # half index per entry
    k_p: np.ndarray  # w index of the bound giving the least activity
    k_t: np.ndarray  # w index of the bound the entry tightens
    coef: np.ndarray  # -|b| (0.0 in the slot)
    abs_coef: np.ndarray  # |b| (1.0 in the slot)
    rhs: np.ndarray  # half rhs in "<=" form
    threshold: np.ndarray  # rhs + INFEASIBLE_TOL


class CompiledRows:
    """A row set over ``n`` columns in CSR form with its level schedule."""

    def __init__(self, rows, n: int):
        self.n = n
        self.m = m = len(rows)
        lengths = np.fromiter((len(c) for c, _, _ in rows), dtype=np.intp, count=m)
        self.indptr = np.zeros(m + 1, dtype=np.intp)
        np.cumsum(lengths, out=self.indptr[1:])
        nnz = int(self.indptr[-1])
        self.indices = np.fromiter(
            chain.from_iterable(c.keys() for c, _, _ in rows), dtype=np.intp, count=nnz
        )
        self.data = np.fromiter(
            chain.from_iterable(c.values() for c, _, _ in rows), dtype=float, count=nnz
        )
        self.rhs = np.array([rhs for _, _, rhs in rows], dtype=float)
        self.le = np.array([rel != GE for _, rel, _ in rows], dtype=bool)
        self.ge = np.array([rel != LE for _, rel, _ in rows], dtype=bool)

        empty = lengths == 0
        bad = empty & (
            (self.le & (self.rhs < -EMPTY_ROW_TOL))
            | (self.ge & (self.rhs > EMPTY_ROW_TOL))
        )
        # a sweep stops at the first infeasible empty row
        self.first_empty_failure = int(np.argmax(bad)) if bad.any() else None

        level = np.zeros(m, dtype=np.intp)
        col_level = [0] * n
        for i, (coeffs, _, _) in enumerate(rows):
            if coeffs:
                lv = 1 + max([col_level[j] for j in coeffs])
                for j in coeffs:
                    col_level[j] = lv
                level[i] = lv
        self.levels = self._schedule(level, lengths, empty)

    def _schedule(self, level, lengths, empty) -> list[RowLevel]:
        n = self.n
        le_rows = np.flatnonzero(self.le & ~empty)
        ge_rows = np.flatnonzero(self.ge & ~empty)
        row_of = np.concatenate([le_rows, ge_rows])
        is_ge = np.repeat([False, True], [len(le_rows), len(ge_rows)])
        order = np.lexsort((row_of, level[row_of]))  # by level, then row
        row_of, is_ge = row_of[order], is_ge[order]
        half_level = level[row_of]

        # entries of each half, one 0.0 slot first, then the row's entries
        sizes = lengths[row_of] + 1
        seg = np.zeros(len(row_of) + 1, dtype=np.intp)
        np.cumsum(sizes, out=seg[1:])
        half_of = np.repeat(np.arange(len(row_of)), sizes)
        within = np.arange(seg[-1]) - seg[half_of]  # 0 is the slot
        slot = within == 0
        src = self.indptr[row_of][half_of] + within - 1
        src[slot] = 0
        cols = self.indices[src]
        b = np.where(is_ge[half_of], -self.data[src], self.data[src])
        k_t = np.where(b < 0, cols + n, cols)
        k_p = np.where(b > 0, cols + n, cols)
        k_p[slot] = 2 * n  # the 0 sentinel
        k_t[slot] = 2 * n + 1  # the -inf sentinel
        coef = -np.abs(b)
        coef[slot] = 0.0
        abs_coef = np.abs(b)
        abs_coef[slot] = 1.0
        rhs = np.where(is_ge, -self.rhs[row_of], self.rhs[row_of])
        threshold = rhs + INFEASIBLE_TOL

        levels = []
        breaks = list(np.flatnonzero(np.diff(half_level)) + 1)
        for h0, h1 in zip([0, *breaks], [*breaks, len(row_of)]):
            if h0 == h1:  # no halves at all
                continue
            e0, e1 = seg[h0], seg[h1]
            levels.append(
                RowLevel(
                    row_of=row_of[h0:h1],
                    seg=seg[h0:h1] - e0,
                    half_of=half_of[e0:e1] - h0,
                    k_p=k_p[e0:e1],
                    k_t=k_t[e0:e1],
                    coef=coef[e0:e1],
                    abs_coef=abs_coef[e0:e1],
                    rhs=rhs[h0:h1],
                    threshold=threshold[h0:h1],
                )
            )
        return levels

    @cached_property
    def highs_form(self):
        """``(A_ub, b_ub, A_eq, b_eq)`` in row order, ">=" rows negated.

        A matrix is None when it would have no rows.
        """
        sign = np.where(self.le, 1.0, -1.0)
        rows_of_entries = np.repeat(np.arange(self.m), np.diff(self.indptr))
        A = sparse.csr_matrix(
            (self.data * sign[rows_of_entries], self.indices, self.indptr),
            shape=(self.m, self.n),
        )
        A.sort_indices()
        eq = self.le & self.ge
        ub_rows, eq_rows = np.flatnonzero(~eq), np.flatnonzero(eq)
        return (
            A[ub_rows] if len(ub_rows) else None,
            (sign * self.rhs)[ub_rows],
            A[eq_rows] if len(eq_rows) else None,
            self.rhs[eq_rows],
        )
