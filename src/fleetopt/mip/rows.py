"""Linear rows as CSR arrays with a level schedule.

A problem (:class:`.problem.MipProblem`) keeps its stated rows as one
:class:`CompiledRows` that grows as rows are added, and a search takes
that row set as it stands, at the start of its reduction; from then on
the search holds its rows in no other form. The reduction, bound
propagation, the HiGHS model (:mod:`.highs`) and both cut separators
(:mod:`.cuts`) work on these rows, and the separators return their cuts
as a row set too (:meth:`CompiledRows.of_csr`):

- ``indptr``/``indices``/``data`` hold the rows in CSR form, each row's
  entries in the order given; HiGHS takes these arrays as they are,
  row-wise;
- ``rhs`` and the ``le``/``ge`` masks give each row's sense (an equality
  row is set in both), and ``row_bounds`` turns them into the
  ``lower <= a @ x <= upper`` form HiGHS reads;
- ``levels`` is the level schedule that propagation sweeps. It is built
  whole, for every row at once, on first access, since only propagation
  reads it. A search's nodes sweep the reduced rows, whose schedule the
  reduction built; its cut rows go to the LP and are never swept, so
  cut rounds build none.

New row sets come from old ones.
:meth:`~CompiledRows.substitute` moves fixed columns into the rhs and
:meth:`~CompiledRows.take` keeps some rows, as the reduction does;
:meth:`~CompiledRows.relabel` renumbers the columns to the reduced ones
and :meth:`~CompiledRows.append` adds rows, such as cuts or a
problem's new rows; :meth:`~CompiledRows.widen` takes the rows over
more columns, as a problem that gains columns does. Only ``relabel``
hands on a built schedule, its bound indices mapped to the new columns:
renumbering columns one to one keeps which rows share a column, and
that is how a search's nodes sweep the schedule its reduction built.
Every other new row set builds its own schedule when it is first swept.

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
from typing import NamedTuple

import numpy as np
from scipy import sparse

EMPTY_ROW_TOL = 1e-9  # an empty row is 0 against its rhs
INFEASIBLE_TOL = 1e-7  # least activity above rhs by more than this is infeasible


class RowLevel(NamedTuple):
    """The halves of one level, with their entries laid out for a sweep."""

    seg: np.ndarray  # start of each half's entries (its 0.0 slot)
    half_of: np.ndarray  # half index per entry
    k_p: np.ndarray  # w index of the bound giving the least activity
    k_t: np.ndarray  # w index of the bound the entry tightens
    coef: np.ndarray  # -|b| (0.0 in the slot)
    abs_coef: np.ndarray  # |b| (1.0 in the slot)
    rhs: np.ndarray  # half rhs in "<=" form
    threshold: np.ndarray  # rhs + INFEASIBLE_TOL


class CompiledRows:
    """A row set over ``n`` columns in CSR form with its level schedule.

    ``levels`` is built whole on first access. The other operations
    return new row sets and leave this one as it is; of them only
    :meth:`relabel` hands on a built schedule.
    """

    @classmethod
    def of_csr(cls, n: int, indptr, indices, data, rhs, le, ge) -> CompiledRows:
        """Rows given as CSR arrays, each row's sense by its ``le``/``ge`` flags."""
        out = cls.__new__(cls)
        out._set(n, indptr=indptr, indices=indices, data=data, rhs=rhs, le=le, ge=ge)
        return out

    @classmethod
    def empty(cls, n: int) -> CompiledRows:
        """No rows, over ``n`` columns."""
        return cls.of_csr(
            n, indptr=np.zeros(1, dtype=np.intp), indices=np.zeros(0, dtype=np.intp),
            data=np.zeros(0), rhs=np.zeros(0), le=np.zeros(0, dtype=bool),
            ge=np.zeros(0, dtype=bool),
        )

    def _set(self, n, indptr, indices, data, rhs, le, ge, levels=None):
        self.n = n
        self.m = len(rhs)
        self.indptr, self.indices, self.data = indptr, indices, data
        self.rhs, self.le, self.ge = rhs, le, ge
        self._levels = levels  # the schedule, once built
        self._matrix_t = None

    @cached_property
    def first_empty_failure(self) -> int | None:
        """The first empty row its rhs makes infeasible, where a sweep stops."""
        empty = np.diff(self.indptr) == 0
        bad = empty & (
            (self.le & (self.rhs < -EMPTY_ROW_TOL)) | (self.ge & (self.rhs > EMPTY_ROW_TOL))
        )
        return int(np.argmax(bad)) if bad.any() else None

    def _with(self, n=None, **fields) -> CompiledRows:
        """A new row set: these fields replaced, the rest shared."""
        out = CompiledRows.__new__(CompiledRows)
        kept = dict(
            indptr=self.indptr, indices=self.indices, data=self.data,
            rhs=self.rhs, le=self.le, ge=self.ge,
        )
        out._set(self.n if n is None else n, **{**kept, **fields})
        return out

    def append(self, *others: CompiledRows) -> CompiledRows:
        """These rows followed by each of ``others``' in turn, over the
        same columns, with no schedule built yet.
        """
        parts = (self, *others)
        starts = np.cumsum([len(p.indices) for p in parts])
        return self._with(
            indptr=np.concatenate(
                [self.indptr] + [o.indptr[1:] + at for o, at in zip(others, starts)]
            ),
            indices=np.concatenate([p.indices for p in parts]),
            data=np.concatenate([p.data for p in parts]),
            rhs=np.concatenate([p.rhs for p in parts]),
            le=np.concatenate([p.le for p in parts]),
            ge=np.concatenate([p.ge for p in parts]),
        )

    def widen(self, n: int) -> CompiledRows:
        """The same rows over ``n`` columns, ``n`` at least ``self.n``,
        with no schedule built yet."""
        if n == self.n:
            return self
        if n < self.n:
            raise ValueError("widen cannot drop columns")
        return self._with(n)

    def relabel(self, keep: np.ndarray) -> CompiledRows:
        """The same rows over the columns ``keep``, renumbered 0, 1, ...

        ``keep`` lists the old column of each new one, ascending, and
        must hold every column the rows touch. Renumbering keeps which
        rows share a column, so a built schedule carries over, its bound
        indices mapped into the new ``w``.
        """
        n = len(keep)
        pos = np.full(2 * self.n + 2, -1, dtype=np.intp)  # old w index -> new
        pos[keep] = np.arange(n)
        pos[keep + self.n] = np.arange(n, 2 * n)
        pos[2 * self.n :] = [2 * n, 2 * n + 1]
        indices = pos[self.indices]
        if np.any(indices < 0):
            raise ValueError("relabel drops a column that a row holds")
        levels = self._levels
        if levels is not None:
            levels = [lv._replace(k_p=pos[lv.k_p], k_t=pos[lv.k_t]) for lv in levels]
        return self._with(n, indices=indices, levels=levels)

    def substitute(self, fixed: np.ndarray, values: np.ndarray) -> CompiledRows:
        """These rows with each column in the mask ``fixed`` set to its value.

        A fixed column's term leaves its row, and ``a * values[j]`` is
        subtracted from the row's rhs. Each row subtracts its terms in
        its entry order, so the rhs is bit for bit that of a loop over
        the row's entries. Rows that end up empty stay. With no fixed
        column in any row, the rows are returned as they are.
        """
        gone = fixed[self.indices]
        if not gone.any():
            return self
        lengths = np.diff(self.indptr)
        row_of = np.repeat(np.arange(self.m), lengths)
        entries = np.flatnonzero(gone)  # by row, each row's in entry order
        hit_of = row_of[entries]
        new = np.diff(hit_of, prepend=-1) != 0  # the first of its row
        first = np.flatnonzero(new)
        hit = hit_of[first]
        # each hit row's [rhs, term_1, term_2, ...]; subtract.reduceat
        # subtracts a segment's terms from its rhs one at a time, in order
        starts = first + np.arange(len(first))
        seq = np.empty(len(entries) + len(first))
        seq[starts] = self.rhs[hit]
        seq[np.arange(len(entries)) + np.cumsum(new)] = (
            self.data[entries] * values[self.indices[entries]]
        )
        rhs = self.rhs.copy()
        rhs[hit] = np.subtract.reduceat(seq, starts)
        kept = ~gone
        indptr = np.zeros(self.m + 1, dtype=np.intp)
        np.cumsum(np.bincount(row_of[kept], minlength=self.m), out=indptr[1:])
        return self._with(
            indptr=indptr,
            indices=self.indices[kept],
            data=self.data[kept],
            rhs=rhs,
        )

    def take(self, mask: np.ndarray) -> CompiledRows:
        """The rows in the row mask ``mask``, in their order."""
        if mask.all():
            return self
        lengths = np.diff(self.indptr)
        entries = np.repeat(mask, lengths)
        indptr = np.zeros(int(mask.sum()) + 1, dtype=np.intp)
        np.cumsum(lengths[mask], out=indptr[1:])
        return self._with(
            indptr=indptr,
            indices=self.indices[entries],
            data=self.data[entries],
            rhs=self.rhs[mask],
            le=self.le[mask],
            ge=self.ge[mask],
        )

    def __len__(self) -> int:
        return self.m

    @property
    def levels(self) -> list[RowLevel]:
        """The level schedule of every row, built whole on first access."""
        if self._levels is None:
            self._levels = self._schedule(self._assign_levels())
        return self._levels

    @property
    def matrix_t(self) -> sparse.csc_array:
        """``A.T`` over the same CSR arrays, which is what ``y @ A`` computes with."""
        if self._matrix_t is None:
            self._matrix_t = sparse.csc_array(
                (self.data, self.indices, self.indptr), shape=(self.n, self.m)
            )
        return self._matrix_t

    def combine(self, k: int, at, row, weight) -> np.ndarray:
        """``k`` dense rows over the columns: ``weight[t]`` times row
        ``row[t]`` summed into row ``at[t]``, for every t.

        Each entry of the result adds its terms in the order of t, and each
        row's entries in their CSR order, from 0.0, as a loop over t and
        then over the row's entries would.
        """
        lengths = np.diff(self.indptr)[row]
        term = np.repeat(np.arange(len(row)), lengths)
        entry = np.repeat(self.indptr[row] - np.cumsum(lengths) + lengths, lengths)
        entry += np.arange(len(entry))
        return np.bincount(
            at[term] * self.n + self.indices[entry],
            weights=self.data[entry] * weight[term],
            minlength=k * self.n,
        ).astype(float, copy=False).reshape(k, self.n)  # an int array when empty

    def _assign_levels(self) -> np.ndarray:
        """Each row's level; 0 for an empty row."""
        ptr = self.indptr.tolist()
        cols_of = self.indices.tolist()
        col_level = [0] * self.n  # the level of the last row holding the column
        level = [0] * self.m
        for i in range(self.m):
            cols = cols_of[ptr[i] : ptr[i + 1]]
            if cols:
                lv = 1 + max([col_level[j] for j in cols])
                for j in cols:
                    col_level[j] = lv
                level[i] = lv
        return np.array(level, dtype=np.intp)

    def _schedule(self, level) -> list[RowLevel]:
        """The schedule of every row, given each row's ``level``."""
        n = self.n
        lengths = np.diff(self.indptr)
        live = lengths > 0  # an empty row has no half
        le_rows = np.flatnonzero(self.le & live)
        ge_rows = np.flatnonzero(self.ge & live)
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

        if len(row_of) == 0:
            return []
        # halves and entries numbered from the start of their level
        bounds = [0, *(np.flatnonzero(np.diff(half_level)) + 1).tolist(), len(row_of)]
        first = np.repeat(bounds[:-1], np.diff(bounds))  # per half
        local_seg = seg[:-1] - seg[first]
        local_half = half_of - first[half_of]
        entry_bounds = seg[bounds].tolist()
        return [
            RowLevel(
                seg=local_seg[h0:h1],
                half_of=local_half[e0:e1],
                k_p=k_p[e0:e1],
                k_t=k_t[e0:e1],
                coef=coef[e0:e1],
                abs_coef=abs_coef[e0:e1],
                rhs=rhs[h0:h1],
                threshold=threshold[h0:h1],
            )
            for h0, h1, e0, e1 in zip(bounds, bounds[1:], entry_bounds, entry_bounds[1:])
        ]

    @property
    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` per row, as in ``lower <= a @ x <= upper``.

        A "<=" row is ``(-inf, rhs)``, a ">=" row ``(rhs, inf)`` and an
        equality row ``(rhs, rhs)``; no row is negated.
        """
        return (
            np.where(self.ge, self.rhs, -np.inf),
            np.where(self.le, self.rhs, np.inf),
        )
