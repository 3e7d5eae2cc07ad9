"""Linear rows as CSR arrays with a half-row layout.

A problem (:class:`.problem.MipProblem`) keeps its stated rows as one
:class:`CompiledRows` that grows as rows are added, and a search takes
that row set as it stands, at the start of its reduction; from then on
the search holds its rows in no other form. The reduction, bound
propagation, the HiGHS model (:mod:`.highs`) and both cut separators
(:mod:`.cuts`) work on these rows, and the separators return their cuts
as a row set too. A row set is a frozen value of these arrays:

- ``indptr``/``indices``/``data`` hold the rows in CSR form, each row's
  entries in the order given; HiGHS takes these arrays as they are,
  row-wise;
- ``rhs`` and the ``le``/``ge`` masks give each row's sense (an equality
  row is set in both), and ``row_bounds`` turns them into the
  ``lower <= a @ x <= upper`` form HiGHS reads;
- ``halves`` is the half-row layout that propagation passes over. It is
  built whole, for every row at once, on first access, since only
  propagation reads it. A search's nodes pass over the reduced rows,
  which build their layout at the first node; its cut rows go to the LP
  and are never propagated, so cut rounds build none.

New row sets come from old ones.
:meth:`~CompiledRows.substitute` moves fixed columns into the rhs and
:meth:`~CompiledRows.take` keeps some rows, as the reduction does;
:meth:`~CompiledRows.relabel` renumbers the columns to the reduced ones
and :meth:`~CompiledRows.append` adds rows, such as cuts or a
problem's new rows; :meth:`~CompiledRows.widen` takes the rows over
more columns, as a problem that gains columns does. A new row set
shares the arrays it does not change and holds no layout: it builds
its own when it is first propagated, and nothing hands one on.

The layout splits each row into halves, each in "<=" form: a "<=" row
gives one half, a ">=" row one half with coefficients and rhs negated,
and an equality row both; the "<=" halves of all rows come first, in
row order, then the ">=" halves. Bounds live in one vector
``w = [ub, -lb, 0, -inf]``, so every tightening lowers an entry of
``w``. For coefficient ``b`` on column ``j`` a half tightens
``w[k_t]`` (``ub[j]`` when ``b > 0``, ``-lb[j]`` when ``b < 0``) and its
least activity uses ``w[k_p]``, the other bound of ``j``; the term is
``-|b| * w[k_p]``, which equals ``b`` times that bound exactly, and the
new value of ``w[k_t]`` is ``slack / |b|``, the row's ``slack / b`` or
its exact negation. Each half's entries are preceded by a slot that
contributes an exact 0.0 (it reads the ``0`` sentinel and tightens the
``-inf`` one, which never happens), so ``np.add.reduceat`` over a
segment adds the row's terms to the same bits as ``np.sum`` over the
row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

INFEASIBLE_TOL = 1e-7  # least activity above rhs by more than this is infeasible


class HalfRows(NamedTuple):
    """Every half of a row set, with their entries laid out for a pass."""

    seg: np.ndarray  # start of each half's entries (its 0.0 slot)
    half_of: np.ndarray  # half index per entry
    k_p: np.ndarray  # w index of the bound giving the least activity
    k_t: np.ndarray  # w index of the bound the entry tightens
    coef: np.ndarray  # -|b| (0.0 in the slot)
    abs_coef: np.ndarray  # |b| (1.0 in the slot)
    rhs: np.ndarray  # half rhs in "<=" form
    threshold: np.ndarray  # rhs + INFEASIBLE_TOL


@dataclass(frozen=True, eq=False)
class CompiledRows:
    """A row set over ``n`` columns in CSR form, each row's sense by its
    ``le``/``ge`` flags.

    A row set is a value: its operations return new row sets and leave
    this one as it is. ``halves`` and ``matrix_t`` are built from the
    fields on first access and kept; a new row set holds neither.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    le: np.ndarray
    ge: np.ndarray

    @classmethod
    def empty(cls, n: int) -> CompiledRows:
        """No rows, over ``n`` columns."""
        return cls(
            n, indptr=np.zeros(1, dtype=np.intp), indices=np.zeros(0, dtype=np.intp),
            data=np.zeros(0), rhs=np.zeros(0), le=np.zeros(0, dtype=bool),
            ge=np.zeros(0, dtype=bool),
        )

    @property
    def m(self) -> int:
        """The number of rows."""
        return len(self.rhs)

    @cached_property
    def first_empty_failure(self) -> int | None:
        """The first empty row its rhs makes infeasible, if any.

        An empty row's activity is 0, so it fails by propagation's rule:
        by more than ``INFEASIBLE_TOL`` on either side of its rhs.
        """
        empty = np.diff(self.indptr) == 0
        bad = empty & (
            (self.le & (self.rhs < -INFEASIBLE_TOL)) | (self.ge & (self.rhs > INFEASIBLE_TOL))
        )
        return int(np.argmax(bad)) if bad.any() else None

    def append(self, *others: CompiledRows) -> CompiledRows:
        """These rows followed by each of ``others``' in turn, over the
        same columns."""
        parts = (self, *others)
        starts = np.cumsum([len(p.indices) for p in parts])
        return replace(
            self,
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
        """The same rows over ``n`` columns, ``n`` at least ``self.n``."""
        if n == self.n:
            return self
        if n < self.n:
            raise ValueError("widen cannot drop columns")
        return replace(self, n=n)

    def relabel(self, keep: np.ndarray) -> CompiledRows:
        """The same rows over the columns ``keep``, renumbered 0, 1, ...

        ``keep`` lists the old column of each new one, ascending, and
        must hold every column the rows touch.
        """
        pos = np.full(self.n, -1, dtype=np.intp)  # old column -> new
        pos[keep] = np.arange(len(keep))
        indices = pos[self.indices]
        if np.any(indices < 0):
            raise ValueError("relabel drops a column that a row holds")
        return replace(self, n=len(keep), indices=indices)

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
        return replace(
            self,
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
        return replace(
            self,
            indptr=indptr,
            indices=self.indices[entries],
            data=self.data[entries],
            rhs=self.rhs[mask],
            le=self.le[mask],
            ge=self.ge[mask],
        )

    def __len__(self) -> int:
        return self.m

    @cached_property
    def halves(self) -> HalfRows:
        """The layout of every row's halves, built whole on first access."""
        return self._layout()

    @cached_property
    def matrix_t(self) -> sparse.csc_array:
        """``A.T`` over the same CSR arrays, which is what ``y @ A`` computes with."""
        return sparse.csc_array((self.data, self.indices, self.indptr), shape=(self.n, self.m))

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

    def _layout(self) -> HalfRows:
        """The layout of every row's halves: "<=" halves, then ">=" ones."""
        n = self.n
        lengths = np.diff(self.indptr)
        live = lengths > 0  # an empty row has no half
        le_rows = np.flatnonzero(self.le & live)
        ge_rows = np.flatnonzero(self.ge & live)
        row_of = np.concatenate([le_rows, ge_rows])
        is_ge = np.repeat([False, True], [len(le_rows), len(ge_rows)])

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
        return HalfRows(
            seg=seg[:-1], half_of=half_of, k_p=k_p, k_t=k_t, coef=coef,
            abs_coef=abs_coef, rhs=rhs, threshold=rhs + INFEASIBLE_TOL,
        )

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
