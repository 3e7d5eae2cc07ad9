"""Cutting planes: mixed-integer Gomory cuts and knapsack cover cuts.

Both separators read rows as CSR arrays (:class:`.rows.CompiledRows`)
and return their cuts as one :class:`~.rows.CompiledRows` over the same
columns: rows that every integer-feasible point of the problem
satisfies and that the current LP point violates by at least
``min_violation``. An empty row set means nothing was separated. Gomory
cuts are read off the optimal basis of the persistent HiGHS model
(:meth:`.highs.HighsLp.tableau`) over the rows that model holds; cover
cuts need only rows and an LP point.
"""

from __future__ import annotations

import numpy as np

from .highs import AT_LOWER, AT_UPPER, BASIC, HighsLp
from .rows import CompiledRows

MIN_VIOLATION = 1e-7
MIN_FRACTION = 1e-2  # a source row's basic value this close to an integer is skipped
MAX_RANGE = 1e6  # largest |coefficient| over smallest in a kept cut
TINY = 1e-9  # a cut coefficient below TINY * the largest is dropped


def gomory_cuts(
    lp: HighsLp,
    lb: np.ndarray,
    ub: np.ndarray,
    int_mask: np.ndarray,
    x: np.ndarray,
    max_cuts: int = 8,
    min_violation: float = MIN_VIOLATION,
) -> CompiledRows:
    """Mixed-integer Gomory cuts off the basis of ``lp``'s last solve.

    ``lp`` must just have been solved to optimality at x under the
    column bounds ``lb``/``ub``; its tableau rows are read over the rows
    it holds, ``lp.rows``. Each tableau row
    whose basic column is integer with a fractional value, most
    fractional first, reads ``x_B + sum_j a_j z_j = 0`` over the
    nonbasic columns and row activities ``z_j``. A nonbasic at its upper
    bound is complemented, so each term becomes a distance ``y_j >= 0``
    from the bound the variable sits at, and ``x_B + sum_j a'_j y_j``
    equals x's value of ``x_B``. The Gomory mixed-integer rule (Marchand
    and Wolsey 2001; Cornuejols 2008) then gives ``sum_j g_j y_j >= 1``:
    an integer column at an integral bound takes the fractional rule,
    continuous columns and row activities the continuous one. Fixed
    columns and equality rows stay at their bound and drop out.

    A row is skipped when a nonbasic in it sits at an infinite bound,
    when its basic value is within ``MIN_FRACTION`` of an integer, or
    when the cut's coefficients span more than ``MAX_RANGE``. A
    coefficient below ``TINY`` times the largest is dropped after the
    rhs is relaxed by its column's bounds. Each cut is a ">=" row over
    the columns of ``lp.rows``, its entries in ascending column order.
    """
    rows = lp.rows
    tab = lp.tableau()
    col = np.maximum(tab.basic, 0)  # basic column per tableau row, if any
    f = x[col] - np.floor(x[col])
    dist = np.minimum(f, 1 - f)
    source = (tab.basic >= 0) & int_mask[col] & (dist >= MIN_FRACTION)
    order = np.flatnonzero(source)[np.argsort(-dist[source], kind="stable")]
    out = []  # (columns, coefficients, rhs) per cut
    if len(order) == 0:  # no source row: the statuses are never read
        return _cut_rows(rows.n, out, ge=True)

    row_lower, row_upper = rows.row_bounds
    # nonbasic and not fixed: a term of every source row it appears in
    col_term = (tab.col_status != BASIC) & (ub - lb > 0)
    row_term = (tab.row_status != BASIC) & (row_lower < row_upper)
    col_up = tab.col_status == AT_UPPER
    row_up = tab.row_status == AT_UPPER
    col_at = np.where(col_up, ub, lb)
    row_at = np.where(row_up, row_upper, row_lower)
    # at a finite bound, which a term must be for its row to be used
    col_ok = ((tab.col_status == AT_LOWER) | col_up) & np.isfinite(col_at)
    row_ok = ((tab.row_status == AT_LOWER) | row_up) & np.isfinite(row_at)
    # complementing keeps an integer column integer only at an integral bound
    col_int = int_mask & (col_at == np.floor(col_at))

    for i in order:
        if len(out) >= max_cuts:
            break
        f0 = f[i]
        reduced, binv = tab.row(i)
        cols = np.flatnonzero(col_term & (reduced != 0))
        rws = np.flatnonzero(row_term & (binv != 0))
        if not (col_ok[cols].all() and row_ok[rws].all()):
            continue
        # a'_j: the coefficient on y_j (-binv for a row activity), negated at upper
        a_col = np.where(col_up[cols], -1.0, 1.0) * reduced[cols]
        a_row = np.where(row_up[rws], 1.0, -1.0) * binv[rws]
        frac = a_col - np.floor(a_col)
        g_col = np.where(
            col_int[cols],
            np.where(frac <= f0, frac / f0, (1 - frac) / (1 - f0)),
            np.where(a_col >= 0, a_col / f0, -a_col / (1 - f0)),
        )
        g_row = np.where(a_row >= 0, a_row / f0, -a_row / (1 - f0))
        # back from y_j to z_j: y_j = z_j - lower, or upper - z_j
        s_col = np.where(col_up[cols], -g_col, g_col)
        s_row = np.where(row_up[rws], -g_row, g_row)
        rhs = 1.0 + s_col @ col_at[cols] + s_row @ row_at[rws]
        weight = np.zeros(rows.m)
        weight[rws] = s_row
        coef = rows.matrix_t @ weight  # a row activity is a_k @ x
        coef[cols] += s_col
        cut = _tidy(coef, rhs, lb, ub)
        if cut is not None and cut[0] @ x <= cut[1] - min_violation:
            coef, rhs = cut
            nz = np.flatnonzero(coef)
            out.append((nz, coef[nz], rhs))
    return _cut_rows(rows.n, out, ge=True)


def _cut_rows(n: int, cuts, ge: bool) -> CompiledRows:
    """``cuts``, each ``(columns, coefficients, rhs)``, as rows of one sense.

    Each row holds its coefficients in the order given; ``ge`` makes
    every row a ">=" row, else a "<=" row.
    """
    cols, coefs, rhs = zip(*cuts) if cuts else ((), (), ())
    indptr = np.zeros(len(rhs) + 1, dtype=np.intp)
    np.cumsum([len(c) for c in cols], out=indptr[1:])
    return CompiledRows.of_csr(
        n,
        indptr=indptr,
        indices=np.concatenate(cols, dtype=np.intp) if cuts else np.zeros(0, np.intp),
        data=np.concatenate(coefs, dtype=float) if cuts else np.zeros(0),
        rhs=np.array(rhs, dtype=float),
        le=np.full(len(rhs), not ge),
        ge=np.full(len(rhs), ge),
    )


def _tidy(coef, rhs, lb, ub):
    """``coef @ x >= rhs`` without its tiny coefficients, or None.

    A tiny coefficient goes only where its column is bounded on the side
    that relaxes the rhs; None when the cut is empty or its coefficients
    span more than ``MAX_RANGE``.
    """
    size = np.abs(coef)
    if not size.any():
        return None
    tiny = np.flatnonzero((size > 0) & (size < TINY * size.max()))
    for j in tiny:
        most = max(coef[j] * lb[j], coef[j] * ub[j])  # largest value of the term
        if np.isfinite(most):
            rhs -= most
            coef[j] = 0.0
    size = np.abs(coef[coef != 0])
    if size.max() > MAX_RANGE * size.min():
        return None
    return coef, rhs


def cover_cuts(
    rows: CompiledRows,
    binary: np.ndarray,
    x: np.ndarray,
    max_cuts: int = 8,
    min_violation: float = MIN_VIOLATION,
) -> CompiledRows:
    """Greedy minimal-cover cuts from inequality rows over binary columns.

    For a knapsack row sum(a_j x_j) <= b with binary support, a cover C
    with sum(a_j) > b yields sum_{j in C} x_j <= |C| - 1; the cover is
    extended with every item whose weight reaches the cover maximum. A
    ">=" row is negated into that form, and negative coefficients are
    complemented first (x_j -> 1 - x_j), so the emitted cut is valid for
    the original row. Equality rows, empty rows and rows that hold a
    column outside the mask ``binary`` are skipped, and a cut found
    twice is kept once. Each cut is a "<=" row that lists the cover's
    columns, then the extension's.
    """
    lengths = np.diff(rows.indptr)
    row_of = np.repeat(np.arange(rows.m), lengths)
    others = np.bincount(row_of[~binary[rows.indices]], minlength=rows.m)
    usable = (rows.le != rows.ge) & (lengths > 0) & (others == 0)
    cuts = []  # (columns, coefficients, rhs) per cut
    seen = set()
    for i in np.flatnonzero(usable).tolist():
        if len(cuts) >= max_cuts:
            break
        start, end = rows.indptr[i], rows.indptr[i + 1]
        cols = rows.indices[start:end].tolist()
        coeffs = rows.data[start:end].tolist()
        b = float(rows.rhs[i])
        if rows.ge[i]:
            coeffs, b = [-a for a in coeffs], -b
        # complement negatives: x_j -> 1 - x_j
        items = []
        for j, a in zip(cols, coeffs):
            if a > 0:
                items.append((j, a, False))
            elif a < 0:
                items.append((j, -a, True))
                b += -a
        if b < 0 or not items:
            continue
        total = sum(a for _, a, _ in items)
        if total <= b + 1e-9:
            continue  # no cover exists
        # fractional value of each (possibly complemented) item
        def val(item):
            j, _, comp = item
            v = float(x[j])
            return 1.0 - v if comp else v

        # greedy: prefer items that are nearly 1 in the LP, heavier first
        ordered = sorted(items, key=lambda it: (1.0 - val(it)) / it[1])
        cover = []
        weight = 0.0
        for it in ordered:
            cover.append(it)
            weight += it[1]
            if weight > b + 1e-9:
                break
        if weight <= b + 1e-9:
            continue
        # make the cover minimal: drop items that keep it a cover
        changed = True
        while changed:
            changed = False
            for it in sorted(cover, key=val):
                if weight - it[1] > b + 1e-9:
                    cover.remove(it)
                    weight -= it[1]
                    changed = True
                    break
        amax = max(it[1] for it in cover)
        in_cover = {it[0] for it in cover}
        extended = list(cover) + [
            it for it in items if it[0] not in in_cover and it[1] >= amax - 1e-12
        ]
        cap = len(cover) - 1
        # back-substitute complements
        cut_cols = [j for j, _, _ in extended]
        cut_coeffs = [-1.0 if comp else 1.0 for _, _, comp in extended]
        rhs_cut = float(cap - sum(comp for _, _, comp in extended))
        activity = sum(a * x[j] for j, a in zip(cut_cols, cut_coeffs))
        if activity <= rhs_cut + min_violation:
            continue
        key = (tuple(sorted(zip(cut_cols, cut_coeffs))), round(rhs_cut, 9))
        if key in seen:
            continue
        seen.add(key)
        cuts.append((cut_cols, cut_coeffs, rhs_cut))
    return _cut_rows(rows.n, cuts, ge=False)
