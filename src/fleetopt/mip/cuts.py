"""Cutting planes: mixed-integer Gomory cuts and knapsack cover cuts.

Both separators read rows as CSR arrays (:class:`.rows.CompiledRows`)
and return their cuts as one :class:`~.rows.CompiledRows` over the same
columns: rows that every integer-feasible point of the problem
satisfies and that the current LP point violates by at least
``min_violation``. An empty row set means nothing was separated. Gomory
cuts come from the optimal basis of the persistent HiGHS model
(:meth:`.highs.HighsLp.tableau`): HiGHS gives its basic variables and
one row of B⁻¹ per source row, and the rest (the tableau rows over the
rows that model holds, the cut rule, the tidying, the rhs and the
violation test) is computed here in numpy. Cover cuts need only rows
and an LP point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .highs import HighsLp
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

    ``lp`` must just have been solved to optimality at x, HiGHS's own
    solution, under the column bounds ``lb``/``ub``; its tableau rows are
    taken over the rows it holds, ``lp.rows``. Each tableau row
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

    No basis status is read: which bound each term sits at follows from
    the basic variables and x (:func:`nonbasic_sides`).
    A row is skipped when a nonbasic in it sits at no finite bound,
    when its basic value is within ``MIN_FRACTION`` of an integer, or
    when the cut's coefficients span more than ``MAX_RANGE``. A
    coefficient below ``TINY`` times the largest is dropped after the
    rhs is relaxed by its column's bounds (:func:`_tidy_rows`; the
    one-cut reference is ``tidy`` in ``tests/test_gomory_reference.py``).
    Each cut is a ">=" row over the columns of ``lp.rows``, its entries
    in ascending column order.

    The source rows are taken in batches, each as large as the cut
    budget still left, so no row is read that a row-by-row loop would not
    read; usually one batch serves the whole call. Of each source row
    only its row of B⁻¹ comes from HiGHS; the rest of the tableau row is
    priced in numpy (:meth:`.highs.Tableau.reduced`). A batch is
    separated in one array pass over the nonzero terms of its rows: the
    rule, the coefficient sums (in row order, as ``rows.matrix_t @
    weight`` sums them), the tidying and the range test
    (:func:`_tidy_rows`). Only the rhs and the violation test go cut by
    cut, each dot product one ``@`` as a row-by-row loop has it, since a
    batched product may round differently; so every cut is bit for bit
    that of a row-by-row loop.
    """
    rows = lp.rows
    n, m = rows.n, rows.m
    tab = lp.tableau()
    col = np.maximum(tab.basic, 0)  # basic column per tableau row, if any
    f = x[col] - np.floor(x[col])
    dist = np.minimum(f, 1 - f)
    source = (tab.basic >= 0) & int_mask[col] & (dist >= MIN_FRACTION)
    order = np.flatnonzero(source)[np.argsort(-dist[source], kind="stable")]
    side = nonbasic_sides(tab.basic, rows, lb, ub, x)
    col_at = np.where(side.col_up, ub, lb)
    row_at = rows.rhs  # an inequality row's only finite side
    # complementing keeps an integer column integer only at an integral bound
    col_int = int_mask & (col_at == np.floor(col_at))
    # a term at no finite bound: a source row holding one gives no cut
    col_bad = ~side.col_ok
    row_bad = ~np.isfinite(row_at)

    out = []  # (columns, coefficients, rhs) per cut

    def batch_cuts(batch):
        k = len(batch)
        binv = tab.binv(batch)
        reduced = tab.reduced(binv)
        # the terms of each row, row by row and in column order, as flat
        # indices into reduced (k x n) and binv (k x m)
        cq = np.flatnonzero((reduced != 0) & side.col_term)
        rq = np.flatnonzero((binv != 0) & side.row_term)
        c_row, r_row = cq // n, rq // m
        cols, rws = cq - c_row * n, rq - r_row * m

        # a'_j: the coefficient on y_j (-binv for a row activity), negated at upper
        col_up = side.col_up[cols]
        row_up = side.row_up[rws]
        a_col = np.where(col_up, -1.0, 1.0) * reduced.take(cq)
        a_row = np.where(row_up, 1.0, -1.0) * binv.take(rq)
        f0 = f[batch]
        fc, fr = f0[c_row], f0[r_row]
        frac = a_col - np.floor(a_col)
        g_col = np.where(
            col_int[cols],
            np.where(frac <= fc, frac / fc, (1 - frac) / (1 - fc)),
            np.where(a_col >= 0, a_col / fc, -a_col / (1 - fc)),
        )
        g_row = np.where(a_row >= 0, a_row / fr, -a_row / (1 - fr))
        # back from y_j to z_j: y_j = z_j - lower, or upper - z_j
        s_col = np.where(col_up, -g_col, g_col)
        s_row = np.where(row_up, -g_row, g_row)

        # a row activity is a_k @ x: each cut adds its rows' entries in row order
        coefs = rows.combine(k, r_row, rws, s_row)
        np.put(coefs, cq, coefs.take(cq) + s_col)
        keep, t_row, most = _tidy_rows(coefs, lb, ub)
        keep[c_row[col_bad[cols]]] = False
        keep[r_row[row_bad[rws]]] = False

        # per cut: the rhs, relaxed by its dropped terms in column order,
        # and the violation test, each dot product one ``@`` as a loop has it
        at_col, at_row = col_at[cols], row_at[rws]
        c_ptr = np.searchsorted(cq, np.arange(0, (k + 1) * n, n)).tolist()
        r_ptr = np.searchsorted(rq, np.arange(0, (k + 1) * m, m)).tolist()
        t_ptr = np.searchsorted(t_row, np.arange(k + 1)).tolist()
        most = most.tolist()
        for r in np.flatnonzero(keep).tolist():
            c = slice(c_ptr[r], c_ptr[r + 1])
            w = slice(r_ptr[r], r_ptr[r + 1])
            rhs = 1.0 + s_col[c] @ at_col[c] + s_row[w] @ at_row[w]
            for term in most[t_ptr[r] : t_ptr[r + 1]]:
                rhs -= term
            if coefs[r] @ x <= rhs - min_violation:
                nz = np.flatnonzero(coefs[r])
                out.append((nz, coefs[r, nz], rhs))

    done = 0
    while len(out) < max_cuts and done < len(order):
        batch = order[done : done + max_cuts - len(out)]
        done += len(batch)
        batch_cuts(batch)
    return _cut_rows(n, out, ge=True)


class Sides(NamedTuple):
    """Where the nonbasic columns and row activities of a basis sit.

    A term is a nonbasic column that is not fixed, or a nonbasic row
    activity of an inequality row. ``*_up`` marks a term at its upper
    bound, ``col_ok`` a column term at either of its bounds; a row term
    always sits at its only finite side (``rhs``).
    """

    col_term: np.ndarray
    col_up: np.ndarray
    col_ok: np.ndarray
    row_term: np.ndarray
    row_up: np.ndarray


def nonbasic_sides(basic, rows: CompiledRows, lb, ub, x) -> Sides:
    """The sides of an optimal basis, from its basic variables and x.

    ``basic`` lists the basic variable of each tableau row as
    :class:`.highs.Tableau` gives it. A nonbasic "<=" row sits at its
    upper bound and a ">=" row at its lower one. A nonbasic column sits
    at the bound its value in x equals; at neither bound it is treated
    as free, as HiGHS's own status would call it.
    """
    col_term = ub - lb > 0
    col_term[basic[basic >= 0]] = False
    row_term = rows.le != rows.ge
    row_term[-1 - basic[basic < 0]] = False
    col_up = x == ub
    return Sides(
        col_term=col_term,
        col_up=col_up,
        col_ok=col_up | (x == lb),
        row_term=row_term,
        row_up=rows.le,
    )


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


def _tidy_rows(coefs, lb, ub):
    """Each dense row of ``coefs``, a cut ``coef @ x >= rhs``, without its
    tiny coefficients, all rows at once, but for the rhs.

    A coefficient below ``TINY`` times its row's largest becomes 0 in
    place where its column is bounded on the side that relaxes the rhs;
    its largest value is then subtracted from the rhs. A row is kept
    unless it is empty or its coefficients span more than ``MAX_RANGE``.
    Returns the mask of the rows kept and, as ``(row, value)`` arrays,
    the terms each row subtracts from its rhs, in ascending column
    order, as a loop over one cut's tiny coefficients subtracts them
    (``tidy`` in ``tests/test_gomory_reference.py``, the reference this
    is tested against).
    """
    n = coefs.shape[1]
    size = np.abs(coefs)
    top = size.max(axis=1, initial=0.0)
    q = np.flatnonzero((size > 0) & (size < TINY * top[:, None]))
    at = q // n
    j = q - at * n
    term = coefs.take(q)
    low, high = term * lb[j], term * ub[j]
    most = np.where(high > low, high, low)  # as max(low, high) picks
    fin = np.isfinite(most)
    np.put(coefs, q[fin], 0.0)
    least = np.where(coefs != 0, size, np.inf).min(axis=1, initial=np.inf)
    return (top > 0) & ~(top > MAX_RANGE * least), at[fin], most[fin]


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
