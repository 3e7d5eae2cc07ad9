"""Cutting planes: Gomory fractional cuts and knapsack cover cuts.

Both separators return rows that every integer-feasible point of the
problem satisfies and that the current LP point violates by at least
``min_violation``; an empty list means nothing was separated. Gomory
cuts are read off an optimal tableau of the dense simplex
(:mod:`.simplex`); cover cuts need only the rows and an LP point.
"""

from __future__ import annotations

import numpy as np

from .problem import BINARY, GE, LE, MipProblem
from .simplex import TableauState

MIN_VIOLATION = 1e-7


def _frac(a: float) -> float:
    f = a - np.floor(a)
    if f < 1e-9 or f > 1 - 1e-9:
        return 0.0
    return float(f)


def gomory_cuts(
    state: TableauState,
    max_cuts: int = 8,
    min_violation: float = MIN_VIOLATION,
) -> list[tuple[dict[int, float], str, float]]:
    """Gomory fractional cuts read off an optimal dense-simplex tableau.

    Each cut is returned in original variable space as (coeffs, ">=",
    rhs). A source row is used only when its basic column is integer
    valued and every nonbasic column appearing with a fractional
    coefficient is integer valued as well, which keeps every cut valid
    for all integer-feasible points.
    """
    T = state.tableau
    basis = state.basis
    cols = state.columns
    n = T.shape[1] - 1
    nonbasic = np.ones(n, dtype=bool)
    nonbasic[basis] = False
    out = []
    order = np.argsort(-np.abs(T[:, -1] - np.round(T[:, -1])))  # most fractional first
    for r in order:
        if len(out) >= max_cuts:
            break
        b_col = basis[r]
        if cols[b_col].kind == "art" or not cols[b_col].is_integer:
            continue
        f0 = _frac(T[r, -1])
        if f0 < 1e-5 or f0 > 1 - 1e-5:
            continue
        usable = True
        frac_coeffs = {}
        for c in range(n):
            if not nonbasic[c]:
                continue
            fj = _frac(T[r, c])
            if fj == 0.0:
                continue
            if cols[c].kind == "art" or not cols[c].is_integer:
                usable = False
                break
            frac_coeffs[c] = fj
        if not usable or not frac_coeffs:
            continue
        # substitute each standard column by its affine form in x
        lhs: dict[int, float] = {}
        rhs = f0
        for c, fj in frac_coeffs.items():
            info = cols[c]
            rhs -= fj * info.affine_const
            for v, a in info.affine_terms.items():
                lhs[v] = lhs.get(v, 0.0) + fj * a
        lhs = {v: a for v, a in lhs.items() if abs(a) > 1e-12}
        if not lhs:
            continue
        # at the LP point all nonbasic columns sit at zero, so the cut is
        # violated by exactly f0, which the threshold above keeps >= 1e-5
        if f0 >= min_violation:
            out.append((lhs, GE, rhs))
    return out


def cover_cuts(
    problem: MipProblem,
    lp_values: np.ndarray,
    extra_rows: list[tuple[dict[int, float], str, float]] | None = None,
    max_cuts: int = 8,
    min_violation: float = MIN_VIOLATION,
) -> list[tuple[dict[int, float], str, float]]:
    """Greedy minimal-cover cuts from <=-rows over binary variables.

    For a knapsack row sum(a_j x_j) <= b with binary support, a cover C
    with sum(a_j) > b yields sum_{j in C} x_j <= |C| - 1; the cover is
    extended with every item whose weight reaches the cover maximum.
    Negative coefficients are complemented first, so the emitted cut is
    valid for the original problem.
    """
    rows = [(c.coeffs, c.relation, c.rhs) for c in problem.constraints]
    if extra_rows:
        rows.extend(extra_rows)
    kinds = [v.kind for v in problem.variables]
    return cover_cuts_raw(
        rows, kinds, lp_values, max_cuts=max_cuts, min_violation=min_violation
    )


def cover_cuts_raw(
    rows: list[tuple[dict[int, float], str, float]],
    kinds: list[str],
    lp_values: np.ndarray,
    max_cuts: int = 8,
    min_violation: float = MIN_VIOLATION,
) -> list[tuple[dict[int, float], str, float]]:
    """Cover separation over raw rows; see :func:`cover_cuts`."""
    cuts = []
    seen = set()
    for coeffs, relation, rhs in rows:
        if len(cuts) >= max_cuts:
            break
        if relation == GE:
            coeffs = {j: -a for j, a in coeffs.items()}
            rhs = -rhs
        elif relation != LE:
            continue
        if not coeffs:
            continue
        if any(kinds[j] != BINARY for j in coeffs):
            continue
        # complement negatives: x_j -> 1 - x_j
        items = []
        b = float(rhs)
        for j, a in coeffs.items():
            if a > 0:
                items.append((j, float(a), False))
            elif a < 0:
                items.append((j, float(-a), True))
                b += -a
        if b < 0 or not items:
            continue
        total = sum(a for _, a, _ in items)
        if total <= b + 1e-9:
            continue  # no cover exists
        # fractional value of each (possibly complemented) item
        def val(item):
            j, _, comp = item
            v = float(lp_values[j])
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
        lhs: dict[int, float] = {}
        rhs_cut = float(cap)
        for j, _, comp in extended:
            if comp:
                lhs[j] = lhs.get(j, 0.0) - 1.0
                rhs_cut -= 1.0
            else:
                lhs[j] = lhs.get(j, 0.0) + 1.0
        activity = sum(a * lp_values[j] for j, a in lhs.items())
        if activity <= rhs_cut + min_violation:
            continue
        key = (tuple(sorted(lhs.items())), round(rhs_cut, 9))
        if key in seen:
            continue
        seen.add(key)
        cuts.append((lhs, LE, rhs_cut))
    return cuts
