"""Row sets for tests, written as ``(coeffs dict, relation, rhs)`` triples."""

import numpy as np

from fleetopt.mip.rows import CompiledRows


def row_set(rows, n: int) -> CompiledRows:
    """The rows as one row set over ``n`` columns, each row's entries in
    its dict's order; zero coefficients are kept."""
    coeffs, rels, rhs = zip(*rows) if rows else ((), (), ())
    indptr = np.zeros(len(rhs) + 1, dtype=np.intp)
    np.cumsum([len(c) for c in coeffs], out=indptr[1:])
    return CompiledRows(
        n,
        indptr=indptr,
        indices=np.array([j for c in coeffs for j in c], dtype=np.intp),
        data=np.array([a for c in coeffs for a in c.values()], dtype=float),
        rhs=np.array(rhs, dtype=float),
        le=np.array([r != ">=" for r in rels], dtype=bool),
        ge=np.array([r != "<=" for r in rels], dtype=bool),
    )
