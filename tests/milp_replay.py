"""Both lexicographic stages replayed with ``scipy.optimize.milp``.

The replay reads a problem's stated rows, bounds and integrality and
shares no code with the solver: stage 1 optimizes the primary, stage 2
the secondary under the retention row built from milp's own stage-1
optimum, as :func:`fleetopt.mip.lexicographic_solve` states it.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from fleetopt.mip import INFEASIBLE, OPTIMAL
from fleetopt.mip.problem import BINARY, INTEGER, MAX


def milp_optimum(problem, objective, extra_row=None):
    """``objective``'s optimum over the stated rows plus ``extra_row``,
    given as ``(coefficients, lower, upper)``; None when infeasible."""
    n = problem.n_vars
    rows = problem.rows
    A = sparse.csr_array((rows.data, rows.indices, rows.indptr), shape=(rows.m, n))
    lower, upper = rows.row_bounds
    if extra_row is not None:
        coeffs, lo, hi = extra_row
        a = np.zeros(n)
        for j, c in coeffs.items():
            a[j] = c
        A = sparse.vstack([A, sparse.csr_array(a[None, :])])
        lower, upper = np.append(lower, lo), np.append(upper, hi)
    c = np.zeros(n)
    for j, a in objective.coeffs.items():
        c[j] = a
    sign = -1.0 if objective.sense == MAX else 1.0
    lb, ub = problem.bounds_arrays()
    res = milp(
        sign * c,
        constraints=LinearConstraint(A, lower, upper) if A.shape[0] else (),
        integrality=np.array([v.kind in (INTEGER, BINARY) for v in problem.variables]),
        bounds=Bounds(lb, ub),
        options={"mip_rel_gap": 1e-9, "time_limit": 60.0},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return sign * float(res.fun) + objective.constant


def retention_row(problem, g_star, slack_rel):
    """``g >= g* - eps`` (``<= g* + eps`` when minimizing) as an extra row."""
    g = problem.objective
    eps = slack_rel * abs(g_star) + 1e-9
    if g.sense == MAX:
        return g.coeffs, g_star - eps - g.constant, np.inf
    return g.coeffs, -np.inf, g_star + eps - g.constant


def assert_lexicographic_matches_milp(problem, status, primary, secondary, cfg, bound=None):
    """A lexicographic result against milp's replay of both stages.

    The stage-1 ``bound`` (when given) and the ``secondary`` agree with
    milp's optima within ``cfg.gap_tol``; the ``primary`` lies within
    ``cfg.gap_tol`` of the range the retention row allows.
    """
    g_star = milp_optimum(problem, problem.objective)
    if g_star is None:
        assert status == INFEASIBLE
        return
    assert status == OPTIMAL
    tol = cfg.gap_tol * max(1.0, abs(g_star))
    eps = cfg.lex_slack_rel * abs(g_star) + 1e-9
    if bound is not None:
        assert abs(bound - g_star) <= tol, (bound, g_star)
    assert g_star - eps - tol <= primary <= g_star + tol, (primary, g_star)
    f_star = milp_optimum(
        problem, problem.secondary, retention_row(problem, g_star, cfg.lex_slack_rel)
    )
    assert f_star is not None
    assert abs(secondary - f_star) <= cfg.gap_tol * max(1.0, abs(f_star)), (secondary, f_star)
