"""Bound propagation over compiled rows against a row-by-row reference.

``sequential_propagate`` is the dict-walking Gauss-Seidel sweep the
solver used before rows were compiled into CSR form with a level
schedule. The compiled sweep must reproduce it bit for bit: the same
bounds, the same verdict, also on infeasible models.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetopt.mip.problem import EQ, GE, INT_TOL, LE
from fleetopt.mip.rows import CompiledRows
from fleetopt.mip.solver import _propagate

INF = float("inf")


def sequential_propagate(rows, lb, ub, int_mask, max_passes=4):
    """Row-by-row reference sweep over ``(coeffs dict, relation, rhs)`` rows."""
    for _ in range(max_passes):
        changed = False
        for coeffs, rel, rhs in rows:
            idx = list(coeffs.keys())
            if not idx:
                if (rel == LE and rhs < -1e-9) or (rel == GE and rhs > 1e-9) or (
                    rel == EQ and abs(rhs) > 1e-9
                ):
                    return False
                continue
            a = np.array([coeffs[j] for j in idx])
            lo = np.where(a > 0, lb[idx], ub[idx])
            hi = np.where(a > 0, ub[idx], lb[idx])
            minact = float(np.sum(a * lo))
            maxact = float(np.sum(a * hi))
            if rel in (LE, EQ):
                if minact > rhs + 1e-7:
                    return False
                if np.isfinite(minact):
                    for pos, j in enumerate(idx):
                        slack = rhs - minact + a[pos] * lo[pos]
                        newb = slack / a[pos]
                        if a[pos] > 0 and newb < ub[j] - 1e-9:
                            ub[j] = newb
                            changed = True
                        elif a[pos] < 0 and newb > lb[j] + 1e-9:
                            lb[j] = newb
                            changed = True
            if rel in (GE, EQ):
                if maxact < rhs - 1e-7:
                    return False
                if np.isfinite(maxact):
                    for pos, j in enumerate(idx):
                        slack = rhs - maxact + a[pos] * hi[pos]
                        newb = slack / a[pos]
                        if a[pos] > 0 and newb > lb[j] + 1e-9:
                            lb[j] = newb
                            changed = True
                        elif a[pos] < 0 and newb < ub[j] - 1e-9:
                            ub[j] = newb
                            changed = True
        if np.any(int_mask):
            lb[int_mask] = np.ceil(lb[int_mask] - INT_TOL)
            ub[int_mask] = np.floor(ub[int_mask] + INT_TOL)
        if np.any(lb > ub + 1e-7):
            return False
        if not changed:
            break
    return True


def assert_same_as_sequential(rows, lb, ub, int_mask, max_passes):
    lb_ref, ub_ref = lb.copy(), ub.copy()
    expected = sequential_propagate(rows, lb_ref, ub_ref, int_mask, max_passes)
    lb_new, ub_new = lb.copy(), ub.copy()
    got = _propagate(CompiledRows(rows, len(lb)), lb_new, ub_new, int_mask, max_passes)
    assert got == expected
    assert np.array_equal(lb_new, lb_ref)
    assert np.array_equal(ub_new, ub_ref)
    return got, lb_new, ub_new


# --- random models ---

RELATIONS = st.sampled_from([LE, GE, EQ])


@st.composite
def models(draw, coefficient, bound, n_max=6, m_max=8):
    """Rows, bounds and an integer mask; infinite bounds allowed."""
    n = draw(st.integers(1, n_max))
    lb, ub = [], []
    for _ in range(n):
        lo = draw(st.one_of(st.just(-INF), bound))
        width = draw(st.one_of(st.just(INF), st.integers(0, 6)))
        lb.append(lo)
        ub.append(lo + width if np.isfinite(lo) else draw(st.one_of(st.just(INF), bound)))
    rows = []
    for _ in range(draw(st.integers(0, m_max))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
        coeffs = {j: draw(coefficient) for j in cols}
        rows.append((coeffs, draw(RELATIONS), float(draw(st.integers(-8, 8)))))
    int_mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return rows, np.array(lb, dtype=float), np.array(ub, dtype=float), int_mask


SMALL_INT = st.integers(-4, 4).filter(lambda a: a != 0).map(float)
FLOAT = st.floats(0.05, 20.0).flatmap(lambda a: st.sampled_from([a, -a]))


@settings(max_examples=400, deadline=None)
@given(models(SMALL_INT, st.integers(-5, 5).map(float)), st.sampled_from([1, 2, 6]))
def test_matches_sequential_on_small_integer_models(model, max_passes):
    rows, lb, ub, int_mask = model
    assert_same_as_sequential(rows, lb, ub, int_mask, max_passes)


@settings(max_examples=200, deadline=None)
@given(
    models(FLOAT, st.floats(-5.0, 5.0), n_max=12, m_max=10),
    st.sampled_from([1, 2, 6]),
)
def test_matches_sequential_bit_for_bit_on_float_models(model, max_passes):
    # rows of up to 12 entries: np.sum switches to pairwise summation at 8
    rows, lb, ub, int_mask = model
    assert_same_as_sequential(rows, lb, ub, int_mask, max_passes)


# --- level schedule ---


def chain(length, forward=True):
    """x0 in [0, 1], the rest in [0, 10]; rows x_{i+1} - x_i <= 0."""
    rows = [({i + 1: 1.0, i: -1.0}, LE, 0.0) for i in range(length)]
    if not forward:
        rows.reverse()
    lb = np.zeros(length + 1)
    ub = np.full(length + 1, 10.0)
    ub[0] = 1.0
    return rows, lb, ub, np.zeros(length + 1, dtype=bool)


def test_chain_in_row_order_propagates_through_in_one_pass():
    rows, lb, ub, mask = chain(8)
    assert len(CompiledRows(rows, len(lb)).levels) == 8
    _, _, ub_new = assert_same_as_sequential(rows, lb, ub, mask, 1)
    assert np.all(ub_new == 1.0)


def test_chain_against_row_order_moves_one_step_per_pass():
    rows, lb, ub, mask = chain(8, forward=False)
    assert len(CompiledRows(rows, len(lb)).levels) == 8
    _, _, ub_new = assert_same_as_sequential(rows, lb, ub, mask, 3)
    assert list(ub_new) == [1.0] * 4 + [10.0] * 5


def test_rows_on_one_level_share_no_column():
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(60):
        cols = rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
        rows.append(({int(j): float(rng.integers(1, 5)) for j in cols}, EQ, 3.0))
    compiled = CompiledRows(rows, 30)
    seen_rows = []
    for level in compiled.levels:
        level_rows = sorted(set(level.row_of.tolist()))
        cols = [j for r in level_rows for j in rows[r][0]]
        assert len(cols) == len(set(cols))
        seen_rows += level_rows
    assert sorted(seen_rows) == list(range(60))


# --- infeasibility: the bounds left behind match the row-by-row sweep ---


def test_first_failure_in_row_order_wins_over_first_found_by_level():
    # row 2 fails on level 1, row 1 fails on level 2; the sweep must stop
    # at row 1, after applying row 0 only
    rows = [
        ({0: 1.0, 1: 1.0}, LE, 5.0),
        ({0: 1.0}, GE, 7.0),
        ({2: 1.0}, GE, 100.0),
    ]
    lb, ub = np.zeros(3), np.array([10.0, 4.0, 1.0])
    got, lb_new, ub_new = assert_same_as_sequential(rows, lb, ub, np.zeros(3, bool), 2)
    assert not got
    assert ub_new[0] == 5.0


@pytest.mark.parametrize("relation,rhs", [(LE, -1.0), (GE, 1.0), (EQ, 0.5)])
def test_infeasible_empty_row_stops_the_sweep_there(relation, rhs):
    rows = [({0: 1.0}, LE, 2.0), ({}, relation, rhs), ({1: 1.0}, LE, 3.0)]
    lb, ub = np.zeros(2), np.full(2, 9.0)
    got, _, ub_new = assert_same_as_sequential(rows, lb, ub, np.zeros(2, bool), 1)
    assert not got
    assert list(ub_new) == [2.0, 9.0]


def test_unbounded_activity_raises_no_warning():
    # min activity -inf: the masked-out entries compute inf - inf
    rows = [({0: 1.0, 1: -1.0}, LE, 2.0), ({0: 1.0, 1: 1.0}, GE, 1.0)]
    lb, ub = np.array([0.0, 0.0]), np.array([5.0, INF])
    with np.errstate(all="raise"):
        assert_same_as_sequential(rows, lb, ub, np.zeros(2, bool), 4)


# --- soundness ---


@st.composite
def tiny_integer_models(draw):
    n = draw(st.integers(1, 3))
    lb = np.array([float(draw(st.integers(-2, 1))) for _ in range(n)])
    ub = lb + np.array([float(draw(st.integers(0, 3))) for _ in range(n)])
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        coeffs = {j: draw(SMALL_INT) for j in cols}
        rows.append((coeffs, draw(RELATIONS), float(draw(st.integers(-6, 6)))))
    return rows, lb, ub


def satisfies(rows, point):
    for coeffs, rel, rhs in rows:
        act = sum(a * point[j] for j, a in coeffs.items())
        if (rel == LE and act > rhs) or (rel == GE and act < rhs) or (
            rel == EQ and act != rhs
        ):
            return False
    return True


@settings(max_examples=400, deadline=None)
@given(tiny_integer_models(), st.sampled_from([1, 2, 6]))
def test_propagation_never_removes_an_integer_feasible_point(model, max_passes):
    rows, lb, ub = model
    n = len(lb)
    points = [
        np.array(p, dtype=float)
        for p in itertools.product(
            *[range(int(lb[j]), int(ub[j]) + 1) for j in range(n)]
        )
    ]
    feasible = [p for p in points if satisfies(rows, p)]
    lb_new, ub_new = lb.copy(), ub.copy()
    ok = _propagate(CompiledRows(rows, n), lb_new, ub_new, np.ones(n, bool), max_passes)
    if not ok:
        assert not feasible
    for p in feasible:
        assert np.all(p >= lb_new) and np.all(p <= ub_new)


# --- the HiGHS form ---


def test_highs_form_has_rows_in_order_with_ge_rows_negated():
    rows = [
        ({2: 1.0, 0: 2.0}, LE, 4.0),
        ({1: -1.0}, EQ, 1.0),
        ({0: 3.0, 1: 1.0}, GE, -2.0),
        ({}, LE, 0.0),
    ]
    A_ub, b_ub, A_eq, b_eq = CompiledRows(rows, 3).highs_form
    assert A_ub.has_sorted_indices
    assert A_ub.toarray().tolist() == [[2.0, 0.0, 1.0], [-3.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
    assert b_ub.tolist() == [4.0, 2.0, 0.0]
    assert A_eq.toarray().tolist() == [[0.0, -1.0, 0.0]]
    assert b_eq.tolist() == [1.0]
    A_ub, b_ub, A_eq, b_eq = CompiledRows(rows[:1], 3).highs_form
    assert A_eq is None and len(b_eq) == 0
