"""Bound propagation over compiled rows against a row-by-row reference.

``sequential_propagate`` is the dict-walking Gauss-Seidel sweep the
solver used before rows were compiled into CSR form with a level
schedule. The compiled sweep must reproduce its verdict on every
model, and its bounds bit for bit whenever that verdict is feasible.
On an infeasible model the compiled sweep may stop at a different
infeasible row, and it leaves the bounds it was given as they are.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetopt.mip.problem import EQ, GE, INT_TOL, LE, MipProblem
from fleetopt.mip.solver import _propagate, _reduce

from rowsets import row_set

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
    got = _propagate(row_set(rows, len(lb)), lb_new, ub_new, int_mask, max_passes)
    assert got == expected
    if got:
        assert np.array_equal(lb_new, lb_ref)
        assert np.array_equal(ub_new, ub_ref)
    else:
        assert np.array_equal(lb_new, lb) and np.array_equal(ub_new, ub)
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
    assert len(row_set(rows, len(lb)).levels) == 8
    _, _, ub_new = assert_same_as_sequential(rows, lb, ub, mask, 1)
    assert np.all(ub_new == 1.0)


def test_chain_against_row_order_moves_one_step_per_pass():
    rows, lb, ub, mask = chain(8, forward=False)
    assert len(row_set(rows, len(lb)).levels) == 8
    _, _, ub_new = assert_same_as_sequential(rows, lb, ub, mask, 3)
    assert list(ub_new) == [1.0] * 4 + [10.0] * 5


def test_rows_on_one_level_share_no_column():
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(60):
        cols = rng.choice(30, size=int(rng.integers(1, 6)), replace=False)
        rows.append(({int(j): float(rng.integers(1, 5)) for j in cols}, EQ, 3.0))
    compiled = row_set(rows, 30)
    level_of = compiled._assign_levels()
    levels = sorted(set(level_of.tolist()))
    assert len(compiled.levels) == len(levels)
    seen_rows = []
    for level in levels:
        level_rows = np.flatnonzero(level_of == level).tolist()
        cols = [j for r in level_rows for j in rows[r][0]]
        assert len(cols) == len(set(cols))
        seen_rows += level_rows
    assert sorted(seen_rows) == list(range(60))


# --- infeasibility: the verdict matches the row-by-row sweep ---


def test_first_failure_in_row_order_wins_over_first_found_by_level():
    # row 2 fails on level 1, row 1 on level 2; the row-by-row sweep
    # stops at row 1, the level sweep at row 2, and both say infeasible
    rows = [
        ({0: 1.0, 1: 1.0}, LE, 5.0),
        ({0: 1.0}, GE, 7.0),
        ({2: 1.0}, GE, 100.0),
    ]
    lb, ub = np.zeros(3), np.array([10.0, 4.0, 1.0])
    got, _, _ = assert_same_as_sequential(rows, lb, ub, np.zeros(3, bool), 2)
    assert not got


@pytest.mark.parametrize("relation,rhs", [(LE, -1.0), (GE, 1.0), (EQ, 0.5)])
def test_infeasible_empty_row_stops_the_sweep_there(relation, rhs):
    rows = [({0: 1.0}, LE, 2.0), ({}, relation, rhs), ({1: 1.0}, LE, 3.0)]
    lb, ub = np.zeros(2), np.full(2, 9.0)
    got, _, _ = assert_same_as_sequential(rows, lb, ub, np.zeros(2, bool), 1)
    assert not got


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
    ok = _propagate(row_set(rows, n), lb_new, ub_new, np.ones(n, bool), max_passes)
    if not ok:
        assert not feasible
    for p in feasible:
        assert np.all(p >= lb_new) and np.all(p <= ub_new)


@st.composite
def reducible_models(draw):
    """Tiny integer models: pinned columns, singleton and empty rows allowed."""
    n = draw(st.integers(1, 4))
    lb = np.array([float(draw(st.integers(-2, 1))) for _ in range(n)])
    ub = lb + np.array([float(draw(st.integers(0, 3))) for _ in range(n)])
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True))
        coeffs = {j: draw(SMALL_INT) for j in cols}
        rows.append((coeffs, draw(RELATIONS), float(draw(st.integers(-6, 6)))))
    objective = {j: draw(SMALL_INT) for j in range(n) if draw(st.booleans())}
    return rows, lb, ub, objective


@settings(max_examples=400, deadline=None)
@given(reducible_models())
def test_reduction_never_removes_an_integer_feasible_point(model):
    rows, lb, ub, objective = model
    n = len(lb)
    problem = MipProblem()
    for j in range(n):
        problem.add_variable(f"v{j}", "integer", lb[j], ub[j])
    for coeffs, rel, rhs in rows:
        problem.add_constraint(coeffs, rel, rhs)
    problem.set_objective("max", objective, 0.5)
    points = [
        np.array(p, dtype=float)
        for p in itertools.product(
            *[range(int(lb[j]), int(ub[j]) + 1) for j in range(n)]
        )
    ]
    feasible = [p for p in points if satisfies(rows, p)]
    red = _reduce(problem, problem.objective)
    if not red.feasible:
        assert not feasible
        return
    reduced = red.rows
    assert reduced.n == len(red.keep)
    for p in feasible:
        # the point agrees with every column the reduction pinned
        full = red.full_values.copy()
        full[red.keep] = p[red.keep]
        assert np.array_equal(full, p)
        # and its kept part lies in the reduced bounds and rows
        x = p[red.keep]
        assert np.all(x >= red.lb) and np.all(x <= red.ub)
        act = np.array([
            float(reduced.data[a:b] @ x[reduced.indices[a:b]])
            for a, b in zip(reduced.indptr[:-1], reduced.indptr[1:])
        ])
        assert np.all(act[reduced.le] <= reduced.rhs[reduced.le] + 1e-9)
        assert np.all(act[reduced.ge] >= reduced.rhs[reduced.ge] - 1e-9)
        # with the same objective value
        value = red.obj_constant + sum(c * x[j] for j, c in red.obj_coeffs.items())
        assert value == pytest.approx(problem.objective.value(p), abs=1e-9)


# --- the row-bound form HiGHS reads ---


def test_row_bounds_give_each_sense_without_negation():
    rows = [
        ({2: 1.0, 0: 2.0}, LE, 4.0),
        ({1: -1.0}, EQ, 1.0),
        ({0: 3.0, 1: 1.0}, GE, -2.0),
        ({}, LE, 0.0),
    ]
    compiled = row_set(rows, 3)
    lower, upper = compiled.row_bounds
    assert lower.tolist() == [-np.inf, 1.0, -2.0, -np.inf]
    assert upper.tolist() == [4.0, 1.0, np.inf, 0.0]
    # the CSR arrays HiGHS takes keep each row's entries as stated
    assert compiled.indptr.tolist() == [0, 2, 3, 5, 5]
    assert compiled.indices.tolist() == [2, 0, 1, 0, 1]
    assert compiled.data.tolist() == [1.0, 2.0, -1.0, 3.0, 1.0]
    lower, upper = row_set([], 3).row_bounds
    assert len(lower) == len(upper) == 0


# --- operations that make new row sets from compiled ones ---


def random_rows(rng, m, n):
    rows = []
    for _ in range(m):
        cols = rng.choice(n, size=int(rng.integers(0, min(n, 5) + 1)), replace=False)
        rel = [LE, GE, EQ][int(rng.integers(0, 3))]
        coeffs = {int(j): float(rng.uniform(-3, 3)) for j in cols}
        rows.append((coeffs, rel, float(rng.uniform(-2, 5))))
    return rows


def row_by_row_levels(rows, n):
    col_level = [0] * n
    levels = []
    for coeffs, _, _ in rows:
        level = 1 + max(col_level[j] for j in coeffs) if coeffs else 0
        for j in coeffs:
            col_level[j] = level
        levels.append(level)
    return levels


def assert_same_rows(got, want):
    assert (got.m, got.n) == (want.m, want.n)
    for name in ("indptr", "indices", "data", "rhs", "le", "ge"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.first_empty_failure == want.first_empty_failure
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_levels_follow_the_row_by_row_definition_also_after_append():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n, m = int(rng.integers(1, 25)), int(rng.integers(0, 40))
        rows = random_rows(rng, m, n)
        k = int(rng.integers(0, m + 1))
        head = row_set(rows[:k], n)
        head.levels  # built for the first k rows; the joined set builds its own
        joined = head.append(row_set(rows[k:], n))
        assert joined._assign_levels().tolist() == row_by_row_levels(rows, n)
        assert_same_rows(joined, row_set(rows, n))


def test_append_after_a_built_schedule_matches_a_fresh_compile():
    # a row over every column lands above the top level, as stage 2's
    # retention row does; other rows land among the levels already built
    rng = np.random.default_rng(10)
    above = among = 0
    for _ in range(200):
        n, m = int(rng.integers(1, 25)), int(rng.integers(0, 40))
        rows = random_rows(rng, m, n)
        head = row_set(rows, n)
        built = head.levels
        extra = random_rows(rng, int(rng.integers(0, 3)), n)
        if rng.random() < 0.5:
            extra.append(({j: 1.0 for j in range(n)}, [LE, GE][int(rng.integers(0, 2))], 5.0))
        extra += random_rows(rng, int(rng.integers(0, 2)), n) if rng.random() < 0.3 else []
        joined = head.append(row_set(extra, n))
        assert_same_rows(joined, row_set(rows + extra, n))
        new = row_by_row_levels(rows + extra, n)[m:]
        if all(lv == 0 or lv > len(built) for lv in new):
            above += 1
        else:
            among += 1
        # and through a relabel, as a reduction hands its rows on
        keep = np.arange(n)
        assert_same_rows(head.relabel(keep).append(row_set(extra, n)), row_set(rows + extra, n))
    assert above > 50 and among > 20


def substituted_by_loop(rows, fixed, values):
    """The rows with the fixed terms moved into the rhs, one term at a
    time in each row's own order."""
    out = []
    for coeffs, rel, rhs in rows:
        for j, a in coeffs.items():
            if fixed[j]:
                rhs -= a * values[j]
        out.append(({j: a for j, a in coeffs.items() if not fixed[j]}, rel, rhs))
    return out


def test_relabel_substitute_and_take_match_a_fresh_compile():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n, m = int(rng.integers(2, 25)), int(rng.integers(0, 40))
        rows = random_rows(rng, m, n)
        values = rng.uniform(-2, 2, n)
        fixed = rng.random(n) < 0.4
        compiled = row_set(rows, n)
        compiled.levels  # a built schedule is relabelled, not rebuilt

        substituted = substituted_by_loop(rows, fixed, values)
        assert_same_rows(compiled.substitute(fixed, values), row_set(substituted, n))

        mask = rng.random(m) < 0.6
        taken = [row for row, keep in zip(rows, mask) if keep]
        assert_same_rows(compiled.take(mask), row_set(taken, n))

        keep = np.flatnonzero(~fixed)
        if any(fixed[j] for coeffs, _, _ in rows for j in coeffs):
            with pytest.raises(ValueError):
                compiled.relabel(keep)
        pos = {int(j): p for p, j in enumerate(keep)}
        inside = [r for r in substituted if r[0]]
        want = row_set(
            [({pos[j]: a for j, a in c.items()}, rel, r) for c, rel, r in inside], len(keep)
        )
        assert_same_rows(row_set(inside, n).relabel(keep), want)
        scheduled = row_set(inside, n)
        scheduled.levels
        assert_same_rows(scheduled.relabel(keep), want)

    # rows of hundreds of entries, as stage 2's retention row has, with
    # masks that pin none, some, most or all of a row's columns
    n = 700
    for pinned_share in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        rows = []
        for length in (1, 2, 150, 400, 700):
            coeffs = {int(j): float(rng.uniform(-3, 3) * 10.0 ** rng.integers(-6, 6))
                      for j in rng.permutation(n)[:length]}
            rows.append((coeffs, str(rng.choice([LE, GE, EQ])), float(rng.normal(0, 1e3))))
        values = rng.uniform(-5, 5, n) * 10.0 ** rng.integers(-4, 4, n)
        fixed = rng.random(n) < pinned_share
        substituted = substituted_by_loop(rows, fixed, values)
        got = row_set(rows, n).substitute(fixed, values)
        assert_same_rows(got, row_set(substituted, n))
        assert got.rhs.tobytes() == np.array([r for _, _, r in substituted]).tobytes()
