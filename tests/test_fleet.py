import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetopt.fleet import (
    Decision,
    FleetError,
    FleetInstance,
    PriceGrid,
    cascade_fulfill,
    check_feasible,
    decision_to_vector,
    decision_variable_names,
    evaluate_decision,
    profit,
    vector_to_decision,
)


def small_instance(**overrides):
    kwargs = dict(
        supply_areas=(0, 1),
        demand_areas=(8, 9),
        soc_levels=3,
        supply=[[2, 1, 3], [0, 2, 2]],
        demand=[[1, 2, 0], [2, 0, 1]],
        distance_km=[[4.0, 2.0], [3.0, 1.0]],
    )
    kwargs.update(overrides)
    return FleetInstance(**kwargs)


class TestInstance:
    def test_reposition_cost_derivation(self):
        inst = small_instance()
        # w = 0.5 * distance + booking fee (default 5)
        assert np.allclose(inst.reposition_cost, [[7.0, 6.0], [6.5, 5.5]])
        assert np.all(inst.reposition_cost >= inst.booking_fee[None, :])

    def test_empty_index_sets_rejected(self):
        # every index set I, J and K is nonempty, so the supply matrix,
        # which objectives average, always holds an entry
        with pytest.raises(FleetError, match="at least one supply"):
            small_instance(supply_areas=(), supply=np.zeros((0, 3)), distance_km=np.zeros((0, 2)))
        with pytest.raises(FleetError, match="at least one supply"):
            small_instance(demand_areas=(), demand=np.zeros((0, 3)), distance_km=np.zeros((2, 0)))
        with pytest.raises(FleetError, match="soc_levels"):
            small_instance(soc_levels=0, supply=np.zeros((2, 0)), demand=np.zeros((2, 0)))

    def test_overlapping_areas_rejected(self):
        with pytest.raises(FleetError):
            small_instance(demand_areas=(1, 9))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FleetError):
            small_instance(supply=[[2, 1], [0, 2]])

    def test_negative_demand_rejected(self):
        with pytest.raises(FleetError):
            small_instance(demand=[[1, -2, 0], [2, 0, 1]])

    def test_json_round_trip(self):
        inst = small_instance()
        again = FleetInstance.from_json(inst.to_json())
        assert again.to_json() == inst.to_json()
        assert np.array_equal(again.supply, inst.supply)


class TestCascade:
    def test_two_level_overflow(self):
        # one demand area, two levels, demand (1, 1); two taxis arrive at
        # the top level: the top request is served and one taxi cascades
        inst = small_instance(
            soc_levels=2,
            supply=[[0, 2], [0, 0]],
            demand=[[1, 1], [0, 0]],
        )
        x = np.zeros((2, 2, 2), dtype=int)
        x[0, 0, 1] = 2
        ful = cascade_fulfill(inst, x)
        assert ful.d[0].tolist() == [1, 1]
        assert ful.v[0].tolist() == [0, 1]

    def test_all_zero(self):
        inst = small_instance()
        ful = cascade_fulfill(inst, np.zeros((2, 2, 3)))
        assert not ful.d.any() and not ful.v.any()

    def test_three_level_hand_recursion(self):
        # demand only at the bottom level, three taxis arrive at the top:
        # they cascade through both intermediate levels before serving
        inst = small_instance(
            supply=[[0, 0, 3], [0, 0, 0]],
            demand=[[5, 0, 0], [0, 0, 0]],
        )
        x = np.zeros((2, 2, 3), dtype=int)
        x[0, 0, 2] = 3
        ful = cascade_fulfill(inst, x)
        assert ful.d[0].tolist() == [3, 0, 0]
        assert ful.v[0].tolist() == [0, 3, 3]
        assert ful.d[1].tolist() == [0, 0, 0]

    def test_dimension_mismatch(self):
        inst = small_instance()
        with pytest.raises(FleetError):
            cascade_fulfill(inst, np.zeros((2, 2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_conservation_property(self, seed):
        rng = np.random.default_rng(seed)
        n_i, n_j, n_k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        inst = FleetInstance(
            supply_areas=tuple(range(n_i)),
            demand_areas=tuple(range(100, 100 + n_j)),
            soc_levels=n_k,
            supply=rng.integers(0, 5, (n_i, n_k)),
            demand=rng.integers(0, 5, (n_j, n_k)),
            distance_km=rng.uniform(0, 10, (n_i, n_j)),
        )
        x = rng.integers(0, 3, (n_i, n_j, n_k))
        ful = cascade_fulfill(inst, x)
        inflow = x.sum(axis=0)
        for j in range(n_j):
            for k in range(n_k):
                carry = ful.v[j, k + 1] if k + 1 < n_k else 0
                assert ful.d[j, k] + ful.v[j, k] == inflow[j, k] + carry
                assert 0 <= ful.d[j, k] <= inst.demand[j, k]
                assert ful.v[j, k] >= 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_monotonicity_property(self, seed):
        # adding one taxi anywhere never decreases total satisfied demand
        rng = np.random.default_rng(seed)
        inst = small_instance()
        x = rng.integers(0, 2, (2, 2, 3))
        base = cascade_fulfill(inst, x).d.sum(axis=1)
        i, j, k = rng.integers(0, 2), rng.integers(0, 2), rng.integers(0, 3)
        bumped = x.copy()
        bumped[i, j, k] += 1
        after = cascade_fulfill(inst, bumped).d.sum(axis=1)
        assert np.all(after >= base)


class TestProfit:
    def test_revenue_and_cost_arithmetic(self):
        # per-order revenue 0.2 * 10 + 5 = 7; taxi over 4 km costs 7
        inst = small_instance(
            soc_levels=1, supply=[[2], [0]], demand=[[2], [0]],
            distance_km=[[4.0, 2.0], [3.0, 1.0]],
        )
        x = np.zeros((2, 2, 1), dtype=int)
        x[0, 0, 0] = 2
        dec = Decision(x=x, u_hat=np.full((2, 1), 10.0))
        ful = cascade_fulfill(inst, x)
        assert ful.d[0, 0] == 2
        value = profit(inst, dec, ful)
        # two orders at 7 each minus two taxis at 7 each
        assert value == pytest.approx(2 * 7.0 - 2 * 7.0)
        # revenue and cost pieces have the documented magnitudes
        per_order = inst.theta * 10.0 + 5.0
        assert per_order == pytest.approx(7.0)
        assert inst.reposition_cost[0, 0] == pytest.approx(7.0)

    def test_zero_decision(self):
        inst = small_instance()
        dec = Decision(x=np.zeros((2, 2, 3)), u_hat=np.full((2, 3), 10.0))
        assert evaluate_decision(inst, dec) == 0.0

    def test_inconsistent_fulfillment_rejected(self):
        inst = small_instance()
        dec = Decision(x=np.zeros((2, 2, 3)), u_hat=np.full((2, 3), 10.0))
        bad = cascade_fulfill(inst, dec.x)
        tampered = np.array(bad.d)
        tampered[0, 0] += 1
        from fleetopt.fleet import FulfillmentState

        with pytest.raises(FleetError):
            profit(inst, dec, FulfillmentState(d=tampered, v=bad.v))

    def test_matches_direct_resummation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = FleetInstance(
                supply_areas=(0, 1, 2),
                demand_areas=(10, 11),
                soc_levels=2,
                supply=rng.integers(0, 4, (3, 2)),
                demand=rng.integers(0, 4, (2, 2)),
                distance_km=rng.uniform(0, 8, (3, 2)),
            )
            x = np.minimum(
                rng.integers(0, 3, (3, 2, 2)), inst.supply[:, None, :]
            )
            u = rng.uniform(*inst.fare_bounds, (2, 2))
            dec = Decision(x=x, u_hat=u)
            ful = cascade_fulfill(inst, x)
            expected = 0.0
            for j in range(2):
                for k in range(2):
                    expected += (0.2 * u[j, k] + 5.0) * ful.d[j, k]
            for i in range(3):
                for j in range(2):
                    for k in range(2):
                        expected -= inst.reposition_cost[i, j] * x[i, j, k]
            assert profit(inst, dec, ful) == pytest.approx(expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        inst = small_instance()
        x = rng.integers(0, 2, (2, 2, 3))
        u = rng.uniform(1, 50, (2, 3))
        value = evaluate_decision(inst, Decision(x=x, u_hat=u))
        # relabel: swap the two supply areas and the two demand areas
        perm_inst = FleetInstance(
            supply_areas=(1, 0),
            demand_areas=(9, 8),
            soc_levels=3,
            supply=inst.supply[::-1],
            demand=inst.demand[::-1],
            distance_km=inst.distance_km[::-1, ::-1],
        )
        perm_dec = Decision(x=x[::-1, ::-1], u_hat=u[::-1])
        assert evaluate_decision(perm_inst, perm_dec) == pytest.approx(value)


class TestFeasibility:
    def test_feasible_empty(self):
        inst = small_instance()
        x = np.zeros((2, 2, 3), dtype=int)
        x[0, 0, 0] = 1
        dec = Decision(x=x, u_hat=np.full((2, 3), 10.0))
        assert check_feasible(inst, dec) == []

    def test_supply_cap_violation_slack(self):
        inst = small_instance()
        x = np.zeros((2, 2, 3), dtype=int)
        x[0, 0, 0] = 2
        x[0, 1, 0] = 1  # supply[0, 0] is 2, so one too many
        dec = Decision(x=x, u_hat=np.full((2, 3), 10.0))
        violations = check_feasible(inst, dec)
        assert len(violations) == 1
        v = violations[0]
        assert v.constraint == "supply_cap" and v.slack == -1.0
        assert v.indices == (0, 0)

    def test_fare_bound_violation(self):
        inst = small_instance()
        u = np.full((2, 3), 10.0)
        u[0, 0] = 0.5  # below the lower fare bound of 1
        dec = Decision(x=np.zeros((2, 2, 3)), u_hat=u)
        violations = check_feasible(inst, dec)
        assert [v.constraint for v in violations] == ["fare_lower"]


class TestNamesAndVectors:
    def test_paper_scale_decision_count(self):
        rng = np.random.default_rng(0)
        inst = FleetInstance(
            supply_areas=tuple(range(42)),
            demand_areas=tuple(range(42, 50)),
            soc_levels=3,
            supply=rng.integers(0, 4, (42, 3)),
            demand=rng.integers(0, 4, (8, 3)),
            distance_km=rng.uniform(0, 10, (42, 8)),
        )
        names = decision_variable_names(inst)
        assert len(names) == 42 * 8 * 3 + 8 * 3 == 1032

    def test_vector_round_trip(self):
        inst = small_instance()
        rng = np.random.default_rng(2)
        dec = Decision(
            x=rng.integers(0, 3, (2, 2, 3)), u_hat=rng.uniform(1, 50, (2, 3))
        )
        vec = decision_to_vector(inst, dec)
        names = decision_variable_names(inst)
        assert len(vec) == len(names)
        back = vector_to_decision(inst, vec)
        assert np.array_equal(back.x, dec.x)
        assert np.allclose(back.u_hat, dec.u_hat)


class TestPriceGrid:
    def test_uniform_grid_spans_bounds(self):
        inst = small_instance()
        grid = PriceGrid.uniform(inst, 8)
        grid.validate_for(inst)
        cell = grid.cell(0, 0)
        assert len(cell) == 8
        assert cell[0] == 1.0 and cell[-1] == 50.0

    def test_rejects_unsorted(self):
        with pytest.raises(FleetError):
            PriceGrid(points=(((2.0, 1.0),),))

    def test_snap(self):
        inst = small_instance()
        grid = PriceGrid.uniform(inst, 8)
        cell = grid.cell(0, 0)
        assert grid.snap(0, 0, cell[3] + 0.01) == cell[3]
        assert grid.snap(0, 0, -5.0) == cell[0]

    def test_snap_decision_is_snap_per_cell(self):
        inst = small_instance()
        grid = PriceGrid(points=(
            ((1.0, 5.0), (2.0, 4.0, 9.0), (7.0,)),
            ((1.0, 50.0), (3.0, 6.0), (10.0, 20.0)),
        ))
        # a tie (3.0 between 1 and 5), points below, above and on the grid
        fares = [[3.0, 8.0, 0.5], [50.0, 4.6, 60.0]]
        x = np.arange(inst.n_supply * inst.n_demand * inst.soc_levels).reshape(
            inst.n_supply, inst.n_demand, inst.soc_levels
        )
        dec = Decision(x=x, u_hat=fares)
        snapped = grid.snap_decision(dec)
        assert np.array_equal(snapped.x, dec.x)
        assert snapped.u_hat.tolist() == [
            [grid.snap(j, k, u) for k, u in enumerate(row)]
            for j, row in enumerate(fares)
        ] == [[1.0, 9.0, 7.0], [50.0, 6.0, 20.0]]
