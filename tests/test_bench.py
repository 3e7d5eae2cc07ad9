import datetime as dt
import json
import os

import numpy as np
import pytest

from fleetopt.bench import (
    BenchConfig,
    IngestError,
    SynthConfig,
    TripRecord,
    WeatherDay,
    World,
    build_instances,
    cluster_zones,
    generate_world,
    make_history,
    read_trips,
    read_weather,
    run_accuracy_experiment,
    run_cuts_experiment,
    run_efficiency_experiment,
    simulate_profit,
    weather_factor,
)
from fleetopt.bench import experiments
from fleetopt.fleet import Decision, decision_to_vector
from fleetopt.forest import TrainConfig, train, train_test_split
from fleetopt.mip import SolveConfig


def small_world(seed=5):
    return generate_world(
        SynthConfig(seed=seed, n_supply=3, n_demand=2, soc_levels=2, n_days=40)
    )


def small_forest(world, n_trees=6, depth=3):
    rows = world.training_rows()
    cfg = TrainConfig(n_trees=n_trees, max_depth=depth, min_samples_leaf=4, seed=2)
    tr, _ = train_test_split(rows, cfg.test_fraction, cfg.seed)
    return train(tr, cfg, world.schema())


class TestSynth:
    def test_same_seed_same_world(self):
        a = generate_world(SynthConfig(seed=11, n_days=10))
        b = generate_world(SynthConfig(seed=11, n_days=10))
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        a = generate_world(SynthConfig(seed=1, n_days=10))
        b = generate_world(SynthConfig(seed=2, n_days=10))
        assert a.to_json() != b.to_json()

    def test_json_round_trip(self):
        world = small_world()
        again = World.from_json(world.to_json())
        assert again.to_json() == world.to_json()

    def test_instances_are_valid(self):
        world = small_world()
        for day in range(0, len(world.days), 7):
            inst = world.instance(day)
            assert inst.n_supply == 3 and inst.n_demand == 2

    def test_historical_decisions_feasible(self):
        from fleetopt.fleet import check_feasible

        world = small_world()
        for day in range(len(world.days)):
            inst = world.instance(day)
            assert check_feasible(inst, world.days[day].decision) == []

    def test_training_rows_align_with_schema(self):
        world = small_world()
        schema = world.schema()
        rows = world.training_rows()
        assert len(rows[0][0]) == schema.n_features
        day = world.days[3]
        inst = world.instance(3)
        vec = decision_to_vector(inst, day.decision)
        assert rows[3][0][3:] == pytest.approx(vec)

    def test_day_of_week_matches_date(self):
        world = small_world()
        for day in world.days[:10]:
            assert day.day_of_week == dt.date.fromisoformat(day.date).weekday()


class TestSimulateProfit:
    def setup_method(self):
        self.world = small_world()
        self.inst = self.world.instance(0)
        self.synth = self.world.config

    def test_reference_fare_neutral(self):
        assert weather_factor(self.synth.weather_pivot) == 1.0
        x = np.zeros((3, 2, 2), dtype=int)
        dec = Decision(x=x, u_hat=np.full((2, 2), self.synth.reference_fare))
        features = {"temperature": self.synth.weather_pivot, "dew_point": 5.0,
                    "day_of_week": 0.0}
        # elasticity factor is exactly 1, weather factor 1: realized = base
        value = simulate_profit(self.inst, dec, features, self.synth)
        assert value == 0.0  # nothing allocated, nothing earned or spent

    def test_zero_elasticity_ignores_price(self):
        synth = SynthConfig(**{**self.synth.to_dict(), "elasticity": 0.0})
        x = np.zeros((3, 2, 2), dtype=int)
        x[0, 0, 1] = 2
        lo = Decision(x=x, u_hat=np.full((2, 2), 5.0))
        hi = Decision(x=x, u_hat=np.full((2, 2), 45.0))
        features = {"temperature": 15.0, "dew_point": 5.0, "day_of_week": 0.0}
        base = self.inst.demand.astype(float)
        ful_lo = simulate_profit(self.inst, lo, features, synth, base_demand=base)
        ful_hi = simulate_profit(self.inst, hi, features, synth, base_demand=base)
        # same satisfied counts; only the fare part of revenue moves
        d = 2 if self.inst.demand[0].sum() >= 2 else self.inst.demand[0].sum()
        assert ful_hi - ful_lo == pytest.approx(0.2 * (45.0 - 5.0) * d)

    def test_doubling_fare_with_default_elasticity(self):
        ref = self.synth.reference_fare
        response = max(0.0, 1.0 - self.synth.elasticity * (2 * ref - ref) / ref)
        assert response == pytest.approx(0.2)

    def test_weather_factor_clamps(self):
        assert weather_factor(1000.0) == 1.5
        assert weather_factor(-1000.0) == 0.5
        assert weather_factor(25.0) == pytest.approx(1.1)


class TestClusterZones:
    def test_each_distinct_point_its_own_zone(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        labels, centroids = cluster_zones(points, k=4, seed=0)
        assert len(set(labels.tolist())) == 4

    def test_single_cluster_is_mean(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 2))
        labels, centroids = cluster_zones(points, k=1, seed=0)
        assert np.allclose(centroids[0], points.mean(axis=0))
        assert set(labels.tolist()) == {0}

    def test_separated_clusters_recovered(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.1, (25, 2))
        b = rng.normal(10, 0.1, (25, 2))
        points = np.vstack([a, b])
        labels, _ = cluster_zones(points, k=2, seed=3)
        assert len(set(labels[:25].tolist())) == 1
        assert len(set(labels[25:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(IngestError):
            cluster_zones(np.zeros((3, 2)), k=4, seed=0)


def synth_trips():
    """Two days of trips: zone A (around 40.70, -74.00) becomes deficient,
    zone B (around 40.80, -73.95) keeps surplus."""
    a = (40.70, -74.00)
    b = (40.80, -73.95)
    trips = []

    def trip(day, pick_hm, drop_hm, pick, drop):
        picks = dt.datetime(2016, 3, day, *pick_hm)
        drops = dt.datetime(2016, 3, day, *drop_hm)
        return TripRecord(
            pickup_time=picks, dropoff_time=drops,
            pickup_lat=pick[0], pickup_lon=pick[1],
            dropoff_lat=drop[0], dropoff_lon=drop[1], fare=12.5,
        )

    for day in (1, 2):
        # three pickups in A during the window, no dropoffs there
        for m in (5, 10, 20):
            trips.append(trip(day, (8, m), (8, 50), a, b))
        # two dropoffs in B during the window and one pickup
        for m in (6, 12):
            trips.append(trip(day, (7, 30), (8, m), b, b))
        trips.append(trip(day, (8, 15), (8, 45), b, a))
        # away-from-window noise
        trips.append(trip(day, (12, 0), (12, 30), a, b))
    return trips, np.array([a, b])


class TestBuildInstances:
    def test_deficit_and_surplus_partition(self):
        trips, centroids = synth_trips()
        weather = [
            WeatherDay(date=dt.date(2016, 3, 1), temperature=14.0, dew_point=8.0),
            WeatherDay(date=dt.date(2016, 3, 2), temperature=18.0, dew_point=9.0),
        ]
        out = build_instances(trips, weather, "08:00-08:30", centroids, seed=0)
        assert len(out) == 2
        for date, inst, exog in out:
            # zone 0 (A) has 3 pickups vs 0 dropoffs: deficit
            assert inst.demand_areas == (0,)
            assert inst.supply_areas == (1,)
            assert inst.demand.sum() == 3
            assert inst.supply.sum() == 2  # the two in-window dropoffs in B
        assert out[0][2]["temperature"] == 14.0
        assert out[0][2]["day_of_week"] == float(dt.date(2016, 3, 1).weekday())

    def test_no_window_trips_raises(self):
        trips, centroids = synth_trips()
        weather = []
        with pytest.raises(IngestError):
            build_instances(trips, weather, "03:00-03:30", centroids, seed=0)

    def test_csv_round_trip(self, tmp_path):
        trips, _ = synth_trips()
        path = tmp_path / "trips.csv"
        with open(path, "w") as fh:
            fh.write("pickup_time,dropoff_time,pickup_lat,pickup_lon,"
                     "dropoff_lat,dropoff_lon,fare\n")
            for t in trips:
                fh.write(
                    f"{t.pickup_time.isoformat()},{t.dropoff_time.isoformat()},"
                    f"{t.pickup_lat},{t.pickup_lon},{t.dropoff_lat},"
                    f"{t.dropoff_lon},{t.fare}\n"
                )
        again = read_trips(str(path))
        assert len(again) == len(trips)
        assert again[0] == trips[0]
        wpath = tmp_path / "weather.csv"
        with open(wpath, "w") as fh:
            fh.write("date,temperature,dew_point,wind\n2016-03-01,14.0,8.0,3.5\n")
        weather = read_weather(str(wpath))
        assert weather[0].temperature == 14.0
        assert weather[0].extras == (("wind", 3.5),)


class TestMakeHistory:
    def test_single_day_store(self):
        world = small_world()
        forest = small_forest(world)
        store = make_history(world, forest, m=1, seed=0)
        assert len(store.records) == 1
        stats = store.stats(world.instance(0))
        assert all(s["std"] == 0.0 for s in stats.values())

    def test_records_are_feasible_optima(self):
        from fleetopt.fleet import check_feasible

        world = small_world()
        forest = small_forest(world)
        store = make_history(world, forest, m=5, seed=1)
        assert len(store.records) == 5
        dates = {d.date: i for i, d in enumerate(world.days)}
        for record in store.records:
            inst = world.instance(dates[record.date])
            assert check_feasible(inst, record.decision) == []

    def test_mean_matches_recompute(self):
        world = small_world()
        forest = small_forest(world)
        store = make_history(world, forest, m=4, seed=2)
        inst = world.instance(0)
        mat = np.vstack([decision_to_vector(inst, r.decision) for r in store.records])
        means = store.means(inst)
        for pos, name in enumerate(store.variable_names):
            assert means[name] == pytest.approx(mat[:, pos].mean())


class TestExperiments:
    def setup_method(self):
        self.world = small_world()
        self.forest = small_forest(self.world)
        self.history = make_history(self.world, self.forest, m=5, seed=1)

    def test_zero_fixed_cells_match_full(self):
        cfg = BenchConfig(seed=0, eval_days=2,
                          queries=("Number of pre-allocated taxis",),
                          fixed_counts=(0,))
        report = run_efficiency_experiment(self.world, self.forest, self.history, cfg)
        assert report.rows
        for row in report.rows:
            assert row["rf_gap_pct"] == pytest.approx(0.0, abs=1e-9)
            assert row["qr_gap_pct"] == pytest.approx(0.0, abs=1e-9)

    def test_gap_sign_invariant(self):
        n = len(self.history.variable_names)
        cfg = BenchConfig(seed=0, eval_days=2,
                          queries=("Number of pre-allocated taxis",
                                   "Average travel price of taxis"),
                          fixed_counts=(0, n // 2))
        report = run_efficiency_experiment(self.world, self.forest, self.history, cfg)
        for row in report.rows:
            if row["rf_gap_pct"] is not None:
                assert row["rf_gap_pct"] >= -1e-6

    def test_aggregates_match_members(self):
        n = len(self.history.variable_names)
        cfg = BenchConfig(seed=0, eval_days=2,
                          queries=("Number of pre-allocated taxis",),
                          fixed_counts=(0, n // 2))
        report = run_efficiency_experiment(self.world, self.forest, self.history, cfg)
        for agg in report.aggregates:
            members = [r for r in report.rows
                       if r["fixed_count"] == agg["fixed_count"]
                       and r["rf_gap_pct"] is not None]
            assert agg["cells"] == len(members)
            assert agg["mean_rf_gap_pct"] == pytest.approx(
                np.mean([r["rf_gap_pct"] for r in members])
            )

    def test_cuts_experiment_preserves_optima(self):
        cfg = BenchConfig(seed=0, eval_days=2)
        report = run_cuts_experiment(self.world, self.forest, self.history, cfg)
        by_date = {}
        for row in report.rows:
            by_date.setdefault(row["date"], []).append(row)
        for date, rows in by_date.items():
            objs = {round(r["rf_obj"], 9) for r in rows}
            assert len(objs) == 1, (date, objs)
            assert all(abs(r["rf_gap_pct"]) < 1e-9 for r in rows)
        families = {r["cuts"] for r in report.rows}
        assert families == {"NoCuts", "GomoryCuts", "CoverCuts",
                            "GomoryAndCoverCuts"}

    def test_cuts_experiment_keeps_solve_settings(self, monkeypatch):
        seen = []
        solve = experiments.lexicographic_solve

        def spy(mip, cfg):
            seen.append(cfg)
            return solve(mip, cfg)

        monkeypatch.setattr(experiments, "lexicographic_solve", spy)
        cfg = BenchConfig(
            seed=0, eval_days=1,
            solve=SolveConfig(node_limit=5000, lex_slack_rel=1e-4),
        )
        run_cuts_experiment(self.world, self.forest, self.history, cfg)
        assert [(c.gomory, c.cover) for c in seen] == [
            (False, False), (True, False), (False, True), (True, True)
        ]
        assert all(c.node_limit == 5000 and c.lex_slack_rel == 1e-4 for c in seen)

    def test_timed_solves_start_from_a_cold_memo(self, monkeypatch):
        # the efficiency sweep's fixed_count=0 row solves the full model's
        # bytes again, and the cuts experiment's GomoryCuts row the model
        # the efficiency sweep just solved: both would reuse a stage 1
        seen = []
        solve = experiments.lexicographic_solve

        def spy(mip, cfg):
            sol = solve(mip, cfg)
            seen.append(sol.stage1_reused)
            return sol

        monkeypatch.setattr(experiments, "lexicographic_solve", spy)
        n = len(self.history.variable_names)
        cfg = BenchConfig(seed=0, eval_days=2,
                          queries=("Number of pre-allocated taxis",),
                          fixed_counts=(0, n // 2))
        report = run_efficiency_experiment(self.world, self.forest, self.history, cfg)
        assert [r["fixed_count"] for r in report.rows] == [0, n // 2] * 2
        assert len(seen) == 6  # one full and two fixed solves per day
        run_cuts_experiment(self.world, self.forest, self.history, cfg)
        assert len(seen) == 6 + 2 * len(experiments.CUT_FAMILIES)
        assert not any(seen)
        # in one warm process, fixing none would reuse the full solve's
        # stage 1
        day = experiments.pick_eval_days(self.world, self.history, 1, 0)[0]
        inst = self.world.instance(day)
        indicator = experiments.indicator_generate(cfg.queries[0], inst, guide="deterministic")
        mip = experiments.build_agent_model(
            inst, self.forest, self.world.days[day].exogenous(), indicator.ast, cfg.agent
        )[0]
        assert not solve(mip, cfg.solve).stage1_reused
        assert solve(experiments.fix_variables(mip, {}), cfg.solve).stage1_reused

    def test_accuracy_deterministic_guide_scores_one(self):
        # the catalog's high-power entry indexes charge level 2, so the
        # reference instance must carry three levels
        world3 = generate_world(
            SynthConfig(seed=5, n_supply=3, n_demand=2, soc_levels=3, n_days=3)
        )
        inst = world3.instance(0)
        cfg = BenchConfig(repetitions=2)
        report = run_accuracy_experiment(inst, cfg, guide="deterministic")
        assert report.rows
        for row in report.rows:
            for col in ("in_sample_result", "in_sample_text",
                        "out_sample_result", "out_sample_text"):
                if row[col] is not None:
                    assert row[col] == pytest.approx(1.0)

    def test_report_files_deterministic(self, tmp_path):
        cfg = BenchConfig(seed=3, eval_days=1,
                          queries=("Number of pre-allocated taxis",),
                          fixed_counts=(0, 5))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_efficiency_experiment(self.world, self.forest, self.history, cfg,
                                  out_dir=str(out_a))
        run_efficiency_experiment(self.world, self.forest, self.history, cfg,
                                  out_dir=str(out_b))
        for name in ("efficiency_report.json", "efficiency_report.csv",
                     "efficiency_report.md"):
            with open(out_a / name, "rb") as fh:
                blob_a = fh.read()
            with open(out_b / name, "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b, name
        # wall-clock lives only in the sidecar
        assert (out_a / "efficiency_timings.csv").exists()
        with open(out_a / "efficiency_report.csv") as fh:
            assert "time" not in fh.read()
