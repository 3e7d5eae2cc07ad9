import dataclasses
import datetime as dt
import hashlib
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
from fleetopt.agent import ReplayClient
from fleetopt.agent.prompts import CHAT_ATTEMPTS
from fleetopt.bench import experiments
from fleetopt.fleet import Decision, PriceGrid, decision_to_vector, decision_values
from fleetopt.forest import TrainConfig, train, train_test_split
from fleetopt.mip import SolveConfig
from fleetopt.mip.problem import TIME_LIMIT, Solution


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

    def test_a_day_builds_its_instance_once(self):
        world = small_world()
        inst = world.instance(4)
        assert world.instance(4) is inst

        def fresh(day):
            return World(world.config, world.supply_areas, world.demand_areas,
                         world.distance_km, list(world.days)).instance(day)

        def same(a, b):
            for f in dataclasses.fields(a):
                x, y = getattr(a, f.name), getattr(b, f.name)
                if isinstance(x, np.ndarray):
                    assert x.dtype == y.dtype and np.array_equal(x, y), f.name
                else:
                    assert x == y, f.name

        same(inst, fresh(4))
        assert not inst.supply.flags.writeable and not world.days[4].supply.flags.writeable
        # a replaced day gets a new instance, built from it
        world.days[4] = dataclasses.replace(world.days[4], supply=world.days[5].supply + 1)
        again = world.instance(4)
        assert again is not inst and again is world.instance(4)
        same(again, fresh(4))
        assert np.array_equal(again.supply, world.days[5].supply + 1)
        assert world.instance(5) is world.instance(5) is not again

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

    def test_world_and_forest_json_are_pinned(self):
        # the small benchmark world and its forest, pinned before their
        # config blocks were written field by field from the dataclasses
        world = generate_world(
            SynthConfig(seed=13, n_supply=3, n_demand=2, soc_levels=3, n_days=40)
        )
        cfg = TrainConfig(n_trees=6, max_depth=3, min_samples_leaf=4, seed=2)
        tr, _ = train_test_split(world.training_rows(), cfg.test_fraction, cfg.seed)
        forest = train(tr, cfg, world.schema())

        def sha(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert sha(world.to_json()) == (
            "b468fb2b97cdf626b8d3abc31da299e3"
            "58c5fadc8898b421874f4e59ea6ae706"
        )
        assert sha(forest.to_json()) == (
            "f043b52b9b553e310c0aed252eba1d06"
            "eb3289fb20f80d8a563fcfbd1f32be63"
        )

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
        synth = dataclasses.replace(self.synth, elasticity=0.0)
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
            fh.write("date,temperature,dew_point,wind,sky\n2016-03-01,14.0,8.0,3.5,clear\n")
        weather = read_weather(str(wpath))
        # extra columns, a text one among them, are ignored
        assert weather == [WeatherDay(dt.date(2016, 3, 1), 14.0, 8.0)]


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
        stats = store.stats(inst)
        for pos, name in enumerate(store.variable_names):
            assert stats[name]["mean"] == pytest.approx(mat[:, pos].mean())


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

    def test_gridded_fixing_pins_the_snapped_baseline(self, monkeypatch):
        # a product query solves on a fare grid: every fixed fare is the
        # baseline's, snapped to the grid cell by cell
        seen = []
        fix = experiments.fix_variables

        def spy(mip, values):
            seen.append(values)
            return fix(mip, values)

        monkeypatch.setattr(experiments, "fix_variables", spy)
        n = len(self.history.variable_names)
        cfg = BenchConfig(seed=0, eval_days=1,
                          queries=("Dispatching efficiency of taxis",),
                          fixed_counts=(n - 1,))
        report = run_efficiency_experiment(self.world, self.forest, self.history, cfg)
        assert [r["status"] for r in report.rows] == ["Optimal"]
        (values,) = seen
        day = experiments.pick_eval_days(self.world, self.history, 1, 0)[0]
        inst = self.world.instance(day)
        grid = PriceGrid.uniform(inst, cfg.agent.grid_points)
        raw = decision_values(inst, self.history.baseline_decision(inst))
        expected = dict(raw)
        for j_pos, j in enumerate(inst.demand_areas):
            for k in range(inst.soc_levels):
                name = f"u_hat[{j},{k}]"
                expected[name] = grid.snap(j_pos, k, raw[name])
        assert list(values) == [m for m in self.history.variable_names if m in values]
        assert values == {name: expected[name] for name in values}
        assert any(values[m] != raw[m] for m in values if m.startswith("u_hat"))

    def test_a_fixed_solve_that_is_not_optimal_keeps_its_counts(self, monkeypatch):
        # fixed solves of a nonzero count stop at the time limit without a
        # point: the row keeps the status and counts, and has no objective
        reduced = []
        fix = experiments.fix_variables
        solve = experiments.lexicographic_solve

        def fix_spy(mip, values):
            problem = fix(mip, values)
            if values:
                reduced.append(problem)
            return problem

        def solve_spy(mip, cfg):
            if any(mip is problem for problem in reduced):
                return Solution(status=TIME_LIMIT, node_count=7, lp_iterations=11)
            return solve(mip, cfg)

        monkeypatch.setattr(experiments, "fix_variables", fix_spy)
        monkeypatch.setattr(experiments, "lexicographic_solve", solve_spy)
        n = len(self.history.variable_names)
        cfg = BenchConfig(seed=0, eval_days=2,
                          queries=("Number of pre-allocated taxis",),
                          fixed_counts=(0, n // 2))
        report = run_efficiency_experiment(self.world, self.forest, self.history, cfg)
        stopped = [r for r in report.rows if r["fixed_count"] == n // 2]
        assert len(stopped) == 2 and len(reduced) == 2
        for row in stopped:
            assert row["status"] == TIME_LIMIT
            assert row["nodes_agent"] == 7 and row["lp_iters_agent"] == 11
            for col in ("rf_obj_agent", "rf_gap_pct", "qr_obj_agent", "qr_gap_pct"):
                assert row[col] is None, col
            assert row["rf_obj_full"] is not None
        assert [a["fixed_count"] for a in report.aggregates] == [0]
        assert report.aggregates[0]["cells"] == 2
        assert len(report.timings) == 4

    def test_report_files_are_pinned(self, tmp_path):
        # efficiency over five queries (a gridded one among them) and four
        # fixed counts, cuts over three days and accuracy on a three-level
        # world; the digests were read before the experiments shared one
        # cell path
        queries = BenchConfig().queries + ("Dispatching efficiency of taxis",)
        run_efficiency_experiment(
            self.world, self.forest, self.history,
            BenchConfig(seed=0, eval_days=2, queries=queries, fixed_counts=(0, 4, 8, 15)),
            out_dir=str(tmp_path),
        )
        run_cuts_experiment(self.world, self.forest, self.history,
                            BenchConfig(seed=0, eval_days=3), out_dir=str(tmp_path))
        world3 = generate_world(
            SynthConfig(seed=5, n_supply=3, n_demand=2, soc_levels=3, n_days=3)
        )
        for linear in (True, False):
            run_accuracy_experiment(world3.instance(0), BenchConfig(repetitions=2),
                                    linear=linear, out_dir=str(tmp_path))
        pinned = {
            "efficiency_report.json":
                "b07ee8fcd4caeed7ddb7f03ee11e652c5ff27cff3b6f365168c5f5aba1d61f6f",
            "efficiency_report.csv":
                "a2fc49f9b2343aff3177270b7117f6d583ec26cf338bb8b6ffd530b0332cb5fd",
            "efficiency_report.md":
                "594e42fa2d30385793b46141099f8c56161e01cfd5e351cb95951341a539445f",
            "cuts_report.json":
                "c267b25c9ff227d901cd026f2b6fd1fcca6b10c96d47af021667398362541015",
            "cuts_report.csv":
                "d9b5b0f543c959833b2df30708e58fabb05108d6626a2f9c0a83358c483bce19",
            "cuts_report.md":
                "b83f50ae077d540b281ad1e24fb00c0f4b5291c555c12194a6dfeba4df6c5c8c",
            "accuracy_linear_report.json":
                "2b2fde8ef2c20f097627b94f0d100152da8586b7c43545f82b363770beaa7cc5",
            "accuracy_linear_report.csv":
                "49405790810c21481aec62d5161cf1f3cad908e539330cbfa7366cfab6c84adc",
            "accuracy_linear_report.md":
                "444c6a18195bad87173ce65161808f56fa009a4cbc823f3b203180a30b5efe0e",
            "accuracy_nonlinear_report.json":
                "de1080a9f31183d9434b606de06ee3b1caccbbf93aff7da2bed570fcc24b71e1",
            "accuracy_nonlinear_report.csv":
                "0f24d31f6d841f411ad2d071f03d6698da694be26266e57e1014884c4465f747",
            "accuracy_nonlinear_report.md":
                "740e971076da00d2e5601747ec37f35c27cb429a35a71aca634cd3585739107c",
        }
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        with open(tmp_path / "efficiency_timings.csv") as fh:
            assert fh.readline() == ("scenario,date,fixed_count,time_full_s,"
                                     "time_agent_s,time_gap_s,time_gap_pct\n")
        with open(tmp_path / "cuts_timings.csv") as fh:
            assert fh.readline() == "cuts,date,time_s,time_gap_s,time_gap_pct\n"

    def test_accuracy_skips_entries_that_do_not_fit_a_two_level_world(self):
        # the high-power entry indexes charge level 2, which this world lacks
        inst = self.world.instance(0)
        assert inst.soc_levels == 2
        report = run_accuracy_experiment(inst, BenchConfig(repetitions=1), linear=True)
        (note,) = report.notes
        assert note.startswith("Number of high-powered taxis in demand areas: ")
        assert "is not a member of K" in note
        assert report.rows
        for row in report.rows:
            for col in ("in_sample_result", "in_sample_text",
                        "out_sample_result", "out_sample_text"):
                if row[col] is not None:
                    assert row[col] == pytest.approx(1.0)
        # a chat reply naming the missing level is rejected on every attempt,
        # and the query scores as a failed generation
        n_queries = len(experiments.linear_entries()) - 1
        reply = "maximize sum(i in I, j in J) x[i,j,2]"
        client = ReplayClient([reply] * (CHAT_ATTEMPTS * n_queries))
        cfg = BenchConfig(repetitions=1, prompt_counts_linear=(0,))
        report = run_accuracy_experiment(inst, cfg, guide="llm", client=client,
                                         linear=True)
        skipped, *failed = report.notes
        assert len(failed) == n_queries and client.cursor == len(client.responses)
        assert all(n.endswith(": x index 3 = 2 is not a member of K") for n in failed)
        assert report.rows == [{"prompts": 0, "in_sample_result": None,
                                "in_sample_text": None, "out_sample_result": 0.0,
                                "out_sample_text": 0.0}]

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
