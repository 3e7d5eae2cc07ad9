import json
import os
import types

import pytest

from fleetopt.agent import AgentConfig
from fleetopt.bench import BenchConfig
from fleetopt import cli
from fleetopt.cli import _from_section, main
from fleetopt.mip import SolveConfig
from fleetopt.mip.problem import TIME_LIMIT, Solution


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> train-forest -> make-history on a tiny config."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({
        "synth": {"seed": 9, "n_supply": 3, "n_demand": 2, "soc_levels": 3,
                  "n_days": 30},
        "train": {"n_trees": 5, "max_depth": 3, "min_samples_leaf": 4, "seed": 1},
        "bench": {"eval_days": 1, "fixed_counts": [0, 6], "repetitions": 1,
                  "queries": ["Number of pre-allocated taxis"]},
    }))
    out = root / "work"
    assert main(["--config", str(config), "gen-data", "--out", str(out)]) == 0
    assert main(["--config", str(config), "train-forest",
                 "--world", str(out / "world.json"), "--out", str(out)]) == 0
    assert main(["--config", str(config), "make-history",
                 "--world", str(out / "world.json"),
                 "--forest", str(out / "forest.json"),
                 "--m", "5", "--seed", "0", "--out", str(out)]) == 0
    return config, out


class TestCli:
    def test_gen_data_is_seed_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--seed", "4", "--out", str(a)]) == 0
        assert main(["gen-data", "--seed", "4", "--out", str(b)]) == 0
        assert (a / "world.json").read_bytes() == (b / "world.json").read_bytes()

    def test_pipeline_artifacts_exist(self, pipeline):
        _, out = pipeline
        for name in ("world.json", "forest.json", "forest_metrics.json",
                     "history.json"):
            assert (out / name).exists(), name

    def test_solve_full_model(self, pipeline, capsys):
        config, out = pipeline
        code = main(["solve", "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"), "--day", "0"])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"status": "Optimal"' in printed
        assert '"decision"' in printed

    @pytest.mark.parametrize(
        "query", ["Market share of taxis", "Dispatching efficiency of taxis"]
    )
    def test_solve_product_query(self, pipeline, capsys, query):
        # fare-allocation products need the fare grid the agent model adds
        _, out = pipeline
        code = main(["solve", "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"), "--day", "0",
                     "--query", query, "--time-limit", "1"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert '"decision"' in captured.out

    def test_agent_runs_offline(self, pipeline, capsys):
        config, out = pipeline
        code = main(["agent", "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"),
                     "--history", str(out / "history.json"),
                     "--day", "1", "--query", "Number of pre-allocated taxis",
                     "--guide", "deterministic", "--out", str(out / "agent")])
        assert code == 0
        assert "Request:" in capsys.readouterr().out
        with open(out / "agent" / "trace.json") as fh:
            trace = json.load(fh)
        assert trace["iterations"]

    def test_query_end_to_end(self, pipeline, capsys):
        config, out = pipeline
        code = main(["query", "How can we improve the taxi service level?",
                     "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"),
                     "--history", str(out / "history.json"), "--day", "0"])
        assert code == 0
        assert "Objective used:" in capsys.readouterr().out

    def test_bench_efficiency_writes_reports(self, pipeline):
        config, out = pipeline
        bench_out = out / "bench"
        code = main(["--config", str(config), "bench", "efficiency",
                     "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"),
                     "--history", str(out / "history.json"),
                     "--out", str(bench_out)])
        assert code == 0
        for name in ("efficiency_report.json", "efficiency_report.csv",
                     "efficiency_report.md", "efficiency_timings.csv"):
            assert (bench_out / name).exists(), name

    def test_bench_accuracy_offline(self, pipeline):
        config, out = pipeline
        bench_out = out / "accuracy"
        code = main(["--config", str(config), "bench", "accuracy",
                     "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"),
                     "--out", str(bench_out)])
        assert code == 0
        assert (bench_out / "accuracy_linear_report.md").exists()
        assert (bench_out / "accuracy_nonlinear_report.md").exists()

    def test_config_sections_build_nested_dataclasses(self):
        cfg = _from_section(BenchConfig, {
            "eval_days": 2,
            "solve": {"node_limit": 7},
            "agent": {"t_max": 2, "solve": {"gap_tol": 1e-4}},
        }, "bench")
        assert cfg.eval_days == 2
        assert isinstance(cfg.solve, SolveConfig) and cfg.solve.node_limit == 7
        assert isinstance(cfg.agent, AgentConfig) and cfg.agent.t_max == 2
        assert isinstance(cfg.agent.solve, SolveConfig)
        assert cfg.agent.solve.gap_tol == 1e-4

    def test_agent_with_nested_solve_section(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        config = tmp_path / "nested.json"
        config.write_text(json.dumps({"agent": {"solve": {"gap_tol": 1e-6}}}))
        code = main(["--config", str(config), "agent",
                     "--world", str(out / "world.json"),
                     "--forest", str(out / "forest.json"),
                     "--history", str(out / "history.json"),
                     "--day", "1", "--query", "Number of pre-allocated taxis",
                     "--time-limit", "60"])
        assert code == 0, capsys.readouterr().err
        assert "Request:" in capsys.readouterr().out

    @pytest.mark.parametrize("command, section, where", [
        ("solve", {"solve": {"lp_backend": "highs"}},
         "'lp_backend' in config section 'solve'"),
        ("agent", {"agent": {"solve": {"seed": 5}}},
         "'seed' in config section 'agent.solve'"),
    ])
    def test_unknown_config_key_is_named(self, pipeline, tmp_path, capsys,
                                         command, section, where):
        _, out = pipeline
        config = tmp_path / "removed.json"
        config.write_text(json.dumps(section))
        argv = ["--config", str(config), command,
                "--world", str(out / "world.json"),
                "--forest", str(out / "forest.json")]
        if command == "agent":
            argv += ["--history", str(out / "history.json"),
                     "--query", "Number of pre-allocated taxis"]
        assert main(argv) == 1
        assert f"error: unknown key {where}" in capsys.readouterr().err

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        code = main(["solve", "--world", str(tmp_path / "missing.json"),
                     "--forest", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "nonsense", "--world", "w", "--forest", "f",
                  "--out", "o"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("experiment", ["efficiency", "cuts"])
    def test_bench_without_history_is_a_usage_error(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", experiment, "--world", "w", "--forest", "f",
                  "--out", "o"])
        assert exc.value.code == 2
        assert "--history" in capsys.readouterr().err

    @pytest.mark.parametrize("query", [None, "Service level of taxis"])
    def test_solve_without_a_plan_exits_one(self, pipeline, monkeypatch, capsys,
                                            query):
        # a stop at the time limit may come without a point
        def stopped(*args, **kwargs):
            return Solution(status=TIME_LIMIT)

        monkeypatch.setattr(cli, "branch_and_bound", stopped)
        monkeypatch.setattr(cli, "lexicographic_solve", stopped)
        _, out = pipeline
        argv = ["solve", "--world", str(out / "world.json"),
                "--forest", str(out / "forest.json"), "--day", "0"]
        if query:
            argv += ["--query", query]
        assert main(argv) == 1
        printed = capsys.readouterr().out
        assert '"status": "TimeLimit"' in printed
        assert '"decision"' not in printed

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["agent", "--history", "h", "--query", "Number of pre-allocated taxis"],
        ["bench", "efficiency", "--history", "h", "--out", "o"],
        ["make-history", "--out", "o"],
        ["query", "Number of pre-allocated taxis", "--history", "h"],
    ])
    def test_time_limit_must_be_positive(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--world", "w", "--forest", "f", "--time-limit", value])
        assert exc.value.code == 2
        assert "--time-limit: must be a positive number of seconds" in (
            capsys.readouterr().err
        )

    def test_time_limit_joins_the_agent_and_bench_solve_sections(
        self, pipeline, tmp_path, monkeypatch
    ):
        seen = []
        def agent_spy(*args, **kwargs):
            seen.append(args[5])
            return types.SimpleNamespace(response="")

        monkeypatch.setattr(cli, "run_agent", agent_spy)
        monkeypatch.setattr(cli, "run_efficiency_experiment",
                            lambda *a, **kw: seen.append(a[3]))
        _, out = pipeline
        config = tmp_path / "nested.json"
        config.write_text(json.dumps({"agent": {"solve": {"gap_tol": 1e-6}},
                                      "bench": {"solve": {"node_limit": 9}}}))
        common = ["--world", str(out / "world.json"),
                  "--forest", str(out / "forest.json"),
                  "--history", str(out / "history.json"), "--time-limit", "2.5"]
        assert main(["--config", str(config), "agent",
                     "--query", "Number of pre-allocated taxis"] + common) == 0
        assert main(["--config", str(config), "bench", "efficiency",
                     "--out", str(tmp_path)] + common) == 0
        agent_cfg, bench_cfg = seen
        assert agent_cfg.solve.time_limit == 2.5 and agent_cfg.solve.gap_tol == 1e-6
        assert bench_cfg.solve.time_limit == 2.5 and bench_cfg.solve.node_limit == 9

    @pytest.mark.parametrize("day", ["-1", "30"])
    @pytest.mark.parametrize("command", [
        ["solve"],
        ["agent", "--query", "Number of pre-allocated taxis"],
        ["query", "Number of pre-allocated taxis"],
    ])
    def test_a_day_outside_the_world_is_an_error(self, pipeline, command, day, capsys):
        _, out = pipeline
        argv = command + ["--world", str(out / "world.json"),
                          "--forest", str(out / "forest.json"), "--day", day]
        if command[0] != "solve":
            argv += ["--history", str(out / "history.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"error: --day {day} is outside the world's days 0..29" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "x"])
    def test_history_size_must_be_a_positive_integer(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["make-history", "--world", "w", "--forest", "f", "--out", "o",
                  "--m", value])
        assert exc.value.code == 2
        assert "--m: must be a positive integer" in capsys.readouterr().err

    def test_make_history_needs_at_least_one_day(self, pipeline):
        from fleetopt.bench import World, make_history
        from fleetopt.forest import Forest

        _, out = pipeline
        world = World.from_json((out / "world.json").read_text())
        forest = Forest.from_json((out / "forest.json").read_text())
        with pytest.raises(ValueError, match="m=0 must be at least 1"):
            make_history(world, forest, m=0)
