"""Command line entry point.

Subcommands cover the whole pipeline: ``gen-data`` writes a seeded
synthetic world, ``train-forest`` fits and saves the profit model,
``make-history`` solves the sampled days, ``solve`` runs the FULL
model on one day, ``agent`` runs the guided loop for a query,
``bench`` runs the experiment harnesses and ``query`` goes from a
natural-language request to a finished plan in one call. Exit codes:
0 success, 1 runtime failure (``solve`` ending without a plan among
them), 2 usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .agent import (
    AgentConfig,
    ChatClient,
    LlmConfig,
    build_agent_model,
    problem_match,
    run_agent,
)
from .agent.types import HistoryStore
from .bench import (
    BenchConfig,
    SynthConfig,
    World,
    generate_world,
    make_history,
    run_accuracy_experiment,
    run_cuts_experiment,
    run_efficiency_experiment,
)
from .agent.indicator import indicator_generate
from .forest import Forest, TrainConfig, evaluate_r2, train, train_test_split
from .fleet import json_data
from .fleet_mip import build_feature_mip, decision_from_solution
from .mip.solver import (
    STOPPED_WITH_POINT,
    SolveConfig,
    branch_and_bound,
    lexicographic_solve,
)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _config_section(args, name: str) -> dict:
    if getattr(args, "config", None):
        return _load_json(args.config).get(name, {})
    return {}


def _from_section(cls, section: dict, name: str):
    """Build config dataclass ``cls`` from a JSON section.

    A field whose default is a config dataclass (``AgentConfig.solve``,
    ``BenchConfig.agent``) is built from its nested section the same
    way. A key that names no field raises, naming the key.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in section.items():
        if key not in fields:
            raise ValueError(f"unknown key {key!r} in config section {name!r}")
        nested = fields[key].default_factory
        if dataclasses.is_dataclass(nested) and isinstance(value, dict):
            value = _from_section(nested, value, f"{name}.{key}")
        kwargs[key] = value
    return cls(**kwargs)


def _positive_seconds(text: str) -> float:
    """``--time-limit`` value: a positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0  # reported below, as any other value that is not positive
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """``--m`` value: a positive number of days."""
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported below, as any other value that is not positive
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _solve_config(args, cfg: SolveConfig | None = None) -> SolveConfig:
    """``cfg`` (by default the config file's ``solve`` section) with
    ``--time-limit`` applied: the one place the flag takes effect."""
    if cfg is None:
        cfg = _from_section(SolveConfig, _config_section(args, "solve"), "solve")
    if args.time_limit is not None:
        cfg.time_limit = args.time_limit
    return cfg


def _world(args) -> World:
    return World.from_dict(_load_json(args.world))


def _forest(args) -> Forest:
    return Forest.from_dict(_load_json(args.forest))


def _day(args, world: World):
    """The instance and exogenous features of ``--day``."""
    if not 0 <= args.day < len(world.days):
        raise ValueError(
            f"--day {args.day} is outside the world's days 0..{len(world.days) - 1}"
        )
    return world.instance(args.day), world.days[args.day].exogenous()


def _history(args) -> HistoryStore:
    return HistoryStore.from_dict(_load_json(args.history))


def _client(args):
    if getattr(args, "guide", "deterministic") != "llm":
        return None
    return ChatClient(_from_section(LlmConfig, _config_section(args, "llm"), "llm"))


def cmd_gen_data(args) -> int:
    section = _config_section(args, "synth")
    if args.seed is not None:
        section["seed"] = args.seed
    cfg = _from_section(SynthConfig, section, "synth")
    world = generate_world(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "world.json")
    with open(path, "w") as fh:
        fh.write(world.to_json())
    print(f"wrote {path} ({len(world.days)} days)")
    return 0


def cmd_train_forest(args) -> int:
    world = _world(args)
    section = _config_section(args, "train")
    if args.seed is not None:
        section["seed"] = args.seed
    cfg = _from_section(TrainConfig, section, "train")
    rows = world.training_rows()
    train_rows, test_rows = train_test_split(rows, cfg.test_fraction, cfg.seed)
    forest = train(train_rows, cfg, world.schema())
    r2_train = evaluate_r2(forest, train_rows)
    r2_test = evaluate_r2(forest, test_rows)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "forest.json")
    with open(path, "w") as fh:
        fh.write(forest.to_json())
    metrics = {"r2_train": round(r2_train, 6), "r2_test": round(r2_test, 6),
               "rows_train": len(train_rows), "rows_test": len(test_rows)}
    with open(os.path.join(args.out, "forest_metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
    print(f"wrote {path}  r2_train={r2_train:.4f} r2_test={r2_test:.4f}")
    return 0


def cmd_make_history(args) -> int:
    world = _world(args)
    forest = _forest(args)
    store = make_history(
        world, forest, m=args.m, solve_cfg=_solve_config(args),
        seed=args.seed if args.seed is not None else 0,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "history.json")
    with open(path, "w") as fh:
        fh.write(store.to_json())
    print(f"wrote {path} ({len(store.records)} records)")
    return 0


def cmd_solve(args) -> int:
    world = _world(args)
    forest = _forest(args)
    instance, exogenous = _day(args, world)
    if args.query:
        result = indicator_generate(args.query, instance, guide="deterministic")
        mip, _, _ = build_agent_model(
            instance, forest, exogenous, result.ast, AgentConfig()
        )
        solution = lexicographic_solve(mip, _solve_config(args))
    else:
        mip = build_feature_mip(instance, forest, exogenous)
        solution = branch_and_bound(mip, _solve_config(args))
    print(solution.to_json())
    # a stop at a limit may hold no point, and then there is no plan
    if solution.status not in STOPPED_WITH_POINT or not solution.values:
        return 1
    decision = decision_from_solution(instance, mip, solution)
    print(json.dumps({"decision": json_data(decision)}, indent=2, sort_keys=True))
    return 0


def cmd_agent(args) -> int:
    world = _world(args)
    forest = _forest(args)
    history = _history(args)
    instance, exogenous = _day(args, world)
    cfg = _from_section(AgentConfig, _config_section(args, "agent"), "agent")
    cfg.guide = args.guide
    cfg.solve = _solve_config(args, cfg.solve)
    trace = run_agent(
        args.query, instance, exogenous, forest, history, cfg, client=_client(args)
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "trace.json"), "w") as fh:
            json.dump(trace.to_dict(), fh, indent=2, sort_keys=True)
    print(trace.response)
    return 0


def cmd_bench(args) -> int:
    world = _world(args)
    forest = _forest(args)
    cfg = _from_section(BenchConfig, _config_section(args, "bench"), "bench")
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.solve = _solve_config(args, cfg.solve)
    os.makedirs(args.out, exist_ok=True)
    if args.experiment == "accuracy":
        instance = world.instance(0)
        client = _client(args)
        run_accuracy_experiment(
            instance, cfg, guide=args.guide, client=client, linear=True,
            out_dir=args.out,
        )
        run_accuracy_experiment(
            instance, cfg, guide=args.guide, client=client, linear=False,
            out_dir=args.out,
        )
    else:
        history = _history(args)
        if args.experiment == "efficiency":
            run_efficiency_experiment(world, forest, history, cfg, out_dir=args.out)
        else:
            run_cuts_experiment(world, forest, history, cfg, out_dir=args.out)
    print(f"reports written to {args.out}")
    return 0


def cmd_query(args) -> int:
    match = problem_match(args.text)
    if match.low_confidence:
        print(
            f"note: no domain keywords matched; routed to {match.agent_id!r} anyway",
            file=sys.stderr,
        )
    return cmd_agent(
        argparse.Namespace(
            world=args.world,
            forest=args.forest,
            history=args.history,
            day=args.day,
            query=args.text,
            guide=args.guide,
            out=args.out,
            config=args.config,
            time_limit=args.time_limit,
        )
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetopt",
        description="Feature-driven taxi pre-allocation and pricing toolkit",
    )
    parser.add_argument("--config", help="JSON config file with per-stage sections")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a seeded synthetic world")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-forest", help="fit the profit forest on a world")
    p.add_argument("--world", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_forest)

    p = sub.add_parser("make-history", help="solve sampled days into a history store")
    p.add_argument("--world", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--m", type=_positive_int, default=14)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", type=_positive_seconds, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_history)

    p = sub.add_parser("solve", help="solve the FULL model for one day")
    p.add_argument("--world", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--day", type=int, default=0)
    p.add_argument("--query", default=None, help="optional secondary objective query")
    p.add_argument("--time-limit", type=_positive_seconds, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("agent", help="run the guided fixing loop for a query")
    p.add_argument("--world", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--day", type=int, default=0)
    p.add_argument("--query", required=True)
    p.add_argument("--guide", choices=("deterministic", "llm"), default="deterministic")
    p.add_argument("--time-limit", type=_positive_seconds, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_agent)

    p = sub.add_parser("bench", help="run an experiment harness")
    p.add_argument("experiment", choices=("accuracy", "efficiency", "cuts"))
    p.add_argument("--world", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--history", default=None)
    p.add_argument("--guide", choices=("deterministic", "llm"), default="deterministic")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--time-limit", type=_positive_seconds, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("query", help="natural-language request, end to end")
    p.add_argument("text")
    p.add_argument("--world", required=True)
    p.add_argument("--forest", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--day", type=int, default=0)
    p.add_argument("--guide", choices=("deterministic", "llm"), default="deterministic")
    p.add_argument("--time-limit", type=_positive_seconds, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_query)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.experiment != "accuracy" and not args.history:
        parser.error(f"bench {args.experiment} needs --history")
    try:
        return args.func(args)
    except Exception as err:  # runtime failures exit 1; argparse handles usage (2)
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
