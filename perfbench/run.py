"""Layered benchmark of fleetopt: manager requests, full bi-objective
solves and cut settings, each output checked against scipy's milp.

    python3 perfbench/run.py --workload desk-agent --seed 0 --seconds 12 --trace 0

Runs from the root of a source checkout and imports fleetopt from its
``src/``. One process, one caller, closed loop: an operation starts when
the previous one returns. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md).
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# set-up runs at least this many times, and on cheap worlds until this
# much time has gone, so that its median is steady
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15

WORKLOADS = {
    "desk-agent": ("desk", "agent"),
    "desk-full": ("desk", "full"),
    "cuts-small": ("small", "cuts"),
}


def _import_fleetopt():
    """Import fleetopt from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fleetopt", "__init__.py")):
        sys.exit(f"perfbench: no fleetopt sources under {SRC}")
    sys.path.insert(0, SRC)
    import fleetopt

    if not os.path.abspath(fleetopt.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: fleetopt imported from {fleetopt.__file__}, not {SRC}")


_import_fleetopt()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import selftest  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
from fleetopt import forest as forest_mod  # noqa: E402
from fleetopt.agent import loop  # noqa: E402
from fleetopt.agent.types import AgentConfig  # noqa: E402
from fleetopt.bench import experiments, history as history_mod, synth  # noqa: E402
from fleetopt.fleet_mip import build_feature_mip  # noqa: E402
from fleetopt.mip import OPTIMAL  # noqa: E402
from fleetopt.mip import solver  # noqa: E402

QUERIES = experiments.BenchConfig().queries


@dataclass(frozen=True)
class WorldSpec:
    """A synthetic world, its forest and history, and the sampled days."""

    synth: synth.SynthConfig
    train: forest_mod.TrainConfig
    history_m: int
    history_seed: int
    draw: tuple[int, int]  # (n, seed) for pick_eval_days
    days_used: int


WORLDS = {
    # acceptance criterion 4's world and day draw; only its first day is
    # used, so that every run fits its time budget
    "desk": WorldSpec(
        synth=synth.SynthConfig(seed=42),
        train=forest_mod.TrainConfig(n_trees=20, max_depth=6, min_samples_leaf=3, seed=7),
        history_m=14, history_seed=3, draw=(5, 1), days_used=1,
    ),
    # acceptance criterion 6's world; ten days drawn with its seed
    "small": WorldSpec(
        synth=synth.SynthConfig(seed=13, n_supply=3, n_demand=2, soc_levels=3, n_days=40),
        train=forest_mod.TrainConfig(n_trees=6, max_depth=3, min_samples_leaf=4, seed=2),
        history_m=6, history_seed=1, draw=(10, 2), days_used=10,
    ),
}


@dataclass
class Setup:
    world: object
    forest: object
    history: object
    seconds: dict[str, float]


def set_up(spec: WorldSpec) -> Setup:
    """World synthesis, CART training and the history solves."""
    t0 = time.perf_counter()
    world = synth.generate_world(spec.synth)
    t1 = time.perf_counter()
    rows = world.training_rows()
    train_rows, _ = forest_mod.train_test_split(rows, spec.train.test_fraction, spec.train.seed)
    forest = forest_mod.train(train_rows, spec.train, world.schema())
    t2 = time.perf_counter()
    history = history_mod.make_history(
        world, forest, m=spec.history_m, seed=spec.history_seed
    )
    t3 = time.perf_counter()
    return Setup(world, forest, history, {
        "synth": t1 - t0, "train": t2 - t1, "history": t3 - t2,
    })


@dataclass(frozen=True)
class Op:
    query: str
    day: int
    setting: str = ""  # cut family name on cuts-small

    def label(self) -> str:
        return f"{self.query} @ day {self.day}" + (f" [{self.setting}]" if self.setting else "")


def make_ops(kind: str, setup: Setup, spec: WorldSpec, seed: int) -> list[Op]:
    """The fixed batch of one round, in an order drawn from ``seed``."""
    n, draw_seed = spec.draw
    days = experiments.pick_eval_days(setup.world, setup.history, n, draw_seed)
    days = days[: spec.days_used]
    settings = [name for name, _ in experiments.CUT_FAMILIES] if kind == "cuts" else [""]
    ops = [Op(q, d, s) for q in QUERIES for d in days for s in settings]
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[int(i)] for i in order]


CUT_CONFIGS = dict(experiments.CUT_FAMILIES)


def solve_config(op: Op):
    return CUT_CONFIGS[op.setting] if op.setting else solver.SolveConfig()


def run_op(kind: str, op: Op, setup: Setup):
    """One operation through fleetopt's public API; returns its output."""
    inst = setup.world.instance(op.day)
    exo = setup.world.days[op.day].exogenous()
    if kind == "agent":
        return loop.run_agent(op.query, inst, exo, setup.forest, setup.history, AgentConfig())
    indicator = loop.indicator_generate(op.query, inst, guide="deterministic")
    mip, _, _ = loop.build_agent_model(inst, setup.forest, exo, indicator.ast, AgentConfig())
    return solver.lexicographic_solve(mip, solve_config(op))


@dataclass(frozen=True)
class OpError:
    """An operation that raised; checked as a failure, not a crash."""

    message: str


def attempt(kind: str, op: Op, setup: Setup):
    try:
        return run_op(kind, op, setup)
    except Exception as err:  # the run goes on and reports the operation failed
        traceback.print_exc()
        return OpError(f"{type(err).__name__}: {err}")


def fingerprint(kind: str, out) -> tuple:
    """What must repeat exactly when the same operation runs again."""
    if isinstance(out, OpError):
        return (out.message,)
    if kind == "agent":
        return tuple(
            (r.status, r.g_value, r.f_value, r.active) for r in out.iterations
        ) + (out.best_score, out.best_iteration)
    return (out.status, out.objective_value, out.secondary_value, out.node_count,
            out.lp_iterations, tuple(sorted(out.values.items())))


# --- checks ----------------------------------------------------------------


@dataclass
class Checked:
    """Per-operation check results and the figures derived from them."""

    reasons: dict[Op, list[str]] = field(default_factory=dict)
    nodes: int = 0
    lp_iterations: int = 0
    kept: list[float] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)
    global_reasons: list[str] = field(default_factory=list)


def check_history(setup: Setup) -> list[str]:
    reasons = []
    dates = [d.date for d in setup.world.days]
    for rec in setup.history.records:
        day = dates.index(rec.date)
        mip = build_feature_mip(setup.world.instance(day), setup.forest, rec.features)
        ref = oracle.milp_solve(mip)
        if not ref.ok or not oracle.close(ref.value, rec.objective, solver.SolveConfig().gap_tol):
            reasons.append(f"history {rec.date}: {rec.objective} vs milp {ref.value}")
    return reasons


def check_outputs(kind: str, ops: list[Op], outputs: dict, setup: Setup) -> Checked:
    """Check every output of one round against computations made apart
    from the program; runs outside the timed sections."""
    res = Checked()
    res.global_reasons += oracle.check_catalog(QUERIES)
    res.global_reasons += check_history(setup)
    full_g: dict[int, float] = {}
    models: dict[tuple, object] = {}
    cell_values: dict[tuple, list] = {}
    for op in sorted(ops, key=lambda o: (o.day, QUERIES.index(o.query), o.setting)):
        inst = setup.world.instance(op.day)
        exo = setup.world.days[op.day].exogenous()
        out = outputs[op]
        if isinstance(out, OpError):
            res.reasons[op] = [f"raised {out.message}"]
            continue
        cell = (op.query, op.day)
        if cell not in models:
            indicator = loop.indicator_generate(op.query, inst, guide="deterministic")
            models[cell] = loop.build_agent_model(
                inst, setup.forest, exo, indicator.ast, AgentConfig()
            )[0]
        mip = models[cell]
        if op.day not in full_g:
            ref = oracle.milp_solve(mip)
            if not ref.ok:
                res.global_reasons.append(f"full model, day {op.day}: {ref.message}")
            full_g[op.day] = ref.value
        base = setup.history.baseline_decision(inst)
        base_plan = (base.x, base.u_hat)
        if kind == "agent":
            reasons = _check_agent(op, out, mip, inst, exo, full_g[op.day], setup, res)
            plan = (out.best_decision.x, out.best_decision.u_hat)
            score = oracle.relative_improvement(op.query, inst, plan, base_plan)
            if not oracle.close(score, out.best_score, 1e-9):
                reasons.append(f"best score {out.best_score} != recomputed {score}")
        else:
            reasons = _check_solution(op, out, mip, inst, exo, solve_config(op), setup.forest)
            plan = oracle.plan_from_values(inst, out.values) if out.values else base_plan
            score = oracle.relative_improvement(op.query, inst, plan, base_plan)
            res.nodes += out.node_count
            res.lp_iterations += out.lp_iterations
            if out.objective_value is not None and full_g[op.day]:
                res.kept.append(out.objective_value / full_g[op.day])
            if kind == "cuts":
                cell_values.setdefault(cell, []).append(
                    (op, out.objective_value, out.secondary_value)
                )
        res.scores.append(score)
        res.reasons[op] = reasons
    for values in cell_values.values():
        _, g0, f0 = values[0]
        for op, g, f in values[1:]:
            if g is None or not oracle.close(g, g0, 1e-6) or not oracle.close(f, f0, 1e-6):
                res.reasons[op].append(f"cut setting optimum ({g}, {f}) != ({g0}, {f0})")
    return res


def _check_solution(op, sol, mip, inst, exo, cfg, forest) -> list[str]:
    if sol.status != OPTIMAL or not sol.values:
        return [f"status {sol.status}"]
    reasons, _ = oracle.check_lexicographic(
        mip, sol.objective_value, sol.secondary_value, cfg, full_bound=sol.best_bound
    )
    x, u = oracle.plan_from_values(inst, sol.values)
    reasons += oracle.plan_violations(inst, x, u)
    value = oracle.query_value(op.query, inst, x, u)
    if not oracle.close(value, sol.secondary_value, 1e-9):
        reasons.append(f"query objective {sol.secondary_value} != numpy {value}")
    reasons += oracle.readback_violations(forest, exo, inst, x, u, sol.objective_value)
    return reasons


def _check_agent(op, trace, mip, inst, exo, g_full, setup, res) -> list[str]:
    """Replay each solved iteration: milp on the reduced rows, the native
    solve again for its node and LP-iteration counts."""
    reasons = []
    cfg = AgentConfig().solve
    for rec in trace.iterations:
        if rec.status != OPTIMAL:
            continue
        reduced = solver.fix_variables(mip, rec.fixed_values)
        r, g_star = oracle.check_lexicographic(reduced, rec.g_value, rec.f_value, cfg)
        reasons += [f"iteration {rec.iteration}: {m}" for m in r]
        if g_star is not None and g_full is not None and g_star > g_full + oracle.ABS_TOL * max(1.0, abs(g_full)):
            reasons.append(f"reduced optimum {g_star} exceeds full {g_full}")
        replay = solver.lexicographic_solve(reduced, cfg)
        if (replay.objective_value, replay.secondary_value) != (rec.g_value, rec.f_value):
            reasons.append(f"iteration {rec.iteration}: replay differs from the trace")
        res.nodes += replay.node_count
        res.lp_iterations += replay.lp_iterations
        if g_full:
            res.kept.append(rec.g_value / g_full)
    if trace.best_iteration:
        best = trace.iterations[trace.best_iteration - 1]
        plan = trace.best_decision
        reasons += oracle.plan_violations(inst, plan.x, plan.u_hat, best.fixed_values)
        value = oracle.query_value(op.query, inst, plan.x, plan.u_hat)
        if not oracle.close(value, best.f_value, 1e-9):
            reasons.append(f"query objective {best.f_value} != numpy {value}")
        reasons += oracle.readback_violations(
            setup.forest, exo, inst, plan.x, plan.u_hat, best.g_value
        )
    return reasons


# --- measurement -----------------------------------------------------------


@dataclass
class Round:
    """Seconds per operation in one round of the batch."""

    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    scale: float = 1.0  # to the reference speed


def run_rounds(kind, ops, setup, seconds, trace=None):
    """Whole rounds of the batch until ``seconds`` have passed.

    Returns the rounds, the first round's outputs and whether later
    rounds repeated them exactly. Untraced runs sample the machine's
    speed while they measure. With a tracer, each operation runs once
    untraced and once traced, in alternating order, without sampling.
    """
    rounds: list[Round] = []
    first: dict[Op, object] = {}
    repeat_ok = True
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rnd = Round()
        with speed.Sampler(enabled=trace is None) as sampler:
            for pos, op in enumerate(ops):
                modes = (False,) if trace is None else ((False, True) if pos % 2 else (True, False))
                for traced_mode in modes:
                    if traced_mode:
                        trace.op = op.label()
                        trace.active = True
                        trace.begin("op")
                        out = attempt(kind, op, setup)
                        rnd.traced.append(trace.end())
                        trace.active = False
                    else:
                        out, taken = sampler.time(attempt, kind, op, setup)
                        rnd.plain.append(taken)
                    if op not in first:
                        first[op] = out
                    elif fingerprint(kind, out) != fingerprint(kind, first[op]):
                        repeat_ok = False
        rnd.scale = sampler.scale()
        rounds.append(rnd)
    return rounds, first, repeat_ok


def set_up_timed(spec: WorldSpec, repeats: bool):
    """The set-up, several times and under a speed sampler when
    ``repeats``; returns the last set-up, its seconds per repeat and the
    scale to the reference speed."""
    seconds = []
    with speed.Sampler(enabled=repeats) as sampler:
        while not seconds or repeats and len(seconds) < SETUP_MAX_REPEATS and (
            len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_S
        ):
            setup, taken = sampler.time(set_up, spec)
            seconds.append(taken)
    return setup, seconds, sampler.scale()


def timings(setup_seconds, setup_scale, rounds) -> dict[str, float]:
    """Set-up and per-operation seconds, raw and at the reference speed."""
    raw_setup = statistics.median(setup_seconds)
    means = [statistics.fmean(r.plain) for r in rounds]
    return {
        "setup_s": raw_setup * setup_scale,
        "op_s": statistics.median(m * r.scale for m, r in zip(means, rounds)),
        "wall_setup_s": raw_setup,
        "wall_op_s": statistics.median(means),
        "calibration_s": speed.REFERENCE_S / setup_scale,
    }


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def end_to_end(times, checked, peak_mb) -> dict:
    return {
        "setup_s": (times["setup_s"], "s"),
        "op_s": (times["op_s"], "s"),
        "bb_nodes": (checked.nodes, "count"),
        "lp_iterations": (checked.lp_iterations, "count"),
        "peak_rss_mb": (peak_mb, "MB"),
        "profit_kept": (_mean(checked.kept), "ratio"),
        "plan_score": (_mean(checked.scores), "ratio"),
    }


def per_layer(setup, tr, n_ops, all_rounds) -> dict:
    """Layer self seconds per operation and counts per round, in wall
    seconds; the tracing overhead compares traced and untraced
    operations of the same rounds."""
    rounds = len(all_rounds)
    absent = tr.absent_layers()

    def per_op(layer):
        return 0.0 if layer in absent else tr.self_s[layer] / (n_ops * rounds)

    def per_round(value):
        return value / rounds

    def mean(key, layer):
        return tr.count[key] / tr.calls[layer] if tr.calls[layer] else 0.0

    interior = sum(t.count_nodes()[0] for t in setup.forest.trees)
    plain = statistics.median(statistics.fmean(r.plain) for r in all_rounds)
    traced = statistics.median(statistics.fmean(r.traced) for r in all_rounds)
    return {
        "synth.generate_s": (setup.seconds["synth"], "s"),
        "forest.train_s": (setup.seconds["train"], "s"),
        "forest.interior_nodes": (interior, "count"),
        "history.solve_s": (setup.seconds["history"], "s"),
        "agent.self_s": (per_op("agent"), "s"),
        "agent.iterations": (per_round(tr.count["agent.iterations"]), "count"),
        "agent.retries": (per_round(tr.count["agent.retries"]), "count"),
        "indicator.generate_s": (per_op("indicator"), "s"),
        "guide.propose_s": (per_op("guide"), "s"),
        "fix.fix_s": (per_op("fix"), "s"),
        "model.build_s": (per_op("model"), "s"),
        "model.columns": (mean("model.columns", "model"), "count"),
        "model.rows": (mean("model.rows", "model"), "count"),
        "model.binaries": (mean("model.binaries", "model"), "count"),
        "model.nonzeros": (mean("model.nonzeros", "model"), "count"),
        "lex.self_s": (per_op("lex"), "s"),
        "lex.stage1_s": (tr.stage_s["stage1"] / (n_ops * rounds), "s"),
        "lex.stage2_s": (tr.stage_s["stage2"] / (n_ops * rounds), "s"),
        "lex.fallbacks": (per_round(tr.count["lex.fallbacks"]), "count"),
        "reduce.s": (per_op("reduce"), "s"),
        "reduce.kept_columns": (mean("reduce.kept_columns", "reduce"), "count"),
        "propagate.s": (per_op("propagate"), "s"),
        "propagate.calls": (per_round(tr.calls["propagate"]), "count"),
        "lp.highs_s": (per_op("lp.highs"), "s"),
        "lp.highs_calls": (per_round(tr.calls["lp.highs"]), "count"),
        "lp.simplex_s": (per_op("lp.simplex"), "s"),
        "lp.simplex_calls": (per_round(tr.calls["lp.simplex"]), "count"),
        "bnb.self_s": (per_op("bnb"), "s"),
        "bnb.nodes": (per_round(tr.count["bnb.nodes"]), "count"),
        "cuts.separate_s": (per_op("cuts"), "s"),
        "cuts.calls": (per_round(tr.calls["cuts"]), "count"),
        "cuts.added": (per_round(tr.count["cuts.added"]), "count"),
        "trace.unattributed_s": (per_op("op"), "s"),
        "trace.op_s": (traced, "s"),
        "trace.untraced_op_s": (plain, "s"),
        "trace.overhead": (traced / plain - 1.0, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    world_name, kind = WORKLOADS[args.workload]
    spec = WORLDS[world_name]

    global_reasons = selftest.run()
    setup, setup_seconds, setup_scale = set_up_timed(spec, repeats=not args.trace)
    ops = make_ops(kind, setup, spec, args.seed)

    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
    try:
        all_rounds, outputs, repeat_ok = run_rounds(kind, ops, setup, args.seconds, tr)
    finally:
        if tr is not None:
            tr.uninstall()
    rounds = len(all_rounds)

    checked = check_outputs(kind, ops, outputs, setup)
    global_reasons += checked.global_reasons
    if not repeat_ok:
        global_reasons.append("a later round did not repeat the first round's outputs")
    failed_ops = [op for op in ops if checked.reasons[op]]
    unexpected = [
        (op, m) for op in failed_ops for m in checked.reasons[op]
        if not m.startswith(oracle.PROFIT_READBACK)
    ]
    for op in sorted(failed_ops, key=Op.label):
        for message in checked.reasons[op]:
            print(f"failed: {op.label()}: {message}")
    for message in global_reasons:
        print(f"check: {message}")
    correct = not unexpected and not global_reasons
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    times = timings(setup_seconds, setup_scale, all_rounds)
    if tr is None:
        metrics = end_to_end(times, checked, peak_mb)
    else:
        metrics = per_layer(setup, tr, len(ops), all_rounds)
        if tr.absent:
            print("absent layers (hook not found): " + ", ".join(tr.absent))
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    if tr is not None:
        tr.dump(stem + "-spans.json")
    result = {
        "correct": correct,
        "attempted": len(ops) * rounds,
        "failed": len(failed_ops) * rounds,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, rounds=rounds, times=times), fh, indent=2)
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    print("wall seconds before rescaling: " + ", ".join(
        f"{name} {value:.6g}" for name, value in times.items() if name.startswith("wall")
    ) + f"; calibration block {times['calibration_s']:.6g} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
