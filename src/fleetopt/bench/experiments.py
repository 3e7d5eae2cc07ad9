"""Benchmark harness: fixing efficiency, cut comparisons, generation accuracy.

Reports separate deterministic content from wall-clock measurements:
``report.json``/``report.csv``/``report.md`` carry objective values,
gaps and deterministic work counts (nodes, LP iterations) and are
byte-reproducible for a given seed and config; measured seconds go to
the ``timings.csv`` sidecar, which is the one file expected to differ
between runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..agent.guides import GuideContext, most_sensitive
from ..agent.indicator import indicator_generate
from ..agent.loop import build_agent_model, fixing_values
from ..agent.types import AgentConfig, HistoryStore
from ..dsl.catalog import find_entry, linear_entries, nonlinear_entries
from ..dsl.similarity import result_similarity, text_similarity
from ..forest import Forest
from ..mip.problem import OPTIMAL
from ..mip.solver import (
    SolveConfig,
    clear_stage1_memo,
    fix_variables,
    lexicographic_solve,
)
from .synth import World

GAP_GUARD = 1e-12


@dataclass
class BenchConfig:
    seed: int = 0
    eval_days: int = 5
    queries: tuple[str, ...] = (
        "Number of pre-allocated taxis",
        "Average travel price of taxis",
        "Service level of taxis",
        "Scheduled taxi response time",
    )
    fixed_counts: tuple[int, ...] | None = None  # default: 0/25/50/75% of n
    repetitions: int = 10
    prompt_counts_linear: tuple[int, ...] = (0, 5, 10, 15)
    prompt_counts_nonlinear: tuple[int, ...] = (0, 1, 2, 3)
    solve: SolveConfig = field(default_factory=SolveConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    record_wall_time: bool = True


@dataclass
class BenchReport:
    kind: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)  # deterministic content
    aggregates: list[dict] = field(default_factory=list)
    timing_columns: list[str] = field(default_factory=list)
    timings: list[dict] = field(default_factory=list)  # wall-clock sidecar
    notes: list[str] = field(default_factory=list)

    # --- serialization ---

    def _clean(self, value):
        if isinstance(value, float):
            if math.isnan(value):
                return None
            return round(value, 9)
        return value

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "kind": self.kind,
            "columns": self.columns,
            "rows": [
                {k: self._clean(v) for k, v in row.items()} for row in self.rows
            ],
            "aggregates": [
                {k: self._clean(v) for k, v in row.items()} for row in self.aggregates
            ],
            "notes": self.notes,
        }

    def _csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.columns, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: self._clean(row.get(k)) for k in self.columns})
        return buf.getvalue()

    def _md_text(self) -> str:
        def table(rows, columns):
            if not rows:
                return "(no rows)\n"
            head = "| " + " | ".join(columns) + " |"
            sep = "| " + " | ".join("---" for _ in columns) + " |"
            body = []
            for row in rows:
                cells = []
                for col in columns:
                    val = self._clean(row.get(col))
                    if isinstance(val, float):
                        cells.append(f"{val:.4f}")
                    elif val is None:
                        cells.append("--")
                    else:
                        cells.append(str(val))
                body.append("| " + " | ".join(cells) + " |")
            return "\n".join([head, sep] + body) + "\n"

        parts = [f"# {self.kind} report", ""]
        parts.append(table(self.rows, self.columns))
        if self.aggregates:
            parts.append("## Aggregates")
            parts.append(table(self.aggregates, list(self.aggregates[0].keys())))
        if self.notes:
            parts.append("## Notes")
            parts.extend(f"- {note}" for note in self.notes)
        return "\n".join(parts) + "\n"

    def write(self, out_dir: str, record_wall_time: bool = True) -> dict[str, str]:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        base = os.path.join(out_dir, f"{self.kind}_report")
        with open(base + ".json", "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["json"] = base + ".json"
        with open(base + ".csv", "w") as fh:
            fh.write(self._csv_text())
        paths["csv"] = base + ".csv"
        with open(base + ".md", "w") as fh:
            fh.write(self._md_text())
        paths["md"] = base + ".md"
        if record_wall_time and self.timings:
            tpath = os.path.join(out_dir, f"{self.kind}_timings.csv")
            with open(tpath, "w", newline="") as fh:
                writer = csv.DictWriter(
                    fh, fieldnames=self.timing_columns, lineterminator="\n"
                )
                writer.writeheader()
                for row in self.timings:
                    writer.writerow(row)
            paths["timings"] = tpath
        return paths


def _oriented_gap_pct(full: float, agent: float, sense: str) -> float:
    """Percent shortfall of the reduced solve relative to the full one,
    positive when the full model did better. Near-zero references fall
    back to the absolute difference."""
    diff = full - agent if sense == "max" else agent - full
    denom = abs(full)
    if denom < GAP_GUARD:
        denom = 1.0
    return 100.0 * diff / denom


def pick_eval_days(world: World, history: HistoryStore, n: int, seed: int) -> list[int]:
    """Seeded sample of days that did not feed the history store."""
    used = {r.date for r in history.records}
    candidates = [i for i, d in enumerate(world.days) if d.date not in used]
    if not candidates:
        candidates = list(range(len(world.days)))
    rng = np.random.default_rng(seed)
    n = min(n, len(candidates))
    picked = rng.choice(len(candidates), size=n, replace=False)
    return sorted(candidates[int(i)] for i in picked)


def run_efficiency_experiment(
    world: World,
    forest: Forest,
    history: HistoryStore,
    cfg: BenchConfig,
    out_dir: str | None = None,
) -> BenchReport:
    """Fixed-variable-count sweep against the FULL model.

    The FULL bi-objective solve is done once per (day, query) and every
    fixed count is compared against it: primary/secondary objective
    gaps, node and LP-iteration counts, and wall times (sidecar). Each
    timed solve starts from an empty stage-1 memo, so every time
    includes the stage-1 search of its own model.
    """
    days = pick_eval_days(world, history, cfg.eval_days, cfg.seed)
    n_vars = len(history.variable_names)
    if cfg.fixed_counts is None:
        fixed_counts = tuple(
            sorted({0, int(0.25 * n_vars), int(0.5 * n_vars), int(0.75 * n_vars)})
        )
    else:
        fixed_counts = cfg.fixed_counts
    columns = [
        "scenario", "date", "fixed_count",
        "rf_obj_full", "rf_obj_agent", "rf_gap_pct",
        "qr_obj_full", "qr_obj_agent", "qr_gap_pct",
        "nodes_full", "nodes_agent", "lp_iters_full", "lp_iters_agent",
        "status",
    ]
    report = BenchReport(
        kind="efficiency",
        columns=columns,
        timing_columns=[
            "scenario", "date", "fixed_count", "time_full_s", "time_agent_s",
            "time_gap_s", "time_gap_pct",
        ],
    )
    for query in cfg.queries:
        entry = find_entry(query)
        if entry is None:
            report.notes.append(f"query not in catalog, skipped: {query}")
            continue
        for day in days:
            instance = world.instance(day)
            exogenous = world.days[day].exogenous()
            indicator = indicator_generate(query, instance, guide="deterministic")
            try:
                mip, canonical, grid = build_agent_model(
                    instance, forest, exogenous, indicator.ast, cfg.agent
                )
            except Exception as err:  # record and continue with other cells
                report.notes.append(f"{query} @ {world.days[day].date}: {err}")
                continue
            f_sense = indicator.ast.sense
            clear_stage1_memo()
            t0 = time.perf_counter()
            full = lexicographic_solve(mip, cfg.solve)
            full_time = time.perf_counter() - t0
            if full.status != OPTIMAL:
                report.notes.append(
                    f"{query} @ {world.days[day].date}: FULL status {full.status}"
                )
                continue
            baseline = history.baseline_decision(instance)
            for count in fixed_counts:
                context = GuideContext(
                    query=query,
                    instance=instance,
                    history=history,
                    canonical=canonical,
                    iteration=1,
                    previous_active=(),
                    previous_score=0.0,
                )
                # exactly ``count`` fixed, at least one left active
                keep = set(most_sensitive(context, n_vars - max(0, min(count, n_vars - 1))))
                fixed_names = [n for n in history.variable_names if n not in keep]
                values = fixing_values(fixed_names, baseline, instance, grid)
                # fixing none leaves the full model's bytes, so without a
                # cold memo this solve would reuse the full solve's stage 1
                clear_stage1_memo()
                t0 = time.perf_counter()
                reduced = fix_variables(mip, values)
                agent_sol = lexicographic_solve(reduced, cfg.solve)
                agent_time = time.perf_counter() - t0
                row = {
                    "scenario": query,
                    "date": world.days[day].date,
                    "fixed_count": count,
                    "rf_obj_full": full.objective_value,
                    "qr_obj_full": full.secondary_value,
                    "nodes_full": full.node_count,
                    "lp_iters_full": full.lp_iterations,
                    "status": agent_sol.status,
                }
                if agent_sol.status == OPTIMAL:
                    row.update(
                        {
                            "rf_obj_agent": agent_sol.objective_value,
                            "rf_gap_pct": _oriented_gap_pct(
                                full.objective_value, agent_sol.objective_value, "max"
                            ),
                            "qr_obj_agent": agent_sol.secondary_value,
                            "qr_gap_pct": _oriented_gap_pct(
                                full.secondary_value,
                                agent_sol.secondary_value,
                                f_sense,
                            ),
                            "nodes_agent": agent_sol.node_count,
                            "lp_iters_agent": agent_sol.lp_iterations,
                        }
                    )
                else:
                    row.update(
                        {
                            "rf_obj_agent": None,
                            "rf_gap_pct": None,
                            "qr_obj_agent": None,
                            "qr_gap_pct": None,
                            "nodes_agent": agent_sol.node_count,
                            "lp_iters_agent": agent_sol.lp_iterations,
                        }
                    )
                report.rows.append(row)
                report.timings.append(
                    {
                        "scenario": query,
                        "date": world.days[day].date,
                        "fixed_count": count,
                        "time_full_s": round(full_time, 6),
                        "time_agent_s": round(agent_time, 6),
                        "time_gap_s": round(full_time - agent_time, 6),
                        "time_gap_pct": round(
                            100.0 * (full_time - agent_time) / max(full_time, 1e-9), 3
                        ),
                    }
                )
    # bucket aggregates per fixed count
    for count in sorted({row["fixed_count"] for row in report.rows}):
        bucket = [
            r
            for r in report.rows
            if r["fixed_count"] == count and r["rf_gap_pct"] is not None
        ]
        if not bucket:
            continue
        report.aggregates.append(
            {
                "fixed_count": count,
                "cells": len(bucket),
                "mean_rf_gap_pct": float(
                    np.mean([r["rf_gap_pct"] for r in bucket])
                ),
                "mean_qr_gap_pct": float(
                    np.mean([r["qr_gap_pct"] for r in bucket])
                ),
                "mean_nodes_agent": float(
                    np.mean([r["nodes_agent"] for r in bucket])
                ),
                "mean_nodes_full": float(np.mean([r["nodes_full"] for r in bucket])),
                "mean_lp_iters_agent": float(
                    np.mean([r["lp_iters_agent"] for r in bucket])
                ),
                "mean_lp_iters_full": float(
                    np.mean([r["lp_iters_full"] for r in bucket])
                ),
            }
        )
    if out_dir:
        report.write(out_dir, record_wall_time=cfg.record_wall_time)
    return report


CUT_FAMILIES = (
    ("NoCuts", SolveConfig(gomory=False)),
    ("GomoryCuts", SolveConfig(gomory=True)),
    ("CoverCuts", SolveConfig(gomory=False, cover=True)),
    ("GomoryAndCoverCuts", SolveConfig(gomory=True, cover=True)),
)


def run_cuts_experiment(
    world: World,
    forest: Forest,
    history: HistoryStore,
    cfg: BenchConfig,
    query: str = "Number of pre-allocated taxis",
    out_dir: str | None = None,
) -> BenchReport:
    """Cut-family toggles on the bi-objective model, NoCuts as baseline.

    Proven optima must agree across rows; the report carries per-family
    objective gaps (expected zero), node/iteration deltas and cut
    counts, with wall-clock deltas in the sidecar. Each timed solve
    starts from an empty stage-1 memo, as in the efficiency experiment.
    """
    days = pick_eval_days(world, history, cfg.eval_days, cfg.seed)
    columns = [
        "cuts", "date", "rf_obj", "qr_obj", "rf_gap_pct", "qr_gap_pct",
        "nodes", "node_delta", "lp_iters", "lp_iter_delta",
        "gomory_added", "cover_added", "status",
    ]
    report = BenchReport(
        kind="cuts",
        columns=columns,
        timing_columns=["cuts", "date", "time_s", "time_gap_s", "time_gap_pct"],
    )
    entry = find_entry(query)
    if entry is None:
        raise ValueError(f"query not in catalog: {query}")
    per_family_rows: dict[str, list[dict]] = {name: [] for name, _ in CUT_FAMILIES}
    for day in days:
        instance = world.instance(day)
        exogenous = world.days[day].exogenous()
        indicator = indicator_generate(query, instance, guide="deterministic")
        mip, canonical, grid = build_agent_model(
            instance, forest, exogenous, indicator.ast, cfg.agent
        )
        f_sense = indicator.ast.sense
        baseline_row = None
        for name, base_cfg in CUT_FAMILIES:
            solve_cfg = replace(cfg.solve, gomory=base_cfg.gomory, cover=base_cfg.cover)
            clear_stage1_memo()
            t0 = time.perf_counter()
            sol = lexicographic_solve(mip, solve_cfg)
            elapsed = time.perf_counter() - t0
            row = {
                "cuts": name,
                "date": world.days[day].date,
                "rf_obj": sol.objective_value,
                "qr_obj": sol.secondary_value,
                "nodes": sol.node_count,
                "lp_iters": sol.lp_iterations,
                "gomory_added": sol.cut_counts.get("gomory", 0),
                "cover_added": sol.cut_counts.get("cover", 0),
                "status": sol.status,
            }
            timing = {"cuts": name, "date": world.days[day].date,
                      "time_s": round(elapsed, 6)}
            if baseline_row is None:
                baseline_row = dict(row)
                baseline_row["time_s"] = elapsed
                row["rf_gap_pct"] = 0.0
                row["qr_gap_pct"] = 0.0
                row["node_delta"] = 0
                row["lp_iter_delta"] = 0
                timing["time_gap_s"] = 0.0
                timing["time_gap_pct"] = 0.0
            else:
                row["rf_gap_pct"] = _oriented_gap_pct(
                    baseline_row["rf_obj"], sol.objective_value, "max"
                )
                row["qr_gap_pct"] = _oriented_gap_pct(
                    baseline_row["qr_obj"], sol.secondary_value, f_sense
                )
                row["node_delta"] = sol.node_count - baseline_row["nodes"]
                row["lp_iter_delta"] = sol.lp_iterations - baseline_row["lp_iters"]
                gap_s = baseline_row["time_s"] - elapsed
                timing["time_gap_s"] = round(gap_s, 6)
                timing["time_gap_pct"] = round(
                    100.0 * gap_s / max(baseline_row["time_s"], 1e-9), 3
                )
            report.rows.append(row)
            report.timings.append(timing)
            per_family_rows[name].append(row)
    for name, rows in per_family_rows.items():
        if not rows:
            continue
        report.aggregates.append(
            {
                "cuts": name,
                "cells": len(rows),
                "mean_rf_gap_pct": float(np.mean([r["rf_gap_pct"] for r in rows])),
                "mean_qr_gap_pct": float(np.mean([r["qr_gap_pct"] for r in rows])),
                "mean_node_delta": float(np.mean([r["node_delta"] for r in rows])),
                "mean_lp_iter_delta": float(
                    np.mean([r["lp_iter_delta"] for r in rows])
                ),
                "total_gomory": int(sum(r["gomory_added"] for r in rows)),
                "total_cover": int(sum(r["cover_added"] for r in rows)),
            }
        )
    if out_dir:
        report.write(out_dir, record_wall_time=cfg.record_wall_time)
    return report


def run_accuracy_experiment(
    instance,
    cfg: BenchConfig,
    guide: str = "deterministic",
    client=None,
    linear: bool = True,
    out_dir: str | None = None,
) -> BenchReport:
    """Objective-generation accuracy versus the catalog ground truth.

    For each few-shot prompt count, queries inside the prompt are the
    in-sample set and the rest are out-of-sample; each query runs
    ``repetitions`` times and similarity to the ground truth is
    averaged. The deterministic guide is noise-free, so repetition is
    only informative with a chat guide; the table keeps the same shape
    either way.
    """
    entries = linear_entries() if linear else nonlinear_entries()
    prompt_counts = cfg.prompt_counts_linear if linear else cfg.prompt_counts_nonlinear
    columns = [
        "prompts", "in_sample_result", "in_sample_text",
        "out_sample_result", "out_sample_text",
    ]
    kind = "accuracy_linear" if linear else "accuracy_nonlinear"
    report = BenchReport(kind=kind, columns=columns)
    for count in prompt_counts:
        count = min(count, len(entries))
        few_shot_entries = entries[:count]
        in_sample = list(few_shot_entries)
        out_sample = [e for e in entries if e not in in_sample]
        scores = {"in": {"text": [], "result": []}, "out": {"text": [], "result": []}}
        for bucket, rows in (("in", in_sample), ("out", out_sample)):
            for entry in rows:
                truth_ast = entry.ast()
                for _ in range(cfg.repetitions):
                    try:
                        # the whole family is always matchable; the count only
                        # controls how many pairs a chat guide sees in-prompt
                        result = indicator_generate(
                            entry.query,
                            instance,
                            guide=guide,
                            client=client,
                            few_shot_n=count,
                            catalog=tuple(entries),
                        )
                    except Exception as err:
                        report.notes.append(f"{entry.query}: {err}")
                        scores[bucket]["text"].append(0.0)
                        scores[bucket]["result"].append(0.0)
                        continue
                    scores[bucket]["text"].append(
                        text_similarity(result.source, entry.source)
                    )
                    scores[bucket]["result"].append(
                        result_similarity(result.ast, truth_ast, instance)
                    )
        row = {"prompts": count}
        row["in_sample_result"] = (
            float(np.mean(scores["in"]["result"])) if scores["in"]["result"] else None
        )
        row["in_sample_text"] = (
            float(np.mean(scores["in"]["text"])) if scores["in"]["text"] else None
        )
        row["out_sample_result"] = (
            float(np.mean(scores["out"]["result"])) if scores["out"]["result"] else None
        )
        row["out_sample_text"] = (
            float(np.mean(scores["out"]["text"])) if scores["out"]["text"] else None
        )
        report.rows.append(row)
    if out_dir:
        report.write(out_dir, record_wall_time=cfg.record_wall_time)
    return report
