"""Benchmark harness: fixing efficiency, cut comparisons, generation accuracy.

Reports separate deterministic content from wall-clock measurements:
``report.json``/``report.csv``/``report.md`` carry objective values,
gaps and deterministic work counts (nodes, LP iterations) and are
byte-reproducible for a given seed and config; measured seconds go to
the ``timings.csv`` sidecar, which is the one file expected to differ
between runs.

One cold-timing rule holds for every timed solve (``_cold_solve``): the
stage-1 memo is emptied just before the timer starts, so each time
includes the stage-1 search of its own model, even where an earlier
solve in the process met the same bytes.
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
from ..dsl.analysis import canonicalize
from ..dsl.catalog import find_entry, linear_entries, nonlinear_entries
from ..dsl.parser import DslError
from ..dsl.similarity import result_similarity, text_similarity
from ..forest import Forest
from ..mip.problem import OPTIMAL, Solution
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

    def write(self, out_dir: str) -> dict[str, str]:
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
        if self.timings:
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


def _oriented_gap_pct(reference: float, value: float, sense: str) -> float:
    """Percent shortfall of ``value`` relative to ``reference``, positive
    when the reference did better. Near-zero references fall back to
    the absolute difference."""
    diff = reference - value if sense == "max" else value - reference
    denom = abs(reference)
    if denom < GAP_GUARD:
        denom = 1.0
    return 100.0 * diff / denom


def _objective_gaps(reference: Solution, sol: Solution, sense: str) -> tuple[float, float]:
    """Primary (always maximized) and secondary percent gaps of ``sol``
    against ``reference``."""
    return (
        _oriented_gap_pct(reference.objective_value, sol.objective_value, "max"),
        _oriented_gap_pct(reference.secondary_value, sol.secondary_value, sense),
    )


def _time_gap(reference_s: float, elapsed_s: float) -> dict:
    """Seconds saved against the reference solve, absolute and percent."""
    gap_s = reference_s - elapsed_s
    return {
        "time_gap_s": round(gap_s, 6),
        "time_gap_pct": round(100.0 * gap_s / max(reference_s, 1e-9), 3),
    }


def _means(rows: list[dict], columns: tuple[str, ...]) -> dict:
    """``mean_<column>`` over ``rows`` for each column."""
    return {f"mean_{col}": float(np.mean([r[col] for r in rows])) for col in columns}


def _cold_solve(solve) -> tuple[Solution, float]:
    """Run ``solve()`` from an empty stage-1 memo: its solution and seconds."""
    clear_stage1_memo()
    t0 = time.perf_counter()
    sol = solve()
    return sol, time.perf_counter() - t0


def _cell_model(world: World, forest: Forest, query: str, day: int, cfg: BenchConfig):
    """The (query, day) cell: its instance, agent model, canonical
    objective, fare grid and secondary sense."""
    instance = world.instance(day)
    ast = indicator_generate(query, instance, guide="deterministic").ast
    mip, canonical, grid = build_agent_model(
        instance, forest, world.days[day].exogenous(), ast, cfg.agent
    )
    return instance, mip, canonical, grid, ast.sense


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
    gaps, node and LP-iteration counts, and wall times (sidecar). A
    fixed solve that is not Optimal keeps its status and counts, has no
    objectives or gaps and stays out of the aggregates.
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
        if find_entry(query) is None:
            report.notes.append(f"query not in catalog, skipped: {query}")
            continue
        for day in days:
            date = world.days[day].date
            try:
                instance, mip, canonical, grid, sense = _cell_model(
                    world, forest, query, day, cfg
                )
            except Exception as err:  # record and continue with other cells
                report.notes.append(f"{query} @ {date}: {err}")
                continue
            full, full_time = _cold_solve(lambda: lexicographic_solve(mip, cfg.solve))
            if full.status != OPTIMAL:
                report.notes.append(f"{query} @ {date}: FULL status {full.status}")
                continue
            baseline = history.baseline_decision(instance)
            if grid is not None:
                baseline = grid.snap_decision(baseline)
            context = GuideContext(
                query=query,
                instance=instance,
                history=history,
                canonical=canonical,
                iteration=1,
                previous_active=(),
                previous_score=0.0,
            )
            for count in fixed_counts:
                # exactly ``count`` fixed, at least one left active
                keep = set(most_sensitive(context, n_vars - max(0, min(count, n_vars - 1))))
                fixed_names = [n for n in history.variable_names if n not in keep]
                values = fixing_values(fixed_names, baseline, instance)
                # fixing none leaves the full model's bytes, so without a
                # cold memo this solve would reuse the full solve's stage 1
                agent_sol, agent_time = _cold_solve(
                    lambda: lexicographic_solve(fix_variables(mip, values), cfg.solve)
                )
                optimal = agent_sol.status == OPTIMAL
                rf_gap, qr_gap = (
                    _objective_gaps(full, agent_sol, sense) if optimal else (None, None)
                )
                report.rows.append(
                    {
                        "scenario": query,
                        "date": date,
                        "fixed_count": count,
                        "rf_obj_full": full.objective_value,
                        "rf_obj_agent": agent_sol.objective_value if optimal else None,
                        "rf_gap_pct": rf_gap,
                        "qr_obj_full": full.secondary_value,
                        "qr_obj_agent": agent_sol.secondary_value if optimal else None,
                        "qr_gap_pct": qr_gap,
                        "nodes_full": full.node_count,
                        "nodes_agent": agent_sol.node_count,
                        "lp_iters_full": full.lp_iterations,
                        "lp_iters_agent": agent_sol.lp_iterations,
                        "status": agent_sol.status,
                    }
                )
                report.timings.append(
                    {
                        "scenario": query,
                        "date": date,
                        "fixed_count": count,
                        "time_full_s": round(full_time, 6),
                        "time_agent_s": round(agent_time, 6),
                        **_time_gap(full_time, agent_time),
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
                **_means(bucket, (
                    "rf_gap_pct", "qr_gap_pct", "nodes_agent", "nodes_full",
                    "lp_iters_agent", "lp_iters_full",
                )),
            }
        )
    if out_dir:
        report.write(out_dir)
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
    """Cut-family toggles on the bi-objective model, the first family
    (NoCuts) as the reference.

    Proven optima must agree across rows; the report carries per-family
    objective gaps (expected zero), node/iteration deltas and cut
    counts, with wall-clock deltas in the sidecar. The reference row is
    compared with itself, so its gaps and deltas are zero.
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
    if find_entry(query) is None:
        raise ValueError(f"query not in catalog: {query}")
    per_family_rows: dict[str, list[dict]] = {name: [] for name, _ in CUT_FAMILIES}
    for day in days:
        date = world.days[day].date
        _, mip, _, _, sense = _cell_model(world, forest, query, day, cfg)
        reference = None
        for name, base_cfg in CUT_FAMILIES:
            solve_cfg = replace(cfg.solve, gomory=base_cfg.gomory, cover=base_cfg.cover)
            sol, elapsed = _cold_solve(lambda: lexicographic_solve(mip, solve_cfg))
            if reference is None:
                reference, reference_time = sol, elapsed
            rf_gap, qr_gap = _objective_gaps(reference, sol, sense)
            row = {
                "cuts": name,
                "date": date,
                "rf_obj": sol.objective_value,
                "qr_obj": sol.secondary_value,
                "rf_gap_pct": rf_gap,
                "qr_gap_pct": qr_gap,
                "nodes": sol.node_count,
                "node_delta": sol.node_count - reference.node_count,
                "lp_iters": sol.lp_iterations,
                "lp_iter_delta": sol.lp_iterations - reference.lp_iterations,
                "gomory_added": sol.cut_counts.get("gomory", 0),
                "cover_added": sol.cut_counts.get("cover", 0),
                "status": sol.status,
            }
            report.rows.append(row)
            report.timings.append(
                {
                    "cuts": name,
                    "date": date,
                    "time_s": round(elapsed, 6),
                    **_time_gap(reference_time, elapsed),
                }
            )
            per_family_rows[name].append(row)
    for name, rows in per_family_rows.items():
        if not rows:
            continue
        report.aggregates.append(
            {
                "cuts": name,
                "cells": len(rows),
                **_means(rows, ("rf_gap_pct", "qr_gap_pct", "node_delta", "lp_iter_delta")),
                "total_gomory": int(sum(r["gomory_added"] for r in rows)),
                "total_cover": int(sum(r["cover_added"] for r in rows)),
            }
        )
    if out_dir:
        report.write(out_dir)
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
    either way. A catalog entry whose objective does not fit the
    instance (say, a charge level it lacks) is noted and left out.
    """
    kind = "accuracy_linear" if linear else "accuracy_nonlinear"
    report = BenchReport(kind=kind, columns=[
        "prompts", "in_sample_result", "in_sample_text",
        "out_sample_result", "out_sample_text",
    ])
    entries = []
    for entry in linear_entries() if linear else nonlinear_entries():
        try:
            canonicalize(entry.ast(), instance)
        except DslError as err:
            report.notes.append(f"{entry.query}: does not fit the instance, skipped: {err}")
            continue
        entries.append(entry)
    entries = tuple(entries)
    prompt_counts = cfg.prompt_counts_linear if linear else cfg.prompt_counts_nonlinear
    for count in prompt_counts:
        count = min(count, len(entries))
        in_sample = entries[:count]
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
                            catalog=entries,
                        )
                        # a chat reply that does not fit the instance is
                        # rejected in indicator_generate, and once its
                        # attempts run out counts as a failed generation
                        result_score = result_similarity(result.ast, truth_ast, instance)
                    except Exception as err:
                        report.notes.append(f"{entry.query}: {err}")
                        scores[bucket]["text"].append(0.0)
                        scores[bucket]["result"].append(0.0)
                        continue
                    scores[bucket]["text"].append(
                        text_similarity(result.source, entry.source)
                    )
                    scores[bucket]["result"].append(result_score)
        row = {"prompts": count}
        for bucket in ("in", "out"):
            for metric in ("result", "text"):
                values = scores[bucket][metric]
                row[f"{bucket}_sample_{metric}"] = float(np.mean(values)) if values else None
        report.rows.append(row)
    if out_dir:
        report.write(out_dir)
    return report
