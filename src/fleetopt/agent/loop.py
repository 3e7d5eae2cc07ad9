"""The fix-and-resolve iteration and its satisfaction scoring.

Each pass asks the guide which decision variables to keep active,
pins the rest to historical averages, solves the reduced bi-objective
model lexicographically (predicted profit first, the query objective
second) and scores the result against the all-historical-average
baseline. The loop runs while the score strictly improves, up to the
iteration cap, and keeps the best-scoring decision seen.
"""

from __future__ import annotations

import time
import numpy as np

from ..dsl.analysis import canonicalize, evaluate
from ..dsl.lower import lower_to_mip
from ..dsl.parser import ObjectiveAst
from ..fleet import Decision, FleetInstance, PriceGrid
from ..fleet_mip import build_feature_mip, decision_from_solution
from ..forest import Forest
from ..mip.problem import INFEASIBLE
from ..mip.solver import STOPPED_WITH_POINT, fix_variables, lexicographic_solve
from .guides import DeterministicGuide, GuideContext, LlmGuide
from .indicator import IndicatorResult, indicator_generate
from .prompts import PromptTemplates
from .types import (
    AgentConfig,
    AgentTrace,
    GuideProposal,
    HistoryStore,
    IterationRecord,
)

SCORE_ZERO_GUARD = 1e-9


def satisfaction_score(
    f_ast: ObjectiveAst,
    instance: FleetInstance,
    decision: Decision,
    baseline: Decision,
) -> float:
    """Signed relative improvement of the query objective.

    Oriented by the objective's sense so that positive always means
    better; with a near-zero baseline value the absolute improvement is
    returned instead of a ratio.
    """
    return relative_improvement(
        f_ast.sense,
        evaluate(f_ast, instance, decision),
        evaluate(f_ast, instance, baseline),
    )


def relative_improvement(sense: str, f_new: float, f_hist: float) -> float:
    """The score of :func:`satisfaction_score` from the two query values."""
    improvement = f_new - f_hist if sense == "max" else f_hist - f_new
    if abs(f_hist) < SCORE_ZERO_GUARD:
        return improvement
    return improvement / abs(f_hist)


def needs_price_grid(canonical) -> bool:
    """True when the objective carries fare-allocation products."""
    return any(len(tokens) == 2 for _, tokens in canonical.monomials)


def build_agent_model(
    instance: FleetInstance,
    forest: Forest,
    exogenous: dict[str, float],
    f_ast: ObjectiveAst,
    cfg: AgentConfig,
):
    """Feature-driven model with the query objective installed as the
    secondary; fares get a grid only when the objective needs products."""
    canonical = canonicalize(f_ast, instance)
    grid = (
        PriceGrid.uniform(instance, cfg.grid_points)
        if needs_price_grid(canonical)
        else None
    )
    mip = build_feature_mip(instance, forest, exogenous, grid=grid)
    lower_to_mip(canonical, mip)
    return mip, canonical, grid


def fixing_values(
    names, baseline: Decision, instance: FleetInstance, grid: PriceGrid | None
) -> dict[str, float]:
    """Values for a set of variables read off the baseline decision."""
    by_name = {}
    for i_pos, i in enumerate(instance.supply_areas):
        for j_pos, j in enumerate(instance.demand_areas):
            for k in range(instance.soc_levels):
                by_name[f"x[{i},{j},{k}]"] = float(baseline.x[i_pos, j_pos, k])
    for j_pos, j in enumerate(instance.demand_areas):
        for k in range(instance.soc_levels):
            value = float(baseline.u_hat[j_pos, k])
            if grid is not None:
                value = grid.snap(j_pos, k, value)
            by_name[f"u_hat[{j},{k}]"] = value
    return {name: by_name[name] for name in names}


def run_agent(
    query: str,
    instance: FleetInstance,
    exogenous: dict[str, float],
    forest: Forest,
    history: HistoryStore,
    cfg: AgentConfig | None = None,
    client=None,
    templates: PromptTemplates | None = None,
    indicator: IndicatorResult | None = None,
) -> AgentTrace:
    """Run the guided loop end to end and return its trace.

    ``indicator`` short-circuits objective generation when the caller
    already holds a validated objective (the benchmark harness reuses
    one across days).
    """
    cfg = cfg or AgentConfig()
    if indicator is None:
        indicator = indicator_generate(
            query,
            instance,
            guide=cfg.guide,
            client=client,
            templates=templates,
            few_shot_n=cfg.few_shot,
        )
    f_ast = indicator.ast
    mip, canonical, grid = build_agent_model(instance, forest, exogenous, f_ast, cfg)

    if cfg.guide == "llm" and client is not None:
        guide = LlmGuide(client, templates, schedule=cfg.fixed_fractions)
    else:
        guide = DeterministicGuide(schedule=cfg.fixed_fractions)
    fallback = DeterministicGuide(schedule=cfg.fixed_fractions)

    baseline = history.baseline_decision(instance)
    if grid is not None:
        snapped = np.array(
            [
                [grid.snap(j_pos, k, float(baseline.u_hat[j_pos, k]))
                 for k in range(instance.soc_levels)]
                for j_pos in range(instance.n_demand)
            ]
        )
        baseline = Decision(x=baseline.x, u_hat=snapped)
    baseline_f = evaluate(f_ast, instance, baseline)

    trace = AgentTrace(
        query=query,
        objective_source=indicator.source,
        objective_sense=f_ast.sense,
        baseline_f=baseline_f,
        best_decision=baseline,
        best_score=0.0,
        best_iteration=0,
        supply_areas=instance.supply_areas,
        demand_areas=instance.demand_areas,
    )
    all_names = tuple(history.variable_names)

    def solve_with(proposal: GuideProposal):
        active = set(proposal.keep_active)
        fixed_names = [n for n in all_names if n not in active]
        values = fixing_values(fixed_names, baseline, instance, grid)
        reduced = fix_variables(mip, values)
        solution = lexicographic_solve(reduced, cfg.solve)
        return values, solution

    t = 0
    score_prev = float("-inf")
    score_cur = 0.0
    prev_active: tuple[str, ...] = ()
    while t < cfg.t_max and score_cur > score_prev:
        t += 1
        started = time.perf_counter()
        context = GuideContext(
            query=query,
            instance=instance,
            history=history,
            canonical=canonical,
            iteration=t,
            previous_active=prev_active,
            previous_score=score_cur,
        )
        proposal = guide.propose(context)
        values, solution = solve_with(proposal)
        notes = list(proposal.notes)
        if solution.status == INFEASIBLE:
            # one re-prompt carrying the failure, then the deterministic guide
            notes.append("fix led to an infeasible model; re-prompting once")
            retry_context = GuideContext(
                query=query,
                instance=instance,
                history=history,
                canonical=canonical,
                iteration=t,
                previous_active=proposal.keep_active,
                previous_score=None,
                notes=("previous proposal made the model infeasible",),
            )
            proposal = guide.propose(retry_context)
            values, solution = solve_with(proposal)
            if solution.status == INFEASIBLE and not isinstance(
                guide, DeterministicGuide
            ):
                notes.append("falling back to the deterministic guide")
                proposal = fallback.propose(retry_context)
                values, solution = solve_with(proposal)
        if solution.status not in STOPPED_WITH_POINT or not solution.values:
            trace.iterations.append(
                IterationRecord(
                    iteration=t,
                    active=proposal.keep_active,
                    fixed_values=values,
                    status=solution.status,
                    wall_time=time.perf_counter() - started,
                    stage1_reused=solution.stage1_reused,
                    notes=tuple(notes),
                )
            )
            break
        decision = decision_from_solution(instance, mip, solution)
        # the baseline's value is computed once, above
        score = relative_improvement(
            f_ast.sense, evaluate(f_ast, instance, decision), baseline_f
        )
        record = IterationRecord(
            iteration=t,
            active=proposal.keep_active,
            fixed_values=values,
            status=solution.status,
            g_value=solution.objective_value,
            f_value=solution.secondary_value,
            score=score,
            wall_time=time.perf_counter() - started,
            stage1_reused=solution.stage1_reused,
            notes=tuple(notes),
        )
        trace.iterations.append(record)
        if score > trace.best_score:
            trace.best_score = score
            trace.best_decision = decision
            trace.best_iteration = t
        prev_active = proposal.keep_active
        score_prev, score_cur = score_cur, score
    trace.response = response_format(trace, f_ast, query)
    return trace


def response_format(trace: AgentTrace, f_ast: ObjectiveAst, query: str) -> str:
    """Readable summary of a finished run; purely templated."""
    lines = [f"Request: {query}"]
    lines.append(f"Objective used: {trace.objective_source}")
    n_iter = len(trace.iterations)
    lines.append(f"Iterations run: {n_iter}")
    if trace.best_iteration == 0 or trace.best_decision is None:
        lines.append(
            "No plan beat the historical baseline, so the historical average "
            "decision is retained."
        )
        return "\n".join(lines)
    pct = 100.0 * trace.best_score
    lines.append(
        f"Best plan found at iteration {trace.best_iteration} improves the "
        f"objective by {pct:.2f}% over the historical baseline."
    )
    x = trace.best_decision.x

    def supply_label(i):
        return trace.supply_areas[i] if trace.supply_areas else i

    def demand_label(j):
        return trace.demand_areas[j] if trace.demand_areas else j

    moves = []
    flat = [
        (int(x[i, j, k]), i, j, k)
        for i in range(x.shape[0])
        for j in range(x.shape[1])
        for k in range(x.shape[2])
        if x[i, j, k] > 0
    ]
    for count, i, j, k in sorted(flat, reverse=True)[:5]:
        moves.append(
            f"  move {count} taxi{'s' if count != 1 else ''} "
            f"(charge level {k}) from area {supply_label(i)} to area {demand_label(j)}"
        )
    if moves:
        lines.append("Top repositioning moves:")
        lines.extend(moves)
    else:
        lines.append("No repositioning is needed.")
    fares = trace.best_decision.u_hat
    lines.append("Fares per demand area (rows) and charge level (columns):")
    for j in range(fares.shape[0]):
        row = " ".join(f"{fares[j, k]:7.2f}" for k in range(fares.shape[1]))
        lines.append(f"  area {demand_label(j)}: {row}")
    return "\n".join(lines)
