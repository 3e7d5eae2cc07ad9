"""The fix-and-resolve iteration and its satisfaction scoring.

Each pass asks the guide which decision variables to keep active,
pins the rest to historical averages, solves the reduced bi-objective
model lexicographically (predicted profit first, the query objective
second) and scores the result against the all-historical-average
baseline, evaluating the query on the canonical form the model's
secondary is lowered from. The loop runs while the score improves by
more than round-off (:data:`SCORE_TOL`, relative to the score it must
beat), up to the iteration cap, and keeps the best-scoring decision
seen.

A manager puts several queries to one day, and the day's profit model
(the forest embedded over the fleet constraints, :func:`.build_feature_mip`)
does not depend on the query. :func:`build_agent_model` therefore takes
it from a module LRU memo of :data:`DAY_MODEL_MEMO_SIZE` day models,
keyed by the exact inputs of the build: the forest by identity, every
:class:`.FleetInstance` field and the exogenous values as bytes, and the
price grid. Each call installs its query on a copy of the kept model;
the kept model itself is never handed out. A copy shares the stated
rows, which are never changed in place, so the level schedule one
query's solve builds serves the next, and every model is the one a
fresh build gives, bit for bit. :func:`clear_day_model_memo` empties
the memo.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import fields, replace

import numpy as np

from ..dsl.analysis import canonicalize
from ..dsl.lower import lower_to_mip
from ..dsl.parser import ObjectiveAst
from ..fleet import Decision, FleetInstance, PriceGrid, decision_values
from ..fleet_mip import build_feature_mip, decision_from_solution
from ..forest import Forest
from ..mip.problem import INFEASIBLE, MipProblem
from ..mip.solver import STOPPED_WITH_POINT, fix_variables, lexicographic_solve
from .guides import FELL_BACK, DeterministicGuide, GuideContext, LlmGuide
from .indicator import IndicatorResult, check_guide, indicator_generate
from .types import (
    AgentConfig,
    AgentTrace,
    GuideProposal,
    HistoryStore,
    IterationRecord,
)

SCORE_ZERO_GUARD = 1e-9
# A score beats another only by more than this share of the larger of 1
# and the other's magnitude: query values summed in different orders
# differ in their last bits, and a change that small is no improvement.
SCORE_TOL = 1e-9


def relative_improvement(sense: str, f_new: float, f_hist: float) -> float:
    """Signed relative improvement of a query value on its historical one.

    Oriented by the objective's sense so that positive always means
    better; with a near-zero historical value the absolute improvement
    is returned instead of a ratio.
    """
    improvement = f_new - f_hist if sense == "max" else f_hist - f_new
    if abs(f_hist) < SCORE_ZERO_GUARD:
        return improvement
    return improvement / abs(f_hist)


def _beats(score: float, reference: float) -> bool:
    """True when ``score`` improves on ``reference`` by more than round-off."""
    return score > reference + SCORE_TOL * max(1.0, abs(reference))


def needs_price_grid(canonical) -> bool:
    """True when the objective carries fare-allocation products."""
    return any(len(tokens) == 2 for _, tokens in canonical.monomials)


# Day models, least recently used first, each with the forest it was
# built from. The benchmark's cuts-small round keeps 10 day models in
# play and the efficiency experiment visits at most 5 days per query,
# the most of any caller; the capacity leaves room above both.
DAY_MODEL_MEMO_SIZE = 16
_day_model_memo: OrderedDict[tuple, tuple[Forest, MipProblem]] = OrderedDict()


def clear_day_model_memo() -> None:
    """Forget every day model the memo keeps, so that the next
    :func:`build_agent_model` of each day builds it again."""
    _day_model_memo.clear()


def _day_model_key(
    instance: FleetInstance,
    forest: Forest,
    exogenous: dict[str, float],
    grid: PriceGrid | None,
) -> tuple:
    """The exact inputs of a day model's build.

    The forest by identity (its trees must not change after first use,
    as :attr:`.Forest.flat` already requires), every instance field and
    the exogenous values the schema names, in its order, as bytes with
    their dtype and shape, and the grid, which is frozen and hashable.
    """
    arrays = [np.asarray(getattr(instance, f.name)) for f in fields(instance)]
    arrays.append(np.array(
        [exogenous[name] for name in forest.schema.exogenous_names], dtype=np.float64
    ))
    return (id(forest), grid, *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


def _day_model(
    instance: FleetInstance,
    forest: Forest,
    exogenous: dict[str, float],
    grid: PriceGrid | None,
) -> MipProblem:
    """A copy of the day's profit model, built on the first request."""
    if not all(name in exogenous for name in forest.schema.exogenous_names):
        # the build raises, naming the missing features
        return build_feature_mip(instance, forest, exogenous, grid=grid)
    key = _day_model_key(instance, forest, exogenous, grid)
    found = _day_model_memo.get(key)
    # the entry holds its forest, so no other object can take its id
    if found is not None and found[0] is forest:
        _day_model_memo.move_to_end(key)
        base = found[1]
    else:
        base = build_feature_mip(instance, forest, exogenous, grid=grid)
        _day_model_memo[key] = (forest, base)
        if len(_day_model_memo) > DAY_MODEL_MEMO_SIZE:
            _day_model_memo.popitem(last=False)
    return base.copy()


def build_agent_model(
    instance: FleetInstance,
    forest: Forest,
    exogenous: dict[str, float],
    f_ast: ObjectiveAst,
    cfg: AgentConfig,
):
    """Feature-driven model with the query objective installed as the
    secondary; fares get a grid only when the objective needs products.

    The day's profit model comes from the day-model memo, and the query
    is installed on a copy of it, so each call returns a model of its
    own.
    """
    canonical = canonicalize(f_ast, instance)
    grid = (
        PriceGrid.uniform(instance, cfg.grid_points)
        if needs_price_grid(canonical)
        else None
    )
    mip = _day_model(instance, forest, exogenous, grid)
    lower_to_mip(canonical, mip)
    return mip, canonical, grid


def fixing_values(names, baseline: Decision, instance: FleetInstance) -> dict[str, float]:
    """Values for a set of variables read off the baseline decision, in
    the order of ``names``. On a gridded model the baseline's fares must
    be on the grid already (:meth:`.PriceGrid.snap_decision`)."""
    by_name = decision_values(instance, baseline)
    return {name: by_name[name] for name in names}


def run_agent(
    query: str,
    instance: FleetInstance,
    exogenous: dict[str, float],
    forest: Forest,
    history: HistoryStore,
    cfg: AgentConfig | None = None,
    client=None,
    indicator: IndicatorResult | None = None,
) -> AgentTrace:
    """Run the guided loop end to end and return its trace.

    ``indicator`` short-circuits objective generation when the caller
    already holds a validated objective, so the run starts at the
    fixing loop and a chat guide's client is asked only for fixing
    proposals. An unknown guide kind, or the chat guide without a
    client, raises :class:`.AgentError` either way.
    """
    cfg = cfg or AgentConfig()
    check_guide(cfg.guide, client)
    if indicator is None:
        indicator = indicator_generate(
            query,
            instance,
            guide=cfg.guide,
            client=client,
            few_shot_n=cfg.few_shot,
        )
    f_ast = indicator.ast
    mip, canonical, grid = build_agent_model(instance, forest, exogenous, f_ast, cfg)

    if cfg.guide == "llm":
        guide = LlmGuide(client, schedule=cfg.fixed_fractions)
    else:
        guide = DeterministicGuide(schedule=cfg.fixed_fractions)

    baseline = history.baseline_decision(instance)
    if grid is not None:
        baseline = grid.snap_decision(baseline)
    baseline_f = canonical.evaluate(decision_values(instance, baseline))

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
        values = fixing_values(fixed_names, baseline, instance)
        reduced = fix_variables(mip, values)
        solution = lexicographic_solve(reduced, cfg.solve)
        return values, solution

    t = 0
    score_cur = 0.0
    prev_active: tuple[str, ...] = ()
    while t < cfg.t_max:
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
        # the deterministic guide reads neither the failed proposal nor the
        # notes, so a retry would solve the same model again: its proposal
        # is solved at most once per iteration, and only a chat guide's own
        # reply is re-prompted
        chat_reply = isinstance(guide, LlmGuide) and FELL_BACK not in proposal.notes
        if solution.status == INFEASIBLE and chat_reply:
            # one re-prompt carrying the failure, then the deterministic guide
            notes.append("fix led to an infeasible model; re-prompting once")
            context = replace(
                context,
                previous_active=proposal.keep_active,
                previous_score=None,
                notes=("previous proposal made the model infeasible",),
            )
            proposal = guide.propose(context)
            notes.extend(proposal.notes)
            values, solution = solve_with(proposal)
            if solution.status == INFEASIBLE and FELL_BACK not in proposal.notes:
                notes.append("falling back to the deterministic guide")
                proposal = guide.fallback.propose(context)
                notes.extend(proposal.notes)
                values, solution = solve_with(proposal)
        elif solution.status == INFEASIBLE:
            notes.append("fix led to an infeasible model; the deterministic guide "
                         "has no other proposal")
        g_value = f_value = score = None
        if solution.status in STOPPED_WITH_POINT and solution.values:
            decision = decision_from_solution(instance, mip, solution)
            # the baseline's value is computed once, above
            query_value = canonical.evaluate(decision_values(instance, decision))
            score = relative_improvement(f_ast.sense, query_value, baseline_f)
            g_value, f_value = solution.objective_value, solution.secondary_value
        trace.iterations.append(
            IterationRecord(
                iteration=t,
                active=proposal.keep_active,
                fixed_values=values,
                status=solution.status,
                g_value=g_value,
                f_value=f_value,
                score=score,
                wall_time=time.perf_counter() - started,
                stage1_reused=solution.stage1_reused,
                notes=tuple(notes),
            )
        )
        if score is None:
            break
        if _beats(score, trace.best_score):
            trace.best_score = score
            trace.best_decision = decision
            trace.best_iteration = t
        if not _beats(score, score_cur):
            break
        prev_active = proposal.keep_active
        score_cur = score
    trace.response = response_format(trace, query)
    return trace


def response_format(trace: AgentTrace, query: str) -> str:
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
