"""Variable-selection guides for the fix-and-resolve loop.

The deterministic guide ranks variables by how much they moved across
the historical optima (normalized standard deviation) plus a bonus for
appearing in the query objective, then keeps the top share prescribed
by the iteration's fixing schedule. The chat-backed guide asks for a
JSON name list, drops unknown names, and falls back to the
deterministic ranking when the reply is unusable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..dsl.analysis import CanonicalForm
from ..fleet import FleetInstance
from .llm import LlmError, extract_json_array
from .prompts import CHAT_ATTEMPTS, render_tailor
from .types import GuideProposal, HistoryStore

OBJECTIVE_BONUS = 0.5
# The note a chat guide's proposal carries when it is the deterministic one.
FELL_BACK = "fell back to the deterministic guide"


@dataclass
class GuideContext:
    query: str
    instance: FleetInstance
    history: HistoryStore
    canonical: CanonicalForm  # of the query objective
    iteration: int  # 1-based
    previous_active: tuple[str, ...]
    previous_score: float | None
    notes: tuple[str, ...] = ()


def objective_tokens(canonical: CanonicalForm) -> set[str]:
    """Decision tokens the objective touches, including inside abs()."""
    tokens: set[str] = set()
    for _, key in canonical.monomials:
        for tok in key:
            if tok.startswith("|"):
                for inner, _c in canonical.abs_form(tok)[0]:
                    tokens.add(inner)
            else:
                tokens.add(tok)
    return tokens


def fixed_fraction(schedule: tuple[float, ...], iteration: int) -> float:
    """Share of variables to fix at a 1-based iteration; the schedule's
    last entry carries forward when iterations outrun it."""
    if not schedule:
        return 0.0
    idx = min(iteration, len(schedule)) - 1
    return float(schedule[idx])


def keep_count(schedule: tuple[float, ...], context: GuideContext) -> int:
    """How many variables stay active at the context's iteration: at
    least one, and the share the schedule does not fix, rounded up."""
    rho = fixed_fraction(schedule, context.iteration)
    return max(1, math.ceil((1.0 - rho) * len(context.history.variable_names)))


def sensitivity_scores(context: GuideContext) -> dict[str, float]:
    stats = context.history.stats(context.instance)
    stds = {name: s["std"] for name, s in stats.items()}
    top = max(stds.values(), default=0.0)
    in_objective = objective_tokens(context.canonical)
    scores = {}
    for name in context.history.variable_names:
        base = stds[name] / top if top > 0 else 0.0
        scores[name] = base + (OBJECTIVE_BONUS if name in in_objective else 0.0)
    return scores


def most_sensitive(context: GuideContext, keep: int) -> tuple[str, ...]:
    """The ``keep`` highest-scoring variables, ties to the earlier name,
    in name order."""
    names = context.history.variable_names
    scores = sensitivity_scores(context)
    order = sorted(range(len(names)), key=lambda p: (-scores[names[p]], p))
    return tuple(names[p] for p in sorted(order[:keep]))


class DeterministicGuide:
    """Offline guide: highest-score variables stay active."""

    def __init__(self, schedule: tuple[float, ...] = (0.25, 0.50, 0.75)):
        self.schedule = tuple(schedule)

    def propose(self, context: GuideContext) -> GuideProposal:
        rho = fixed_fraction(self.schedule, context.iteration)
        return GuideProposal(
            keep_active=most_sensitive(context, keep_count(self.schedule, context)),
            rationale=(
                f"iteration {context.iteration}: fixing {rho:.0%} lowest-"
                "sensitivity variables by historical spread"
            ),
        )


class LlmGuide:
    """Chat-backed guide with validation and deterministic fallback."""

    def __init__(self, client, schedule: tuple[float, ...] = (0.25, 0.50, 0.75)):
        self.client = client
        self.fallback = DeterministicGuide(schedule)

    def propose(self, context: GuideContext) -> GuideProposal:
        names = set(context.history.variable_names)
        stats = context.history.stats(context.instance)
        messages = render_tailor(
            context.query,
            context.iteration,
            keep_count(self.fallback.schedule, context),
            stats,
            context.previous_active,
            context.previous_score,
        )
        notes: list[str] = list(context.notes)
        for attempt in range(CHAT_ATTEMPTS):
            try:
                reply = self.client.complete(messages)
            except LlmError as err:
                notes.append(f"transport failure: {err}")
                break
            parsed = extract_json_array(reply)
            if parsed is None or not isinstance(parsed, list):
                notes.append(f"attempt {attempt + 1}: reply carried no JSON array")
                messages = messages + [
                    {"role": "assistant", "content": reply},
                    {
                        "role": "user",
                        "content": "Reply with only a JSON array of variable names.",
                    },
                ]
                continue
            valid = [n for n in parsed if isinstance(n, str) and n in names]
            unknown = [n for n in parsed if not (isinstance(n, str) and n in names)]
            if unknown:
                notes.append(f"dropped {len(unknown)} unknown names: {unknown[:5]}")
            if valid:
                return GuideProposal(
                    keep_active=tuple(sorted(set(valid))),
                    rationale=f"chat guide reply, attempt {attempt + 1}",
                    notes=tuple(notes),
                )
            notes.append(f"attempt {attempt + 1}: no valid names in reply")
            messages = messages + [
                {"role": "assistant", "content": reply},
                {
                    "role": "user",
                    "content": "Every name was unknown. Use names exactly as listed.",
                },
            ]
        fallback = self.fallback.propose(context)
        notes.append(FELL_BACK)
        return GuideProposal(
            keep_active=fallback.keep_active,
            rationale=fallback.rationale,
            notes=tuple(notes),
        )
