"""Prompt templates for the two guided steps.

One template turns an operator query into a DSL objective (with
few-shot query/objective pairs), the other asks for the subset of
decision variables worth keeping active given per-variable history
statistics and the previous iteration's outcome. The templates are
module constants, as is :data:`CHAT_ATTEMPTS`, the reply budget both
chat steps share. Rendering fills every placeholder; tests assert none
survive.
"""

from __future__ import annotations

GRAMMAR_SUMMARY = """\
Objectives are one line: 'maximize <expr>' or 'minimize <expr>'.
Expressions combine +, -, * and abs(...) over:
  sum(i in I, j in J, k in K [if <cond>]) <term>   comprehensions
  x[i,j,k]    taxis repositioned from i to j at charge level k
  u_hat[j,k]  variable fare; u[j,k] = theta*u_hat[j,k] + booking fee
  S[i,k], z[j,k]          supply and demand counts
  dist[i,j], w[i,j]       distance and per-taxi repositioning cost
  demand_avg[j], inventory_avg   average demand / supply constants
  k                        the 0-based charge level as a number
Index sets: I supply areas, J demand areas, K charge levels."""


# Replies each chat step asks for before it gives up.
CHAT_ATTEMPTS = 3

INDICATOR_SYSTEM = (
    "You translate fleet-operator requests into objective functions "
    "written in a small optimization language. Reply with exactly one "
    "objective line and nothing else."
)
INDICATOR_USER = (
    "Objective language:\n{grammar}\n\n"
    "{examples}"
    "Request: {query}\n"
    "Objective:"
)
INDICATOR_EXAMPLE = "Request: {query}\nObjective: {source}\n\n"
INDICATOR_RETRY = (
    "That objective was rejected: {diagnostic}\n"
    "Reply with one corrected objective line."
)
TAILOR_SYSTEM = (
    "You prune decision variables for a fleet optimization model. "
    "Given per-variable history statistics, reply with a JSON array of "
    "the variable names to KEEP ACTIVE; all others will be fixed to "
    "their historical averages."
)
TAILOR_USER = (
    "Request: {query}\n"
    "Iteration {iteration}: keep about {keep_count} of {total} variables.\n"
    "Previously active ({prev_count}): {prev_active}\n"
    "Previous satisfaction score: {prev_score}\n\n"
    "Variable statistics (name mean std min max):\n{stats}\n\n"
    "JSON array of names to keep active:"
)


def render_indicator(
    query: str,
    few_shot: list[tuple[str, str]],
) -> list[dict[str, str]]:
    examples = "".join(
        INDICATOR_EXAMPLE.format(query=q, source=s) for q, s in few_shot
    )
    user = INDICATOR_USER.format(
        grammar=GRAMMAR_SUMMARY, examples=examples, query=query
    )
    return [
        {"role": "system", "content": INDICATOR_SYSTEM},
        {"role": "user", "content": user},
    ]


def render_tailor(
    query: str,
    iteration: int,
    keep_count: int,
    stats: dict[str, dict[str, float]],
    prev_active: tuple[str, ...],
    prev_score: float | None,
) -> list[dict[str, str]]:
    rows = "\n".join(
        f"{name} {s['mean']:.3f} {s['std']:.3f} {s['min']:.3f} {s['max']:.3f}"
        for name, s in stats.items()
    )
    prev = ", ".join(prev_active) if prev_active else "(all)"
    user = TAILOR_USER.format(
        query=query,
        iteration=iteration,
        keep_count=keep_count,
        total=len(stats),
        prev_count=len(prev_active) if prev_active else len(stats),
        prev_active=prev,
        prev_score="n/a" if prev_score is None else f"{prev_score:.4f}",
        stats=rows,
    )
    return [
        {"role": "system", "content": TAILOR_SYSTEM},
        {"role": "user", "content": user},
    ]
