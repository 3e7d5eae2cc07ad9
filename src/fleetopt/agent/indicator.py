"""Query routing and objective generation with a validation gate.

``problem_match`` picks a domain handler by keyword overlap.
``indicator_generate`` turns the query into an objective: the
deterministic path returns the catalog entry closest to the query by
Jaro-Winkler (the first entry equal to it, found before any scoring),
with the entry's AST, parsed once and shared by every request it wins;
the chat path asks for DSL source, accepts a reply that parses and
passes :func:`.dsl.lower.check` (it expands on the day and its form
lowers), and otherwise retries with that one diagnostic appended, up
to three attempts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..dsl.catalog import CatalogEntry, ground_truth_catalog
from ..dsl.lower import check
from ..dsl.parser import DslError, ObjectiveAst, parse
from ..dsl.similarity import jaro_winkler, normalize_source
from ..fleet import FleetInstance
from .llm import LlmError
from .prompts import CHAT_ATTEMPTS, INDICATOR_RETRY, render_indicator
from .types import AgentError


@dataclass(frozen=True)
class MatchResult:
    agent_id: str
    score: int
    low_confidence: bool


DEFAULT_REGISTRY: dict[str, tuple[str, ...]] = {
    "taxi-fleet": (
        "taxi", "taxis", "fleet", "dispatch", "dispatching", "fare", "price",
        "pricing", "allocation", "pre-allocated", "charge", "soc", "ride",
        "demand", "supply", "idle",
    ),
}


def problem_match(query: str) -> MatchResult:
    """Keyword-scored routing over :data:`DEFAULT_REGISTRY`; its first
    handler wins on no hits."""
    words = set(re.findall(r"[a-z]+", query.lower()))
    best_id, best_score = None, -1
    for agent_id, keywords in DEFAULT_REGISTRY.items():
        score = sum(1 for kw in keywords if kw in words)
        if score > best_score:
            best_id, best_score = agent_id, score
    if best_score <= 0:
        return MatchResult(agent_id=next(iter(DEFAULT_REGISTRY)), score=0, low_confidence=True)
    return MatchResult(agent_id=best_id, score=best_score, low_confidence=False)


@dataclass
class IndicatorResult:
    ast: ObjectiveAst
    source: str
    attempts: int
    matched_query: str | None = None  # deterministic path: the catalog row used
    transcript: list[dict] = field(default_factory=list)


_OBJECTIVE_LINE = re.compile(r"(maximize|minimize)\b.*", re.IGNORECASE | re.DOTALL)


def extract_objective_source(reply: str) -> str | None:
    """Pull the first objective line out of a free-form reply, with its
    sense keyword in lower case as the parser reads it."""
    cleaned = reply.replace("`", " ")
    match = _OBJECTIVE_LINE.search(cleaned)
    if not match:
        return None
    sense = match.group(1)
    # keep it to one logical line; replies sometimes append commentary
    line = match.group(0).splitlines()[0].strip()
    return sense.lower() + line[len(sense):]


def _match_key(query: str) -> str:
    return normalize_source(query).lower()


@lru_cache(maxsize=8)
def _catalog_keys(catalog: tuple[CatalogEntry, ...]) -> tuple[str, ...]:
    """Each entry's query as the deterministic match compares it."""
    return tuple(_match_key(e.query) for e in catalog)


def check_guide(guide: str, client) -> None:
    """Raise :class:`AgentError` unless ``guide`` names a guide that can
    run: ``"deterministic"``, or ``"llm"`` with a client."""
    if guide not in ("deterministic", "llm"):
        raise AgentError(f"unknown guide kind {guide!r}")
    if guide == "llm" and client is None:
        raise AgentError("the chat guide needs a configured client")


def indicator_generate(
    query: str,
    instance: FleetInstance,
    guide: str = "deterministic",
    client=None,
    few_shot_n: int = 8,
    catalog: tuple[CatalogEntry, ...] | None = None,
) -> IndicatorResult:
    """Produce an objective for a query.

    The deterministic path needs no network: it returns the catalog
    entry whose query text sits closest to the input, with the AST the
    entry parsed on its first use (:meth:`.CatalogEntry.ast`). The catalog is
    vetted data, so the entry is not checked here; one that does not
    fit the instance (a charge level it lacks) raises when the model is
    built. The chat path feeds back the validator's diagnostic on
    failure and raises :class:`AgentError` with the transcript once
    attempts run out.
    """
    check_guide(guide, client)
    catalog = catalog or ground_truth_catalog()
    if guide == "deterministic":
        norm = _match_key(query)
        keys = _catalog_keys(catalog)
        if norm in keys:  # Jaro-Winkler is 1.0 only on an equal key
            best = catalog[keys.index(norm)]
        else:
            best = catalog[max(range(len(keys)), key=lambda i: jaro_winkler(norm, keys[i]))]
        return IndicatorResult(
            ast=best.ast(), source=best.source, attempts=1, matched_query=best.query
        )

    few_shot = [(e.query, e.source) for e in catalog[:few_shot_n]]
    messages = render_indicator(query, few_shot)
    transcript: list[dict] = []
    for attempt in range(1, CHAT_ATTEMPTS + 1):
        try:
            reply = client.complete(messages)
        except LlmError as err:
            raise AgentError(f"chat endpoint failed: {err}") from err
        transcript.append({"messages": list(messages), "reply": reply})
        source = extract_objective_source(reply)
        if source is None:
            diagnostic = "reply carried no objective line"
        else:
            try:
                ast = parse(source)
            except DslError as err:
                diagnostic = str(err)
            else:
                form, diagnostics = check(ast, instance)
                if form is not None:
                    return IndicatorResult(
                        ast=ast,
                        source=source,
                        attempts=attempt,
                        transcript=transcript,
                    )
                (diagnostic,) = diagnostics
        messages = messages + [
            {"role": "assistant", "content": reply},
            {
                "role": "user",
                "content": INDICATOR_RETRY.format(diagnostic=diagnostic),
            },
        ]
    error = AgentError(
        f"objective generation failed after {CHAT_ATTEMPTS} attempts; "
        f"last diagnostic: {diagnostic}"
    )
    error.transcript = transcript
    raise error
