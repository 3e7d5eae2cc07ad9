"""Query routing and objective generation with a validation gate.

``problem_match`` picks a domain handler by keyword overlap.
``indicator_generate`` turns the query into a validated objective:
the deterministic path returns the catalog entry closest to the query
by Jaro-Winkler (the first entry equal to it, found before any scoring);
the chat path asks for DSL source and retries with the validator's
diagnostics appended, up to three attempts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from ..dsl.analysis import ObjectiveInfo, check
from ..dsl.catalog import CatalogEntry, ground_truth_catalog
from ..dsl.parser import DslError, ObjectiveAst, parse
from ..dsl.similarity import jaro_winkler, normalize_source
from ..fleet import FleetInstance
from .llm import LlmError
from .prompts import PromptTemplates, render_indicator
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


def problem_match(
    query: str,
    registry: dict[str, tuple[str, ...]] | None = None,
) -> MatchResult:
    """Keyword-scored routing; the registry's first handler wins on no hits."""
    registry = DEFAULT_REGISTRY if registry is None else registry
    if not registry:
        raise AgentError("empty domain registry")
    words = set(re.findall(r"[a-z]+", query.lower()))
    best_id, best_score = None, -1
    for agent_id, keywords in registry.items():
        score = sum(1 for kw in keywords if kw in words)
        if score > best_score:
            best_id, best_score = agent_id, score
    if best_score <= 0:
        return MatchResult(agent_id=next(iter(registry)), score=0, low_confidence=True)
    return MatchResult(agent_id=best_id, score=best_score, low_confidence=False)


@dataclass
class IndicatorResult:
    ast: ObjectiveAst
    info: ObjectiveInfo
    source: str
    attempts: int
    matched_query: str | None = None  # deterministic path: the catalog row used
    transcript: list[dict] = field(default_factory=list)


_OBJECTIVE_LINE = re.compile(r"(maximize|minimize)\b.*", re.IGNORECASE | re.DOTALL)


def extract_objective_source(reply: str) -> str | None:
    """Pull the first objective line out of a free-form reply."""
    cleaned = reply.replace("`", " ")
    match = _OBJECTIVE_LINE.search(cleaned)
    if not match:
        return None
    text = match.group(0)
    # keep it to one logical line; replies sometimes append commentary
    line = text.splitlines()[0].strip()
    return line


def _match_key(query: str) -> str:
    return normalize_source(query).lower()


@lru_cache(maxsize=8)
def _catalog_keys(catalog: tuple[CatalogEntry, ...]) -> tuple[str, ...]:
    """Each entry's query as the deterministic match compares it."""
    return tuple(_match_key(e.query) for e in catalog)


def indicator_generate(
    query: str,
    instance: FleetInstance,
    guide: str = "deterministic",
    client=None,
    templates: PromptTemplates | None = None,
    few_shot_n: int = 8,
    catalog: tuple[CatalogEntry, ...] | None = None,
    max_attempts: int = 3,
) -> IndicatorResult:
    """Produce a validated objective for a query.

    The deterministic path needs no network: it returns the catalog
    entry whose query text sits closest to the input. The chat path
    feeds back validator diagnostics on failure and raises
    :class:`AgentError` with the transcript once attempts run out.
    """
    catalog = catalog or ground_truth_catalog()
    if guide == "deterministic":
        norm = _match_key(query)
        keys = _catalog_keys(catalog)
        if norm in keys:  # Jaro-Winkler is 1.0 only on an equal key
            best = catalog[keys.index(norm)]
        else:
            best = catalog[max(range(len(keys)), key=lambda i: jaro_winkler(norm, keys[i]))]
        ast = parse(best.source)
        info, diagnostics = check(ast, instance)
        if info is None:  # catalog rows are pre-validated; defensive only
            raise AgentError(f"catalog entry failed validation: {diagnostics}")
        return IndicatorResult(
            ast=ast, info=info, source=best.source, attempts=1, matched_query=best.query
        )

    if guide != "llm":
        raise AgentError(f"unknown guide kind {guide!r}")
    if client is None:
        raise AgentError("the chat guide needs a configured client")
    templates = templates or PromptTemplates()
    few_shot = [(e.query, e.source) for e in catalog[:few_shot_n]]
    messages = render_indicator(templates, query, few_shot)
    transcript: list[dict] = []
    for attempt in range(1, max_attempts + 1):
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
                info, diagnostics = check(ast, instance)
                if info is not None:
                    return IndicatorResult(
                        ast=ast,
                        info=info,
                        source=source,
                        attempts=attempt,
                        transcript=transcript,
                    )
                diagnostic = "; ".join(diagnostics)
        messages = messages + [
            {"role": "assistant", "content": reply},
            {
                "role": "user",
                "content": templates.indicator_retry.format(diagnostic=diagnostic),
            },
        ]
    error = AgentError(
        f"objective generation failed after {max_attempts} attempts; "
        f"last diagnostic: {diagnostic}"
    )
    error.transcript = transcript
    raise error
