"""Guided fix-and-resolve agent: routing, objective generation,
variable-selection guides, the iteration loop and its summary."""

from .guides import (
    DeterministicGuide,
    GuideContext,
    LlmGuide,
    fixed_fraction,
    objective_tokens,
    sensitivity_scores,
)
from .indicator import (
    DEFAULT_REGISTRY,
    IndicatorResult,
    MatchResult,
    extract_objective_source,
    indicator_generate,
    problem_match,
)
from .llm import ChatClient, LlmConfig, LlmError, ReplayClient, save_transcript
from .loop import (
    build_agent_model,
    clear_day_model_memo,
    needs_price_grid,
    response_format,
    run_agent,
)
from .prompts import GRAMMAR_SUMMARY, PromptTemplates, render_indicator, render_tailor
from .types import (
    AgentConfig,
    AgentError,
    AgentTrace,
    GuideProposal,
    HistoryRecord,
    HistoryStore,
    IterationRecord,
)

__all__ = [
    "AgentConfig",
    "AgentError",
    "AgentTrace",
    "ChatClient",
    "DEFAULT_REGISTRY",
    "DeterministicGuide",
    "GRAMMAR_SUMMARY",
    "GuideContext",
    "GuideProposal",
    "HistoryRecord",
    "HistoryStore",
    "IndicatorResult",
    "IterationRecord",
    "LlmConfig",
    "LlmError",
    "LlmGuide",
    "MatchResult",
    "PromptTemplates",
    "ReplayClient",
    "build_agent_model",
    "clear_day_model_memo",
    "extract_objective_source",
    "fixed_fraction",
    "indicator_generate",
    "needs_price_grid",
    "objective_tokens",
    "problem_match",
    "render_indicator",
    "render_tailor",
    "response_format",
    "run_agent",
    "save_transcript",
    "sensitivity_scores",
]
