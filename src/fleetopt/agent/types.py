"""Shared data shapes for the guided fix-and-resolve loop."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..fleet import Decision, FleetInstance, decision_to_vector, json_data
from ..mip.solver import SolveConfig

HISTORY_SCHEMA_VERSION = 1


class AgentError(RuntimeError):
    """Raised when the loop cannot produce a usable result."""


@dataclass
class HistoryRecord:
    date: str
    features: dict[str, float]  # exogenous values of that day
    decision: Decision
    objective: float  # optimal predicted profit of that day's solve


@dataclass
class HistoryStore:
    """A small sample of solved days plus per-variable statistics.

    Statistics are taken over the flattened optimal decisions in the
    shared variable order; they drive both the fixing values (means)
    and the sensitivity scores (standard deviations).
    """

    variable_names: tuple[str, ...]
    records: list[HistoryRecord] = field(default_factory=list)

    def __post_init__(self):
        if not self.records:
            raise ValueError("history needs at least one record")

    def _matrix(self, instance: FleetInstance) -> np.ndarray:
        return np.vstack(
            [decision_to_vector(instance, r.decision) for r in self.records]
        )

    def stats(self, instance: FleetInstance) -> dict[str, dict[str, float]]:
        # one variable per contiguous row: each reduction then sums in the
        # order a single column's does, which mat.std(axis=0) does not
        cols = np.ascontiguousarray(self._matrix(instance).T)
        mean, std = cols.mean(axis=1).tolist(), cols.std(axis=1).tolist()
        low, high = cols.min(axis=1).tolist(), cols.max(axis=1).tolist()
        return {
            name: {"mean": mean[pos], "std": std[pos], "min": low[pos], "max": high[pos]}
            for pos, name in enumerate(self.variable_names)
        }

    def baseline_decision(self, instance: FleetInstance) -> Decision:
        """Historical-average decision, rounded feasible for an instance.

        Allocation means are rounded half-up, clamped below supply per
        cell, then trimmed (largest entries first) until every supply
        cap holds; fares are clamped into the fare bounds.
        """
        mat = self._matrix(instance)
        mean = mat.mean(axis=0)
        n_x = instance.n_supply * instance.n_demand * instance.soc_levels
        x = np.floor(mean[:n_x] + 0.5).reshape(
            instance.n_supply, instance.n_demand, instance.soc_levels
        )
        x = np.maximum(x, 0)
        for i in range(instance.n_supply):
            for k in range(instance.soc_levels):
                cap = int(instance.supply[i, k])
                x[i, :, k] = np.minimum(x[i, :, k], cap)
                while x[i, :, k].sum() > cap:
                    j = int(np.argmax(x[i, :, k]))
                    x[i, j, k] -= 1
        lo, hi = instance.fare_bounds
        u = np.clip(
            mean[n_x:].reshape(instance.n_demand, instance.soc_levels), lo, hi
        )
        return Decision(x=x.astype(np.int64), u_hat=u)

    def to_dict(self) -> dict:
        return {"version": HISTORY_SCHEMA_VERSION, **json_data(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "HistoryStore":
        if doc.get("version") != HISTORY_SCHEMA_VERSION:
            raise ValueError(f"unsupported history schema version {doc.get('version')}")
        return cls(
            variable_names=tuple(doc["variable_names"]),
            records=[
                HistoryRecord(
                    date=r["date"],
                    features=dict(r["features"]),
                    decision=Decision.from_dict(r["decision"]),
                    objective=float(r["objective"]),
                )
                for r in doc["records"]
            ],
        )

    @classmethod
    def from_json(cls, text: str) -> "HistoryStore":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GuideProposal:
    """Names to keep active next iteration; everything else gets fixed."""

    keep_active: tuple[str, ...]
    rationale: str = ""
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.keep_active:
            raise ValueError("a proposal must keep at least one variable active")


@dataclass
class AgentConfig:
    t_max: int = 5
    guide: str = "deterministic"  # or "llm"
    few_shot: int = 8
    fixed_fractions: tuple[float, ...] = (0.25, 0.50, 0.75)
    grid_points: int = 8
    solve: SolveConfig = field(default_factory=SolveConfig)


@dataclass
class IterationRecord:
    iteration: int
    active: tuple[str, ...]
    fixed_values: dict[str, float]
    status: str
    g_value: float | None = None
    f_value: float | None = None
    score: float | None = None
    wall_time: float = 0.0
    notes: tuple[str, ...] = ()
    # the solve took its stage 1 from the memo; like wall_time, kept out
    # of to_dict, since it depends on what the process solved before
    stage1_reused: bool = False


@dataclass
class AgentTrace:
    query: str
    objective_source: str
    objective_sense: str
    baseline_f: float
    iterations: list[IterationRecord] = field(default_factory=list)
    best_decision: Decision | None = None
    best_score: float = 0.0
    best_iteration: int = 0  # 0 means the historical baseline was kept
    response: str = ""
    supply_areas: tuple[int, ...] = ()
    demand_areas: tuple[int, ...] = ()

    @property
    def scores(self) -> list[float]:
        return [r.score for r in self.iterations if r.score is not None]

    def to_dict(self) -> dict:
        """The trace's data without the area labels, and without each
        iteration's wall time and memo reuse, which are facts about the
        process."""
        doc = json_data(self)
        del doc["supply_areas"], doc["demand_areas"]
        for record in doc["iterations"]:
            del record["wall_time"], record["stage1_reused"]
        return doc
