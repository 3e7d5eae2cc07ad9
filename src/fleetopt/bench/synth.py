"""Seeded synthetic world: instances, historical decisions, labels.

Every day carries weather, a fleet instance (supply and anticipated
demand), a plausible historical decision and the profit that decision
realized under a demand-response simulator: demand scales with a
weather factor and falls off linearly as fares rise past a reference
point. All randomness flows from the one seed in the config, so a
world regenerates bit-identically.
"""

from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..fleet import (
    Decision,
    FleetInstance,
    cascade_fulfill,
    decision_to_vector,
    decision_variable_names,
    json_data,
    profit,
)
from ..forest import FeatureSchema

WORLD_SCHEMA_VERSION = 1

EXOGENOUS_NAMES = ("temperature", "dew_point", "day_of_week")


@dataclass
class SynthConfig:
    seed: int = 0
    n_supply: int = 8
    n_demand: int = 3
    soc_levels: int = 3
    n_days: int = 120
    base_demand: list | None = None  # (n_demand, soc_levels); seeded when absent
    elasticity: float = 0.8
    reference_fare: float = 12.0
    weather_coeff: float = 0.01  # demand change per degree around the pivot
    weather_pivot: float = 15.0
    max_supply: int = 4  # per (area, level)
    fare_bounds: tuple[float, float] = (1.0, 50.0)
    theta: float = 0.2
    booking_fee: float = 5.0
    inconvenience_rate: float = 0.5
    start_date: str = "2016-01-01"
    peak_window: str = "08:00-08:30"

    def __post_init__(self):
        if self.n_supply < 1 or self.n_demand < 1 or self.soc_levels < 1:
            raise ValueError("world sizes must be positive")
        if self.elasticity < 0:
            raise ValueError("elasticity must be nonnegative")
        if self.n_days < 1:
            raise ValueError("need at least one day")

    @classmethod
    def from_dict(cls, doc: dict) -> "SynthConfig":
        doc = dict(doc)
        if "fare_bounds" in doc:
            doc["fare_bounds"] = tuple(doc["fare_bounds"])
        return cls(**doc)


def weather_factor(
    temperature: float, coeff: float = 0.01, pivot: float = 15.0
) -> float:
    """Monotone demand multiplier, clamped to [0.5, 1.5]."""
    return float(np.clip(1.0 + coeff * (temperature - pivot), 0.5, 1.5))


@dataclass
class WorldDay:
    date: str
    day_of_week: int
    temperature: float
    dew_point: float
    supply: np.ndarray
    demand: np.ndarray
    decision: Decision
    profit: float

    def exogenous(self) -> dict[str, float]:
        """The day's exogenous features, in ``EXOGENOUS_NAMES`` order."""
        return {name: float(getattr(self, name)) for name in EXOGENOUS_NAMES}


@dataclass
class World:
    config: SynthConfig
    supply_areas: tuple[int, ...]
    demand_areas: tuple[int, ...]
    distance_km: np.ndarray
    days: list[WorldDay] = field(default_factory=list)

    def __post_init__(self):
        # day index -> (the WorldDay an instance was built from, the instance)
        self._instances: dict[int, tuple[WorldDay, FleetInstance]] = {}

    def instance(self, day: int) -> FleetInstance:
        """Day ``day``'s fleet instance, built on the first call and
        returned by every later one while ``days[day]`` is the same
        :class:`WorldDay`; a replaced day gets a new instance. The
        instance's arrays are read-only, and building it makes the day's
        ``supply`` and ``demand`` read-only too, so that neither can
        change under the instance built from it."""
        d = self.days[day]
        built = self._instances.get(day)
        if built is not None and built[0] is d:
            return built[1]
        inst = FleetInstance(
            supply_areas=self.supply_areas,
            demand_areas=self.demand_areas,
            soc_levels=self.config.soc_levels,
            supply=d.supply,
            demand=d.demand,
            distance_km=self.distance_km,
            inconvenience_rate=self.config.inconvenience_rate,
            booking_fee=np.full(len(self.demand_areas), self.config.booking_fee),
            theta=self.config.theta,
            fare_bounds=self.config.fare_bounds,
        )
        d.supply.setflags(write=False)
        d.demand.setflags(write=False)
        self._instances[day] = (d, inst)
        return inst

    def schema(self) -> FeatureSchema:
        names = EXOGENOUS_NAMES + tuple(decision_variable_names(self.instance(0)))
        return FeatureSchema(names=names, n_exogenous=len(EXOGENOUS_NAMES))

    def training_rows(self) -> list[tuple[list[float], float]]:
        rows = []
        for day_idx, d in enumerate(self.days):
            inst = self.instance(day_idx)
            vec = decision_to_vector(inst, d.decision)
            rows.append((list(d.exogenous().values()) + vec.tolist(), d.profit))
        return rows

    def to_dict(self) -> dict:
        return {"version": WORLD_SCHEMA_VERSION, **json_data(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "World":
        if doc.get("version") != WORLD_SCHEMA_VERSION:
            raise ValueError(f"unsupported world schema version {doc.get('version')}")
        cfg = SynthConfig.from_dict(doc["config"])
        world = cls(
            config=cfg,
            supply_areas=tuple(doc["supply_areas"]),
            demand_areas=tuple(doc["demand_areas"]),
            distance_km=np.asarray(doc["distance_km"], dtype=float),
        )
        for d in doc["days"]:
            world.days.append(
                WorldDay(
                    date=d["date"],
                    day_of_week=int(d["day_of_week"]),
                    temperature=float(d["temperature"]),
                    dew_point=float(d["dew_point"]),
                    supply=np.asarray(d["supply"], dtype=np.int64),
                    demand=np.asarray(d["demand"], dtype=np.int64),
                    decision=Decision.from_dict(d["decision"]),
                    profit=float(d["profit"]),
                )
            )
        return world

    @classmethod
    def from_json(cls, text: str) -> "World":
        return cls.from_dict(json.loads(text))


def simulate_profit(
    instance: FleetInstance,
    decision: Decision,
    features: dict[str, float],
    synth: SynthConfig,
    base_demand: np.ndarray | None = None,
) -> float:
    """Profit a decision realizes under the demand-response model.

    Realized demand per (area, level) is the base scaled by the weather
    factor and by ``max(0, 1 - elasticity * (fare - ref) / ref)``, then
    rounded; fulfillment cascades as usual against that demand.
    """
    base = (
        np.asarray(base_demand, dtype=float)
        if base_demand is not None
        else instance.demand.astype(float)
    )
    wf = weather_factor(
        features["temperature"], synth.weather_coeff, synth.weather_pivot
    )
    ref = synth.reference_fare
    response = np.maximum(0.0, 1.0 - synth.elasticity * (decision.u_hat - ref) / ref)
    realized = np.rint(base * wf * response).astype(np.int64)
    realized_instance = replace(instance, demand=realized)
    fulfillment = cascade_fulfill(realized_instance, decision.x)
    return profit(realized_instance, decision, fulfillment)


def _random_feasible_decision(
    rng: np.random.Generator,
    supply: np.ndarray,
    demand: np.ndarray,
    dist: np.ndarray,
    cfg: SynthConfig,
) -> Decision:
    """Historical decision for one day.

    Half the days follow a rough dispatcher policy (cover demand from
    the nearest surplus, price near the reference) and half explore at
    random, so the label data both concentrates near sensible operation
    and still spans the decision space.
    """
    n_supply, n_k = supply.shape
    n_demand = demand.shape[0]
    x = np.zeros((n_supply, n_demand, n_k), dtype=np.int64)
    lo, hi = cfg.fare_bounds
    if rng.random() < 0.5:
        remaining = supply.astype(int).copy()
        for j in range(n_demand):
            order = np.argsort(dist[:, j])
            for k in range(n_k):
                need = int(demand[j, k])
                for i in order:
                    if need <= 0:
                        break
                    take = min(int(remaining[i, k]), need)
                    if take > 0:
                        x[i, j, k] += take
                        remaining[i, k] -= take
                        need -= take
        u = cfg.reference_fare + rng.normal(0.0, 2.0, (n_demand, n_k))
    else:
        for i in range(n_supply):
            for k in range(n_k):
                budget = int(supply[i, k])
                if budget == 0:
                    continue
                sent = int(rng.integers(0, budget + 1))
                if sent == 0:
                    continue
                split = rng.multinomial(sent, np.full(n_demand, 1.0 / n_demand))
                x[i, :, k] = split
        spread = min(hi - lo, 16.0)
        center = float(np.clip(cfg.reference_fare, lo + spread / 2, hi - spread / 2))
        u = rng.uniform(center - spread / 2, center + spread / 2, (n_demand, n_k))
    u = np.clip(u, lo, hi)
    return Decision(x=x, u_hat=np.round(u, 2))


def generate_world(cfg: SynthConfig) -> World:
    """Build the whole synthetic world from one seed."""
    rng = np.random.default_rng(cfg.seed)
    n_total = cfg.n_supply + cfg.n_demand
    coords = rng.uniform(0.0, 10.0, (n_total, 2))
    supply_areas = tuple(range(cfg.n_supply))
    demand_areas = tuple(range(cfg.n_supply, n_total))
    dist = np.zeros((cfg.n_supply, cfg.n_demand))
    for i in range(cfg.n_supply):
        for j in range(cfg.n_demand):
            dist[i, j] = float(
                np.hypot(*(coords[i] - coords[cfg.n_supply + j]))
            )
    dist = np.round(dist, 3)

    if cfg.base_demand is not None:
        base = np.asarray(cfg.base_demand, dtype=float)
        if base.shape != (cfg.n_demand, cfg.soc_levels):
            raise ValueError("base_demand must have shape (n_demand, soc_levels)")
    else:
        base = rng.integers(1, 5, (cfg.n_demand, cfg.soc_levels)).astype(float)

    start = _dt.date.fromisoformat(cfg.start_date)
    world = World(
        config=cfg,
        supply_areas=supply_areas,
        demand_areas=demand_areas,
        distance_km=dist,
    )
    for day in range(cfg.n_days):
        date = start + _dt.timedelta(days=day)
        season = np.sin(2.0 * np.pi * (day % 365) / 365.0)
        temperature = float(np.round(15.0 + 10.0 * season + rng.normal(0, 2.0), 2))
        dew_point = float(np.round(temperature - rng.uniform(2.0, 8.0), 2))
        wf = weather_factor(temperature, cfg.weather_coeff, cfg.weather_pivot)
        demand = np.rint(base * wf).astype(np.int64)
        supply = rng.integers(0, cfg.max_supply + 1, (cfg.n_supply, cfg.soc_levels))
        if supply.sum() == 0:
            supply[0, -1] = 1
        decision = _random_feasible_decision(rng, supply, demand, dist, cfg)
        record = WorldDay(
            date=date.isoformat(),
            day_of_week=date.weekday(),
            temperature=temperature,
            dew_point=dew_point,
            supply=supply.astype(np.int64),
            demand=demand,
            decision=decision,
            profit=0.0,  # the label, set below from the day's own instance
        )
        world.days.append(record)
        record.profit = simulate_profit(
            world.instance(day), decision, record.exogenous(), cfg, base_demand=base
        )
    return world
