"""Problem instances for joint taxi pre-allocation and fare setting.

An instance describes one decision epoch: supply areas holding idle
electric taxis at discrete charge levels, demand areas with anticipated
request counts per level, and the cost/fare parameters. A decision
repositions taxis (integer counts) and sets the variable fare per
demand area and charge level. Requests at charge level k may be served
by taxis at level k or higher; surplus taxis cascade downward.

The instance, world, history and agent-trace documents are written by
:func:`json_data`: a document is its dataclass's fields plus
``version``, with facts about the process that produced it, such as
memo reuse, left out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

INSTANCE_SCHEMA_VERSION = 1


class FleetError(ValueError):
    """Raised for malformed instances, decisions or fulfillment states."""


def _as_int_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise FleetError(f"{name} must be a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FleetError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise FleetError(f"{name} contains negative entries")
    if np.any(arr != np.floor(arr)):
        raise FleetError(f"{name} must be integer-valued")
    return arr.astype(np.int64)


def json_data(value):
    """``value`` as JSON data, the one way every document is written.

    A dataclass becomes a dict of its fields in declaration order, an
    ndarray or numpy scalar its ``tolist()``, a tuple or list a list
    and a dict a dict, each entry converted the same way; any other
    value is returned as it is.
    """
    if is_dataclass(value):
        return {f.name: json_data(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [json_data(v) for v in value]
    if isinstance(value, dict):
        return {k: json_data(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class FleetInstance:
    """One decision epoch of the pre-allocation and pricing problem.

    supply_areas / demand_areas are disjoint lists of zone ids. supply
    is |I| x |K| (taxis per area and charge level), demand is |J| x |K|
    (requests per area and level, levels ordered low to high), and
    distance_km is |I| x |J|. The repositioning cost per taxi is
    ``w[i, j] = inconvenience_rate * distance_km[i, j] + booking_fee[j]``
    and the operator's per-order revenue at fare u_hat is
    ``theta * u_hat + booking_fee[j]``.
    """

    supply_areas: tuple[int, ...]
    demand_areas: tuple[int, ...]
    soc_levels: int
    supply: np.ndarray
    demand: np.ndarray
    distance_km: np.ndarray
    inconvenience_rate: float = 0.5
    booking_fee: np.ndarray = None
    theta: float = 0.2
    fare_bounds: tuple[float, float] = (1.0, 50.0)

    def __post_init__(self):
        supply_areas = tuple(int(a) for a in self.supply_areas)
        demand_areas = tuple(int(a) for a in self.demand_areas)
        object.__setattr__(self, "supply_areas", supply_areas)
        object.__setattr__(self, "demand_areas", demand_areas)
        if not supply_areas or not demand_areas:
            raise FleetError("need at least one supply and one demand area")
        if len(set(supply_areas)) != len(supply_areas):
            raise FleetError("duplicate supply area ids")
        if len(set(demand_areas)) != len(demand_areas):
            raise FleetError("duplicate demand area ids")
        if set(supply_areas) & set(demand_areas):
            raise FleetError("supply and demand areas must be disjoint")
        object.__setattr__(self, "soc_levels", int(self.soc_levels))
        if self.soc_levels < 1:
            raise FleetError("soc_levels must be >= 1")

        supply = _as_int_matrix(self.supply, "supply")
        demand = _as_int_matrix(self.demand, "demand")
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        if supply.shape != (len(supply_areas), self.soc_levels):
            raise FleetError("supply must have shape (|I|, |K|)")
        if demand.shape != (len(demand_areas), self.soc_levels):
            raise FleetError("demand must have shape (|J|, |K|)")

        dist = np.asarray(self.distance_km, dtype=float)
        if dist.shape != (len(supply_areas), len(demand_areas)):
            raise FleetError("distance_km must have shape (|I|, |J|)")
        if np.any(dist < 0) or not np.all(np.isfinite(dist)):
            raise FleetError("distance_km must be finite and nonnegative")
        object.__setattr__(self, "distance_km", dist)

        fee = self.booking_fee
        if fee is None:
            fee = np.full(len(demand_areas), 5.0)
        fee = np.asarray(fee, dtype=float)
        if fee.shape != (len(demand_areas),):
            raise FleetError("booking_fee must have one entry per demand area")
        object.__setattr__(self, "booking_fee", fee)

        object.__setattr__(self, "inconvenience_rate", float(self.inconvenience_rate))
        object.__setattr__(self, "theta", float(self.theta))
        if not 0.0 < self.theta <= 1.0:
            raise FleetError("theta must lie in (0, 1]")
        lo, hi = float(self.fare_bounds[0]), float(self.fare_bounds[1])
        if not lo <= hi:
            raise FleetError("fare_bounds must satisfy lo <= hi")
        object.__setattr__(self, "fare_bounds", (lo, hi))
        self.supply.setflags(write=False)
        self.demand.setflags(write=False)
        self.distance_km.setflags(write=False)
        self.booking_fee.setflags(write=False)

    @property
    def n_supply(self) -> int:
        return len(self.supply_areas)

    @property
    def n_demand(self) -> int:
        return len(self.demand_areas)

    @property
    def reposition_cost(self) -> np.ndarray:
        """Per-taxi cost matrix w[i, j], |I| x |J|."""
        return self.inconvenience_rate * self.distance_km + self.booking_fee[None, :]

    def supply_index(self, area_id: int) -> int:
        return self.supply_areas.index(area_id)

    def demand_index(self, area_id: int) -> int:
        return self.demand_areas.index(area_id)

    # --- JSON round trip (shared schema with the data/bench layer) ---

    def to_dict(self) -> dict:
        return {"version": INSTANCE_SCHEMA_VERSION, **json_data(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FleetInstance":
        """An instance from the keys of ``doc`` that name a field; a
        missing optional field takes its default."""
        if doc.get("version", 1) != INSTANCE_SCHEMA_VERSION:
            raise FleetError(f"unsupported instance schema version {doc.get('version')}")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetInstance":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Decision:
    """Repositioning counts x[i, j, k] and variable fares u_hat[j, k]."""

    x: np.ndarray
    u_hat: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if x.ndim != 3:
            raise FleetError("x must be a 3-d tensor (|I|, |J|, |K|)")
        if np.any(x < 0) or np.any(x != np.floor(x)):
            raise FleetError("x must be nonnegative and integer-valued")
        object.__setattr__(self, "x", x.astype(np.int64))
        u = np.asarray(self.u_hat, dtype=float)
        if u.ndim != 2:
            raise FleetError("u_hat must be a 2-d matrix (|J|, |K|)")
        object.__setattr__(self, "u_hat", u)
        self.x.setflags(write=False)
        self.u_hat.setflags(write=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "Decision":
        return cls(x=doc["x"], u_hat=doc["u_hat"])


@dataclass(frozen=True)
class FulfillmentState:
    """Satisfied demand d[j, k] and downward surplus v[j, k]."""

    d: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        d = _as_int_matrix(self.d, "d")
        v = _as_int_matrix(self.v, "v")
        if d.shape != v.shape:
            raise FleetError("d and v must share a shape")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "v", v)
        self.d.setflags(write=False)
        self.v.setflags(write=False)


@dataclass(frozen=True)
class PriceGrid:
    """Finite candidate fares per (demand area, level).

    Linearizes the bilinear fare-times-demand revenue term: the exact
    model selects exactly one grid point per (j, k) through binaries.
    """

    points: tuple[tuple[tuple[float, ...], ...], ...]  # [j][k] -> ascending fares

    def __post_init__(self):
        pts = tuple(
            tuple(tuple(float(p) for p in cell) for cell in row) for row in self.points
        )
        for row in pts:
            for cell in row:
                if not cell:
                    raise FleetError("price grid cells must be nonempty")
                if any(b <= a for a, b in zip(cell, cell[1:])):
                    raise FleetError("price grid cells must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, instance: FleetInstance, n_points: int = 8) -> "PriceGrid":
        """Evenly spaced fares covering the instance's fare bounds."""
        lo, hi = instance.fare_bounds
        if n_points < 1:
            raise FleetError("n_points must be >= 1")
        if n_points == 1 or hi == lo:
            cell = (lo,)
        else:
            cell = tuple(np.linspace(lo, hi, n_points).tolist())
        row = tuple(cell for _ in range(instance.soc_levels))
        return cls(points=tuple(row for _ in range(instance.n_demand)))

    def cell(self, j: int, k: int) -> tuple[float, ...]:
        return self.points[j][k]

    def validate_for(self, instance: FleetInstance) -> None:
        if len(self.points) != instance.n_demand:
            raise FleetError("grid has wrong number of demand areas")
        lo, hi = instance.fare_bounds
        for row in self.points:
            if len(row) != instance.soc_levels:
                raise FleetError("grid has wrong number of levels")
            for cell in row:
                if cell[0] < lo - 1e-9 or cell[-1] > hi + 1e-9:
                    raise FleetError("grid point outside fare bounds")

    def snap(self, j: int, k: int, value: float) -> float:
        """Nearest grid fare to ``value`` (ties to the lower point)."""
        cell = self.points[j][k]
        best = min(cell, key=lambda p: (abs(p - value), p))
        return best

    def snap_decision(self, decision: Decision) -> Decision:
        """``decision`` with every fare moved to its nearest grid fare."""
        fares = [
            [self.snap(j, k, u) for k, u in enumerate(row)]
            for j, row in enumerate(decision.u_hat.tolist())
        ]
        return Decision(x=decision.x, u_hat=fares)


def cascade_fulfill(instance: FleetInstance, x: np.ndarray) -> FulfillmentState:
    """Resolve demand satisfaction level by level, from high charge down.

    At each level the available pool is the newly repositioned taxis
    plus the surplus left over from the level above; satisfied demand
    is capped by the request count and the remainder cascades down:

        d[j, k] = min(z[j, k], sum_i x[i, j, k] + v[j, k+1])
        v[j, k] = max(0, sum_i x[i, j, k] + v[j, k+1] - z[j, k])

    with v[j, |K|+1] = 0.
    """
    x = np.asarray(x)
    expected = (instance.n_supply, instance.n_demand, instance.soc_levels)
    if x.shape != expected:
        raise FleetError(f"x has shape {x.shape}, expected {expected}")
    if np.any(x < 0):
        raise FleetError("x must be nonnegative")
    inflow = x.sum(axis=0)  # |J| x |K|
    z = instance.demand
    n_j, n_k = z.shape
    d = np.zeros((n_j, n_k), dtype=np.int64)
    v = np.zeros((n_j, n_k), dtype=np.int64)
    carry = np.zeros(n_j, dtype=np.int64)  # v[., k+1]
    for k in range(n_k - 1, -1, -1):
        pool = inflow[:, k] + carry
        d[:, k] = np.minimum(z[:, k], pool)
        v[:, k] = pool - d[:, k]
        carry = v[:, k]
    return FulfillmentState(d=d, v=v)


def profit(
    instance: FleetInstance, decision: Decision, fulfillment: FulfillmentState
) -> float:
    """Operational profit: order revenue minus repositioning cost.

    Revenue per satisfied order at (j, k) is theta * u_hat[j, k] +
    booking_fee[j]; cost per repositioned taxi is w[i, j]. The supplied
    fulfillment must match ``cascade_fulfill`` of the decision.
    """
    expected = cascade_fulfill(instance, decision.x)
    if not (
        np.array_equal(expected.d, fulfillment.d)
        and np.array_equal(expected.v, fulfillment.v)
    ):
        raise FleetError("fulfillment state is inconsistent with the decision")
    per_order = instance.theta * decision.u_hat + instance.booking_fee[:, None]
    revenue = float((per_order * fulfillment.d).sum())
    cost = float((instance.reposition_cost[:, :, None] * decision.x).sum())
    return revenue - cost


def evaluate_decision(instance: FleetInstance, decision: Decision) -> float:
    """Profit of a decision with fulfillment derived internally."""
    return profit(instance, decision, cascade_fulfill(instance, decision.x))


@dataclass(frozen=True)
class Violation:
    constraint: str
    indices: tuple
    slack: float

    def __str__(self):
        return f"{self.constraint}{list(self.indices)}: slack {self.slack:g}"


def check_feasible(instance: FleetInstance, decision: Decision) -> list[Violation]:
    """All constraint violations of a decision; empty when feasible.

    Checks supply caps per (i, k), integrality/nonnegativity of x and
    fare bounds on u_hat. Slack is negative by the amount of violation.
    """
    out: list[Violation] = []
    expected = (instance.n_supply, instance.n_demand, instance.soc_levels)
    if decision.x.shape != expected:
        raise FleetError(f"x has shape {decision.x.shape}, expected {expected}")
    if decision.u_hat.shape != (instance.n_demand, instance.soc_levels):
        raise FleetError("u_hat has shape inconsistent with the instance")
    used = decision.x.sum(axis=1)  # |I| x |K|
    for i in range(instance.n_supply):
        for k in range(instance.soc_levels):
            slack = float(instance.supply[i, k] - used[i, k])
            if slack < 0:
                out.append(Violation("supply_cap", (instance.supply_areas[i], k), slack))
    lo, hi = instance.fare_bounds
    for j in range(instance.n_demand):
        for k in range(instance.soc_levels):
            u = float(decision.u_hat[j, k])
            if u < lo - 1e-9:
                out.append(
                    Violation("fare_lower", (instance.demand_areas[j], k), u - lo)
                )
            elif u > hi + 1e-9:
                out.append(
                    Violation("fare_upper", (instance.demand_areas[j], k), hi - u)
                )
    return out


def decision_variable_names(instance: FleetInstance) -> list[str]:
    """The one decision-variable order every layer reads.

    All x[i, j, k] entries first (i outer, then j, then k with k as the
    0-based charge-level index), then all u_hat[j, k]: the order of
    :func:`decision_to_vector`, of the forest's decision features and
    the history's vectors, of the allocation columns the MIP builders
    add, and of the values :func:`.fleet_mip.decision_from_solution`
    reads back and :func:`vector_to_decision` maps to a decision.
    """
    names = []
    for i in instance.supply_areas:
        for j in instance.demand_areas:
            for k in range(instance.soc_levels):
                names.append(f"x[{i},{j},{k}]")
    for j in instance.demand_areas:
        for k in range(instance.soc_levels):
            names.append(f"u_hat[{j},{k}]")
    return names


def decision_to_vector(instance: FleetInstance, decision: Decision) -> np.ndarray:
    """Flatten a decision into the shared variable order."""
    return np.concatenate([decision.x.ravel().astype(float), decision.u_hat.ravel()])


def decision_values(instance: FleetInstance, decision: Decision) -> dict[str, float]:
    """Each decision variable's value, by its name in the shared order."""
    return dict(
        zip(
            decision_variable_names(instance),
            decision_to_vector(instance, decision).tolist(),
        )
    )


def vector_to_decision(instance: FleetInstance, vec: np.ndarray) -> Decision:
    """Inverse of :func:`decision_to_vector`."""
    n_x = instance.n_supply * instance.n_demand * instance.soc_levels
    n_u = instance.n_demand * instance.soc_levels
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (n_x + n_u,):
        raise FleetError(f"decision vector must have length {n_x + n_u}")
    x = np.rint(vec[:n_x]).reshape(
        instance.n_supply, instance.n_demand, instance.soc_levels
    )
    u = vec[n_x:].reshape(instance.n_demand, instance.soc_levels)
    return Decision(x=x.astype(np.int64), u_hat=u)
