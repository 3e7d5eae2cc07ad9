"""Ingestion of trip and weather tables into per-day instances.

Trips are delimited text with header
``pickup_time,dropoff_time,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,fare``
(ISO timestamps); weather is ``date,temperature,dew_point``. Other
columns are ignored, and a cell that does not parse raises
:class:`IngestError` naming its line and column. Zone assignment comes
from k-means over trip endpoints, seeded by k-means++. Within the peak
window, a dropoff makes a taxi available in its zone (supply) and a
pickup files a request in its zone (demand); zones whose requests
exceed their available taxis become demand areas, the rest supply
areas. Charge levels are attached by a seeded draw over low/medium/
high since trip tables carry no battery state.
"""

from __future__ import annotations

import csv
import datetime as _dt
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..fleet import FleetInstance
from .synth import EXOGENOUS_NAMES

SOC_PROBABILITIES = (0.3, 0.4, 0.3)  # low, medium, high
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-9  # largest centroid move that ends the iteration
KM_PER_DEGREE_LAT = 110.57
KM_PER_DEGREE_LON = 111.32


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class TripRecord:
    pickup_time: _dt.datetime
    dropoff_time: _dt.datetime
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float
    fare: float

    def __post_init__(self):
        if self.dropoff_time < self.pickup_time:
            raise IngestError("dropoff precedes pickup")
        for v in (self.pickup_lat, self.pickup_lon, self.dropoff_lat, self.dropoff_lon):
            if not np.isfinite(v):
                raise IngestError("coordinates must be finite")


@dataclass(frozen=True)
class WeatherDay:
    date: _dt.date
    temperature: float
    dew_point: float


_TRIP_COLUMNS = {
    "pickup_time": _dt.datetime.fromisoformat,
    "dropoff_time": _dt.datetime.fromisoformat,
    "pickup_lat": float,
    "pickup_lon": float,
    "dropoff_lat": float,
    "dropoff_lon": float,
    "fare": float,
}
_WEATHER_COLUMNS = {
    "date": _dt.date.fromisoformat,
    "temperature": float,
    "dew_point": float,
}


def _read_table(path: str, table: str, columns: dict) -> Iterator[dict]:
    """Each data row's cells in ``columns``, parsed by their functions."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(columns) - set(reader.fieldnames or [])
        if missing:
            raise IngestError(f"{table} table missing columns: {sorted(missing)}")
        for row in reader:
            cells = {}
            for name, parse in columns.items():
                try:
                    cells[name] = parse(row[name])
                except (TypeError, ValueError) as err:  # None for a short row
                    raise IngestError(
                        f"{table} table, line {reader.line_num}, column {name!r}: "
                        f"cannot read {row[name]!r}"
                    ) from err
            yield cells


def read_trips(path: str) -> list[TripRecord]:
    return [TripRecord(**cells) for cells in _read_table(path, "trip", _TRIP_COLUMNS)]


def read_weather(path: str) -> list[WeatherDay]:
    return [WeatherDay(**cells) for cells in _read_table(path, "weather", _WEATHER_COLUMNS)]


def cluster_zones(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means from a seeded k-means++ start.

    Returns (labels, centroids). The first centroid is a seeded draw
    from the points, each further one a draw weighted by the squared
    distance to the nearest centroid so far (uniform once every point
    is a centroid, when there are fewer distinct points than ``k``);
    iteration stops after ``KMEANS_MAX_ITER`` rounds or once every
    centroid moves less than ``KMEANS_TOL``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise IngestError("points must be an (n, d) array")
    if k > len(points):
        raise IngestError(f"k={k} exceeds the number of points ({len(points)})")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(len(points))]
    nearest = ((points - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = nearest.sum()
        if total > 0:
            pick = rng.choice(len(points), p=nearest / total)
        else:
            pick = rng.integers(len(points))
        centroids[c] = points[pick]
        nearest = np.minimum(nearest, ((points - centroids[c]) ** 2).sum(axis=1))
    labels = np.zeros(len(points), dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        labels = np.argmin(dists, axis=1)
        moved = 0.0
        for c in range(k):
            members = points[labels == c]
            if len(members) == 0:
                # re-seat an empty cluster on the farthest point
                far = int(np.argmax(dists[np.arange(len(points)), labels]))
                new = points[far]
            else:
                new = members.mean(axis=0)
            moved = max(moved, float(np.linalg.norm(new - centroids[c])))
            centroids[c] = new
        if moved < KMEANS_TOL:
            break
    dists = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
    labels = np.argmin(dists, axis=1)
    return labels, centroids


def _parse_window(window: str) -> tuple[_dt.time, _dt.time]:
    try:
        start_s, end_s = window.split("-")
        start = _dt.time.fromisoformat(start_s)
        end = _dt.time.fromisoformat(end_s)
    except ValueError as err:
        raise IngestError(f"cannot parse window {window!r}; use HH:MM-HH:MM") from err
    if end <= start:
        raise IngestError("window end must follow its start")
    return start, end


def zone_distances(centroids: np.ndarray) -> np.ndarray:
    """All-pairs centroid distances in kilometers (lat/lon inputs)."""
    lat = centroids[:, 0]
    lon = centroids[:, 1]
    mean_lat = np.deg2rad(lat.mean())
    dy = (lat[:, None] - lat[None, :]) * KM_PER_DEGREE_LAT
    dx = (lon[:, None] - lon[None, :]) * KM_PER_DEGREE_LON * np.cos(mean_lat)
    return np.hypot(dx, dy)


def build_instances(
    trips: list[TripRecord],
    weather: list[WeatherDay],
    window: str,
    centroids: np.ndarray,
    seed: int = 0,
) -> list[tuple[str, FleetInstance, dict[str, float]]]:
    """Per-day instances from trips within the peak window.

    Returns (date, instance, exogenous features) triples. A pickup
    counts on its own date and a dropoff on its own, so a trip that
    crosses midnight frees its taxi on the day it ends. Days whose
    window shows both at least one surplus zone and one deficit zone
    make an instance; others are skipped. Raises when no day has any
    window trips at all. Each instance has one charge level per entry
    of ``SOC_PROBABILITIES`` and :class:`.FleetInstance`'s default
    costs, fees and fare bounds.
    """
    soc_levels = len(SOC_PROBABILITIES)
    start, end = _parse_window(window)
    weather_by_date = {w.date: w for w in weather}
    centroids = np.asarray(centroids, dtype=float)
    n_zones = len(centroids)
    distances = zone_distances(centroids)
    rng = np.random.default_rng(seed)

    def zone_of(lat: float, lon: float) -> int:
        d = np.linalg.norm(centroids - np.array([lat, lon]), axis=1)
        return int(np.argmin(d))

    # (is a pickup, zone) per window event, by the event's own date
    events: dict[_dt.date, list[tuple[bool, int]]] = {}
    for trip in trips:
        for when, lat, lon, pickup in (
            (trip.pickup_time, trip.pickup_lat, trip.pickup_lon, True),
            (trip.dropoff_time, trip.dropoff_lat, trip.dropoff_lon, False),
        ):
            if start <= when.time() < end:
                events.setdefault(when.date(), []).append((pickup, zone_of(lat, lon)))
    if not events:
        raise IngestError(f"no trips fall inside the window {window}")

    out = []
    for date in sorted(events):
        supply_counts = np.zeros((n_zones, soc_levels), dtype=np.int64)
        demand_counts = np.zeros((n_zones, soc_levels), dtype=np.int64)
        for pickup, z in events[date]:
            level = int(rng.choice(soc_levels, p=SOC_PROBABILITIES))
            (demand_counts if pickup else supply_counts)[z, level] += 1
        touched = {z for _, z in events[date]}
        deficit = [
            z
            for z in sorted(touched)
            if demand_counts[z].sum() > supply_counts[z].sum()
        ]
        surplus = [z for z in sorted(touched) if z not in deficit]
        if not deficit or not surplus:
            continue
        instance = FleetInstance(
            supply_areas=tuple(surplus),
            demand_areas=tuple(deficit),
            soc_levels=soc_levels,
            supply=supply_counts[surplus],
            demand=demand_counts[deficit],
            distance_km=distances[np.ix_(surplus, deficit)],
        )
        wx = weather_by_date.get(date)
        values = (
            wx.temperature if wx else 15.0,
            wx.dew_point if wx else 10.0,
            float(date.weekday()),
        )
        exogenous = dict(zip(EXOGENOUS_NAMES, values, strict=True))
        out.append((date.isoformat(), instance, exogenous))
    return out
