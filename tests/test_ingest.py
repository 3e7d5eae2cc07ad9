"""Ingestion of trip and weather tables into per-day instances."""

import datetime as dt

import numpy as np
import pytest

from fleetopt.bench import (
    IngestError,
    WeatherDay,
    build_instances,
    cluster_zones,
    read_trips,
    read_weather,
)

TRIP_HEADER = "pickup_time,dropoff_time,pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,fare"

# two zones, one around (0, 0) and one around (1, 1)
CENTROIDS = np.array([[0.0, 0.0], [1.0, 1.0]])
A, B = "0.01,0.0", "1.0,0.99"


def trip(pickup, dropoff, start, end, fare="12.5"):
    return f"{pickup},{dropoff},{start},{end},{fare}"


# on 2024-03-04: four pickups in zone A and one in B inside 08:00-09:00,
# three dropoffs in B and one in A inside it; one trip falls outside
TRIPS = [
    trip("2024-03-04T08:05:00", "2024-03-04T08:20:00", A, B),
    trip("2024-03-04T08:10:00", "2024-03-04T08:25:00", A, B),
    trip("2024-03-04T08:15:00", "2024-03-04T08:40:00", A, B),
    trip("2024-03-04T08:30:00", "2024-03-04T09:10:00", A, B),
    trip("2024-03-04T08:45:00", "2024-03-04T08:55:00", B, A),
    trip("2024-03-04T12:00:00", "2024-03-04T12:30:00", B, A),
]


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def trips_file(tmp_path, rows=TRIPS, header=TRIP_HEADER):
    return write(tmp_path, "trips.csv", [header, *rows])


def test_tables_read_with_their_extra_columns(tmp_path):
    trips = read_trips(trips_file(tmp_path, [r + ",x" for r in TRIPS], TRIP_HEADER + ",vendor_id"))
    assert len(trips) == len(TRIPS)
    assert trips[0].pickup_time == dt.datetime(2024, 3, 4, 8, 5)
    assert (trips[4].pickup_lat, trips[4].dropoff_lon, trips[4].fare) == (1.0, 0.0, 12.5)
    weather = read_weather(write(tmp_path, "weather.csv", [
        "date,temperature,dew_point,rain,sky",
        "2024-03-04,11.5,4.0,0.3,",
        "2024-03-05,9.0,2.5,0.0,clear",
    ]))
    assert weather == [
        WeatherDay(dt.date(2024, 3, 4), 11.5, 4.0),
        WeatherDay(dt.date(2024, 3, 5), 9.0, 2.5),
    ]


def test_a_malformed_cell_raises_naming_its_line_and_column(tmp_path):
    rows = [*TRIPS[:2], trip("2024-03-04T08:05:00", "2024-03-04T08:20:00", A, B, fare="")]
    with pytest.raises(IngestError, match="trip table, line 4, column 'fare': cannot read ''"):
        read_trips(trips_file(tmp_path, rows))
    with pytest.raises(IngestError, match="line 3, column 'temperature'"):
        read_weather(write(tmp_path, "weather.csv", [
            "date,temperature,dew_point", "2024-03-04,11.5,4.0", "2024-03-05,mild,2.5",
        ]))
    with pytest.raises(IngestError, match="line 2, column 'dew_point': cannot read None"):
        read_weather(write(tmp_path, "weather.csv", ["date,temperature,dew_point", "2024-03-04,11.5"]))


def test_missing_columns_and_a_dropoff_before_its_pickup_raise(tmp_path):
    with pytest.raises(IngestError, match="fare"):
        read_trips(trips_file(tmp_path, [r.rsplit(",", 1)[0] for r in TRIPS],
                              TRIP_HEADER.rsplit(",", 1)[0]))
    with pytest.raises(IngestError, match="dew_point"):
        read_weather(write(tmp_path, "weather.csv", ["date,temperature", "2024-03-04,11.5"]))
    backwards = trip("2024-03-04T08:30:00", "2024-03-04T08:10:00", A, B)
    with pytest.raises(IngestError, match="dropoff precedes pickup"):
        read_trips(trips_file(tmp_path, [*TRIPS, backwards]))


def test_zones_are_the_same_for_a_given_seed():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.normal(c, 0.05, (30, 2)) for c in ([0, 0], [1, 0], [0, 1])])
    labels, centroids = cluster_zones(points, 3, seed=4)
    again, centroids_again = cluster_zones(points, 3, seed=4)
    assert np.array_equal(labels, again) and np.array_equal(centroids, centroids_again)
    # a fixed point of Lloyd's rounds: each point in the zone of its
    # nearest centroid, each centroid its zone's mean
    nearest = np.argmin(np.linalg.norm(points[:, None] - centroids[None], axis=2), axis=1)
    assert np.array_equal(labels, nearest)
    for c in range(3):
        assert np.allclose(centroids[c], points[labels == c].mean(axis=0))
    with pytest.raises(IngestError):
        cluster_zones(points[:2], 3, seed=4)


def test_each_seed_puts_one_zone_on_each_blob():
    rng = np.random.default_rng(0)
    centres = np.array([[0, 0], [1, 0], [0, 1]])
    points = np.concatenate([rng.normal(c, 0.05, (30, 2)) for c in centres])
    for seed in range(10):
        _, centroids = cluster_zones(points, 3, seed=seed)
        blob = np.argmin(np.linalg.norm(centroids[:, None] - centres[None], axis=2), axis=1)
        assert sorted(blob.tolist()) == [0, 1, 2], seed


def window_counts(trips, date, start, end, zone_of):
    """Pickups and dropoffs per zone on ``date`` inside [start, end)."""
    pickups, dropoffs = {}, {}
    for t in trips:
        for when, lat, lon, out in ((t.pickup_time, t.pickup_lat, t.pickup_lon, pickups),
                                    (t.dropoff_time, t.dropoff_lat, t.dropoff_lon, dropoffs)):
            if when.date() == date and start <= when.time() < end:
                z = zone_of(lat, lon)
                out[z] = out.get(z, 0) + 1
    return pickups, dropoffs


def zone_of(lat, lon):
    return int(np.argmin(np.linalg.norm(CENTROIDS - [lat, lon], axis=1)))


def test_instances_count_the_windows_pickups_and_dropoffs(tmp_path):
    # the last trip starts before midnight and ends inside the next day's
    # window, so its dropoff belongs to that day
    rows = TRIPS + [
        trip("2024-03-05T08:05:00", "2024-03-05T08:30:00", A, B),
        trip("2024-03-05T08:20:00", "2024-03-05T08:50:00", A, B),
        trip("2024-03-04T23:40:00", "2024-03-05T08:15:00", A, B),
    ]
    trips = read_trips(trips_file(tmp_path, rows))
    weather = read_weather(write(tmp_path, "weather.csv", [
        "date,temperature,dew_point", "2024-03-04,11.5,4.0",
    ]))
    out = build_instances(trips, weather, "08:00-09:00", CENTROIDS, seed=3)
    assert [date for date, _, _ in out] == ["2024-03-04", "2024-03-05"]
    for date, inst, exogenous in out:
        day = dt.date.fromisoformat(date)
        pickups, dropoffs = window_counts(trips, day, dt.time(8), dt.time(9), zone_of)
        assert set(inst.supply_areas).isdisjoint(inst.demand_areas)
        assert set(inst.supply_areas) | set(inst.demand_areas) == set(pickups) | set(dropoffs)
        for z, row in zip(inst.supply_areas, inst.supply):
            assert row.sum() == dropoffs.get(z, 0) >= pickups.get(z, 0)
        for z, row in zip(inst.demand_areas, inst.demand):
            assert row.sum() == pickups[z] > dropoffs.get(z, 0)
        assert exogenous["day_of_week"] == day.weekday()
    assert out[0][1].supply_areas == (1,) and out[0][1].demand_areas == (0,)
    assert out[0][2]["temperature"] == 11.5
    # the same seed draws the same charge levels
    again = build_instances(trips, weather, "08:00-09:00", CENTROIDS, seed=3)
    for (_, a, _), (_, b, _) in zip(out, again):
        assert np.array_equal(a.supply, b.supply) and np.array_equal(a.demand, b.demand)


def test_a_window_with_no_trips_raises(tmp_path):
    trips = read_trips(trips_file(tmp_path))
    with pytest.raises(IngestError, match="no trips"):
        build_instances(trips, [], "03:00-04:00", CENTROIDS)
    with pytest.raises(IngestError, match="window"):
        build_instances(trips, [], "09:00-08:00", CENTROIDS)
