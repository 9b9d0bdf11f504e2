"""Channel gain, update energy, and the normalized age metric."""

import csv

import numpy as np
import pytest

from aoiplan import (
    ScheduleError,
    UpdateTimes,
    aoi_trace,
    average_age,
    channel_gain,
    energy_budget_constant,
    nwaoi,
    split_by_node,
    update_energy,
)
from aoiplan.physics import write_aoi_trace_csv
from conftest import UNIT, build_scenario


def times_of(scenario, *per_node):
    t = UpdateTimes([np.asarray(v, dtype=float) for v in per_node])
    t.validate(scenario.uav.horizon_s)
    return t


def test_gain_above_node():
    scenario = build_scenario([1])
    gain = channel_gain(scenario, 0, (300.0, 300.0))
    assert gain == pytest.approx(1.5625e-7, rel=1e-15)


def test_gain_at_lateral_offset():
    scenario = build_scenario([1])
    gain = channel_gain(scenario, 0, (400.0, 300.0))
    assert gain == pytest.approx(1e-3 / 16400.0, rel=1e-15)


def test_gain_decreases_with_offset():
    scenario = build_scenario([1])
    hover = channel_gain(scenario, 0, (300.0, 300.0))
    for d in (1.0, 10.0, 250.0):
        assert channel_gain(scenario, 0, (300.0 + d, 300.0)) < hover


def test_hover_energy_value():
    scenario = build_scenario([1])
    energy = update_energy(scenario, 0, (300.0, 300.0))
    assert energy == pytest.approx(6.5472e-4, rel=1e-12)
    assert energy == pytest.approx(UNIT, rel=1e-15)


def test_energy_linear_in_squared_distance():
    # h^2 + d^2 doubles when the offset equals the altitude.
    scenario = build_scenario([1])
    energy = update_energy(scenario, 0, (380.0, 300.0))
    assert energy == pytest.approx(2.0 * UNIT, rel=1e-12)


def test_hover_energy_is_minimal():
    scenario = build_scenario([1])
    hover = update_energy(scenario, 0, (300.0, 300.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        xy = rng.uniform(0.0, 1000.0, 2)
        assert update_energy(scenario, 0, (xy[0], xy[1])) >= hover


def test_budget_constant_at_full_joule():
    scenario = build_scenario([1])
    scenario.nodes[0].battery_j = 1.0
    c0 = energy_budget_constant(scenario, 0, 0)
    assert c0 == pytest.approx(1e10 / 1023.0, rel=1e-12)
    c1 = energy_budget_constant(scenario, 0, 1)
    assert c0 - c1 == pytest.approx(6400.0, rel=1e-12)


def test_budget_constant_sign_tracks_budget():
    scenario = build_scenario([3])
    assert energy_budget_constant(scenario, 0, 3) > 0.0
    assert energy_budget_constant(scenario, 0, 4) < 0.0


def test_metric_empty_schedule_is_one():
    scenario = build_scenario([2])
    assert nwaoi(scenario, times_of(scenario, [])) == 1.0


def test_metric_symmetric_split():
    scenario = build_scenario([2])
    assert nwaoi(scenario, times_of(scenario, [450.0])) == pytest.approx(0.5, abs=1e-15)


def test_metric_uniform_thirds():
    scenario = build_scenario([2])
    value = nwaoi(scenario, times_of(scenario, [300.0, 600.0]))
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_metric_blends_weights():
    scenario = build_scenario([2, 2], weights=[0.3, 0.7])
    value = nwaoi(scenario, times_of(scenario, [], [450.0]))
    assert value == pytest.approx(0.3 * 1.0 + 0.7 * 0.5, abs=1e-15)


def test_metric_rejects_unsorted_times():
    scenario = build_scenario([2])
    with pytest.raises(ScheduleError, match="nondecreasing"):
        nwaoi(scenario, UpdateTimes([np.array([600.0, 300.0])]))


def test_metric_rejects_times_beyond_horizon():
    scenario = build_scenario([2])
    with pytest.raises(ScheduleError, match="within"):
        nwaoi(scenario, UpdateTimes([np.array([950.0])]))


def test_split_by_node():
    parts = split_by_node([1, 2, 1], np.array([100.0, 200.0, 300.0]), 2)
    assert parts[0].tolist() == [100.0, 300.0]
    assert parts[1].tolist() == [200.0]


def test_split_rejects_out_of_range_entries():
    with pytest.raises(ScheduleError, match=r"\[1, 2\]"):
        split_by_node([1, 3], np.array([1.0, 2.0]), 2)


def test_trace_no_updates_is_linear():
    scenario = build_scenario([1])
    grid, ages = aoi_trace(scenario, times_of(scenario, []), num_samples=11)
    assert np.allclose(ages[:, 0], grid)


def test_trace_resets_at_update():
    scenario = build_scenario([1])
    grid, ages = aoi_trace(scenario, times_of(scenario, [450.0]), num_samples=9)
    at_update = np.where(np.isclose(grid, 450.0))[0][0]
    assert ages[at_update, 0] == 0.0
    assert ages[at_update - 1, 0] == pytest.approx(grid[at_update - 1])


def test_trace_honors_age_floor():
    scenario = build_scenario([1])
    scenario.nodes[0].aoi_floor_s = 5.0
    grid, ages = aoi_trace(scenario, times_of(scenario, [450.0]), num_samples=9)
    at_update = np.where(np.isclose(grid, 450.0))[0][0]
    assert ages[at_update, 0] == 5.0
    assert ages[0, 0] == 5.0


def test_trace_integral_identity():
    # Update instants sit on grid points, so the sampled age climbs at unit
    # slope inside every grid interval and sum(A_k*dt + dt^2/2) integrates
    # the sawtooth exactly: integral A = floor*T + sum(gap^2)/2.
    scenario = build_scenario([3])
    scenario.nodes[0].aoi_floor_s = 2.0
    num_samples = 100_001
    # Take the update instants from the sample grid itself so no reset
    # falls strictly inside a grid interval.
    full_grid = np.linspace(0.0, 900.0, num_samples)
    instants = full_grid[[25_000, 50_000, 75_000]]
    times = times_of(scenario, instants)
    grid, ages = aoi_trace(scenario, times, num_samples=num_samples)
    steps = np.diff(grid)
    integral = float(np.sum(ages[:-1, 0] * steps) + np.sum(steps * steps) / 2.0)
    gaps = np.diff(np.concatenate(([0.0], instants, [900.0])))
    closed = 2.0 * 900.0 + float(np.sum(gaps**2)) / 2.0
    assert integral == pytest.approx(closed, rel=1e-6)


def test_trace_trapezoid_tracks_metric():
    # Plain trapezoid misses half a jump per reset, an O(dt) effect, so the
    # tolerance is loose relative to the identity test above.
    scenario = build_scenario([2, 1], weights=[0.6, 0.4])
    times = times_of(scenario, [300.0, 600.0], [450.0])
    grid, ages = aoi_trace(scenario, times, num_samples=100_001)
    horizon = scenario.uav.horizon_s
    weights = scenario.weights()
    value = 0.0
    for m in range(2):
        integral = float(np.trapezoid(ages[:, m], grid))
        value += weights[m] * integral * 2.0 / horizon**2
    assert value == pytest.approx(nwaoi(scenario, times), rel=1e-3)


def test_average_age_closed_form():
    scenario = build_scenario([2, 1], weights=[0.6, 0.4])
    scenario.nodes[1].aoi_floor_s = 3.0
    times = times_of(scenario, [300.0, 600.0], [450.0])
    avg = average_age(scenario, times)
    assert avg[0] == pytest.approx((300.0**2 * 3) / 1800.0, rel=1e-12)
    assert avg[1] == pytest.approx(3.0 + (450.0**2 * 2) / 1800.0, rel=1e-12)


def test_average_age_matches_metric():
    scenario = build_scenario([2, 1], weights=[0.6, 0.4])
    times = times_of(scenario, [300.0, 600.0], [450.0])
    avg = average_age(scenario, times)
    horizon = scenario.uav.horizon_s
    blended = float(np.sum(scenario.weights() * avg) * 2.0 / horizon)
    assert blended == pytest.approx(nwaoi(scenario, times), rel=1e-12)


@pytest.mark.parametrize("per_node", [[[300.0]], [[300.0], [450.0], [600.0]]], ids=["short", "long"])
def test_wrong_node_count_raises_schedule_error(per_node):
    scenario = build_scenario([1, 1])
    times = UpdateTimes([np.asarray(v) for v in per_node])
    for metric in (nwaoi, average_age):
        with pytest.raises(ScheduleError, match="update times must cover every node"):
            metric(scenario, times)


def test_trace_csv_layout(tmp_path):
    scenario = build_scenario([1, 1])
    times = times_of(scenario, [450.0], [])
    path = tmp_path / "trace.csv"
    write_aoi_trace_csv(path, scenario, times, num_samples=5)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "age_node_1_s", "age_node_2_s"]
    assert len(rows) == 6
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == 900.0


def _reference_trace_csv(path, scenario, times, num_samples=1001):
    """The cell-by-cell csv.writer version of write_aoi_trace_csv."""
    grid, ages = aoi_trace(scenario, times, num_samples)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s"] + [f"age_node_{m + 1}_s" for m in range(scenario.num_nodes)])
        for i in range(grid.size):
            writer.writerow([f"{grid[i]:.10g}"] + [f"{ages[i, m]:.10g}" for m in range(scenario.num_nodes)])


@pytest.mark.parametrize(
    "counts, per_node, floor",
    [
        ([1, 1], ([450.0], []), 0.0),
        ([2, 1], ([300.0, 600.0], [450.0]), 0.0),
        ([2, 1, 1], ([123.456789, 777.0], [1e-9], [899.999]), 2.5),
        ([1], ([],), 7.0),
    ],
)
def test_trace_csv_matches_csv_writer_bytes(tmp_path, counts, per_node, floor):
    scenario = build_scenario(counts)
    scenario.nodes[0].aoi_floor_s = floor
    times = times_of(scenario, *per_node)
    for num_samples in (1001, 7):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_aoi_trace_csv(got, scenario, times, num_samples=num_samples)
        _reference_trace_csv(want, scenario, times, num_samples=num_samples)
        assert got.read_bytes() == want.read_bytes()
