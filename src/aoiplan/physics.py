"""Channel, energy, and age-of-information arithmetic.

All planners reduce to these few formulas. Times are seconds, positions
meters, energies joules. The mission runs on [0, horizon]; each node's age
resets to its floor whenever it uploads an update.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ScheduleError
from .scenario import Scenario


@dataclass
class UpdateTimes:
    """Per-node ordered update instants within the mission horizon."""

    per_node: list[np.ndarray]

    def validate(self, horizon_s: float) -> None:
        for m, times in enumerate(self.per_node):
            arr = np.asarray(times, dtype=float)
            if arr.ndim != 1:
                raise ScheduleError(f"node {m + 1}: update times must be a 1-d array")
            if arr.size and (arr.min() < -1e-9 or arr.max() > horizon_s + 1e-9):
                raise ScheduleError(
                    f"node {m + 1}: update times must lie within [0, {horizon_s}]"
                )
            if arr.size > 1 and np.any(np.diff(arr) < -1e-9):
                raise ScheduleError(f"node {m + 1}: update times must be nondecreasing")


def split_by_node(order: list[int] | np.ndarray, values: np.ndarray, num_nodes: int) -> list[np.ndarray]:
    """Split merged per-update values into per-node sequences.

    ``order`` holds 1-based node indices in visit order; ``values`` is
    aligned with it (one entry per update).
    """
    order = np.asarray(order, dtype=int)
    values = np.asarray(values, dtype=float)
    if order.shape != values.shape:
        raise ScheduleError("order and values must have the same length")
    if order.size and (order.min() < 1 or order.max() > num_nodes):
        raise ScheduleError(f"visit order entries must lie in [1, {num_nodes}]")
    return [values[order == m + 1] for m in range(num_nodes)]


def channel_gain(scenario: Scenario, node_index: int, uav_xy: tuple[float, float]) -> float:
    """Uplink channel gain between a node and the UAV hovering at uav_xy.

    Line-of-sight free-space model: reference gain over squared 3-d
    distance, with the UAV at fixed altitude.
    """
    node = scenario.nodes[node_index]
    dx = uav_xy[0] - node.x
    dy = uav_xy[1] - node.y
    d2 = scenario.uav.altitude_m**2 + dx * dx + dy * dy
    return scenario.channel.beta0 / d2


def _snr_gap(scenario: Scenario) -> float:
    """The SNR one packet per unit time needs, 2^(S/B) - 1."""
    ch = scenario.channel
    return 2.0 ** (ch.packet_bits / ch.bandwidth_hz) - 1.0


def update_energy(scenario: Scenario, node_index: int, uav_xy: tuple[float, float]) -> float:
    """Transmit energy one update costs the node when the UAV sits at uav_xy.

    Inverts the channel rate equation for the power that delivers one
    packet in unit time, so the energy grows linearly with squared
    distance.
    """
    gain = channel_gain(scenario, node_index, uav_xy)
    return scenario.channel.noise_power_w * _snr_gap(scenario) / gain


def energy_budget_constant(scenario: Scenario, node_index: int, num_updates: int) -> float:
    """Remaining squared-horizontal-distance budget for a node's updates.

    A node with battery E making n updates can afford a total squared
    horizontal offset of E * beta0 / (sigma^2 * (2^(S/B) - 1)) - n * h^2
    across those updates. Negative means n updates are unaffordable even
    while hovering directly overhead.
    """
    ch = scenario.channel
    node = scenario.nodes[node_index]
    total = node.battery_j * ch.beta0 / (ch.noise_power_w * _snr_gap(scenario))
    return total - num_updates * scenario.uav.altitude_m**2


def nwaoi(scenario: Scenario, times: UpdateTimes) -> float:
    """Normalized weighted time-average age of information over the mission.

    For each node the time-average of a sawtooth age is the sum of squared
    gaps between consecutive updates (with virtual updates at 0 and the
    horizon), scaled by 1/(2*horizon); normalizing by the worst case
    (never updating) gives sum of squared gaps over horizon^2. The metric
    is the weight-blended value across nodes and lies in (0, 1], hitting 1
    exactly when no node ever updates. Age floors are excluded; they shift
    every policy equally.
    """
    # Summed in node order: a dot product would round differently.
    total = 0.0
    for weight, squares in zip(scenario.weights(), _squared_gaps(scenario, times)):
        total += weight * squares
    horizon = scenario.uav.horizon_s
    return total / (horizon * horizon)


def _squared_gaps(scenario: Scenario, times: UpdateTimes) -> list[float]:
    """Each node's sum of squared gaps between consecutive updates, fenced by
    virtual updates at 0 and the horizon; times must be valid and cover
    exactly the scenario's nodes."""
    horizon = scenario.uav.horizon_s
    times.validate(horizon)
    if len(times.per_node) != scenario.num_nodes:
        raise ScheduleError("update times must cover every node")
    fenced = [np.concatenate(([0.0], np.asarray(arr, dtype=float), [horizon])) for arr in times.per_node]
    return [float(np.sum(np.square(np.diff(f)))) for f in fenced]


def aoi_trace(
    scenario: Scenario, times: UpdateTimes, num_samples: int = 1001
) -> tuple[np.ndarray, np.ndarray]:
    """Sample each node's instantaneous age on a uniform grid over the mission.

    Returns (grid, ages) with ages shaped (num_samples, num_nodes). At an
    update instant the age has already reset to the node's floor.
    """
    times.validate(scenario.uav.horizon_s)
    horizon = scenario.uav.horizon_s
    grid = np.linspace(0.0, horizon, num_samples)
    ages = np.empty((num_samples, scenario.num_nodes), dtype=float)
    floors = scenario.aoi_floors()
    for m in range(scenario.num_nodes):
        arr = np.asarray(times.per_node[m], dtype=float)
        fenced = np.concatenate(([0.0], arr))
        # Index of the latest update at or before each grid point.
        idx = np.searchsorted(fenced, grid, side="right") - 1
        ages[:, m] = floors[m] + grid - fenced[idx]
    return grid, ages


def average_age(scenario: Scenario, times: UpdateTimes) -> np.ndarray:
    """Exact per-node time-average age (including the floor), in seconds."""
    squares = np.array(_squared_gaps(scenario, times))
    return scenario.aoi_floors() + squares / (2.0 * scenario.uav.horizon_s)


def write_aoi_trace_csv(
    path: str | Path,
    scenario: Scenario,
    times: UpdateTimes,
    num_samples: int = 1001,
) -> None:
    """Write the sampled age trace as CSV: time_s, then one column per node."""
    grid, ages = aoi_trace(scenario, times, num_samples)
    header = ",".join(["time_s"] + [f"age_node_{m + 1}_s" for m in range(scenario.num_nodes)])
    # One format per row, with the \r\n line ends csv.writer would give.
    row = ",".join(["%.10g"] * (scenario.num_nodes + 1)) + "\r\n"
    table = np.column_stack([grid, ages]).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n" + "".join(row % tuple(values) for values in table))
