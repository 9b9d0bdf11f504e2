"""Closed-form limits on mission performance.

These results anchor everything else: the per-node update budget, the
floor on the normalized weighted age metric, the uniform schedule that
attains it when speed never binds, the minimum cruise speed that makes
that schedule flyable, and the weight profile a deployment should aim
for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import CoincidentTimesError
from .physics import energy_budget_constant
from .scenario import Scenario, result_document


def max_updates(scenario: Scenario, node_index: int) -> int:
    """Largest update count a node's battery can pay for, hovering overhead."""
    n = int(math.floor(energy_budget_constant(scenario, node_index, 0) / scenario.uav.altitude_m**2))
    # Pin the count to the budget function itself so float rounding in the
    # ratio cannot disagree with it.
    while energy_budget_constant(scenario, node_index, n + 1) >= 0.0:
        n += 1
    while n > 0 and energy_budget_constant(scenario, node_index, n) < 0.0:
        n -= 1
    return n


def all_max_updates(scenario: Scenario) -> np.ndarray:
    return np.array([max_updates(scenario, m) for m in range(scenario.num_nodes)], dtype=int)


def per_count_floor(scenario: Scenario, counts: np.ndarray | list[int]) -> float:
    """Lower bound on the metric of every order in which node m sends
    exactly counts[m] updates.

    It equals the weight-blended 1/(count+1): with the gaps' total fixed at
    the horizon, the sum of squared gaps is smallest when they are equal.
    Evenly spaced updates attain it only when travel allows them; otherwise
    every order with these counts scores strictly above it.
    """
    counts = np.asarray(counts, dtype=int)
    weights = scenario.weights()
    if counts.shape != (scenario.num_nodes,):
        raise ValueError("counts must have one entry per node")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    return float(np.sum(weights / (counts + 1.0)))


def lower_bound(scenario: Scenario) -> float:
    """Global floor on the metric: every node spends its full budget evenly."""
    return per_count_floor(scenario, all_max_updates(scenario))


def uniform_schedule(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Merged evenly spaced schedule at full budget.

    Returns (times, order): update instants sorted ascending and the
    1-based node index for each. Node m updates at i*horizon/(n_m+1),
    i = 1..n_m. Exact ties are broken by node index.
    """
    horizon = scenario.uav.horizon_s
    counts = all_max_updates(scenario)
    times = []
    order = []
    for m in range(scenario.num_nodes):
        n = counts[m]
        for i in range(1, n + 1):
            times.append(i * horizon / (n + 1))
            order.append(m + 1)
    times_arr = np.array(times, dtype=float)
    order_arr = np.array(order, dtype=int)
    perm = np.lexsort((order_arr, times_arr))
    return times_arr[perm], order_arr[perm]


def divisor_condition(scenario: Scenario) -> tuple[bool, list[tuple[int, int]]]:
    """Check the spacing-compatibility condition between node budgets.

    Fails for any node pair where one budget-plus-one divides the other
    (equal budgets included); such pairs force two updates to share an
    instant in the uniform schedule. Returns (ok, offending 1-based pairs).
    """
    counts = all_max_updates(scenario)
    offending = []
    m_count = scenario.num_nodes
    for a in range(m_count):
        for b in range(m_count):
            if a == b:
                continue
            if (counts[a] + 1) % (counts[b] + 1) == 0:
                pair = (min(a, b) + 1, max(a, b) + 1)
                if pair not in offending:
                    offending.append(pair)
    return (not offending, offending)


def min_speed_upper_bound(scenario: Scenario) -> float:
    """Speed that suffices to fly the uniform full-budget schedule visiting
    every update directly over its node.

    The bound is the largest per-axis leg speed across the merged schedule,
    including the legs from the start point to the first update and from
    the last update to the final point. Raises CoincidentTimesError when
    two merged updates share an instant, because a leg speed is then
    undefined; the spacing-compatibility check rules that out.
    """
    times, order = uniform_schedule(scenario)
    horizon = scenario.uav.horizon_s
    xy = scenario.node_xy()
    pts_t = np.concatenate(([0.0], times, [horizon]))
    pts_x = np.concatenate(
        ([scenario.uav.initial[0]], xy[order - 1, 0], [scenario.uav.final[0]])
    )
    pts_y = np.concatenate(
        ([scenario.uav.initial[1]], xy[order - 1, 1], [scenario.uav.final[1]])
    )
    best = 0.0
    for i in range(len(pts_t) - 1):
        dt = pts_t[i + 1] - pts_t[i]
        if dt <= 0.0:
            # Both points are merged updates; endpoint legs always have
            # positive duration because updates lie strictly inside (0, T).
            raise CoincidentTimesError(i, i + 1, float(pts_t[i]))
        best = max(best, abs(pts_x[i + 1] - pts_x[i]) / dt, abs(pts_y[i + 1] - pts_y[i]) / dt)
    return best


def weight_guidance(scenario: Scenario) -> np.ndarray:
    """Weight profile under which the full-budget uniform schedule is the
    weight-optimal allocation: proportional to each node's budget plus one."""
    counts = all_max_updates(scenario)
    raw = counts + 1.0
    return raw / raw.sum()


@dataclass
class BoundReport:
    """Everything the closed forms say about a scenario."""

    max_updates: list[int]
    metric_floor: float
    divisor_ok: bool
    offending_pairs: list[tuple[int, int]]
    sufficient_speed: float | None
    sufficient_speed_reason: str | None
    weight_guidance: list[float]
    uniform_times: list[float] = field(default_factory=list)
    uniform_order: list[int] = field(default_factory=list)

    def to_document(self) -> dict[str, Any]:
        return result_document(self)


def bound_report(scenario: Scenario) -> BoundReport:
    """Assemble the full closed-form report for a scenario."""
    counts = all_max_updates(scenario)
    ok, offending = divisor_condition(scenario)
    speed: float | None
    reason: str | None
    try:
        speed = min_speed_upper_bound(scenario)
        reason = None
    except CoincidentTimesError as exc:
        speed = None
        reason = str(exc)
    times, order = uniform_schedule(scenario)
    report = BoundReport(
        max_updates=[int(v) for v in counts],
        metric_floor=lower_bound(scenario),
        divisor_ok=ok,
        offending_pairs=offending,
        sufficient_speed=speed,
        sufficient_speed_reason=reason,
        weight_guidance=[float(v) for v in weight_guidance(scenario)],
        uniform_times=[float(v) for v in times],
        uniform_order=[int(v) for v in order],
    )
    return report
