"""Shared builders for desk-scale planning instances."""

import dataclasses

import numpy as np

from aoiplan import ChannelParams, Node, Scenario, UavParams, solve_schedule
from aoiplan.scenario import DEFAULT_REGION
from aoiplan.solver import STATUS_MAX_ITERATIONS


def hover_unit(altitude=UavParams.altitude_m, beta0=ChannelParams.beta0):
    """Energy one update draws while hovering straight above a node at the
    default channel settings."""
    gap = 2.0 ** (ChannelParams.packet_bits / ChannelParams.bandwidth_hz) - 1.0
    return ChannelParams.noise_power_w * gap * altitude**2 / beta0


# The unit at the default altitude.
UNIT = hover_unit()

POSITIONS = [
    (300.0, 300.0),
    (700.0, 600.0),
    (200.0, 800.0),
    (800.0, 200.0),
    (500.0, 500.0),
    (100.0, 400.0),
]


def build_scenario(
    counts,
    positions=None,
    weights=None,
    initial=(0.0, 0.0),
    final=DEFAULT_REGION,
    vmax=UavParams.vmax_x,
    horizon=UavParams.horizon_s,
    altitude=UavParams.altitude_m,
    margin=0.5,
    beta0=ChannelParams.beta0,
):
    """Instance whose node m admits exactly counts[m] updates.

    Battery (counts[m] + margin) * unit keeps the full-budget schedule
    feasible with every hover point at the node itself.
    """
    counts = list(counts)
    if positions is None:
        positions = POSITIONS[: len(counts)]
    if weights is None:
        weights = [1.0 / len(counts)] * len(counts)
    unit = hover_unit(altitude, beta0)
    nodes = [
        Node(x=float(x), y=float(y), battery_j=(c + margin) * unit, weight=float(w))
        for (x, y), c, w in zip(positions, counts, weights)
    ]
    return Scenario(
        nodes=nodes,
        channel=ChannelParams(beta0=beta0),
        uav=UavParams(
            initial=(float(initial[0]), float(initial[1])),
            final=(float(final[0]), float(final[1])),
            altitude_m=float(altitude),
            vmax_x=float(vmax),
            vmax_y=float(vmax),
            horizon_s=float(horizon),
        ),
    )


def nonconverged_at(bad_order):
    """A solve_schedule stand-in that reports ``max_iterations`` with the
    lowest possible objective for ``bad_order`` and solves the rest."""
    bad_order = tuple(bad_order)

    def solve(scenario, order, **kwargs):
        solution = solve_schedule(scenario, order, **kwargs)
        if tuple(order) != bad_order:
            return solution
        return dataclasses.replace(solution, status=STATUS_MAX_ITERATIONS, objective=0.0)

    return solve


def check_state(scenario, state):
    """Assert the shape of a state and the order of its rows: row 0 holds
    full batteries at time 0, battery fractions never rise and time
    fractions never fall. Each tolerance is the one in joules or seconds
    over the node's battery or the horizon."""
    m = scenario.num_nodes
    assert state.ndim == 2 and state.shape[1] == m + 1, "one column per node plus a time column"
    batteries = scenario.batteries()
    horizon = scenario.uav.horizon_s
    first = state[0]
    assert np.all(np.abs(first[:m] - 1.0) <= 1e-12 / batteries), "first row must hold full batteries"
    assert abs(first[m]) <= 1e-12 / horizon, "first row time must be zero"
    rises = np.diff(state[:, :m], axis=0)
    assert np.all(rises <= 1e-9 / batteries), "remaining energies must be nonincreasing"
    assert np.all(np.diff(state[:, m]) >= -1e-9 / horizon), "event times must be nondecreasing"
