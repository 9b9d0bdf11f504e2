"""Shared builders for desk-scale planning instances."""

import dataclasses

from aoiplan import ChannelParams, Node, Scenario, UavParams, solve_schedule, solve_schedules
from aoiplan.solver import STATUS_MAX_ITERATIONS

# Energy one update draws while hovering straight above a node at the
# default channel settings and 80 m altitude.
UNIT = 1e-13 * 1023.0 * 6400.0 / 1e-3

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
    final=(1000.0, 1000.0),
    vmax=25.0,
    horizon=900.0,
    altitude=80.0,
    margin=0.5,
    beta0=1e-3,
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
    gap = 2.0 ** (10e6 / 1e6) - 1.0
    unit = 1e-13 * gap * altitude**2 / beta0
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


def nonconverged_in_stack_at(bad_order):
    """The solve_schedules counterpart of ``nonconverged_at``."""
    bad_order = tuple(bad_order)

    def solve(scenario, orders, **kwargs):
        return [
            dataclasses.replace(solution, status=STATUS_MAX_ITERATIONS, objective=0.0)
            if solution.order == bad_order
            else solution
            for solution in solve_schedules(scenario, orders, **kwargs)
        ]

    return solve
