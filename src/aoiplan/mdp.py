"""Episodic decision process over visit orders.

An episode builds a visit order one update at a time. The state after n
appended updates is a compact matrix: one column per update event holding
every node's remaining battery and the event's time, preceded by the
initial full-battery column. Rewards are the stepwise drops of the age
metric, so the return of an episode telescopes to 1 minus the metric of
its final order.

Each non-terminating action triggers a full trajectory re-solve for the
extended order; the state never depends on how the order was reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import EpisodeFinishedError, ScheduleError
from .physics import update_energy
from .scenario import Scenario
from .solver import STATUS_OPTIMAL, TrajectorySolution, solve_schedule

TERMINATE = 0


@dataclass
class StateMatrix:
    """Remaining energies and event times after each scheduled update.

    ``columns`` has one row per node plus a final time row; column j is the
    state right after the j-th update event (column 0 is the mission start).
    """

    columns: np.ndarray

    def validate(self, scenario: Scenario) -> None:
        m = scenario.num_nodes
        if self.columns.ndim != 2 or self.columns.shape[0] != m + 1:
            raise ScheduleError("state matrix must have one row per node plus a time row")
        batteries = scenario.batteries()
        first = self.columns[:, 0]
        if not np.allclose(first[:m], batteries, rtol=0, atol=1e-12):
            raise ScheduleError("first column must hold full batteries")
        if abs(first[m]) > 1e-12:
            raise ScheduleError("first column time must be zero")
        energies = self.columns[:m, :]
        if np.any(np.diff(energies, axis=1) > 1e-9):
            raise ScheduleError("remaining energies must be nonincreasing")
        times = self.columns[m, :]
        if np.any(np.diff(times) < -1e-9):
            raise ScheduleError("event times must be nondecreasing")

    @property
    def num_events(self) -> int:
        return self.columns.shape[1] - 1


def build_state_matrix(scenario: Scenario, solution: TrajectorySolution) -> StateMatrix:
    """State matrix for a solved order: batteries drained event by event."""
    m = scenario.num_nodes
    n = solution.times_s.size
    cols = np.zeros((m + 1, n + 1))
    cols[:m, 0] = scenario.batteries()
    remaining = scenario.batteries().copy()
    for i in range(n):
        node = solution.order[i] - 1
        spent = update_energy(
            scenario, node, (solution.waypoints_xy[i, 0], solution.waypoints_xy[i, 1])
        )
        remaining[node] -= spent
        cols[:m, i + 1] = remaining
        cols[m, i + 1] = solution.times_s[i]
    return StateMatrix(columns=cols)


def initial_state(scenario: Scenario) -> StateMatrix:
    cols = np.zeros((scenario.num_nodes + 1, 1))
    cols[: scenario.num_nodes, 0] = scenario.batteries()
    return StateMatrix(columns=cols)


@dataclass
class Transition:
    """One environment step."""

    state: StateMatrix
    action: int
    reward: float
    next_state: StateMatrix
    terminal: bool
    info: dict[str, Any] = field(default_factory=dict)


def episode_return(transitions: list[Transition]) -> float:
    return float(sum(t.reward for t in transitions))


class ScheduleEnv:
    """Builds a visit order step by step, re-solving the trajectory each time.

    Action 0 terminates the episode with zero reward; action m appends an
    update for node m. Appending an update whose solve is not optimal
    (the energy budget or geometry cannot support it, or the solver did not
    converge) ends the episode, keeps the previous order, and pays
    ``infeasible_penalty`` (zero by default, so such an attempt simply
    wastes the step).
    """

    def __init__(
        self,
        scenario: Scenario,
        infeasible_penalty: float = 0.0,
        solve_cache: dict[tuple[int, ...], TrajectorySolution] | None = None,
    ):
        scenario.validate()
        self.scenario = scenario
        self.infeasible_penalty = infeasible_penalty
        self._cache = solve_cache if solve_cache is not None else {}
        self._order: tuple[int, ...] = tuple()
        self._state = initial_state(scenario)
        self._metric = 1.0
        self._done = False

    @property
    def num_actions(self) -> int:
        return self.scenario.num_nodes + 1

    @property
    def done(self) -> bool:
        return self._done

    @property
    def order(self) -> tuple[int, ...]:
        return self._order

    @property
    def metric(self) -> float:
        return self._metric

    @property
    def state(self) -> StateMatrix:
        return self._state

    def solve_order(self, order: tuple[int, ...]) -> TrajectorySolution:
        cached = self._cache.get(order)
        if cached is None:
            cached = solve_schedule(self.scenario, order)
            self._cache[order] = cached
        return cached

    def reset(self) -> StateMatrix:
        self._order = tuple()
        self._state = initial_state(self.scenario)
        self._metric = 1.0
        self._done = False
        return self._state

    def step(self, action: int) -> Transition:
        if self._done:
            raise EpisodeFinishedError("episode already terminated; call reset()")
        action = int(action)
        if action < 0 or action >= self.num_actions:
            raise ScheduleError(f"action {action} outside [0, {self.num_actions - 1}]")
        state = self._state

        if action == TERMINATE:
            self._done = True
            return Transition(
                state=state,
                action=action,
                reward=0.0,
                next_state=state,
                terminal=True,
                info={"metric": self._metric, "order": self._order},
            )

        candidate = self._order + (action,)
        solution = self.solve_order(candidate)
        if solution.status != STATUS_OPTIMAL:
            self._done = True
            return Transition(
                state=state,
                action=action,
                reward=-self.infeasible_penalty,
                next_state=state,
                terminal=True,
                info={
                    "metric": self._metric,
                    "order": self._order,
                    "rejected": candidate,
                    "reason": f"{solution.status}: {solution.message}",
                },
            )
        next_state = build_state_matrix(self.scenario, solution)
        reward = self._metric - solution.objective
        self._order = candidate
        self._state = next_state
        self._metric = solution.objective
        return Transition(
            state=state,
            action=action,
            reward=reward,
            next_state=next_state,
            terminal=False,
            info={"metric": self._metric, "order": self._order},
        )
