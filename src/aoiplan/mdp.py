"""Episodic decision process over visit orders.

An episode builds a visit order one update at a time. The state after n
appended updates is a compact matrix: one column per update event holding
every node's remaining battery and the event's time, preceded by the
initial full-battery column. Rewards are the stepwise drops of the age
metric, so the return of an episode telescopes to 1 minus the metric of
its final order.

Each append re-solves the trajectory for the extended order. The solve
and the state depend on the order alone, so an environment keeps both per
order: the episodes of a pipeline (state corpus, training, greedy
rollout) that run on one environment solve each order once.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

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


class Step(NamedTuple):
    """What one step returns: the observation reached, the reward for
    reaching it and whether the episode ended. ``info`` holds diagnostics
    that no learner reads; it stays last, so replay keeps a column for every
    other field."""

    obs: Any
    reward: float
    terminal: bool
    info: Mapping[str, Any] = MappingProxyType({})


class ScheduleEnv:
    """Builds a visit order step by step, solving the trajectory of each order.

    Action 0 terminates the episode with zero reward; action m appends an
    update for node m. Appending an update whose solve is not optimal
    (the energy budget or geometry cannot support it, or the solver did not
    converge) ends the episode, keeps the previous order, and pays
    ``infeasible_penalty`` (zero by default, so such an attempt simply
    wastes the step). Each step's observation is the state matrix, so the
    env is an episodic task of its own for action rules that do not read it.
    Each order reached keeps its solve and read-only state matrix, shared
    by every episode run on the env.
    """

    # Also the class's own attribute, so the CLI's --penalty default reads it.
    infeasible_penalty = 0.0

    def __init__(self, scenario: Scenario, infeasible_penalty: float = infeasible_penalty):
        scenario.validate()
        self.scenario = scenario
        self.infeasible_penalty = infeasible_penalty
        initial = initial_state(scenario)
        initial.columns.flags.writeable = False
        # order -> (solve, state matrix or None when the solve is not
        # optimal); the empty order has no solve.
        self._memo: dict[tuple[int, ...], tuple[TrajectorySolution | None, StateMatrix | None]] = {
            (): (None, initial)
        }
        self.reset()

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

    def reset(self) -> StateMatrix:
        self._order: tuple[int, ...] = ()
        self._state = self._memo[()][1]
        self._metric = 1.0
        self._done = False
        return self._state

    def step(self, action: int) -> Step:
        if self._done:
            raise EpisodeFinishedError("episode already terminated; call reset()")
        action = int(action)
        if action < 0 or action >= self.num_actions:
            raise ScheduleError(f"action {action} outside [0, {self.num_actions - 1}]")
        reward = 0.0
        rejection: dict[str, Any] = {}
        if action == TERMINATE:
            self._done = True
        else:
            candidate = self._order + (action,)
            if candidate not in self._memo:
                solution = solve_schedule(self.scenario, candidate)
                state = None
                if solution.status == STATUS_OPTIMAL:
                    state = build_state_matrix(self.scenario, solution)
                    state.columns.flags.writeable = False
                self._memo[candidate] = solution, state
            solution, state = self._memo[candidate]
            if state is None:
                self._done = True
                reward = -self.infeasible_penalty
                reason = f"{solution.status}: {solution.message}"
                rejection = {"rejected": candidate, "reason": reason}
            else:
                reward = self._metric - solution.objective
                self._order, self._metric = candidate, solution.objective
                self._state = state
        info = {"metric": self._metric, "order": self._order, **rejection}
        return Step(self._state, reward, self._done, info)
