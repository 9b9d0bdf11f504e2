"""Episodic decision process over visit orders.

An episode builds a visit order one update at a time. The state after n
appended updates is an (n + 1) x (nodes + 1) array, one row per update
event: each node's remaining battery as a fraction of its battery, then
the event's time as a fraction of the horizon. Row 0 is the mission start
(ones, then 0), and learners read these rows as they are. Rewards are the
stepwise drops of the age metric, so the return of an episode telescopes
to 1 minus the metric of its final order.

Each append re-solves the trajectory for the extended order. The solve
and the state depend on the order alone, so an environment keeps both per
order: the episodes of a pipeline (state corpus, training, greedy
rollout) that run on one environment solve each order once.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

import numpy as np

from .errors import EpisodeFinishedError, ScheduleError
from .physics import update_energy
from .scenario import Scenario
from .solver import STATUS_OPTIMAL, TrajectorySolution, solve_schedule

TERMINATE = 0


def build_state_matrix(scenario: Scenario, solution: TrajectorySolution) -> np.ndarray:
    """State of a solved order: row j holds each node's remaining battery over
    its battery after the j-th update, then that update's time over the
    horizon; row 0 is the mission start."""
    m = scenario.num_nodes
    batteries = scenario.batteries()
    remaining = batteries.copy()
    state = initial_state(scenario).repeat(solution.times_s.size + 1, axis=0)
    for i, node in enumerate(solution.order):
        xy = (solution.waypoints_xy[i, 0], solution.waypoints_xy[i, 1])
        remaining[node - 1] -= update_energy(scenario, node - 1, xy)
        state[i + 1, :m] = remaining / batteries
    state[1:, m] = solution.times_s / scenario.uav.horizon_s
    return state


def initial_state(scenario: Scenario) -> np.ndarray:
    """The one-row state of the mission start: full batteries at time 0."""
    state = np.ones((1, scenario.num_nodes + 1))
    state[0, -1] = 0.0
    return state


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
    wastes the step). Each step's observation is the state, the rows of
    battery and horizon fractions, so the env is an episodic task of its
    own for action rules that do not read it. Each order reached keeps its
    solve and read-only state, shared by every episode run on the env.
    """

    # Also the class's own attribute, so the CLI's --penalty default reads it.
    infeasible_penalty = 0.0

    def __init__(self, scenario: Scenario, infeasible_penalty: float = infeasible_penalty):
        scenario.validate()
        self.scenario = scenario
        self.infeasible_penalty = infeasible_penalty
        initial = initial_state(scenario)
        initial.flags.writeable = False
        # order -> (solve, state or None when the solve is not optimal); the
        # empty order has no solve.
        self._memo: dict[tuple[int, ...], tuple[TrajectorySolution | None, np.ndarray | None]] = {
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
    def state(self) -> np.ndarray:
        return self._state

    def reset(self) -> np.ndarray:
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
                    state.flags.writeable = False
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
