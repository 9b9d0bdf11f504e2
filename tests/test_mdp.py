"""Order-building environment: rewards telescope to metric drops."""

import numpy as np
import pytest

from aoiplan import (
    EpisodeFinishedError,
    ScheduleEnv,
    ScheduleError,
    Step,
    build_state_matrix,
    lower_bound,
    solve_schedule,
    update_energy,
)
from aoiplan.mdp import TERMINATE, initial_state
from conftest import UNIT, build_scenario, check_state, nonconverged_at


def episode_return(steps):
    return float(sum(step.reward for step in steps))


def test_initial_state_column():
    scenario = build_scenario([1, 2])
    state = initial_state(scenario)
    assert state.shape == (1, 3)
    assert np.array_equal(state[0, :2], np.ones(2))
    assert state[0, 2] == 0.0
    assert len(state) - 1 == 0
    check_state(scenario, state)


def test_reset_is_idempotent():
    env = ScheduleEnv(build_scenario([1, 1]))
    first = env.reset()
    env.step(1)
    second = env.reset()
    assert np.array_equal(first, second)
    assert env.order == ()
    assert env.metric == 1.0
    assert not env.done


def test_hover_first_step_reward():
    scenario = build_scenario(
        [1], positions=[(500.0, 500.0)], initial=(500.0, 500.0), final=(500.0, 500.0)
    )
    env = ScheduleEnv(scenario)
    transition = env.step(1)
    # Metric falls from 1 to 0.5, so the reward is the 0.5 drop.
    assert transition.reward == pytest.approx(0.5, abs=1e-9)
    assert not transition.terminal
    assert env.order == (1,)


def test_terminate_action_pays_nothing():
    env = ScheduleEnv(build_scenario([1, 1]))
    transition = env.step(TERMINATE)
    assert transition.reward == 0.0
    assert transition.terminal
    assert env.done
    assert env.order == ()


def test_step_after_done_raises():
    env = ScheduleEnv(build_scenario([1]))
    env.step(TERMINATE)
    with pytest.raises(EpisodeFinishedError):
        env.step(1)


def test_action_range_enforced():
    env = ScheduleEnv(build_scenario([1, 1]))
    with pytest.raises(ScheduleError, match="outside"):
        env.step(3)
    with pytest.raises(ScheduleError, match="outside"):
        env.step(-1)


def test_returns_telescope_to_metric():
    scenario = build_scenario([2, 1])
    env = ScheduleEnv(scenario)
    transitions = []
    for action in (1, 2, 1, TERMINATE):
        transitions.append(env.step(action))
    total = episode_return(transitions)
    assert total == pytest.approx(1.0 - env.metric, abs=1e-12)
    direct = solve_schedule(scenario, [1, 2, 1]).objective
    assert env.metric == pytest.approx(direct, rel=1e-9)


def test_state_is_path_independent():
    scenario = build_scenario([1, 1])
    env = ScheduleEnv(scenario)
    env.step(1)
    env.step(2)
    stepped = env.state
    rebuilt = build_state_matrix(scenario, solve_schedule(scenario, [1, 2]))
    assert np.array_equal(stepped, rebuilt)


def _rebuilt_rows(scenario, solution):
    """The state of a solve written out row by row: a node's battery minus
    what its updates up to the row's event drew at the solve's waypoints,
    over the battery, then the event time over the horizon."""
    order = list(solution.order)
    rows = [[1.0] * scenario.num_nodes + [0.0]]
    for event in range(1, len(order) + 1):
        row = []
        for k, node in enumerate(scenario.nodes):
            remaining = node.battery_j
            for i in range(event):
                if order[i] == k + 1:
                    xy = tuple(solution.waypoints_xy[i])
                    remaining -= update_energy(scenario, k, xy)
            row.append(remaining / node.battery_j)
        rows.append(row + [solution.times_s[event - 1] / scenario.uav.horizon_s])
    return np.array(rows)


def test_state_rows_rebuild_from_the_solve():
    scenario = build_scenario([1, 2])
    order = (2, 1, 2)
    env = ScheduleEnv(scenario)
    start = env.reset()
    assert np.array_equal(start, [[1.0, 1.0, 0.0]]) and not start.flags.writeable
    for n in range(1, len(order) + 1):
        solution = solve_schedule(scenario, order[:n])
        want = _rebuilt_rows(scenario, solution)
        assert np.array_equal(build_state_matrix(scenario, solution), want)
        step = env.step(order[n - 1])
        assert env.order == order[:n]
        assert step.obs is env.state
        assert np.array_equal(step.obs, want)
        assert not step.obs.flags.writeable


def test_energy_bookkeeping():
    scenario = build_scenario([2])
    env = ScheduleEnv(scenario)
    env.step(1)
    transition = env.step(1)
    state = transition.obs
    check_state(scenario, state)
    # Two updates hovering near the node each cost about one unit; hovering
    # exactly overhead is the cheapest possible, the ball caps the excess.
    spent = (1.0 - state[-1, 0]) * scenario.batteries()[0]
    assert spent >= 2.0 * UNIT - 1e-15
    assert spent == pytest.approx(2.0 * UNIT, rel=5e-2)
    assert spent <= scenario.batteries()[0]
    times = state[1:, 1]
    assert np.all(np.diff(times) > 0.0)


def test_infeasible_append_keeps_order():
    scenario = build_scenario([1])
    env = ScheduleEnv(scenario)
    env.step(1)
    before = env.state
    transition = env.step(1)
    assert transition.terminal
    assert transition.reward == 0.0
    assert transition.info["rejected"] == (1, 1)
    assert "cannot afford" in transition.info["reason"]
    assert env.order == (1,)
    assert np.array_equal(transition.obs, before)


def test_infeasible_penalty_knob():
    env = ScheduleEnv(build_scenario([1]), infeasible_penalty=0.25)
    env.step(1)
    transition = env.step(1)
    assert transition.reward == -0.25


def test_nonconverged_append_pays_nothing(monkeypatch):
    monkeypatch.setattr("aoiplan.mdp.solve_schedule", nonconverged_at((1, 2)))
    env = ScheduleEnv(build_scenario([1, 1]))
    env.step(1)
    metric = env.metric
    transition = env.step(2)
    assert transition.terminal
    assert transition.reward == 0.0
    assert transition.info["rejected"] == (1, 2)
    assert transition.info["reason"].startswith("max_iterations")
    assert env.order == (1,)
    assert env.metric == metric


def test_return_bounded_by_floor():
    scenario = build_scenario([1, 2])
    bound = 1.0 - lower_bound(scenario)
    env = ScheduleEnv(scenario)
    rng = np.random.default_rng(5)
    for _ in range(10):
        env.reset()
        transitions = []
        while not env.done:
            transitions.append(env.step(int(rng.integers(0, env.num_actions))))
        assert episode_return(transitions) <= bound + 1e-9


def test_shared_cache_skips_resolves(monkeypatch):
    solved = []

    def record(scenario, order, **kwargs):
        solved.append(tuple(order))
        return solve_schedule(scenario, order, **kwargs)

    monkeypatch.setattr("aoiplan.mdp.solve_schedule", record)
    env = ScheduleEnv(build_scenario([1, 1]))
    env.step(1)
    metric = env.metric
    assert solved == [(1,)]
    env.reset()
    env.step(1)
    assert solved == [(1,)]
    assert env.metric == metric


def test_step_info_defaults_to_an_empty_read_only_mapping():
    step = Step(np.zeros(2), 0.5, False)
    assert step.info == {}
    with pytest.raises(TypeError):
        step.info["reason"] = "set"
    # The env's steps carry their own diagnostics.
    info = ScheduleEnv(build_scenario([1])).step(1).info
    assert info["order"] == (1,) and "rejected" not in info


def test_state_validation_rejects_garbage():
    scenario = build_scenario([1, 1])
    bad = initial_state(scenario)
    bad[0, 0] = 0.0
    with pytest.raises(AssertionError, match="full batteries"):
        check_state(scenario, bad)
