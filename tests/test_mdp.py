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
)
from aoiplan.mdp import TERMINATE, initial_state
from conftest import UNIT, build_scenario, nonconverged_at


def episode_return(steps):
    return float(sum(step.reward for step in steps))


def test_initial_state_column():
    scenario = build_scenario([1, 2])
    state = initial_state(scenario)
    assert state.columns.shape == (3, 1)
    assert np.allclose(state.columns[:2, 0], scenario.batteries())
    assert state.columns[2, 0] == 0.0
    assert state.num_events == 0
    state.validate(scenario)


def test_reset_is_idempotent():
    env = ScheduleEnv(build_scenario([1, 1]))
    first = env.reset().columns
    env.step(1)
    second = env.reset().columns
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
    stepped = env.state.columns
    rebuilt = build_state_matrix(scenario, solve_schedule(scenario, [1, 2])).columns
    assert np.allclose(stepped, rebuilt, atol=1e-12)


def test_energy_bookkeeping():
    scenario = build_scenario([2])
    env = ScheduleEnv(scenario)
    env.step(1)
    transition = env.step(1)
    state = transition.obs
    state.validate(scenario)
    # Two updates hovering near the node each cost about one unit; hovering
    # exactly overhead is the cheapest possible, the ball caps the excess.
    spent = scenario.batteries()[0] - state.columns[0, -1]
    assert spent >= 2.0 * UNIT - 1e-15
    assert spent == pytest.approx(2.0 * UNIT, rel=5e-2)
    assert spent <= scenario.batteries()[0]
    times = state.columns[1, 1:]
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
    assert np.array_equal(transition.obs.columns, before.columns)


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
    state = initial_state(scenario)
    bad = state.columns.copy()
    bad[0, 0] = 0.0
    with pytest.raises(ScheduleError, match="full batteries"):
        type(state)(columns=bad).validate(scenario)
