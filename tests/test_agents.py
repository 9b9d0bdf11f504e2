"""Scheduling policies: replay, state encodings, value learning, autoencoder."""

import csv

import numpy as np
import pytest

from aoiplan import (
    AutoencoderConfig,
    CheckpointError,
    DivergenceError,
    DqnConfig,
    QAgent,
    ReplayMemory,
    ScheduleEnv,
    Seq2SeqAutoencoder,
    StateRepr,
    Step,
    autoencoder_search,
    autoencoder_train,
    collect_states,
    dqn_train,
    dqn_train_task,
    greedy_evaluate,
    load_agent,
    load_autoencoder,
    nwaoi,
    save_agent,
    save_autoencoder,
    save_scenario,
    solve_schedule,
    weight_based_rollout,
)
from aoiplan import agents
from aoiplan.agents import (
    denormalize_state_columns,
    epsilon_at,
    normalize_state_columns,
    write_learning_curve_csv,
)
from aoiplan.cli import main
from aoiplan.mdp import build_state_matrix, initial_state
from aoiplan.nnet import (
    DenseNet,
    LstmCell,
    gradient_check,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)
from conftest import build_scenario


# ---------------------------------------------------------------------------
# Replay memory and schedules
# ---------------------------------------------------------------------------


def _push_numbered(memory, values):
    # Transition v: observation (v, -v), action v, then a step to
    # observation (v + 1, 0) with reward v/2, terminal when v is even.
    for v in values:
        step = Step(np.array([v + 1.0, 0.0]), v / 2, v % 2 == 0, {"v": v})
        memory.push(np.array([v, -v], dtype=float), v, step)


def _sampled_columns(sample):
    obs, actions, nxt = sample
    return obs, actions, nxt.obs, nxt.reward, nxt.terminal


def test_replay_ring_overwrites_oldest():
    memory = ReplayMemory(3)
    _push_numbered(memory, range(5))
    assert len(memory) == 3
    obs, actions, nxt = memory.sample(np.random.default_rng(0), 200)
    assert set(actions.tolist()) == {2, 3, 4}
    assert obs.shape == nxt.obs.shape == (200, 2)
    assert np.array_equal(obs, np.stack([actions, -actions], axis=1))
    assert np.array_equal(nxt.reward, actions / 2)
    assert np.array_equal(nxt.obs[:, 0], actions + 1.0)
    assert np.array_equal(nxt.terminal, actions % 2 == 0)
    # Replay keeps no diagnostics.
    assert nxt.info == {}
    # A batch is a copy: later pushes leave it alone.
    kept = obs.copy()
    _push_numbered(memory, range(5, 8))
    assert np.array_equal(obs, kept)


def test_replay_sampling_reproducible():
    memory = ReplayMemory(10)
    _push_numbered(memory, range(10))
    a = _sampled_columns(memory.sample(np.random.default_rng(3), 6))
    b = _sampled_columns(memory.sample(np.random.default_rng(3), 6))
    for col_a, col_b in zip(a, b, strict=True):
        assert np.array_equal(col_a, col_b)
    # Row v holds transition v, and rows are drawn as rng.integers(0, len, size).
    assert np.array_equal(a[1], np.random.default_rng(3).integers(0, 10, size=6))


def test_replay_column_types_do_not_follow_the_first_push():
    # An int first reward must not make an int column that truncates 0.5.
    memory = ReplayMemory(4)
    obs = np.array([1.0, 2.0])
    memory.push(obs, 1, Step(obs, 0, False))
    memory.push(obs, 2, Step(obs, 0.5, True))
    _, actions, nxt = memory.sample(np.random.default_rng(0), 50)
    assert set(nxt.reward.tolist()) == {0.0, 0.5}
    assert np.array_equal(nxt.reward, np.where(nxt.terminal, 0.5, 0.0))
    assert np.array_equal(nxt.terminal, actions == 2)
    assert nxt.reward.dtype == np.float64
    assert nxt.terminal.dtype == bool
    assert actions.dtype == np.int64


def test_replay_empty_sample_raises():
    with pytest.raises(ValueError, match="empty"):
        ReplayMemory(4).sample(np.random.default_rng(0), 1)


def test_replay_capacity_validation():
    with pytest.raises(ValueError):
        ReplayMemory(0)


def test_epsilon_schedule_endpoints():
    config = DqnConfig(epsilon_end=0.02, epsilon_decay_frac=0.6)
    episodes = 100
    assert epsilon_at(0, episodes, config) == 1.0
    assert epsilon_at(60, episodes, config) == 0.02
    assert epsilon_at(99, episodes, config) == 0.02
    mid = epsilon_at(30, episodes, config)
    assert mid == pytest.approx(0.51, abs=1e-12)
    values = [epsilon_at(e, episodes, config) for e in range(episodes)]
    assert all(y <= x for x, y in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# State representations
# ---------------------------------------------------------------------------


def test_normalization_round_trip():
    scenario = build_scenario([1, 2], weights=[0.4, 0.6])
    env = ScheduleEnv(scenario)
    env.step(2)
    env.step(1)
    state = env.state
    normalized = normalize_state_columns(scenario, state)
    assert normalized.shape == (3, 3)
    assert np.all(normalized >= -1e-12) and np.all(normalized <= 1.0 + 1e-12)
    back = denormalize_state_columns(scenario, normalized)
    assert np.allclose(back, state.columns, rtol=0, atol=1e-12)


def test_last_column_representation():
    scenario = build_scenario([1, 1])
    repr_ = StateRepr(scenario=scenario)
    assert repr_.mode == "last_column"
    assert repr_.size == 3
    env = ScheduleEnv(scenario)
    env.step(1)
    obs = repr_.encode(env.state)
    assert obs.shape == (3,)
    expected = normalize_state_columns(scenario, env.state)[-1]
    assert np.array_equal(obs, expected)


def test_autoencoder_representation_size():
    scenario = build_scenario([1, 1])
    encoder = LstmCell.init(3, 5, np.random.default_rng(0))
    repr_ = StateRepr(scenario, encoder)
    assert repr_.mode == "autoencoder"
    assert repr_.size == 10
    env = ScheduleEnv(scenario)
    env.step(1)
    obs = repr_.encode(env.state)
    assert obs.shape == (10,)


# ---------------------------------------------------------------------------
# Weight-proportional baseline
# ---------------------------------------------------------------------------


def test_weight_rollout_deterministic():
    scenario = build_scenario([1, 2], weights=[0.4, 0.6])
    cache = {}
    a = weight_based_rollout(scenario, seed=9, solve_cache=cache)
    b = weight_based_rollout(scenario, seed=9, solve_cache=cache)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_weight_rollout_zero_weight_node_skipped():
    scenario = build_scenario([2, 2], weights=[1.0, 0.0])
    order, metric, state = weight_based_rollout(scenario, seed=1)
    assert set(order) == {1}
    # The policy only stops when an append fails, so node 1 is drained.
    assert len(order) == 2
    assert metric < 1.0
    assert state.num_events == len(order)


def test_weight_rollout_single_node_runs_out_budget():
    scenario = build_scenario([3])
    order, metric, _ = weight_based_rollout(scenario, seed=2)
    assert order == (1, 1, 1)
    direct = solve_schedule(scenario, list(order)).objective
    assert metric == pytest.approx(direct, rel=1e-12)


def test_weight_rollout_first_action_frequency():
    scenario = build_scenario([1, 1], weights=[0.3, 0.7])
    cache = {}
    draws = 10_000
    first = np.empty(draws, dtype=int)
    for seed in range(draws):
        order, _, _ = weight_based_rollout(scenario, seed=seed, solve_cache=cache)
        first[seed] = order[0]
    freq = float(np.mean(first == 1))
    sigma = np.sqrt(0.3 * 0.7 / draws)
    assert abs(freq - 0.3) <= 3.0 * sigma


def test_collect_states_keeps_initial_states():
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=4, seed=0)
    assert len(corpus) >= 4
    single = [s for s in corpus if s.num_events == 0]
    assert len(single) == 4
    for state in corpus:
        state.validate(scenario)


def test_weight_episodes_encode_no_observation(monkeypatch):
    # The weight rule never reads its observation, so neither the baseline
    # nor the state corpus encodes one.
    calls = []
    encode = StateRepr.encode

    def counted(self, state):
        calls.append(state)
        return encode(self, state)

    monkeypatch.setattr(StateRepr, "encode", counted)
    scenario = build_scenario([2, 1], weights=[0.4, 0.6])
    order, _, _ = weight_based_rollout(scenario, seed=3)
    assert len(order) > 0
    assert len(collect_states(scenario, episodes=3, seed=0)) > 3
    assert calls == []


# ---------------------------------------------------------------------------
# Value learning on a handmade two-state task
# ---------------------------------------------------------------------------


class ChainTask:
    """s0 --1/r=0.5--> s1; terminating choices elsewhere; gamma=1 gives
    Q(s0) = (0.2, 0.8) and Q(s1) = (0.1, 0.3)."""

    num_actions = 2

    def __init__(self):
        self._at_second = False

    def reset(self):
        self._at_second = False
        return np.array([1.0, 0.0])

    def step(self, action):
        if not self._at_second:
            if action == 0:
                return np.array([1.0, 0.0]), 0.2, True
            self._at_second = True
            return np.array([0.0, 1.0]), 0.5, False
        if action == 0:
            return np.array([0.0, 1.0]), 0.1, True
        return np.array([0.0, 1.0]), 0.3, True


def test_chain_task_matches_value_iteration():
    config = DqnConfig(
        hidden_sizes=(),
        lr=0.1,
        batch_size=32,
        epsilon_end=0.5,
        grad_steps_per_episode=4,
    )
    net, curve = dqn_train_task(ChainTask(), config, episodes=400, seed=0)
    q0 = net.forward(np.array([1.0, 0.0]))
    q1 = net.forward(np.array([0.0, 1.0]))
    assert np.allclose(q0, [0.2, 0.8], atol=1e-3)
    assert np.allclose(q1, [0.1, 0.3], atol=1e-3)
    assert len(curve) == 400


class OneShotTask:
    """Every action terminates with reward 0.7; the target must be the
    reward alone, never bootstrapped."""

    num_actions = 2

    def reset(self):
        return np.array([1.0, 0.0])

    def step(self, action):
        return np.array([1.0, 0.0]), 0.7, True


class ChainStepTask(ChainTask):
    """ChainTask returning each step as a record, with diagnostics the
    trainer must ignore."""

    def step(self, action):
        return Step(*super().step(action), info={"action": action})


def test_tasks_may_return_tuples_or_step_records():
    config = DqnConfig(hidden_sizes=(4,), lr=0.05, batch_size=8, grad_steps_per_episode=2)
    net_a, curve_a = dqn_train_task(ChainTask(), config, episodes=40, seed=6)
    net_b, curve_b = dqn_train_task(ChainStepTask(), config, episodes=40, seed=6)
    assert np.array_equal(net_a.params_flat(), net_b.params_flat())
    np.testing.assert_array_equal(np.array(_curve_rows(curve_a)), np.array(_curve_rows(curve_b)))


def test_terminal_target_is_reward_only():
    config = DqnConfig(hidden_sizes=(), lr=0.1, batch_size=16, epsilon_end=0.5)
    net, _ = dqn_train_task(OneShotTask(), config, episodes=300, seed=1)
    q = net.forward(np.array([1.0, 0.0]))
    # Bootstrapping a terminal sample would push these toward 1.4+.
    assert np.allclose(q, [0.7, 0.7], atol=1e-3)


def test_dqn_training_reproducible():
    scenario = build_scenario([1, 1])
    config = DqnConfig(hidden_sizes=(8,), lr=0.02, batch_size=8)
    agent_a, curve_a = dqn_train(scenario, config, episodes=25, seed=4)
    agent_b, curve_b = dqn_train(scenario, config, episodes=25, seed=4)
    assert np.array_equal(agent_a.net.params_flat(), agent_b.net.params_flat())
    assert [s.episode_return for s in curve_a] == [s.episode_return for s in curve_b]


def test_dqn_divergence_guard():
    scenario = build_scenario([1, 1])
    config = DqnConfig(hidden_sizes=(8,), lr=1e8, grad_steps_per_episode=3)
    with pytest.raises(DivergenceError):
        dqn_train(scenario, config, episodes=40, seed=0)


def test_zero_net_terminates_immediately():
    scenario = build_scenario([1, 1])
    repr_ = StateRepr(scenario=scenario)
    net = DenseNet.init([3, 3], ["identity"], np.random.default_rng(0))
    net.set_flat(np.zeros(net.params_flat().size))
    agent = QAgent(net=net, repr=repr_)
    order, metric = greedy_evaluate(agent, scenario)
    assert order == ()
    assert metric == 1.0
    again = greedy_evaluate(agent, scenario)
    assert again == (order, metric)


def test_greedy_episode_stops_at_training_step_cap(monkeypatch):
    # Node 1 affords three updates; a policy that always appends it stops at
    # the step cap that training uses.
    scenario = build_scenario([3])

    class AppendNodeOne:
        repr = StateRepr(scenario=scenario)

        def greedy_action(self, obs):
            return 1

    monkeypatch.setattr(agents, "MAX_EPISODE_STEPS", 2)
    assert greedy_evaluate(AppendNodeOne(), scenario)[0] == (1, 1)


def test_greedy_metric_matches_physics():
    scenario = build_scenario([1, 1])
    config = DqnConfig(hidden_sizes=(8,), lr=0.02)
    agent, _ = dqn_train(scenario, config, episodes=30, seed=2)
    order, metric = greedy_evaluate(agent, scenario)
    solution = solve_schedule(scenario, list(order))
    recomputed = nwaoi(scenario, solution.update_times(scenario.num_nodes))
    assert metric == pytest.approx(recomputed, rel=1e-12)


def test_greedy_rollout_reads_the_training_cache(monkeypatch):
    scenario = build_scenario([2, 1])
    config = DqnConfig(hidden_sizes=(8,), lr=0.02)
    cache = {}
    agent, curve = dqn_train(scenario, config, episodes=30, seed=2, solve_cache=cache)
    assert curve == dqn_train(scenario, config, episodes=30, seed=2)[1]
    fresh = greedy_evaluate(agent, scenario)
    cached = set(cache)
    solved = []

    def record(scenario, order, **kwargs):
        solved.append(tuple(order))
        return solve_schedule(scenario, order, **kwargs)

    monkeypatch.setattr("aoiplan.mdp.solve_schedule", record)
    assert greedy_evaluate(agent, scenario, solve_cache=cache) == fresh
    assert fresh[0] in cached and not cached & set(solved)


def test_full_exploration_is_uniform_policy():
    # With epsilon pinned at 1 and a dead optimizer the trainer's rollouts
    # must be statistically indistinguishable from uniform random actions.
    scenario = build_scenario([1, 1])
    episodes = 400
    config = DqnConfig(
        hidden_sizes=(4,),
        lr=0.0,
        epsilon_end=1.0,
        batch_size=4,
    )
    _, curve = dqn_train(scenario, config, episodes=episodes, seed=7)
    trained = np.array([s.episode_return for s in curve])

    rng = np.random.default_rng(123)
    env = ScheduleEnv(scenario)
    reference = np.empty(episodes)
    for i in range(episodes):
        env.reset()
        total = 0.0
        while not env.done:
            total += env.step(int(rng.integers(0, env.num_actions))).reward
        reference[i] = total
    spread = np.sqrt(np.var(trained) / episodes + np.var(reference) / episodes)
    assert abs(np.mean(trained) - np.mean(reference)) <= 3.0 * spread


def test_learning_curve_csv_layout(tmp_path):
    scenario = build_scenario([1, 1])
    _, curve = dqn_train(scenario, DqnConfig(hidden_sizes=(4,)), episodes=5, seed=0)
    path = tmp_path / "curve.csv"
    write_learning_curve_csv(path, curve)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "steps", "return", "metric", "epsilon", "loss"]
    assert len(rows) == 6
    assert rows[1][0] == "0"


# ---------------------------------------------------------------------------
# Recurrent state autoencoder
# ---------------------------------------------------------------------------


def sample_sequences(scenario, episodes=3, seed=0):
    corpus = collect_states(scenario, episodes=episodes, seed=seed)
    return corpus, [normalize_state_columns(scenario, s) for s in corpus]


def test_autoencoder_gradient_check():
    scenario = build_scenario([1, 2])
    _, sequences = sample_sequences(scenario)
    model = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(3))
    rng = np.random.default_rng(5)
    for seq in (sequences[0], sequences[-1]):

        def loss_fn(flat, seq=seq):
            model.set_flat(flat)
            return model.loss_and_grad(seq)[0]

        def grad_fn(flat, seq=seq):
            model.set_flat(flat)
            return model.loss_and_grad(seq)[1]

        worst = gradient_check(loss_fn, grad_fn, model.params_flat(), rng)
        assert worst <= 1e-5


def test_autoencoder_single_column_state():
    # A fresh mission state is one column; the compressed vector is then a
    # fixed function of that column alone.
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=1, seed=0)
    single = [s for s in corpus if s.num_events == 0][0]
    model = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(0))
    encoded = model.encode_columns(normalize_state_columns(scenario, single))
    assert encoded.shape == (8,)
    again = model.encode_columns(normalize_state_columns(scenario, single))
    assert np.array_equal(encoded, again)


def test_autoencoder_full_batch_descends():
    scenario = build_scenario([1, 1])
    corpus, _ = sample_sequences(scenario, episodes=4, seed=1)
    config = AutoencoderConfig(
        state_size=4, lr=0.05, optimizer="sgd", epochs=40, batch="full"
    )
    result = autoencoder_train(scenario, corpus, config, seed=0)
    losses = result.train_mse
    assert all(y <= x + 1e-12 for x, y in zip(losses, losses[1:]))


def test_autoencoder_overfits_singleton():
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=1, seed=3)
    config = AutoencoderConfig(state_size=8, lr=0.02, epochs=400, batch="stochastic")
    result = autoencoder_train(scenario, [corpus[-1]], config, seed=0)
    assert result.num_train == 1 and result.num_test == 1
    assert result.test_mse < 1e-3


def test_autoencoder_split_sizes():
    scenario = build_scenario([1, 1])
    corpus, _ = sample_sequences(scenario, episodes=6, seed=2)
    corpus = corpus[:10]
    result = autoencoder_train(
        scenario, corpus, AutoencoderConfig(state_size=2, epochs=1), seed=0
    )
    total = result.num_train + result.num_test
    assert total == len(corpus)
    assert result.num_train == max(1, min(len(corpus) - 1, round(0.7 * len(corpus))))
    pair = autoencoder_train(
        scenario, corpus[:2], AutoencoderConfig(state_size=2, epochs=1), seed=0
    )
    assert pair.num_train == 1 and pair.num_test == 1


def test_autoencoder_empty_corpus_rejected():
    scenario = build_scenario([1])
    with pytest.raises(ValueError, match="corpus"):
        autoencoder_train(scenario, [], AutoencoderConfig(), seed=0)


@pytest.mark.parametrize("batch", ["stochastic", "full"])
def test_autoencoder_divergence_guard(batch):
    # Both batch modes stop on the rule and message the value trainer uses.
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=2, seed=0)
    config = AutoencoderConfig(state_size=2, lr=1e8, optimizer="sgd", epochs=5, batch=batch)
    with pytest.raises(DivergenceError, match="training loss .* exceeded limit"):
        autoencoder_train(scenario, corpus, config, seed=0)


def test_search_singleton_range():
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=2, seed=0)
    config = AutoencoderConfig(epochs=3)
    result = autoencoder_search(scenario, corpus, [6], config=config, seed=0)
    assert result.best_size == 6
    assert set(result.results) == {6}


def test_search_picks_min_test_mse():
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=5, seed=1)
    config = AutoencoderConfig(epochs=8, lr=0.02)
    result = autoencoder_search(scenario, corpus, [2, 4, 8], config=config, seed=0)
    best = min(result.results.items(), key=lambda kv: (kv[1], kv[0]))
    assert result.best_size == best[0]
    again = autoencoder_search(scenario, corpus, [2, 4, 8], config=config, seed=0)
    assert again.best_size == result.best_size
    assert again.results == result.results


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_agent_checkpoint_round_trip(tmp_path):
    scenario = build_scenario([1, 1])
    agent, _ = dqn_train(scenario, DqnConfig(hidden_sizes=(6,)), episodes=15, seed=0)
    path = tmp_path / "agent.ckpt"
    save_agent(path, agent)
    loaded = load_agent(path, scenario)
    assert np.array_equal(loaded.net.params_flat(), agent.net.params_flat())
    assert loaded.repr.mode == "last_column"
    assert greedy_evaluate(loaded, scenario) == greedy_evaluate(agent, scenario)


def test_dqn_train_with_encoder_is_autoencoder_mode(tmp_path):
    scenario = build_scenario([1, 1])
    encoder = LstmCell.init(3, 4, np.random.default_rng(0))
    config = DqnConfig(hidden_sizes=(4,))
    agent, _ = dqn_train(scenario, config, episodes=5, seed=0, encoder=encoder)
    assert agent.repr.mode == "autoencoder"
    assert agent.net.sizes[0] == 8
    path = tmp_path / "agent.ckpt"
    save_agent(path, agent)
    loaded = load_agent(path, scenario)
    assert loaded.repr.mode == "autoencoder"
    assert np.array_equal(loaded.repr.encoder.params_flat(), encoder.params_flat())
    assert np.array_equal(loaded.net.params_flat(), agent.net.params_flat())
    assert greedy_evaluate(loaded, scenario) == greedy_evaluate(agent, scenario)


def _assert_views(model):
    for name, arr in model.to_arrays():
        assert np.shares_memory(arr, model.flat), name


@pytest.mark.parametrize("encoder_size", [None, 4])
def test_agent_checkpoint_loads_into_views(tmp_path, encoder_size):
    scenario = build_scenario([1, 1])
    encoder = None if encoder_size is None else LstmCell.init(3, encoder_size, np.random.default_rng(1))
    agent, _ = dqn_train(scenario, DqnConfig(hidden_sizes=(4,)), episodes=5, seed=0, encoder=encoder)
    save_agent(tmp_path / "agent.ckpt", agent)
    loaded = load_agent(tmp_path / "agent.ckpt", scenario)
    _assert_views(loaded.net)
    assert np.array_equal(loaded.net.flat, agent.net.flat)
    if encoder is not None:
        _assert_views(loaded.repr.encoder)
        assert np.array_equal(loaded.repr.encoder.flat, encoder.flat)
    # The loaded vector drives the net: zeroing it zeroes every action value.
    loaded.net.set_flat(np.zeros(loaded.net.flat.size))
    assert not loaded.net.forward(np.ones(loaded.net.sizes[0])).any()


def test_autoencoder_checkpoint_loads_into_views(tmp_path):
    model = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(5))
    save_autoencoder(tmp_path / "model.ckpt", model)
    loaded, _ = load_autoencoder(tmp_path / "model.ckpt")
    _assert_views(loaded)
    for part in (loaded.encoder, loaded.decoder, loaded.head):
        _assert_views(part)
        assert np.shares_memory(part.flat, loaded.flat)
    assert np.array_equal(loaded.flat, model.flat)
    save_autoencoder(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "again.ckpt").read_bytes() == (tmp_path / "model.ckpt").read_bytes()


def test_agent_checkpoint_node_count_guard(tmp_path):
    scenario = build_scenario([1, 1])
    agent, _ = dqn_train(scenario, DqnConfig(hidden_sizes=(4,)), episodes=5, seed=0)
    path = tmp_path / "agent.ckpt"
    save_agent(path, agent)
    with pytest.raises(CheckpointError, match="nodes"):
        load_agent(path, build_scenario([1, 1, 1]))


def test_autoencoder_checkpoint_round_trip(tmp_path):
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=2, seed=0)
    result = autoencoder_train(
        scenario, corpus, AutoencoderConfig(state_size=4, epochs=5), seed=0
    )
    path = tmp_path / "model.ckpt"
    save_autoencoder(path, result.model, {"note": "test"})
    loaded, meta = load_autoencoder(path)
    assert meta["state_size"] == 4 and meta["note"] == "test"
    seq = normalize_state_columns(scenario, corpus[0])
    assert loaded.reconstruction_mse(seq) == result.model.reconstruction_mse(seq)


def test_checkpoint_kind_mismatch(tmp_path):
    scenario = build_scenario([1, 1])
    corpus = collect_states(scenario, episodes=2, seed=0)
    result = autoencoder_train(
        scenario, corpus, AutoencoderConfig(state_size=4, epochs=2), seed=0
    )
    auto_path = tmp_path / "model.ckpt"
    save_autoencoder(auto_path, result.model)
    with pytest.raises(CheckpointError, match="qnet"):
        load_agent(auto_path, scenario)
    agent, _ = dqn_train(scenario, DqnConfig(hidden_sizes=(4,)), episodes=5, seed=0)
    agent_path = tmp_path / "agent.ckpt"
    save_agent(agent_path, agent)
    with pytest.raises(CheckpointError, match="autoencoder"):
        load_autoencoder(agent_path)


def _agent(scenario, mode):
    rng = np.random.default_rng(0)
    m = scenario.num_nodes
    encoder = LstmCell.init(m + 1, 3, rng) if mode == "autoencoder" else None
    repr_ = StateRepr(scenario, encoder)
    net = DenseNet.init((repr_.size, 4, m + 1), ("relu", "identity"), rng)
    return QAgent(net=net, repr=repr_)


def _rewrite(path, edit_meta=None, edit_arrays=None):
    """Load a checkpoint, edit its meta or arrays, and save it well-formed."""
    kind, arrays, meta = load_checkpoint(path)
    if edit_meta:
        edit_meta(meta)
    if edit_arrays:
        edit_arrays(arrays)
    save_checkpoint(path, kind, list(arrays.items()), meta)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _drop(key):
    return lambda d: d.pop(key)


@pytest.mark.parametrize(
    "mode, edit_meta, edit_arrays, match",
    [
        ("last_column", dict.clear, None, "num_nodes"),
        ("last_column", _set("num_nodes", "2"), None, "num_nodes"),
        ("last_column", _drop("net_sizes"), None, "net_sizes"),
        ("last_column", _set("net_sizes", [3, "4", 3]), None, "net_sizes"),
        ("last_column", _set("net_activations", ["relu", "bogus"]), None, "layout"),
        ("last_column", _set("state_mode", "pixels"), None, "state mode"),
        ("last_column", _set("num_actions", 5), None, "actions"),
        ("last_column", None, _drop("net_w0"), "net_w0"),
        ("last_column", None, _set("net_b1", np.zeros(4)), "net_b1"),
        ("autoencoder", _drop("encoder_hidden_size"), None, "encoder_hidden_size"),
        ("autoencoder", _set("encoder_hidden_size", 2), None, "enc_wg"),
        ("autoencoder", None, _drop("enc_bg"), "enc_bg"),
    ],
    ids=[
        "empty_meta", "string_node_count", "no_sizes", "string_size", "bad_activation",
        "bad_mode", "action_count", "no_weight", "bias_shape", "no_hidden_size",
        "hidden_size_mismatch", "no_encoder_bias",
    ],
)
def test_agent_checkpoint_contents_checked(tmp_path, mode, edit_meta, edit_arrays, match):
    scenario = build_scenario([1, 1])
    path = tmp_path / "agent.ckpt"
    save_agent(path, _agent(scenario, mode))
    load_agent(path, scenario)
    _rewrite(path, edit_meta, edit_arrays)
    with pytest.raises(CheckpointError, match=match):
        load_agent(path, scenario)


def test_agent_checkpoint_encoder_width_checked(tmp_path):
    path = tmp_path / "agent.ckpt"
    save_agent(path, _agent(build_scenario([1, 1, 1]), "autoencoder"))
    _rewrite(path, _set("num_nodes", 2))
    with pytest.raises(CheckpointError, match="encoder reads 4"):
        load_agent(path, build_scenario([1, 1]))


@pytest.mark.parametrize(
    "edit_meta, edit_arrays, match",
    [
        (dict.clear, None, "input_size"),
        (_set("state_size", 0), None, "state_size"),
        (_set("input_size", "3"), None, "input_size"),
        (None, _drop("dec_bg"), "dec_bg"),
        (None, lambda a: a.__setitem__("head_w0", a["head_w0"].T.copy()), "head_w0"),
    ],
    ids=["empty_meta", "zero_state_size", "string_input_size", "no_decoder_bias", "head_transposed"],
)
def test_autoencoder_checkpoint_contents_checked(tmp_path, edit_meta, edit_arrays, match):
    model = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(0))
    path = tmp_path / "model.ckpt"
    save_autoencoder(path, model)
    load_autoencoder(path)
    _rewrite(path, edit_meta, edit_arrays)
    with pytest.raises(CheckpointError, match=match):
        load_autoencoder(path)


# ---------------------------------------------------------------------------
# Reference loops: the weight-proportional episode, the encoder forward and
# the reconstruction error written out on their own. The package shares one
# loop and one forward pass between its callers; these pin its outputs.
# ---------------------------------------------------------------------------


def _reference_rollout(scenario, seed):
    rng = np.random.default_rng(seed)
    env = ScheduleEnv(scenario)
    env.reset()
    weights = scenario.weights()
    while True:
        action = int(rng.choice(scenario.num_nodes, p=weights)) + 1
        if env.step(action).terminal:
            break
    return env.order, env.metric, env.state


def _reference_collect(scenario, episodes, seed):
    rng = np.random.default_rng(seed)
    env = ScheduleEnv(scenario)
    weights = scenario.weights()
    corpus = []
    for _ in range(episodes):
        env.reset()
        corpus.append(env.state)
        while True:
            action = int(rng.choice(scenario.num_nodes, p=weights)) + 1
            transition = env.step(action)
            if transition.terminal:
                break
            corpus.append(transition.obs)
    return corpus


def _reference_encode(encoder, normalized):
    flipped = normalized[::-1].copy()
    hs, cs, _ = encoder.seq_forward(flipped)
    return np.concatenate([cs[-1], hs[-1]])


def _reference_reconstruction_mse(model, normalized):
    xs = normalized[::-1].copy()
    hs_e, cs_e, _ = model.encoder.seq_forward(xs)
    dec_in = np.zeros_like(xs)
    dec_in[1:] = xs[:-1]
    hs_d, _, _ = model.decoder.seq_forward(dec_in, hs_e[-1], cs_e[-1])
    out = model.head.forward(hs_d[1:])
    err = out - xs
    return float(np.mean(err * err))


class _ReferenceTask:
    """Schedule task that observes through the reference encodings."""

    def __init__(self, scenario, encoder):
        self.scenario = scenario
        self.encoder = encoder
        self.env = ScheduleEnv(scenario)

    @property
    def num_actions(self):
        return self.env.num_actions

    @property
    def metric(self):
        return self.env.metric

    def _observe(self, state):
        normalized = normalize_state_columns(self.scenario, state)
        if self.encoder is None:
            return normalized[-1].copy()
        return _reference_encode(self.encoder, normalized)

    def reset(self):
        return self._observe(self.env.reset())

    def step(self, action):
        # A plain (obs, reward, terminal) tuple, as toy tasks return.
        transition = self.env.step(action)
        return self._observe(transition.obs), transition.reward, transition.terminal


def _loaded_autoencoder_repr(path, scenario, encoder):
    """The state representation of an autoencoder-mode agent loaded from a
    checkpoint, as `eval --policy dqn-lstm` uses it."""
    m = scenario.num_nodes
    k = encoder.hidden_size
    net = DenseNet.init((2 * k, m + 1), ("identity",), np.random.default_rng(0))
    arrays = [(f"net_{name}", arr) for name, arr in net.to_arrays()]
    arrays += [(f"enc_{name}", arr) for name, arr in encoder.to_arrays()]
    meta = {
        "net_sizes": [2 * k, m + 1],
        "net_activations": ["identity"],
        "num_actions": m + 1,
        "state_mode": "autoencoder",
        "num_nodes": m,
        "encoder_input_size": m + 1,
        "encoder_hidden_size": k,
    }
    save_checkpoint(path, "qnet", arrays, meta)
    return load_agent(path, scenario).repr


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_weight_episodes_match_reference_loop(seed):
    scenario = build_scenario([2, 2, 1], weights=[0.5, 0.3, 0.2])
    cache = {}
    for s in range(seed, seed + 4):
        order, metric, state = weight_based_rollout(scenario, s, solve_cache=cache)
        want_order, want_metric, want_state = _reference_rollout(scenario, s)
        assert (order, metric) == (want_order, want_metric)
        assert np.array_equal(state.columns, want_state.columns)
    corpus = collect_states(scenario, episodes=6, seed=seed)
    want = _reference_collect(scenario, 6, seed)
    assert len(corpus) == len(want)
    for got, ref in zip(corpus, want):
        assert np.array_equal(got.columns, ref.columns)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_encoder_forward_matches_reference(tmp_path, seed):
    scenario = build_scenario([2, 1])
    corpus, sequences = sample_sequences(scenario, episodes=3, seed=seed)
    model = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(seed))
    repr_ = _loaded_autoencoder_repr(tmp_path / "agent.ckpt", scenario, model.encoder)
    for state, seq in zip(corpus, sequences):
        want = _reference_encode(model.encoder, seq)
        assert np.array_equal(model.encode_columns(seq), want)
        assert np.array_equal(repr_.encode(state), want)
        mse = _reference_reconstruction_mse(model, seq)
        assert model.reconstruction_mse(seq) == mse
        assert model.loss_and_grad(seq)[0] == mse


@pytest.mark.parametrize("mode", ["last_column", "autoencoder"])
def test_train_dqn_matches_reference_task(tmp_path, capsys, mode):
    scenario = build_scenario([2, 1])
    path = tmp_path / "scenario.yaml"
    save_scenario(scenario, path)
    argv = [
        "train-dqn", "--scenario", str(path), "--episodes", "25", "--hidden", "6",
        "--seed", "2", "--state-mode", mode, "--out", str(tmp_path / "run"),
    ]
    encoder = None
    if mode == "autoencoder":
        model = Seq2SeqAutoencoder.init(3, 3, np.random.default_rng(4))
        save_autoencoder(tmp_path / "ae.ckpt", model)
        argv += ["--encoder", str(tmp_path / "ae.ckpt")]
        encoder = model.encoder
    assert main(argv) == 0
    capsys.readouterr()
    # The CLI's defaults for every flag not given above.
    config = DqnConfig(
        hidden_sizes=(6,),
        lr=0.005,
        optimizer="adam",
        epsilon_end=0.02,
        epsilon_decay_frac=0.6,
        batch_size=32,
        grad_steps_per_episode=4,
    )
    net, curve = dqn_train_task(_ReferenceTask(scenario, encoder), config, 25, 2)
    agent = load_agent(tmp_path / "run" / "agent.ckpt", scenario)
    assert agent.repr.mode == mode
    assert np.array_equal(agent.net.params_flat(), net.params_flat())
    with open(tmp_path / "run" / "learning_curve.csv", newline="") as fh:
        losses = [row["loss"] for row in csv.DictReader(fh)]
    assert losses == [f"{s.loss:.10g}" for s in curve]

    task = _ReferenceTask(scenario, encoder)
    obs, terminal = task.reset(), False
    while not terminal:
        obs, _, terminal = task.step(int(np.argmax(net.forward(obs))))
    assert greedy_evaluate(agent, scenario) == (task.env.order, task.env.metric)


def _curve_rows(curve):
    return [(s.episode, s.steps, s.episode_return, s.metric, s.epsilon, s.loss) for s in curve]


@pytest.mark.parametrize("mode", ["last_column", "autoencoder"])
def test_observation_memo_trains_like_encoding_every_step(mode):
    scenario = build_scenario([2, 2])
    encoder = None
    if mode == "autoencoder":
        encoder = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(9)).encoder
    config = DqnConfig(hidden_sizes=(6,), grad_steps_per_episode=2)
    agent, curve = dqn_train(scenario, config, episodes=60, seed=3, encoder=encoder)
    net, want = dqn_train_task(_ReferenceTask(scenario, encoder), config, 60, 3)
    assert _curve_rows(curve) == _curve_rows(want)
    for (name, got), (_, ref) in zip(agent.net.to_arrays(), net.to_arrays()):
        assert np.array_equal(got, ref), name


@pytest.mark.parametrize("mode", ["last_column", "autoencoder"])
def test_memoized_observations_are_fresh_encodings_and_read_only(mode):
    scenario = build_scenario([2, 2])
    encoder = None
    if mode == "autoencoder":
        encoder = Seq2SeqAutoencoder.init(3, 4, np.random.default_rng(2)).encoder
    repr_ = StateRepr(scenario, encoder)
    task = agents.ScheduleTask(ScheduleEnv(scenario), repr_)
    rng = np.random.default_rng(0)
    returned = []
    for _ in range(30):
        returned.append(task.reset())
        terminal = False
        while not terminal:
            step = task.step(int(rng.integers(0, task.num_actions)))
            obs, terminal = step.obs, step.terminal
            returned.append(obs)
    memo = task._obs
    assert len(memo) > 5 and () in memo
    assert all(any(obs is kept for kept in memo.values()) for obs in returned)
    for order, obs in memo.items():
        if order:
            state = build_state_matrix(scenario, solve_schedule(scenario, order))
        else:
            state = initial_state(scenario)
        assert np.array_equal(obs, repr_.encode(state)), order
        assert not obs.flags.writeable
        with pytest.raises(ValueError):
            obs[0] = 0.0
        kept = task.env._states[order].columns
        assert np.array_equal(kept, state.columns) and not kept.flags.writeable


# ---------------------------------------------------------------------------
# Reference training loops: the action-value rollout-and-update loop, the
# greedy rollout and both autoencoder batch loops written out on their own.
# The package runs every episode through one runner and every autoencoder
# step through one batch loop; these pin its outputs bit for bit.
# ---------------------------------------------------------------------------


def _reference_dqn_train_task(task, config, episodes, seed):
    rng = np.random.default_rng(seed)
    obs0 = task.reset()
    sizes = (obs0.size, *config.hidden_sizes, task.num_actions)
    acts = tuple(["relu"] * len(config.hidden_sizes) + ["identity"])
    net = DenseNet.init(sizes, acts, rng)
    optimizer = make_optimizer(config.optimizer, config.lr)
    # Replay as a plain list ring of transition tuples.
    replay = []
    next_slot = 0
    curve = []
    for episode in range(episodes):
        eps = epsilon_at(episode, episodes, config)
        obs = task.reset()
        terminal = False
        ep_return = 0.0
        steps = 0
        while not terminal and steps < agents.MAX_EPISODE_STEPS:
            if rng.uniform() < eps:
                action = int(rng.integers(0, task.num_actions))
            else:
                action = int(np.argmax(net.forward(obs)))
            # The first three fields, whether the task returns a tuple or a Step.
            next_obs, reward, terminal = task.step(action)[:3]
            item = (obs, action, reward, next_obs, terminal)
            if len(replay) < agents.REPLAY_CAPACITY:
                replay.append(item)
            else:
                replay[next_slot] = item
            next_slot = (next_slot + 1) % agents.REPLAY_CAPACITY
            ep_return += reward
            obs = next_obs
            steps += 1
        target_net = net.clone()
        loss = float("nan")
        for _ in range(config.grad_steps_per_episode):
            batch = [replay[i] for i in rng.integers(0, len(replay), size=config.batch_size)]
            xs = np.stack([item[0] for item in batch])
            next_xs = np.stack([item[3] for item in batch])
            actions = np.array([item[1] for item in batch], dtype=int)
            rewards = np.array([item[2] for item in batch])
            terminals = np.array([item[4] for item in batch], dtype=bool)
            next_q = target_net.forward(next_xs)
            targets = rewards + np.where(terminals, 0.0, next_q.max(axis=1))
            out, acts_cache = net.forward_cached(xs)
            picked = out[np.arange(len(batch)), actions]
            errors = picked - targets
            loss = float(np.mean(errors * errors))
            dy = np.zeros_like(out)
            dy[np.arange(len(batch)), actions] = 2.0 * errors / len(batch)
            dws, dbs, _ = net.backward(acts_cache, dy)
            net.set_flat(optimizer.step(net.params_flat(), net.grads_flat(dws, dbs)))
        metric = getattr(task, "metric", float("nan"))
        curve.append((episode, steps, ep_return, float(metric), eps, loss))
    return net, curve


def _reference_greedy(agent, scenario):
    task = agents.ScheduleTask(ScheduleEnv(scenario), agent.repr)
    obs = task.reset()
    steps = 0
    terminal = False
    while not terminal and steps < agents.MAX_EPISODE_STEPS:
        step = task.step(agent.greedy_action(obs))
        obs, terminal = step.obs, step.terminal
        steps += 1
    return task.env.order, task.env.metric


def _reference_autoencoder_train(scenario, corpus, config, seed):
    rng = np.random.default_rng(seed)
    sequences = [normalize_state_columns(scenario, state) for state in corpus]
    perm = rng.permutation(len(sequences))
    n_train = max(1, int(round(0.7 * len(sequences))))
    if n_train == len(sequences):
        n_train -= 1
    train = [sequences[i] for i in perm[:n_train]]
    test = [sequences[i] for i in perm[n_train:]]
    model = Seq2SeqAutoencoder.init(scenario.num_nodes + 1, config.state_size, rng)
    optimizer = make_optimizer(config.optimizer, config.lr)
    history = []
    for _ in range(config.epochs):
        total = 0.0
        if config.batch == "full":
            grad_sum = None
            for seq in train:
                mse, grad = model.loss_and_grad(seq)
                total += mse
                grad_sum = grad if grad_sum is None else grad_sum + grad
            model.set_flat(optimizer.step(model.params_flat(), grad_sum / len(train)))
        else:
            for i in rng.permutation(len(train)):
                mse, grad = model.loss_and_grad(train[i])
                total += mse
                model.set_flat(optimizer.step(model.params_flat(), grad))
        history.append(total / len(train))
    test_mse = float(np.mean([model.reconstruction_mse(seq) for seq in test]))
    return model, history, test_mse


def _schedule_task(scenario, mode):
    encoder = None
    if mode == "autoencoder":
        encoder = Seq2SeqAutoencoder.init(3, 3, np.random.default_rng(7)).encoder
    return agents.ScheduleTask(ScheduleEnv(scenario), StateRepr(scenario, encoder))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("task_kind", ["chain", "last_column", "autoencoder"])
def test_dqn_training_matches_reference_loop(task_kind, optimizer, seed):
    scenario = build_scenario([2, 1])
    config = DqnConfig(hidden_sizes=(5,), lr=0.01, optimizer=optimizer, batch_size=8,
                       grad_steps_per_episode=2)
    if task_kind == "chain":
        tasks = ChainTask(), ChainTask()
    else:
        tasks = _schedule_task(scenario, task_kind), _schedule_task(scenario, task_kind)
    net, curve = dqn_train_task(tasks[0], config, 20, seed)
    want_net, want_curve = _reference_dqn_train_task(tasks[1], config, 20, seed)
    for (name, got), (_, ref) in zip(net.to_arrays(), want_net.to_arrays()):
        assert np.array_equal(got, ref), name
    np.testing.assert_array_equal(np.array(_curve_rows(curve)), np.array(want_curve))
    if task_kind != "chain":
        agent = QAgent(net=net, repr=tasks[0].repr)
        assert greedy_evaluate(agent, scenario) == _reference_greedy(agent, scenario)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("batch", ["stochastic", "full"])
def test_autoencoder_training_matches_reference_loops(batch, optimizer, seed):
    scenario = build_scenario([2, 1])
    corpus = collect_states(scenario, episodes=2, seed=seed)
    config = AutoencoderConfig(state_size=3, lr=0.02, optimizer=optimizer, epochs=3, batch=batch)
    result = autoencoder_train(scenario, corpus, config, seed)
    model, history, test_mse = _reference_autoencoder_train(scenario, corpus, config, seed)
    assert np.array_equal(result.model.params_flat(), model.params_flat())
    assert result.train_mse == history
    assert result.test_mse == test_mse
