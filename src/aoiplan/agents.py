"""Learned planners over the episodic visit-order process.

Three planners live here: a weight-proportional random baseline, an
action-value network trained on replayed transitions, and the same
trainer fed by a recurrent state autoencoder instead of the raw last
state column. The autoencoder compresses the whole variable-length state
matrix into a fixed vector (final cell and hidden state of a recurrent
encoder), which is what makes the value network's input size independent
of how many updates an episode has accumulated.
"""

from __future__ import annotations

import copy
import csv
from dataclasses import dataclass, replace
from functools import reduce
from pathlib import Path
from typing import Any, Callable, Iterator, Protocol

import numpy as np

from .errors import CheckpointError, DivergenceError
from .mdp import ScheduleEnv, StateMatrix, Step
from .nnet import (
    ACTIVATIONS,
    DenseNet,
    LstmCell,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
)
from .nnet.layers import FlatModel, flatten, prefixed
from .scenario import Scenario
from .solver import TrajectorySolution

# ---------------------------------------------------------------------------
# Replay memory
# ---------------------------------------------------------------------------


def _column(capacity: int, value: Any) -> np.ndarray:
    """Zeroed rows shaped like value: bool for a boolean value, float64 for
    any other, so an int first reward does not truncate later ones."""
    value = np.asarray(value)
    # np.zeros takes zeroed pages, so only rows written become resident.
    return np.zeros((capacity, *value.shape), dtype=bool if value.dtype == bool else float)


class ReplayMemory:
    """Fixed-capacity ring of transitions with uniform sampling (with
    replacement).

    A transition is an observation, the action taken there and the `Step`
    that followed. Each is kept in a preallocated column sized at the first
    push: the observation, the action (int64) and every field of the step
    but its ``info``. A sample gathers rows, so a batch is a copy that later
    pushes leave alone.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._columns: tuple[np.ndarray, ...] = ()
        self._len = 0
        self._next = 0

    def push(self, obs: np.ndarray, action: int, step: Step) -> None:
        fields = step[:-1]
        if not self._columns:
            n = self.capacity
            self._columns = (
                _column(n, obs),
                np.zeros(n, dtype=np.int64),
                *(_column(n, value) for value in fields),
            )
        for column, value in zip(self._columns, (obs, action, *fields)):
            column[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._len = min(self._len + 1, self.capacity)

    def __len__(self) -> int:
        return self._len

    def sample(self, rng: np.random.Generator, batch_size: int) -> tuple[np.ndarray, np.ndarray, Step]:
        """(obs, action, Step of columns) at batch_size rows drawn uniformly."""
        if not self._len:
            raise ValueError("cannot sample from an empty replay memory")
        idx = rng.integers(0, self._len, size=batch_size)
        obs, action, *fields = (column[idx] for column in self._columns)
        return obs, action, Step(*fields)


# ---------------------------------------------------------------------------
# State representations
# ---------------------------------------------------------------------------


def normalize_state_columns(scenario: Scenario, state: StateMatrix) -> np.ndarray:
    """Scale a state matrix into [0, 1]: energies by each node's battery,
    times by the horizon. Columns come out as rows (time-major)."""
    m = scenario.num_nodes
    cols = state.columns
    out = np.empty((cols.shape[1], m + 1))
    batteries = scenario.batteries()
    out[:, :m] = (cols[:m, :] / batteries[:, None]).T
    out[:, m] = cols[m, :] / scenario.uav.horizon_s
    return out


def denormalize_state_columns(scenario: Scenario, normalized: np.ndarray) -> np.ndarray:
    """Inverse of normalize_state_columns, back to the matrix layout."""
    m = scenario.num_nodes
    cols = np.empty((m + 1, normalized.shape[0]))
    batteries = scenario.batteries()
    cols[:m, :] = (normalized[:, :m] * batteries[None, :]).T
    cols[m, :] = normalized[:, m] * scenario.uav.horizon_s
    return cols


def _final_state(encoder: LstmCell, normalized: np.ndarray) -> np.ndarray:
    """Run the encoder over normalized columns in reverse order and
    concatenate its final cell and hidden state."""
    hs, cs, _ = encoder.seq_forward(normalized[::-1].copy())
    return np.concatenate([cs[-1], hs[-1]])


@dataclass
class StateRepr:
    """Turns a state matrix into the fixed-size vector the value net sees.

    Without an encoder it is the normalized most recent column; with a
    trained encoder it is the encoder's final state over all columns.
    """

    scenario: Scenario
    encoder: LstmCell | None = None

    def __post_init__(self) -> None:
        width = self.scenario.num_nodes + 1
        if self.encoder is not None and self.encoder.input_size != width:
            raise CheckpointError(
                f"encoder reads {self.encoder.input_size} entries per column, "
                f"a {self.scenario.num_nodes}-node scenario gives {width}"
            )

    @property
    def mode(self) -> str:
        return "last_column" if self.encoder is None else "autoencoder"

    @property
    def size(self) -> int:
        if self.encoder is None:
            return self.scenario.num_nodes + 1
        return 2 * self.encoder.hidden_size

    def encode(self, state: StateMatrix) -> np.ndarray:
        normalized = normalize_state_columns(self.scenario, state)
        if self.encoder is None:
            return normalized[-1].copy()
        return _final_state(self.encoder, normalized)


# ---------------------------------------------------------------------------
# Vector-observation task protocol
# ---------------------------------------------------------------------------


class VectorTask(Protocol):
    """Episodic task as the episode runner sees it; the trainer needs vector
    observations. A step returns a `Step` or a plain (obs, reward, terminal)
    tuple."""

    @property
    def num_actions(self) -> int: ...

    def reset(self) -> np.ndarray: ...

    def step(self, action: int) -> Step: ...


class ScheduleTask:
    """Visit-order environment wrapped behind a vector observation.

    A state depends only on its order, so each order is encoded once; the
    kept observations are read-only, since every step that reaches an
    order gets the same array (replay copies it into its columns).
    """

    def __init__(self, env: ScheduleEnv, repr_: StateRepr):
        self.env = env
        self.repr = repr_
        self._obs: dict[tuple[int, ...], np.ndarray] = {}

    def _observe(self, state: StateMatrix) -> np.ndarray:
        obs = self._obs.get(self.env.order)
        if obs is None:
            obs = self._obs[self.env.order] = self.repr.encode(state)
            obs.flags.writeable = False
        return obs

    @property
    def num_actions(self) -> int:
        return self.env.num_actions

    @property
    def metric(self) -> float:
        return self.env.metric

    def reset(self) -> np.ndarray:
        return self._observe(self.env.reset())

    def step(self, action: int) -> Step:
        step = self.env.step(action)
        return step._replace(obs=self._observe(step.obs))


# ---------------------------------------------------------------------------
# Action-value training
# ---------------------------------------------------------------------------


# Training constants no caller varies. Returns are undiscounted and SGD runs
# without momentum, so neither has a setting.
ACTIVATION = "relu"
EPSILON_START = 1.0
REPLAY_CAPACITY = 10_000
DIVERGENCE_LIMIT = 1e6
MAX_EPISODE_STEPS = 10_000


@dataclass
class DqnConfig:
    """Knobs for the action-value trainer."""

    hidden_sizes: tuple[int, ...] = (64,)
    lr: float = 0.01
    optimizer: str = "sgd"
    epsilon_end: float = 0.02
    epsilon_decay_frac: float = 0.6
    batch_size: int = 32
    grad_steps_per_episode: int = 1
    infeasible_penalty: float = 0.0


def epsilon_at(episode: int, episodes: int, config: DqnConfig) -> float:
    """Linear decay from EPSILON_START to epsilon_end over the first
    epsilon_decay_frac of training, constant afterwards."""
    span = max(1, int(round(config.epsilon_decay_frac * episodes)))
    if episode >= span:
        return config.epsilon_end
    frac = episode / span
    return EPSILON_START + frac * (config.epsilon_end - EPSILON_START)


@dataclass
class EpisodeStats:
    episode: int
    steps: int
    episode_return: float
    metric: float
    epsilon: float
    loss: float


def write_learning_curve_csv(path: str | Path, curve: list[EpisodeStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "steps", "return", "metric", "epsilon", "loss"])
        for row in curve:
            writer.writerow(
                [
                    row.episode,
                    row.steps,
                    f"{row.episode_return:.10g}",
                    f"{row.metric:.10g}" if np.isfinite(row.metric) else "",
                    f"{row.epsilon:.6g}",
                    f"{row.loss:.10g}" if np.isfinite(row.loss) else "",
                ]
            )


@dataclass
class QAgent:
    """Greedy policy over a trained action-value network."""

    net: DenseNet
    repr: StateRepr

    def greedy_action(self, obs: np.ndarray) -> int:
        # np.argmax takes the first maximum, so ties resolve to the lowest
        # action index (terminate first).
        return int(np.argmax(self.net.forward(obs)))


def _check_loss(loss: float) -> None:
    """Raise DivergenceError unless loss is finite and at most DIVERGENCE_LIMIT."""
    if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
        raise DivergenceError(f"training loss {loss:.3g} exceeded limit {DIVERGENCE_LIMIT:.3g}")


def _episode(task: VectorTask, choose: Callable[[Any], int]) -> Iterator[tuple[Any, int, Step]]:
    """Run one episode of task, for at most MAX_EPISODE_STEPS steps, choosing
    each action from the observation; yields (obs, action, step) per step.
    A task may return a `Step` or a plain (obs, reward, terminal) tuple;
    either way the runner yields a `Step`."""
    obs = task.reset()
    for _ in range(MAX_EPISODE_STEPS):
        action = choose(obs)
        step = Step(*task.step(action))
        yield obs, action, step
        if step.terminal:
            return
        obs = step.obs


def dqn_train_task(
    task: VectorTask,
    config: DqnConfig,
    episodes: int,
    seed: int,
) -> tuple[DenseNet, list[EpisodeStats]]:
    """Train an action-value network on any vector-observation task.

    Per episode: roll out epsilon-greedily with the online net, then take
    the configured number of batch gradient steps against a target net
    snapshotted at the start of the episode's update phase. Returns the
    trained net and per-episode statistics.
    """
    rng = np.random.default_rng(seed)
    sizes = (task.reset().size, *config.hidden_sizes, task.num_actions)
    acts = (ACTIVATION,) * len(config.hidden_sizes) + ("identity",)
    net = DenseNet.init(sizes, acts, rng)
    optimizer = make_optimizer(config.optimizer, config.lr)
    replay = ReplayMemory(REPLAY_CAPACITY)
    rows = np.arange(config.batch_size)
    curve: list[EpisodeStats] = []

    def explore(obs: np.ndarray) -> int:
        # Epsilon-greedy at the current episode's eps, set by the loop below.
        if rng.uniform() < eps:
            return int(rng.integers(0, task.num_actions))
        return int(np.argmax(net.forward(obs)))

    for episode in range(episodes):
        eps = epsilon_at(episode, episodes, config)
        ep_return = 0.0
        steps = 0
        for obs, action, step in _episode(task, explore):
            replay.push(obs, action, step)
            ep_return += step.reward
            steps += 1

        target_net = net.clone()
        loss = float("nan")
        for _ in range(config.grad_steps_per_episode):
            xs, actions, nxt = replay.sample(rng, config.batch_size)
            next_q = target_net.forward(nxt.obs)
            targets = nxt.reward + np.where(nxt.terminal, 0.0, next_q.max(axis=1))
            out, acts_cache = net.forward_cached(xs)
            picked = out[rows, actions]
            errors = picked - targets
            # The reduction np.mean runs, without its Python-level wrapper.
            loss = float((errors * errors).sum() / config.batch_size)
            _check_loss(loss)
            dy = np.zeros(out.shape)
            dy[rows, actions] = 2.0 * errors / config.batch_size
            dws, dbs, _ = net.backward(acts_cache, dy)
            net.set_flat(optimizer.step(net.params_flat(), net.grads_flat(dws, dbs)))

        metric = getattr(task, "metric", float("nan"))
        curve.append(
            EpisodeStats(
                episode=episode,
                steps=steps,
                episode_return=ep_return,
                metric=float(metric),
                epsilon=eps,
                loss=loss,
            )
        )
    return net, curve


def dqn_train(
    scenario: Scenario,
    config: DqnConfig,
    episodes: int,
    seed: int,
    encoder: LstmCell | None = None,
    solve_cache: dict[tuple[int, ...], TrajectorySolution] | None = None,
) -> tuple[QAgent, list[EpisodeStats]]:
    """Train an action-value planner on a scenario.

    With a trained encoder the observations are the encoder's compressed
    state instead of the raw last column. ``solve_cache`` keeps every
    order's solve for a later rollout, as in `weight_based_rollout`.
    """
    repr_ = StateRepr(scenario, encoder)
    env = ScheduleEnv(scenario, infeasible_penalty=config.infeasible_penalty, solve_cache=solve_cache)
    net, curve = dqn_train_task(ScheduleTask(env, repr_), config, episodes, seed)
    return QAgent(net=net, repr=repr_), curve


def greedy_evaluate(
    agent: QAgent,
    scenario: Scenario,
    solve_cache: dict[tuple[int, ...], TrajectorySolution] | None = None,
) -> tuple[tuple[int, ...], float]:
    """Roll the greedy policy out once, for at most MAX_EPISODE_STEPS steps;
    returns (visit order, metric)."""
    task = ScheduleTask(ScheduleEnv(scenario, solve_cache=solve_cache), agent.repr)
    for _ in _episode(task, agent.greedy_action):
        pass
    return task.env.order, task.env.metric


def _weight_choice(scenario: Scenario, rng: np.random.Generator) -> Callable[[object], int]:
    """The weight baseline as an action rule: a node drawn from rng in
    proportion to its weight, whatever the observation. It never terminates
    voluntarily; an episode ends when an append fails."""
    weights = scenario.weights()
    return lambda obs: int(rng.choice(scenario.num_nodes, p=weights)) + 1


def weight_based_rollout(
    scenario: Scenario,
    seed: int,
    solve_cache: dict[tuple[int, ...], TrajectorySolution] | None = None,
) -> tuple[tuple[int, ...], float, StateMatrix]:
    """Baseline policy: sample nodes in proportion to their weights until an
    append fails, for at most MAX_EPISODE_STEPS steps; returns (visit order,
    metric, final state)."""
    env = ScheduleEnv(scenario, solve_cache=solve_cache)
    choose = _weight_choice(scenario, np.random.default_rng(seed))
    for _ in _episode(env, choose):
        pass
    return env.order, env.metric, env.state


def collect_states(
    scenario: Scenario,
    episodes: int,
    seed: int,
    solve_cache: dict[tuple[int, ...], TrajectorySolution] | None = None,
) -> list[StateMatrix]:
    """Gather a state corpus from weight-proportional episodes.

    Every state visited is kept, including each episode's initial state,
    so the encoder sees single-column matrices too.
    """
    env = ScheduleEnv(scenario, solve_cache=solve_cache)
    choose = _weight_choice(scenario, np.random.default_rng(seed))
    corpus = []
    for _ in range(episodes):
        corpus.append(env.reset())
        corpus.extend(step.obs for _, _, step in _episode(env, choose) if not step.terminal)
    return corpus


# ---------------------------------------------------------------------------
# Recurrent state autoencoder
# ---------------------------------------------------------------------------


@dataclass
class AutoencoderConfig:
    state_size: int = 8
    lr: float = 0.01
    optimizer: str = "adam"
    epochs: int = 30
    batch: str = "stochastic"  # or "full"


@dataclass
class Seq2SeqAutoencoder(FlatModel):
    """Sequence autoencoder over normalized state-matrix columns.

    The encoder consumes the columns in reverse order, so its final input
    is always the fixed initial column; the compressed state is the
    concatenated final (cell, hidden) pair. The decoder, initialized from
    that pair, reproduces the same reversed sequence under teacher
    forcing, with a linear head mapping hidden states back to columns.
    """

    encoder: LstmCell
    decoder: LstmCell
    head: DenseNet

    @classmethod
    def init(cls, input_size: int, state_size: int, rng: np.random.Generator) -> "Seq2SeqAutoencoder":
        return cls(
            encoder=LstmCell.init(input_size, state_size, rng),
            decoder=LstmCell.init(input_size, state_size, rng),
            head=DenseNet.init((state_size, input_size), ("identity",), rng),
        )

    @property
    def state_size(self) -> int:
        return self.encoder.hidden_size

    def encode_columns(self, normalized: np.ndarray) -> np.ndarray:
        return _final_state(self.encoder, normalized)

    def _reconstruct(self, normalized: np.ndarray) -> tuple:
        """Teacher-forced pass over the reversed columns: the encoder input,
        the decoder input, both recurrent traces (hs, cs, gates), the head's
        cache and the reconstruction error."""
        xs = normalized[::-1].copy()
        enc = self.encoder.seq_forward(xs)
        hs_e, cs_e, _ = enc
        dec_in = np.zeros_like(xs)
        dec_in[1:] = xs[:-1]
        dec = self.decoder.seq_forward(dec_in, hs_e[-1], cs_e[-1])
        out, head_cache = self.head.forward_cached(dec[0][1:])
        return xs, dec_in, enc, dec, head_cache, out - xs

    def loss_and_grad(self, normalized: np.ndarray) -> tuple[float, np.ndarray]:
        """Reconstruction MSE on one sequence and the full parameter gradient."""
        xs, dec_in, enc, dec, head_cache, err = self._reconstruct(normalized)
        k = self.state_size
        dws, dbs, dhidden = self.head.backward(head_cache, 2.0 * err / err.size)
        dwg_d, dbg_d, dh0_d, dc0_d, _ = self.decoder.seq_backward(
            dec_in, *dec, dhidden, np.zeros(k), np.zeros(k)
        )
        dwg_e, dbg_e, _, _, _ = self.encoder.seq_backward(xs, *enc, None, dh0_d, dc0_d)
        grad = flatten([dwg_e, dbg_e, dwg_d, dbg_d, self.head.grads_flat(dws, dbs)])
        return float(np.mean(err * err)), grad

    def reconstruction_mse(self, normalized: np.ndarray) -> float:
        err = self._reconstruct(normalized)[-1]
        return float(np.mean(err * err))

    def _bind(self, flat: np.ndarray) -> None:
        # Each part, copied so that a clone's parts are its own, takes its
        # slice of the one vector.
        self.flat = flat
        parts = []
        offset = 0
        for part in (self.encoder, self.decoder, self.head):
            part = copy.copy(part)
            part._bind(flat[offset : offset + part.flat.size])
            offset += part.flat.size
            parts.append(part)
        self.encoder, self.decoder, self.head = parts

    def to_arrays(self) -> list[tuple[str, np.ndarray]]:
        return (
            prefixed("enc", self.encoder.to_arrays())
            + prefixed("dec", self.decoder.to_arrays())
            + prefixed("head", self.head.to_arrays())
        )


@dataclass
class AutoencoderResult:
    model: Seq2SeqAutoencoder
    train_mse: list[float]
    test_mse: float
    num_train: int
    num_test: int


def autoencoder_train(
    scenario: Scenario,
    corpus: list[StateMatrix],
    config: AutoencoderConfig,
    seed: int,
) -> AutoencoderResult:
    """Train the autoencoder on a 70/30 split of the state corpus.

    Each step follows one batch's mean loss and gradient: batch='stochastic'
    takes each sequence alone, in a fresh order per epoch; batch='full' the
    whole training split (slower but the epoch losses descend monotonically
    at small learning rates).
    """
    if not corpus:
        raise ValueError("corpus must contain at least one state")
    rng = np.random.default_rng(seed)
    sequences = [normalize_state_columns(scenario, state) for state in corpus]
    if len(sequences) == 1:
        # Overfitting a singleton: train and test on the same sequence.
        train = test = sequences
    else:
        perm = rng.permutation(len(sequences))
        n_train = max(1, int(round(0.7 * len(sequences))))
        train = [sequences[i] for i in perm[:n_train]]
        test = [sequences[i] for i in perm[n_train:]]

    model = Seq2SeqAutoencoder.init(scenario.num_nodes + 1, config.state_size, rng)
    optimizer = make_optimizer(config.optimizer, config.lr)
    history: list[float] = []
    for _ in range(config.epochs):
        if config.batch == "full":
            batches = [train]
        else:
            batches = [[train[i]] for i in rng.permutation(len(train))]
        total = 0.0
        for batch in batches:
            mses, grads = zip(*[model.loss_and_grad(seq) for seq in batch])
            batch_sum = sum(mses)
            _check_loss(batch_sum / len(batch))
            model.set_flat(optimizer.step(model.params_flat(), reduce(np.add, grads) / len(batch)))
            total += batch_sum
        history.append(total / len(train))

    test_mse = float(np.mean([model.reconstruction_mse(seq) for seq in test]))
    return AutoencoderResult(
        model=model,
        train_mse=history,
        test_mse=test_mse,
        num_train=len(train),
        num_test=len(test),
    )


@dataclass
class SearchResult:
    best_size: int
    results: dict[int, float]
    best: AutoencoderResult


# ---------------------------------------------------------------------------
# Checkpoint plumbing
# ---------------------------------------------------------------------------


def save_agent(path: str | Path, agent: QAgent) -> None:
    """Persist a trained planner, including its encoder when it has one."""
    arrays = prefixed("net", agent.net.to_arrays())
    meta: dict[str, Any] = {
        "net_sizes": list(agent.net.sizes),
        "net_activations": list(agent.net.activations),
        "num_actions": agent.net.sizes[-1],
        "state_mode": agent.repr.mode,
        "num_nodes": agent.repr.scenario.num_nodes,
    }
    if agent.repr.encoder is not None:
        arrays += prefixed("enc", agent.repr.encoder.to_arrays())
        meta["encoder_input_size"] = agent.repr.encoder.input_size
        meta["encoder_hidden_size"] = agent.repr.encoder.hidden_size
    save_checkpoint(path, "qnet", arrays, meta)


def _meta_size(meta: dict[str, Any], key: str) -> int:
    value = meta.get(key)
    if type(value) is not int or value < 1:
        raise CheckpointError(f"checkpoint meta {key!r} is not a positive integer: {value!r}")
    return value


def _meta_list(meta: dict[str, Any], key: str, item: type) -> list[Any]:
    value = meta.get(key)
    if not isinstance(value, list) or not all(type(v) is item for v in value):
        raise CheckpointError(f"checkpoint meta {key!r} is not a list of {item.__name__}: {value!r}")
    return value


def _array(arrays: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    if name not in arrays:
        raise CheckpointError(f"checkpoint has no array {name!r}")
    if arrays[name].shape != shape:
        raise CheckpointError(
            f"checkpoint array {name!r} has shape {list(arrays[name].shape)}, expected {list(shape)}"
        )
    return arrays[name]


def _lstm(arrays: dict[str, np.ndarray], prefix: str, input_size: int, hidden_size: int) -> LstmCell:
    return LstmCell(
        input_size=input_size,
        hidden_size=hidden_size,
        wg=_array(arrays, f"{prefix}_wg", (4 * hidden_size, hidden_size + input_size)),
        bg=_array(arrays, f"{prefix}_bg", (4 * hidden_size,)),
    )


def _dense(
    arrays: dict[str, np.ndarray], prefix: str, sizes: list[int], activations: list[str]
) -> DenseNet:
    layers = range(len(sizes) - 1)
    return DenseNet(
        sizes=tuple(sizes),
        activations=tuple(activations),
        ws=[_array(arrays, f"{prefix}_w{i}", (sizes[i + 1], sizes[i])) for i in layers],
        bs=[_array(arrays, f"{prefix}_b{i}", (sizes[i + 1],)) for i in layers],
    )


def load_agent(path: str | Path, scenario: Scenario) -> QAgent:
    """Rebuild a planner from a checkpoint against a compatible scenario."""
    kind, arrays, meta = load_checkpoint(path)
    if kind != "qnet":
        raise CheckpointError(f"expected a qnet checkpoint, found {kind!r}")
    num_nodes = _meta_size(meta, "num_nodes")
    if num_nodes != scenario.num_nodes:
        raise CheckpointError(
            f"checkpoint was trained for {num_nodes} nodes, "
            f"scenario has {scenario.num_nodes}"
        )
    sizes = _meta_list(meta, "net_sizes", int)
    activations = _meta_list(meta, "net_activations", str)
    if (
        len(sizes) < 2
        or min(sizes) < 1
        or len(activations) != len(sizes) - 1
        or not set(activations) <= ACTIVATIONS.keys()
    ):
        raise CheckpointError(f"checkpoint network layout {sizes} {activations} is not valid")
    net = _dense(arrays, "net", sizes, activations)
    encoder = None
    mode = meta.get("state_mode")
    if mode == "autoencoder":
        encoder = _lstm(
            arrays,
            "enc",
            _meta_size(meta, "encoder_input_size"),
            _meta_size(meta, "encoder_hidden_size"),
        )
    elif mode != "last_column":
        raise CheckpointError(f"checkpoint state mode {mode!r} is unknown")
    repr_ = StateRepr(scenario, encoder)
    num_actions = _meta_size(meta, "num_actions")
    if (net.sizes[0], net.sizes[-1], num_actions) != (repr_.size, num_nodes + 1, num_nodes + 1):
        raise CheckpointError(
            f"checkpoint network maps {net.sizes[0]} inputs to {net.sizes[-1]} of "
            f"{num_actions} actions; its {mode} state has {repr_.size} entries and "
            f"{num_nodes} nodes need {num_nodes + 1} actions"
        )
    return QAgent(net=net, repr=repr_)


def save_autoencoder(path: str | Path, model: Seq2SeqAutoencoder, meta: dict[str, Any] | None = None) -> None:
    extra = dict(meta or {})
    extra["input_size"] = model.encoder.input_size
    extra["state_size"] = model.state_size
    save_checkpoint(path, "autoencoder", model.to_arrays(), extra)


def load_autoencoder(path: str | Path) -> tuple[Seq2SeqAutoencoder, dict[str, Any]]:
    kind, arrays, meta = load_checkpoint(path)
    if kind != "autoencoder":
        raise CheckpointError(f"expected an autoencoder checkpoint, found {kind!r}")
    d_in = _meta_size(meta, "input_size")
    k = _meta_size(meta, "state_size")
    model = Seq2SeqAutoencoder(
        encoder=_lstm(arrays, "enc", d_in, k),
        decoder=_lstm(arrays, "dec", d_in, k),
        head=_dense(arrays, "head", [k, d_in], ["identity"]),
    )
    return model, meta


def autoencoder_search(
    scenario: Scenario,
    corpus: list[StateMatrix],
    sizes: list[int],
    config: AutoencoderConfig,
    seed: int,
) -> SearchResult:
    """Grid-search the compressed state size by held-out reconstruction MSE.

    The cell and hidden state of the recurrent encoder share one size, so
    one list of candidates covers both. Ties prefer the smaller size.
    """
    candidates = sorted(set(int(v) for v in sizes))
    results: dict[int, float] = {}
    best: AutoencoderResult | None = None
    best_size = -1
    for size in candidates:
        run = autoencoder_train(scenario, corpus, replace(config, state_size=size), seed)
        results[size] = run.test_mse
        if best is None or run.test_mse < results[best_size]:
            best = run
            best_size = size
    assert best is not None
    return SearchResult(best_size=best_size, results=results, best=best)
