"""Command-line front end: solve, bound, enumerate, train, evaluate, sweep.

Every command that writes artifacts also writes a manifest.json capturing
the command, its arguments, the seed, and the package version, so any
output directory can be reproduced from its manifest alone. Exit codes:
0 success, 1 usage, 2 infeasible or solver failure, 3 missing artifact,
4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .agents import (
    AutoencoderConfig,
    DqnConfig,
    QAgent,
    autoencoder_search,
    collect_states,
    dqn_train,
    greedy_evaluate,
    load_agent,
    load_autoencoder,
    save_agent,
    save_autoencoder,
    weight_based_rollout,
    write_learning_curve_csv,
)
from .bounds import bound_report, lower_bound
from .errors import (
    BudgetExceededError,
    CheckpointError,
    CoincidentTimesError,
    DivergenceError,
    NonFiniteGradientError,
    ScenarioError,
    ScheduleError,
)
from .exhaustive import DEFAULT_BUDGET, enumerate_optimal
from .mdp import ScheduleEnv
from .physics import write_aoi_trace_csv
from .scenario import (
    DEFAULT_REGION,
    Scenario,
    UavParams,
    from_document,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .solver import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    STATUS_OPTIMAL,
    check_solution,
    solve_schedule,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_MISSING = 3
EXIT_BUDGET = 4

SWEEP_AXES = ("nodes", "energy", "horizon", "speed")
EVAL_POLICIES = ("enumerate", "weight", "dqn", "dqn-lstm")

# The planner trains with Adam here, not DqnConfig's SGD at lr 0.01 and one
# step per episode, on which criterion 8's reference values rest. Other
# flags read config fields; train-* and sweep share the episode counts.
_DQN = DqnConfig(lr=0.005, optimizer="adam", grad_steps_per_episode=4)
_AE = AutoencoderConfig()
_TRAIN_EPISODES = 300
_CORPUS_EPISODES = 40


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _parse_ints(text: str, flag: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects a comma-separated integer list: {exc}") from exc


def _parse_sizes(text: str, flag: str) -> list[int]:
    sizes = _parse_ints(text, flag)
    if any(v < 1 for v in sizes):
        raise _UsageError(f"{flag} entries must be at least 1, got {text!r}")
    return sizes


def _integer(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _count(text: str) -> int:
    """Argument type of a size or count flag: an integer of at least 1."""
    return _integer(text, 1)


def _seed(text: str) -> int:
    """Argument type of a seed: an integer of at least 0."""
    return _integer(text, 0)


def _positive(text: str) -> float:
    """Argument type of a learning rate, tolerance or scenario geometry
    value: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _nonnegative(text: str) -> float:
    """Argument type of a penalty: a finite number of at least 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number of at least 0, got {text!r}")
    return value


def _fraction(text: str) -> float:
    """Argument type of an exploration setting: a number in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text!r}")
    return value


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects a comma-separated number list: {exc}") from exc


def _load(path: str) -> Scenario:
    if not Path(path).is_file():
        raise FileNotFoundError(f"scenario file not found: {path}")
    return load_scenario(path)


def _ensure_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict[str, Any]) -> None:
    # One encode and one write; json.dump would write each token separately.
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(out: Path, args: argparse.Namespace) -> None:
    skip = {"func", "out"}
    arguments = {
        key: (str(value) if isinstance(value, Path) else value)
        for key, value in sorted(vars(args).items())
        if key not in skip
    }
    _write_json(
        out / "manifest.json",
        {
            "command": args.command,
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "arguments": arguments,
        },
    )


def _print_doc(doc: dict[str, Any]) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    scenario = generate_scenario(
        args.nodes,
        seed=args.seed,
        region=args.region,
        altitude_m=args.altitude,
        vmax=args.vmax,
        horizon_s=args.horizon,
    )
    save_scenario(scenario, args.out)
    print(f"wrote scenario with {args.nodes} nodes to {args.out}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    order = tuple(_parse_ints(args.schedule, "--schedule"))
    solution = solve_schedule(scenario, order, tol=args.tol, max_iters=args.max_iters)
    doc = solution.to_document()
    doc["lower_bound"] = lower_bound(scenario)
    if solution.status == STATUS_OPTIMAL:
        report = check_solution(scenario, solution, tol=args.tol)
        doc["check"] = report.to_document()
    out = _ensure_out(args.out)
    _write_json(out / "result.json", doc)
    _write_manifest(out, args)
    if solution.status == STATUS_OPTIMAL:
        solution.write_trajectory_csv(out / "trajectory.csv", scenario)
        write_aoi_trace_csv(
            out / "aoi_trace.csv", scenario, solution.update_times(scenario.num_nodes)
        )
    print(f"status={solution.status} objective={solution.objective:.10g}")
    if solution.status != STATUS_OPTIMAL:
        if solution.message:
            print(solution.message, file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    doc = bound_report(scenario).to_document()
    if args.out:
        out = _ensure_out(args.out)
        _write_json(out / "bounds.json", doc)
        _write_manifest(out, args)
    _print_doc(doc)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    result = enumerate_optimal(scenario, budget=args.budget, tol=args.tol)
    doc = result.to_document()
    doc["lower_bound"] = lower_bound(scenario)
    out = _ensure_out(args.out)
    _write_json(out / "result.json", doc)
    result.write_table_csv(out / "enumeration.csv")
    _write_manifest(out, args)
    print(
        f"best order {'-'.join(map(str, result.best_order)) or '(none)'} "
        f"objective={result.objective:.10g} solves={result.num_solves} "
        f"pruned={result.num_pruned}"
    )
    return _unsettled_exit(result.num_nonconverged)


def _unsettled_exit(unsettled: int) -> int:
    """Exit code of a command that enumerated: EXIT_SOLVER, with the count
    on stderr, when some candidate solve ended neither optimal nor infeasible."""
    if unsettled:
        print(f"{unsettled} candidate solves ended neither optimal nor infeasible", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _dqn_config(args: argparse.Namespace) -> DqnConfig:
    return DqnConfig(
        hidden_sizes=tuple(_parse_sizes(args.hidden, "--hidden")),
        lr=args.lr,
        optimizer=args.optimizer,
        epsilon_end=args.epsilon_end,
        epsilon_decay_frac=args.epsilon_decay_frac,
        batch_size=args.batch_size,
        grad_steps_per_episode=args.grad_steps,
    )


def cmd_train_dqn(args: argparse.Namespace) -> int:
    config = _dqn_config(args)
    scenario = _load(args.scenario)
    encoder = None
    if args.state_mode == "last_column":
        if args.encoder:
            raise _UsageError("--encoder needs --state-mode autoencoder")
    else:
        if not args.encoder:
            raise _UsageError("--state-mode autoencoder requires --encoder")
        if not Path(args.encoder).is_file():
            raise FileNotFoundError(f"encoder checkpoint not found: {args.encoder}")
        model, _ = load_autoencoder(args.encoder)
        encoder = model.encoder
    # The closing greedy rollout reads the solves training already made.
    env = ScheduleEnv(scenario, infeasible_penalty=args.penalty)
    agent, curve = dqn_train(env, config, episodes=args.episodes, seed=args.seed, encoder=encoder)
    order, metric = greedy_evaluate(agent, env)
    out = _ensure_out(args.out)
    save_agent(out / "agent.ckpt", agent)
    write_learning_curve_csv(out / "learning_curve.csv", curve)
    _write_json(
        out / "train.json",
        {
            "episodes": args.episodes,
            "seed": args.seed,
            "greedy_order": list(order),
            "greedy_nwaoi": metric,
            "lower_bound": lower_bound(scenario),
            "final_loss": curve[-1].loss if curve else None,
        },
    )
    _write_manifest(out, args)
    print(f"greedy order {'-'.join(map(str, order)) or '(none)'} nwaoi={metric:.10g}")
    return EXIT_OK


def cmd_train_autoencoder(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes, "--sizes")
    if not sizes:
        raise _UsageError("--sizes must list at least one state size")
    scenario = _load(args.scenario)
    corpus = collect_states(ScheduleEnv(scenario), episodes=args.corpus_episodes, seed=args.seed)
    config = AutoencoderConfig(
        lr=args.lr, optimizer=args.optimizer, epochs=args.epochs, batch=args.batch
    )
    search = autoencoder_search(scenario, corpus, sizes, config=config, seed=args.seed)
    out = _ensure_out(args.out)
    save_autoencoder(
        out / "autoencoder.ckpt",
        search.best.model,
        {"test_mse": search.best.test_mse, "corpus_states": len(corpus)},
    )
    with open(out / "search.csv", "w", encoding="utf-8") as fh:
        fh.write("state_size,test_mse\n")
        for size in sorted(search.results):
            fh.write(f"{size},{search.results[size]:.10g}\n")
    _write_json(
        out / "train.json",
        {
            "best_size": search.best_size,
            "results": {str(k): v for k, v in search.results.items()},
            "corpus_states": len(corpus),
            "num_train": search.best.num_train,
            "num_test": search.best.num_test,
            "seed": args.seed,
        },
    )
    _write_manifest(out, args)
    print(f"best state size {search.best_size} test_mse={search.best.test_mse:.6g}")
    return EXIT_OK


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean of values; 0 for a single value."""
    return float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0


def _evaluate(
    env: ScheduleEnv, policy: str, budget: int, seeds: list[int], agent: QAgent | None
) -> tuple[dict[str, Any], float, int]:
    """Score one policy on env's scenario: (its document fields, its NWAoI,
    its unsettled solve count). weight scores the mean of one rollout per
    seed; dqn rolls agent out greedily. Both run on env, so a dqn rollout
    reads the solves its training made there."""
    if policy == "enumerate":
        result = enumerate_optimal(env.scenario, budget=budget, keep_rows=False)
        fields = {
            "order": list(result.best_order),
            "nwaoi": result.objective,
            "num_candidates": result.num_candidates,
            "num_solves": result.num_solves,
            "num_pruned": result.num_pruned,
        }
        return fields, result.objective, result.num_nonconverged
    if policy == "weight":
        rollouts = [weight_based_rollout(env, s)[:2] for s in seeds]
        metrics = np.asarray([metric for _, metric in rollouts])
        best_metric, best_order = min((metric, order) for order, metric in rollouts)
        fields = {
            "episodes": len(seeds),
            "mean_nwaoi": float(metrics.mean()),
            "stderr_nwaoi": _stderr(metrics),
            "best_order": list(best_order),
            "best_nwaoi": best_metric,
        }
        return fields, fields["mean_nwaoi"], 0
    order, metric = greedy_evaluate(agent, env)
    return {"order": list(order), "nwaoi": metric}, metric, 0


def _checkpoint_agent(args: argparse.Namespace, scenario: Scenario) -> QAgent:
    """The agent saved at --checkpoint, checked against the policy's state mode."""
    if not args.checkpoint:
        raise _UsageError(f"--policy {args.policy} requires --checkpoint")
    if not Path(args.checkpoint).is_file():
        raise FileNotFoundError(f"checkpoint not found: {args.checkpoint}")
    agent = load_agent(args.checkpoint, scenario)
    wanted = "autoencoder" if args.policy == "dqn-lstm" else "last_column"
    if agent.repr.mode != wanted:
        raise CheckpointError(
            f"policy {args.policy} needs a checkpoint with state mode "
            f"{wanted!r}, found {agent.repr.mode!r}"
        )
    return agent


def cmd_eval(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    doc: dict[str, Any] = {"policy": args.policy, "lower_bound": lower_bound(scenario)}
    seeds = []
    if args.policy == "weight":
        seeds = np.random.default_rng(args.seed).integers(0, 2**63 - 1, size=args.episodes).tolist()
    agent = _checkpoint_agent(args, scenario) if args.policy.startswith("dqn") else None
    fields, _, unsettled = _evaluate(ScheduleEnv(scenario), args.policy, args.budget, seeds, agent)
    doc.update(fields)
    if args.out:
        out = _ensure_out(args.out)
        _write_json(out / "eval.json", doc)
        _write_manifest(out, args)
    _print_doc(doc)
    return _unsettled_exit(unsettled)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def _apply_axis(doc: dict[str, Any], axis: str, value: float) -> Scenario:
    doc = json.loads(json.dumps(doc))
    if axis == "horizon":
        doc["uav"]["horizon_s"] = float(value)
    elif axis == "speed":
        doc["uav"]["vmax_x"] = float(value)
        doc["uav"]["vmax_y"] = float(value)
    elif axis == "energy":
        for node in doc["nodes"]:
            node["battery_j"] = node["battery_j"] * float(value)
    else:  # nodes
        available = len(doc["nodes"])
        if not (1 <= value <= available and value == int(value)):
            raise ScenarioError(
                f"nodes axis value {value:g} is not a node count in 1..{available} "
                "(template must carry at least max(values) nodes)"
            )
        kept = doc["nodes"][: int(value)]
        total = sum(node["weight"] for node in kept)
        for node in kept:
            node["weight"] = node["weight"] / total
        doc["nodes"] = kept
    return from_document(doc)


def _trained_agent(env: ScheduleEnv, policy: str, seed: int, args: argparse.Namespace) -> QAgent:
    """A sweep cell's agent, trained on env: for dqn-lstm, the encoder that
    gives the agent's state is first trained as train-autoencoder trains
    it, at the one size --state-size."""
    encoder = None
    if policy == "dqn-lstm":
        corpus = collect_states(env, episodes=args.corpus_episodes, seed=seed)
        search = autoencoder_search(
            env.scenario, corpus, [args.state_size], config=replace(_AE, epochs=args.ae_epochs), seed=seed
        )
        encoder = search.best.model.encoder
    config = replace(_DQN, lr=args.lr, optimizer=args.optimizer, grad_steps_per_episode=args.grad_steps)
    agent, _ = dqn_train(env, config, episodes=args.episodes, seed=seed, encoder=encoder)
    return agent


def _sweep_cell(payload: tuple) -> tuple[float, str, int, float, float, int]:
    doc, value, policy, seed, args = payload
    scenario = _apply_axis(doc, args.axis, value)
    # The cell's corpus, training and rollout all run on this env's memo.
    env = ScheduleEnv(scenario)
    agent = _trained_agent(env, policy, seed, args) if policy.startswith("dqn") else None
    _, metric, unsettled = _evaluate(env, policy, args.budget, [seed], agent)
    return float(value), policy, seed, float(metric), lower_bound(scenario), unsettled


def cmd_sweep(args: argparse.Namespace) -> int:
    template = _load(args.scenario)
    values = _parse_floats(args.values, "--values")
    seeds = _parse_ints(args.seeds, "--seeds")
    if any(seed < 0 for seed in seeds):
        raise _UsageError(f"--seeds entries must be at least 0, got {args.seeds!r}")
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    for policy in policies:
        if policy not in EVAL_POLICIES:
            raise _UsageError(f"unknown policy {policy!r}; choose from {EVAL_POLICIES}")
    if not values or not seeds or not policies:
        raise _UsageError("--values, --seeds, and --policies must be non-empty")
    for flag, entries in (("--values", values), ("--seeds", seeds), ("--policies", policies)):
        if len(set(entries)) < len(entries):
            raise _UsageError(f"{flag} lists an entry more than once")

    doc = template.to_document()
    cells = [
        (doc, value, policy, seed, args)
        for value in values
        for policy in policies
        for seed in seeds
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            raw = list(pool.map(_sweep_cell, cells))
    else:
        raw = [_sweep_cell(cell) for cell in cells]
    # Deterministic aggregation independent of evaluation order.
    raw.sort(key=lambda row: (row[0], row[1], row[2]))

    out = _ensure_out(args.out)
    with open(out / "cells.csv", "w", encoding="utf-8") as fh:
        fh.write("axis,value,policy,seed,nwaoi,lower_bound\n")
        for value, policy, seed, metric, bound, _ in raw:
            fh.write(f"{args.axis},{value:.10g},{policy},{seed},{metric:.10g},{bound:.10g}\n")
    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write("axis,value,policy,mean_nwaoi,stderr_nwaoi,lower_bound,num_seeds\n")
        for value in values:
            for policy in policies:
                cell = [row[3:5] for row in raw if row[:2] == (value, policy)]
                metrics, bounds = np.array(cell).T
                fh.write(
                    f"{args.axis},{value:.10g},{policy},{metrics.mean():.10g},"
                    f"{_stderr(metrics):.10g},{bounds.mean():.10g},{metrics.size}\n"
                )
    _write_manifest(out, args)
    print(f"wrote {len(raw)} cells across {len(values)} values to {out / 'sweep.csv'}")
    return _unsettled_exit(sum(row[5] for row in raw))


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


_OPTIMIZERS = ["sgd", "adam"]
_Flags = tuple[tuple[str, dict[str, Any]], ...]

# One entry per command: its help line, its handler and its flags, each a
# flag name with its add_argument keywords. build_parser reads nothing else.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], _Flags]] = {
    "generate": ("write a random scenario file", cmd_generate, (
        ("--nodes", {"type": _count, "required": True}),
        ("--seed", {"type": _seed, "default": 0}),
        ("--region", {"type": _positive, "default": DEFAULT_REGION[0]}),
        ("--altitude", {"type": _positive, "default": UavParams.altitude_m}),
        ("--vmax", {"type": _positive, "default": UavParams.vmax_x}),
        ("--horizon", {"type": _positive, "default": UavParams.horizon_s}),
        ("--out", {"required": True}),
    )),
    "solve": ("solve the trajectory for a fixed visit order", cmd_solve, (
        ("--scenario", {"required": True}),
        ("--schedule", {"default": "", "help": "comma list of node indices, e.g. 1,2,1"}),
        ("--tol", {"type": _positive, "default": DEFAULT_TOL}),
        ("--max-iters", {"type": _count, "default": DEFAULT_MAX_ITERS}),
        ("--out", {"required": True}),
    )),
    "bounds": ("closed-form bounds and speed sufficiency", cmd_bounds, (
        ("--scenario", {"required": True}),
        ("--out", {"default": None}),
    )),
    "enumerate": ("exhaustive search over visit orders", cmd_enumerate, (
        ("--scenario", {"required": True}),
        ("--budget", {"type": _count, "default": DEFAULT_BUDGET}),
        ("--tol", {"type": _positive, "default": DEFAULT_TOL}),
        ("--out", {"required": True}),
    )),
    "train-dqn": ("train the action-value planner", cmd_train_dqn, (
        ("--scenario", {"required": True}),
        ("--episodes", {"type": _count, "default": _TRAIN_EPISODES}),
        ("--seed", {"type": _seed, "default": 0}),
        ("--hidden", {"default": ",".join(map(str, _DQN.hidden_sizes))}),
        ("--lr", {"type": _positive, "default": _DQN.lr}),
        ("--optimizer", {"default": _DQN.optimizer, "choices": _OPTIMIZERS}),
        ("--epsilon-end", {"type": _fraction, "default": _DQN.epsilon_end}),
        ("--epsilon-decay-frac", {"type": _fraction, "default": _DQN.epsilon_decay_frac}),
        ("--batch-size", {"type": _count, "default": _DQN.batch_size}),
        ("--grad-steps", {"type": _count, "default": _DQN.grad_steps_per_episode}),
        ("--penalty", {"type": _nonnegative, "default": ScheduleEnv.infeasible_penalty}),
        ("--state-mode", {"default": "last_column", "choices": ["last_column", "autoencoder"]}),
        ("--encoder", {"default": None, "help": "autoencoder checkpoint for --state-mode autoencoder"}),
        ("--out", {"required": True}),
    )),
    "train-autoencoder": ("train the recurrent state encoder", cmd_train_autoencoder, (
        ("--scenario", {"required": True}),
        ("--corpus-episodes", {"type": _count, "default": _CORPUS_EPISODES}),
        ("--seed", {"type": _seed, "default": 0}),
        ("--sizes", {"default": str(_AE.state_size), "help": "candidate state sizes, comma list"}),
        ("--epochs", {"type": _count, "default": _AE.epochs}),
        ("--lr", {"type": _positive, "default": _AE.lr}),
        ("--optimizer", {"default": _AE.optimizer, "choices": _OPTIMIZERS}),
        ("--batch", {"default": _AE.batch, "choices": ["stochastic", "full"]}),
        ("--out", {"required": True}),
    )),
    "eval": ("evaluate a planning policy on a scenario", cmd_eval, (
        ("--scenario", {"required": True}),
        ("--policy", {"required": True, "choices": list(EVAL_POLICIES)}),
        ("--checkpoint", {"default": None}),
        ("--seed", {"type": _seed, "default": 0}),
        ("--episodes", {"type": _count, "default": 100, "help": "rollouts for the weight policy"}),
        ("--budget", {"type": _count, "default": DEFAULT_BUDGET}),
        ("--out", {"default": None}),
    )),
    "sweep": ("policy comparison across a scenario axis", cmd_sweep, (
        ("--scenario", {"required": True, "help": "template scenario file"}),
        ("--axis", {"required": True, "choices": list(SWEEP_AXES)}),
        ("--values", {"required": True, "help": "comma list of axis values"}),
        ("--policies", {"default": "enumerate,weight"}),
        ("--seeds", {"default": "0"}),
        ("--budget", {"type": _count, "default": DEFAULT_BUDGET}),
        ("--episodes", {"type": _count, "default": _TRAIN_EPISODES, "help": "training episodes per dqn cell"}),
        ("--lr", {"type": _positive, "default": _DQN.lr}),
        ("--optimizer", {"default": _DQN.optimizer, "choices": _OPTIMIZERS}),
        ("--grad-steps", {"type": _count, "default": _DQN.grad_steps_per_episode}),
        ("--corpus-episodes", {"type": _count, "default": _CORPUS_EPISODES}),
        ("--state-size", {"type": _count, "default": _AE.state_size}),
        ("--ae-epochs", {"type": _count, "default": _AE.epochs}),
        ("--workers", {"type": _count, "default": 1, "help": "parallel cell evaluations"}),
        ("--out", {"required": True}),
    )),
}


def _add_command(parser: _Parser, command: str) -> _Parser:
    _, func, flags = _COMMANDS[command]
    for flag, options in flags:
        parser.add_argument(flag, **options)
    parser.set_defaults(command=command, func=func)
    return parser


def build_parser(command: str | None = None) -> _Parser:
    """The parser of one command of ``_COMMANDS``, as ``aoiplan <command>``;
    with no command, the full tree: ``aoiplan`` with one subparser each."""
    if command is not None:
        return _add_command(_Parser(prog=f"aoiplan {command}"), command)
    parser = _Parser(prog="aoiplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A known command builds only its own parser. Anything else (no argument,
    # an option first, an unknown command) takes the full tree, which owns
    # those messages.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args, extras = parser.parse_known_args(argv[1:] if command else argv)
        if extras:  # parse_args's message, which the full tree gives as aoiplan's
            raise _UsageError(f"aoiplan: unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except BudgetExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except (
        ScenarioError,
        ScheduleError,
        CoincidentTimesError,
        DivergenceError,
        NonFiniteGradientError,
    ) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
