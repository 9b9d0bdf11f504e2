"""Spans around the package's public calls, installed from outside for one run.

Nothing under src/ changes. Each wrapper replaces a name where its caller
looks it up: `from .solver import solve_schedule` binds the function into
each caller's own namespace, so the solver is wrapped in aoiplan.cli,
aoiplan.exhaustive and aoiplan.mdp separately, and the nnet kernels are
wrapped on the aoiplan.nnet.kernels namespace that layers.py reads on every
call. Spans stay in memory and are written out as JSONL at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import aoiplan.agents as agents
import aoiplan.cli as cli
import aoiplan.exhaustive as exhaustive
import aoiplan.mdp as mdp
import aoiplan.nnet as nnet
import aoiplan.solver as solver

perf = time.perf_counter

SOLVE_SITES = (cli, exhaustive, mdp)

# cli.main looks these up in its own module on every command. The private
# helpers are the command's own artifact writing and argument parsing.
CLI_NAMES = (
    "main", "build_parser", "_ensure_out", "_write_json", "_write_manifest", "_print_doc",
    "load_scenario", "check_solution", "lower_bound", "enumerate_optimal",
    "write_aoi_trace_csv", "collect_states", "autoencoder_search", "dqn_train",
    "greedy_evaluate", "load_agent", "load_autoencoder", "save_agent",
    "save_autoencoder", "write_learning_curve_csv",
)
METHODS = (
    (agents.ScheduleTask, "step"),
    (agents.ScheduleTask, "reset"),
    (agents.StateRepr, "encode"),
    (agents.Seq2SeqAutoencoder, "loss_and_grad"),
    (mdp.ScheduleEnv, "step"),
    (solver.TrajectorySolution, "write_trajectory_csv"),
    (exhaustive.EnumerationResult, "write_table_csv"),
)
KERNELS = ("dense_forward", "dense_backward", "lstm_seq_forward", "lstm_seq_backward")


def _solve_note(args, kwargs, out):
    return [len(out.order), out.status, int(out.iterations), bool(out.used_phase1)]


def _lstm_note(args, kwargs, out):
    # forward (wg, bg, xs, h0, c0); backward (wg, xs, hs, cs, gates, dhs, dh_last, dc_last)
    xs = args[2] if len(args) == 5 else args[1]
    k = args[3].size if len(args) == 5 else args[6].size
    return [int(xs.shape[0]), int(k), int(xs.shape[1])]


SPAN_NOTES = {
    "solver.solve_schedule": _solve_note,
    "solver.check_solution": lambda a, k, out: [len(a[1].order)],
    "exhaustive.enumerate_optimal": lambda a, k, out: [int(out.num_candidates)],
    "mdp.ScheduleEnv.step": lambda a, k, out: [int(a[1]), "rejected" in out.info],
    "agents.autoencoder_train": lambda a, k, out: [int(a[2].epochs)],
    "nnet.lstm_seq_forward": _lstm_note,
    "nnet.lstm_seq_backward": _lstm_note,
}


def _layer_name(fn, attr: str) -> str:
    module = fn.__module__.split(".")[1]
    if module == "nnet":
        return f"nnet.{attr}"
    return f"{module}.{getattr(fn, '__qualname__', attr)}"


class Tracer:
    """Solve statuses always; with full=True also one span per wrapped call.

    A span is [name, parent index, command id, start, end, note].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.statuses: list[str] = []
        self.command = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self, full: bool) -> None:
        self.uninstall()
        for site in SOLVE_SITES:
            self._replace(site, "solve_schedule", full)
        if not full:
            return
        for name in CLI_NAMES:
            self._replace(cli, name, True)
        self._replace(agents, "autoencoder_train", True)
        for owner, name in METHODS:
            self._replace(owner, name, True)
        for name in KERNELS:
            self._replace(nnet.kernels, name, True)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _replace(self, owner, name: str, span: bool) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        if span:
            wrapped = self._span(_layer_name(original, name), original)
        else:
            wrapped = self._count(original)
        setattr(owner, name, wrapped)

    def _count(self, fn):
        statuses = self.statuses

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            statuses.append(out.status)
            return out

        return wrapper

    def _span(self, name: str, fn):
        spans, stack, statuses = self.spans, self.stack, self.statuses
        note = SPAN_NOTES.get(name)
        is_solve = name == "solver.solve_schedule"

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.command, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, out)
            if is_solve:
                statuses.append(out.status)
            return out

        return wrapper

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, command, start, end, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "command": command,
                                     "start": start, "end": end, "note": note}) + "\n")


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from the spans of a traced run.

    Self time is a span's duration minus the time its children cover. The
    kkt and lstm flop figures are computed from sizes, not measured.
    """
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    outside_cli = [0.0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[1] >= 0:
            child[s[1]] += dur[i]
            if not s[0].startswith("cli."):
                outside_cli[s[1]] += dur[i]

    def parent_name(i: int) -> str:
        return spans[spans[i][1]][0] if spans[i][1] >= 0 else ""

    def under(i: int, name: str) -> bool:
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][1]
        return False

    def durs(name: str, scale: float) -> list[float]:
        return [dur[i] * scale for i in by_name[name]]

    solves = by_name["solver.solve_schedule"]
    real = [i for i in solves if spans[i][5][0] > 0]
    iters = sum(spans[i][5][2] for i in real)
    ex_solves = [i for i in solves if parent_name(i) == "exhaustive.enumerate_optimal"]
    candidates = sum(spans[i][5][0] for i in by_name["exhaustive.enumerate_optimal"])
    steps = by_name["mdp.ScheduleEnv.step"]
    appends = sum(1 for i in steps if spans[i][5][0] != 0)
    misses = sum(1 for i in solves if parent_name(i) == "mdp.ScheduleEnv.step")
    epochs = sum(spans[i][5][0] for i in by_name["agents.autoencoder_train"])
    task_calls = by_name["agents.ScheduleTask.step"] + by_name["agents.ScheduleTask.reset"]
    dqn_env = sum(dur[i] for i in task_calls if under(i, "agents.dqn_train"))
    lstm_flop = sum(8 * t * k * (k + d) for t, k, d in (spans[i][5] for i in by_name["nnet.lstm_seq_forward"]))
    lstm_flop += sum(16 * t * k * (k + d) for t, k, d in (spans[i][5] for i in by_name["nnet.lstm_seq_backward"]))
    commands = by_name["cli.main"]

    return {
        "solver.solve_calls": len(solves),
        "solver.solve_ms_p50": _pct(durs("solver.solve_schedule", 1e3), 50),
        "solver.solve_ms_p99": _pct(durs("solver.solve_schedule", 1e3), 99),
        "solver.iters_mean": iters / len(real) if real else 0.0,
        "solver.ms_per_iter": sum(dur[i] for i in real) * 1e3 / iters if iters else 0.0,
        "solver.phase1_share": sum(spans[i][5][3] for i in real) / len(real) if real else 0.0,
        "solver.nonconverged": sum(1 for i in solves if spans[i][5][1] == solver.STATUS_MAX_ITERATIONS),
        "solver.check_ms_p50": _pct(durs("solver.check_solution", 1e3), 50),
        "solver.kkt_mflop_computed": sum(spans[i][5][2] * (3 * spans[i][5][0]) ** 3 / 3 for i in real) / 1e6,
        "exhaustive.candidates": candidates,
        "exhaustive.solves_per_candidate": len(ex_solves) / candidates if candidates else 0.0,
        "exhaustive.feasible_share": (
            sum(1 for i in ex_solves if spans[i][5][1] == solver.STATUS_OPTIMAL) / len(ex_solves)
            if ex_solves else 0.0
        ),
        "exhaustive.self_s": sum(dur[i] - child[i] for i in by_name["exhaustive.enumerate_optimal"]),
        "mdp.steps": len(steps),
        "mdp.cache_misses": misses,
        "mdp.cache_hit_ratio": 1.0 - misses / appends if appends else 0.0,
        "mdp.step_ms_p50": _pct(durs("mdp.ScheduleEnv.step", 1e3), 50),
        "mdp.rejections": sum(1 for i in steps if spans[i][5][1]),
        "agents.collect_s": sum(durs("agents.collect_states", 1.0)),
        "agents.ae_epoch_s": sum(durs("agents.autoencoder_train", 1.0)) / epochs if epochs else 0.0,
        "agents.dqn_env_s": dqn_env,
        "agents.dqn_learner_s": sum(durs("agents.dqn_train", 1.0)) - dqn_env,
        "agents.encode_calls": len(by_name["agents.StateRepr.encode"]),
        "agents.encode_us_p50": _pct(durs("agents.StateRepr.encode", 1e6), 50),
        "nnet.lstm_fwd_calls": len(by_name["nnet.lstm_seq_forward"]),
        "nnet.lstm_fwd_us_p50": _pct(durs("nnet.lstm_seq_forward", 1e6), 50),
        "nnet.lstm_bwd_us_p50": _pct(durs("nnet.lstm_seq_backward", 1e6), 50),
        "nnet.dense_fwd_us_p50": _pct(durs("nnet.dense_forward", 1e6), 50),
        "nnet.dense_bwd_us_p50": _pct(durs("nnet.dense_backward", 1e6), 50),
        "nnet.lstm_mflop_computed": lstm_flop / 1e6,
        "scenario.load_ms_p50": _pct(durs("scenario.load_scenario", 1e3), 50),
        "cli.self_s": sum(dur[i] - outside_cli[i] for i in commands),
        "trace.coverage_min": min((child[i] / dur[i] for i in commands), default=0.0),
        "trace.spans": len(spans),
    }


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100.0 >= 10:
            return f"p{q}", _pct(values, q)
    return None
