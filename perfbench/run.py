"""End-to-end benchmark of the aoiplan command line.

    python3 perfbench/run.py --workload {solve,learn} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
src/ and exits non-zero, printing no result, when that is missing. One
process drives the user-facing commands through aoiplan.cli.main as a
closed loop with one client: each command starts when the previous one has
returned. The set-up step runs in fresh interpreters (perfbench/setup_step.py).

Each run repeats the workload's own round for about S seconds. Every repeat
does the same work on the same inputs, and each timing is the median over
the repeats (see perfbench/NOTES.md, Noise). With --trace 1 it reports the
per-layer metrics instead: one round with only the solve-status counters
installed, the same round again with spans on, then traced rounds until S
seconds. The last stdout line is the result JSON; the line before it is
the environment record.
"""

import os

# One BLAS thread (nproc is 2 on the reference machine), fixed before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WORKLOADS = ("solve", "learn")
# Objectives agree with the stored reference within this absolute tolerance.
REFERENCE_TOL = 1e-6

perf = time.perf_counter


def _import_package():
    sys.path.insert(0, str(SRC))
    try:
        import aoiplan.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import aoiplan from {SRC}: {exc}")
    if not Path(aoiplan.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: aoiplan was imported from {aoiplan.cli.__file__}, not {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "aoiplan").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Bench:
    """One run: the commands it made, what they returned, and what failed."""

    def __init__(self, seed: int, files: Path, runs: Path, references: dict):
        import aoiplan.cli
        from spans import Tracer

        self.cli = aoiplan.cli
        self.seed = seed
        self.files = files
        self.runs = runs
        self.references = references
        self.tracer = Tracer()
        self.commands: list[dict] = []
        self.wrong: list[str] = []
        self.notes: list[str] = []

    # -- one command -------------------------------------------------------

    def command(self, argv: list[str]) -> dict:
        out = Path(argv[argv.index("--out") + 1])
        shutil.rmtree(out, ignore_errors=True)
        self.tracer.command = len(self.commands)
        mark = len(self.tracer.statuses)
        buf = io.StringIO()
        t0 = perf()
        try:
            with redirect_stdout(buf), redirect_stderr(buf):
                rc = self.cli.main(argv)
        except Exception:  # an escaped exception is a failed command, not a dead run
            rc = None
            buf.write(traceback.format_exc())
        wall = perf() - t0
        statuses = self.tracer.statuses[mark:]
        rec = {
            "command": argv[0], "rc": rc, "wall": wall, "out": out,
            "bytes": _dir_bytes(out), "failed": [], "work": 0,
            "nonconverged": sum(1 for s in statuses if s not in ("optimal", "infeasible")),
        }
        if rc != 0:
            rec["failed"].append(f"exit code {rc}: {buf.getvalue().strip()[-300:]}")
        if rec["nonconverged"]:
            rec["failed"].append(f"{rec['nonconverged']} solves neither optimal nor infeasible")
        self.commands.append(rec)
        return rec

    def _check(self, rec: dict, ok: bool, message: str) -> None:
        if not ok:
            text = f"{rec['command']} {rec['out'].name}: {message}"
            self.wrong.append(text)
            rec["failed"].append(text)

    # -- rounds --------------------------------------------------------------

    def enumerate_round(self, size: str) -> None:
        from workloads import ENUM_COUNTS, enum_key, enumerate_commands

        (argv,) = enumerate_commands(self.files, self.runs / "enumerate", size)
        rec = self.command(argv)
        if rec["rc"] != 0:
            return
        doc = _read_json(rec["out"] / "result.json")
        rec["work"] = doc["num_candidates"]
        self._check(rec, doc["objective"] >= doc["lower_bound"] - 1e-12,
                    f"best objective {doc['objective']!r} below the lower bound {doc['lower_bound']!r}")
        key = enum_key(ENUM_COUNTS[size])
        ref = self.references.get(key, {}).get(str(self.seed))
        if ref is None:
            note = f"no stored reference objective for {key} seed {self.seed}; comparison skipped"
            if note not in self.notes:
                self.notes.append(note)
        else:
            self._check(rec, abs(doc["objective"] - ref) <= REFERENCE_TOL,
                        f"best objective {doc['objective']!r} differs from reference {ref!r}")

    def solve_round(self) -> None:
        from workloads import SOLVE_SIZES, solve_commands

        for n, argv in zip(SOLVE_SIZES, solve_commands(self.files, self.runs / "solve")):
            rec = self.command(argv)
            rec["n"] = n
            result = rec["out"] / "result.json"
            if not result.is_file():
                self._check(rec, rec["rc"] not in (0, 2), "result.json missing")
                continue
            doc = _read_json(result)
            if doc["status"] == "optimal":
                self._check(rec, bool(doc.get("check", {}).get("ok")),
                            "optimal solve failed the independent check")

    def learn_round(self, size: str) -> None:
        from workloads import LEARN_SIZES, learn_commands

        knobs = LEARN_SIZES[size]
        ae_argv, dqn_argv, eval_argv = learn_commands(self.files, self.runs / "learn", size)
        rec = self.command(ae_argv)
        if rec["rc"] == 0:
            doc = _read_json(rec["out"] / "train.json")
            rec["work"] = knobs["epochs"] * doc["num_train"]
            mses = list(doc["results"].values())
            self._check(rec, all(math.isfinite(v) for v in mses), f"test MSE not finite: {mses}")
        rec = self.command(dqn_argv)
        if rec["rc"] == 0:
            rec["work"] = knobs["episodes"]
        rec = self.command(eval_argv)
        if rec["rc"] == 0:
            doc = _read_json(rec["out"] / "eval.json")
            self._check(rec, doc["lower_bound"] - 1e-9 <= doc["nwaoi"] <= 1.0,
                        f"greedy nwaoi {doc['nwaoi']!r} outside [{doc['lower_bound']!r}, 1]")

    def run_round(self, workload: str, size: str) -> float:
        """One round of the workload; returns its wall time."""
        start = len(self.commands)
        if workload == "solve":
            self.enumerate_round(size)
            self.solve_round()
        else:
            self.learn_round(size)
        for rec in self.commands[start:]:
            shutil.rmtree(rec["out"], ignore_errors=True)
        return sum(rec["wall"] for rec in self.commands[start:])


def _setup(seed: int, files: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(files, ignore_errors=True)
        t0 = perf()
        subprocess.run([sys.executable, str(HERE / "setup_step.py"), str(seed), str(files)],
                       check=True, cwd=ROOT, env=os.environ.copy())
        times.append(perf() - t0)
    return times


def _timing(values: list[float]) -> str:
    from spans import tail_percentile

    text = f"median over {len(values)} samples"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", {tail[0]} {tail[1]:.6g}"
    return text


def end_to_end(bench: Bench, workload: str, round_walls: list[float], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and, beside them, how each timing was taken."""
    cmds = bench.commands
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(round_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": sum(1 for r in cmds if not r["failed"]) / len(cmds),
    }
    how = {"setup_s": f"median of {len(setup)} fresh interpreters",
           "wall_s": f"{workload} rounds, " + _timing(round_walls)}
    return metrics, how


def command_figures(bench: Bench) -> dict[str, tuple[float, str, str]]:
    """The round's command figures: each command's median time, or its work over that time."""
    figures = {}
    rates = (("orders_per_s", "enumerate"), ("ae_seqs_per_s", "train-autoencoder"),
             ("dqn_episodes_per_s", "train-dqn"))
    for name, command in rates:
        done = [r for r in bench.commands if r["command"] == command and r["rc"] == 0]
        if done:
            walls = [r["wall"] for r in done]
            # Every repeat does the same work.
            figures[name] = (done[0]["work"] / statistics.median(walls), "1/s",
                             f"{command} commands, " + _timing(walls))
    for n in sorted({r["n"] for r in bench.commands if "n" in r}):
        walls = [r["wall"] for r in bench.commands if r.get("n") == n and r["rc"] == 0]
        if walls:
            figures[f"solve_cmd_s.n{n}"] = (statistics.median(walls), "s", _timing(walls))
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, one round")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="per-seed best objectives of the enumeration instances")
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(HERE))
    import aoiplan.nnet
    import numpy as np
    from spans import layer_metrics

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    files = work / "scenarios"
    setup = _setup(args.seed, files)

    references = _read_json(args.reference)
    size = "tiny" if args.tiny else "full"
    bench = Bench(args.seed, files, work / "runs", references)
    bench.tracer.install(full=False)

    # Warm-up: lazy imports, LAPACK and the YAML loader, outside all timing.
    with redirect_stdout(io.StringIO()):
        bench.cli.main(["bounds", "--scenario", str(files / "enum_1-1-1.yaml")])

    start = perf()
    overhead = 0.0
    round_walls = [bench.run_round(args.workload, size)]
    if args.trace:
        bench.tracer.install(full=True)
        traced = len(bench.commands)
        overhead = bench.run_round(args.workload, size) - round_walls[0]
    while not args.tiny and perf() - start + statistics.median(round_walls) <= args.seconds:
        round_walls.append(bench.run_round(args.workload, size))
    bench.tracer.uninstall()

    if args.trace:
        bench.tracer.write_jsonl(work / "trace.jsonl")
        values = layer_metrics(bench.tracer.spans)
        values["cli.bytes_written"] = sum(r["bytes"] for r in bench.commands[traced:])
        values["trace.overhead_s"] = overhead
        how = {"trace.overhead_s": "traced minus untraced wall of round 0",
               "trace.jsonl": str(work / "trace.jsonl")}
        figures = {}
    else:
        values, how = end_to_end(bench, args.workload, round_walls, setup)
        figures = command_figures(bench)
    spec = _read_json(ROOT / "BENCHMARK.json")
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    attempted = len(bench.commands)
    failed = sum(1 for r in bench.commands if r["failed"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "rounds": len(round_walls),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "backend": aoiplan.nnet.BACKEND, "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "timings": how, "failures": [f for r in bench.commands for f in r["failed"]],
        "notes": bench.notes,
    }
    record["figures"] = {name: {"value": value, "unit": unit} for name, (value, unit, _) in figures.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {how.get(name, '')}")
    for name, (value, unit, text) in figures.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {text} (not gated)")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not bench.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not bench.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
