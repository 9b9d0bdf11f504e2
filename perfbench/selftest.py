"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with --tiny and checks
that each run reports exactly the metrics BENCHMARK.json names, with their
units; that no end-to-end metric is 0; that the top-level spans of every
traced command cover at least 95% of its wall time; that a wrong stored
reference objective fails the run; and that a directory holding only the
benchmark files makes it exit non-zero without a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print("FAIL", message, flush=True)


def run(workload: str, trace: int, *extra: str, root: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=root, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            rc, result = run(workload, trace)
            if result is None:
                expect(False, f"{label}: no result line (exit {rc})")
                continue
            expect(rc == 0 and result["correct"], f"{label}: exit {rc}, correct={result['correct']}")
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: {result['failed']} of {result['attempted']} commands failed")
            wanted = {m["name"]: m["unit"] for m in SPEC[kind]}
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == wanted, f"{label}: metrics or units differ from BENCHMARK.json")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()),
                   f"{label}: a metric is not a finite number")
            if trace:
                coverage = values.get("trace.coverage_min", 0.0)
                expect(coverage >= 0.95, f"{label}: top-level spans cover only {coverage:.3f}")
            else:
                zero = [name for name, v in values.items() if v == 0]
                expect(not zero, f"{label}: end-to-end metrics at 0: {zero}")
            print("ok", label, flush=True)

    reference = json.loads((HERE / "reference.json").read_text())
    reference["1-1-1"]["0"] += 0.01
    wrong = WORK / "wrong-reference.json"
    wrong.write_text(json.dumps(reference))
    rc, result = run("solve", 0, "--reference", str(wrong))
    expect(rc != 0 and result is not None and not result["correct"],
           f"a wrong reference objective did not fail the run (exit {rc})")
    print("ok wrong reference fails the run", flush=True)

    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, result = run("solve", 0, root=bare)
    expect(rc != 0 and result is None, f"without src/ the run gave exit {rc} and a result")
    print("ok without src/ the run exits non-zero", flush=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
