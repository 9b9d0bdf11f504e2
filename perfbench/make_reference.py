"""Regenerate perfbench/reference.json: the best enumeration objective per seed.

    python3 perfbench/make_reference.py [FIRST_SEED LAST_SEED]

Run it only on a commit whose enumeration is trusted; the benchmark fails a
run whose best objective moves by more than 1e-6 from these values. Each
instance goes through the same YAML files the benchmark writes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from aoiplan import enumerate_optimal, load_scenario  # noqa: E402
from workloads import ENUM_COUNTS, enum_key, write_scenarios  # noqa: E402

first, last = (int(v) for v in sys.argv[1:3]) if len(sys.argv) > 2 else (0, 63)
path = HERE / "reference.json"
table = json.loads(path.read_text()) if path.exists() else {}
files = HERE.parent / ".perfbench_work" / "reference"
for seed in range(first, last + 1):
    write_scenarios(seed, files)
    for counts in ENUM_COUNTS.values():
        key = enum_key(counts)
        result = enumerate_optimal(load_scenario(files / f"enum_{key}.yaml"), keep_rows=False)
        table.setdefault(key, {})[str(seed)] = float(result.objective)
    print(seed, {k: table[k][str(seed)] for k in table}, flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
