"""The benchmark's set-up step, timed in a fresh interpreter.

Imports the package the way a command does and writes every scenario file
the workloads read for one seed:

    python3 perfbench/setup_step.py SEED OUT_DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import aoiplan.cli  # noqa: E402,F401
from workloads import write_scenarios  # noqa: E402

write_scenarios(int(sys.argv[1]), Path(sys.argv[2]))
