"""The README's documented Python API runs as written."""

import re
from pathlib import Path

from aoiplan import save_scenario
from conftest import build_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    # On this scenario the order [1, 2, 1] the block solves is feasible.
    save_scenario(build_scenario([2, 1]), tmp_path / "scenario.yaml")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
