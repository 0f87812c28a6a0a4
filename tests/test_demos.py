"""Each narrative demo and each README Python example runs to completion against the current API."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # Every ```python block of the README is a self-contained script.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        flags=re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), {"__name__": "__main__"})
