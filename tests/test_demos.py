"""Each demo, and the README's Python code, runs end to end in its own
interpreter and exits 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from breakline.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = _run([str(demo)], ROOT)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run(tmp_path):
    """The README's ```python blocks, in order, in one interpreter, from a
    directory holding the ``demo/dataset.csv`` its command-line section makes."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    argv = ["synth", "--n", "100", "--truth-beta", "10,0,-5,5", "--truth-alpha", "0.3,0.6",
            "--noise", "wedge:0.5,1.5", "--seed", "1", "--out", str(tmp_path / "demo")]
    assert main(argv) == 0
    done = _run(["-c", "\n".join(blocks)], tmp_path)
    assert done.returncode == 0, done.stderr
