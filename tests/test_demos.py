"""The examples stay runnable: every demo script and the README's
library quick tour run in a fresh interpreter and exit 0."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # a copy, since phase_portrait_svg.py writes next to itself
    shutil.copytree(ROOT / "demos", tmp_path / "demos")
    done = _run([str(tmp_path / "demos" / demo.name)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    done = _run(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
