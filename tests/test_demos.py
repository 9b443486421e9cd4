"""Smoke test: every script in demos/ runs to exit 0.

Each demo runs from a copy in tmp_path, beside a copy of tests/data, so
the files a demo writes next to itself (train_iris.py's output/) stay
out of the source tree.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    (tmp_path / "demos").mkdir()
    copy = tmp_path / "demos" / demo.name
    shutil.copy(demo, copy)
    shutil.copytree(ROOT / "tests" / "data", tmp_path / "tests" / "data")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
