"""Smoke test: each demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcom

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("0[12]_*.py"))


def test_both_demos_found():
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(dcom.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]
