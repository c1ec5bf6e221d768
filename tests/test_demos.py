"""Every demo script runs to completion against the library in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": pythonpath},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
