"""Every demo script runs to completion against the package sources, under
the suite's warning policy: a RuntimeWarning or DeprecationWarning fails it,
in the demo's process and in every ``python -m hardycert`` child it starts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning",
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
