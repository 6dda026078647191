"""Each demo script runs to completion against the library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["single_rollout_walkthrough",
                                  "batch_diagnostics_tour"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # the tour writes a batch
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
