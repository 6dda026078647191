"""Each demo script runs to completion against the library API, and the
benchmark harness imports what it needs from it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(argv, tmp_path, *path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # the tour writes a batch
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*path, str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", ["single_rollout_walkthrough",
                                  "batch_diagnostics_tour"])
def test_demo_runs(name, tmp_path):
    done = _run([str(ROOT / "demos" / f"{name}.py")], tmp_path)
    assert done.returncode == 0, done.stderr


def test_benchmark_modules_import(tmp_path):
    # a name the harness imports from teachcut must stay exported
    done = _run(["-c", "import check, compare, inputs, measure, replay, run"],
                tmp_path, str(ROOT / "benchmarks"))
    assert done.returncode == 0, done.stderr
