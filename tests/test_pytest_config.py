"""The repo's pytest configuration, run on probe files in a fresh pytest: a
failing test is reported and the run goes on, and a deprecation is an
error."""

import os
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_pytest(tmp_path, source):
    probe = tmp_path / "test_probe.py"
    probe.write_text(source)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    return done.stdout + done.stderr


def test_a_failing_hypothesis_example_lets_the_run_go_on(tmp_path):
    # reporting a failing example imports libcst, which warns a
    # DeprecationWarning that the config must not turn into an INTERNALERROR
    out = run_pytest(tmp_path, """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
""")
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_a_deprecation_in_a_test_fails_it(tmp_path):
    out = run_pytest(tmp_path, """
import warnings


def test_warns():
    warnings.warn("probe", DeprecationWarning)


def test_passes():
    pass
""")
    assert "1 failed, 1 passed" in out
