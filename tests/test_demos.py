"""Each demo script runs to completion against the library API, the
benchmark harness imports what it needs from it and passes its own output
checks on small inputs, README's Library section lists every export, and
the tier-1 workflow runs README's dev-mode command with the numpy and
orjson that the golden manifest was written with."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import golden

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


_HARNESS_SMOKE = """
import os, sys
import check, inputs, measure
work = sys.argv[1]
dense = inputs.write_dense(os.path.join(work, "dense.jsonl"), 7, 8)
released = os.path.join(work, "released.jsonl")
measure.run_batch("release_dense", dense.path, released, 2, 7)
permuted = os.path.join(work, "permuted.jsonl")
measure.run_batch("permute_dense", released, permuted, 2, 7)
ragged = inputs.write_ragged(os.path.join(work, "ragged.jsonl"), 7)
diag = os.path.join(work, "diag")
report = measure.run_batch("diagnose_ragged", ragged.path, diag, 2, 7)
print(check.check_release(dense.path, released),
      check.check_permute(released, permuted, 7),
      check.check_diagnose(check.diagnose_reference(ragged.path),
                           ragged.planted, ragged.num_lines, diag,
                           report.errors))
"""


def test_benchmark_harness_smoke(tmp_path):
    # each workload's batch call and output check, as the harness makes
    # them: a library change that breaks the benchmark fails here
    done = _run(["-c", _HARNESS_SMOKE, str(tmp_path)], tmp_path,
                str(ROOT / "benchmarks"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0"]  # wrong records per check


_TRACE_SMOKE = """
import os, sys
import check, inputs, measure, replay
work = sys.argv[1]
dense = inputs.write_dense(os.path.join(work, "dense.jsonl"), 7, 8)
released = os.path.join(work, "released.jsonl")
measure.run_batch("release_dense", dense.path, released, 2, 7)
ragged = inputs.write_ragged(os.path.join(work, "ragged.jsonl"), 7)
for workload, path, kwargs in (
        ("release_dense", dense.path, {}),
        ("permute_dense", released, {"seed": 7}),
        ("diagnose_ragged", ragged.path,
         {"out_dir": os.path.join(work, "replay"),
          "reference": check.diagnose_reference(ragged.path)})):
    counts, _ = replay.replay(workload, path, replay.Tracer(True), **kwargs)
    print(counts.lines, counts.valid)
"""


def test_traced_replay_smoke(tmp_path):
    # run.py --trace 1 replays each workload through the public per-record
    # functions; a library change that breaks one of them fails here
    done = _run(["-c", _TRACE_SMOKE, str(tmp_path)], tmp_path,
                str(ROOT / "benchmarks"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["8", "8", "8", "8", "268", "264"]


def test_readme_library_section_lists_every_export():
    # the count in the export list's heading, and the list itself, the
    # paragraph after it; a name quoted elsewhere in the section is not listed
    import teachcut
    readme = (ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    exports = re.search(r"\(`teachcut\.__all__`, (\d+) names\):\n\n(.*?)\n\n",
                        library, re.DOTALL)
    assert exports is not None
    assert int(exports[1]) == len(teachcut.__all__)
    assert [name for name in teachcut.__all__
            if f"`{name}`" not in exports[2]] == []


def test_the_workflow_runs_readme_dev_mode_command():
    # both read as text, so no YAML parser is needed; README's command, its
    # backslash continuations joined, is one run: line of the workflow
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```sh\n([^`]*-X dev[^`]*?)\n```", readme)
    assert block is not None
    command = re.sub(r"[ \t]*\\\n[ \t]*", " ", block[1])
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = re.findall(r"^[ \t]*(?:- )?run:[ \t]*(.*?)[ \t]*$", workflow,
                      re.MULTILINE)
    assert command in runs, (command, runs)


def test_the_workflow_installs_the_golden_manifests_versions():
    # the manifest's hashes rest on numpy's random stream and orjson's float
    # text, so a runner with other versions would fail test_golden
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    install = re.findall(r"^[ \t]*run:[ \t]*(.*pip install.*)$", workflow,
                         re.MULTILINE)
    assert len(install) == 1, install
    pins = dict(re.findall(r"\b(numpy|orjson)==(\S+)", install[0]))
    manifest = golden.load()
    assert pins == {name: manifest[name] for name in ("numpy", "orjson")}
