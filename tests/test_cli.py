import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from teachcut import generate_rollout, pipeline, rollout_to_obj
from teachcut.cli import main

from helpers import no_reading, reshaped_topk, snapshot, to_line


def run(argv):
    return main(argv)


def first_release(path):
    with open(path, "rb") as handle:
        return json.loads(handle.readline())["release"]


def expect_usage_exit(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


@pytest.fixture()
def dataset(tmp_path):
    path = str(tmp_path / "data.jsonl")
    assert run(["simulate", "--out", path, "--rollouts", "4", "--tau", "3",
                "--noise", "0.1", "--seed", "1"]) == 0
    return path


def test_end_to_end_chain(tmp_path, dataset, capsys):
    assert os.path.isfile(str(tmp_path / "ground_truth.jsonl"))
    released = str(tmp_path / "released.jsonl")
    assert run(["release", "--in", dataset, "--out", released]) == 0
    first = first_release(released)
    assert first["accepted"] is True
    assert first["release_segment"] == 3

    permuted = str(tmp_path / "permuted.jsonl")
    assert run(["permute", "--in", released, "--out", permuted,
                "--seed", "2"]) == 0

    diag = str(tmp_path / "diag")
    assert run(["diagnose", "--in", dataset, "--out", diag]) == 0
    for name in ("bins.csv", "margin_bins.csv", "summary.csv"):
        assert os.path.isfile(os.path.join(diag, name))

    err = capsys.readouterr().err
    assert "release: 4 records, 4 accepted, 0 errors" in err
    assert "permute: 4 records" in err
    assert "diagnose: wrote" in err


def test_snr_stdout_format(capsys):
    assert run(["snr", "--m-prefix", "1", "--v-prefix", "1",
                "--m-suffix", "0", "--v-suffix", "1"]) == 0
    assert capsys.readouterr().out == ("improves=True snr_release=1.0 "
                                       "snr_full=0.5\n")
    assert run(["snr", "--m-prefix", "1", "--v-prefix", "1",
                "--m-suffix", "1", "--v-suffix", "1"]) == 0
    assert capsys.readouterr().out == ("improves=False snr_release=1.0 "
                                       "snr_full=2.0\n")


def test_snr_rejects_bad_moments(capsys):
    expect_usage_exit(["snr", "--m-prefix", "1", "--v-prefix", "0",
                       "--m-suffix", "0", "--v-suffix", "1"])
    # a NaN or infinite moment gives no verdict; the error names it
    moments = ["--m-prefix", "--v-prefix", "--m-suffix", "--v-suffix"]
    for flag in moments:
        for bad in ("nan", "inf", "-inf"):
            # the = form, since argparse reads a bare -inf as an option
            expect_usage_exit(["snr", *(f"{other}={bad if other == flag else 1}"
                                        for other in moments)])
            err = capsys.readouterr().err
            assert flag[2:].replace("-", "_") + " must be finite" in err
    expect_usage_exit(["snr", "--m-prefix", "1", "--v-prefix", "inf",
                       "--m-suffix", "0", "--v-suffix", "inf"])


def test_fixed_strategy_forms(tmp_path, dataset, monkeypatch, capsys):
    out = str(tmp_path / "out.jsonl")
    assert run(["release", "--in", dataset, "--out", out,
                "--strategy", "fixed:5"]) == 0
    assert sum(first_release(out)["prefix_mask"]) == 5.0

    # fixed:K is the one form; --prefix-tokens is no longer a flag
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "fixed"])
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "fixed", "--prefix-tokens", "7"])
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "fixed:abc"])
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "fixed:0"])
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "fixed:5", "--prefix-tokens", "5"])
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "fixed:5", "--prefix-tokens", "4"])
    expect_usage_exit(["release", "--in", dataset, "--out", out,
                       "--strategy", "bic", "--prefix-tokens", "4"])
    # K is ASCII digits, refused before any record is read or written
    bad = tmp_path / "bad.jsonl"
    monkeypatch.setattr(pipeline, "iter_jsonl_lines", no_reading)
    for strategy in ("fixed: 7", "fixed:+7", "fixed:1_000", "fixed:\u0663"):
        expect_usage_exit(["release", "--in", dataset, "--out", str(bad),
                           "--strategy", strategy])
        assert "K must be an integer in ASCII digits" in capsys.readouterr().err
    expect_usage_exit(["release", "--in", dataset, "--out", str(bad),
                       "--strategy", "fixed:" + "9" * 5000])
    assert ("invalid strategy: K must have at most 4300 digits"
            in capsys.readouterr().err)
    assert not bad.exists()


def test_unknown_strategy_exits_one(tmp_path, dataset, capsys):
    expect_usage_exit(["release", "--in", dataset,
                       "--out", str(tmp_path / "o.jsonl"),
                       "--strategy", "banana"])
    assert "unknown strategy" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--strategy", "random"], "unknown strategy 'random'"),
    (["--seed", "3"], "unrecognized arguments: --seed 3"),
    (["--strategy", "random", "--seed", "3"], "unrecognized arguments")])
def test_release_has_no_random_control(tmp_path, dataset, capsys, flags,
                                       message):
    # the random-release control is permute on a release output
    out = tmp_path / "o.jsonl"
    expect_usage_exit(["release", "--in", dataset, "--out", str(out), *flags])
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file(tmp_path, capsys):
    expect_usage_exit(["release", "--in", str(tmp_path / "absent.jsonl"),
                       "--out", str(tmp_path / "o.jsonl")])
    assert "input file not found" in capsys.readouterr().err


def test_missing_required_flag(dataset):
    expect_usage_exit(["release", "--in", dataset])
    expect_usage_exit(["diagnose", "--in", dataset])
    expect_usage_exit([])


def test_bad_jobs_value_exits_one(tmp_path, dataset):
    expect_usage_exit(["release", "--in", dataset,
                       "--out", str(tmp_path / "o.jsonl"), "--jobs", "0"])


def test_strict_bad_data_exits_two(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_bytes(b"junk\n")
    code = run(["release", "--in", str(src),
                "--out", str(tmp_path / "o.jsonl"), "--strict"])
    assert code == 2
    assert "teachcut: error:" in capsys.readouterr().err


def test_failsoft_bad_data_exits_zero(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_bytes(b"junk\n")
    assert run(["release", "--in", str(src),
                "--out", str(tmp_path / "o.jsonl")]) == 0
    assert "0 records, 0 accepted, 1 errors" in capsys.readouterr().err


def test_simulate_validation(tmp_path):
    out = str(tmp_path / "d.jsonl")
    expect_usage_exit(["simulate", "--out", out, "--n", "6", "--tau", "6"])
    expect_usage_exit(["simulate", "--out", out, "--rollouts", "0"])
    expect_usage_exit(["simulate", "--out", out, "--noise", "-1"])


def test_simulate_negative_seed_creates_nothing(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    expect_usage_exit(["simulate", "--out", str(out), "--seed", "-1"])
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "ground_truth.jsonl").exists()


def test_diagnose_nan_gain_threshold_is_a_usage_error(tmp_path, dataset,
                                                     capsys):
    out = tmp_path / "diag"
    expect_usage_exit(["diagnose", "--in", dataset, "--out", str(out),
                       "--gain-threshold", "nan"])
    assert "gain_threshold" in capsys.readouterr().err
    assert not out.exists()
    # an infinite threshold is legal: no gain lies strictly above it
    assert run(["diagnose", "--in", dataset, "--out", str(out),
                "--gain-threshold", "inf"]) == 0
    with open(out / "summary.csv", newline="") as handle:
        summary = next(csv.DictReader(handle))
    assert float(summary["fraction_gain_above_threshold"]) == 0.0


def test_simulate_refuses_its_sidecar_path(tmp_path, capsys):
    # the dataset and its ground_truth.jsonl sidecar would share one file
    out = tmp_path / "ground_truth.jsonl"
    expect_usage_exit(["simulate", "--out", str(out), "--rollouts", "3"])
    assert "two outputs name one file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sidecar, message", [
    ("data.jsonl", "two outputs name one file"),
    ("missing/truth.jsonl", "output directory not found"),
])
def test_simulate_refuses_a_linked_sidecar(tmp_path, dataset, capsys,
                                          sidecar, message):
    # the dataset already exists, and neither it nor the links may change
    truth = tmp_path / "ground_truth.jsonl"
    truth.unlink()
    os.symlink(tmp_path / sidecar, truth)
    before = snapshot(tmp_path)
    capsys.readouterr()
    expect_usage_exit(["simulate", "--out", dataset, "--rollouts", "3"])
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("link", ["same", "symlink", "hardlink"])
@pytest.mark.parametrize("command", ["release", "permute"])
def test_output_resolving_to_input_is_refused(tmp_path, dataset, capsys,
                                              command, link):
    src = dataset
    if command == "permute":
        src = str(tmp_path / "released.jsonl")
        assert run(["release", "--in", dataset, "--out", src]) == 0
    before = Path(src).read_bytes()
    out = str(tmp_path / "out.jsonl")
    if link == "same":
        out = src
    elif link == "symlink":
        os.symlink(src, out)
    else:
        os.link(src, out)
    capsys.readouterr()
    expect_usage_exit([command, "--in", src, "--out", out])
    err = capsys.readouterr().err
    assert "error: output path must differ from input path" in err
    assert "Traceback" not in err
    assert Path(src).read_bytes() == before


@pytest.mark.parametrize("command, out, message", [
    ("release", "missing/x.jsonl", "output directory not found"),
    ("release", "taken", "output path names a directory"),
    ("release", "new/", "output path names a directory"),
    ("permute", "missing/x.jsonl", "output directory not found"),
    ("permute", "taken", "output path names a directory"),
    ("simulate", "missing/x.jsonl", "output directory not found"),
    ("simulate", "taken", "output path names a directory"),
    ("simulate", "x.jsonl", "output path names a directory"),  # the sidecar
    ("release", "dangling.jsonl", "output directory not found"),
    ("permute", "dangling.jsonl", "output directory not found"),
    ("simulate", "dangling.jsonl", "output directory not found"),
    ("release", "loop.jsonl", "output path is a symlink loop"),
    ("diagnose", "data.jsonl", "not a directory"),  # the input
    ("diagnose", "data.jsonl/diag/sub", "not a directory"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, dataset, capsys,
                                            command, out, message):
    src = dataset
    if command == "permute":
        src = str(tmp_path / "released.jsonl")
        assert run(["release", "--in", dataset, "--out", src]) == 0
    (tmp_path / "taken").mkdir()
    (tmp_path / "ground_truth.jsonl").unlink()
    (tmp_path / "ground_truth.jsonl").mkdir()
    os.symlink(tmp_path / "missing" / "x.jsonl", tmp_path / "dangling.jsonl")
    os.symlink("loop.jsonl", tmp_path / "loop.jsonl")  # open() raises ELOOP
    before = snapshot(tmp_path)
    argv = [command, "--out", os.path.join(tmp_path, out)]  # keeps a "/"
    if command != "simulate":
        argv += ["--in", src]
    capsys.readouterr()
    expect_usage_exit(argv)
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert snapshot(tmp_path) == before
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["release", "permute", "diagnose"])
def test_a_bad_setting_is_reported_before_a_missing_input(tmp_path, capsys,
                                                          command):
    # the config is built first; the batch checks its paths after that
    expect_usage_exit([command, "--in", str(tmp_path / "absent.jsonl"),
                       "--out", str(tmp_path / "out"), "--jobs", "0"])
    err = capsys.readouterr().err
    assert "jobs must be at least 1, got 0" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["bins.csv", "margin_bins.csv",
                                  "summary.csv"])
@pytest.mark.parametrize("kind, message", [
    ("directory", "output path names a directory"),
    ("input", "output path must differ from input path"),
    ("symlink", "output path must differ from input path"),
    ("hardlink", "output path must differ from input path"),
    ("dangling", "output directory not found"),
    ("loop", "output path is a symlink loop"),
    ("other csv", "two outputs name one file"),
])
def test_diagnose_refuses_a_csv_path_before_reading(
        tmp_path, dataset, monkeypatch, capsys, name, kind, message):
    diag = tmp_path / "diag"
    diag.mkdir()
    src = dataset
    if kind == "directory":
        (diag / name).mkdir()
    elif kind == "input":  # --in diag/summary.csv --out diag
        src = str(diag / name)
        os.rename(dataset, src)
    elif kind == "symlink":
        os.symlink(dataset, diag / name)
    elif kind == "hardlink":
        os.link(dataset, diag / name)
    elif kind == "dangling":
        os.symlink(tmp_path / "missing" / name, diag / name)
    elif kind == "loop":
        os.symlink(name, diag / name)
    else:  # a link to another of the CSVs
        os.symlink(diag / ("bins.csv" if name == "summary.csv"
                           else "summary.csv"), diag / name)
    before = snapshot(tmp_path)
    monkeypatch.setattr(pipeline, "iter_jsonl_lines", no_reading)
    capsys.readouterr()
    expect_usage_exit(["diagnose", "--in", src, "--out", str(diag)])
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert snapshot(tmp_path) == before


def test_diagnose_refuses_an_empty_out_dir(tmp_path, dataset, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    before = snapshot(tmp_path)
    monkeypatch.setattr(pipeline, "iter_jsonl_lines", no_reading)
    capsys.readouterr()
    expect_usage_exit(["diagnose", "--in", dataset, "--out", ""])
    err = capsys.readouterr().err
    assert "output directory must be a non-empty path" in err
    assert "Traceback" not in err
    assert snapshot(tmp_path) == before


def test_diagnose_empty_input_reports(tmp_path, capsys):
    src = tmp_path / "empty.jsonl"
    src.write_bytes(b"")
    assert run(["diagnose", "--in", str(src),
                "--out", str(tmp_path / "d")]) == 0
    assert "nothing written" in capsys.readouterr().err


def _package_env(**overrides):
    # the environment of a child Python that imports this package
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(pipeline.__file__)),
        env.get("PYTHONPATH")]))
    env.pop("TEACHCUT_LOG", None)
    env.update(overrides)
    return env


_MAIN = "import sys, teachcut.cli; sys.exit(teachcut.cli.main(sys.argv[1:]))"


def test_log_env_levels(tmp_path, dataset):
    # the only log record is each rejected line's warning: ERROR hides it
    # and leaves the summary line, DEBUG prints what the default prints,
    # and an unknown level is the default
    src = tmp_path / "bad.jsonl"
    src.write_bytes(Path(dataset).read_bytes() + b"{not json\n")

    def stderr(**level):
        done = subprocess.run(
            [sys.executable, "-c", _MAIN, "release", "--in", str(src),
             "--out", str(tmp_path / "out.jsonl")],
            env=_package_env(**level), capture_output=True, text=True,
            timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stderr

    summary = "release: 4 records, 4 accepted, 1 errors\n"
    default = stderr()
    assert default.startswith("WARNING teachcut: line 5:")
    assert default.endswith(summary) and default.count("\n") == 2
    assert stderr(TEACHCUT_LOG="DEBUG") == default
    assert stderr(TEACHCUT_LOG="not-a-level") == default
    assert stderr(TEACHCUT_LOG="ERROR") == summary


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ("release", "diagnose", "permute", "simulate", "snr"):
        assert name in out


_POOL_MODULES = """
import sys
import teachcut.cli
def pool_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in ("concurrent", "multiprocessing"))
print(pool_modules())
teachcut.cli.main(["release", "--in", sys.argv[1], "--out", sys.argv[2],
                   "--jobs", "2"])
print(pool_modules())
"""


def test_a_run_without_a_pool_loads_no_pool_modules(tmp_path, dataset):
    # four records are one chunk, which runs in-process even at --jobs 2
    done = subprocess.run(
        [sys.executable, "-c", _POOL_MODULES, dataset,
         str(tmp_path / "out.jsonl")],
        env=_package_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n"


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def _hostile_input(path):
    # rows of 2 and 3 candidates under --top-k 4, advantages whose squares
    # overflow, which release and diagnose reject on their lines, and a line
    # that is not JSON
    lines = []
    for i in range(24):
        record, _ = generate_rollout(np.linspace(1, 0, 10), noise_std=0.3,
                                     tokens_per_segment=10, seed=1, index=i)
        obj = rollout_to_obj(record)
        if i % 3 == 1:
            obj = reshaped_topk(obj, {2: 2 + i % 2, 7: 2})
        if i % 7 == 3:
            obj["student_logp"][2] = -1.7e308  # in bin 0
        lines.append(to_line(obj))
        if i == 12:
            lines.append(b"not json")
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


def test_stderr_does_not_depend_on_jobs(tmp_path, monkeypatch, capfd):
    # several chunks, so that --jobs 2 runs them on two pool workers; warnings
    # print to stderr once per location and process, as in a plain run
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1 << 16)
    source = _hostile_input(tmp_path / "in.jsonl")
    assert os.path.getsize(source) > 4 << 16
    runs = {"bic": ["release", "--top-k", "4"],
            "permute": ["permute", "--seed", "5"],
            "diagnose": ["diagnose", "--top-k", "4"]}
    seen = {}
    for jobs in ("1", "2"):
        for name, argv in runs.items():
            out = tmp_path / f"{name}.{jobs}"
            src = str(tmp_path / f"bic.{jobs}") if name == "permute" else source
            with warnings.catch_warnings():
                warnings.simplefilter("default")
                warnings.showwarning = _print_warning
                assert main([*argv, "--in", src, "--out", str(out),
                             "--jobs", jobs]) == 0
            err = capfd.readouterr().err.replace(str(out), "OUT")
            outputs = ([(out / csv_name).read_bytes() for csv_name in
                        ("bins.csv", "margin_bins.csv", "summary.csv")]
                       if name == "diagnose" else out.read_bytes())
            seen.setdefault(name, []).append((err, outputs))
    for name, (one, two) in seen.items():
        assert one[0] == two[0], name
        assert one[1] == two[1], name
    err = seen["diagnose"][0][0]
    # the three overflowing records are errors, so the bins keep their std
    # and no base-bin warning is printed
    assert "Warning" not in err
    assert "diagnose: 21 records, 21 accepted, 4 errors" in err
