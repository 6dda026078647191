"""Integer, bool and real settings, batch inputs and every output path are
checked before any work is done or any output is opened."""

import math
import os
import re

import numpy as np
import pytest

from teachcut import pipeline
from teachcut.changepoint import ChangeDecision
from teachcut.diagnostics import (BinAccumulator, release_summary,
                                  snr_release_check)
from teachcut.margin import teacher_top2_margin
from teachcut.pipeline import (PipelineConfig, diagnose_batch, permute_batch,
                               process_batch)
from teachcut.records import SegmentIndex
from teachcut.reweight import permute_release_points
from teachcut.segmentation import SegmentScores
from teachcut.synthetic import SyntheticConfig, generate_rollout, write_dataset

from helpers import (candidates_from_rows, no_reading, snapshot, valid_obj,
                     write_jsonl)

CANDIDATES = candidates_from_rows([[0, 1, 2]], [[-0.1, -0.5, -0.9]],
                                  [[-0.2, -0.4, -0.8]])
ITEMS = [(SegmentIndex([[0, 1]], 2),
          ChangeDecision(release_segment=1, accepted=False, bic_gain=0.0,
                         mu_pre=None, mu_post=None))]
SCORES = SegmentScores(np.zeros(1), ITEMS[0][0])

# (id, the setting's name, its least value, a call with the setting set to
# value that writes, if anything, the dataset at path)
SETTINGS = [
    ("PipelineConfig.support_size", "support_size", 2,
     lambda value, path: PipelineConfig(support_size=value)),
    ("PipelineConfig.num_bins", "num_bins", 1,
     lambda value, path: PipelineConfig(num_bins=value)),
    ("PipelineConfig.random_seed", "random_seed", 0,
     lambda value, path: PipelineConfig(random_seed=value)),
    ("PipelineConfig.jobs", "jobs", 1,
     lambda value, path: PipelineConfig(jobs=value)),
    ("teacher_top2_margin.support_size", "support_size", 2,
     lambda value, path: teacher_top2_margin(CANDIDATES, support_size=value)),
    ("BinAccumulator.num_bins", "num_bins", 1,
     lambda value, path: BinAccumulator(value)),
    ("permute_release_points.seed", "seed", 0,
     lambda value, path: permute_release_points(ITEMS, value)),
    ("release_summary.response_len", "response_len", 1,
     lambda value, path: release_summary([(ITEMS[0][1], SCORES, value)])),
    ("generate_rollout.tokens_per_segment", "tokens_per_segment", 1,
     lambda value, path: generate_rollout([1.0], tokens_per_segment=value)),
    ("generate_rollout.support_size", "support_size", 2,
     lambda value, path: generate_rollout([1.0], tokens_per_segment=2,
                                          support_size=value)),
    ("generate_rollout.seed", "seed", 0,
     lambda value, path: generate_rollout([1.0], tokens_per_segment=2,
                                          seed=value)),
    ("generate_rollout.index", "index", 0,
     lambda value, path: generate_rollout([1.0], tokens_per_segment=2,
                                          index=value)),
    ("SyntheticConfig.num_segments", "num_segments", 1,
     lambda value, path: SyntheticConfig(num_segments=value)),
    ("SyntheticConfig.true_tau", "true_tau", 1,
     lambda value, path: SyntheticConfig(num_segments=4, true_tau=value)),
    ("write_dataset.num_rollouts", "num_rollouts", 1,
     lambda value, path: write_dataset(path, SyntheticConfig(), value)),
    # the config reaches generate_rollout's checks through _check_generation
    ("SyntheticConfig.tokens_per_segment", "tokens_per_segment", 1,
     lambda value, path: SyntheticConfig(tokens_per_segment=value)),
    ("SyntheticConfig.support_size", "support_size", 2,
     lambda value, path: SyntheticConfig(support_size=value)),
    ("SyntheticConfig.seed", "seed", 0,
     lambda value, path: SyntheticConfig(seed=value)),
]


# (id, the setting's name, a call with the setting set to value) for the
# settings that take only a bool
BOOL_SETTINGS = [
    ("PipelineConfig.strict", "strict",
     lambda value: PipelineConfig(strict=value)),
]

# (id, the setting's name, whether an infinite value is legal, a call with
# the setting set to value) for the settings that take a real number
REAL_SETTINGS = [
    ("PipelineConfig.gain_threshold", "gain_threshold", True,
     lambda value: PipelineConfig(gain_threshold=value)),
    ("SyntheticConfig.noise_std", "noise_std", False,
     lambda value: SyntheticConfig(noise_std=value)),
    ("SyntheticConfig.pre_margin_mean", "pre_margin_mean", False,
     lambda value: SyntheticConfig(pre_margin_mean=value)),
    ("SyntheticConfig.post_margin_mean", "post_margin_mean", False,
     lambda value: SyntheticConfig(post_margin_mean=value)),
    ("generate_rollout.noise_std", "noise_std", False,
     lambda value: generate_rollout([1.0], tokens_per_segment=2,
                                    noise_std=value)),
    ("snr_release_check.m_prefix", "m_prefix", False,
     lambda value: snr_release_check(value, 1.0, 0.0, 1.0)),
    ("snr_release_check.v_prefix", "v_prefix", False,
     lambda value: snr_release_check(1.0, value, 0.0, 1.0)),
    ("snr_release_check.m_suffix", "m_suffix", False,
     lambda value: snr_release_check(1.0, 1.0, value, 1.0)),
    ("snr_release_check.v_suffix", "v_suffix", False,
     lambda value: snr_release_check(1.0, 1.0, 0.0, value)),
]


@pytest.mark.parametrize("bad", [True, 2.5, "below", "far below"])
@pytest.mark.parametrize("name, least, call", [entry[1:] for entry in SETTINGS],
                         ids=[entry[0] for entry in SETTINGS])
def test_every_integer_setting_refuses_a_bool_a_float_and_a_low_value(
        tmp_path, name, least, call, bad):
    # the dataset and its sidecar already exist and must survive the error
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"old data\n")
    (tmp_path / "ground_truth.jsonl").write_bytes(b"old truth\n")
    before = snapshot(tmp_path)
    if bad in ("below", "far below"):
        # past the digits str() prints, the value is given by its size
        value = least - (1 if bad == "below" else 10**5000)
        rule = "non-negative" if least == 0 else f"at least {least}"
    else:
        value, rule = bad, "an integer"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got "):
        call(value, str(path))
    assert snapshot(tmp_path) == before
    if bad == "below":
        call(least, str(path))  # the bound itself is taken


@pytest.mark.parametrize("bad", ["no", 0, 1, None])
@pytest.mark.parametrize("name, call", [entry[1:] for entry in BOOL_SETTINGS],
                         ids=[entry[0] for entry in BOOL_SETTINGS])
def test_every_bool_setting_takes_only_a_bool(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be a bool, got "):
        call(bad)
    call(True)


@pytest.mark.parametrize("bad, rule", [
    (True, "be a real number, got True"),
    ("6", "be a real number, got '6'"),
    (None, "be a real number, got None"),
    (10**400, "lie in float range"),
    (-10**400, "lie in float range"),
    (math.nan, "be finite, got nan"),
    (math.inf, "be finite, got inf"),
    (-math.inf, "be finite, got -inf"),
])
@pytest.mark.parametrize("name, infinite_ok, call",
                         [entry[1:] for entry in REAL_SETTINGS],
                         ids=[entry[0] for entry in REAL_SETTINGS])
def test_every_real_setting_refuses_a_bool_a_string_and_a_non_number(
        name, infinite_ok, call, bad, rule):
    if infinite_ok and isinstance(bad, float) and math.isinf(bad):
        call(bad)  # no gain lies strictly above an infinite threshold
        return
    if infinite_ok and rule.startswith("be finite"):
        rule = "not be NaN"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must {rule}"):
        call(bad)
    call(1)  # an int is a real number


BATCHES = [
    ("bic", lambda src, out: process_batch(src, out)),
    ("full", lambda src, out: process_batch(src, out,
                                            PipelineConfig(strategy="full"))),
    ("fixed:7", lambda src, out: process_batch(
        src, out, PipelineConfig(strategy="fixed:7"))),
    ("permute", lambda src, out: permute_batch(src, out)),
    ("diagnose", lambda src, out: diagnose_batch(src, out)),
]
WRITERS = dict(BATCHES, simulate=lambda src, out: write_dataset(
    out, SyntheticConfig(), 1))

JSONL = ("bic", "full", "fixed:7", "permute")
CSVS = ("bins.csv", "margin_bins.csv", "summary.csv")

# (id, the writers it applies to, the paths it makes under tmp_path after
# the input and diag/, each ("dir", name), ("link", name, target) or
# ("hardlink", name, target), then the input and output arguments and the
# refusal's message). simulate ignores the input; its sidecar is
# ground_truth.jsonl beside the dataset.
BAD_OUTPUTS = [
    ("missing directory", JSONL + ("simulate",), [],
     "in.jsonl", "missing/out.jsonl", "output directory not found"),
    ("directory", JSONL + ("simulate",), [("dir", "taken")],
     "in.jsonl", "taken", "output path names a directory"),
    ("trailing slash", JSONL + ("simulate",), [],
     "in.jsonl", "new/", "output path names a directory"),
    ("dangling link", JSONL + ("simulate",),
     [("link", "out.jsonl", "missing/out.jsonl")],
     "in.jsonl", "out.jsonl", "output directory not found"),
    ("symlink loop", JSONL + ("simulate",),
     [("link", "out.jsonl", "out.jsonl")],
     "in.jsonl", "out.jsonl", "output path is a symlink loop"),
    ("two-link symlink loop", JSONL + ("simulate",),
     [("link", "out.jsonl", "cycle.jsonl"),
      ("link", "cycle.jsonl", "out.jsonl")],
     "in.jsonl", "out.jsonl", "output path is a symlink loop"),
    ("the input", JSONL, [],
     "in.jsonl", "in.jsonl", "output path must differ from input path"),
    ("symlink to the input", JSONL, [("link", "out.jsonl", "in.jsonl")],
     "in.jsonl", "out.jsonl", "output path must differ from input path"),
    ("hard link to the input", JSONL, [("hardlink", "out.jsonl", "in.jsonl")],
     "in.jsonl", "out.jsonl", "output path must differ from input path"),
    ("dangling sidecar", ("simulate",),
     [("link", "ground_truth.jsonl", "missing/truth.jsonl")],
     "in.jsonl", "data.jsonl", "output directory not found"),
    ("looped sidecar", ("simulate",),
     [("link", "ground_truth.jsonl", "ground_truth.jsonl")],
     "in.jsonl", "data.jsonl", "output path is a symlink loop"),
    ("the sidecar", ("simulate",), [],
     "in.jsonl", "ground_truth.jsonl", "two outputs name one file"),
    ("symlink to the sidecar", ("simulate",),
     [("link", "data.jsonl", "ground_truth.jsonl")],
     "in.jsonl", "data.jsonl", "two outputs name one file"),
    ("hard link to the sidecar", ("simulate",),
     [("hardlink", "ground_truth.jsonl", "in.jsonl"),
      ("hardlink", "data.jsonl", "in.jsonl")],
     "in.jsonl", "data.jsonl", "two outputs name one file"),
] + [case for name, other in zip(CSVS, CSVS[1:] + CSVS[:1]) for case in [
    (f"{name} a directory", ("diagnose",), [("dir", f"diag/{name}")],
     "in.jsonl", "diag", "output path names a directory"),
    (f"{name} a dangling link", ("diagnose",),
     [("link", f"diag/{name}", "missing/x.csv")],
     "in.jsonl", "diag", "output directory not found"),
    (f"{name} a symlink loop", ("diagnose",),
     [("link", f"diag/{name}", f"diag/{name}")],
     "in.jsonl", "diag", "output path is a symlink loop"),
    (f"{name} a two-link symlink loop", ("diagnose",),
     [("link", f"diag/{name}", "diag/cycle.csv"),
      ("link", "diag/cycle.csv", f"diag/{name}")],
     "in.jsonl", "diag", "output path is a symlink loop"),
    (f"{name} the input", ("diagnose",), [],
     f"diag/{name}", "diag", "output path must differ from input path"),
    (f"{name} a symlink to the input", ("diagnose",),
     [("link", f"diag/{name}", "in.jsonl")],
     "in.jsonl", "diag", "output path must differ from input path"),
    (f"{name} a hard link to the input", ("diagnose",),
     [("hardlink", f"diag/{name}", "in.jsonl")],
     "in.jsonl", "diag", "output path must differ from input path"),
    (f"{name} a symlink to {other}", ("diagnose",),
     [("link", f"diag/{name}", f"diag/{other}")],
     "in.jsonl", "diag", "two outputs name one file"),
]]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command, batch", BATCHES,
                         ids=[entry[0] for entry in BATCHES])
def test_a_missing_or_directory_input_leaves_the_output_as_it_was(
        tmp_path, command, batch, kind):
    src = tmp_path / "in.jsonl"
    if kind == "directory":
        src.mkdir()
    if command == "diagnose":
        out = tmp_path / "diag"
        out.mkdir()
        (out / "bins.csv").write_bytes(b"old bins\n")
    else:
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"old release\n")
    before = snapshot(tmp_path)
    with pytest.raises(ValueError,
                       match=f"^input file not found: {re.escape(str(src))}$"):
        batch(str(src), str(out))
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "writer, entries, src, out, message",
    [(writer, *case[2:]) for case in BAD_OUTPUTS for writer in case[1]],
    ids=[f"{case[0]}-{writer}" for case in BAD_OUTPUTS for writer in case[1]])
def test_every_writer_refuses_a_bad_output_before_reading(
        tmp_path, monkeypatch, writer, entries, src, out, message):
    (tmp_path / "diag").mkdir()
    write_jsonl(tmp_path / src, [valid_obj()])
    for kind, name, *target in entries:
        if kind == "dir":
            (tmp_path / name).mkdir()
        else:
            (os.symlink if kind == "link" else os.link)(tmp_path / target[0],
                                                        tmp_path / name)
    before = snapshot(tmp_path)
    monkeypatch.setattr(pipeline, "iter_jsonl_lines", no_reading)
    with pytest.raises(ValueError, match=re.escape(message)):
        # os.path.join keeps a trailing "/"
        WRITERS[writer](str(tmp_path / src), os.path.join(tmp_path, out))
    assert snapshot(tmp_path) == before


@pytest.mark.parametrize("present", [CSVS[1:2], CSVS[:2], CSVS[::2]])
def test_diagnose_writes_over_the_csvs_it_finds(tmp_path, present):
    # only some outputs exist, so only some pairs can be compared as files
    diag = tmp_path / "diag"
    diag.mkdir()
    for name in present:
        (diag / name).write_bytes(b"old\n")
    src, _ = write_dataset(str(tmp_path / "data.jsonl"),
                           SyntheticConfig(noise_std=0.3), 2)
    result = diagnose_batch(src, str(diag))
    assert result.paths == tuple(str(diag / name) for name in CSVS)
    assert all((diag / name).read_bytes() != b"old\n" for name in CSVS)
