"""Integer, bool and real settings and batch inputs are checked before any
work is done or any output is opened."""

import math
import re

import pytest

from teachcut.changepoint import ChangeDecision
from teachcut.diagnostics import BinAccumulator, snr_release_check
from teachcut.margin import teacher_top2_margin
from teachcut.pipeline import (PipelineConfig, diagnose_batch, permute_batch,
                               process_batch)
from teachcut.records import SegmentIndex
from teachcut.reweight import fixed_prefix_mask, permute_release_points
from teachcut.synthetic import SyntheticConfig, generate_rollout, write_dataset

from helpers import candidates_from_rows

CANDIDATES = candidates_from_rows([[0, 1, 2]], [[-0.1, -0.5, -0.9]],
                                  [[-0.2, -0.4, -0.8]])
ITEMS = [(SegmentIndex([[0, 1]], 2),
          ChangeDecision(release_segment=1, accepted=False, bic_gain=0.0,
                         mu_pre=None, mu_post=None))]

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
    ("fixed_prefix_mask.prefix_tokens", "prefix_tokens", 1,
     lambda value, path: fixed_prefix_mask(10, value)),
    ("permute_release_points.seed", "seed", 0,
     lambda value, path: permute_release_points(ITEMS, value)),
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
    ("PipelineConfig.probs", "probs",
     lambda value: PipelineConfig(probs=value)),
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


def snapshot(root):
    """Every file under root and its bytes, and every directory."""
    return {str(p): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("bad", [True, 2.5, "below"])
@pytest.mark.parametrize("name, least, call", [entry[1:] for entry in SETTINGS],
                         ids=[entry[0] for entry in SETTINGS])
def test_every_integer_setting_refuses_a_bool_a_float_and_a_low_value(
        tmp_path, name, least, call, bad):
    # the dataset and its sidecar already exist and must survive the error
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"old data\n")
    (tmp_path / "ground_truth.jsonl").write_bytes(b"old truth\n")
    before = snapshot(tmp_path)
    if bad == "below":
        value = least - 1
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
    ("random", lambda src, out: process_batch(
        src, out, PipelineConfig(strategy="random"))),
    ("permute", lambda src, out: permute_batch(src, out)),
    ("diagnose", lambda src, out: diagnose_batch(src, out)),
]


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
