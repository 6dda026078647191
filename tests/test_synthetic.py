import json
import math
from pathlib import Path

import numpy as np
import pytest

from teachcut.changepoint import detect_downward_change
from teachcut.margin import teacher_top2_margin
from teachcut.records import (dumps_obj, parse_rollout_line, rollout_to_obj,
                              sampled_advantage)
from teachcut.segmentation import segment_tokens
from teachcut.synthetic import (GroundTruth, SyntheticConfig,
                                generate_piecewise_rollout, generate_rollout,
                                write_dataset)

from reference import oracle_change_point, planted_scores


@pytest.mark.parametrize("kwargs, match", [
    (dict(num_segments=0), "num_segments"),
    (dict(tokens_per_segment=0), "tokens_per_segment"),
    (dict(support_size=1), "support_size"),
    (dict(noise_std=-0.1), "noise_std"),
    (dict(noise_std=math.nan), "noise_std"),
    (dict(pre_margin_mean=math.inf), "pre_margin_mean"),
    (dict(num_segments=4, true_tau=0), "true_tau"),
    (dict(num_segments=4, true_tau=4), "true_tau"),
    (dict(num_segments=4, true_tau=10**5000),
     "^true_tau must lie in \\[1, 3\\], got an integer of 16610 bits$"),
    (dict(seed=-1), "seed must be non-negative"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SyntheticConfig(**kwargs)


def segment_means(config):
    return generate_piecewise_rollout(config)[1].segment_means


def test_mean_profile_applies_step_at_tau():
    config = SyntheticConfig(num_segments=4, true_tau=2,
                             pre_margin_mean=1.0, post_margin_mean=0.25)
    np.testing.assert_array_equal(segment_means(config),
                                  [1.0, 1.0, 0.25, 0.25])
    flat = SyntheticConfig(num_segments=3, pre_margin_mean=0.7)
    np.testing.assert_array_equal(segment_means(flat), [0.7, 0.7, 0.7])
    # an int pre mean is a real number; the post mean is not truncated to it
    mixed = SyntheticConfig(num_segments=4, true_tau=2, pre_margin_mean=1,
                            post_margin_mean=0.25)
    np.testing.assert_array_equal(segment_means(mixed),
                                  [1.0, 1.0, 0.25, 0.25])


def test_zero_noise_margins_are_planted_exactly():
    record, truth = generate_rollout([1.0, 0.25], tokens_per_segment=3)
    np.testing.assert_array_equal(truth.margins,
                                  [1.0, 1.0, 1.0, 0.25, 0.25, 0.25])
    series = teacher_top2_margin(record.candidates)
    np.testing.assert_array_equal(series.values, truth.margins)


def test_generated_record_survives_schema_round_trip():
    record, _ = generate_rollout([1.0, 0.0], tokens_per_segment=4,
                                 noise_std=0.3, seed=7)
    line = dumps_obj(rollout_to_obj(record)) + b"\n"
    parsed = parse_rollout_line(line, line_number=1)
    assert parsed.rollout_id == record.rollout_id
    np.testing.assert_array_equal(parsed.sampled_teacher_logp,
                                  record.sampled_teacher_logp)
    np.testing.assert_array_equal(parsed.candidates.teacher_logp,
                                  record.candidates.teacher_logp)
    assert [list(s) for s in parsed.segments] == [list(s) for s in record.segments]


def test_builtin_segmenter_reproduces_emitted_layout():
    record, _ = generate_rollout([1.0, 0.5, 0.0], tokens_per_segment=5)
    rebuilt = segment_tokens(record.token_surfaces)
    np.testing.assert_array_equal(rebuilt.token_ids, record.segments.token_ids)
    np.testing.assert_array_equal(rebuilt.bounds, record.segments.bounds)


def test_sampled_advantage_encodes_half_margin():
    record, truth = generate_rollout([2.0, 0.5], tokens_per_segment=2)
    np.testing.assert_allclose(sampled_advantage(record), 0.5 * truth.margins,
                               atol=1e-12)


def test_noise_is_seeded_and_clamped():
    a1, t1 = generate_rollout([0.1], tokens_per_segment=50, noise_std=1.0,
                              seed=3, index=5)
    a2, t2 = generate_rollout([0.1], tokens_per_segment=50, noise_std=1.0,
                              seed=3, index=5)
    np.testing.assert_array_equal(t1.margins, t2.margins)
    _, t3 = generate_rollout([0.1], tokens_per_segment=50, noise_std=1.0,
                             seed=3, index=6)
    assert not np.array_equal(t1.margins, t3.margins)
    assert t1.margins.min() >= 0.0  # heavy noise on a low mean must clamp
    assert (t1.margins == 0.0).any()


def test_generate_input_checks():
    with pytest.raises(ValueError, match="non-empty"):
        generate_rollout([], tokens_per_segment=2)
    with pytest.raises(ValueError, match="finite"):
        generate_rollout([1.0, math.nan], tokens_per_segment=2)
    with pytest.raises(ValueError, match="tokens_per_segment"):
        generate_rollout([1.0], tokens_per_segment=0)
    with pytest.raises(ValueError, match="support_size"):
        generate_rollout([1.0], tokens_per_segment=2, support_size=1)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        generate_rollout([1.0], tokens_per_segment=2, seed=-1)
    with pytest.raises(ValueError, match="index must be non-negative"):
        generate_rollout([1.0], tokens_per_segment=2, index=-1)


def test_piecewise_uses_config_profile():
    config = SyntheticConfig(num_segments=4, tokens_per_segment=2, true_tau=1,
                             pre_margin_mean=0.8, post_margin_mean=0.1)
    record, truth = generate_piecewise_rollout(config, index=2)
    assert record.rollout_id == "sim-000002"
    assert truth.true_tau == 1
    np.testing.assert_array_equal(truth.segment_means, [0.8, 0.1, 0.1, 0.1])
    assert len(record.token_surfaces) == 8


def test_write_dataset_and_sidecar_align(tmp_path):
    config = SyntheticConfig(num_segments=3, tokens_per_segment=2, true_tau=2,
                             post_margin_mean=0.2)
    data_path, truth_path = write_dataset(str(tmp_path / "data.jsonl"),
                                          config, num_rollouts=4)
    assert truth_path == str(tmp_path / "ground_truth.jsonl")
    data_lines = Path(data_path).read_bytes().splitlines()
    truth_lines = Path(truth_path).read_bytes().splitlines()
    assert len(data_lines) == len(truth_lines) == 4
    for i, (data_line, truth_line) in enumerate(zip(data_lines, truth_lines)):
        record = parse_rollout_line(data_line, line_number=i + 1)
        truth = json.loads(truth_line)
        assert record.rollout_id == truth["rollout_id"] == f"sim-{i:06d}"
        assert truth["true_tau"] == 2
        measured = teacher_top2_margin(record.candidates).values
        np.testing.assert_array_equal(measured, truth["margins"])


def test_write_dataset_null_tau(tmp_path):
    config = SyntheticConfig(num_segments=2, tokens_per_segment=1)
    _, truth_path = write_dataset(str(tmp_path / "flat.jsonl"), config, 1)
    truth = json.loads(Path(truth_path).read_bytes())
    assert truth["true_tau"] is None
    with pytest.raises(ValueError, match="num_rollouts"):
        write_dataset(str(tmp_path / "x.jsonl"), config, 0)


def test_planted_scores_values_and_checks():
    np.testing.assert_array_equal(planted_scores(5, 2, 1.0, 0.2, 0.0),
                                  [1.0, 1.0, 0.2, 0.2, 0.2])
    np.testing.assert_array_equal(planted_scores(3, None, 0.5, 9.0, 0.0),
                                  [0.5, 0.5, 0.5])
    noisy = planted_scores(4, 1, 1.0, 0.0, 0.1, seed=11)
    np.testing.assert_array_equal(noisy, planted_scores(4, 1, 1.0, 0.0, 0.1,
                                                        seed=11))
    with pytest.raises(ValueError, match="num_scores"):
        planted_scores(0, None, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="true_tau"):
        planted_scores(4, 4, 1.0, 0.0, 0.0)


def test_oracle_degenerate_and_frozen_cases():
    assert oracle_change_point([]) == (0, False, 0.0)
    assert oracle_change_point([3.0]) == (1, False, 0.0)
    assert oracle_change_point([1.0, 1.0, 1.0]) == (3, False, 0.0)
    assert oracle_change_point([0.0, 0.0, 2.0, 2.0]) == (4, False, 0.0)

    tau, accepted, gain = oracle_change_point([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    assert (tau, accepted) == (3, True)
    assert gain == pytest.approx(172.9531645724835, abs=1e-8)


def test_oracle_matches_production_on_planted_data():
    scores = planted_scores(20, 10, 1.0, 0.2, 0.1, seed=42)
    decision = detect_downward_change(scores)
    tau, accepted, gain = oracle_change_point(scores)
    assert decision.release_segment == tau
    assert decision.accepted == accepted
    assert decision.bic_gain == pytest.approx(gain, abs=1e-9)


def test_ground_truth_fields():
    _, truth = generate_rollout([1.0, 0.0], tokens_per_segment=1,
                                rollout_id="custom", true_tau=1)
    assert isinstance(truth, GroundTruth)
    assert truth.rollout_id == "custom"
    assert truth.true_tau == 1
