import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teachcut.changepoint import ChangeDecision
from teachcut.diagnostics import (BinAccumulator, binned_advantage_stats,
                                  binned_margin_curve, release_summary,
                                  snr_release_check, write_bins_csv,
                                  write_summary_csv)
from teachcut.segmentation import SegmentIndex, SegmentScores

from reference import release_improves_by_moments


def test_bins_split_by_normalized_position():
    stats = binned_advantage_stats([np.array([0.0, 2.0, 2.0, 4.0])], num_bins=2)
    np.testing.assert_array_equal(stats.bin_count, [2, 2])
    np.testing.assert_array_equal(stats.bin_mean, [1.0, 3.0])


def test_bins_pool_across_series():
    stats = binned_advantage_stats([np.array([1.0]), np.array([3.0])],
                                   num_bins=1)
    assert stats.bin_count[0] == 2
    assert stats.bin_mean[0] == 2.0
    assert stats.bin_std[0] == 1.0  # population std


@pytest.mark.parametrize("num_bins, counts", [
    (2, [2, 1]),
    # T = 1, B - 1, B, B + 1 and 3B - 1 tokens over B = 4 bins
    (4, [1, 0, 0, 0]), (4, [1, 1, 1, 0]), (4, [1, 1, 1, 1]), (4, [2, 1, 1, 1]),
    (4, [3, 3, 3, 2])])
def test_odd_lengths_partition_all_tokens(num_bins, counts):
    # token t of T lands in bin (B t) // T: in order, and never past B - 1
    acc = BinAccumulator(num_bins)
    acc.add_series(np.arange(float(sum(counts))))
    np.testing.assert_array_equal(acc.counts, counts)
    ends = np.cumsum(counts)
    np.testing.assert_array_equal(
        acc.sums, [sum(range(end - n, end)) for n, end in zip(counts, ends)])


def test_short_series_leave_trailing_bins_empty():
    stats = binned_advantage_stats([np.array([4.0]), np.array([6.0])],
                                   num_bins=2)
    np.testing.assert_array_equal(stats.bin_count, [2, 0])
    assert math.isnan(stats.bin_mean[1])
    assert math.isnan(stats.bin_std[1])


def test_normalized_std_uses_first_nonempty_bin():
    stats = binned_advantage_stats([np.array([1.0, 3.0, 1.0, 5.0])], num_bins=2)
    assert stats.bin_std[0] == 1.0
    np.testing.assert_allclose(stats.normalized_std, [1.0, 2.0])


@pytest.mark.parametrize("bin0, kind", [
    ([1.0, 1.0], "zero"),
    ([1e155, -1e155], "non-finite"),  # the sum of squares overflows: std inf
    ([math.inf, 1.0], "non-finite"),  # mean inf, std NaN
])
def test_zero_base_std_warns_and_leaves_nan(bin0, kind):
    with np.errstate(over="ignore"), pytest.warns(
            RuntimeWarning, match=f"first non-empty bin has {kind} std"):
        stats = binned_advantage_stats([np.array([*bin0, 1.0, 5.0])],
                                       num_bins=2)
    assert all(math.isnan(v) for v in stats.normalized_std)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError, match="empty batch"):
        binned_advantage_stats([], num_bins=2)
    with pytest.raises(ValueError, match="at least one value"):
        binned_advantage_stats([np.array([])], num_bins=2)
    with pytest.raises(ValueError, match="at least 1"):
        BinAccumulator(0)


def test_margin_curve_frozen_linspace_case():
    batch = [np.linspace(1.0, 0.0, 100)]
    raw = binned_margin_curve(batch, num_bins=2, normalize=False)
    assert raw.bin_mean[0] == pytest.approx(149.0 / 198.0, abs=1e-12)
    assert raw.bin_mean[1] == pytest.approx(49.0 / 198.0, abs=1e-12)
    curve = binned_margin_curve(batch, num_bins=2)
    assert curve.bin_mean[0] == pytest.approx(1.0, abs=1e-12)
    assert curve.bin_mean[1] == pytest.approx(49.0 / 149.0, abs=1e-12)


@pytest.mark.parametrize("series, problem", [
    ([-1.0, 1.0, 1.0, 1.0], "first non-empty bin has zero mean"),
    ([math.inf, 1.0, 1.0, 1.0], "first non-empty bin has non-finite mean"),
    ([math.nan, 1.0, 1.0, 1.0], "first non-empty bin has non-finite mean"),
    # a finite, non-zero base whose ratio 1e400 is past float range
    ([1e-300, 1e-300, 1e100, 1e100],
     "a ratio to the first non-empty bin's mean overflows"),
])
def test_margin_curve_zero_base_mean_warns(series, problem):
    # a non-finite mean makes the std non-finite too, which warns as well
    with pytest.warns(RuntimeWarning) as caught:
        curve = binned_margin_curve([np.array(series)], num_bins=2)
    messages = {str(w.message).split(";")[0] for w in caught}
    assert problem in messages
    assert all(math.isnan(v) for v in curve.bin_mean)


def _scores(counts):
    lists, start = [], 0
    for c in counts:
        lists.append(list(range(start, start + c)))
        start += c
    idx = SegmentIndex(lists, start)
    return SegmentScores(np.zeros(len(counts)), idx)


def test_release_summary_frozen_case():
    batch = [
        (ChangeDecision(1, True, 10.0, 1.0, 0.2), _scores([5, 5]), 10),
        (ChangeDecision(2, False, 0.0, 0.5, None), _scores([5, 5]), 10),
    ]
    summary = release_summary(batch)
    assert summary.num_rollouts == 2
    assert summary.acceptance_rate == 0.5
    assert summary.mean_bic_gain == 5.0
    assert summary.fraction_gain_above_threshold == 0.5
    assert summary.mean_relative_release_position == 0.5
    assert summary.median_relative_release_position == 0.5
    assert summary.mean_pre_margin == 1.0
    assert summary.mean_post_margin == pytest.approx(0.2)


def test_release_summary_threshold_is_strict():
    batch = [(ChangeDecision(1, True, 6.0, 1.0, 0.0), _scores([2, 2]), 4)]
    assert release_summary(batch, gain_threshold=6.0
                           ).fraction_gain_above_threshold == 0.0


def test_release_summary_median_uses_lower_midpoint():
    batch = [(ChangeDecision(k, True, 1.0, 1.0, 0.0), _scores([1, 1, 1, 1, 1]), 5)
             for k in (1, 2, 3, 4)]
    summary = release_summary(batch)
    assert summary.median_relative_release_position == pytest.approx(0.4)


def test_release_summary_without_accepted_rows():
    batch = [(ChangeDecision(2, False, 0.0, 0.5, None), _scores([2, 2]), 4)]
    summary = release_summary(batch)
    assert summary.acceptance_rate == 0.0
    assert math.isnan(summary.mean_relative_release_position)
    assert math.isnan(summary.mean_pre_margin)
    assert math.isnan(summary.mean_post_margin)


def test_release_summary_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        release_summary([])


def test_snr_frozen_cases():
    report = snr_release_check(1.0, 1.0, 0.0, 1.0)
    assert report.snr_release == 1.0
    assert report.snr_full == 0.5
    assert report.release_improves

    report = snr_release_check(1.0, 1.0, 1.0, 1.0)
    assert report.snr_full == 2.0
    assert not report.release_improves

    # zero-suffix boundary: equality counts as improvement
    assert snr_release_check(2.0, 3.0, 0.0, 0.0).release_improves

    # both SNRs overflow to inf; the exact comparison still decides:
    # 1e400 * 2 < 4e400 * 1
    report = snr_release_check(1e200, 1.0, 1e200, 1.0)
    assert report.snr_release == report.snr_full == math.inf
    assert not report.release_improves


def test_snr_input_checks():
    with pytest.raises(ValueError, match="v_prefix"):
        snr_release_check(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="v_suffix"):
        snr_release_check(1.0, 1.0, 0.0, -0.5)
    for position, name in enumerate(["m_prefix", "v_prefix", "m_suffix",
                                     "v_suffix"]):
        for bad in (math.nan, math.inf, -math.inf):
            moments = [1.0] * 4
            moments[position] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                snr_release_check(*moments)
    with pytest.raises(ValueError, match="m_prefix"):
        release_improves_by_moments(0.0, 1.0, 0.5, 1.0)


@settings(max_examples=200)
@given(m_p=st.floats(-50, 50, allow_nan=False),
       v_p=st.floats(1e-6, 50, allow_nan=False),
       m_r=st.floats(-50, 50, allow_nan=False),
       v_r=st.floats(0, 50, allow_nan=False))
def test_snr_direct_and_inequality_forms_agree(m_p, v_p, m_r, v_r):
    # keep squares and products out of the subnormal range
    assume(abs(m_p) >= 1e-6)
    assume(m_r == 0.0 or abs(m_r) >= 1e-6)
    assume(v_r == 0.0 or v_r >= 1e-9)
    # exact cross-multiplied comparison: improves iff lhs >= rhs
    lhs = Fraction(m_p) ** 2 * (Fraction(v_p) + Fraction(v_r))
    rhs = (Fraction(m_p) + Fraction(m_r)) ** 2 * Fraction(v_p)
    scale = max(abs(lhs), abs(rhs))
    if scale == 0 or abs(lhs - rhs) < scale * Fraction(1, 10 ** 9):
        return  # boundary case: float rounding may resolve either way
    report = snr_release_check(m_p, v_p, m_r, v_r)
    assert report.release_improves == (lhs >= rhs)
    assert release_improves_by_moments(m_p, v_p, m_r, v_r) == (lhs >= rhs)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_bins_csv_round_trip(tmp_path):
    stats = binned_advantage_stats([np.array([4.0]), np.array([6.0])],
                                   num_bins=2)
    path = tmp_path / "bins.csv"
    write_bins_csv(stats, str(path))
    rows = _read_csv(path)
    assert rows[0] == ["bin", "count", "mean", "std", "normalized_std"]
    assert rows[1] == ["0", "2", "5.0", "1.0", "1.0"]
    assert rows[2] == ["1", "0", "", "", ""]  # NaN renders as empty cells


def test_summary_csv_round_trip(tmp_path):
    batch = [(ChangeDecision(2, False, 0.0, 0.5, None), _scores([2, 2]), 4)]
    path = tmp_path / "summary.csv"
    write_summary_csv(release_summary(batch), str(path))
    rows = _read_csv(path)
    assert rows[0][0] == "num_rollouts"
    assert rows[1][0] == "1"
    by_name = dict(zip(rows[0], rows[1]))
    assert by_name["mean_relative_release_position"] == ""
    assert by_name["acceptance_rate"] == "0.0"
