"""Batch rollout diagnostics: temporally binned statistics, release summaries,
and the directional signal-to-noise release condition.

Binned reductions accumulate (count, sum, sum of squares) per bin; a
series' partials can be computed apart, by a worker, and added in order.
Absent values (empty bins, undefined normalizations) are NaN in memory and
empty cells in CSV.
"""

from __future__ import annotations

import csv
import math
import statistics
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from .changepoint import ChangeDecision
from .records import _check_int, _check_real
from .reweight import _retained_tokens
from .segmentation import SegmentIndex, SegmentScores


class BinAccumulator:
    """Per-bin moment partials over temporally normalized positions.

    Token t of a length-T series lands in bin (num_bins * t) // T.
    """

    def __init__(self, num_bins: int) -> None:
        _check_int("num_bins", num_bins, 1)
        self.num_bins = num_bins
        self.counts = np.zeros(num_bins, dtype=np.int64)
        self.sums = np.zeros(num_bins)
        self.sumsqs = np.zeros(num_bins)

    def add_series(self, values: Any) -> None:
        self.add_bins(_series_bins(values, self.num_bins))

    def add_bins(self, bins: tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        """Add one series' partials as _series_bins gives them; adding each
        series' partials in order sums exactly as add_series does."""
        counts, sums, sumsqs = bins
        self.counts += counts
        self.sums += sums
        self.sumsqs += sumsqs


def _series_bins(values: Any, num_bins: int,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One series' per-bin (count, sum, sum of squares)."""
    values = np.asarray(getattr(values, "values", values), dtype=np.float64)
    length = values.size
    if length == 0:
        raise ValueError("series must contain at least one value")
    idx = (np.arange(length, dtype=np.int64) * num_bins) // length
    return (np.bincount(idx, minlength=num_bins),
            np.bincount(idx, weights=values, minlength=num_bins),
            np.bincount(idx, weights=values * values, minlength=num_bins))


@dataclass(frozen=True)
class BinnedStats:
    """Pooled per-bin mean and population std over a batch of series."""

    num_bins: int
    bin_count: np.ndarray
    bin_mean: np.ndarray
    bin_std: np.ndarray
    normalized_std: np.ndarray


def _finalize(acc: BinAccumulator, *, normalize_means: bool) -> BinnedStats:
    counts = acc.counts
    with np.errstate(divide="ignore", invalid="ignore"):  # empty bins: NaN
        mean = acc.sums / counts
        var = acc.sumsqs / counts - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    normalized_std = _over_base(std, "std", "normalized_std")
    if normalize_means:
        mean = _over_base(mean, "mean", "normalized curve")
    return BinnedStats(acc.num_bins, counts.copy(), mean, std, normalized_std)


def _over_base(values: np.ndarray, stat: str, result: str) -> np.ndarray:
    """values over bin 0's, the first non-empty bin as token 0 of every series
    lands there; all NaN, with a warning that names the case, when bin 0's
    value is zero or not finite or a ratio overflows."""
    base = values[0]
    with np.errstate(all="ignore"):
        ratio = values / base
    if base == 0.0 or not math.isfinite(base):
        kind = "zero" if base == 0.0 else "non-finite"
        problem = f"first non-empty bin has {kind} {stat}"
    elif np.isinf(ratio).any():
        problem = f"a ratio to the first non-empty bin's {stat} overflows"
    else:
        return ratio
    warnings.warn(f"{problem}; {result} is undefined", RuntimeWarning,
                  stacklevel=4)
    return np.full(values.shape, np.nan)


def _accumulate_batch(batch: Iterable[Any], num_bins: int) -> BinAccumulator:
    acc = BinAccumulator(num_bins)
    for series in batch:
        acc.add_series(series)
    if not acc.counts[0]:
        raise ValueError("empty batch")
    return acc


def binned_advantage_stats(batch: Iterable[Any], num_bins: int = 20) -> BinnedStats:
    """Pool per-token advantages across a batch into temporal bins."""
    return _finalize(_accumulate_batch(batch, num_bins), normalize_means=False)


def binned_margin_curve(batch: Iterable[Any], num_bins: int = 20, *,
                        normalize: bool = True) -> BinnedStats:
    """Pool per-token margins into temporal bins.

    With ``normalize``, bin means are divided by the first non-empty bin's
    mean, giving the relative decay curve along the response.
    """
    return _finalize(_accumulate_batch(batch, num_bins),
                     normalize_means=normalize)


@dataclass(frozen=True)
class ReleaseSummary:
    """Batch-level release statistics.

    Gain statistics run over every rollout (rejected ones contribute zero
    gain); position and pre/post statistics cover accepted rollouts only and
    are NaN when nothing was accepted. Medians use the lower-midpoint rule.
    """

    num_rollouts: int
    acceptance_rate: float
    mean_bic_gain: float
    fraction_gain_above_threshold: float
    mean_relative_release_position: float
    median_relative_release_position: float
    mean_pre_margin: float
    mean_post_margin: float


# (accepted, bic_gain, relative position, mu_pre, mu_post): the position and
# the means are read on accepted rows only; a rejected row's means may be None
_SummaryRow = tuple[bool, float, float, float | None, float | None]


def _summary_from_rows(rows: Sequence[_SummaryRow],
                       gain_threshold: float) -> ReleaseSummary:
    if not rows:
        raise ValueError("empty batch")
    total = len(rows)
    gains = [row[1] for row in rows]
    accepted_rows = [row for row in rows if row[0]]
    positions = [row[2] for row in accepted_rows]
    if accepted_rows:
        mean_pos = sum(positions) / len(positions)
        median_pos = statistics.median_low(positions)
        mean_pre = sum(row[3] for row in accepted_rows) / len(accepted_rows)
        mean_post = sum(row[4] for row in accepted_rows) / len(accepted_rows)
    else:
        mean_pos = median_pos = mean_pre = mean_post = math.nan
    return ReleaseSummary(
        num_rollouts=total,
        acceptance_rate=len(accepted_rows) / total,
        mean_bic_gain=sum(gains) / total,
        fraction_gain_above_threshold=sum(g > gain_threshold for g in gains) / total,
        mean_relative_release_position=mean_pos,
        median_relative_release_position=median_pos,
        mean_pre_margin=mean_pre,
        mean_post_margin=mean_post,
    )


def release_summary(batch: Sequence[tuple[ChangeDecision, SegmentScores, int]],
                    gain_threshold: float = 6.0) -> ReleaseSummary:
    """Summarize decisions over a batch of (decision, scores, response_len).

    The relative release position of an accepted rollout is its retained token
    count divided by the response length, an integer of at least 1.
    """
    rows = [_summary_row(decision, scores.segment_index, response_len)
            for decision, scores, response_len in batch]
    return _summary_from_rows(rows, gain_threshold)


def _summary_row(decision: ChangeDecision, segments: SegmentIndex,
                 response_len: int) -> _SummaryRow:
    """One decision as _summary_from_rows reads it."""
    _check_int("response_len", response_len, 1)
    return (decision.accepted, decision.bic_gain,
            _retained_tokens(segments, decision) / response_len,
            decision.mu_pre, decision.mu_post)


@dataclass(frozen=True)
class SnrReport:
    """Directional SNR of the full update versus the released prefix."""

    m_prefix: float
    v_prefix: float
    m_suffix: float
    v_suffix: float
    snr_full: float
    snr_release: float
    release_improves: bool


def snr_release_check(m_prefix: float, v_prefix: float, m_suffix: float,
                      v_suffix: float) -> SnrReport:
    """Compare directional SNR with and without the released suffix.

    Release improves the SNR when m_P^2 / v_P >= (m_P + m_R)^2 / (v_P + v_R),
    decided exactly in the cross-multiplied form, so it holds even where the
    reported SNRs overflow or round. Every moment must be a finite int or
    float, not a bool; the report holds them as floats.
    """
    m_prefix, v_prefix, m_suffix, v_suffix = (
        _check_real(name, value) for name, value in
        (("m_prefix", m_prefix), ("v_prefix", v_prefix),
         ("m_suffix", m_suffix), ("v_suffix", v_suffix)))
    if v_prefix <= 0.0:
        raise ValueError(f"v_prefix must be positive, got {v_prefix}")
    if v_suffix < 0.0:
        raise ValueError(f"v_suffix must be non-negative, got {v_suffix}")
    snr_release = m_prefix * m_prefix / v_prefix
    total = m_prefix + m_suffix
    snr_full = total * total / (v_prefix + v_suffix)
    m_p, v_p, m_r, v_r = (Fraction(value) for value in
                          (m_prefix, v_prefix, m_suffix, v_suffix))
    improves = m_p * m_p * (v_p + v_r) >= (m_p + m_r) ** 2 * v_p
    return SnrReport(m_prefix=m_prefix, v_prefix=v_prefix, m_suffix=m_suffix,
                     v_suffix=v_suffix, snr_full=snr_full,
                     snr_release=snr_release, release_improves=improves)


# ----------------------------------------------------------------------------
# CSV output


def _cell(value: Any) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_bins_csv(stats: BinnedStats, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin", "count", "mean", "std", "normalized_std"])
        for b in range(stats.num_bins):
            writer.writerow([b, int(stats.bin_count[b]),
                             _cell(float(stats.bin_mean[b])),
                             _cell(float(stats.bin_std[b])),
                             _cell(float(stats.normalized_std[b]))])


def _write_row_csv(row: Any, path: str) -> None:
    # a header of the dataclass's field names, then its values
    names = [f.name for f in fields(row)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        writer.writerow([_cell(getattr(row, name)) for name in names])


def write_summary_csv(summary: ReleaseSummary, path: str) -> None:
    _write_row_csv(summary, path)


def write_snr_csv(report: SnrReport, path: str) -> None:
    _write_row_csv(report, path)
