"""Test-only references, kept out of the package: the profiled BIC formula,
planted segment-score sequences and the naive change-point oracle that the
production detector is cross-validated against, and the moment-inequality
form of the SNR condition that snr_release_check is checked against, and a
row-at-a-time top-K order check for the parser's flat one."""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from teachcut.changepoint import BIC_EPS


def profiled_bic(values: Sequence[float], rss: float, num_params: int, *,
                 eps: float = BIC_EPS) -> float:
    """n * ln((rss + eps) / n) + num_params * ln(n) for n = len(values)."""
    n = len(values)
    if n == 0:
        raise ValueError("BIC requires at least one value")
    if rss < 0.0:
        raise ValueError(f"rss must be non-negative, got {rss}")
    if num_params < 1:
        raise ValueError(f"num_params must be positive, got {num_params}")
    return n * math.log((rss + eps) / n) + num_params * math.log(n)


def planted_scores(num_scores: int, true_tau: int | None, pre_mean: float,
                   post_mean: float, noise_std: float, *,
                   seed: int = 0) -> np.ndarray:
    """Segment-score sequence with an optional planted downward step."""
    if num_scores < 1:
        raise ValueError(f"num_scores must be at least 1, got {num_scores}")
    if true_tau is not None and not 1 <= true_tau <= num_scores - 1:
        raise ValueError(
            f"true_tau must lie in [1, {num_scores - 1}], got {true_tau}")
    means = np.full(num_scores, pre_mean)
    if true_tau is not None:
        means[true_tau:] = post_mean
    rng = np.random.default_rng(seed)
    return means + noise_std * rng.standard_normal(num_scores)


def oracle_change_point(scores: Any, *, eps: float = 1e-12) -> tuple[int, bool, float]:
    """Naive reference for the downward change-point selection.

    Recomputes both side means and residual sums from scratch at every
    candidate split instead of sharing running moments with the production
    path. Returns (release_segment, accepted, bic_gain) under the same
    conventions: release_segment is the retained-segment count, equal to the
    full count when no drop is accepted.
    """
    s = np.asarray(getattr(scores, "scores", scores), dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be one-dimensional, got shape {s.shape}")
    n = s.size
    if n == 0:
        return 0, False, 0.0
    if n == 1:
        return 1, False, 0.0

    mu = s.mean()
    rss0 = float(((s - mu) ** 2).sum())
    bic0 = n * math.log((rss0 + eps) / n) + math.log(n)

    taus = np.arange(1, n)
    in_left = np.arange(n)[None, :] < taus[:, None]
    count_left = taus.astype(np.float64)
    count_right = (n - taus).astype(np.float64)
    mean_left = np.where(in_left, s, 0.0).sum(axis=1) / count_left
    mean_right = np.where(in_left, 0.0, s).sum(axis=1) / count_right
    dev_left = np.where(in_left, s - mean_left[:, None], 0.0)
    dev_right = np.where(in_left, 0.0, s - mean_right[:, None])
    rss = (dev_left * dev_left).sum(axis=1) + (dev_right * dev_right).sum(axis=1)
    bic1 = n * np.log((rss + eps) / n) + 3.0 * math.log(n)

    candidates = np.flatnonzero(mean_right < mean_left)
    if candidates.size == 0:
        return n, False, 0.0
    j = int(np.argmin(bic1[candidates]))
    best = float(bic1[candidates][j])
    if best >= bic0:
        return n, False, 0.0
    return int(candidates[j]) + 1, True, max(0.0, bic0 - best)


def release_improves_by_moments(m_prefix: float, v_prefix: float,
                                m_suffix: float, v_suffix: float) -> bool:
    """Equivalent inequality form: v_R/v_P >= 2(m_R/m_P) + (m_R/m_P)^2."""
    if m_prefix == 0.0:
        raise ValueError("the inequality form requires m_prefix != 0")
    if v_prefix <= 0.0:
        raise ValueError(f"v_prefix must be positive, got {v_prefix}")
    ratio = m_suffix / m_prefix
    return v_suffix / v_prefix >= 2.0 * ratio + ratio * ratio


def student_order_error(ids_rows: Sequence[Sequence[int]],
                        student_rows: Sequence[Sequence[float]],
                        ) -> tuple[str, int] | None:
    """(field, position) of the first top-K order violation, one row at a
    time, or None: first any row whose student log-probs rise, then any row
    with an exact tie whose ids do not ascend. Pairs never cross rows."""
    for t, row in enumerate(student_rows):
        if any(b > a for a, b in zip(row, row[1:])):
            return "topk.student_logp", t
    for t, (ids, row) in enumerate(zip(ids_rows, student_rows)):
        pairs = zip(zip(ids, row), zip(ids[1:], row[1:]))
        if any(b == a and j <= i for (i, a), (j, b) in pairs):
            return "topk.ids", t
    return None
