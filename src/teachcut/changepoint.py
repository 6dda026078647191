"""Single downward change-point selection via profiled RSS-BIC.

The no-change model fits one mean (k = 1); the one-drop model fits two means
and a change position (k = 3). A drop at tau (retaining the first tau segment
scores) is accepted when its BIC strictly beats the no-change BIC, subject to
a strict empirical decrease mean(right) < mean(left). Ascending iteration with
a strict running minimum makes ties resolve to the earliest tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

BIC_EPS = 1e-12


@dataclass(frozen=True)
class ChangeDecision:
    """Outcome of the one-drop test.

    ``release_segment`` is the number of leading segments retained: the chosen
    tau when accepted, the full count otherwise. ``mu_post`` is None when no
    drop was accepted.
    """

    release_segment: int
    accepted: bool
    bic_gain: float
    mu_pre: float | None
    mu_post: float | None


def _running_moments(values: list[float]) -> tuple[np.ndarray, np.ndarray]:
    # Welford recurrence. Unlike prefix sums of squares, M2 stays exactly 0.0
    # across constant runs, so zero-noise RSS values carry no cancellation dust.
    n = len(values)
    means = np.empty(n)
    m2s = np.empty(n)
    mean = 0.0
    m2 = 0.0
    for i, v in enumerate(values):
        delta = v - mean
        mean += delta / (i + 1)
        m2 += delta * (v - mean)
        means[i] = mean
        m2s[i] = m2
    return means, m2s


def detect_downward_change(scores: Any) -> ChangeDecision:
    """Select the best single downward drop in a segment-score sequence.

    ``scores`` may be a SegmentScores or any array-like. Degenerate inputs
    (fewer than 2 scores) are never accepted.
    """
    s = np.asarray(getattr(scores, "scores", scores), dtype=np.float64)
    if s.ndim != 1:
        raise ValueError(f"scores must be one-dimensional, got shape {s.shape}")
    n = s.size
    if n == 0:
        return ChangeDecision(0, False, 0.0, None, None)

    values = s.tolist()
    mean_left, m2_left = _running_moments(values)
    values.reverse()
    mean_rev, m2_rev = _running_moments(values)

    bic0 = n * math.log((m2_left[-1] + BIC_EPS) / n) + math.log(n)

    # entry i corresponds to tau = i + 1: prefix s[:tau], suffix s[tau:]
    ml = mean_left[: n - 1]
    mr = mean_rev[: n - 1][::-1]
    rss = m2_left[: n - 1] + m2_rev[: n - 1][::-1]

    downward = np.flatnonzero(mr < ml)
    if downward.size:
        bic1 = n * np.log((rss[downward] + BIC_EPS) / n) + 3.0 * math.log(n)
        best = int(np.argmin(bic1))
        best_bic = float(bic1[best])
        if best_bic < bic0:
            i = int(downward[best])
            return ChangeDecision(i + 1, True, max(0.0, bic0 - best_bic),
                                  float(ml[i]), float(mr[i]))
    return ChangeDecision(n, False, 0.0, float(mean_left[-1]), None)
