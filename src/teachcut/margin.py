"""Nearest-competitor teacher margin over the student's top-K candidate set."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .records import TopKCandidates


@dataclass(frozen=True)
class MarginSeries:
    """Per-token teacher top-2 margins."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def teacher_top2_margin(candidates: TopKCandidates, *,
                        support_size: int = 4) -> MarginSeries:
    """M_t = teacher log-prob gap between its top two candidates in the support.

    The support at each position is its first ``support_size`` candidates
    (the student's most probable ones). A row shorter than ``support_size``
    uses all of its candidates, and a warning says when some row is.
    """
    if support_size < 2:
        raise ValueError(f"support_size must be at least 2, got {support_size}")
    if candidates.num_positions == 0:
        return MarginSeries(np.empty(0))

    lengths = candidates.row_lengths()
    min_len = int(lengths.min())
    if min_len < 2:
        pos = int(np.argmax(lengths < 2))
        raise ValueError(
            f"position {pos}: the support must expose at least two teacher "
            f"log-probabilities, got {int(lengths[pos])}")
    if min_len < support_size:
        warnings.warn(
            f"support_size {support_size} exceeds the {min_len} candidates "
            f"available at some positions; clamping", RuntimeWarning,
            stacklevel=2)

    # a short row's -inf padding sorts before all of its real candidates
    top = np.sort(candidates.teacher_logp[:, :support_size], axis=1)
    return MarginSeries(top[:, -1] - top[:, -2])
