"""Nearest-competitor teacher margin over the student's top-K candidate set."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .records import TopKCandidates


@dataclass(frozen=True)
class MarginSeries:
    """Per-token teacher top-2 margins and the winning candidate positions.

    ``top1_index``/``top2_index`` are positions within each token's candidate
    list (student-probability order), not vocabulary ids.
    """

    values: np.ndarray
    top1_index: np.ndarray
    top2_index: np.ndarray
    support_size_used: int

    def __len__(self) -> int:
        return len(self.values)


def teacher_top2_margin(candidates: TopKCandidates, *,
                        support_size: int = 4) -> MarginSeries:
    """M_t = teacher log-prob gap between its top two candidates in the support.

    At each position the first ``support_size`` candidates (the student's most
    probable ones) are ranked by teacher log-prob, ties broken by ascending
    candidate id. A row shorter than ``support_size`` uses all of its
    candidates; ``support_size_used`` is the support of the shortest row, and
    a warning says when that is below ``support_size``.
    """
    if support_size < 2:
        raise ValueError(f"support_size must be at least 2, got {support_size}")
    num_positions = candidates.num_positions
    if num_positions == 0:
        return MarginSeries(np.empty(0), np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64), support_size)

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
    used = min(support_size, min_len)

    # a short row's -inf padding ranks after all of its real candidates
    w = min(support_size, candidates.ids.shape[1])
    ids = candidates.ids[:, :w]
    teacher = candidates.teacher_logp[:, :w]
    order = np.lexsort((ids, -teacher))
    rows = np.arange(num_positions)
    top1 = order[:, 0]
    top2 = order[:, 1]
    values = teacher[rows, top1] - teacher[rows, top2]
    return MarginSeries(values, top1.astype(np.int64), top2.astype(np.int64), used)
