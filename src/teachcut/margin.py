"""Nearest-competitor teacher margin over the student's top-K candidate set."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import TopKCandidates, _check_int


@dataclass(frozen=True)
class MarginSeries:
    """Per-token teacher top-2 margins."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def teacher_top2_margin(candidates: TopKCandidates, *,
                        support_size: int = 4) -> MarginSeries:
    """M_t = teacher log-prob gap between its top two candidates in the support.

    The support at each position is its first min(``support_size``, row
    length) candidates, the student's most probable ones.
    """
    _check_int("support_size", support_size, 2)
    lengths = candidates.lengths
    if lengths.size == 0:
        return MarginSeries(np.empty(0))

    min_len, max_len = int(lengths.min()), int(lengths.max())
    if min_len < 2:
        pos = int(np.argmax(lengths < 2))
        raise ValueError(
            f"position {pos}: the support must expose at least two teacher "
            f"log-probabilities, got {int(lengths[pos])}")

    width = min(support_size, max_len)
    if min_len == max_len:  # every row is as wide as the widest: a view
        support = candidates.teacher_logp.reshape(-1, max_len)[:, :width]
    else:  # a gather; -inf past a row's end sorts before its candidates
        cols = np.arange(width)
        flat_index = (np.cumsum(lengths) - lengths)[:, None] + cols
        gathered = candidates.teacher_logp.take(flat_index, mode="clip")
        support = np.where(cols < lengths[:, None], gathered, -np.inf)
    top = np.sort(support, axis=1)
    return MarginSeries(top[:, -1] - top[:, -2])
