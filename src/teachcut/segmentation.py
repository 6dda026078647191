"""Sentence-level token segmentation and per-segment score aggregation.

The built-in segmenter is a deterministic rule: a boundary closes after token t
when its surface, after stripping trailing closing quotes/brackets, ends with a
sentence terminal, or when the surface contains a blank line. Records may carry
precomputed ``segments``, which take precedence over this rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .records import _segments_from_obj

_TERMINALS = frozenset(".!?;:")
_CLOSERS = "\"')]}"


def _closes_sentence(surface: str) -> bool:
    if "\n\n" in surface:
        return True
    stripped = surface.rstrip(_CLOSERS)
    return bool(stripped) and stripped[-1] in _TERMINALS


@dataclass(frozen=True)
class SegmentIndex:
    """Ordered, disjoint, non-empty token-index groups within one response."""

    segments: tuple[np.ndarray, ...]
    num_tokens: int

    def __len__(self) -> int:
        return len(self.segments)

    def token_counts(self) -> np.ndarray:
        return np.fromiter(map(len, self.segments), dtype=np.int64,
                           count=len(self.segments))

    def cumulative_token_counts(self) -> np.ndarray:
        """cumulative_token_counts()[i] = tokens covered by segments[: i + 1]."""
        return np.cumsum(self.token_counts())

    def prefix_token_ids(self, num_segments: int) -> np.ndarray:
        """Token indices covered by the first ``num_segments`` segments."""
        kept = self.segments[:num_segments]
        if not kept:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(kept)

    @classmethod
    def from_lists(cls, lists: list[list[int]], num_tokens: int) -> "SegmentIndex":
        """Build from raw index lists under the check a record's ``segments``
        field gets: empties dropped, indices strictly increasing across the
        lists and inside [0, num_tokens). Raises RecordValidationError."""
        return cls(_segments_from_obj(lists, num_tokens, None), num_tokens)


def segment_tokens(token_surfaces: Sequence[str]) -> SegmentIndex:
    """Split token positions into sentence segments by the boundary rule.

    Every token belongs to exactly one segment; the final segment closes at the
    last token regardless of punctuation.
    """
    num_tokens = len(token_surfaces)
    if num_tokens == 0:
        raise ValueError("cannot segment an empty token sequence")
    segments: list[np.ndarray] = []
    start = 0
    for t, surface in enumerate(token_surfaces):
        if _closes_sentence(surface):
            segments.append(np.arange(start, t + 1, dtype=np.int64))
            start = t + 1
    if start < num_tokens:
        segments.append(np.arange(start, num_tokens, dtype=np.int64))
    return SegmentIndex(tuple(segments), num_tokens)


@dataclass(frozen=True)
class SegmentScores:
    """Per-segment teachability scores aligned to a SegmentIndex."""

    scores: np.ndarray
    segment_index: SegmentIndex

    def __len__(self) -> int:
        return len(self.scores)


def aggregate_segment_scores(margins: Any, segments: SegmentIndex) -> SegmentScores:
    """Segment score S_i = log1p(mean margin over the segment's tokens).

    ``margins`` may be a MarginSeries or any array-like of per-token values.
    Loss masks are deliberately ignored: every segment token contributes.
    """
    values = np.asarray(getattr(margins, "values", margins), dtype=np.float64)
    if not segments.segments:
        return SegmentScores(np.empty(0, dtype=np.float64), segments)
    flat = np.concatenate(segments.segments)
    if flat.size:
        lo = int(flat.min())
        hi = int(flat.max())
        if lo < 0 or hi >= values.size:
            for i, seg in enumerate(segments.segments):
                bad = seg[(seg < 0) | (seg >= values.size)]
                if bad.size:
                    raise ValueError(
                        f"segment {i}: token index {int(bad[0])} out of range "
                        f"[0, {values.size})")
    counts = segments.token_counts()
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sums = np.add.reduceat(values[flat], starts)
    scores = np.log1p(sums / counts)
    return SegmentScores(scores, segments)
