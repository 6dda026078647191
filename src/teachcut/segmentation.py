"""Sentence-level token segmentation and per-segment score aggregation.

A segment layout is a SegmentIndex: the flat token ids of all segments plus
one cumulative token count per segment, checked once when it is built. The
built-in segmenter is a deterministic rule: a boundary closes after token t
when its surface, after stripping trailing closing quotes/brackets, ends with a
sentence terminal, or when the surface contains a blank line. Records may carry
precomputed ``segments``, which take precedence over this rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .records import SegmentIndex

_TERMINALS = frozenset(".!?;:")
_CLOSERS = "\"')]}"


def segment_tokens(token_surfaces: Sequence[str]) -> SegmentIndex:
    """Split token positions into sentence segments by the boundary rule.

    Every token belongs to exactly one segment; the final segment closes at the
    last token regardless of punctuation.
    """
    num_tokens = len(token_surfaces)
    if num_tokens == 0:
        raise ValueError("cannot segment an empty token sequence")
    # ""[-1:] is in no terminal set: a surface of closers alone stays open
    ends = [t for t, surface in enumerate(token_surfaces, start=1)
            if "\n\n" in surface or surface.rstrip(_CLOSERS)[-1:] in _TERMINALS]
    if not ends or ends[-1] < num_tokens:
        ends.append(num_tokens)
    return SegmentIndex._unchecked(np.arange(num_tokens, dtype=np.int64),
                                   np.array(ends, dtype=np.int64), num_tokens)


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
    if values.size < segments.num_tokens:
        raise ValueError(f"token indices of a {segments.num_tokens}-token "
                         f"segment index out of range [0, {values.size})")
    counts = np.diff(segments.bounds, prepend=0)
    sums = np.add.reduceat(values[segments.token_ids], segments.bounds - counts)
    return SegmentScores(np.log1p(sums / counts), segments)
