"""Prefix masks and mass-preserving advantage rescaling, plus the
batch-level random release transfer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .changepoint import ChangeDecision
from .records import _check_int
from .segmentation import SegmentIndex

RESCALE_EPS = 1e-8


@dataclass(frozen=True)
class ReleaseResult:
    """Token-level outcome of one release strategy.

    Strategies that never run the change-point test (full supervision, fixed
    prefix) carry an untested ``decision``: not accepted, ``release_segment``
    -1, ``bic_gain`` 0.0 and no means.
    """

    prefix_mask: np.ndarray
    scale: float
    rescaled_advantages: np.ndarray
    decision: ChangeDecision


def build_prefix_mask(segments: SegmentIndex, decision: ChangeDecision,
                      response_len: int) -> np.ndarray:
    """1.0 on the union of retained segments when accepted, else on every token.

    Tokens the segmenter never assigned stay 0 under an accepted decision.
    """
    if not decision.accepted:
        return np.ones(response_len)
    if response_len < segments.num_tokens:
        raise ValueError(f"token indices of a {segments.num_tokens}-token "
                         f"segment index out of range [0, {response_len})")
    mask = np.zeros(response_len)
    mask[segments.token_ids[:segments.bounds[decision.release_segment - 1]]] = 1.0
    return mask


def rescale_advantages(advantages: np.ndarray, loss_mask: np.ndarray,
                       prefix_mask: np.ndarray) -> tuple[np.ndarray, float]:
    """Scale masked advantages so the kept loss mass equals the original mass.

    scale = sum(l) / max(sum(l * q), RESCALE_EPS);
    rescaled[t] = A[t] * q[t] * scale.
    Returns (rescaled, scale).
    """
    advantages = np.asarray(advantages, dtype=np.float64)
    loss_mask = np.asarray(loss_mask, dtype=np.float64)
    prefix_mask = np.asarray(prefix_mask, dtype=np.float64)
    if not (len(advantages) == len(loss_mask) == len(prefix_mask)):
        raise ValueError("advantages, loss_mask, and prefix_mask lengths differ")
    total_mass = float(loss_mask.sum())
    kept_mass = float((loss_mask * prefix_mask).sum())
    scale = total_mass / max(kept_mass, RESCALE_EPS)
    return advantages * prefix_mask * scale, scale


def _snap_release_segment(cum_target: np.ndarray, retained_src: int,
                          total_src: int, total_target: int) -> int:
    # smallest s >= 1 with cum_target[s-1] / total_target >= retained_src /
    # total_src, in exact integer arithmetic; clamp when segments under-cover
    want = retained_src * total_target
    pos = int(np.searchsorted(cum_target * total_src, want, side="left"))
    return min(pos + 1, len(cum_target))


def _retained_tokens(segments: SegmentIndex, decision: ChangeDecision) -> int:
    """Tokens a decision keeps: those of its first release_segment segments
    when accepted, else all of the response."""
    if decision.accepted:
        return int(segments.bounds[decision.release_segment - 1])
    return segments.num_tokens


def _release_sources(size: int, seed: int) -> list[int]:
    """Each target's source rollout in a batch: a seeded uniform permutation."""
    return np.random.default_rng(seed).permutation(size).tolist()


def _transferred_release(decided: tuple[int, bool, int, float],
                         target: SegmentIndex) -> ChangeDecision:
    """A source's decision, given as (total tokens, accepted, retained
    tokens, BIC gain), imposed on a target's segments; no means are fitted
    on the target, so ``mu_pre`` and ``mu_post`` are None."""
    total, accepted, retained, gain = decided
    segment = _snap_release_segment(target.bounds, retained, total,
                                    target.num_tokens)
    return ChangeDecision(segment, bool(accepted), float(gain), None, None)


def permute_release_points(items: Sequence[tuple[SegmentIndex, ChangeDecision]],
                           seed: int) -> list[ChangeDecision]:
    """Reassign release points across a batch by a seeded uniform permutation.

    Each target gets its source's ``accepted`` and ``bic_gain``, with the
    source's kept fraction of tokens snapped to the target's next segment
    boundary at or after it, never retaining zero tokens; rejected sources
    transfer as full supervision. ``mu_pre`` and ``mu_post`` are None.
    """
    _check_int("seed", seed, 0)
    if not items:
        raise ValueError("empty batch")
    decided = [(segments.num_tokens, decision.accepted,
                _retained_tokens(segments, decision), decision.bic_gain)
               for segments, decision in items]
    return [_transferred_release(decided[source], items[target][0])
            for target, source in enumerate(_release_sources(len(items), seed))]
