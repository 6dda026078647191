"""Synthetic rollouts with planted margin structure.

Each generated record carries a candidate set whose teacher top-2 gap equals
the planted per-token margin exactly, sentence-shaped token surfaces, and an
explicit segment layout, so every downstream stage can be checked against the
construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from .records import (RolloutRecord, SegmentIndex, TopKCandidates, _check_files,
                      _check_int, _check_real, dumps_obj, rollout_to_obj)


def _check_generation(tokens_per_segment: int, support_size: int,
                      noise_std: float, seed: int) -> None:
    _check_int("tokens_per_segment", tokens_per_segment, 1)
    _check_int("support_size", support_size, 2)
    _check_int("seed", seed, 0)
    if _check_real("noise_std", noise_std) < 0.0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for piecewise-constant margin datasets.

    ``true_tau`` is the number of leading segments at the pre-change mean;
    None plants no change. Noise is i.i.d. Gaussian per token, and margins are
    clamped at zero to stay valid gaps.
    """

    num_segments: int = 6
    tokens_per_segment: int = 10
    true_tau: int | None = None
    pre_margin_mean: float = 1.0
    post_margin_mean: float = 0.0
    noise_std: float = 0.0
    support_size: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("num_segments", self.num_segments, 1)
        _check_generation(self.tokens_per_segment, self.support_size,
                          self.noise_std, self.seed)
        for name in ("pre_margin_mean", "post_margin_mean"):
            _check_real(name, getattr(self, name))
        if self.true_tau is not None:
            _check_int("true_tau", self.true_tau, 1)
            if self.true_tau >= self.num_segments:
                raise ValueError(f"true_tau must lie in [1, "
                                 f"{self.num_segments - 1}], got {self.true_tau}")


@dataclass(frozen=True)
class GroundTruth:
    """Planted quantities for one generated rollout."""

    rollout_id: str
    true_tau: int | None
    margins: np.ndarray
    segment_means: np.ndarray


def generate_rollout(segment_means: Any, *, tokens_per_segment: int,
                     support_size: int = 4, noise_std: float = 0.0,
                     seed: int = 0, index: int = 0,
                     rollout_id: str | None = None,
                     true_tau: int | None = None) -> tuple[RolloutRecord, GroundTruth]:
    """Build one rollout whose top-2 teacher gap at token t is the planted m_t.

    The candidate set puts the teacher's favorite at log-prob 0.0 and the
    runner-up at -m_t, so the measured gap is an exact float negation of the
    planted margin; student log-probs descend in fixed steps so the candidate
    ordering is valid by construction. Sampled log-probs encode an advantage
    of 0.5 * m_t per token. Every segment ends in a sentence-closing surface,
    so the built-in segmenter reproduces the emitted layout.
    """
    means = np.asarray(segment_means, dtype=np.float64)
    if means.ndim != 1 or means.size == 0:
        raise ValueError("segment_means must be a non-empty 1-d array")
    if not np.isfinite(means).all():
        raise ValueError("segment_means must be finite")
    _check_generation(tokens_per_segment, support_size, noise_std, seed)
    _check_int("index", index, 0)

    num_segments = means.size
    num_tokens = num_segments * tokens_per_segment
    k = support_size
    rng = np.random.default_rng([seed, index])

    margins = np.repeat(means, tokens_per_segment)
    margins = margins + noise_std * rng.standard_normal(num_tokens)
    np.maximum(margins, 0.0, out=margins)

    teacher = np.zeros((num_tokens, k))
    # runner-up sits m_t below the top; the rest fall away in unit steps
    teacher[:, 1:] = (-margins)[:, None] - np.arange(k - 1, dtype=np.float64)
    candidates = TopKCandidates(
        ids=np.tile(np.arange(k, dtype=np.int64), num_tokens),
        student_logp=np.tile(-0.5 * np.arange(1, k + 1, dtype=np.float64),
                             num_tokens),
        teacher_logp=teacher.ravel(),
        lengths=np.full(num_tokens, k, dtype=np.int64),
    )
    tokens = (["tok"] * (tokens_per_segment - 1) + ["end."]) * num_segments
    segments = SegmentIndex._unchecked(
        np.arange(num_tokens, dtype=np.int64),
        np.arange(1, num_segments + 1, dtype=np.int64) * tokens_per_segment,
        num_tokens)

    record = RolloutRecord(
        rollout_id=rollout_id if rollout_id is not None else f"sim-{index:06d}",
        token_surfaces=tokens,
        sampled_teacher_logp=np.full(num_tokens, -0.2),
        sampled_student_logp=-0.2 - 0.5 * margins,
        loss_mask=np.ones(num_tokens),
        candidates=candidates,
        segments=segments,
    )
    truth = GroundTruth(rollout_id=record.rollout_id, true_tau=true_tau,
                        margins=margins, segment_means=means)
    return record, truth


def generate_piecewise_rollout(config: SyntheticConfig,
                               index: int = 0) -> tuple[RolloutRecord, GroundTruth]:
    # float, or an int pre mean would truncate the post mean
    means = np.full(config.num_segments, config.pre_margin_mean,
                    dtype=np.float64)
    if config.true_tau is not None:
        means[config.true_tau:] = config.post_margin_mean
    return generate_rollout(
        means,
        tokens_per_segment=config.tokens_per_segment,
        support_size=config.support_size,
        noise_std=config.noise_std,
        seed=config.seed,
        index=index,
        true_tau=config.true_tau,
    )


def write_dataset(path: str, config: SyntheticConfig,
                  num_rollouts: int) -> tuple[str, str]:
    """Write a JSONL dataset plus a ground_truth.jsonl sidecar alongside it.

    Sidecar lines hold rollout_id, true_tau, and the planted per-token margins.
    Returns (dataset_path, sidecar_path). Raises ValueError before either
    file is opened when the one output rule, records._check_files, refuses
    them: judged on the file open() reaches, a missing directory, a
    directory, or one file by two names (``path`` is the sidecar or a link).
    """
    _check_int("num_rollouts", num_rollouts, 1)
    truth_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                              "ground_truth.jsonl")
    _check_files(None, (path, truth_path))
    with open(path, "wb") as data, open(truth_path, "wb") as truth:
        for index in range(num_rollouts):
            record, gt = generate_piecewise_rollout(config, index)
            data.write(dumps_obj(rollout_to_obj(record)) + b"\n")
            truth.write(dumps_obj({"rollout_id": gt.rollout_id,
                                   "true_tau": gt.true_tau,
                                   "margins": gt.margins.tolist()}) + b"\n")
    return path, truth_path
