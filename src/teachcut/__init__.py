"""Release-point detection and advantage reweighting for teacher-student
rollouts.

The core flow: per-token nearest-competitor teacher margins over the student's
top-K candidates -> sentence-segment teachability scores -> a single downward
change point under a profiled RSS-BIC test -> a truncated, mass-preserving
advantage reweighting. Batch tooling adds diagnostics, synthetic data with
planted structure, and a random-release control.
"""

from .changepoint import ChangeDecision, detect_downward_change
from .diagnostics import (BinAccumulator, BinnedStats, ReleaseSummary,
                          SnrReport, binned_advantage_stats,
                          binned_margin_curve, release_summary,
                          snr_release_check, write_bins_csv, write_summary_csv)
from .margin import MarginSeries, teacher_top2_margin
from .pipeline import (BatchReport, DiagnoseResult, PipelineConfig,
                       diagnose_batch, dynamic_prefix_reweight, permute_batch,
                       process_batch)
from .records import (DataProcessingError, RecordParseError,
                      RecordValidationError, RolloutRecord, TeachcutError,
                      TopKCandidates, parse_rollout_line, rollout_from_obj,
                      rollout_to_obj, sampled_advantage)
from .reweight import (ReleaseResult, build_prefix_mask, permute_release_points,
                       rescale_advantages)
from .segmentation import (SegmentIndex, SegmentScores,
                           aggregate_segment_scores, segment_tokens)
from .synthetic import (GroundTruth, SyntheticConfig, generate_piecewise_rollout,
                        generate_rollout, write_dataset)

__version__ = "0.1.0"

__all__ = [
    "BatchReport",
    "BinAccumulator",
    "BinnedStats",
    "ChangeDecision",
    "DataProcessingError",
    "DiagnoseResult",
    "GroundTruth",
    "MarginSeries",
    "PipelineConfig",
    "RecordParseError",
    "RecordValidationError",
    "ReleaseResult",
    "ReleaseSummary",
    "RolloutRecord",
    "SegmentIndex",
    "SegmentScores",
    "SnrReport",
    "SyntheticConfig",
    "TeachcutError",
    "TopKCandidates",
    "aggregate_segment_scores",
    "binned_advantage_stats",
    "binned_margin_curve",
    "build_prefix_mask",
    "detect_downward_change",
    "diagnose_batch",
    "dynamic_prefix_reweight",
    "generate_piecewise_rollout",
    "generate_rollout",
    "parse_rollout_line",
    "permute_batch",
    "permute_release_points",
    "process_batch",
    "release_summary",
    "rescale_advantages",
    "rollout_from_obj",
    "rollout_to_obj",
    "sampled_advantage",
    "segment_tokens",
    "snr_release_check",
    "teacher_top2_margin",
    "write_bins_csv",
    "write_dataset",
    "write_summary_csv",
]
