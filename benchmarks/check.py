"""Reference outcomes and output checks, run outside the timed region.

References come from the public per-record functions (parse_rollout_line,
dynamic_prefix_reweight, detect_downward_change, permute_release_points,
binned_*_stats, release_summary). Outputs are compared by value after a
stdlib JSON decode, so a faster codec that formats floats differently still
passes. Each function returns the number of wrong record outcomes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from teachcut import (BinnedStats, ChangeDecision, PipelineConfig,
                      RecordParseError, RecordValidationError, ReleaseSummary,
                      SegmentIndex, aggregate_segment_scores,
                      binned_advantage_stats, binned_margin_curve,
                      build_prefix_mask, detect_downward_change,
                      dynamic_prefix_reweight, parse_rollout_line,
                      permute_release_points, release_summary,
                      rescale_advantages, rollout_from_obj, sampled_advantage,
                      segment_tokens, teacher_top2_margin)

CONFIG = PipelineConfig()

# Aggregates are sums over many records; the batch adds per-chunk partials,
# so its rounding differs from a single running sum in the last digits.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _lines(path: str):
    with open(path, "rb") as handle:
        for raw in handle:
            if raw.strip():
                yield raw


def _release_values(release: dict) -> tuple:
    return (release["accepted"], release["release_segment"],
            release["bic_gain"], release["scale"], release["prefix_mask"],
            release["rescaled_advantages"])


def _expected(decision: ChangeDecision | None, mask, rescaled, scale) -> tuple:
    return (decision.accepted, decision.release_segment, decision.bic_gain,
            scale, mask.tolist(), rescaled.tolist())


def _matches(out_raw: bytes | None, in_obj: dict, expected: tuple) -> bool:
    """The output line echoes the input's fields and carries the expected
    release values."""
    if out_raw is None:
        return False
    try:
        out = json.loads(out_raw)
        release = out.pop("release")
        return out == in_obj and _release_values(release) == expected
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def check_release(src: str, out: str) -> int:
    """Every line of a release_dense input against dynamic_prefix_reweight."""
    wrong = 0
    outputs = _lines(out)
    for raw in _lines(src):
        obj = json.loads(raw)
        result = dynamic_prefix_reweight(rollout_from_obj(obj), CONFIG)
        expected = _expected(result.decision, result.prefix_mask,
                             result.rescaled_advantages, result.scale)
        wrong += not _matches(next(outputs, None), obj, expected)
    return wrong + sum(1 for _ in outputs)


def _segment_index(record) -> SegmentIndex:
    if record.segments:
        return SegmentIndex(record.segments, record.num_tokens)
    return segment_tokens(record.token_surfaces)


def _kept_fraction(accepted: bool, mask: list) -> float:
    return sum(mask) / max(len(mask), 1) if accepted else 1.0


def check_permute(src: str, out: str, seed: int) -> int:
    """A permute_dense output against permute_release_points, plus the
    multiset of (accepted, kept fraction) pairs, which the dense records'
    shared segment layout preserves exactly."""
    items = []
    before = Counter()
    for raw in _lines(src):
        obj = json.loads(raw)
        record = rollout_from_obj(obj)
        release = obj["release"]
        items.append((_segment_index(record), ChangeDecision(
            release["release_segment"], release["accepted"],
            release["bic_gain"], None, None)))
        before[release["accepted"],
               _kept_fraction(release["accepted"], release["prefix_mask"])] += 1
    assignments = permute_release_points(items, seed)

    wrong = 0
    after = Counter()
    outputs = _lines(out)
    for raw, (seg, _), assignment in zip(_lines(src), items, assignments):
        obj = json.loads(raw)
        del obj["release"]
        record = rollout_from_obj(obj)
        decision = ChangeDecision(assignment.release_segment,
                                  assignment.accepted, assignment.bic_gain,
                                  None, None)
        mask = build_prefix_mask(seg, decision, record.num_tokens)
        rescaled, scale = rescale_advantages(sampled_advantage(record),
                                             record.loss_mask, mask)
        out_raw = next(outputs, None)
        wrong += not _matches(out_raw, obj, _expected(decision, mask,
                                                      rescaled, scale))
        if out_raw is not None:
            release = json.loads(out_raw).get("release", {})
            after[release.get("accepted"),
                  _kept_fraction(release.get("accepted"),
                                 release.get("prefix_mask", [0]))] += 1
    wrong += sum(1 for _ in outputs)
    return max(wrong, sum((before - after).values()))


# ----------------------------------------------------------------------------
# diagnose


@dataclass
class DiagnoseReference:
    """What diagnose_batch must report for one input file."""

    rejected: dict          # line number -> RecordValidationError.field
    advantage_bins: BinnedStats
    margin_bins: BinnedStats
    summary: ReleaseSummary


def diagnose_reference(src: str) -> DiagnoseReference:
    rejected = {}
    advantages, margins, decided = [], [], []
    for line_number, raw in enumerate(_lines(src), start=1):
        try:
            record = parse_rollout_line(raw, line_number=line_number)
        except RecordParseError:
            rejected[line_number] = "json"
            continue
        except RecordValidationError as exc:
            rejected[line_number] = exc.field
            continue
        margin = teacher_top2_margin(record.candidates,
                                     support_size=CONFIG.support_size)
        scores = aggregate_segment_scores(margin, _segment_index(record))
        decided.append((detect_downward_change(scores), scores,
                        record.num_tokens))
        advantages.append(sampled_advantage(record))
        margins.append(margin.values)
    return DiagnoseReference(
        rejected,
        binned_advantage_stats(advantages, CONFIG.num_bins),
        binned_margin_curve(margins, CONFIG.num_bins, normalize=True),
        release_summary(decided, CONFIG.gain_threshold))


def _close(cell: str, value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return cell == ("true" if value else "false")
    value = float(value)
    if math.isnan(value):
        return cell == ""
    try:
        return math.isclose(float(cell), value, rel_tol=REL_TOL,
                            abs_tol=ABS_TOL)
    except ValueError:
        return False


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def _bins_match(path: str, stats: BinnedStats) -> bool:
    rows = _csv_rows(path)
    if len(rows) != stats.num_bins:
        return False
    for b, row in enumerate(rows):
        if len(row) != 5 or row[0] != str(b) or row[1] != str(int(stats.bin_count[b])):
            return False
        if not all(_close(cell, value) for cell, value in zip(
                row[2:], (stats.bin_mean[b], stats.bin_std[b],
                          stats.normalized_std[b]))):
            return False
    return True


def _summary_matches(path: str, summary: ReleaseSummary) -> bool:
    rows = _csv_rows(path)
    if len(rows) != 1:
        return False
    values = [getattr(summary, f.name) for f in fields(ReleaseSummary)]
    return len(rows[0]) == len(values) and all(
        _close(cell, value) for cell, value in zip(rows[0], values))


def _names_field(message: str, line_number: int, field: str) -> bool:
    prefix = f"line {line_number}: "
    if field == "json":
        return message.startswith(prefix + "invalid JSON")
    return (message.startswith(prefix + field + ":")
            or message.startswith(prefix + field + " at position"))


def check_diagnose(ref: DiagnoseReference, planted: dict, num_lines: int,
                   out_dir: str, errors: list) -> int:
    """Each line's accept/reject outcome and field, then the CSV values.

    A planted line must be rejected with the field the generator planted;
    every other line must be accepted. A CSV that disagrees with the
    reference makes every accepted record of the batch wrong.
    """
    reported = {}
    for line_number, message in errors:
        reported.setdefault(line_number, message)
    wrong = 0
    for line_number in range(1, num_lines + 1):
        want = planted.get(line_number)
        if ref.rejected.get(line_number) != want:
            wrong += 1            # the public parser itself disagrees
        elif want is None:
            wrong += line_number in reported
        else:
            message = reported.get(line_number)
            wrong += message is None or not _names_field(message, line_number,
                                                         want)
    csv_ok = all(os.path.exists(os.path.join(out_dir, name)) for name in
                 ("bins.csv", "margin_bins.csv", "summary.csv"))
    csv_ok = csv_ok and _bins_match(os.path.join(out_dir, "bins.csv"),
                                    ref.advantage_bins)
    csv_ok = csv_ok and _bins_match(os.path.join(out_dir, "margin_bins.csv"),
                                    ref.margin_bins)
    csv_ok = csv_ok and _summary_matches(os.path.join(out_dir, "summary.csv"),
                                         ref.summary)
    if not csv_ok:
        wrong += num_lines - len(planted)
    return min(wrong, num_lines)
