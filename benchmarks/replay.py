"""Traced replay: each record of a workload through the public per-record
functions its batch command uses, in the command's order, one span per call.

Spans are (trace id, name, parent span, start ns, end ns), kept in memory
and written out by run.py when the run ends. All spans of one record share
its line number as trace id; batch-level calls use trace id 0. A layer's
self time is its span's duration minus the time its child spans cover.

The same replay with the tracer disabled runs the same calls with no span
bookkeeping, so the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from teachcut import (ChangeDecision, PipelineConfig, RecordParseError,
                      RecordValidationError, SegmentIndex, BinAccumulator,
                      aggregate_segment_scores, build_prefix_mask,
                      detect_downward_change, permute_release_points,
                      release_summary, rescale_advantages, rollout_from_obj,
                      sampled_advantage, segment_tokens, teacher_top2_margin,
                      write_bins_csv, write_summary_csv)
from teachcut.records import decode_line, dumps_obj

CONFIG = PipelineConfig()

# Layer spans, in the order a record meets them. "record" is the per-record
# root whose self time is the replay's own glue.
LAYER_SPANS = (
    "records.decode", "records.validate", "margin.top2", "segmentation.index",
    "segmentation.scores", "changepoint.detect", "reweight.mask_rescale",
    "records.encode", "diagnostics.accumulate", "reweight.permute",
    "diagnostics.finalize",
)


class Tracer:
    """In-memory span recorder; disabled, it only calls through."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.trace_id = 0

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.trace_id, name, parent, time.perf_counter_ns(), 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        if span >= 0:
            self.spans[span][4] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child_ns = defaultdict(int)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for i, (_, name, _, start, end) in enumerate(self.spans):
            totals[name] += end - start - child_ns[i]
        return dict(totals)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, (trace_id, name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"span": i, "trace": trace_id,
                                         "name": name, "parent": parent,
                                         "start_ns": start, "end_ns": end})
                             + "\n")


@dataclass
class Counts:
    """Counts taken where the work happens during the replay."""

    lines: int = 0
    valid: int = 0
    bytes_in: int = 0
    rejected: Counter = field(default_factory=Counter)   # field -> lines
    ragged: int = 0            # valid records with a short top-K row
    builtin: int = 0           # segment layouts from the built-in segmenter
    segments: int = 0
    detect_attempts: int = 0
    detect_accepted: int = 0


def _segment_index(tracer: Tracer, record, counts: Counts) -> SegmentIndex:
    # The command takes the record's layout when present and non-empty.
    if record.segments:
        seg = tracer.call("segmentation.index", SegmentIndex, record.segments,
                          record.num_tokens)
    else:
        counts.builtin += 1
        seg = tracer.call("segmentation.index", segment_tokens,
                          record.token_surfaces)
    counts.segments += len(seg)
    return seg


def _parse(tracer: Tracer, line_number: int, raw: bytes, counts: Counts):
    try:
        obj = tracer.call("records.decode", decode_line, raw,
                          line_number=line_number)
        record = tracer.call("records.validate", rollout_from_obj, obj,
                             line_number=line_number)
    except (RecordParseError, RecordValidationError) as exc:
        counts.rejected[getattr(exc, "field", None) or "json"] += 1
        return None, None
    counts.valid += 1
    lengths = record.candidates.row_lengths() if record.candidates else None
    if lengths is not None and lengths.size and lengths.min() != lengths.max():
        counts.ragged += 1
    return obj, record


def _analyze(tracer: Tracer, record, counts: Counts):
    margins = tracer.call("margin.top2", teacher_top2_margin, record.candidates,
                          support_size=CONFIG.support_size)
    seg = _segment_index(tracer, record, counts)
    scores = tracer.call("segmentation.scores", aggregate_segment_scores,
                         margins, seg)
    decision = tracer.call("changepoint.detect", detect_downward_change, scores)
    counts.detect_attempts += 1
    counts.detect_accepted += decision.accepted
    return margins, seg, scores, decision


def _mask_rescale(record, seg: SegmentIndex, decision: ChangeDecision):
    mask = build_prefix_mask(seg, decision, record.num_tokens)
    rescaled, scale = rescale_advantages(sampled_advantage(record),
                                         record.loss_mask, mask)
    return mask, rescaled, scale


def _payload(decision: ChangeDecision, mask, rescaled, scale: float) -> dict:
    return {"accepted": decision.accepted,
            "release_segment": decision.release_segment,
            "bic_gain": decision.bic_gain, "scale": scale,
            "prefix_mask": mask.tolist(),
            "rescaled_advantages": rescaled.tolist()}


def _encode_splice(raw: bytes, decision, mask, rescaled, scale) -> bytes:
    # the batch writer's path for a line that has no "release" key yet
    payload = dumps_obj(_payload(decision, mask, rescaled, scale))
    return raw.strip()[:-1] + b',"release":' + payload + b"}"


def _encode_whole(obj: dict, decision, mask, rescaled, scale) -> bytes:
    # the batch writer's path for a line that already has a "release" key
    obj["release"] = _payload(decision, mask, rescaled, scale)
    return dumps_obj(obj)


def _read_lines(path: str) -> list[tuple[int, bytes]]:
    with open(path, "rb") as handle:
        return [(n, raw) for n, raw in enumerate(handle, start=1) if raw.strip()]


def _each_line(tracer: Tracer, lines: list[tuple[int, bytes]], counts: Counts):
    """Yield each line inside its own root span, counting it."""
    for line_number, raw in lines:
        counts.lines += 1
        counts.bytes_in += len(raw)
        tracer.trace_id = line_number
        root = tracer.begin("record")
        yield line_number, raw
        tracer.end(root)


def replay_release(tracer: Tracer, path: str, counts: Counts, **_) -> None:
    for line_number, raw in _each_line(tracer, _read_lines(path), counts):
        _, record = _parse(tracer, line_number, raw, counts)
        if record is not None:
            _, seg, _, decision = _analyze(tracer, record, counts)
            mask, rescaled, scale = tracer.call(
                "reweight.mask_rescale", _mask_rescale, record, seg, decision)
            tracer.call("records.encode", _encode_splice, raw, decision, mask,
                        rescaled, scale)


def replay_diagnose(tracer: Tracer, path: str, counts: Counts, *,
                    out_dir: str, reference, **_) -> None:
    adv_acc = BinAccumulator(CONFIG.num_bins)
    margin_acc = BinAccumulator(CONFIG.num_bins)
    decided = []
    for line_number, raw in _each_line(tracer, _read_lines(path), counts):
        _, record = _parse(tracer, line_number, raw, counts)
        if record is not None:
            margins, _, scores, decision = _analyze(tracer, record, counts)
            span = tracer.begin("diagnostics.accumulate")
            adv_acc.add_series(sampled_advantage(record))
            margin_acc.add_series(margins.values)
            tracer.end(span)
            decided.append((decision, scores, record.num_tokens))

    # Binned statistics come from the reference: the public API finalizes an
    # accumulator only inside binned_*_stats, which would accumulate again.
    tracer.trace_id = 0
    span = tracer.begin("diagnostics.finalize")
    summary = release_summary(decided, CONFIG.gain_threshold)
    os.makedirs(out_dir, exist_ok=True)
    write_bins_csv(reference.advantage_bins, os.path.join(out_dir, "bins.csv"))
    write_bins_csv(reference.margin_bins,
                   os.path.join(out_dir, "margin_bins.csv"))
    write_summary_csv(summary, os.path.join(out_dir, "summary.csv"))
    tracer.end(span)


def replay_permute(tracer: Tracer, path: str, counts: Counts, *,
                   seed: int, **_) -> None:
    lines = _read_lines(path)
    kept = []
    # pass 1: read each record's decision back out of its release object
    for line_number, raw in _each_line(tracer, lines, counts):
        obj, record = _parse(tracer, line_number, raw, counts)
        if record is not None:
            release = obj["release"]
            seg = _segment_index(tracer, record, counts)
            kept.append((line_number, (seg, ChangeDecision(
                release["release_segment"], release["accepted"],
                release["bic_gain"], None, None))))

    tracer.trace_id = 0
    assignments = tracer.call("reweight.permute", permute_release_points,
                              [item for _, item in kept], seed)
    by_line = {ln: a for (ln, _), a in zip(kept, assignments)}

    # pass 2: impose the transferred release points and rewrite each line;
    # its lines were counted in pass 1
    ignored = Counts()
    valid = [(ln, raw) for ln, raw in lines if ln in by_line]
    for line_number, raw in _each_line(tracer, valid, ignored):
        assignment = by_line[line_number]
        _, record = _parse(tracer, line_number, raw, ignored)
        seg = _segment_index(tracer, record, ignored)
        decision = ChangeDecision(assignment.release_segment,
                                  assignment.accepted, assignment.bic_gain,
                                  None, None)
        mask, rescaled, scale = tracer.call(
            "reweight.mask_rescale", _mask_rescale, record, seg, decision)
        obj = tracer.call("records.decode", decode_line, raw)
        tracer.call("records.encode", _encode_whole, obj, decision, mask,
                    rescaled, scale)


def span_cost_ns(calls: int = 20000) -> float:
    """Added cost of one traced call over an untraced one, on a no-op."""
    def noop() -> None:
        return None

    elapsed = []
    for enabled in (False, True):
        tracer = Tracer(enabled)
        start = time.perf_counter_ns()
        for _ in range(calls):
            tracer.call("calibrate", noop)
        elapsed.append(time.perf_counter_ns() - start)
    return (elapsed[1] - elapsed[0]) / calls


REPLAYS = {
    "release_dense": replay_release,
    "diagnose_ragged": replay_diagnose,
    "permute_dense": replay_permute,
}


def replay(workload: str, path: str, tracer: Tracer, **kwargs) -> tuple[Counts, float]:
    """Replay one workload input; returns its counts and wall seconds."""
    counts = Counts()
    start = time.perf_counter()
    REPLAYS[workload](tracer, path, counts, **kwargs)
    return counts, time.perf_counter() - start
