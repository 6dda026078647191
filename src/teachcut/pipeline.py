"""Streaming JSONL batch processing.

Records are handled in fixed-size line chunks, optionally fanned out to a
process pool; outputs are always written in input order, so results are
bit-identical for any --jobs value. Release output echoes each input line
verbatim and splices in a ``release`` object rather than re-encoding the
record, which both preserves unknown fields and keeps the hot path cheap.

Random release and permute read and parse the input once. Pass 1 checks
each line on the pool and returns the record's decision as four scalars and
a blob of what the rewrite needs; the main process spills each valid line
with its blob to an anonymous temporary file (the input's size plus about 24
bytes per token) and keeps only the scalars. Pass 2 draws the permutation
and rewrites the spill in order in the main process, without the pool.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import math
import os
import re
import struct
import tempfile
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np
import orjson

from .changepoint import BIC_EPS, ChangeDecision, detect_downward_change
from .diagnostics import (BinAccumulator, ReleaseSummary, BinnedStats,
                          _finalize, _summary_from_rows, _summary_row,
                          write_bins_csv, write_summary_csv)
from .margin import MarginSeries, teacher_top2_margin
from .records import (DataProcessingError, RecordValidationError, RolloutRecord,
                      TeachcutError, _float_array, decode_line, dumps_obj,
                      iter_jsonl_lines, parse_rollout_line, rollout_from_obj,
                      sampled_advantage)
from .reweight import (RESCALE_EPS, ReleaseResult, _release_sources,
                       _retained_tokens, _transferred_release,
                       build_prefix_mask, fixed_prefix_mask, rescale_advantages)
from .segmentation import (SegmentIndex, SegmentScores, aggregate_segment_scores,
                           segment_tokens)

logger = logging.getLogger("teachcut")

STRATEGIES = ("bic_release", "full", "fixed_prefix", "random_release")

_CHUNK_LINES = 64


@dataclass(frozen=True)
class PipelineConfig:
    """Batch-processing knobs; flag defaults match these field defaults."""

    support_size: int = 4
    bic_eps: float = BIC_EPS
    rescale_eps: float = RESCALE_EPS
    num_bins: int = 20
    gain_threshold: float = 6.0
    strategy: str = "bic_release"
    prefix_tokens: int | None = None
    segments_source: str = "record"
    probs: bool = False
    strict: bool = False
    jobs: int | None = None
    random_seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"expected one of {', '.join(STRATEGIES)}")
        if self.segments_source not in ("record", "builtin"):
            raise ValueError(f"segments_source must be 'record' or 'builtin', "
                             f"got {self.segments_source!r}")
        if self.strategy == "fixed_prefix":
            if self.prefix_tokens is None or self.prefix_tokens < 1:
                raise ValueError("fixed_prefix requires prefix_tokens >= 1")
        if self.support_size < 2:
            raise ValueError(f"support_size must be at least 2, got {self.support_size}")
        if self.num_bins < 1:
            raise ValueError(f"num_bins must be at least 1, got {self.num_bins}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if not self.bic_eps > 0.0:
            raise ValueError(f"bic_eps must be positive, got {self.bic_eps}")
        if not self.rescale_eps > 0.0:
            raise ValueError(f"rescale_eps must be positive, got {self.rescale_eps}")


@dataclass(frozen=True)
class BatchReport:
    """What happened to one batch: volume, failures, acceptance."""

    num_records: int
    num_errors: int
    num_accepted: int
    acceptance_rate: float
    errors: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class DiagnoseResult:
    report: BatchReport
    summary: ReleaseSummary | None
    advantage_bins: BinnedStats | None
    margin_bins: BinnedStats | None
    paths: tuple[str, ...]


# ----------------------------------------------------------------------------
# per-record analysis


def _segment_index_for(record: RolloutRecord, config: PipelineConfig) -> SegmentIndex:
    if (config.segments_source == "record" and record.segments is not None
            and len(record.segments) > 0):
        return SegmentIndex(record.segments, record.num_tokens)
    return segment_tokens(record.token_surfaces)


def _analyze(record: RolloutRecord, config: PipelineConfig,
             ) -> tuple[MarginSeries, SegmentIndex, SegmentScores, ChangeDecision]:
    if record.candidates is None:
        raise RecordValidationError("strategy requires top-K candidates",
                                    field="topk")
    margins = teacher_top2_margin(record.candidates,
                                  support_size=config.support_size)
    segments = _segment_index_for(record, config)
    scores = aggregate_segment_scores(margins, segments)
    decision = detect_downward_change(scores, eps=config.bic_eps)
    return margins, segments, scores, decision


def dynamic_prefix_reweight(record: RolloutRecord,
                            config: PipelineConfig = PipelineConfig(),
                            ) -> ReleaseResult:
    """Compute one record's prefix mask and mass-preserving reweighting.

    The random_release strategy permutes decisions across a whole batch and
    has no per-record form; use process_batch for it.
    """
    num_tokens = record.num_tokens
    if config.strategy == "full":
        prefix_mask = np.ones(num_tokens)
        decision = None
    elif config.strategy == "fixed_prefix":
        prefix_mask = fixed_prefix_mask(num_tokens, config.prefix_tokens)
        decision = None
    elif config.strategy == "bic_release":
        _, segments, _, decision = _analyze(record, config)
        prefix_mask = build_prefix_mask(segments, decision, num_tokens)
    else:
        raise ValueError("random_release is a batch-level strategy; "
                         "use process_batch")
    with np.errstate(over="ignore"):  # _release_payload rejects what overflows
        rescaled, scale = rescale_advantages(sampled_advantage(record),
                                             record.loss_mask, prefix_mask,
                                             eps=config.rescale_eps)
    return ReleaseResult(prefix_mask, scale, rescaled, decision)


def _release_payload(accepted: bool, release_segment: int, bic_gain: float,
                     scale: float, prefix_mask: np.ndarray,
                     rescaled: np.ndarray) -> dict[str, Any]:
    """The release object. JSON has no form for inf or NaN, so a record whose
    reweighting overflows is rejected rather than written with a stand-in."""
    finite = np.isfinite(rescaled)
    if not finite.all():
        raise RecordValidationError("rescaled advantage not finite",
                                    field="release.rescaled_advantages",
                                    position=int(np.argmax(~finite)))
    return {
        "accepted": accepted,
        "release_segment": release_segment,
        "bic_gain": bic_gain,
        "scale": scale,
        "prefix_mask": prefix_mask,
        "rescaled_advantages": rescaled,
    }


def _release_span(obj: dict[str, Any], raw: bytes) -> tuple[int, int] | None:
    """Where the release payload goes in raw, as _splice_release takes it.

    None when the payload is appended as a new member; for a line whose
    object already has a top-level "release" key, the byte span of that
    key's value, which the payload replaces, so every other byte of the line,
    unknown values included, is echoed exactly as read.

    A value written last, as release writes it, is found from the tail: the
    last '"release"' is the key when ',' or '{' precedes it and ':' follows,
    up to whitespace, and the trimmed bytes from the ':' to the final '}' are
    exactly one JSON value. Other layouts cost a scan of the whole line.
    """
    if "release" not in obj:
        return None
    # Exact: a '"' after ',', '{' or whitespace is unescaped and cannot close
    # a string (a bare release is not JSON, even with NaN), so it opens the
    # key "release". One whole value, then only whitespace and the final '}',
    # means that '}' closes the object holding the key, which is thus the top
    # level, and the key is its last member: the one a decoder keeps. As in
    # _member_value_span, the span leaves out whitespace around the value.
    first = before = raw.rfind(b'"release"')
    while before > 0 and raw[before - 1] in _WHITESPACE:
        before -= 1
    tail = (_LAST_RELEASE.fullmatch(raw, first)
            if before > 0 and raw[before - 1] in b",{" else None)
    if tail:
        with contextlib.suppress(orjson.JSONDecodeError):
            orjson.loads(memoryview(raw)[tail.start(1):tail.end(1)])
            return tail.span(1)
    return _member_value_span(raw, "release")


def _splice_release(raw: bytes, encoded: tuple[tuple[int, int] | None, bytes],
                    ) -> bytes:
    """The output line for raw, newline included, from (_release_span, the
    encoded payload). Workers return only that pair, so the ~100 kB echoed
    line is copied once, by the main process, which holds raw."""
    span, body = encoded
    line = memoryview(raw)
    if span is None:
        if raw[:1] == b"{" and raw[-2:] == b"}\n":
            head = line[:-2]
        else:
            head = memoryview(raw.strip())[:-1]
        return b"".join((head, b',"release":', body, b"}\n"))
    start, end = span
    lead = 0 if raw[:1] == b"{" else len(raw) - len(raw.lstrip())
    return b"".join((line[lead:start], body, raw[end:].rstrip(), b"\n"))


_ESCAPE = re.compile(rb"\\.", re.DOTALL)
_WHITESPACE = b" \t\r\n"
_LAST_RELEASE = re.compile(rb'"release"[ \t\r\n]*:[ \t\r\n]*'
                           rb'(.*[^ \t\r\n])[ \t\r\n]*\}[ \t\r\n]*', re.DOTALL)


def _member_value_span(raw: bytes, key: str) -> tuple[int, int]:
    """Byte span of the value of the last top-level ``key`` in ``raw``.

    ``raw`` must decode to an object holding ``key``; the last occurrence is
    the one a decoder keeps.
    """
    # with every escape pair blanked, each '"' opens or closes a string, and
    # a bracket with an even number of '"' before it is structure
    text = _ESCAPE.sub(b"__", raw) if b"\\" in raw else raw
    chars = np.frombuffer(text, dtype=np.uint8)
    quotes = np.flatnonzero(chars == ord('"'))
    opening = (chars == ord("{")) | (chars == ord("["))
    brackets = np.flatnonzero(opening | (chars == ord("}")) | (chars == ord("]")))
    brackets = brackets[np.searchsorted(quotes, brackets) % 2 == 0]
    depth = np.cumsum(np.where(opening[brackets], 1, -1))  # after each bracket
    # a string lies at the depth left by the last bracket before it; those
    # inside the top-level object are its keys and its string values
    starts, ends = quotes[0::2], quotes[1::2]
    top = np.flatnonzero(depth[np.searchsorted(brackets, starts) - 1] == 1)
    keys = []  # (first quote, colon) of each top-level key
    for i in top.tolist():
        first, colon = int(starts[i]), int(ends[i]) + 1
        while raw[colon] in _WHITESPACE:
            colon += 1
        if raw[colon] == ord(":"):
            keys.append((first, colon))
    span = None
    for n, (first, colon) in enumerate(keys):
        if json.loads(raw[first:colon].rstrip()) != key:
            continue
        start = colon + 1
        while raw[start] in _WHITESPACE:
            start += 1
        # the value ends at the ',' before the next key or at the final '}'
        if n + 1 < len(keys):
            end = raw.rindex(b",", start, keys[n + 1][0])
        else:
            end = int(brackets[-1])
        while raw[end - 1] in _WHITESPACE:
            end -= 1
        span = (start, end)
    if span is None:
        raise ValueError(f"no top-level {key!r} member")
    return span


# ----------------------------------------------------------------------------
# chunked execution


def _iter_chunks(path: str) -> Iterator[list[tuple[int, bytes]]]:
    chunk: list[tuple[int, bytes]] = []
    for item in iter_jsonl_lines(path):
        chunk.append(item)
        if len(chunk) >= _CHUNK_LINES:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _map_chunks(items: Iterable[Any], worker: Callable[[Any], Any], jobs: int,
                keep: Callable[[Any], Any] = lambda item: None,
                ) -> Iterator[tuple[Any, Any]]:
    """(keep(item), worker(item)) for each item, in order; pooled when jobs > 1.

    Only what ``keep`` returns stays in the main process while its chunk is
    out at a worker.
    """
    if jobs == 1:
        for item in items:
            yield keep(item), worker(item)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending: deque = deque()
        try:
            for item in items:
                pending.append((keep(item), pool.submit(worker, item)))
                if len(pending) >= jobs * 4:
                    kept, future = pending.popleft()
                    yield kept, future.result()
            while pending:
                kept, future = pending.popleft()
                yield kept, future.result()
        finally:
            for _, future in pending:
                future.cancel()


def _resolve_jobs(jobs: int | None) -> int:
    if jobs is not None:
        return jobs
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _check_paths(input_path: str, output_path: str) -> None:
    if os.path.abspath(input_path) == os.path.abspath(output_path):
        raise ValueError("output path must differ from input path")


class _BatchTally:
    """Order-preserving sink for worker results; owns the strict/soft policy."""

    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.num_records = 0
        self.num_accepted = 0
        self.errors: list[tuple[int, str]] = []

    def record_error(self, line_number: int, message: str) -> None:
        if self.strict:
            body = message.removeprefix(f"line {line_number}: ")
            raise DataProcessingError(line_number, body)
        logger.warning("%s", message)
        self.errors.append((line_number, message))

    def report(self) -> BatchReport:
        rate = self.num_accepted / self.num_records if self.num_records else 0.0
        return BatchReport(self.num_records, len(self.errors),
                           self.num_accepted, rate, tuple(self.errors))


def _write_release(output_path: str,
                   results: Iterable[tuple[list[tuple[int, bytes]], list[tuple]]],
                   tally: _BatchTally) -> None:
    """Write release lines from (chunk, worker results) pairs in order.

    Strict mode aborts on the first bad line and removes the partial output.
    """
    handle = open(output_path, "wb")
    complete = False
    try:
        for chunk, out in results:
            for (_, raw), item in zip(chunk, out):
                if item[0] == "ok":
                    handle.write(_splice_release(raw, item[2]))
                    tally.num_records += 1
                    tally.num_accepted += bool(item[3])
                else:
                    tally.record_error(item[1], item[2])
        complete = True
    finally:
        handle.close()
        if not complete:
            with contextlib.suppress(OSError):
                os.unlink(output_path)


def _run_lines(chunk: Iterable[tuple[int, bytes]],
               per_line: Callable[[int, bytes], tuple]) -> list[tuple]:
    """("ok", line_number, *per_line(line_number, raw)) for each line of a
    chunk, or ("err", line_number, message) for a line that raised a
    TeachcutError.

    The chunk runs with the collector paused: refcounting frees each line's
    decoded tree, which is acyclic, before the next is built, so a collection
    would find nothing, yet the trees' thousands of lists would trigger one
    per line.
    """
    out: list[tuple] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for line_number, raw in chunk:
            try:
                out.append(("ok", line_number, *per_line(line_number, raw)))
            except TeachcutError as exc:
                prefix = f"line {line_number}: "
                message = prefix + str(exc).removeprefix(prefix)
                out.append(("err", line_number, message))
    finally:
        if enabled:  # the caller's state, also when a line aborts the chunk
            gc.enable()
    return out


# ----------------------------------------------------------------------------
# release


def _release_line(line_number: int, raw: bytes, config: PipelineConfig,
                  ) -> tuple[tuple[tuple[int, int] | None, bytes], bool]:
    obj = decode_line(raw, line_number=line_number)
    record = rollout_from_obj(obj, probs=config.probs, line_number=line_number)
    result = dynamic_prefix_reweight(record, config)
    decision = result.decision
    if decision is not None:
        accepted = decision.accepted
        release_segment = decision.release_segment
        gain = decision.bic_gain
    else:
        # full / fixed_prefix never ran the change-point test
        accepted, release_segment, gain = False, -1, 0.0
    payload = _release_payload(accepted, release_segment, gain, result.scale,
                               result.prefix_mask, result.rescaled_advantages)
    return (_release_span(obj, raw), dumps_obj(payload)), accepted


def process_batch(input_path: str, output_path: str,
                  config: PipelineConfig = PipelineConfig()) -> BatchReport:
    """Run one release strategy over a JSONL file.

    Strict mode aborts on the first bad line and removes the partial output;
    otherwise bad lines are logged, counted, and omitted from the output.
    """
    _check_paths(input_path, output_path)
    jobs = _resolve_jobs(config.jobs)
    if config.strategy == "random_release":
        return _transfer_batch(input_path, output_path, config, jobs,
                               _own_decision)

    worker = partial(_run_lines, per_line=partial(_release_line, config=config))
    tally = _BatchTally(config.strict)
    _write_release(output_path,
                   _map_chunks(_iter_chunks(input_path), worker, jobs,
                               keep=lambda chunk: chunk), tally)
    return tally.report()


# ----------------------------------------------------------------------------
# batch-level controls: random release and permutation of existing outputs


_BLOB_HEAD = struct.Struct("4q")   # tokens, segments, release span or -1, -1
_SPILL_HEAD = struct.Struct("3q")  # line number, line bytes, blob bytes


def _spill_line(line_number: int, raw: bytes, config: PipelineConfig,
                decide: Callable) -> tuple:
    """Pass 1 for one line: the decision as (total tokens, accepted, retained
    tokens, BIC gain), and what pass 2 needs besides the line, as one blob:
    a head of sizes and _release_span, the sampled advantage and loss mask,
    the cumulative segment token counts and the concatenated segments."""
    obj = decode_line(raw, line_number=line_number)
    record = rollout_from_obj(obj, probs=config.probs, line_number=line_number)
    segments, cums, accepted, retained, gain = decide(obj, record, config,
                                                      line_number)
    span = _release_span(obj, raw) or (-1, -1)
    blob = b"".join((_BLOB_HEAD.pack(record.num_tokens, len(cums), *span),
                     sampled_advantage(record), record.loss_mask, cums,
                     segments.prefix_token_ids(len(segments))))
    return (record.num_tokens, accepted, retained, gain), blob


def _own_decision(obj: dict[str, Any], record: RolloutRecord,
                  config: PipelineConfig, line_number: int) -> tuple:
    # random release: the record's own BIC decision
    _, segments, _, decision = _analyze(record, config)
    cums = segments.cumulative_token_counts()
    retained = _retained_tokens(cums, record.num_tokens, decision)
    return segments, cums, decision.accepted, retained, decision.bic_gain


def _existing_decision(obj: dict[str, Any], record: RolloutRecord,
                       config: PipelineConfig, line_number: int) -> tuple:
    # permute: the decision a prior release output wrote
    def invalid(message: str, key: str = "", position: int | None = None):
        return RecordValidationError(message, field="release" + key,
                                     position=position, line_number=line_number)

    release = obj.get("release")
    if not isinstance(release, dict):
        raise invalid("missing release data; run release first")
    accepted = release.get("accepted")
    if not isinstance(accepted, bool):
        raise invalid("expected a boolean", ".accepted")
    gain = release.get("bic_gain")
    if (not isinstance(gain, (int, float)) or isinstance(gain, bool)
            or not math.isfinite(gain)):
        raise invalid("expected a finite number", ".bic_gain")
    mask = release.get("prefix_mask")
    if not isinstance(mask, list) or len(mask) != record.num_tokens:
        raise invalid("expected a list with one entry per token", ".prefix_mask")
    mask = _float_array(mask, "release.prefix_mask", line_number)
    bad = (mask != 0.0) & (mask != 1.0)
    if bad.any():
        raise invalid("expected 0 or 1", ".prefix_mask", int(np.argmax(bad)))
    segments = _segment_index_for(record, config)
    retained = int(mask.sum()) if accepted else record.num_tokens
    return (segments, segments.cumulative_token_counts(), accepted, retained,
            float(gain))


def _transfer_line(line_number: int, raw: bytes, blob: bytes, source: int,
                   decided: tuple[int, bool, int, float],
                   config: PipelineConfig,
                   ) -> tuple[tuple[tuple[int, int] | None, bytes], bool]:
    # pass 2: impose a source's decision on a spilled record
    num_tokens, num_segments, start, end = _BLOB_HEAD.unpack_from(blob)
    floats = np.frombuffer(blob, np.float64, 2 * num_tokens, _BLOB_HEAD.size)
    ints = np.frombuffer(blob, np.int64, -1, _BLOB_HEAD.size + floats.nbytes)
    cums, token_ids = ints[:num_segments], ints[num_segments:]
    assignment = _transferred_release(source, decided, cums, num_tokens)
    if assignment.accepted:
        # tokens no segment holds stay 0, as in build_prefix_mask
        prefix_mask = np.zeros(num_tokens)
        prefix_mask[token_ids[:cums[assignment.release_segment - 1]]] = 1.0
    else:
        prefix_mask = np.ones(num_tokens)
    with np.errstate(over="ignore"):  # as in dynamic_prefix_reweight
        rescaled, scale = rescale_advantages(floats[:num_tokens],
                                             floats[num_tokens:], prefix_mask,
                                             eps=config.rescale_eps)
    payload = _release_payload(assignment.accepted, assignment.release_segment,
                               assignment.bic_gain, scale, prefix_mask,
                               rescaled)
    span = (start, end) if start >= 0 else None
    return (span, dumps_obj(payload)), assignment.accepted


def _rewrite(spill: BinaryIO, decided: list[tuple], config: PipelineConfig,
             ) -> Iterator[tuple[list[tuple[int, bytes]], list[tuple]]]:
    """Pass 2 as _write_release takes it: each spilled record, in order,
    with the decision of the source the seeded permutation gives it."""
    read = spill.read
    for source in _release_sources(len(decided), config.random_seed):
        line_number, raw_size, blob_size = _SPILL_HEAD.unpack(
            read(_SPILL_HEAD.size))
        line = [(line_number, read(raw_size))]
        yield line, _run_lines(line, partial(
            _transfer_line, blob=read(blob_size), source=source,
            decided=decided[source], config=config))


def _transfer_batch(input_path: str, output_path: str, config: PipelineConfig,
                    jobs: int, decide: Callable) -> BatchReport:
    # the two passes described in the module docstring
    tally = _BatchTally(config.strict)
    decided: list[tuple] = []
    worker = partial(_run_lines, per_line=partial(_spill_line, config=config,
                                                  decide=decide))
    with tempfile.TemporaryFile() as spill:
        for chunk, results in _map_chunks(_iter_chunks(input_path), worker,
                                          jobs, keep=lambda chunk: chunk):
            for (_, raw), item in zip(chunk, results):
                if item[0] == "err":
                    tally.record_error(item[1], item[2])
                    continue
                _, line_number, scalars, blob = item
                spill.write(_SPILL_HEAD.pack(line_number, len(raw), len(blob)))
                spill.write(raw)
                spill.write(blob)
                decided.append(scalars)
        spill.seek(0)
        _write_release(output_path, _rewrite(spill, decided, config), tally)
    return tally.report()


def permute_batch(input_path: str, output_path: str,
                  config: PipelineConfig = PipelineConfig()) -> BatchReport:
    """Permute release points across an existing release output.

    Reads each record's decision back from its ``release`` object (retained
    tokens from the prefix mask), reassigns decisions by a seeded uniform
    permutation, and rewrites the release objects in place. The multiset of
    relative release positions is preserved up to segment-boundary snapping
    on the receiving rollout.
    """
    _check_paths(input_path, output_path)
    jobs = _resolve_jobs(config.jobs)
    return _transfer_batch(input_path, output_path, config, jobs,
                           _existing_decision)


# ----------------------------------------------------------------------------
# diagnostics over a batch


def _diagnose_line(line_number: int, raw: bytes, config: PipelineConfig,
                   ) -> tuple[np.ndarray, np.ndarray, tuple]:
    record = parse_rollout_line(raw, probs=config.probs, line_number=line_number)
    margins, segments, _, decision = _analyze(record, config)
    return (sampled_advantage(record), margins.values,
            _summary_row(decision, segments, record.num_tokens))


def _diagnose_chunk(chunk: list[tuple[int, bytes]], config: PipelineConfig,
                    ) -> tuple[BinAccumulator, BinAccumulator, list, list]:
    adv_acc = BinAccumulator(config.num_bins)
    margin_acc = BinAccumulator(config.num_bins)
    rows: list[tuple] = []
    errors: list[tuple[int, str]] = []
    for item in _run_lines(chunk, partial(_diagnose_line, config=config)):
        if item[0] == "err":
            errors.append(item[1:])
        else:
            adv_acc.add_series(item[2])
            margin_acc.add_series(item[3])
            rows.append(item[4])
    return adv_acc, margin_acc, rows, errors


def diagnose_batch(input_path: str, out_dir: str,
                   config: PipelineConfig = PipelineConfig()) -> DiagnoseResult:
    """Write bins.csv, margin_bins.csv, and summary.csv for a rollout batch.

    bins.csv bins per-token advantages over normalized position; margin_bins
    holds the normalized margin decay curve; summary.csv aggregates release
    decisions. Nothing is written when no record survives validation.
    """
    jobs = _resolve_jobs(config.jobs)
    worker = partial(_diagnose_chunk, config=config)
    tally = _BatchTally(config.strict)
    adv_total = BinAccumulator(config.num_bins)
    margin_total = BinAccumulator(config.num_bins)
    rows: list[tuple] = []

    for _, (adv_acc, margin_acc, chunk_rows, errors) in _map_chunks(
            _iter_chunks(input_path), worker, jobs):
        for line_number, message in errors:
            tally.record_error(line_number, message)
        adv_total = adv_total.merge(adv_acc)
        margin_total = margin_total.merge(margin_acc)
        rows.extend(chunk_rows)

    tally.num_records = len(rows)
    tally.num_accepted = sum(1 for row in rows if row[0])
    if not rows:
        return DiagnoseResult(tally.report(), None, None, None, ())

    advantage_bins = _finalize(adv_total, normalize_means=False)
    margin_bins = _finalize(margin_total, normalize_means=True)
    summary = _summary_from_rows(rows, config.gain_threshold)

    os.makedirs(out_dir, exist_ok=True)
    bins_path = os.path.join(out_dir, "bins.csv")
    margin_path = os.path.join(out_dir, "margin_bins.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    write_bins_csv(advantage_bins, bins_path)
    write_bins_csv(margin_bins, margin_path)
    write_summary_csv(summary, summary_path)
    return DiagnoseResult(tally.report(), summary, advantage_bins, margin_bins,
                          (bins_path, margin_path, summary_path))
