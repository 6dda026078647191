"""Streaming JSONL batch processing.

Records are handled in chunks of about _CHUNK_BYTES of input, fanned out to
a process pool when there is more than one chunk and more than one job;
outputs are always written in input order, so results are bit-identical for
any --jobs value. Release output echoes each input line verbatim and splices
in a ``release`` object rather than re-encoding the record, which both
preserves unknown fields and keeps the hot path cheap.

Random release and permute read and parse the input once. Pass 1 checks
each line on the pool and returns the record's decision as four scalars,
plus the arrays the rewrite needs and their sizes. The main process keeps
only the scalars and spills each valid line to an anonymous temporary file
(the input's size plus about 24 bytes per token) as one record: a head of
seven int64s (line number, line bytes, tokens, segments, segment token ids,
release span), the line, the sampled advantage and loss mask, and the
segments' bounds and token ids. Pass 2 draws the permutation and rewrites
the spill in order in the main process, without the pool.

A per-line function takes the raw line and returns a value or raises a
TeachcutError, which _run_lines turns into that line's error text; only the
main process, which reads the input, knows line numbers.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import math
import os
import re
import stat
import struct
import tempfile
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from typing import Any, BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .changepoint import ChangeDecision, detect_downward_change
from .diagnostics import (BinAccumulator, ReleaseSummary, BinnedStats,
                          _finalize, _series_bins, _summary_from_rows,
                          _summary_row, write_bins_csv, write_summary_csv)
from .margin import MarginSeries, teacher_top2_margin
from .records import (DataProcessingError, RecordValidationError, RolloutRecord,
                      TeachcutError, _at_line, _check_output_file, _float_array,
                      decode_line, dumps_obj, iter_jsonl_lines,
                      parse_rollout_line, rollout_from_obj, sampled_advantage)
from .reweight import (ReleaseResult, _release_sources, _retained_tokens,
                       _transferred_release, build_prefix_mask,
                       fixed_prefix_mask, rescale_advantages)
from .segmentation import (SegmentIndex, SegmentScores, aggregate_segment_scores,
                           segment_tokens)

logger = logging.getLogger("teachcut")

STRATEGIES = ("bic_release", "full", "fixed_prefix", "random_release")

# A chunk ends at the first line that brings it to this many bytes, so the
# chunks in flight, at most jobs * 4, hold jobs * 4 * (1 MiB + the longest
# line) of input whatever the line size.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class PipelineConfig:
    """Batch-processing knobs; flag defaults match these field defaults."""

    support_size: int = 4
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
    if config.segments_source == "record" and record.segments:
        return record.segments
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
    decision = detect_downward_change(scores)
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
    rescaled, scale = _rescale(sampled_advantage(record), record.loss_mask,
                               prefix_mask)
    return ReleaseResult(prefix_mask, scale, rescaled, decision)


def _rescale(advantages: np.ndarray, loss_mask: np.ndarray,
             prefix_mask: np.ndarray) -> tuple[np.ndarray, float]:
    # an overflow gives inf, for which _release_payload rejects the record
    with np.errstate(over="ignore"):
        return rescale_advantages(advantages, loss_mask, prefix_mask)


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
    up to whitespace, and the trimmed bytes from the ':' to the final '}' open
    with '{', end with '}' and hold no other brace. Other layouts cost a scan
    of the whole line.
    """
    if "release" not in obj:
        return None
    # Exact: a '"' after ',', '{' or whitespace is unescaped and cannot close
    # a string (a bare release is not JSON, even with NaN), so it opens the
    # key "release". In a JSON line two structural '}' follow the tail's '{',
    # the value's and its container's; the tail's '}' and the final '}' are
    # all there are, so the tail is the value, its container is the top
    # level, and the key is its last member: the one a decoder keeps. As in
    # _member_value_span, the span leaves out whitespace around the value.
    first = before = raw.rfind(b'"release"')
    while before > 0 and raw[before - 1] in _WHITESPACE:
        before -= 1
    tail = (_LAST_RELEASE.fullmatch(raw, first)
            if before > 0 and raw[before - 1] in b",{" else None)
    if tail:
        start, end = tail.span(1)
        if (raw[start] == ord("{") and raw[end - 1] == ord("}")
                and raw.count(b"{", start, end) == 1
                and raw.count(b"}", start, end) == 1):
            return start, end
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
    size = 0
    for item in iter_jsonl_lines(path):
        chunk.append(item)
        size += len(item[1])
        if size >= _CHUNK_BYTES:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _map_chunks(chunks: Iterable[Any], worker: Callable[[Any], Any], jobs: int,
                ) -> Iterator[tuple[Any, Any]]:
    """(chunk, worker(chunk)) for each chunk, in order.

    Pooled when jobs > 1 and there is a second chunk; a single chunk runs in
    this process, which saves starting and stopping the pool. The pool
    starts one worker per chunk up to jobs, and at most jobs * 4 chunks are
    out at workers.
    """
    chunks = iter(chunks)
    head = list(islice(chunks, jobs)) if jobs > 1 else []
    if len(head) < 2:
        for chunk in chain(head, chunks):
            yield chunk, worker(chunk)
        return
    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        pending: deque = deque()
        try:
            for chunk in chain(head, chunks):
                pending.append((chunk, pool.submit(worker, chunk)))
                if len(pending) >= jobs * 4:
                    chunk, future = pending.popleft()
                    yield chunk, future.result()
            while pending:
                chunk, future = pending.popleft()
                yield chunk, future.result()
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
    _check_output_file(output_path)
    # opening the output truncates it, so it must not be the input under
    # another name: a symlink or a hard link
    if (os.path.abspath(input_path) == os.path.abspath(output_path)
            or (os.path.exists(output_path)
                and os.path.samefile(input_path, output_path))):
        raise ValueError("output path must differ from input path")


def _check_out_dir(out_dir: str) -> None:
    # diagnose makes out_dir and its missing parents only once the CSVs are
    # ready; a file in the way would fail it only then
    probe = os.path.abspath(out_dir)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValueError(f"output path is not a directory: {probe}")


class _BatchTally:
    """Order-preserving sink for worker results; owns the strict/soft policy."""

    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.num_records = 0
        self.num_accepted = 0
        self.errors: list[tuple[int, str]] = []

    def record_error(self, line_number: int, message: str) -> None:
        if self.strict:
            raise DataProcessingError(line_number, message)
        message = _at_line(line_number, message)
        logger.warning("%s", message)
        self.errors.append((line_number, message))

    def passed(self, results: Iterable[tuple[list[tuple[int, bytes]],
                                              list[tuple[str, Any]]]],
               ) -> Iterator[tuple[tuple[int, bytes], Any]]:
        """((line_number, raw), value) for each line that passed, in order,
        from (chunk, _run_lines results) pairs; each other line is an error."""
        for chunk, out in results:
            for line, (error, value) in zip(chunk, out):
                if error:
                    self.record_error(line[0], error)
                else:
                    yield line, value

    def report(self) -> BatchReport:
        rate = self.num_accepted / self.num_records if self.num_records else 0.0
        return BatchReport(self.num_records, len(self.errors),
                           self.num_accepted, rate, tuple(self.errors))


def _write_release(output_path: str,
                   results: Iterable[tuple[list[tuple[int, bytes]], list[tuple]]],
                   tally: _BatchTally) -> None:
    """Write release lines from (chunk, _run_lines results) pairs in order.

    Strict mode aborts on the first bad line and removes the partial output
    when it is a regular file; a device or pipe is left as it is.
    """
    handle = open(output_path, "wb")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    complete = False
    try:
        for (_, raw), (encoded, accepted) in tally.passed(results):
            handle.write(_splice_release(raw, encoded))
            tally.num_records += 1
            tally.num_accepted += bool(accepted)
        complete = True
    finally:
        handle.close()
        if not complete and regular:
            with contextlib.suppress(OSError):
                os.unlink(output_path)


def _run_lines(chunk: Iterable[tuple[int, bytes]], per_line: Callable[..., Any],
               *args: Any) -> list[tuple[str, Any]]:
    """("", per_line(raw, *args)) for each line of a chunk, or (the error's
    text, None) for a line that raised a TeachcutError. The text names no
    line; _BatchTally.record_error adds that.

    The chunk runs with the collector paused: refcounting frees each line's
    decoded tree, which is acyclic, before the next is built, so a collection
    would find nothing, yet the trees' thousands of lists would trigger one
    per line.
    """
    out: list[tuple[str, Any]] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _, raw in chunk:
            try:
                out.append(("", per_line(raw, *args)))
            except TeachcutError as exc:
                out.append((str(exc), None))
    finally:
        if enabled:  # the caller's state, also when a line aborts the chunk
            gc.enable()
    return out


# ----------------------------------------------------------------------------
# release


def _release_line(raw: bytes, config: PipelineConfig,
                  ) -> tuple[tuple[tuple[int, int] | None, bytes], bool]:
    obj = decode_line(raw)
    record = rollout_from_obj(obj, probs=config.probs)
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
                   _map_chunks(_iter_chunks(input_path), worker, jobs), tally)
    return tally.report()


# ----------------------------------------------------------------------------
# batch-level controls: random release and permutation of existing outputs


# line number, line bytes, tokens, segments, segment token ids, and the
# release span or -1, -1
_SPILL_HEAD = struct.Struct("7q")


def _spill_line(raw: bytes, config: PipelineConfig, decide: Callable) -> tuple:
    """Pass 1 for one line: the decision as (total tokens, accepted, retained
    tokens, BIC gain), the spill head's sizes and _release_span, and the
    arrays pass 2 needs: the sampled advantage and loss mask, and the
    segments' bounds and token ids."""
    obj = decode_line(raw)
    record = rollout_from_obj(obj, probs=config.probs)
    segments, accepted, retained, gain = decide(obj, record, config)
    span = _release_span(obj, raw) or (-1, -1)
    arrays = b"".join((sampled_advantage(record), record.loss_mask,
                       segments.bounds, segments.token_ids))
    return ((record.num_tokens, accepted, retained, gain),
            (record.num_tokens, len(segments), len(segments.token_ids), *span),
            arrays)


def _own_decision(obj: dict[str, Any], record: RolloutRecord,
                  config: PipelineConfig) -> tuple:
    # random release: the record's own BIC decision
    _, segments, _, decision = _analyze(record, config)
    return (segments, decision.accepted, _retained_tokens(segments, decision),
            decision.bic_gain)


def _existing_decision(obj: dict[str, Any], record: RolloutRecord,
                       config: PipelineConfig) -> tuple:
    # permute: the decision a prior release output wrote
    def invalid(message: str, key: str = "", position: int | None = None):
        return RecordValidationError(message, field="release" + key,
                                     position=position)

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
    mask = _float_array(mask, "release.prefix_mask")
    bad = (mask != 0.0) & (mask != 1.0)
    if bad.any():
        raise invalid("expected 0 or 1", ".prefix_mask", int(np.argmax(bad)))
    segments = _segment_index_for(record, config)
    retained = int(mask.sum()) if accepted else record.num_tokens
    return segments, accepted, retained, float(gain)


def _transfer_line(raw: bytes, floats: np.ndarray, segments: SegmentIndex,
                   span: tuple[int, int] | None, source: int,
                   decided: tuple[int, bool, int, float],
                   ) -> tuple[tuple[tuple[int, int] | None, bytes], bool]:
    # pass 2: impose a source's decision on a spilled record; raw itself
    # is only echoed, by _write_release
    num_tokens = segments.num_tokens
    assignment = _transferred_release(source, decided, segments)
    prefix_mask = build_prefix_mask(segments, assignment, num_tokens)
    rescaled, scale = _rescale(floats[:num_tokens], floats[num_tokens:],
                               prefix_mask)
    payload = _release_payload(assignment.accepted, assignment.release_segment,
                               assignment.bic_gain, scale, prefix_mask,
                               rescaled)
    return (span, dumps_obj(payload)), assignment.accepted


def _rewrite(spill: BinaryIO, decided: list[tuple], config: PipelineConfig,
             ) -> Iterator[tuple[list[tuple[int, bytes]], list[tuple]]]:
    """Pass 2 as _write_release takes it: each spilled record, in order,
    with the decision of the source the seeded permutation gives it."""
    read = spill.read
    for source in _release_sources(len(decided), config.random_seed):
        (line_number, size, num_tokens, num_segments, num_ids, start,
         end) = _SPILL_HEAD.unpack(read(_SPILL_HEAD.size))
        line = [(line_number, read(size))]
        floats = np.frombuffer(read(16 * num_tokens), np.float64)
        ints = np.frombuffer(read(8 * (num_segments + num_ids)), np.int64)
        segments = SegmentIndex._unchecked(ints[num_segments:],
                                           ints[:num_segments], num_tokens)
        span = (start, end) if start >= 0 else None
        yield line, _run_lines(line, _transfer_line, floats, segments, span,
                               source, decided[source])


def _transfer_batch(input_path: str, output_path: str, config: PipelineConfig,
                    jobs: int, decide: Callable) -> BatchReport:
    # the two passes described in the module docstring
    tally = _BatchTally(config.strict)
    decided: list[tuple] = []
    worker = partial(_run_lines, per_line=partial(_spill_line, config=config,
                                                  decide=decide))
    with tempfile.TemporaryFile() as spill:
        for (line_number, raw), (scalars, head, arrays) in tally.passed(
                _map_chunks(_iter_chunks(input_path), worker, jobs)):
            spill.write(_SPILL_HEAD.pack(line_number, len(raw), *head))
            spill.write(raw)
            spill.write(arrays)
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


def _diagnose_line(raw: bytes, config: PipelineConfig,
                   ) -> tuple[tuple, tuple, tuple]:
    # the record's own bin partials, which the main process adds in line
    # order, so the bins do not depend on how the input was chunked
    record = parse_rollout_line(raw, probs=config.probs)
    margins, segments, _, decision = _analyze(record, config)
    return (_series_bins(sampled_advantage(record), config.num_bins),
            _series_bins(margins.values, config.num_bins),
            _summary_row(decision, segments, record.num_tokens))


def diagnose_batch(input_path: str, out_dir: str,
                   config: PipelineConfig = PipelineConfig()) -> DiagnoseResult:
    """Write bins.csv, margin_bins.csv, and summary.csv for a rollout batch.

    bins.csv bins per-token advantages over normalized position; margin_bins
    holds the normalized margin decay curve; summary.csv aggregates release
    decisions. The bins equal binned_advantage_stats and binned_margin_curve
    over the valid records in input order. Nothing is written when no record
    survives validation.
    """
    _check_out_dir(out_dir)
    jobs = _resolve_jobs(config.jobs)
    worker = partial(_run_lines, per_line=partial(_diagnose_line, config=config))
    tally = _BatchTally(config.strict)
    adv_total = BinAccumulator(config.num_bins)
    margin_total = BinAccumulator(config.num_bins)
    rows: list[tuple] = []

    for _, (adv, margin, row) in tally.passed(
            _map_chunks(_iter_chunks(input_path), worker, jobs)):
        adv_total.add_bins(adv)
        margin_total.add_bins(margin)
        rows.append(row)

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
