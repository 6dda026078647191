"""Streaming JSONL batch processing.

Records are handled in chunks of about _CHUNK_BYTES of input, fanned out to
a process pool when there is more than one chunk and more than one job;
outputs are always written in input order, so results are bit-identical for
any --jobs value. Release output echoes each input line verbatim and splices
in a ``release`` object rather than re-encoding the record, which both
preserves unknown fields and keeps the hot path cheap. Every strategy writes
that object from one ReleaseResult; its ``decision``, a ChangeDecision,
gives ``accepted``, ``release_segment`` and ``bic_gain``. Full and fixed:K,
which run no test, carry one untested decision: not accepted, release
segment -1 and gain 0.0.

Permute reads and parses the input once. Pass 1 checks each line on the
pool and returns the decision its prior release wrote as four scalars,
plus the line's spill record up to the line: a head of six int64s (line
bytes, tokens, segments, segment token ids, release span, empty at the
closing brace when there is no ``release`` key), then the sampled advantage
and loss mask, and the segments' bounds and token ids. The main process
keeps only the scalars and spills each valid line to an anonymous temporary
file (the input's size plus about 24 bytes per token) as that record
followed by the line.
Pass 2 draws the permutation and rewrites the spill in order in the main
process, without the pool; each record's decision is its source's, imposed
on the record's segments by _transferred_release. A line fails only in pass
1, which counts it: pass 2, _rewrite, calls nothing that raises a
TeachcutError, the spill's layout makes those calls' length checks hold,
and validation's log-probability floor keeps every number written finite.

A per-line function takes the raw line and returns a value or raises a
TeachcutError, which _run_lines, the chunk worker, turns into that line's
error text; only the main process, which reads the input, knows line numbers.
"""

from __future__ import annotations

import contextlib
import gc
import json
import logging
import os
import re
import stat
import struct
import sys
import tempfile
from collections import deque
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
                      TeachcutError, _at_line, _check_files, _check_int,
                      _check_real, _float_array, _int_text, decode_line,
                      dumps_obj, iter_jsonl_lines, parse_rollout_line,
                      rollout_from_obj, sampled_advantage)
from .reweight import (ReleaseResult, _release_sources, _transferred_release,
                       build_prefix_mask, rescale_advantages)
from .segmentation import SegmentIndex, aggregate_segment_scores, segment_tokens

logger = logging.getLogger("teachcut")

_STRATEGY_HELP = "bic | full | fixed:K"
_SEGMENT_SOURCES = ("record", "builtin")


def _prefix_tokens(strategy: str) -> int | None:
    """K of a "fixed:K" strategy, None for the others."""
    if strategy in ("bic", "full"):
        return None
    if not isinstance(strategy, str) or not strategy.startswith("fixed:"):
        raise ValueError(f"unknown strategy {strategy!r} "
                         f"(expected {_STRATEGY_HELP})")
    digits = strategy.removeprefix("fixed:")
    # int() would also take signs, spaces, underscores and non-ASCII digits
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid strategy {strategy!r}: "
                         f"K must be an integer in ASCII digits")
    try:
        k = int(digits)
    except ValueError:  # past the digits int() converts; too long to print
        raise ValueError(f"invalid strategy: K must have at most "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if k < 1:
        raise ValueError(f"invalid strategy {strategy!r}: K must be at least 1")
    return k


# A chunk ends at the first line that brings it to this many bytes, so the
# chunks in flight, at most jobs * 2, hold jobs * 2 * (512 KiB + the longest
# line) of input whatever the line size. A task costs about 0.2 ms of CPU,
# while memory is paid per chunk, so chunks stay this small.
_CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class PipelineConfig:
    """Batch-processing knobs. Each field is the dest of the CLI flag that
    sets it and gives that flag its default. ``strategy`` takes the --strategy
    spellings: "bic", "full" or "fixed:K" (keep the first K >= 1 tokens)."""

    support_size: int = 4
    num_bins: int = 20
    gain_threshold: float = 6.0
    strategy: str = "bic"
    segments_source: str = "record"
    strict: bool = False
    jobs: int | None = None
    random_seed: int = 0

    def __post_init__(self) -> None:
        _prefix_tokens(self.strategy)  # raises for an unknown strategy
        for name, least in (("support_size", 2), ("num_bins", 1),
                            ("random_seed", 0)):
            _check_int(name, getattr(self, name), least)
        if self.jobs is not None:
            _check_int("jobs", self.jobs, 1)
            if self.jobs > sys.maxsize:  # _map_chunks's islice stop
                raise ValueError(f"jobs must be at most {sys.maxsize}, "
                                 f"got {_int_text(self.jobs)}")
        if self.segments_source not in _SEGMENT_SOURCES:
            raise ValueError(f"segments_source must be 'record' or 'builtin', "
                             f"got {self.segments_source!r}")
        if not isinstance(self.strict, bool):
            raise ValueError(f"strict must be a bool, got {self.strict!r}")
        # an infinite threshold is legal: no gain lies strictly above it
        _check_real("gain_threshold", self.gain_threshold, finite=False)


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
             ) -> tuple[MarginSeries, SegmentIndex, ChangeDecision]:
    if record.candidates is None:
        raise RecordValidationError("strategy requires top-K candidates",
                                    field="topk")
    margins = teacher_top2_margin(record.candidates,
                                  support_size=config.support_size)
    segments = _segment_index_for(record, config)
    decision = detect_downward_change(aggregate_segment_scores(margins, segments))
    return margins, segments, decision


def dynamic_prefix_reweight(record: RolloutRecord,
                            config: PipelineConfig = PipelineConfig(),
                            ) -> ReleaseResult:
    """Compute one record's prefix mask and mass-preserving reweighting."""
    num_tokens = record.num_tokens
    if config.strategy == "bic":
        _, segments, decision = _analyze(record, config)
        prefix_mask = build_prefix_mask(segments, decision, num_tokens)
    else:  # fixed:K, or full, whose None slices every token
        decision = _UNTESTED
        prefix_mask = np.zeros(num_tokens)
        prefix_mask[:_prefix_tokens(config.strategy)] = 1.0
    rescaled, scale = rescale_advantages(sampled_advantage(record),
                                         record.loss_mask, prefix_mask)
    return ReleaseResult(prefix_mask, scale, rescaled, decision)


# full and fixed:K never run the change-point test
_UNTESTED = ChangeDecision(release_segment=-1, accepted=False, bic_gain=0.0,
                           mu_pre=None, mu_post=None)


def _encode_release(start: int, end: int, result: ReleaseResult) -> tuple:
    """(start, end, the encoded release object, accepted): the first three
    as _splice_release takes them after the raw line."""
    decision = result.decision
    body = dumps_obj({"accepted": decision.accepted,
                      "release_segment": decision.release_segment,
                      "bic_gain": decision.bic_gain, "scale": result.scale,
                      "prefix_mask": result.prefix_mask,
                      "rescaled_advantages": result.rescaled_advantages})
    if start == end:  # a JSON value is never empty: a new member
        body = b',"release":' + body
    return start, end, body, decision.accepted


def _release_span(obj: dict[str, Any], raw: bytes) -> tuple[int, int]:
    """Where the release object goes in raw, as _splice_release takes it:
    the byte span of the top-level "release" value it replaces, so every
    other byte of the line, unknown values included, is echoed exactly as
    read; or, with no such key, the empty span at the closing brace, which
    is the last '}' since only whitespace may follow it in a decoded line.

    A value written last, as release writes it, is found from the tail: the
    last '"release"' is the key when ',' or '{' precedes it and ':' follows,
    up to whitespace, and the trimmed bytes from the ':' to the final '}' open
    with '{', end with '}' and hold no other brace. Other layouts cost a scan
    of the whole line.
    """
    if "release" not in obj:
        end = raw.rindex(b"}")
        return end, end
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


def _splice_release(raw: bytes, start: int, end: int, body: bytes) -> bytes:
    """The output line: raw stripped, with body in place of raw[start:end],
    and a newline. Workers return only _encode_release's value, so the
    ~100 kB echoed line is copied once, by the main process."""
    lead = 0 if raw[:1] == b"{" else len(raw) - len(raw.lstrip())
    return b"".join((memoryview(raw)[lead:start], body, raw[end:].rstrip(),
                     b"\n"))


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


def _map_chunks(chunks: Iterable[Any], worker: Callable[[Any], Any],
                jobs: int | None) -> Iterator[tuple[Any, Any]]:
    """(chunk, worker(chunk)) for each chunk, in order.

    Pooled when jobs > 1, None meaning the available cores, and there is a
    second chunk; one chunk runs in this process, which saves starting and
    stopping the pool. The pool starts one worker per chunk up to jobs, and
    at most jobs * 2 chunks are out at workers, one running and one queued
    per worker. The first chunks, read to size the pool, go straight into
    that window and leave with it, so each is freed once its result is
    consumed. Beyond them, this process holds only the pool's pickled copy
    of the chunk it is sending and the results not yet written.
    """
    chunks, jobs = iter(chunks), _resolve_jobs(jobs)
    head = list(islice(chunks, jobs)) if jobs > 1 else []
    if len(head) < 2:
        for chunk in chain(head, chunks):
            yield chunk, worker(chunk)
        return
    # imported here: a run that starts no pool loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=len(head)) as pool:
        pending = deque((chunk, pool.submit(worker, chunk)) for chunk in head)
        del head
        try:
            for chunk in chunks:
                pending.append((chunk, pool.submit(worker, chunk)))
                if len(pending) >= jobs * 2:
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


def _check_out_dir(input_path: str, out_dir: str) -> tuple[str, str, str]:
    """The paths of bins.csv, margin_bins.csv and summary.csv under out_dir,
    once _check_files finds none a directory or the input, and out_dir is,
    or can be made, a directory. Permissions are not checked."""
    # diagnose writes the CSVs only once all records are read, so they are
    # judged first, by the one rule for every output, records._check_files.
    # It makes out_dir and its missing parents: a missing out_dir holds no
    # CSV yet and needs only a directory at its nearest existing ancestor.
    paths = tuple(os.path.join(out_dir, name) for name in
                  ("bins.csv", "margin_bins.csv", "summary.csv"))
    _check_files(input_path, paths if os.path.isdir(out_dir) else ())
    if not out_dir:
        raise ValueError("output directory must be a non-empty path")
    probe = os.path.abspath(out_dir)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValueError(f"output path is not a directory: {probe}")
    return paths


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
               ) -> Iterator[tuple[bytes, Any]]:
        """(raw, value) for each line that passed, counted, in order, from
        (chunk, _run_lines results) pairs; each other line is an error."""
        for chunk, out in results:
            for (line_number, raw), (error, value) in zip(chunk, out):
                if error:
                    self.record_error(line_number, error)
                else:
                    self.num_records += 1
                    yield raw, value

    def report(self) -> BatchReport:
        rate = self.num_accepted / self.num_records if self.num_records else 0.0
        return BatchReport(self.num_records, len(self.errors),
                           self.num_accepted, rate, tuple(self.errors))


def _write_release(output_path: str, lines: Iterable[tuple[bytes, tuple]],
                   tally: _BatchTally) -> None:
    """Write release lines in order from (raw, (start, end, body, accepted))
    pairs, each a line and its _encode_release value.

    Strict mode aborts on the first bad line and removes the partial output
    when it is a regular file: the file open() wrote, not a symlink that
    names it. A device or pipe is left as it is.
    """
    handle = open(output_path, "wb")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    complete = False
    try:
        for raw, (start, end, body, accepted) in lines:
            handle.write(_splice_release(raw, start, end, body))
            tally.num_accepted += bool(accepted)
        complete = True
    finally:
        handle.close()
        if not complete and regular:
            with contextlib.suppress(OSError):
                os.unlink(os.path.realpath(output_path))


def _run_lines(chunk: Iterable[tuple[int, bytes]],
               per_line: Callable[[bytes], Any]) -> list[tuple[str, Any]]:
    """("", per_line(raw)) for each line of a chunk, or (the error's text,
    None) for a line that raised a TeachcutError. The text names no line;
    _BatchTally.record_error adds that.

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
                out.append(("", per_line(raw)))
            except TeachcutError as exc:
                out.append((str(exc), None))
    finally:
        if enabled:  # the caller's state, also when a line aborts the chunk
            gc.enable()
    return out


# ----------------------------------------------------------------------------
# release


def _release_line(raw: bytes, config: PipelineConfig) -> tuple:
    obj = decode_line(raw)
    result = dynamic_prefix_reweight(rollout_from_obj(obj), config)
    return _encode_release(*_release_span(obj, raw), result)


def process_batch(input_path: str, output_path: str,
                  config: PipelineConfig = PipelineConfig()) -> BatchReport:
    """Run one release strategy over a JSONL file.

    Strict mode aborts on the first bad line and removes the partial output;
    otherwise bad lines are logged, counted, and omitted from the output.
    """
    _check_files(input_path, (output_path,))
    worker = partial(_run_lines, per_line=partial(_release_line, config=config))
    tally = _BatchTally(config.strict)
    _write_release(output_path, tally.passed(
        _map_chunks(_iter_chunks(input_path), worker, config.jobs)), tally)
    return tally.report()


# ----------------------------------------------------------------------------
# the random-release control: permutation of existing outputs


# line bytes, tokens, segments, segment token ids, and the release span
_SPILL_HEAD = struct.Struct("6q")


def _spill_line(raw: bytes, config: PipelineConfig) -> tuple[tuple, bytes]:
    """Pass 1 for one line: the decision as (total tokens, accepted, retained
    tokens, BIC gain), and the line's spill record up to the line: the head,
    its sizes and _release_span, then the arrays pass 2 needs, the sampled
    advantage and loss mask, and the segments' bounds and token ids."""
    obj = decode_line(raw)
    record = rollout_from_obj(obj)
    segments, accepted, retained, gain = _existing_decision(obj, record, config)
    head = _SPILL_HEAD.pack(len(raw), record.num_tokens, len(segments),
                            len(segments.token_ids), *_release_span(obj, raw))
    return ((record.num_tokens, accepted, retained, gain),
            b"".join((head, sampled_advantage(record), record.loss_mask,
                      segments.bounds, segments.token_ids)))


def _existing_decision(obj: dict[str, Any], record: RolloutRecord,
                       config: PipelineConfig) -> tuple:
    # the decision a prior release output wrote
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
    # compared, not converted: an int past float range is refused, not raised
    if type(gain) not in (int, float) or not abs(gain) <= sys.float_info.max:
        raise invalid("expected a finite number", ".bic_gain")
    segment = release.get("release_segment")
    if accepted and (type(segment) is not int or segment < 1):
        raise invalid("expected an integer of at least 1", ".release_segment")
    mask = release.get("prefix_mask")
    if not isinstance(mask, list) or len(mask) != record.num_tokens:
        raise invalid("expected a list with one entry per token", ".prefix_mask")
    mask = _float_array(mask, "release.prefix_mask")
    segments = _segment_index_for(record, config)
    # the mask is build_prefix_mask's, every token when not accepted, on a
    # layout the release may have cut; the first match ends the search
    decision = ChangeDecision(segment, accepted, float(gain), None, None)
    diffs = (build_prefix_mask(layout, decision, record.num_tokens) != mask
             for layout in _release_layouts(record, segments)
             if not accepted or segment <= len(layout))
    first = next(diffs, None)
    if first is None:
        raise invalid("past the record's last segment", ".release_segment")
    if first.any() and all(diff.any() for diff in diffs):
        position = int(np.argmax(first))
        message = (f"not the mask of release_segment {segment}" if accepted
                   else "an unaccepted release keeps every token")
        raise invalid(message if mask[position] in (0.0, 1.0)
                      else "expected 0 or 1", ".prefix_mask", position)
    return segments, accepted, int(mask.sum()), float(gain)


def _release_layouts(record: RolloutRecord,
                     segments: SegmentIndex) -> Iterator[SegmentIndex]:
    """The record's own segments, then its tokens' segmentation, which
    segments, _segment_index_for's index, may already be."""
    if record.segments:
        yield record.segments
    yield (segments if segments is not record.segments
           else segment_tokens(record.token_surfaces))


def _rewrite(spill: BinaryIO, decided: list[tuple], config: PipelineConfig,
             ) -> Iterator[tuple[bytes, tuple]]:
    """Pass 2 as _write_release takes it: each spilled line, in order, with
    the release of the decision the seeded permutation gives it from its
    source, imposed on the line's segments. The line itself is only echoed."""
    read = spill.read
    for source in _release_sources(len(decided), config.random_seed):
        (size, num_tokens, num_segments, num_ids, start,
         end) = _SPILL_HEAD.unpack(read(_SPILL_HEAD.size))
        floats = np.frombuffer(read(16 * num_tokens), np.float64)
        ints = np.frombuffer(read(8 * (num_segments + num_ids)), np.int64)
        raw = read(size)
        segments = SegmentIndex._unchecked(ints[num_segments:],
                                           ints[:num_segments], num_tokens)
        decision = _transferred_release(decided[source], segments)
        mask = build_prefix_mask(segments, decision, num_tokens)
        rescaled, scale = rescale_advantages(floats[:num_tokens],
                                             floats[num_tokens:], mask)
        yield raw, _encode_release(start, end, ReleaseResult(
            mask, scale, rescaled, decision))


def permute_batch(input_path: str, output_path: str,
                  config: PipelineConfig = PipelineConfig()) -> BatchReport:
    """Permute release points across an existing release output, such as
    process_batch writes: the random-release control.

    Reads each record's decision back from its ``release`` object (retained
    tokens from the prefix mask), reassigns decisions by a seeded uniform
    permutation, and rewrites the release objects in place, in the module
    docstring's two passes. The multiset of relative release positions is
    preserved up to segment-boundary snapping on the receiving rollout.
    """
    _check_files(input_path, (output_path,))
    tally = _BatchTally(config.strict)
    decided: list[tuple] = []
    worker = partial(_run_lines, per_line=partial(_spill_line, config=config))
    with tempfile.TemporaryFile() as spill:
        for raw, (scalars, record) in tally.passed(
                _map_chunks(_iter_chunks(input_path), worker, config.jobs)):
            spill.write(record)
            spill.write(raw)
            decided.append(scalars)
        spill.seek(0)
        _write_release(output_path, _rewrite(spill, decided, config), tally)
    return tally.report()


# ----------------------------------------------------------------------------
# diagnostics over a batch


def _diagnose_line(raw: bytes, config: PipelineConfig,
                   ) -> tuple[tuple, tuple, tuple]:
    # the record's own bin partials, which the main process adds in line
    # order, so the bins do not depend on how the input was chunked
    record = parse_rollout_line(raw)
    margins, segments, decision = _analyze(record, config)
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
    bins_path, margin_path, summary_path = _check_out_dir(input_path, out_dir)
    worker = partial(_run_lines, per_line=partial(_diagnose_line, config=config))
    tally = _BatchTally(config.strict)
    adv_total = BinAccumulator(config.num_bins)
    margin_total = BinAccumulator(config.num_bins)
    rows: list[tuple] = []

    for _, (adv, margin, row) in tally.passed(
            _map_chunks(_iter_chunks(input_path), worker, config.jobs)):
        adv_total.add_bins(adv)
        margin_total.add_bins(margin)
        rows.append(row)

    tally.num_accepted = sum(1 for row in rows if row[0])
    if not rows:
        return DiagnoseResult(tally.report(), None, None, None, ())

    advantage_bins = _finalize(adv_total, normalize_means=False)
    margin_bins = _finalize(margin_total, normalize_means=True)
    summary = _summary_from_rows(rows, config.gain_threshold)

    os.makedirs(out_dir, exist_ok=True)
    write_bins_csv(advantage_bins, bins_path)
    write_bins_csv(margin_bins, margin_path)
    write_summary_csv(summary, summary_path)
    return DiagnoseResult(tally.report(), summary, advantage_bins, margin_bins,
                          (bins_path, margin_path, summary_path))
