"""Rollout data model, JSONL parsing, and schema validation.

One rollout per JSONL line:

    {"rollout_id": str, "tokens": [str], "teacher_logp": [f64],
     "student_logp": [f64], "loss_mask": [f64],
     "topk": {"ids": [[int]], "student_logp": [[f64]], "teacher_logp": [[f64]]},
     "segments": [[int]]?}

All per-token sequences share length T. ``topk`` and ``segments`` are optional;
strategies that need candidates raise when they are absent rather than degrade.
Unknown fields are ignored (and preserved verbatim by the batch writer).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np
import orjson

# Floor applied when --probs converts probabilities to logs.
PROB_FLOOR = 1e-12
# Least log-probability a record may hold: every advantage and margin then
# lies within +-1e100, so no square, rescale or batch sum passes float range.
LOGP_FLOOR = -1e100


class TeachcutError(Exception):
    """Base class for errors raised by this package."""

    def __reduce__(self):
        # rebuilt from args and attributes without __init__, whose
        # parameters are not args, so an error crosses a process pool intact
        return Exception.__new__, (type(self), *self.args), self.__dict__


def _at_line(line_number: int, message: str) -> str:
    return f"line {line_number}: {message}"


class _RecordError(TeachcutError):
    """A line that does not give a record; str() names the line when
    ``line_number`` is set."""

    line_number: int | None = None

    def __str__(self) -> str:
        message = super().__str__()
        if self.line_number is None:
            return message
        return _at_line(self.line_number, message)


class RecordParseError(_RecordError):
    """A line is not well-formed JSON."""

    def __init__(self, message: str, *, byte_offset: int | None = None) -> None:
        self.byte_offset = byte_offset
        suffix = f" (byte offset {byte_offset})" if byte_offset is not None else ""
        super().__init__(f"invalid JSON: {message}{suffix}")


class RecordValidationError(_RecordError):
    """A decoded record violates a schema invariant."""

    def __init__(self, message: str, *, field: str,
                 position: int | None = None) -> None:
        self.field = field
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"{field}{where}: {message}")


class DataProcessingError(TeachcutError):
    """Raised in strict mode when a batch aborts on its first bad record."""

    def __init__(self, line_number: int, message: str) -> None:
        self.line_number = line_number
        super().__init__(
            f"strict mode: aborting at {_at_line(line_number, message)}")


def _check_int(name: str, value: Any, least: int) -> None:
    """Raise ValueError naming ``name`` unless value is an int, not a bool,
    and is at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")


def _check_real(name: str, value: Any, *, finite: bool = True) -> float:
    """Return value as a float; raise ValueError naming ``name`` unless it
    is an int or a float, not a bool, in float range and not NaN, and
    finite when ``finite`` is set."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past float range; too long to print
        raise ValueError(f"{name} must lie in float range") from None
    if finite and not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    if math.isnan(number):
        raise ValueError(f"{name} must not be NaN")
    return number


@dataclass(frozen=True)
class TopKCandidates:
    """Per-position candidate sets held flat, in position order.

    ``ids`` (int64), ``student_logp`` and ``teacher_logp`` (float64) hold
    the concatenated rows, and ``lengths`` (int64) one candidate count per
    position, so row t is the ``lengths[t]`` entries after the first
    ``lengths[:t].sum()``: the student's top candidates at position t,
    ordered by descending student probability. Memory is linear in the
    candidates, however unequal the rows.
    """

    ids: np.ndarray
    student_logp: np.ndarray
    teacher_logp: np.ndarray
    lengths: np.ndarray

    def row_lengths(self) -> np.ndarray:
        return self.lengths


class SegmentIndex:
    """Ordered, disjoint, non-empty token-index groups within one response,
    held flat.

    ``token_ids`` (int64) is strictly increasing inside [0, num_tokens);
    ``bounds`` (int64) holds one cumulative token count per segment, so
    segment i is ``token_ids[bounds[i - 1]:bounds[i]]`` (from 0 for i = 0)
    and the first s segments are ``token_ids[:bounds[s - 1]]``. Iterating
    yields the segments as views.
    """

    __slots__ = ("token_ids", "bounds", "num_tokens")

    def __init__(self, segments: Iterable[Sequence[int]], num_tokens: int) -> None:
        """Build from token-index sequences under the check a record's
        ``segments`` field gets: empties dropped, indices strictly
        increasing across the segments and inside [0, num_tokens). Raises
        RecordValidationError naming the first failing segment."""
        rows = [seg.tolist() if isinstance(seg, np.ndarray) else seg
                for seg in segments]
        self.token_ids, self.bounds = _segments_from_obj(rows, num_tokens)
        self.num_tokens = num_tokens

    @classmethod
    def _unchecked(cls, token_ids: np.ndarray, bounds: np.ndarray,
                   num_tokens: int) -> "SegmentIndex":
        # for layouts valid by construction or checked already
        index = cls.__new__(cls)
        index.token_ids, index.bounds, index.num_tokens = (token_ids, bounds,
                                                           num_tokens)
        return index

    def __len__(self) -> int:
        return len(self.bounds)

    def __iter__(self) -> Iterator[np.ndarray]:
        ends = self.bounds.tolist()
        return (self.token_ids[lo:hi] for lo, hi in zip([0, *ends], ends))


@dataclass(frozen=True)
class RolloutRecord:
    """One student rollout with per-token teacher/student log-probs."""

    rollout_id: str
    token_surfaces: list[str]
    sampled_teacher_logp: np.ndarray
    sampled_student_logp: np.ndarray
    loss_mask: np.ndarray
    candidates: TopKCandidates | None = None
    segments: SegmentIndex | None = None

    @property
    def num_tokens(self) -> int:
        return len(self.token_surfaces)


def sampled_advantage(record: RolloutRecord) -> np.ndarray:
    """Per-token advantage: teacher log-prob minus student log-prob."""
    return record.sampled_teacher_logp - record.sampled_student_logp


# ----------------------------------------------------------------------------
# decoding


def decode_line(line: bytes | str, *, line_number: int | None = None) -> Any:
    """Decode one JSONL line to a Python object."""
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:
        pass
    # stdlib accepts a superset (NaN literals); prefer its byte-offset
    # errors, and let validation reject non-finite values by field. Any
    # other error of the retry, such as an integer past CPython's digit
    # limit or a line nested past its recursion limit, is the line's too.
    try:
        if isinstance(line, bytes):
            # strict UTF-8, as orjson reads it: the retry would decode a
            # surrogate's bytes through "surrogatepass"
            line.decode("utf-8")
        return json.loads(line)
    except json.JSONDecodeError as exc:
        offset = len(exc.doc[:exc.pos].encode("utf-8", "surrogatepass"))
        error = RecordParseError(exc.msg, byte_offset=offset)
    except UnicodeDecodeError as exc:
        error = RecordParseError(exc.reason, byte_offset=exc.start)
    except (ValueError, RecursionError) as exc:
        error = RecordParseError(str(exc))
    error.line_number = line_number
    raise error


def dumps_obj(obj: Any) -> bytes:
    """Compact UTF-8 JSON; floats in orjson's shortest form (``0.00001``).

    Contiguous numpy arrays are written directly, as their tolist() would be.
    """
    return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY)


# ----------------------------------------------------------------------------
# validation


def _pack(values: list, typecode: str) -> np.ndarray:
    """A flat list of numbers as a float64 ("d") or int64 ("q") array.

    struct converts each value exactly as float() or an int64 index would,
    and raises struct.error, TypeError or OverflowError for anything else: a
    string, null or nested list is refused rather than parsed or broadcast,
    and for "q" so is a float (orjson decodes integers wider than 64 bits as
    floats) or an int beyond 64 bits.
    """
    return np.frombuffer(struct.pack(f"{len(values)}{typecode}", *values),
                         dtype=typecode)


_BAD_NUMBER = (struct.error, TypeError, OverflowError)


def _float_array(values: list, field: str) -> np.ndarray:
    try:
        return _pack(values, "d")
    except _BAD_NUMBER:
        raise RecordValidationError("expected an array of numbers",
                                    field=field) from None


def _check_logp(arr: np.ndarray, field: str,
                ends: np.ndarray | None = None) -> None:
    """Raise unless each log-probability lies in [LOGP_FLOOR, 0]; the error
    names the first bad entry, or its row given flat top-K rows' ``ends``."""
    if LOGP_FLOOR <= arr.min() and arr.max() <= 0.0:  # a NaN fails both
        return
    for bad, message in ((~np.isfinite(arr), "not finite"), (arr > 0.0, "> 0"),
                         (arr < LOGP_FLOOR, f"below {LOGP_FLOOR:g}")):
        if bad.any():
            first = int(np.argmax(bad))
            raise RecordValidationError(
                f"log-probability {message}", field=field,
                position=first if ends is None else _row_of(ends, bad))


def _rows_array(rows: Any, typecode: str) -> tuple[np.ndarray, list[int]]:
    """Concatenated list rows as one array of the _pack typecode, with the
    row lengths. Raises as _pack does, and TypeError unless rows is a list
    of lists.

    Rows are not type-checked one by one: a row that is not a list fails to
    extend (a number or null) or adds strings that _pack refuses, except one
    that yields nothing (``""`` or ``{}``), which the check of the empty rows
    catches.
    """
    if type(rows) is not list:
        raise TypeError("expected a list of rows")
    flat: list = []
    extend = flat.extend
    for row in rows:
        extend(row)
    lens = list(map(len, rows))
    if 0 in lens and not all(type(row) is list for row in rows):
        raise TypeError("expected a list of lists")
    return _pack(flat, typecode), lens


def _topk_rows(topk: dict, key: str, typecode: str) -> tuple[np.ndarray, list[int]]:
    try:
        return _rows_array(topk[key], typecode)
    except _BAD_NUMBER:
        kind = "64-bit integers" if typecode == "q" else "numbers"
        raise RecordValidationError(
            f"expected a list of per-position lists of {kind}",
            field=f"topk.{key}") from None


def _candidates_from_obj(topk: Any, num_tokens: int, probs: bool) -> TopKCandidates:
    if not isinstance(topk, dict):
        raise RecordValidationError("expected an object", field="topk")
    for key in ("ids", "student_logp", "teacher_logp"):
        if key not in topk:
            raise RecordValidationError("missing field", field=f"topk.{key}")

    ids, id_lens = _topk_rows(topk, "ids", "q")
    student, st_lens = _topk_rows(topk, "student_logp", "d")
    teacher, te_lens = _topk_rows(topk, "teacher_logp", "d")

    if len(id_lens) != num_tokens:
        raise RecordValidationError(
            f"length mismatch: {len(id_lens)} positions, expected {num_tokens}",
            field="topk.ids")
    if st_lens != id_lens:
        raise RecordValidationError("length mismatch against topk.ids",
                                    field="topk.student_logp")
    if te_lens != id_lens:
        raise RecordValidationError("length mismatch against topk.ids",
                                    field="topk.teacher_logp")
    lengths = _pack(id_lens, "q")
    shortest = int(lengths.argmin())
    if lengths[shortest] < 2:
        raise RecordValidationError("fewer than 2 candidates",
                                    field="topk.ids", position=shortest)

    if probs:
        student = np.log(np.maximum(student, PROB_FLOOR))
        teacher = np.log(np.maximum(teacher, PROB_FLOOR))
    ends = np.cumsum(lengths)
    _check_logp(student, "topk.student_logp", ends)
    _check_logp(teacher, "topk.teacher_logp", ends)
    _check_student_order(ids, student, ends)
    return TopKCandidates(ids, student, teacher, lengths)


def _check_student_order(ids: np.ndarray, student: np.ndarray,
                         ends: np.ndarray) -> None:
    # top-K ordering: student_logp non-increasing, exact ties by ascending id.
    # Checked on the flat rows: the diff of each pair that crosses a row
    # boundary is set to -inf, neither a rise nor a tie. Every row holds at
    # least 2 candidates, so those pairs are distinct.
    diff = np.diff(student)
    diff[ends[:-1] - 1] = -np.inf
    rise = diff > 0.0
    if rise.any():
        raise RecordValidationError("not sorted by descending student log-prob",
                                    field="topk.student_logp",
                                    position=_row_of(ends, rise))
    bad = (diff == 0.0) & (ids[1:] <= ids[:-1])
    if bad.any():
        raise RecordValidationError(
            "tied student log-probs must order by ascending candidate id",
            field="topk.ids", position=_row_of(ends, bad))


def _row_of(ends: np.ndarray, flags: np.ndarray) -> int:
    """The row holding the first flagged entry of flat rows, or the first
    entry of the first flagged pair of their diff."""
    return int(np.searchsorted(ends, np.argmax(flags), side="right"))


def _segments_from_obj(raw: Any, num_tokens: int) -> tuple[np.ndarray, np.ndarray]:
    # SegmentIndex's (token_ids, bounds). One check on the concatenated
    # indices: strictly increasing and inside [0, num_tokens) holds exactly
    # when every segment is ascending, in range, and starts after the last
    # non-empty one ends. Empty segments are dropped.
    if not isinstance(raw, list):
        raise RecordValidationError("expected a list of token-index lists",
                                    field="segments")
    try:
        flat, lens = _rows_array(raw, "q")
    except _BAD_NUMBER:
        pass
    else:
        if flat.size == 0 or (flat[0] >= 0 and flat[-1] < num_tokens
                              and (flat[1:] > flat[:-1]).all()):
            counts = np.array(lens, dtype=np.int64)
            return flat, np.cumsum(counts)[counts > 0]
    raise _segments_error(raw, num_tokens)


def _segments_error(raw: list, num_tokens: int) -> RecordValidationError:
    """The error naming the first segment that fails the combined check."""
    prev_last = -1
    for i, entry in enumerate(raw):
        if not (isinstance(entry, list)
                and all(isinstance(v, int) for v in entry)):
            message = "expected a flat list of integers"
        elif not entry:
            continue
        elif any(b <= a for a, b in zip(entry, entry[1:])):
            message = "token indices not strictly ascending"
        elif entry[0] < 0 or entry[-1] >= num_tokens:
            message = f"token index out of range [0, {num_tokens})"
        elif entry[0] <= prev_last:
            message = "segments overlap or are out of order"
        else:
            prev_last = entry[-1]
            continue
        return RecordValidationError(message, field="segments", position=i)
    raise AssertionError("segments passed every per-segment check")


def rollout_from_obj(obj: Any, *, probs: bool = False,
                     line_number: int | None = None) -> RolloutRecord:
    """Validate a decoded JSON object and build a RolloutRecord.

    ``probs`` treats the topk arrays as probabilities and converts them via
    natural log with floor PROB_FLOOR; the sampled log-prob arrays are never
    converted.
    """
    try:
        return _rollout_from_obj(obj, probs)
    except _RecordError as exc:
        exc.line_number = line_number
        raise


def _rollout_from_obj(obj: Any, probs: bool) -> RolloutRecord:
    if not isinstance(obj, dict):
        raise RecordParseError("top-level value is not an object")
    for key in ("rollout_id", "tokens", "teacher_logp", "student_logp", "loss_mask"):
        if key not in obj:
            raise RecordValidationError("missing field", field=key)

    rollout_id = obj["rollout_id"]
    if not isinstance(rollout_id, str):
        raise RecordValidationError("expected a string", field="rollout_id")

    tokens = obj["tokens"]
    if not isinstance(tokens, list) or set(map(type, tokens)) != {str}:
        raise RecordValidationError("expected a non-empty list of strings",
                                    field="tokens")
    num_tokens = len(tokens)

    arrays = {}
    for key in ("teacher_logp", "student_logp", "loss_mask"):
        raw = obj[key]
        if not isinstance(raw, list):
            raise RecordValidationError("expected an array of numbers", field=key)
        if len(raw) != num_tokens:
            raise RecordValidationError(
                f"length mismatch: {len(raw)} values, expected {num_tokens}",
                field=key)
        arrays[key] = _float_array(raw, key)

    _check_logp(arrays["teacher_logp"], "teacher_logp")
    _check_logp(arrays["student_logp"], "student_logp")

    mask = arrays["loss_mask"]
    bad = ~np.isfinite(mask) | (mask < 0.0) | (mask > 1.0)
    if bad.any():
        raise RecordValidationError("loss_mask values must lie in [0, 1]",
                                    field="loss_mask",
                                    position=int(np.argmax(bad)))
    if not (mask > 0.0).any():
        raise RecordValidationError("loss_mask has no positive entries",
                                    field="loss_mask")

    candidates = None
    if obj.get("topk") is not None:
        candidates = _candidates_from_obj(obj["topk"], num_tokens, probs)

    segments = None
    if obj.get("segments") is not None:
        segments = SegmentIndex._unchecked(
            *_segments_from_obj(obj["segments"], num_tokens), num_tokens)

    return RolloutRecord(rollout_id=rollout_id, token_surfaces=tokens,
                         sampled_teacher_logp=arrays["teacher_logp"],
                         sampled_student_logp=arrays["student_logp"],
                         loss_mask=mask, candidates=candidates, segments=segments)


def parse_rollout_line(line: bytes | str, *, probs: bool = False,
                       line_number: int | None = None) -> RolloutRecord:
    """Parse and validate one JSONL line."""
    return rollout_from_obj(decode_line(line, line_number=line_number),
                            probs=probs, line_number=line_number)


# ----------------------------------------------------------------------------
# serialization


def rollout_to_obj(record: RolloutRecord) -> dict[str, Any]:
    """Serializable dict in the JSONL schema; inverse of rollout_from_obj."""
    obj: dict[str, Any] = {
        "rollout_id": record.rollout_id,
        "tokens": list(record.token_surfaces),
        "teacher_logp": record.sampled_teacher_logp.tolist(),
        "student_logp": record.sampled_student_logp.tolist(),
        "loss_mask": record.loss_mask.tolist(),
    }
    cand = record.candidates
    if cand is not None:
        ends = np.cumsum(cand.lengths).tolist()
        starts = [0, *ends[:-1]]
        obj["topk"] = {
            key: [flat[lo:hi] for lo, hi in zip(starts, ends)]
            for key, flat in (("ids", cand.ids.tolist()),
                              ("student_logp", cand.student_logp.tolist()),
                              ("teacher_logp", cand.teacher_logp.tolist()))}
    if record.segments is not None:
        obj["segments"] = [seg.tolist() for seg in record.segments]
    return obj


def _check_files(input_path: str | None, outputs: Sequence[str]) -> None:
    """Raise ValueError, before anything is opened (opening an output
    truncates it), unless the input, when given, is a regular file and each
    output, judged on the file open() reaches through symlinks, is reached
    (realpath leaves a symlink loop unresolved), has an existing directory,
    is not one (a trailing "/" names one), and is neither the input nor an
    earlier output, by real path or as one file."""
    if input_path is not None and not os.path.isfile(input_path):
        raise ValueError(f"input file not found: {input_path}")
    earlier = [] if input_path is None else [(input_path, True)]
    for path in outputs:
        real = os.path.realpath(path)
        if os.path.islink(real):
            raise ValueError(f"output path is a symlink loop: {path!r}")
        directory = os.path.dirname(real)
        if not os.path.isdir(directory):
            raise ValueError(f"output directory not found: {directory}")
        if not os.path.basename(path) or os.path.isdir(real):
            raise ValueError(f"output path names a directory: {path!r}")
        for other, is_input in earlier:
            # samefile stats both, so only once both exist
            if real == os.path.realpath(other) or (
                    os.path.exists(real) and os.path.exists(other)
                    and os.path.samefile(real, other)):
                raise ValueError(
                    "output path must differ from input path" if is_input
                    else f"two outputs name one file: {other} and {path}")
        earlier.append((path, False))


def iter_jsonl_lines(path: str) -> Iterator[tuple[int, bytes]]:
    """Yield (line_number, raw_line) pairs, skipping blank lines: those of
    JSON whitespace only. bytes.isspace() also takes \\v and \\f."""
    # a buffer over twice the ~100 kB lines lets readline find most lines in
    # one read; the default 8 kB buffer makes it stitch each from 12 pieces
    with open(path, "rb", buffering=1 << 18) as handle:
        for line_number, raw in enumerate(handle, start=1):
            if not raw.isspace() or raw.strip(b" \t\r\n"):
                yield line_number, raw
