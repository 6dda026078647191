"""Seeded input files for the three benchmark workloads.

Every input is a pure function of (workload, seed): the seed picks ids,
noise, planted drops, which records are ragged or carry no segments, and where
the malformed lines sit. Record sizes are stratified, so the total work in a
batch is the same for every seed and only its arrangement changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from teachcut import generate_rollout, rollout_to_obj

# Records in one batch call. Both dense workloads send several 64-line
# chunks to every worker of a two-core pool.
RELEASE_RECORDS = 512
PERMUTE_RECORDS = 256

# diagnose_ragged: one record per (segments, tokens-per-segment) cell of this
# grid, 20..200 segments by 1..12 tokens, so every seed has the same token
# total. The per-segment sizes inside a record are jittered around the cell's
# value with the record's token count held fixed.
RAGGED_SEGMENT_COUNTS = tuple(range(20, 201, 18))       # 11 values
RAGGED_TOKENS_PER_SEGMENT = tuple(range(1, 13))         # 12 values
RAGGED_REPEATS = 2                                      # 264 valid records
RAGGED_SHORT_ROWS = 3         # short top-K rows in each ragged record
TOP_K = 4

# One malformed line of each kind, as "logged, counted, and skipped" lines.
# Expected field is what RecordValidationError.field must name; "json" stands
# for a RecordParseError. An integer 2**70 in topk.ids is left out: it raises
# OverflowError and aborts the whole non-strict batch (a known defect).
MALFORMED_KINDS = (
    ("bad_json", "json"),
    ("nan_logp", "teacher_logp"),
    ("unsorted_topk", "topk.student_logp"),
    ("segment_out_of_range", "segments"),
)


@dataclass
class Batch:
    """One workload input file plus what the generator planted in it."""

    path: str
    num_lines: int
    # line number (1-based) -> expected rejection field, for planted bad lines
    planted: dict[int, str] = field(default_factory=dict)
    tokens: int = 0          # over valid records
    segments: int = 0        # over valid records
    ragged: int = 0          # valid records with at least one short top-K row
    builtin: int = 0         # valid records without a segments field


def _template_line() -> bytes:
    # The throughput-gate record: 100 segments x 10 tokens, uniform K=4, with
    # a planted drop after segment 50; written by the stdlib encoder.
    record, _ = generate_rollout(
        np.concatenate([np.full(50, 1.0), np.full(50, 0.1)]),
        tokens_per_segment=10, support_size=TOP_K)
    return json.dumps(rollout_to_obj(record)).encode()


def write_dense(path: str, seed: int, num_records: int) -> Batch:
    """The template record under seeded unique ids of fixed width."""
    template = _template_line()
    ids = np.random.default_rng([seed, 1]).choice(10**6, num_records,
                                                  replace=False)
    with open(path, "wb") as handle:
        for rid in ids:
            line = template.replace(b"sim-000000", b"sim-%06d" % rid, 1)
            handle.write(line + b"\n")
    return Batch(path, num_records, tokens=1000 * num_records,
                 segments=100 * num_records)


def _segment_sizes(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    # Move d tokens between random pairs of segments; sizes stay in [1, 12]
    # and their sum stays count * size.
    sizes = np.full(count, size, dtype=np.int64)
    room = min(size - 1, 12 - size)
    if room == 0:
        return sizes
    order = rng.permutation(count)
    for a, b in zip(order[0::2], order[1::2]):
        d = int(rng.integers(0, room + 1))
        sizes[a] += d
        sizes[b] -= d
    return sizes


def _ragged_obj(rng: np.random.Generator, seed: int, index: int,
                num_segments: int, tokens_per_segment: int) -> dict:
    sizes = _segment_sizes(rng, num_segments, tokens_per_segment)
    if rng.random() < 0.5:
        tau = int(rng.integers(1, num_segments))
        means = np.full(num_segments, rng.uniform(0.8, 2.0))
        means[tau:] = rng.uniform(0.0, 0.5)
    else:
        means = np.full(num_segments, rng.uniform(0.3, 1.5))
    record, _ = generate_rollout(np.repeat(means, sizes), tokens_per_segment=1,
                                 support_size=TOP_K, noise_std=0.3, seed=seed,
                                 index=index, rollout_id=f"rag-{seed}-{index:05d}")
    obj = rollout_to_obj(record)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    tokens = ["tok"] * int(ends[-1])
    for end in ends:
        tokens[int(end) - 1] = "end."
    obj["tokens"] = tokens
    obj["segments"] = [list(range(int(s), int(e))) for s, e in zip(starts, ends)]
    return obj


def _make_short_rows(rng: np.random.Generator, obj: dict) -> None:
    # Truncating a row keeps it sorted and keeps the teacher's top two.
    topk = obj["topk"]
    rows = rng.choice(len(obj["tokens"]), RAGGED_SHORT_ROWS, replace=False)
    for t in rows:
        keep = int(rng.integers(2, TOP_K))
        for key in ("ids", "student_logp", "teacher_logp"):
            topk[key][t] = topk[key][t][:keep]


def _malformed_line(rng: np.random.Generator, obj: dict, kind: str) -> bytes:
    obj = json.loads(json.dumps(obj))
    num_tokens = len(obj["tokens"])
    t = int(rng.integers(0, num_tokens))
    if kind == "bad_json":
        return json.dumps(obj).encode()[:-7]
    if kind == "nan_logp":
        obj["teacher_logp"][t] = float("nan")
    elif kind == "unsorted_topk":
        row = obj["topk"]["student_logp"][t]
        row[0], row[1] = row[1], row[0]
    elif kind == "segment_out_of_range":
        obj["segments"][-1][-1] = num_tokens
    return json.dumps(obj).encode()


def write_ragged(path: str, seed: int) -> Batch:
    """Noisy generate_rollout records of varied length, plus malformed lines."""
    rng = np.random.default_rng([seed, 2])
    cells = [(n, k) for n in RAGGED_SEGMENT_COUNTS
             for k in RAGGED_TOKENS_PER_SEGMENT] * RAGGED_REPEATS
    order = rng.permutation(len(cells))
    num_valid = len(cells)
    ragged = set(rng.choice(num_valid, num_valid // 2, replace=False).tolist())
    builtin = set(rng.choice(num_valid, num_valid // 3, replace=False).tolist())
    bad_at = rng.choice(num_valid, len(MALFORMED_KINDS), replace=False).tolist()
    bad_kind = dict(zip(bad_at, MALFORMED_KINDS))

    batch = Batch(path, 0)
    with open(path, "wb") as handle:
        for i, cell in enumerate(order):
            obj = _ragged_obj(rng, seed, i, *cells[cell])
            if i in bad_kind:
                kind, expected = bad_kind[i]
                batch.num_lines += 1
                handle.write(_malformed_line(rng, obj, kind) + b"\n")
                batch.planted[batch.num_lines] = expected
            if i in ragged:
                _make_short_rows(rng, obj)
                batch.ragged += 1
            if i in builtin:
                del obj["segments"]
                batch.builtin += 1
            batch.num_lines += 1
            batch.tokens += len(obj["tokens"])
            batch.segments += cells[cell][0]
            handle.write(json.dumps(obj).encode() + b"\n")
    return batch
