"""Builders shared across test modules."""

import json
import os

import numpy as np

from teachcut.records import TopKCandidates


def valid_obj(num_tokens=4, num_candidates=3):
    """A schema-valid rollout dict with descending candidate log-probs."""
    tokens = ["tok"] * (num_tokens - 1) + ["end."]
    return {
        "rollout_id": "r0",
        "tokens": tokens,
        "teacher_logp": [-0.2] * num_tokens,
        "student_logp": [-0.4] * num_tokens,
        "loss_mask": [1.0] * num_tokens,
        "topk": {
            "ids": [list(range(num_candidates)) for _ in range(num_tokens)],
            "student_logp": [[-0.5 * (j + 1) for j in range(num_candidates)]
                             for _ in range(num_tokens)],
            "teacher_logp": [[-0.1 - 0.3 * j for j in range(num_candidates)]
                             for _ in range(num_tokens)],
        },
        "segments": [list(range(num_tokens))],
    }


def reshaped_topk(obj, widths):
    """A copy of obj with top-K row t cut or extended to widths[t]
    candidates. Added candidates rank below the row's existing ones for
    both models, so they leave a support of the row's first candidates, and
    its margin, as they were."""
    obj = json.loads(json.dumps(obj))
    topk = obj["topk"]
    for t, width in widths.items():
        ids, student, teacher = (topk[key][t] for key in
                                 ("ids", "student_logp", "teacher_logp"))
        extra = range(len(ids), width)
        ids += [max(ids) + 1 + j for j in extra]
        student += [min(student) - 0.5 * (j + 1) for j in extra]
        teacher += [min(teacher) - 0.5 * (j + 1) for j in extra]
        for row in (ids, student, teacher):
            del row[width:]
    return obj


def to_line(obj):
    return json.dumps(obj).encode()


def write_jsonl(path, objs):
    with open(path, "wb") as handle:
        for obj in objs:
            handle.write(to_line(obj) + b"\n")
    return str(path)


def candidates_from_rows(ids_rows, student_rows, teacher_rows):
    """Unchecked TopKCandidates from per-position candidate lists."""
    def flat(rows, dtype):
        return np.array([v for row in rows for v in row], dtype=dtype)
    lengths = np.array([len(row) for row in ids_rows], dtype=np.int64)
    return TopKCandidates(flat(ids_rows, np.int64),
                          flat(student_rows, np.float64),
                          flat(teacher_rows, np.float64), lengths)


def snapshot(root):
    """Every path under root: a symlink's target, so that a link removed or
    retargeted shows, each other file's bytes, and None for a directory."""
    return {str(p): ("link", os.readlink(p)) if p.is_symlink()
            else p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def no_reading(path):
    """A stand-in for iter_jsonl_lines that fails the test if it is called."""
    raise AssertionError("a record was read")
