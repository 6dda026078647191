"""The golden-output manifest: a fixed matrix of seeded inputs, commands and
--jobs values, and the sha256 of what each run writes.

Each entry of ``golden.json`` holds, for one input, command and job count,
the sha256 of every output file, the report's record, accepted and error
counts and the sha256 of its error list. The manifest also holds each
input's sha256 and the numpy and orjson versions it was written with: the
inputs' bytes rest on numpy's PCG64 stream, and the outputs' on orjson's
float text, so a new version of either may change a hash with no change to
the program. The tier-1 workflow installs both versions, and a manifest
written under others moves its pins too, which ``tests/test_demos.py``
checks. ``tests/test_golden.py`` runs the matrix and checks it.

A change that alters outputs by design rewrites the manifest,

    PYTHONPATH=src python3 tests/golden.py --write

and names each changed entry, with the reason.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from teachcut.pipeline import (PipelineConfig, diagnose_batch, permute_batch,
                               process_batch)
from teachcut.records import orjson, rollout_to_obj
from teachcut.synthetic import SyntheticConfig, generate_rollout, write_dataset

import test_hostile_lines

MANIFEST = Path(__file__).with_name("golden.json")
JOBS = (1, 2)
CSVS = ("bins.csv", "margin_bins.csv", "summary.csv")
# release modes, as the CLI spells them, and their configs
RELEASES = {
    "release bic": dict(strategy="bic"),
    "release full": dict(strategy="full"),
    "release fixed:7": dict(strategy="fixed:7"),
    "release fixed:5000": dict(strategy="fixed:5000"),
    "release --segments builtin": dict(segments_source="builtin"),
    "release --top-k 2": dict(support_size=2),
}
# permute refuses each line of a fixed:7 output that keeps fewer than all
# its tokens, which is every line here
PERMUTED = ("release bic", "release full", "release fixed:5000",
            "release --segments builtin")
PERMUTE_SEED = 5
# diagnose at the defaults, and with each of its own settings moved off them
DIAGNOSES = {
    "diagnose": {},
    "diagnose --top-k 2 --bins 7 --gain-threshold 2":
        dict(support_size=2, num_bins=7, gain_threshold=2.0),
}


def dense_lines() -> list[bytes]:
    """16 noiseless records of 1000 tokens in 100 segments, about 95 kB
    each, so a 2-job run starts a pool on 3 chunks; each plants its drop
    after a different segment, every fourth plants none, and the means
    before the drop differ, so that the first bin's spread is not zero."""
    lines = []
    for index in range(16):
        means = np.full(100, 1.0 + 0.25 * (index % 4))
        if index % 4 != 3:
            means[10 + 5 * index:] = 0.1
        record, _ = generate_rollout(means, tokens_per_segment=10,
                                     index=index)
        lines.append(json.dumps(rollout_to_obj(record)).encode())
    return lines


def ragged_lines() -> list[bytes]:
    """About 1.5 MB of records with segments of 1 to 12 tokens: half plant a
    drop, every second record has three top-K rows cut to 2 or 3
    candidates, and every third has no ``segments`` key; in another third
    the sentence ends fall every 7 tokens, so the built-in segmenter cuts
    the record elsewhere than its ``segments`` do."""
    rng = np.random.default_rng(23)
    lines = []
    for index in range(54):
        sizes = rng.integers(1, 13, size=int(rng.integers(5, 60)))
        means = np.full(sizes.size, rng.uniform(0.3, 1.5))
        if rng.random() < 0.5:
            means[int(rng.integers(1, sizes.size)):] = rng.uniform(0.0, 0.5)
        record, _ = generate_rollout(np.repeat(means, sizes),
                                     tokens_per_segment=1, noise_std=0.3,
                                     seed=23, index=index)
        obj = rollout_to_obj(record)
        ends = np.cumsum(sizes).tolist()
        obj["tokens"] = ["tok"] * ends[-1]
        for end in range(7, ends[-1], 7) if index % 3 == 1 else ends:
            obj["tokens"][end - 1] = "end."
        obj["segments"] = [list(range(end - size, end))
                           for end, size in zip(ends, sizes.tolist())]
        if index % 2:
            # a cut row stays sorted and keeps the teacher's top two
            topk = obj["topk"]
            for t in rng.choice(ends[-1], 3, replace=False).tolist():
                keep = int(rng.integers(2, 4))
                for key in ("ids", "student_logp", "teacher_logp"):
                    del topk[key][t][keep:]
        if index % 3 == 0:
            del obj["segments"]
        lines.append(json.dumps(obj).encode())
    return lines


def crossed_lines() -> list[bytes]:
    """12 records of 120 tokens in 12 segments where, at every third token,
    the teacher's favourite is the student's third candidate: there a
    support of 2 measures a margin of 1, and one of 4 the planted one. Every
    second record plants a drop, each after a different segment."""
    lines = []
    for index in range(12):
        means = np.full(12, 2.0 + 0.5 * index)
        if index % 2:
            means[index // 2 + 3:] = 0.2
        record, _ = generate_rollout(means, tokens_per_segment=10,
                                     noise_std=0.3, seed=31, index=index)
        obj = rollout_to_obj(record)
        for row in obj["topk"]["teacher_logp"][::3]:
            row[0], row[2] = row[2], row[0]
        lines.append(json.dumps(obj).encode())
    return lines


def dataset_lines(root: Path) -> list[bytes]:
    """write_dataset's 200 planted records."""
    path = root / "dataset" / "data.jsonl"
    path.parent.mkdir()
    write_dataset(str(path), SyntheticConfig(true_tau=3, noise_std=0.3, seed=4),
                  200)
    return path.read_bytes().splitlines()


def hostile_lines() -> list[bytes]:
    """The good lines of test_hostile_lines, then each line of its CORPUS
    made from the twin input line."""
    return [*test_hostile_lines.GOOD,
            *(make(test_hostile_lines.TWIN)
              for _, make, _ in test_hostile_lines.CORPUS)]


def write_inputs(root: Path) -> dict[str, Path]:
    """Each input's path under root, written from its builder."""
    built = {"dense": dense_lines(), "ragged": ragged_lines(),
             "dataset": dataset_lines(root), "hostile": hostile_lines(),
             "crossed": crossed_lines()}
    paths = {}
    for name, lines in built.items():
        paths[name] = root / f"{name}.jsonl"
        paths[name].write_bytes(b"".join(line + b"\n" for line in lines))
    return paths


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _entry(report, outputs: dict[str, Path]) -> dict:
    errors = json.dumps([list(error) for error in report.errors]).encode()
    return {"outputs": {name: _sha256(path.read_bytes()) if path.exists()
                        else None for name, path in outputs.items()},
            "records": report.num_records, "accepted": report.num_accepted,
            "errors": report.num_errors, "errors_sha256": _sha256(errors)}


def run_input(name: str, src: Path, root: Path) -> dict[str, dict]:
    """The entries of one input, keyed "input/command/jobsN"."""
    entries = {}
    for jobs in JOBS:
        work = root / f"{name}-jobs{jobs}"
        work.mkdir()
        released = {}
        for command, settings in RELEASES.items():
            out = work / (command.replace(" ", "_").replace(":", "") + ".jsonl")
            report = process_batch(str(src), str(out),
                                   PipelineConfig(jobs=jobs, **settings))
            entries[f"{name}/{command}/jobs{jobs}"] = _entry(
                report, {"out.jsonl": out})
            released[command] = out
        # permute runs once per distinct release output: full's and
        # fixed:5000's are the same bytes here, and bic's and builtin's are
        # where each record's segments are its built-in ones
        permuted = {}
        for command in PERMUTED:
            sha = entries[f"{name}/{command}/jobs{jobs}"]["outputs"]["out.jsonl"]
            if sha not in permuted:
                out = released[command].with_suffix(".permuted.jsonl")
                report = permute_batch(str(released[command]), str(out),
                                       PipelineConfig(jobs=jobs,
                                                      random_seed=PERMUTE_SEED))
                permuted[sha] = _entry(report, {"out.jsonl": out})
            entries[f"{name}/permute --seed {PERMUTE_SEED} of {command}"
                    f"/jobs{jobs}"] = permuted[sha]
        for command, settings in DIAGNOSES.items():
            diag = work / command.replace(" ", "_")
            report = diagnose_batch(str(src), str(diag),
                                    PipelineConfig(jobs=jobs, **settings)).report
            entries[f"{name}/{command}/jobs{jobs}"] = _entry(
                report, {csv: diag / csv for csv in CSVS})
    return entries


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "orjson": orjson.__version__}


def build(root: Path) -> dict:
    """The manifest of the matrix, run under root."""
    inputs = write_inputs(root)
    manifest = {**versions(), "inputs": {}, "entries": {}}
    for name, src in inputs.items():
        manifest["inputs"][name] = _sha256(src.read_bytes())
        manifest["entries"].update(run_input(name, src, root))
    return manifest


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def main(argv: list[str]) -> int:
    import logging
    import tempfile

    if argv != ["--write"]:
        print(f"usage: {sys.argv[0]} --write", file=sys.stderr)
        return 2
    logging.getLogger("teachcut").setLevel(logging.ERROR)  # each bad line
    with tempfile.TemporaryDirectory() as root:
        manifest = build(Path(root))
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(manifest['entries'])} entries to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
