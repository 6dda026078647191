"""Closed-loop batch timing, run in a fresh interpreter by run.py.

    python3 benchmarks/measure.py WORKLOAD INPUT OUTPUT SECONDS JOBS SEED

Calls the workload's batch entry point on INPUT, one call in flight, until
SECONDS of wall time have passed (at least one call). Each call is one
sample: wall time, CPU of this process, CPU of the pool workers it reaped,
and the batch report. The first output is kept as OUTPUT.0; a later output
is kept as OUTPUT.<n> only when its digest differs from the first. The
samples and the peak resident sets go to stdout as one JSON object.

Running in its own process keeps the benchmark's inputs and references out
of the measured resident set and out of the forked pool workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from teachcut import (PipelineConfig, diagnose_batch, permute_batch,  # noqa: E402
                      process_batch)

DIAGNOSE_FILES = ("bins.csv", "margin_bins.csv", "summary.csv")
WARM_LINES = 64


def _cpu_seconds() -> tuple[float, float]:
    """CPU seconds of this process and of its reaped children (pool workers)."""
    main = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (main.ru_utime + main.ru_stime, workers.ru_utime + workers.ru_stime)


def run_batch(workload: str, src: str, out: str, jobs: int, seed: int):
    """One call of the workload's batch entry point; returns its BatchReport."""
    if workload == "release_dense":
        return process_batch(src, out, PipelineConfig(jobs=jobs))
    if workload == "diagnose_ragged":
        return diagnose_batch(src, out, PipelineConfig(jobs=jobs)).report
    if workload == "permute_dense":
        return permute_batch(src, out, PipelineConfig(jobs=jobs,
                                                      random_seed=seed))
    raise ValueError(f"unknown workload {workload!r}")


def output_digest(workload: str, out: str, report) -> str:
    digest = hashlib.sha256(repr((report.num_records, report.num_errors,
                                  report.num_accepted, report.errors)).encode())
    paths = ([os.path.join(out, name) for name in DIAGNOSE_FILES]
             if workload == "diagnose_ragged" else [out])
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as handle:
                for block in iter(lambda: handle.read(1 << 20), b""):
                    digest.update(block)
    return digest.hexdigest()


def output_size(workload: str, out: str) -> int:
    if workload == "diagnose_ragged":
        return sum(os.path.getsize(os.path.join(out, name))
                   for name in DIAGNOSE_FILES
                   if os.path.exists(os.path.join(out, name)))
    return os.path.getsize(out) if os.path.exists(out) else 0


def main(argv: list[str]) -> int:
    workload, src, out, seconds, jobs, seed = argv
    seconds, jobs, seed = float(seconds), int(jobs), int(seed)

    # Untimed warm-up call on the first chunk, so lazy set-up inside this
    # process (allocator arenas, first-call paths) is not charged to sample 1.
    warm = out + ".warm"
    with open(src, "rb") as source, open(warm + ".in", "wb") as head:
        for _, line in zip(range(WARM_LINES), source):
            head.write(line)
    run_batch(workload, warm + ".in", warm, jobs, seed)

    samples = []
    first_digest = None
    begin = time.perf_counter()
    while not samples or time.perf_counter() - begin < seconds:
        before = _cpu_seconds()
        start = time.perf_counter()
        try:
            report = run_batch(workload, src, out, jobs, seed)
        except Exception:  # a batch that aborts fails every record in it
            samples.append({"aborted": traceback.format_exc()})
            break
        wall = time.perf_counter() - start
        after = _cpu_seconds()
        sample = {
            "wall_s": wall,
            "main_cpu_s": after[0] - before[0],
            "worker_cpu_s": after[1] - before[1],
            "num_records": report.num_records,
            "num_errors": report.num_errors,
            "num_accepted": report.num_accepted,
            "errors": [list(e) for e in report.errors],
            "bytes_out": output_size(workload, out),
            "digest": output_digest(workload, out, report),
        }
        if first_digest is None:
            first_digest = sample["digest"]
        if sample["digest"] != first_digest or len(samples) == 0:
            sample["kept"] = f"{out}.{len(samples)}"
            shutil.move(out, sample["kept"])
        samples.append(sample)
    json.dump({
        "samples": samples,
        "peak_rss_main_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "peak_rss_workers_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
