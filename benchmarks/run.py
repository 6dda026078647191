"""teachcut benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload release_dense --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The program is imported from ./src and measured
only through its public entry points. Inputs are generated from --seed. With
--trace 0 the run measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it measures the per-layer metrics through a traced replay. Each
run checks every output against a reference outside the timed region. The
last line of stdout is a JSON object with correct/attempted/failed/metrics;
the lines above it are a human-readable report with machine facts.
--save PATH appends the full result as one JSON line, for compare.py.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("release_dense", "diagnose_ragged", "permute_dense")
SETUP_REPS = 5           # fresh-interpreter invocations per run for setup_s
MEASURE_SLACK_S = 120    # time allowed past --seconds for the last call


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = WORK
    return env


# ----------------------------------------------------------------------------
# machine facts


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy
    import teachcut.records as records

    namespace = list(vars(records).values())
    codec = "json"
    for name in ("msgspec", "orjson"):
        module = sys.modules.get(name)
        if module is not None and any(value is module for value in namespace):
            codec = name
            break
    try:
        orjson = importlib.metadata.version("orjson")
    except importlib.metadata.PackageNotFoundError:
        orjson = None
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "codec": codec, "orjson": orjson,
            "commit": _commit(), "machine": platform.machine()}


# ----------------------------------------------------------------------------
# inputs


def prepare(workload: str, seed: int, work: str):
    """The run's input file and what it holds."""
    from teachcut import PipelineConfig, process_batch

    import inputs

    src = os.path.join(work, "input.jsonl")
    if workload == "release_dense":
        return inputs.write_dense(src, seed, inputs.RELEASE_RECORDS)
    if workload == "diagnose_ragged":
        return inputs.write_ragged(src, seed)
    # permute_dense: release_dense records after one untimed release pass
    dense = inputs.write_dense(os.path.join(work, "dense.jsonl"), seed,
                               inputs.PERMUTE_RECORDS)
    process_batch(dense.path, src, PipelineConfig(jobs=nproc()))
    dense.path = src
    return dense


def cli_args(workload: str, src: str, out: str, seed: int) -> list[str]:
    jobs = ["--jobs", str(nproc())]
    if workload == "release_dense":
        return ["release", "--in", src, "--out", out] + jobs
    if workload == "diagnose_ragged":
        return ["diagnose", "--in", src, "--out", out] + jobs
    return ["permute", "--in", src, "--out", out, "--seed", str(seed)] + jobs


def measure_setup(workload: str, batch, seed: int, work: str) -> tuple[list[float], int]:
    """Wall seconds of fresh `teachcut` invocations on a one-record input,
    after one untimed invocation that fills the bytecode cache."""
    one = os.path.join(work, "one.jsonl")
    with open(batch.path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            if line_number not in batch.planted:
                break
    with open(one, "wb") as handle:
        handle.write(raw)
    command = [sys.executable, "-c",
               "import sys; from teachcut.cli import main; sys.exit(main())"]
    command += cli_args(workload, one, os.path.join(work, "one.out"), seed)
    times, failures = [], 0
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        done = subprocess.run(command, env=child_env(), cwd=ROOT, timeout=60,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            failures += 1
            sys.stderr.write(done.stderr.decode(errors="replace"))
        elif rep:
            times.append(elapsed)
    return times, failures


# ----------------------------------------------------------------------------
# the measured batch loop and its checks


def measure_batches(workload: str, src: str, work: str, seconds: float,
                    seed: int) -> dict:
    out = os.path.join(work, "out")
    command = [sys.executable, os.path.join(HERE, "measure.py"), workload, src,
               out, repr(seconds), str(nproc()), str(seed)]
    with open(os.path.join(work, "measure.err"), "wb") as err:
        done = subprocess.run(command, env=child_env(), cwd=ROOT,
                              timeout=seconds + MEASURE_SLACK_S,
                              stdout=subprocess.PIPE,
                              stderr=err)
    if done.returncode != 0:
        with open(os.path.join(work, "measure.err"), "rb") as err:
            sys.stderr.write(err.read().decode(errors="replace")[-4000:])
        return {"samples": [{"aborted": "measure process failed"}],
                "peak_rss_main_kb": 0, "peak_rss_workers_kb": 0}
    return json.loads(done.stdout)


def check_samples(workload: str, batch, samples: list[dict], seed: int) -> tuple[int, int]:
    """(attempted, failed) over every measured batch call."""
    import check

    reference = None
    wrong_by_output: dict[str, int] = {}
    attempted = failed = 0
    for sample in samples:
        attempted += batch.num_lines
        if "aborted" in sample:
            failed += batch.num_lines
            continue
        kept = sample.get("kept")
        if kept is None:          # byte-identical to the first output
            failed += wrong_by_output[samples[0]["digest"]]
            continue
        if workload == "release_dense":
            wrong = check.check_release(batch.path, kept)
        elif workload == "permute_dense":
            wrong = check.check_permute(batch.path, kept, seed)
        else:
            reference = reference or check.diagnose_reference(batch.path)
            wrong = check.check_diagnose(reference, batch.planted,
                                         batch.num_lines, kept, sample["errors"])
        wrong_by_output[sample["digest"]] = wrong
        failed += wrong
    return attempted, failed


def end_to_end(batch, measured: dict, setup_times: list[float]) -> dict:
    samples = [s for s in measured["samples"] if "aborted" not in s]
    size = os.path.getsize(batch.path)
    rate = [s["num_records"] / s["wall_s"] for s in samples]
    mbps = [size / s["wall_s"] / 1e6 for s in samples]
    cpu = [1000.0 * (s["main_cpu_s"] + s["worker_cpu_s"]) / max(s["num_records"], 1)
           for s in samples]
    peak_kb = max(measured["peak_rss_main_kb"], measured["peak_rss_workers_kb"])
    return {
        "records_per_s": (rate, "rec/s"),
        "input_mb_per_s": (mbps, "MB/s"),
        "cpu_ms_per_record": (cpu, "ms"),
        "peak_rss_mb": ([peak_kb / 1024.0], "MB"),
        "setup_s": (setup_times, "s"),
    }


# ----------------------------------------------------------------------------
# traced replay


def per_layer(workload: str, batch, measured: dict, seed: int, work: str) -> dict:
    import check
    import inputs
    import replay

    kwargs = {"seed": seed, "out_dir": os.path.join(work, "replay")}
    if workload == "diagnose_ragged":
        kwargs["reference"] = check.diagnose_reference(batch.path)
    # Untraced and traced passes in the order A B B A, so a linear drift in
    # machine speed cancels out of the overhead. The output checks have
    # already run the same functions in this process, so it is warm.
    plain_s = traced_s = 0.0
    tracers = []
    for enabled in (False, True, True, False):
        tracer = replay.Tracer(enabled)
        counts, elapsed = replay.replay(workload, batch.path, tracer, **kwargs)
        if enabled:
            traced_s += elapsed / 2
            tracers.append(tracer)
        else:
            plain_s += elapsed / 2
    tracers[-1].write(os.path.join(WORK, f"spans-{workload}.jsonl"))

    records = max(counts.lines, 1)
    self_ns: dict[str, float] = {}
    for tracer in tracers:
        for name, ns in tracer.self_times_ns().items():
            self_ns[name] = self_ns.get(name, 0.0) + ns / len(tracers)
    layers = {f"{name}_ms": self_ns[name] / records / 1e6
              for name in replay.LAYER_SPANS if name in self_ns}
    samples = [s for s in measured["samples"] if "aborted" not in s]
    jobs = nproc()
    cpu_ms = median([1000.0 * (s["main_cpu_s"] + s["worker_cpu_s"])
                     / max(s["num_records"], 1) for s in samples])
    valid = max(counts.valid, 1)
    bytes_in = counts.bytes_in / records
    bytes_out = median([s["bytes_out"] / max(s["num_records"], 1)
                        for s in samples])
    # Lines go to the workers pickled; what comes back is sized from the
    # results the batch builds.
    if jobs == 1:
        ipc = 0.0
    elif workload == "release_dense":
        ipc = bytes_in + bytes_out          # the rewritten line comes back
    elif workload == "diagnose_ragged":
        ipc = bytes_in + 40.0               # one 5-field summary row per record
    else:
        # pass 1 returns 8 B per segment of cumulative counts; pass 2 ships
        # the line again and returns the rewritten line
        ipc = 2 * bytes_in + 8 * counts.segments / valid + bytes_out
    metrics = dict(layers)
    metrics.update({
        "trace.record_self_ms": self_ns.get("record", 0) / records / 1e6,
        "trace.overhead_ms_per_record": 1000.0 * (traced_s - plain_s) / records,
        "trace.spans_per_record": len(tracers[-1].spans) / records,
        "trace.span_cost_us": replay.span_cost_ns() / 1000.0,
        "trace.replay_ms_per_record": 1000.0 * traced_s / records,
        "pipeline.overhead_cpu_ms": cpu_ms - sum(layers.values()),
        "pipeline.main_busy_frac": median([s["main_cpu_s"] / s["wall_s"]
                                           for s in samples]),
        "pipeline.worker_busy_frac": median([s["worker_cpu_s"] / (s["wall_s"] * jobs)
                                             for s in samples]) if jobs > 1 else 0.0,
        "pipeline.ipc_bytes_per_record": ipc,
        "pipeline.bytes_out_per_record": bytes_out,
        "records.bytes_per_record": bytes_in,
        "records.rejected": float(sum(counts.rejected.values())),
        "margin.ragged_share": counts.ragged / valid,
        "segmentation.builtin_share": counts.builtin / valid,
        "segmentation.segments_per_record": counts.segments / valid,
        "changepoint.accepted_share": (counts.detect_accepted
                                       / max(counts.detect_attempts, 1)),
    })
    planted_fields = {expected for _, expected in inputs.MALFORMED_KINDS}
    for field in sorted(planted_fields | set(counts.rejected)):
        metrics[f"records.rejected.{field}"] = float(counts.rejected[field])
    return metrics


# ----------------------------------------------------------------------------
# reporting


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        batch = prepare(workload, seed, work)
        setup_times, setup_failed = ([], 0) if trace else measure_setup(
            workload, batch, seed, work)
        measured = measure_batches(workload, batch.path, work, seconds, seed)
        attempted, failed = check_samples(workload, batch,
                                          measured["samples"], seed)
        attempted += len(setup_times) + setup_failed
        failed += setup_failed
        if trace:
            layer = per_layer(workload, batch, measured, seed, work)
        else:
            series = end_to_end(batch, measured, setup_times)
        size = os.path.getsize(batch.path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = load_spec()
    valid = max(batch.num_lines - len(batch.planted), 1)
    shares = {
        "bytes_per_record": size / batch.num_lines,
        "tokens_per_record": batch.tokens / valid,
        "segments_per_record": batch.segments / valid,
        "ragged_share": batch.ragged / valid,
        "builtin_share": batch.builtin / valid,
        "malformed_share": len(batch.planted) / batch.num_lines,
    }
    n_samples = sum(1 for s in measured["samples"] if "aborted" not in s)
    not_run = []
    if trace:
        import replay

        not_run = [f"{name}_ms" for name in replay.LAYER_SPANS
                   if f"{name}_ms" not in layer]
        names = [m["name"] for m in spec["per_layer"]]
        all_metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        reported = {name: all_metrics[name] for name in names}
        detail = {name: {"value": v, "unit": u} for name, (v, u) in all_metrics.items()}
    else:
        reported = {}
        detail = {}
        for name, (values, unit) in series.items():
            q1, q3 = quartiles(values)
            reported[name] = (median(values), unit)
            detail[name] = {"value": median(values), "unit": unit, "q1": q1,
                            "q3": q3, "samples": len(values)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "time": time.time(), "batch_calls": n_samples,
            "input": shares, "machine": machine_facts(), "detail": detail,
            "not_run": not_run, "result": result}


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_record"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac") or name.endswith("_share"):
        return "fraction"
    if name == "pipeline.ipc_bytes_per_record":
        return "B-computed"
    if "bytes" in name:
        return "B"
    return "count"


def print_report(record: dict) -> None:
    m = record["machine"]
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={record['trace']}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"codec={m['codec']} orjson={m['orjson'] or 'absent'} "
          f"commit={m['commit']}")
    shares = record["input"]
    print("input: " + ", ".join(f"{k}={v:.4g}" for k, v in shares.items()))
    print(f"batch calls: {record['batch_calls']} (closed loop, one batch in "
          f"flight; timings are medians over calls, too few for a tail "
          f"percentile)")
    for name, d in record["detail"].items():
        spread = (f"  q1={d['q1']:.6g} q3={d['q3']:.6g} n={d['samples']}"
                  if "q1" in d else "")
        print(f"  {name:<36} {d['value']:>14.6g} {d['unit']}{spread}")
    if record["not_run"]:
        print(f"  layers not run by this workload: {', '.join(record['not_run'])}")
    r = record["result"]
    print(f"outputs checked: {r['attempted']} attempted, {r['failed']} failed, "
          f"failed_frac={r['failed'] / max(r['attempted'], 1):.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="PATH",
                        help="append the full result as one JSON line")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "teachcut", "__init__.py")):
        print(f"error: no teachcut package under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_report(record)
        records.append(record)
        if args.save:
            with open(args.save, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {"correct": all(r["result"]["correct"] for r in records),
                 "attempted": sum(r["result"]["attempted"] for r in records),
                 "failed": sum(r["result"]["failed"] for r in records),
                 "metrics": {f"{r['workload']}.{name}": value
                             for r in records
                             for name, value in r["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
