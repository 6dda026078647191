"""Compare benchmark results of a parent commit and a change.

    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that `run.py --save PATH` appended, one per run;
only untraced runs are compared. Run the two sides as alternating pairs
(parent, change, change, parent, ...) with the same --seconds; the i-th run
of each side forms pair i, in file order.

For every workload and end-to-end metric of BENCHMARK.json:

- gain: at least 10 pairs, the change wins at least 9/10 of them (ties count
  for neither), and the medians differ by more than the parent's
  interquartile spread;
- regression: the change's median is worse than the parent's by more than
  the metric's bound;
- unresolved: the parent's spread, as a share of its median, exceeds the
  bound, and not every change run beats every parent run;
- unchanged: none of the above.

A gain does not count when the change failed more records than the parent.
Exit status is 1 when any metric regressed or a change run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs[record["workload"]].append(record)
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, failures_up: bool) -> tuple[str, int, int]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > q3 - q1):
        return ("gain" if not failures_up else "gain void: more failures",
                wins, len(pairs))
    if worse_by > bound:
        return "regression", wins, len(pairs)
    if spread > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return ("better in every run" if all_better else "unresolved",
                wins, len(pairs))
    return "unchanged", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    parent, change = load(argv[0]), load(argv[1])
    status = 0
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload}: missing on one side "
                  f"({len(p_runs)} parent, {len(c_runs)} change runs)")
            continue
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        if any(not r["result"]["correct"] for r in c_runs):
            status = 1
        order = [p["time"] < c["time"] for p, c in zip(p_runs, c_runs)]
        print(f"== {workload}: {len(p_runs)} parent / {len(c_runs)} change "
              f"runs; parent first in {sum(order)}/{len(order)} pairs; "
              f"failed {p_failed} / {c_failed}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            result, wins, pairs = verdict(pv, cv, metric["better"],
                                          metric["bound"], c_failed > p_failed)
            status |= result == "regression"
            p_q, c_q = quartiles(pv), quartiles(cv)
            print(f"  {name:<18} {metric['unit']:<6} parent "
                  f"{statistics.median(pv):.6g} [{p_q[0]:.6g}, {p_q[1]:.6g}]  "
                  f"change {statistics.median(cv):.6g} "
                  f"[{c_q[0]:.6g}, {c_q[1]:.6g}]  wins {wins}/{pairs}  "
                  f"bound {metric['bound']:.0%}  -> {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
