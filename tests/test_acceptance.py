"""End-to-end acceptance checks.

Each test prints one "criterion N: PASS/FAIL (...)" line straight to the
terminal (bypassing capture) before asserting, so a full run always shows the
scorecard. Timing budgets assume a 4-core desktop; on smaller machines the
budget is prorated by the worker count actually available.
"""

import json
import math
import os
import resource
import time
from pathlib import Path

import numpy as np
import pytest

from teachcut import records
from teachcut.changepoint import detect_downward_change
from teachcut.cli import main as cli_main
from teachcut.diagnostics import (binned_advantage_stats, binned_margin_curve,
                                  snr_release_check)
from teachcut.margin import teacher_top2_margin
from teachcut.pipeline import PipelineConfig, permute_batch, process_batch
from teachcut.records import parse_rollout_line, rollout_to_obj
from teachcut.reweight import rescale_advantages
from teachcut.synthetic import SyntheticConfig, generate_rollout

from reference import (oracle_change_point, planted_scores, profiled_bic,
                       release_improves_by_moments)


def _report(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_hand_worked_example(capsys):
    s = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    decision = detect_downward_change(s)
    rss0 = float(((s - s.mean()) ** 2).sum())
    bic0 = profiled_bic(s, rss0, 1)
    bic1 = profiled_bic(s, 0.0, 3)  # both sides of the split are constant
    elapsed = min(_timed(detect_downward_change, s) for _ in range(7))
    ok = (decision.accepted
          and decision.release_segment == 3
          and abs(bic0 - 1.79176) < 1e-4
          and abs(bic1 - (-171.16)) < 1e-2
          and abs(decision.bic_gain - 172.95) < 1e-2
          and elapsed < 1e-3)
    _report(capsys, 1, ok,
            f"tau={decision.release_segment} bic0={bic0:.5f} "
            f"bic1={bic1:.5f} gain={decision.bic_gain:.5f} "
            f"t={elapsed * 1e6:.0f}us")


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_criterion_02_detector_matches_naive_reference(capsys):
    rng = np.random.default_rng(20240817)
    mismatches = 0
    max_gain_diff = 0.0
    start = time.perf_counter()
    for i in range(10_000):
        n = int(rng.integers(1, 201))
        kind = i % 4
        if kind == 0:
            s = rng.normal(size=n)
        elif kind == 1:
            tau = int(rng.integers(1, n)) if n > 1 else 0
            s = np.full(n, float(rng.uniform(0.5, 3.0)))
            if tau:
                s[tau:] = rng.uniform(-1.0, 0.4)
            s += rng.normal(scale=float(rng.uniform(0.01, 0.5)), size=n)
        elif kind == 2:
            s = np.full(n, float(rng.uniform(-2.0, 2.0)))  # exact constant
        else:
            s = np.full(n, float(rng.uniform(1.0, 2.0)))  # clean step, no noise
            if n > 1:
                s[int(rng.integers(1, n)):] -= float(rng.uniform(0.2, 1.5))
        decision = detect_downward_change(s)
        ref_tau, ref_accepted, ref_gain = oracle_change_point(s)
        if (decision.release_segment, decision.accepted) != (ref_tau,
                                                             ref_accepted):
            mismatches += 1
        max_gain_diff = max(max_gain_diff,
                            abs(decision.bic_gain - ref_gain))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and max_gain_diff <= 1e-9 and elapsed < 10.0
    _report(capsys, 2, ok,
            f"10000 sequences, {mismatches} mismatches, "
            f"max gain diff={max_gain_diff:.2e}, t={elapsed:.2f}s")


def test_criterion_03_planted_change_recovery(capsys):
    exact = within_one = 0
    start = time.perf_counter()
    for seed in range(1000):
        scores = planted_scores(20, 10, 1.0, 0.2, 0.1, seed=seed)
        decision = detect_downward_change(scores)
        if decision.accepted:
            exact += decision.release_segment == 10
            within_one += abs(decision.release_segment - 10) <= 1
    elapsed = time.perf_counter() - start
    ok = exact >= 950 and within_one >= 990 and elapsed < 10.0
    _report(capsys, 3, ok,
            f"exact {exact}/1000, within one {within_one}/1000, "
            f"t={elapsed:.2f}s")


def test_criterion_04_no_change_behavior(capsys):
    constant_accepts = 0
    for seed in range(1000):
        scores = np.full(20, 1.0 + 0.001 * seed)  # zero noise
        constant_accepts += detect_downward_change(scores).accepted

    false_positives = 0
    ordered = True
    for seed in range(1000):
        scores = planted_scores(20, None, 1.0, 0.0, 0.1, seed=10_000 + seed)
        decision = detect_downward_change(scores)
        if decision.accepted:
            false_positives += 1
            ordered &= decision.mu_post < decision.mu_pre
    ok = constant_accepts == 0 and ordered
    _report(capsys, 4, ok,
            f"constants accepted {constant_accepts}/1000; noisy flat "
            f"false-positive rate {false_positives / 1000:.3f}, "
            f"mu_post<mu_pre on every accept={ordered}")


def test_criterion_05_mass_preservation(capsys):
    rng = np.random.default_rng(5150)
    worst_rel = 0.0
    full_mask_exact = True
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(1, 51))
        adv = rng.normal(size=n)
        loss = rng.uniform(0.0, 1.0, size=n)
        keep = (rng.uniform(size=n) < 0.6).astype(np.float64)
        if float((loss * keep).sum()) <= 1e-8:
            continue
        checked += 1
        rescaled, scale = rescale_advantages(adv, loss, keep)
        total = float(loss.sum())
        kept_total = float((loss * keep * scale).sum())
        worst_rel = max(worst_rel, abs(kept_total - total) / total)

        full, full_scale = rescale_advantages(adv, loss, np.ones(n))
        full_mask_exact &= full_scale == 1.0 and bool((full == adv).all())
    ok = worst_rel <= 1e-9 and full_mask_exact
    _report(capsys, 5, ok,
            f"10000 triples, worst relative mass error {worst_rel:.2e}, "
            f"full mask exact={full_mask_exact}")


def test_criterion_06_planted_release_points(capsys, tmp_path):
    data = str(tmp_path / "planted.jsonl")
    released = str(tmp_path / "released.jsonl")
    assert cli_main(["simulate", "--out", data, "--rollouts", "50",
                     "--n", "6", "--tau", "3", "--noise", "0"]) == 0
    assert cli_main(["release", "--in", data, "--out", released]) == 0

    truth_lines = (tmp_path / "ground_truth.jsonl").read_bytes().splitlines()
    out_lines = Path(released).read_bytes().splitlines()
    assert len(out_lines) == len(truth_lines) == 50
    releases_at_three = 0
    max_margin_err = 0.0
    for raw, truth_raw in zip(out_lines, truth_lines):
        obj = json.loads(raw)
        truth = json.loads(truth_raw)
        release = obj["release"]
        releases_at_three += (release["accepted"]
                              and release["release_segment"] == 3)
        record = parse_rollout_line(raw)
        measured = teacher_top2_margin(record.candidates).values
        max_margin_err = max(max_margin_err, float(np.max(np.abs(
            measured - np.array(truth["margins"])))))
    ok = releases_at_three == 50 and max_margin_err <= 1e-9
    _report(capsys, 6, ok,
            f"release at segment 3 on {releases_at_three}/50 rollouts, "
            f"max planted-margin error {max_margin_err:.2e}")


def _relative_positions(path):
    positions = []
    for raw in Path(path).read_bytes().splitlines():
        release = json.loads(raw)["release"]
        mask = release["prefix_mask"]
        retained = sum(mask) if release["accepted"] else float(len(mask))
        positions.append(retained / len(mask))
    return positions


def test_criterion_07_permutation_preserves_positions(capsys, tmp_path):
    stepped = SyntheticConfig(num_segments=6, tokens_per_segment=10,
                              true_tau=3, pre_margin_mean=1.0,
                              post_margin_mean=0.0, noise_std=0.35, seed=77)
    flat = SyntheticConfig(num_segments=6, tokens_per_segment=10,
                           pre_margin_mean=1.0, noise_std=0.35, seed=78)
    src = str(tmp_path / "batch.jsonl")
    with open(src, "wb") as handle:
        for i in range(1000):
            config = stepped if i % 2 == 0 else flat
            record, _ = _generated(config, i)
            handle.write(json.dumps(rollout_to_obj(record)).encode() + b"\n")

    released = str(tmp_path / "released.jsonl")
    permuted = str(tmp_path / "permuted.jsonl")
    again = str(tmp_path / "again.jsonl")
    process_batch(src, released)
    permute_batch(released, permuted, PipelineConfig(random_seed=11))
    permute_batch(released, again, PipelineConfig(random_seed=11))

    before = sorted(_relative_positions(released))
    after = sorted(_relative_positions(permuted))
    multiset_exact = before == after
    moved = _relative_positions(released) != _relative_positions(permuted)
    bit_exact = Path(permuted).read_bytes() == Path(again).read_bytes()
    ok = multiset_exact and moved and bit_exact
    _report(capsys, 7, ok,
            f"1000 rollouts, multiset preserved={multiset_exact}, "
            f"assignment moved={moved}, same-seed bit-exact={bit_exact}")


def _generated(config, index):
    from teachcut.synthetic import generate_piecewise_rollout
    return generate_piecewise_rollout(config, index)


def test_criterion_08_snr_forms_agree(capsys):
    rng = np.random.default_rng(88)
    disagreements = 0
    for _ in range(10_000):
        m_p = 0.0
        while abs(m_p) < 1e-3:
            m_p = float(rng.uniform(-5.0, 5.0))
        v_p = float(rng.uniform(1e-3, 5.0))
        m_r = float(rng.uniform(-5.0, 5.0))
        v_r = float(rng.uniform(0.0, 5.0))
        report = snr_release_check(m_p, v_p, m_r, v_r)
        if report.release_improves != release_improves_by_moments(m_p, v_p,
                                                                  m_r, v_r):
            disagreements += 1
    ok = disagreements == 0
    _report(capsys, 8, ok, f"10000 moment tuples, {disagreements} disagreements")


def test_criterion_09_binned_stats_match_oracle(capsys):
    rng = np.random.default_rng(909)
    num_bins = 20
    batch = [rng.normal(size=int(rng.integers(1, 301))) for _ in range(200)]
    stats = binned_advantage_stats(batch, num_bins=num_bins)

    collected = [[] for _ in range(num_bins)]
    for series in batch:
        n = len(series)
        for t, value in enumerate(series):
            collected[(t * num_bins) // n].append(value)
    worst = 0.0
    for b in range(num_bins):
        ref_mean = float(np.mean(collected[b]))
        ref_std = float(np.std(collected[b]))
        worst = max(worst, abs(stats.bin_mean[b] - ref_mean),
                    abs(stats.bin_std[b] - ref_std))
    counts_match = [len(c) for c in collected] == stats.bin_count.tolist()
    partition = int(stats.bin_count.sum()) == sum(len(s) for s in batch)
    ok = worst <= 1e-9 and counts_match and partition
    _report(capsys, 9, ok,
            f"worst moment error {worst:.2e}, counts partition all "
            f"{int(stats.bin_count.sum())} tokens={counts_match and partition}")


def _spearman(x, y):
    """Spearman's rho: the Pearson correlation of average ranks, where tied
    values share the mean of the ranks they span."""
    def ranks(values):
        ordered = np.sort(values)
        return (np.searchsorted(ordered, values, "left")
                + np.searchsorted(ordered, values, "right") + 1) / 2
    return float(np.corrcoef(ranks(x), ranks(y))[0, 1])


def test_criterion_10_margin_curve_decays(capsys):
    means = np.linspace(1.0, 0.1, 20)
    batch = []
    for i in range(500):
        record, _ = generate_rollout(means, tokens_per_segment=10,
                                     noise_std=0.05, seed=123, index=i)
        batch.append(teacher_top2_margin(record.candidates).values)
    curve = binned_margin_curve(batch, num_bins=20)
    rho = _spearman(np.arange(20), curve.bin_mean)
    ok = rho <= -0.8
    _report(capsys, 10, ok, f"500 rollouts, spearman rho={rho:.3f}")


def _cpu_seconds():
    """User plus system CPU seconds of this process and of its reaped
    children; a batch's pool workers are reaped when process_batch returns,
    so a delta around the call is the batch's CPU. Set against the wall
    time, it shows whether a run over budget lost its time to CPU steal."""
    return sum(usage.ru_utime + usage.ru_stime for usage in
               map(resource.getrusage,
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))


def test_criterion_11_throughput(capsys, tmp_path):
    record, _ = generate_rollout(
        np.concatenate([np.full(50, 1.0), np.full(50, 0.1)]),
        tokens_per_segment=10, support_size=4)
    template = json.dumps(rollout_to_obj(record)).encode()
    assert template.count(b"sim-000000") == 1
    src = str(tmp_path / "big.jsonl")
    with open(src, "wb") as handle:
        for i in range(10_000):
            handle.write(template.replace(b"sim-000000", b"sim-%06d" % i, 1)
                         + b"\n")

    cores = len(os.sched_getaffinity(0))
    jobs = min(4, cores)
    budget = 10.0 * (4.0 / jobs)
    out = str(tmp_path / "big_out.jsonl")
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    report = process_batch(src, out, PipelineConfig(jobs=jobs))
    elapsed = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu_before
    processed = report.num_records == 10_000 and report.num_errors == 0
    ok = processed and elapsed < budget
    size_gb = os.path.getsize(src) / 1e9
    os.unlink(src)
    os.unlink(out)
    _report(capsys, 11, ok,
            f"10000 rollouts ({size_gb:.2f}GB) in {elapsed:.1f}s "
            f"({cpu:.1f}s CPU) with {jobs} worker(s), budget {budget:.0f}s, "
            f"codec orjson {records.orjson.__version__}")
