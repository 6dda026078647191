import concurrent.futures
import gc
import hashlib
import json
import logging
import math
import os
import re
import tempfile
import weakref
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut import cli, pipeline
from teachcut.changepoint import ChangeDecision
from teachcut.diagnostics import (binned_advantage_stats, binned_margin_curve,
                                  write_bins_csv)
from teachcut.margin import teacher_top2_margin
from teachcut.pipeline import (PipelineConfig, _member_value_span,
                               _release_span, diagnose_batch,
                               dynamic_prefix_reweight, permute_batch,
                               process_batch)
from teachcut.records import (LOGP_FLOOR, DataProcessingError, TeachcutError,
                              dumps_obj, iter_jsonl_lines, parse_rollout_line,
                              rollout_from_obj, rollout_to_obj,
                              sampled_advantage)
from teachcut.reweight import (build_prefix_mask, permute_release_points,
                               rescale_advantages)
from teachcut.segmentation import SegmentIndex, segment_tokens
from teachcut.synthetic import SyntheticConfig, generate_piecewise_rollout

from helpers import reshaped_topk, to_line, valid_obj

# planted construction used throughout: 6 segments x 10 tokens, drop at 3
PLANTED = SyntheticConfig(num_segments=6, tokens_per_segment=10, true_tau=3,
                          pre_margin_mean=2.0, post_margin_mean=0.0)


def planted_obj(index=0, noise=0.0, seed=0):
    config = SyntheticConfig(num_segments=6, tokens_per_segment=10,
                             true_tau=3, pre_margin_mean=2.0,
                             post_margin_mean=0.0, noise_std=noise, seed=seed)
    record, _ = generate_piecewise_rollout(config, index)
    return rollout_to_obj(record)


def ragged_obj(index):
    """A planted record with top-K rows of 2 to 64 candidates."""
    return reshaped_topk(planted_obj(index, noise=0.5, seed=2),
                         {1: 6, 5: 2, 7: 9, 40: 3, 59: 64})


def write_lines(path, lines):
    with open(path, "wb") as handle:
        for line in lines:
            handle.write(line + b"\n")
    return str(path)


def write_objs(path, objs):
    return write_lines(path, [json.dumps(obj).encode() for obj in objs])


def read_objs(path):
    with open(path, "rb") as handle:
        return [json.loads(line) for line in handle.read().splitlines()]


def test_bic_release_output(tmp_path):
    src = write_objs(tmp_path / "in.jsonl", [planted_obj()])
    out = str(tmp_path / "out.jsonl")
    report = process_batch(src, out)
    assert (report.num_records, report.num_errors) == (1, 0)
    assert report.num_accepted == 1
    assert report.acceptance_rate == 1.0

    release = read_objs(out)[0]["release"]
    assert release["accepted"] is True
    assert release["release_segment"] == 3
    assert release["bic_gain"] > 0.0
    assert release["scale"] == 2.0  # 30 of 60 uniform-weight tokens retained
    assert release["prefix_mask"] == [1.0] * 30 + [0.0] * 30
    np.testing.assert_allclose(release["rescaled_advantages"][:30], 2.0,
                               atol=1e-12)
    assert release["rescaled_advantages"][30:] == [0.0] * 30


def test_full_strategy_keeps_everything(tmp_path):
    obj = planted_obj()
    src = write_objs(tmp_path / "in.jsonl", [obj])
    out = str(tmp_path / "out.jsonl")
    report = process_batch(src, out, PipelineConfig(strategy="full"))
    assert report.num_accepted == 0

    release = read_objs(out)[0]["release"]
    assert release["accepted"] is False
    assert release["release_segment"] == -1  # change-point test never ran
    assert release["bic_gain"] == 0.0
    assert release["scale"] == 1.0
    assert release["prefix_mask"] == [1.0] * 60
    record = parse_rollout_line(json.dumps(obj).encode())
    expected = record.sampled_teacher_logp - record.sampled_student_logp
    np.testing.assert_array_equal(release["rescaled_advantages"], expected)


def test_fixed_prefix_strategy(tmp_path):
    src = write_objs(tmp_path / "in.jsonl", [valid_obj(num_tokens=6)])
    out = str(tmp_path / "out.jsonl")
    config = PipelineConfig(strategy="fixed:2")
    process_batch(src, out, config)
    release = read_objs(out)[0]["release"]
    assert release["release_segment"] == -1
    assert release["prefix_mask"] == [1.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_echo_preserves_unknown_fields_verbatim(tmp_path):
    obj = planted_obj()
    obj["extra"] = {"nested": [1, 2], "note": "watch these release notes"}
    obj["weights_version"] = 7
    in_line = json.dumps(obj).encode()
    src = write_lines(tmp_path / "in.jsonl", [in_line])
    out = str(tmp_path / "out.jsonl")
    process_batch(src, out)
    out_line = Path(out).read_bytes().splitlines()[0]
    # fast path splices into the raw line, so the input survives byte for byte
    assert out_line.startswith(in_line[:-1] + b',"release":')
    parsed = read_objs(out)[0]
    assert parsed["extra"] == obj["extra"]
    assert parsed["weights_version"] == 7


def test_existing_release_key_is_replaced(tmp_path):
    obj = planted_obj()
    obj["release"] = {"accepted": False, "stale": True}
    src = write_objs(tmp_path / "in.jsonl", [obj])
    out = str(tmp_path / "out.jsonl")
    process_batch(src, out)
    parsed = read_objs(out)[0]
    assert "stale" not in parsed["release"]
    assert parsed["release"]["release_segment"] == 3


def test_nested_release_key_survives(tmp_path):
    obj = planted_obj()
    obj["meta"] = {"release": "2024-06"}  # nested, so the line is spliced
    src = write_objs(tmp_path / "in.jsonl", [obj])
    out = str(tmp_path / "out.jsonl")
    process_batch(src, out)
    parsed = read_objs(out)[0]
    assert parsed["meta"] == {"release": "2024-06"}
    assert parsed["release"]["accepted"] is True


def test_strict_mode_aborts_and_removes_output(tmp_path):
    lines = [json.dumps(planted_obj()).encode(), b"not json",
             json.dumps(planted_obj(1)).encode()]
    src = write_lines(tmp_path / "in.jsonl", lines)
    out = tmp_path / "out.jsonl"
    with pytest.raises(DataProcessingError, match="aborting at line 2"):
        process_batch(src, str(out), PipelineConfig(strict=True))
    assert not out.exists()


def test_failsoft_skips_bad_lines(tmp_path, caplog):
    # 2**70 decodes as a float; it used to abort the batch with OverflowError
    wide_id = json.dumps(planted_obj(2)).encode().replace(
        b'"ids": [[', b'"ids": [[%d, ' % 2**70, 1)
    lines = [json.dumps(planted_obj()).encode(), b"not json",
             json.dumps(planted_obj(1)).encode(), wide_id]
    src = write_lines(tmp_path / "in.jsonl", lines)
    out = str(tmp_path / "out.jsonl")
    with caplog.at_level(logging.WARNING, logger="teachcut"):
        report = process_batch(src, out)
    assert (report.num_records, report.num_errors) == (2, 2)
    assert report.errors[0][0] == 2
    assert "line 2" in report.errors[0][1]
    assert any("line 2" in message for message in caplog.messages)
    assert report.errors[1][1].startswith("line 4: topk.ids")
    assert len(read_objs(out)) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_release_is_rejected(tmp_path):
    # A record whose kept loss mass is tiny: the rescale factor (3 / 1e-8)
    # times an advantage of 1.7e308 would overflow, and JSON has no inf. Its
    # log-probability lies below LOGP_FLOOR, so validation rejects it on its
    # line; that rejection is the only report (no numpy warning at jobs=1).
    obj = valid_obj()
    obj["student_logp"][0] = -1.7e308
    obj["loss_mask"][0] = 1e-300
    lines = [json.dumps(obj).encode(), json.dumps(valid_obj()).encode()]
    src = write_lines(tmp_path / "in.jsonl", lines)
    out = tmp_path / "out.jsonl"
    config = PipelineConfig(strategy="fixed:1", jobs=1)
    report = process_batch(src, str(out), config)
    assert (report.num_records, report.num_errors) == (1, 1)
    assert report.errors[0][1] == ("line 1: student_logp at position 0: "
                                   "log-probability below -1e+100")
    assert len(read_objs(out)) == 1

    strict = replace(config, strict=True)
    with pytest.raises(DataProcessingError, match="aborting at line 1"):
        process_batch(src, str(out), strict)
    assert not out.exists()


_LOGP = st.floats(LOGP_FLOOR, 0.0) | st.sampled_from([LOGP_FLOOR, 0.0])


@st.composite
def records_down_to_the_floor(draw):
    """Valid records with log-probs anywhere in [LOGP_FLOOR, 0], top-K rows
    of 2 to 4 candidates, loss masks down to 1e-300 and random segments."""
    num_tokens = draw(st.integers(1, 6))

    def per_token(values):
        return draw(st.lists(values, min_size=num_tokens, max_size=num_tokens))

    widths = per_token(st.integers(2, 4))
    rows = [[draw(st.lists(_LOGP, min_size=width, max_size=width))
             for width in widths] for _ in range(2)]
    cuts = [t for t in range(1, num_tokens) if draw(st.booleans())]
    return {"rollout_id": "r", "tokens": ["tok"] * num_tokens,
            "teacher_logp": per_token(_LOGP), "student_logp": per_token(_LOGP),
            "loss_mask": draw(st.lists(
                st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(1e-300, 1.0),
                min_size=num_tokens, max_size=num_tokens).filter(any)),
            "topk": {"ids": [list(range(width)) for width in widths],
                     "student_logp": [sorted(row, reverse=True)
                                      for row in rows[0]],
                     "teacher_logp": rows[1]},
            "segments": [list(range(lo, hi)) for lo, hi in
                         zip([0, *cuts], [*cuts, num_tokens])]}


def _finite(value):
    """Whether every number in a decoded JSON value is finite; orjson writes
    a non-finite float as null."""
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, list):
        return all(map(_finite, value))
    return isinstance(value, (str, bool)) or (
        isinstance(value, (int, float)) and math.isfinite(value))


@pytest.mark.parametrize("jobs", [1, 2])
@settings(max_examples=20, deadline=None)
@given(objs=st.lists(records_down_to_the_floor(), min_size=2, max_size=4))
def test_records_down_to_the_floor_write_only_finite_numbers(objs, jobs):
    # no value of a valid record passes float range: every release strategy
    # and permute write finite numbers, with a RuntimeWarning an error here
    # and, at jobs 2, in the forked pool workers. fixed:1 reaches the largest
    # scale, sum(loss_mask) / RESCALE_EPS, when token 0's loss mask is tiny
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_CHUNK_BYTES", 1)  # a chunk per line
        src = write_objs(Path(tmp) / "in.jsonl", objs)
        released = os.path.join(tmp, "bic.jsonl")
        for strategy in ("bic", "full", "fixed:1", "permute"):
            out = released if strategy == "bic" else os.path.join(tmp, "out")
            if strategy == "permute":
                report = permute_batch(released, out, PipelineConfig(jobs=jobs))
            else:
                report = process_batch(src, out, PipelineConfig(
                    strategy=strategy, jobs=jobs))
            assert (report.num_records, report.num_errors) == (len(objs), 0)
            assert all(_finite(obj) for obj in read_objs(out)), strategy


@pytest.mark.parametrize("kind", ["regular", "symlink", "device"])
def test_strict_abort_removes_only_a_regular_output(tmp_path, monkeypatch,
                                                    kind):
    # unlink is stubbed, so nothing is deleted even where the guard is wrong
    unlinked = []
    monkeypatch.setattr(pipeline.os, "unlink", unlinked.append)
    src = write_lines(tmp_path / "in.jsonl", [b"not json"])
    out = "/dev/null" if kind == "device" else str(tmp_path / "out.jsonl")
    if kind == "symlink":  # the file open() wrote goes, not the link
        (tmp_path / "real").mkdir()
        os.symlink(tmp_path / "real" / "out.jsonl", out)
    with pytest.raises(DataProcessingError):
        process_batch(src, out, PipelineConfig(strict=True, jobs=1))
    assert unlinked == ([] if kind == "device" else [os.path.realpath(out)])


def count_pools(monkeypatch):
    """The keyword arguments of each ProcessPoolExecutor the pipeline starts."""
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return pools


@pytest.mark.parametrize("command", ["bic", "permute", "diagnose"])
def test_parallel_output_is_bit_identical(tmp_path, monkeypatch, command):
    # 80 records, 587 kB and more once released: at least 9 chunks of
    # 64 kB, more than the jobs * 2 = 4 out at once, so jobs=2 waits on them
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1 << 16)
    lines = [to_line(planted_obj(i, noise=0.4, seed=5)) for i in range(80)]
    if command == "permute":
        released = str(tmp_path / "released.jsonl")
        process_batch(write_lines(tmp_path / "src.jsonl", lines), released,
                      PipelineConfig(jobs=1))
        lines = Path(released).read_bytes().splitlines()
    lines.insert(40, b"{not json")  # in a middle chunk
    src = write_lines(tmp_path / "in.jsonl", lines)
    assert len(list(pipeline._iter_chunks(src))) >= 9
    pools = count_pools(monkeypatch)
    outputs = {}
    for jobs in (1, 2):
        config = PipelineConfig(jobs=jobs, random_seed=3)
        out = str(tmp_path / f"out{jobs}")
        if command == "diagnose":
            result = diagnose_batch(src, out, config)
            report, paths = result.report, result.paths
        elif command == "permute":
            report, paths = permute_batch(src, out, config), [out]
        else:
            report = process_batch(src, out, replace(config, strategy=command))
            paths = [out]
        outputs[jobs] = report, [Path(path).read_bytes() for path in paths]
    assert pools == [{"max_workers": 2}]
    assert outputs[1] == outputs[2]
    report = outputs[1][0]
    assert report.num_records == 80
    assert [line for line, _ in report.errors] == [41]


def test_one_chunk_runs_in_process_at_any_jobs(tmp_path, monkeypatch):
    pools = count_pools(monkeypatch)
    objs = [planted_obj(i, noise=0.4, seed=5) for i in range(8)]
    src = write_objs(tmp_path / "in.jsonl", objs)
    outputs = {}
    for jobs in (1, 2):
        released = str(tmp_path / f"released{jobs}.jsonl")
        permuted = str(tmp_path / f"permuted{jobs}.jsonl")
        process_batch(src, released, PipelineConfig(jobs=jobs))
        permute_batch(released, permuted,
                      PipelineConfig(jobs=jobs, random_seed=4))
        diagnose_batch(src, str(tmp_path / f"diag{jobs}"),
                       PipelineConfig(jobs=jobs))
        outputs[jobs] = [Path(path).read_bytes() for path in (
            released, permuted, *(str(tmp_path / f"diag{jobs}" / name) for name
                                  in ("bins.csv", "margin_bins.csv",
                                      "summary.csv")))]
    assert pools == []
    assert outputs[1] == outputs[2]


def test_chunks_end_at_the_first_line_reaching_the_budget(tmp_path,
                                                         monkeypatch):
    budget = 100
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", budget)
    # line sizes, newline included; 250 alone is over the budget
    sizes = [30, 50, 10, 250, 40, 60, 5, 90, 20, 99, 2, 100, 7]
    lines = [b"x" * (size - 1) for size in sizes]
    src = write_lines(tmp_path / "in.jsonl", lines)
    chunks = list(pipeline._iter_chunks(src))
    assert [item for chunk in chunks for item in chunk] == list(
        iter_jsonl_lines(src))
    for chunk in chunks[:-1]:
        lengths = [len(raw) for _, raw in chunk]
        assert sum(lengths) >= budget
        assert sum(lengths[:-1]) < budget
    assert [[len(raw) for _, raw in chunk] for chunk in chunks] == [
        [30, 50, 10, 250], [40, 60], [5, 90, 20], [99, 2], [100], [7]]


class _Chunk(list):
    """A chunk that can be weakly referenced, so a test can count the live
    ones."""


def _stub_worker(item):
    return -item


def test_map_chunks_bounds_the_chunks_in_flight(monkeypatch):
    pools = count_pools(monkeypatch)
    jobs, pulled, consumed, in_flight, alive = 2, [], [], [], []

    def items():
        for item in range(40):
            chunk = _Chunk([item])
            pulled.append(weakref.ref(chunk))
            in_flight.append(len(pulled) - len(consumed))
            yield chunk

    for chunk, result in pipeline._map_chunks(items(), sum, jobs):
        assert result == chunk[0]
        consumed.append(chunk[0])
        del chunk
        alive.append(sum(ref() is not None for ref in pulled))
    assert consumed == list(range(40))
    assert len(pools) == 1
    assert max(in_flight) == jobs * 2
    # the window is all this process keeps: the first chunks, read to size
    # the pool, are freed once consumed like every other chunk
    assert max(alive) <= jobs * 2


def test_strict_abort_on_a_pool_cancels_the_pending_chunks(tmp_path,
                                                          monkeypatch):
    # 12 one-line chunks, more than jobs * 2 = 4, with the bad line first:
    # its result comes back while 3 chunks are still out at workers
    cancelled = []
    cancel = Future.cancel

    def spy(future):
        cancelled.append(future)
        return cancel(future)

    monkeypatch.setattr(Future, "cancel", spy)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1)
    pools = count_pools(monkeypatch)
    good = json.dumps(planted_obj()).encode()
    src = write_lines(tmp_path / "in.jsonl", [good[:-1]] + [good] * 11)
    out = tmp_path / "out.jsonl"
    with pytest.raises(DataProcessingError, match="line 1: invalid JSON"):
        process_batch(src, str(out), PipelineConfig(jobs=2, strict=True))
    assert pools == [{"max_workers": 2}]
    assert len(cancelled) == 3
    assert not out.exists()


def test_jobs_default_to_the_cpu_count_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pipeline._resolve_jobs(None) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
    assert pipeline._resolve_jobs(None) == 1


def inline_pools(monkeypatch):
    """The max_workers of each pool the pipeline sizes, given a stand-in
    executor that runs each task inline and starts no process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_pool_starts_no_more_workers_than_chunks(tmp_path, monkeypatch):
    sizes = inline_pools(monkeypatch)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1)
    src = write_objs(tmp_path / "in.jsonl", [planted_obj(i) for i in range(2)])
    inline = str(tmp_path / "inline.jsonl")
    process_batch(src, inline, PipelineConfig(jobs=4))
    assert sizes == [2]
    assert list(pipeline._map_chunks(range(9), _stub_worker, 4)) == [
        (item, -item) for item in range(9)]
    assert sizes == [2, 4]
    one = str(tmp_path / "one.jsonl")
    process_batch(src, one, PipelineConfig(jobs=1))
    assert Path(inline).read_bytes() == Path(one).read_bytes()


def test_default_jobs_size_the_pool_at_the_available_cores(tmp_path,
                                                           monkeypatch):
    # PipelineConfig() leaves jobs None: each command sizes its pool at the
    # available cores, and at no more workers than there are chunks
    sizes = inline_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1)
    config = PipelineConfig()
    for count, workers in ((4, 3), (2, 2)):
        objs = [planted_obj(i, noise=0.4, seed=5) for i in range(count)]
        src = write_objs(tmp_path / f"in{count}.jsonl", objs)
        released = str(tmp_path / f"released{count}.jsonl")
        process_batch(src, released, config)
        permute_batch(released, str(tmp_path / f"permuted{count}.jsonl"),
                      config)
        diagnose_batch(src, str(tmp_path / f"diagnose{count}"), config)
        assert sizes == [workers] * 3
        sizes.clear()


def _release_rows(path):
    rows = []
    for obj in read_objs(path):
        release = obj["release"]
        rows.append((release["accepted"], int(sum(release["prefix_mask"])),
                     release["bic_gain"]))
    return rows


def flat_obj(index):
    config = SyntheticConfig(num_segments=6, tokens_per_segment=10,
                             pre_margin_mean=1.0)
    record, _ = generate_piecewise_rollout(config, index)
    return rollout_to_obj(record)


def test_permute_transfers_decisions(tmp_path):
    # 12 planted drops (always accepted) + 12 constants (never accepted)
    objs = [planted_obj(i, noise=0.4, seed=9) for i in range(12)]
    objs += [flat_obj(i) for i in range(12, 24)]
    src = write_objs(tmp_path / "in.jsonl", objs)
    bic_out = str(tmp_path / "bic.jsonl")
    rand_out = str(tmp_path / "rand.jsonl")
    bic_report = process_batch(src, bic_out)
    rand_report = permute_batch(bic_out, rand_out,
                                PipelineConfig(random_seed=3))
    assert bic_report.num_accepted == 12
    assert rand_report.num_accepted == 12
    # layouts are homogeneous, so decisions transfer exactly
    assert sorted(_release_rows(bic_out)) == sorted(_release_rows(rand_out))
    assert _release_rows(bic_out) != _release_rows(rand_out)

    again = str(tmp_path / "again.jsonl")
    permute_batch(bic_out, again, PipelineConfig(random_seed=3))
    assert Path(again).read_bytes() == Path(rand_out).read_bytes()
    other = str(tmp_path / "other.jsonl")
    permute_batch(bic_out, other, PipelineConfig(random_seed=4))
    assert Path(other).read_bytes() != Path(rand_out).read_bytes()


# sha256 of what the former one-pass `release --strategy random --seed S`
# wrote for the input below, at jobs 1 and 2 alike
_RANDOM_RELEASE_SHA256 = {
    0: "92602dbfd133bad04f7add8f4560acc9aab8d5816b23d93faaef374042751226",
    5: "86b840b986b3d5271616dd30cf8af7c021fe0abbe14bd35c63a0608de2d694e3",
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("jobs", [1, 2])
def test_random_release_is_release_then_permute(tmp_path, monkeypatch, jobs,
                                                seed):
    # the random-release control: one seeded permutation over the valid
    # lines gives each line its source's BIC decision, byte for byte as the
    # removed random strategy did, over ragged, built-in-segment, stale
    # release and bad lines
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1 << 12)
    builtin = planted_obj(4, noise=0.4, seed=9)
    del builtin["segments"]  # segmented from its tokens
    stale = planted_obj(5, noise=0.4, seed=9)
    stale["release"] = {"accepted": "stale"}  # replaced, never read
    objs = [ragged_obj(i) for i in range(4)] + [builtin, stale, flat_obj(6)]
    lines = [to_line(obj) for obj in objs]
    lines.insert(3, b"{not json")
    src = write_lines(tmp_path / "in.jsonl", lines)
    released, permuted = (str(tmp_path / name)
                          for name in ("released", "permuted"))
    config = PipelineConfig(jobs=jobs, random_seed=seed)
    assert process_batch(src, released, config).num_errors == 1
    report = permute_batch(released, permuted, config)
    assert (report.num_records, report.num_errors) == (7, 0)
    data = Path(permuted).read_bytes()
    assert hashlib.sha256(data).hexdigest() == _RANDOM_RELEASE_SHA256[seed]
    assert data != Path(released).read_bytes()


def test_permute_batch_preserves_positions(tmp_path):
    objs = [planted_obj(i, noise=0.5, seed=2) for i in range(20)]
    src = write_objs(tmp_path / "in.jsonl", objs)
    released = str(tmp_path / "released.jsonl")
    permuted = str(tmp_path / "permuted.jsonl")
    process_batch(src, released)
    report = permute_batch(released, permuted, PipelineConfig(random_seed=7))
    assert report.num_errors == 0
    assert report.num_records == 20
    assert sorted(_release_rows(released)) == sorted(_release_rows(permuted))


def test_permute_echoes_unknown_values_exactly(tmp_path, monkeypatch):
    # the release value is replaced inside the raw line, so values that a
    # decode and re-encode would change pass through byte for byte: an
    # integer wider than 64 bits, a NaN literal and a lone-surrogate escape.
    # A value written last is found from the line's tail; only a release key
    # that is not last costs a scan of the whole line.
    objs = [planted_obj(i, noise=0.5, seed=2) for i in range(6)]
    released = str(tmp_path / "released.jsonl")
    process_batch(write_objs(tmp_path / "in.jsonl", objs), released)
    lines = Path(released).read_bytes().splitlines()
    extra = (b'"big": %d, "odd": NaN, "name": "\\ud800 \\"release\\": 1"'
             % 2**70)
    marked = [b"{" + extra + b", " + line[1:] for line in lines[:3]]
    # a top-level release key that is not the last one
    marked += [line[:-1] + b', "after": {' + extra + b"}}" for line in lines[3:]]
    src = write_lines(tmp_path / "marked.jsonl", marked)
    plain, out = str(tmp_path / "plain.jsonl"), str(tmp_path / "out.jsonl")
    scanned = []

    def counted_scan(raw, key):
        scanned.append(raw.rstrip(b"\n"))
        return _member_value_span(raw, key)

    monkeypatch.setattr(pipeline, "_member_value_span", counted_scan)
    config = PipelineConfig(random_seed=7, jobs=1)
    assert permute_batch(released, plain, config).num_errors == 0
    assert process_batch(released, str(tmp_path / "again.jsonl"),
                         config).num_errors == 0
    assert scanned == []
    assert permute_batch(src, out, config).num_errors == 0
    assert scanned == marked[3:]

    key = b',"release":'
    for line, before, new, after in zip(
            lines, marked, Path(plain).read_bytes().splitlines(),
            Path(out).read_bytes().splitlines()):
        head = line.rindex(key) + len(key)
        assert new.startswith(line[:head]) and new.endswith(b"}")
        old_value, new_value = line[head:-1], new[head:-1]
        assert before.count(old_value) == 1
        assert after == before.replace(old_value, new_value)
        parsed = json.loads(after)
        assert parsed["release"] == json.loads(new)["release"]
        assert parsed.get("after", parsed)["big"] == 2**70


_KEYS = (st.sampled_from(["release", 'x"release', "release\\", "[{", "é"])
         | st.text(max_size=4))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6) | _KEYS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(members=st.lists(st.tuples(_KEYS, _JSON), max_size=5),
       position=st.integers(0, 5), value=_JSON,
       separators=st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", " :\n ")]),
       ascii=st.booleans(), lead=st.sampled_from([b"", b" "]),
       end=st.sampled_from([b"}\n", b" }\r\n"]))
def test_member_value_span_finds_the_top_level_key(members, position, value,
                                                   separators, ascii, lead,
                                                   end):
    members.insert(position, ("release", value))
    items = separators[0].join(
        json.dumps(k, ensure_ascii=ascii) + separators[1]
        + json.dumps(v, ensure_ascii=ascii, separators=separators)
        for k, v in members)
    raw = lead + ("{" + items).encode() + end
    expected = dict(members)  # the last of duplicate keys wins, as in a decoder
    start, stop = _member_value_span(raw, "release")
    assert _release_span(expected, raw) == (start, stop)
    assert json.loads(raw[start:stop]) == expected["release"]
    expected["release"] = "new"
    assert json.loads(raw[:start] + b'"new"' + raw[stop:]) == expected


@pytest.mark.parametrize("raw", [
    b'{"a":1,"release":{"x":[1,2]}}\n',
    b'{"a":1 ,\t"release" :\n {"x":[1,2]} \n}\n',
    b'{"release":1,"a":{"release":2}}\n',         # nested key, last of the last
    b'{"release":1,"a":[{"b":0,"release":2}]}\n',
    b'{"release":1,"x\\"release":2}\n',           # escaped quote in a key
    b'{"release":1,"note":"\\"release\\": 2"}\n',
    b'{"release":1,"a":"release"}\n',             # a string value
    b'{"release":1,"a":["b","release"]}\n',
    b'{"release":[3],"a":0,"release":1}\n',       # duplicates
    b'{"release":1,"release" : [3] }\n',
    b'{"release":{"x":2},"a":0}\n',               # not last
    b'{"a":1,"release":{"x":2}}\r\n',
    b'{"a":NaN,"release":{"x":2}}\n',
    b'{"release":{"x":NaN}}\n',
    b' {"release":"\\ud800"}\n',
    b'{"a":1,"release":{"note":"}"}}\n',          # objects release does
    b'{"a":1,"release":{"x":{"y":2}}}\n',        # not write: scanned
    b'{"a":1,"release": {"x":1}, "k":{"y":2}}\n',
])
def test_release_span_from_the_tail_equals_the_scan(raw):
    assert _release_span(json.loads(raw), raw) == _member_value_span(
        raw, "release")


def test_release_span_of_release_output_needs_no_decode(tmp_path,
                                                        monkeypatch):
    # release appends an object holding no other brace; the span of that
    # layout is exact without decoding the value or scanning the line
    released = str(tmp_path / "released.jsonl")
    process_batch(write_objs(tmp_path / "in.jsonl", [planted_obj()]), released)
    raw = Path(released).read_bytes()
    obj = json.loads(raw)
    scanned = []
    monkeypatch.setattr(pipeline, "_member_value_span",
                        lambda raw, key: scanned.append(key))
    start, end = _release_span(obj, raw)
    assert scanned == []
    assert raw[start - 1:start] == b":" and raw[end:] == b"}\n"
    assert json.loads(raw[start:end]) == obj["release"]


_LAYOUTS = ("compact", "padded", "no final newline", "crlf", "spaced",
            "release first", "release last")
_COMMANDS = {
    "bic": (process_batch, {}),
    "full": (process_batch, dict(strategy="full")),
    "fixed:20": (process_batch, dict(strategy="fixed:20")),
    "permute": (permute_batch, dict(random_seed=8)),
}


def _layout_parts(obj, release, layout):
    """(before, value, after) of one input line in a layout: the bytes of
    its release value, b"" when it has none, and the bytes around them."""
    sep = (" , ", " : ") if layout == "spaced" else (",", ":")
    members = json.dumps(obj, separators=sep).encode()[1:-1]
    if release is None:
        before, value, after = b"{" + members, b"", b"}"
    else:
        if layout.startswith("release"):
            release = dict(release, note="}")  # a brace inside a string
        value = json.dumps(release, separators=sep).encode()
        key = b'"release"' + sep[1].encode()
        if layout == "release first":
            before, after = b"{" + key, sep[0].encode() + members + b"}"
        else:
            before, after = b"{" + members + sep[0].encode() + key, b"}"
    if layout == "padded":
        before, after = b"  " + before, after + b" \t"
    elif layout == "crlf":
        after += b"\r"
    return before, value, after


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_release_is_spliced_into_the_stripped_line(tmp_path, layout, command):
    # every output line is its input line stripped, with only the release
    # value replaced, or with ',"release":' and the value put before the
    # closing brace when the line has none; the value is dumps_obj of the
    # release object the line decodes to. Uniform, ragged and wide top-K
    # rows alike.
    objs = [planted_obj(i, noise=0.5, seed=2) for i in range(4)]
    objs += [ragged_obj(4), reshaped_topk(planted_obj(5), {0: 5000})]
    released = str(tmp_path / "released.jsonl")
    process_batch(write_objs(tmp_path / "plain.jsonl", objs), released,
                  PipelineConfig(jobs=1))
    releases = [obj["release"] for obj in read_objs(released)]
    if command != "permute" and not layout.startswith("release"):
        releases = [None] * len(objs)
    parts = [_layout_parts(obj, release, layout)
             for obj, release in zip(objs, releases)]
    text = b"\n".join(b"".join(part) for part in parts)
    src = tmp_path / "in.jsonl"
    src.write_bytes(text if layout == "no final newline" else text + b"\n")
    out = str(tmp_path / "out.jsonl")
    run, options = _COMMANDS[command]
    report = run(str(src), out, PipelineConfig(jobs=1, **options))
    assert (report.num_records, report.num_errors) == (len(objs), 0)
    lines = Path(out).read_bytes().split(b"\n")
    assert lines.pop() == b"" and len(lines) == len(objs)
    for (before, value, after), line in zip(parts, lines):
        new = dumps_obj(json.loads(line)["release"])
        if not value:
            new = b',"release":' + new
        assert line == (before + new + after).strip()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_rows_past_the_support_leave_every_writer_unchanged(tmp_path, command):
    # the support of 4 is a gather from ragged rows and a view of uniform
    # ones; rows widened past it, row 0 to 5,000 candidates, give every
    # writer the release of the rows cut to it, short rows kept
    cut = [reshaped_topk(ragged_obj(i), {1: 4, 7: 4, 59: 4}) for i in range(2)]
    cut += [planted_obj(i, noise=0.5, seed=2) for i in (2, 3)]
    wide = [ragged_obj(0), ragged_obj(1),
            reshaped_topk(cut[2], {0: 5000}), reshaped_topk(cut[3], {2: 7})]
    run, options = _COMMANDS[command]
    releases = []
    for name, objs in (("cut", cut), ("wide", wide)):
        src = write_objs(tmp_path / f"{name}.jsonl", objs)
        if command == "permute":
            src = str(tmp_path / f"{name}.released.jsonl")
            process_batch(write_objs(tmp_path / f"{name}.plain.jsonl", objs),
                          src, PipelineConfig(jobs=1))
        out = str(tmp_path / f"{name}.out.jsonl")
        report = run(src, out, PipelineConfig(jobs=1, **options))
        assert (report.num_records, report.num_errors) == (4, 0)
        releases.append([obj["release"] for obj in read_objs(out)])
    assert releases[0] == releases[1]


@pytest.mark.parametrize("enabled", [True, False])
def test_batches_restore_gc_state(tmp_path, enabled):
    # chunk workers pause the collector while they decode; in this process
    # (jobs=1) a batch leaves it as it found it, bad lines included
    good = to_line(valid_obj())
    lines = [good, good.replace(b"-0.2", b"NaN", 1), good[:-5]]
    src = write_lines(tmp_path / "in.jsonl", lines)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        report = process_batch(src, str(tmp_path / "out.jsonl"),
                               PipelineConfig(jobs=1))
        assert (report.num_records, report.num_errors) == (1, 2)
        assert gc.isenabled() is enabled
        with pytest.warns(RuntimeWarning, match="zero std"):  # one record
            result = diagnose_batch(src, str(tmp_path / "diag"),
                                    PipelineConfig(jobs=1))
        assert result.report.num_errors == 2
        assert gc.isenabled() is enabled

        def abort(raw):
            raise KeyError("not a TeachcutError: aborts the chunk")

        with pytest.raises(KeyError):
            pipeline._run_lines([(1, good)], abort)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("jobs", [1, 2])
def test_permute_requires_release_objects(tmp_path, monkeypatch, jobs):
    released = str(tmp_path / "released.jsonl")
    process_batch(write_objs(tmp_path / "one.jsonl", [planted_obj()]), released)
    line = Path(released).read_bytes().strip()
    gain = line.index(b'"bic_gain":') + len(b'"bic_gain":')
    # JSON has no NaN; a gain that is not finite cannot be written back
    nan_gain = line[:gain] + b"NaN" + line[line.index(b",", gain):]
    mask = json.loads(line)["release"]["prefix_mask"]
    boolean, per_token, integer = ("expected a boolean",
                                   "expected a list with one entry per token",
                                   "expected an integer of at least 1")
    # (the field the error names, the release values changed, its text);
    # the release kept 3 of 6 segments, so a reversed mask differs at 0
    bad_fields = [
        ("accepted", {"accepted": 1}, boolean),
        ("accepted", {"accepted": "true"}, boolean),
        ("accepted", {"accepted": None}, boolean),
        ("prefix_mask", {"prefix_mask": {}}, per_token),
        ("prefix_mask", {"prefix_mask": mask[:-1]}, per_token),
        ("release_segment", {"prefix_mask": mask[::-1], "release_segment": 99},
         "past the record's last segment"),
        ("prefix_mask at position 0", {"prefix_mask": mask[::-1]},
         "not the mask of release_segment 3"),
        ("release_segment", {"release_segment": 0}, integer),
        ("release_segment", {"release_segment": True}, integer),
        ("release_segment", {"release_segment": 3.0}, integer),
        (f"prefix_mask at position {len(mask) - 1}",
         {"accepted": False, "prefix_mask": [1.0] * (len(mask) - 1) + [0.0]},
         "an unaccepted release keeps every token")]
    for value in (0.5, 7.0, -1.0):  # the first wrong entry is named
        wrong = mask[:40] + [value] + mask[41:50] + [value] + mask[51:]
        bad_fields.append(("prefix_mask at position 40",
                           {"prefix_mask": wrong}, "expected 0 or 1"))
    lines = [json.dumps(planted_obj()).encode(), nan_gain]
    for _, changes, _ in bad_fields:
        obj = json.loads(line)
        obj["release"].update(changes)
        lines.append(json.dumps(obj).encode())
    src = write_lines(tmp_path / "in.jsonl", lines)
    out = tmp_path / "out.jsonl"
    # a chunk per line, so that jobs=2 checks the lines on a pool
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1)
    pools = count_pools(monkeypatch)
    report = permute_batch(src, str(out), PipelineConfig(jobs=jobs))
    assert pools == ([] if jobs == 1 else [{"max_workers": 2}])
    assert (report.num_records, report.num_errors) == (0, 16)
    assert "run release first" in report.errors[0][1]
    assert report.errors[1][1].startswith("line 2: release.bic_gain")
    assert [message for _, message in report.errors[2:]] == [
        f"line {number}: release.{key}: {text}"
        for number, (key, _, text) in enumerate(bad_fields, start=3)]
    assert out.read_bytes() == b""
    with pytest.raises(DataProcessingError):
        permute_batch(src, str(tmp_path / "strict.jsonl"),
                      PipelineConfig(jobs=jobs, strict=True))


def seeded_transfer_lines():
    """Sixty noisy records: every third with two short top-K rows, every
    seventh without segments, others with segments that leave their first
    token unassigned, some with a stale release key before the other keys,
    one CRLF line; plus blank lines and three bad lines."""
    rng = np.random.default_rng(5)
    lines = []
    for i in range(60):
        config = SyntheticConfig(num_segments=int(rng.integers(3, 12)),
                                 tokens_per_segment=int(rng.integers(2, 8)),
                                 true_tau=None if i % 5 == 0 else 2,
                                 pre_margin_mean=2.0, noise_std=0.4, seed=i)
        obj = rollout_to_obj(generate_piecewise_rollout(config, i)[0])
        if i % 3 == 0:
            for t in (0, len(obj["tokens"]) // 2):
                for rows in obj["topk"].values():
                    rows[t] = rows[t][:2]
        if i % 7 == 0:
            del obj["segments"]
        elif i % 4 == 1:
            obj["segments"] = [seg[1:] for seg in obj["segments"]]
        if i % 11 == 2:
            obj = {"release": {"stale": True}, **obj}
        lines.append(json.dumps(obj).encode() + (b"\r" if i == 4 else b""))
    bad_logp, bad_segments = json.loads(lines[1]), json.loads(lines[1])
    bad_logp["teacher_logp"][0] = 0.5
    bad_segments["segments"] = [[0, 0]]
    lines[5:5] = [lines[1][:-7], b"", b"   "]
    lines[20:20] = [json.dumps(bad_logp).encode()]
    lines[33:33] = [json.dumps(bad_segments).encode()]
    return lines


def _segment_index(record):
    if record.segments:
        return SegmentIndex(record.segments, record.num_tokens)
    return segment_tokens(record.token_surfaces)


def _expected_transfer(src, decisions, seed):
    """Per line number, the output object that permute_release_points,
    build_prefix_mask and rescale_advantages give each valid record of src,
    whose decisions are decisions(obj, record)."""
    kept = []
    for number, raw in enumerate(Path(src).read_bytes().split(b"\n"), 1):
        try:
            obj = json.loads(raw)
            record = rollout_from_obj(obj)
            decision = decisions(obj, record)
        except (ValueError, TeachcutError):
            continue
        kept.append((number, obj, record, _segment_index(record), decision))
    assignments = permute_release_points(
        [(seg, decision) for _, _, _, seg, decision in kept], seed)
    expected = {}
    for (number, obj, record, seg, _), moved in zip(kept, assignments):
        mask = build_prefix_mask(seg, moved, record.num_tokens)
        rescaled, scale = rescale_advantages(sampled_advantage(record),
                                             record.loss_mask, mask)
        obj["release"] = {"accepted": moved.accepted,
                          "release_segment": moved.release_segment,
                          "bic_gain": moved.bic_gain, "scale": scale,
                          "prefix_mask": mask.tolist(),
                          "rescaled_advantages": rescaled.tolist()}
        expected[number] = obj
    return expected


@pytest.mark.parametrize("decisions", ["written", "own"])
def test_transfers_match_per_record_functions(tmp_path, decisions):
    # release, with its stale release keys and bad lines, then permute. Each
    # record gets the decision its source's release wrote, which is the
    # source's own BIC decision: the random-release control
    src = write_lines(tmp_path / "in.jsonl", seeded_transfer_lines())
    released = str(tmp_path / "released.jsonl")
    assert process_batch(src, released).num_errors == 3

    def written(obj, record):
        release = obj["release"]
        return ChangeDecision(release["release_segment"], release["accepted"],
                              release["bic_gain"], None, None)

    def own(obj, record):
        return dynamic_prefix_reweight(record).decision

    expected = (_expected_transfer(released, written, seed=4)
                if decisions == "written" else
                _expected_transfer(src, own, seed=4))
    outputs = []
    for jobs in (1, 2):
        out = str(tmp_path / f"permute-{jobs}.jsonl")
        report = permute_batch(released, out,
                               PipelineConfig(jobs=jobs, random_seed=4))
        assert report.num_records == len(expected) == 60
        outputs.append(Path(out).read_bytes())
    assert outputs[0] == outputs[1]
    assert read_objs(out) == list(expected.values())
    # a stale release value is replaced, not followed by a second one
    assert all(line.count(b'"release"') == 1
               for line in outputs[0].splitlines())


# sha256 of what permute --seed 4 writes for each release of the seeded
# transfer lines; one that keeps every token is full supervision
_CONSISTENT_PERMUTE_SHA256 = {
    "full": "896a2bd238895e6a6b5b6b183923cf3262378ed56bd4a54eae9f8ab9589a33c8",
    "fixed:5000": "896a2bd238895e6a6b5b6b183923cf3262378ed56bd4a54eae9f8ab9589a33c8",
    "builtin": "8c6e128fa8054a21a8ecf62ece74c96564374c2def03a7e539e9a9cabf561377",
}


def _permute_release(tmp_path, config):
    src = write_lines(tmp_path / "in.jsonl", seeded_transfer_lines())
    released, permuted = (str(tmp_path / name)
                          for name in ("released", "permuted"))
    process_batch(src, released, config)
    report = permute_batch(released, permuted,
                           PipelineConfig(jobs=config.jobs, random_seed=4))
    return report, Path(permuted).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("release", ["full", "fixed:5000", "builtin"])
def test_permute_takes_every_consistent_release(tmp_path, release, jobs):
    # full, and fixed:K with K past every response, keep every token, as an
    # unaccepted release does. A --segments builtin release cuts each record
    # on its tokens' segmentation, which is not its own segments where those
    # leave their first token unassigned; permute, reading with --segments
    # record, takes either layout
    config = (PipelineConfig(jobs=jobs, segments_source="builtin")
              if release == "builtin" else
              PipelineConfig(jobs=jobs, strategy=release))
    report, permuted = _permute_release(tmp_path, config)
    assert (report.num_records, report.num_errors) == (60, 0)
    assert (hashlib.sha256(permuted).hexdigest()
            == _CONSISTENT_PERMUTE_SHA256[release])


@pytest.mark.parametrize("jobs", [1, 2])
def test_permute_refuses_a_fixed_prefix_that_drops_tokens(tmp_path, jobs):
    # fixed:7 writes an unaccepted decision with a mask that keeps 7 tokens;
    # permute would read it as every token kept, so each longer line is
    # refused at its first dropped token
    report, _ = _permute_release(
        tmp_path, PipelineConfig(jobs=jobs, strategy="fixed:7"))
    assert (report.num_records, report.num_errors) == (1, 59)
    assert {message.split(": ", 1)[1] for _, message in report.errors} == {
        "release.prefix_mask at position 7: "
        "an unaccepted release keeps every token"}


def test_permute_counts_each_bad_line_once(tmp_path, caplog):
    src = write_lines(tmp_path / "in.jsonl", seeded_transfer_lines())
    released = str(tmp_path / "released.jsonl")
    process_batch(src, released)
    lines = Path(released).read_bytes().splitlines()
    bad_mask = json.loads(lines[1])
    bad_mask["release"]["prefix_mask"][0] = 0.5
    lines[5:5] = [lines[1][:-7]]
    lines[20:20] = [json.dumps(bad_mask).encode()]
    lines[33:33] = [b"{not json"]
    bad = write_lines(tmp_path / "bad.jsonl", lines)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="teachcut"):
        report = permute_batch(bad, str(tmp_path / "permuted.jsonl"))
    assert report.num_records == 60
    assert [number for number, _ in report.errors] == [6, 21, 34]
    assert caplog.messages == [message for _, message in report.errors]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strict", [False, True])
def test_transfer_overflow_is_rejected_and_spill_removed(tmp_path,
                                                         monkeypatch, strict):
    # as in test_non_finite_release_is_rejected, with a one-token first
    # segment kept: validation rejects the line in pass 1, so it is never
    # spilled, and strict mode aborts there, before line 2
    obj = valid_obj()
    obj["student_logp"][0] = -1.7e308
    obj["loss_mask"][0] = 1e-300
    obj["segments"] = [[0], [1, 2, 3]]
    obj["release"] = {"accepted": True, "release_segment": 1, "bic_gain": 9.0,
                      "prefix_mask": [1.0, 0.0, 0.0, 0.0]}
    src = write_lines(tmp_path / "in.jsonl", [to_line(obj), b"not json"])
    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    out = tmp_path / "out.jsonl"
    config = PipelineConfig(strict=strict, jobs=1)
    if strict:
        with pytest.raises(DataProcessingError,
                           match="line 1: student_logp at position 0"):
            permute_batch(src, str(out), config)
        assert not out.exists()
    else:
        report = permute_batch(src, str(out), config)
        assert report.num_records == 0
        assert [message.split(":")[:2] for _, message in report.errors] == [
            ["line 1", " student_logp at position 0"],
            ["line 2", " invalid JSON"]]
        assert out.read_bytes() == b""
    assert list(spill_dir.iterdir()) == []


def test_transfers_read_the_input_once_with_one_pool(tmp_path, monkeypatch):
    # pass 2 rewrites what pass 1 spilled, without the pool or the input
    reads = []

    def counted_lines(path):
        reads.append(path)
        return iter_jsonl_lines(path)

    # about two lines per chunk, so the six records need the pool
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1 << 13)
    monkeypatch.setattr(pipeline, "iter_jsonl_lines", counted_lines)
    pools = count_pools(monkeypatch)
    src = write_objs(tmp_path / "in.jsonl",
                     [planted_obj(i, noise=0.4, seed=1) for i in range(6)])
    released = str(tmp_path / "released.jsonl")
    process_batch(src, released, PipelineConfig(jobs=2))
    reads.clear()
    pools.clear()
    report = permute_batch(released, str(tmp_path / "out.jsonl"),
                           PipelineConfig(jobs=2))
    assert report.num_records == 6
    assert (len(reads), len(pools)) == (1, 1)


def test_diagnose_batch_outputs(tmp_path):
    objs = [planted_obj(i) for i in range(4)]
    objs.append(valid_obj(num_tokens=6))  # constant margins, never accepted
    src = write_objs(tmp_path / "in.jsonl", objs)
    out_dir = tmp_path / "diag"
    result = diagnose_batch(src, str(out_dir))
    assert result.report.num_records == 5
    assert result.report.num_accepted == 4
    assert result.summary.acceptance_rate == 0.8
    assert result.summary.mean_relative_release_position == 0.5
    assert [p.rsplit("/", 1)[1] for p in result.paths] == [
        "bins.csv", "margin_bins.csv", "summary.csv"]
    for path in result.paths:
        assert (out_dir / path.rsplit("/", 1)[1]).exists()
    # planted drop: normalized margin curve starts at 1 and decays
    assert result.margin_bins.bin_mean[0] == pytest.approx(1.0)
    assert result.margin_bins.bin_mean[-1] < 0.5
    assert int(result.advantage_bins.bin_count.sum()) == 4 * 60 + 6


def test_diagnose_margin_curve_over_a_tiny_base_is_empty(tmp_path):
    # margins 1e-300 in bin 0 and 1e100 in bin 1: the normalized curve's
    # ratio 1e400 overflows, so the row is empty cells, not inf
    obj = valid_obj()
    obj["topk"]["teacher_logp"] = [[-1e-300, -2e-300, -1.0]] * 2 + [
        [0.0, LOGP_FLOOR, LOGP_FLOOR]] * 2
    src = write_objs(tmp_path / "in.jsonl", [obj])
    with pytest.warns(RuntimeWarning) as caught:
        result = diagnose_batch(src, str(tmp_path / "diag"),
                                PipelineConfig(num_bins=2))
    assert result.report.num_records == 1
    assert ("a ratio to the first non-empty bin's mean overflows; "
            "normalized curve is undefined") in {str(w.message) for w in caught}
    text = (tmp_path / "diag" / "margin_bins.csv").read_text()
    assert "inf" not in text
    assert text.splitlines()[1:] == ["0,2,,0.0,", "1,2,,0.0,"]


@pytest.mark.parametrize("chunk_bytes", [1 << 12, pipeline._CHUNK_BYTES])
@pytest.mark.parametrize("jobs", [1, 2])
def test_diagnose_bins_equal_the_library_over_valid_records(
        tmp_path, monkeypatch, jobs, chunk_bytes):
    # more than 64 valid records, so sums grouped by chunk would show
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", chunk_bytes)
    lines = []
    for i in range(90):
        lines.append(to_line(planted_obj(i, noise=0.7, seed=11)))
        if i % 20 == 7:
            lines.append(b"{not json")
    src = write_lines(tmp_path / "in.jsonl", lines)
    out_dir = tmp_path / "diag"
    result = diagnose_batch(src, str(out_dir), PipelineConfig(jobs=jobs))
    assert (result.report.num_records, result.report.num_errors) == (90, 5)

    records = [parse_rollout_line(raw) for raw in lines if raw[:2] != b"{n"]
    for name, stats in (
            ("bins.csv", binned_advantage_stats(
                [sampled_advantage(record) for record in records])),
            ("margin_bins.csv", binned_margin_curve(
                [teacher_top2_margin(record.candidates) for record in records]))):
        expected = tmp_path / ("expected_" + name)
        write_bins_csv(stats, str(expected))
        assert (out_dir / name).read_bytes() == expected.read_bytes()


def test_diagnose_empty_and_junk_inputs(tmp_path):
    empty = write_lines(tmp_path / "empty.jsonl", [])
    result = diagnose_batch(empty, str(tmp_path / "d1"))
    assert result.summary is None
    assert result.paths == ()
    assert not (tmp_path / "d1").exists()

    junk = write_lines(tmp_path / "junk.jsonl", [b"nope", b"{}"])
    result = diagnose_batch(junk, str(tmp_path / "d2"))
    assert result.report.num_errors == 2
    assert result.summary is None


def test_probs_mode_matches_logp_mode(tmp_path):
    obj = planted_obj()
    for t, keep in ((5, 2), (40, 3)):  # short rows
        for key in ("ids", "student_logp", "teacher_logp"):
            obj["topk"][key][t] = obj["topk"][key][t][:keep]
    prob_obj = json.loads(json.dumps(obj))
    topk = prob_obj["topk"]
    topk["student_logp"] = [[math.exp(v) for v in row]
                            for row in topk["student_logp"]]
    topk["teacher_logp"] = [[math.exp(v) for v in row]
                            for row in topk["teacher_logp"]]
    log_src = write_objs(tmp_path / "log.jsonl", [obj])
    prob_src = write_objs(tmp_path / "prob.jsonl", [prob_obj])
    log_out = str(tmp_path / "log_out.jsonl")
    prob_out = str(tmp_path / "prob_out.jsonl")
    process_batch(log_src, log_out)
    process_batch(prob_src, prob_out, PipelineConfig(probs=True))
    log_release = read_objs(log_out)[0]["release"]
    prob_release = read_objs(prob_out)[0]["release"]
    assert prob_release["release_segment"] == log_release["release_segment"]
    assert prob_release["prefix_mask"] == log_release["prefix_mask"]
    assert prob_release["bic_gain"] == pytest.approx(log_release["bic_gain"],
                                                     rel=1e-6)
    # the converted rows, short ones included, equal the log-prob rows
    log_cands = parse_rollout_line(to_line(obj)).candidates
    prob_cands = parse_rollout_line(to_line(prob_obj), probs=True).candidates
    np.testing.assert_allclose(prob_cands.teacher_logp, log_cands.teacher_logp,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prob_cands.student_logp, log_cands.student_logp,
                               rtol=1e-12, atol=1e-12)


def test_segments_source_builtin_overrides_record(tmp_path):
    obj = valid_obj(num_tokens=3)
    obj["tokens"] = ["a.", "b", "c."]
    obj["segments"] = [[0, 1, 2]]
    src = write_objs(tmp_path / "in.jsonl", [obj])
    from_record = str(tmp_path / "record.jsonl")
    from_surface = str(tmp_path / "surface.jsonl")
    process_batch(src, from_record)
    process_batch(src, from_surface, PipelineConfig(segments_source="builtin"))
    # rejected records report the full retained segment count
    assert read_objs(from_record)[0]["release"]["release_segment"] == 1
    assert read_objs(from_surface)[0]["release"]["release_segment"] == 2


def test_topk_required_only_for_bic(tmp_path):
    obj = planted_obj()
    del obj["topk"]
    src = write_objs(tmp_path / "in.jsonl", [obj])
    bic_out = str(tmp_path / "bic.jsonl")
    report = process_batch(src, bic_out)
    assert (report.num_records, report.num_errors) == (0, 1)
    assert report.acceptance_rate == 0.0
    assert "top-K" in report.errors[0][1]

    full_out = str(tmp_path / "full.jsonl")
    report = process_batch(src, full_out, PipelineConfig(strategy="full"))
    assert (report.num_records, report.num_errors) == (1, 0)


def test_output_path_must_differ(tmp_path):
    src = write_objs(tmp_path / "in.jsonl", [planted_obj()])
    before = Path(src).read_bytes()
    (tmp_path / "symlink.jsonl").symlink_to(src)
    (tmp_path / "hardlink.jsonl").hardlink_to(src)
    for out in (src, str(tmp_path / "symlink.jsonl"),
                str(tmp_path / "hardlink.jsonl")):
        with pytest.raises(ValueError, match="must differ"):
            process_batch(src, out)
        with pytest.raises(ValueError, match="must differ"):
            permute_batch(src, out)
    assert Path(src).read_bytes() == before


@pytest.mark.parametrize("kwargs, match", [
    (dict(strategy="banana"), "unknown strategy"),
    (dict(segments_source="magic"), "segments_source"),
    (dict(strategy="fixed"), "unknown strategy"),
    (dict(strategy="fixed:0"), "K must be at least 1"),
    (dict(support_size=1), "support_size"),
    (dict(num_bins=0), "num_bins"),
    (dict(jobs=0), "jobs"),
    (dict(gain_threshold=math.nan), "gain_threshold"),
    (dict(strategy="fixed:abc"), "K must be an integer"),
    # the long names are not spellings of a strategy
    (dict(strategy="bic_release"), "unknown strategy"),
    (dict(strategy="fixed_prefix"), "unknown strategy"),
    # the random-release control is permute on a release output
    (dict(strategy="random"), re.escape(
        "unknown strategy 'random' (expected bic | full | fixed:K)")),
    (dict(random_seed=-1), "random_seed must be non-negative"),
    # K is ASCII digits only, though int() takes each of these
    (dict(strategy="fixed: 7"), "K must be an integer in ASCII digits"),
    (dict(strategy="fixed:+7"), "K must be an integer in ASCII digits"),
    (dict(strategy="fixed:1_000"), "K must be an integer in ASCII digits"),
    (dict(strategy="fixed:\u0663"), "K must be an integer in ASCII digits"),
    (dict(strategy=3), "unknown strategy 3"),
    # past the digits int() converts or prints, the error still names the
    # setting
    (dict(strategy="fixed:" + "9" * 5000),
     "^invalid strategy: K must have at most 4300 digits$"),
    (dict(jobs=-10**5000),
     "^jobs must be at least 1, got a negative integer of 16610 bits$"),
    (dict(random_seed=-10**5000),
     "^random_seed must be non-negative, got a negative integer of 16610 bits$"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize("field", ["support_size", "num_bins", "jobs",
                                   "random_seed"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
def test_config_integer_fields_take_only_int(field, bad):
    # refused when the config is built, not taken silently (num_bins, jobs)
    # or left to fail mid-batch (random_seed, support_size)
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        PipelineConfig(**{field: bad})


def test_config_has_no_prefix_tokens_field():
    # K is read from the "fixed:K" strategy, never given apart from it
    with pytest.raises(TypeError, match="prefix_tokens"):
        PipelineConfig(prefix_tokens=5)


@pytest.mark.parametrize("argv, cls", [
    (["release", "--in", "a", "--out", "b"], PipelineConfig),
    (["diagnose", "--in", "a", "--out", "b"], PipelineConfig),
    (["permute", "--in", "a", "--out", "b"], PipelineConfig),
    (["simulate", "--out", "b"], SyntheticConfig),
])
def test_flags_are_config_fields_with_their_defaults(argv, cls):
    parser = cli._build_parser()
    args = parser.parse_args(argv)
    # a flag whose dest is not a field would be dropped without a word
    settings = set(vars(args)) - {"command", "handler", "batch", "input",
                                  "output", "rollouts"}
    assert settings <= {field.name for field in fields(cls)}
    assert cli._config(cls, args) == cls()


def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    src = write_objs(tmp_path / "in.jsonl", [planted_obj(i) for i in range(3)])
    released = str(tmp_path / "released.jsonl")
    process_batch(src, released)

    def no_reading(path):
        raise AssertionError("a record was read")

    monkeypatch.setattr(pipeline, "iter_jsonl_lines", no_reading)
    out = tmp_path / "out.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["permute", "--in", released, "--out", str(out),
                  "--seed", "-1"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert "random_seed must be non-negative" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("strategy, kept", [("full", 60), ("fixed:7", 7)])
def test_single_record_reweight_untested_strategies(strategy, kept):
    # full is the fixed prefix of every token; neither runs the test
    record = parse_rollout_line(json.dumps(planted_obj()).encode())
    result = dynamic_prefix_reweight(record, PipelineConfig(strategy=strategy))
    assert result.decision == ChangeDecision(release_segment=-1,
                                             accepted=False, bic_gain=0.0,
                                             mu_pre=None, mu_post=None)
    assert result.prefix_mask.dtype == np.float64
    np.testing.assert_array_equal(result.prefix_mask,
                                  np.arange(60) < kept)


def test_single_record_reweight_bic():
    record = parse_rollout_line(json.dumps(planted_obj()).encode())
    result = dynamic_prefix_reweight(record)
    assert result.decision.accepted
    assert result.decision.release_segment == 3
    assert result.scale == 2.0
