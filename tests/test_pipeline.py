import gc
import json
import logging
import math
import tempfile
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut import pipeline
from teachcut.changepoint import ChangeDecision
from teachcut.diagnostics import (binned_advantage_stats, binned_margin_curve,
                                  write_bins_csv)
from teachcut.margin import teacher_top2_margin
from teachcut.pipeline import (PipelineConfig, _member_value_span,
                               _release_span, diagnose_batch,
                               dynamic_prefix_reweight, permute_batch,
                               process_batch)
from teachcut.records import (DataProcessingError, TeachcutError,
                              iter_jsonl_lines, parse_rollout_line,
                              rollout_from_obj, rollout_to_obj,
                              sampled_advantage)
from teachcut.reweight import (build_prefix_mask, permute_release_points,
                               rescale_advantages)
from teachcut.segmentation import SegmentIndex, segment_tokens
from teachcut.synthetic import SyntheticConfig, generate_piecewise_rollout

from helpers import to_line, valid_obj

# planted construction used throughout: 6 segments x 10 tokens, drop at 3
PLANTED = SyntheticConfig(num_segments=6, tokens_per_segment=10, true_tau=3,
                          pre_margin_mean=2.0, post_margin_mean=0.0)


def planted_obj(index=0, noise=0.0, seed=0):
    config = SyntheticConfig(num_segments=6, tokens_per_segment=10,
                             true_tau=3, pre_margin_mean=2.0,
                             post_margin_mean=0.0, noise_std=noise, seed=seed)
    record, _ = generate_piecewise_rollout(config, index)
    return rollout_to_obj(record)


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
    config = PipelineConfig(strategy="fixed_prefix", prefix_tokens=2)
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
    # A legal record whose kept loss mass is tiny: the rescale factor
    # (3 / 1e-8) times a huge advantage overflows. JSON has no inf, so the
    # record is rejected on its line instead of written as null or Infinity;
    # that rejection is the only report (no numpy warning at jobs=1).
    obj = valid_obj()
    obj["student_logp"][0] = -1.7e308
    obj["loss_mask"][0] = 1e-300
    lines = [json.dumps(obj).encode(), json.dumps(valid_obj()).encode()]
    src = write_lines(tmp_path / "in.jsonl", lines)
    out = tmp_path / "out.jsonl"
    config = PipelineConfig(strategy="fixed_prefix", prefix_tokens=1, jobs=1)
    report = process_batch(src, str(out), config)
    assert (report.num_records, report.num_errors) == (1, 1)
    assert report.errors[0][1] == ("line 1: release.rescaled_advantages at "
                                   "position 0: rescaled advantage not finite")
    assert len(read_objs(out)) == 1

    strict = replace(config, strict=True)
    with pytest.raises(DataProcessingError, match="aborting at line 1"):
        process_batch(src, str(out), strict)
    assert not out.exists()


@pytest.mark.parametrize("device", [False, True])
def test_strict_abort_removes_only_a_regular_output(tmp_path, monkeypatch,
                                                    device):
    # unlink is stubbed, so nothing is deleted even where the guard is wrong
    unlinked = []
    monkeypatch.setattr(pipeline.os, "unlink", unlinked.append)
    src = write_lines(tmp_path / "in.jsonl", [b"not json"])
    out = "/dev/null" if device else str(tmp_path / "out.jsonl")
    with pytest.raises(DataProcessingError):
        process_batch(src, out, PipelineConfig(strict=True, jobs=1))
    assert unlinked == ([] if device else [out])


def count_pools(monkeypatch):
    """The keyword arguments of each ProcessPoolExecutor the pipeline starts."""
    pools = []

    class CountedPool(pipeline.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountedPool)
    return pools


def test_parallel_output_is_bit_identical(tmp_path, monkeypatch):
    # 80 records, 587 kB: several chunks of 64 kB, so jobs=2 runs the pool
    monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1 << 16)
    pools = count_pools(monkeypatch)
    objs = [planted_obj(i, noise=0.4, seed=5) for i in range(80)]
    src = write_objs(tmp_path / "in.jsonl", objs)
    one = str(tmp_path / "one.jsonl")
    two = str(tmp_path / "two.jsonl")
    process_batch(src, one, PipelineConfig(jobs=1))
    assert pools == []
    process_batch(src, two, PipelineConfig(jobs=2))
    assert pools == [{"max_workers": 2}]
    assert Path(one).read_bytes() == Path(two).read_bytes()


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


def _stub_worker(item):
    return -item


def test_map_chunks_bounds_the_chunks_in_flight(monkeypatch):
    pools = count_pools(monkeypatch)
    jobs, pulled, consumed, in_flight = 2, [], [], []

    def items():
        for item in range(40):
            pulled.append(item)
            in_flight.append(len(pulled) - len(consumed))
            yield item

    for item, result in pipeline._map_chunks(items(), _stub_worker, jobs):
        assert result == -item
        consumed.append(item)
    assert consumed == list(range(40))
    assert len(pools) == 1
    assert max(in_flight) == jobs * 4


def test_pool_starts_no_more_workers_than_chunks(tmp_path, monkeypatch):
    # a stand-in executor that runs each task inline and starts no process
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

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
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


def test_random_release_transfers_decisions(tmp_path):
    # 12 planted drops (always accepted) + 12 constants (never accepted)
    objs = [planted_obj(i, noise=0.4, seed=9) for i in range(12)]
    objs += [flat_obj(i) for i in range(12, 24)]
    src = write_objs(tmp_path / "in.jsonl", objs)
    bic_out = str(tmp_path / "bic.jsonl")
    rand_out = str(tmp_path / "rand.jsonl")
    bic_report = process_batch(src, bic_out)
    rand_report = process_batch(src, rand_out,
                                PipelineConfig(strategy="random_release",
                                               random_seed=3))
    assert bic_report.num_accepted == 12
    assert rand_report.num_accepted == 12
    # layouts are homogeneous, so decisions transfer exactly
    assert sorted(_release_rows(bic_out)) == sorted(_release_rows(rand_out))
    assert _release_rows(bic_out) != _release_rows(rand_out)

    again = str(tmp_path / "again.jsonl")
    process_batch(src, again, PipelineConfig(strategy="random_release",
                                             random_seed=3))
    assert Path(again).read_bytes() == Path(rand_out).read_bytes()
    other = str(tmp_path / "other.jsonl")
    process_batch(src, other, PipelineConfig(strategy="random_release",
                                             random_seed=4))
    assert Path(other).read_bytes() != Path(rand_out).read_bytes()


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


def test_permute_requires_release_objects(tmp_path):
    released = str(tmp_path / "released.jsonl")
    process_batch(write_objs(tmp_path / "one.jsonl", [planted_obj()]), released)
    line = Path(released).read_bytes().strip()
    gain = line.index(b'"bic_gain":') + len(b'"bic_gain":')
    # JSON has no NaN; a gain that is not finite cannot be written back
    nan_gain = line[:gain] + b"NaN" + line[line.index(b",", gain):]
    src = write_lines(tmp_path / "in.jsonl",
                      [json.dumps(planted_obj()).encode(), nan_gain])
    out = tmp_path / "out.jsonl"
    report = permute_batch(src, str(out))
    assert (report.num_records, report.num_errors) == (0, 2)
    assert "run release first" in report.errors[0][1]
    assert report.errors[1][1].startswith("line 2: release.bic_gain")
    assert out.read_bytes() == b""
    with pytest.raises(DataProcessingError):
        permute_batch(src, str(tmp_path / "strict.jsonl"),
                      PipelineConfig(strict=True))


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
        decision = ChangeDecision(moved.release_segment, moved.accepted,
                                  moved.bic_gain, None, None)
        mask = build_prefix_mask(seg, decision, record.num_tokens)
        rescaled, scale = rescale_advantages(sampled_advantage(record),
                                             record.loss_mask, mask)
        obj["release"] = {"accepted": moved.accepted,
                          "release_segment": moved.release_segment,
                          "bic_gain": moved.bic_gain, "scale": scale,
                          "prefix_mask": mask.tolist(),
                          "rescaled_advantages": rescaled.tolist()}
        expected[number] = obj
    return expected


def test_transfers_match_per_record_functions(tmp_path):
    src = write_lines(tmp_path / "in.jsonl", seeded_transfer_lines())
    released = str(tmp_path / "released.jsonl")
    assert process_batch(src, released).num_errors == 3

    def own(obj, record):
        return dynamic_prefix_reweight(record).decision

    def written(obj, record):
        release = obj["release"]
        return ChangeDecision(release["release_segment"], release["accepted"],
                              release["bic_gain"], None, None)

    for name, path, decisions, run in [
            ("random", src, own, lambda out, config: process_batch(
                src, out, replace(config, strategy="random_release"))),
            ("permute", released, written, lambda out, config: permute_batch(
                released, out, config))]:
        expected = _expected_transfer(path, decisions, seed=4)
        outputs = []
        for jobs in (1, 2):
            out = str(tmp_path / f"{name}-{jobs}.jsonl")
            report = run(out, PipelineConfig(jobs=jobs, random_seed=4))
            assert report.num_records == len(expected) == 60
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]
        assert read_objs(out) == list(expected.values())
        # a stale release value is replaced, not followed by a second one
        assert all(line.count(b'"release"') == 1
                   for line in outputs[0].splitlines())


def test_random_release_counts_each_bad_line_once(tmp_path, caplog):
    src = write_lines(tmp_path / "in.jsonl", seeded_transfer_lines())
    with caplog.at_level(logging.WARNING, logger="teachcut"):
        bic = process_batch(src, str(tmp_path / "bic.jsonl"))
        caplog.clear()
        random = process_batch(src, str(tmp_path / "random.jsonl"),
                               PipelineConfig(strategy="random_release"))
    assert [number for number, _ in random.errors] == [6, 21, 34]
    assert random.errors == bic.errors
    assert caplog.messages == [message for _, message in random.errors]


@pytest.mark.parametrize("value", [0.5, 7.0, -1.0])
def test_permute_rejects_prefix_mask_not_0_or_1(tmp_path, value):
    released = str(tmp_path / "released.jsonl")
    process_batch(write_objs(tmp_path / "one.jsonl", [planted_obj()]), released)
    obj = read_objs(released)[0]
    obj["release"]["prefix_mask"][40] = value
    obj["release"]["prefix_mask"][50] = value
    src = write_objs(tmp_path / "in.jsonl", [obj])
    report = permute_batch(src, str(tmp_path / "out.jsonl"))
    assert (report.num_records, report.num_errors) == (0, 1)
    assert report.errors[0][1] == ("line 1: release.prefix_mask at position "
                                   "40: expected 0 or 1")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("strict", [False, True])
def test_transfer_overflow_is_rejected_and_spill_removed(tmp_path,
                                                         monkeypatch, strict):
    # as in test_non_finite_release_is_rejected, but the rescale overflows in
    # pass 2, from the spilled arrays: a one-token first segment is kept
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
        # the bad JSON on line 2 is met first, in pass 1
        with pytest.raises(DataProcessingError, match="at line 2"):
            permute_batch(src, str(out), config)
        src = write_lines(tmp_path / "in.jsonl", [to_line(obj)])
        with pytest.raises(DataProcessingError,
                           match="line 1: release.rescaled_advantages"):
            permute_batch(src, str(out), config)
        assert not out.exists()
    else:
        report = permute_batch(src, str(out), config)
        assert report.num_records == 0
        assert [message.split(":")[:2] for _, message in report.errors] == [
            ["line 2", " invalid JSON"],
            ["line 1", " release.rescaled_advantages at position 0"]]
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
    for run in (lambda out, config: permute_batch(released, out, config),
                lambda out, config: process_batch(
                    src, out, replace(config, strategy="random_release"))):
        reads.clear()
        pools.clear()
        report = run(str(tmp_path / "out.jsonl"), PipelineConfig(jobs=2))
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
    # the short rows' padding stays -inf: it is not a floored probability
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
    (dict(strategy="fixed_prefix"), "prefix_tokens"),
    (dict(strategy="fixed_prefix", prefix_tokens=0), "prefix_tokens"),
    (dict(support_size=1), "support_size"),
    (dict(num_bins=0), "num_bins"),
    (dict(jobs=0), "jobs"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        PipelineConfig(**kwargs)


def test_single_record_reweight_rejects_random():
    record = parse_rollout_line(json.dumps(planted_obj()).encode())
    with pytest.raises(ValueError, match="batch-level"):
        dynamic_prefix_reweight(record,
                                PipelineConfig(strategy="random_release"))


def test_single_record_reweight_bic():
    record = parse_rollout_line(json.dumps(planted_obj()).encode())
    result = dynamic_prefix_reweight(record)
    assert result.decision.accepted
    assert result.decision.release_segment == 3
    assert result.scale == 2.0
