"""Hostile lines in a non-strict batch: each one passes or is one error on
its own line, and every other line's output stays as it was."""

import json

import numpy as np
import pytest

from teachcut import pipeline
from teachcut.pipeline import (PipelineConfig, diagnose_batch, permute_batch,
                               process_batch)
from teachcut.records import dumps_obj, rollout_to_obj
from teachcut.synthetic import (SyntheticConfig, generate_piecewise_rollout,
                                generate_rollout)

COMMANDS = ("bic", "full", "fixed:7", "permute", "diagnose")
CSVS = ("bins.csv", "margin_bins.csv", "summary.csv")


def good_line(index, true_tau):
    config = SyntheticConfig(num_segments=6, tokens_per_segment=4,
                             true_tau=true_tau, noise_std=0.2, seed=3)
    record, _ = generate_piecewise_rollout(config, index)
    return dumps_obj(rollout_to_obj(record))


# three good lines with different decisions, so a permutation moves them,
# and the twin that a hostile line is made from; the hostile line is third
GOOD = [good_line(0, 1), good_line(1, 3), good_line(2, 5)]
TWIN = good_line(3, 2)
HOSTILE_LINE_NUMBER = 3


def first_member(name, value):
    """The twin with one member put first: a key it does not have, or a
    "release" key that a later one of the same name overrides."""
    return lambda base: b'{"' + name + b'":' + value + b"," + base[1:]


def bic_gain(value):
    """A released twin with its release.bic_gain replaced; an input twin
    with a first "release" member holding only that gain."""
    def make(base):
        if b'"bic_gain":' not in base:
            return first_member(b"release", b'{"bic_gain":' + value + b"}")(base)
        start = base.rindex(b'"bic_gain":') + len(b'"bic_gain":')
        return base[:start] + value + base[base.index(b",", start):]
    return make


def edited(edit):
    """The twin decoded, changed in place by edit, and encoded again."""
    def make(base):
        obj = json.loads(base)
        edit(obj)
        return dumps_obj(obj)
    return make


def runner_ups_at(value, tokens):
    """An edit that sets the tokens' runner-up teacher log-probs to value, so
    that each one's margin, top-1 minus top-2, is about -value."""
    def edit(obj):
        for t in tokens:
            row = obj["topk"]["teacher_logp"][t]
            row[1:] = [value] * (len(row) - 1)
    return edit


DEEP = b"[" * 2000 + b"0" + b"]" * 2000

# (name, maker of the hostile line from the twin's line, the commands that
# reject it); the twin is the released line for permute, the input line
# for the others
CORPUS = [
    # CPython's 4,300-digit limit and recursion limit, hit by the stdlib
    # retry after orjson refuses the line
    ("digits_past_the_limit", first_member(b"extra", b"1" * 4301), COMMANDS),
    ("digits_past_the_limit_whole_line", lambda base: b"1" * 4301, COMMANDS),
    ("nested_2000_deep_with_nan",
     first_member(b"extra", DEEP + b',"nan":NaN'), COMMANDS),
    ("nested_2000_deep_unclosed", first_member(b"extra", DEEP[:-1]), COMMANDS),
    ("1e999_in_an_unknown_field", first_member(b"extra", b"1e999"), ()),
    ("1e999_whole_line", lambda base: b"1e999", COMMANDS),
    ("lone_surrogate_escape", first_member(b"extra", b'"\\ud800"'), ()),
    # the bytes of a surrogate, which are not UTF-8, though the stdlib
    # retry would decode them as an escape
    ("lone_surrogate_bytes", first_member(b"extra", b'"\xed\xa0\x80"'),
     COMMANDS),
    ("lone_surrogate_bytes_then_bad_json",
     first_member(b"extra", b'"\xed\xa0\x80",'), COMMANDS),
    ("byte_order_mark", lambda base: b"\xef\xbb\xbf" + base, ()),
    # whitespace to bytes.isspace(), but not to JSON
    ("form_feed_line", lambda base: b"\f", COMMANDS),
    ("vertical_tab_line", lambda base: b" \v ", COMMANDS),
    ("form_feed_before_a_record", lambda base: b"\f" + base, COMMANDS),
    ("vertical_tab_after_a_record", lambda base: base + b"\v", COMMANDS),
    ("form_feed_inside_a_record", first_member(b"extra", b"\f1"), COMMANDS),
    # JSON whitespace around and inside a record is read as JSON reads it
    ("json_whitespace_around_a_record",
     lambda base: b" \t" + base + b"\t\r ", ()),
    ("tab_inside_a_record", first_member(b"extra", b"\t1"), ()),
    ("nul_inside_a_string", first_member(b"extra", b'"a\x00b"'), COMMANDS),
    ("nul_escape_inside_a_string", first_member(b"extra", b'"a\\u0000b"'), ()),
    ("early_second_release_key",
     first_member(b"release", b'{"accepted":false,"bic_gain":1e999}'), ()),
    ("bic_gain_past_float_range", bic_gain(b"9" * 400), ("permute",)),
    ("string_of_10_mb", first_member(b"extra", b'"' + b"a" * 10**7 + b'"'), ()),
    # log-probabilities below LOGP_FLOOR, whose advantage or margin squares
    # would pass float range, alone or summed in bin 0
    ("advantage_square_past_float_range",
     edited(lambda obj: obj["student_logp"].__setitem__(0, -1.7e308)),
     COMMANDS),
    ("margin_square_past_float_range",
     edited(runner_ups_at(-1.7e308, [0])), COMMANDS),
    ("margin_squares_summing_past_float_range",
     edited(runner_ups_at(-1e154, [0, 1])), COMMANDS),
]


def write(path, lines):
    with open(path, "wb") as handle:
        handle.write(b"".join(line + b"\n" for line in lines))
    return str(path)


def run(command, lines, tmp_path, jobs):
    """(the output, the errors) of one command over lines: the release
    lines, or diagnose's three CSVs."""
    src = write(tmp_path / "in.jsonl", lines)
    config = PipelineConfig(strategy=command if command in COMMANDS[:3]
                            else "bic", random_seed=5, jobs=jobs)
    if command == "diagnose":
        out = tmp_path / "diag"
        report = diagnose_batch(src, str(out), config).report
        return [(out / name).read_bytes() for name in CSVS], report.errors
    out = tmp_path / "out.jsonl"
    batch = permute_batch if command == "permute" else process_batch
    report = batch(src, str(out), config)
    return out.read_bytes().splitlines(), report.errors


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """For each command, (its base lines with the twin third, the output
    without the twin, the output with it), at jobs 1."""
    tmp = tmp_path_factory.mktemp("baselines")
    released, errors = run("bic", [*GOOD[:2], TWIN, GOOD[2]], tmp, 1)
    assert not errors
    out = {}
    for command in COMMANDS:
        base = released if command == "permute" else [*GOOD[:2], TWIN,
                                                       GOOD[2]]
        without, errors = run(command, base[:2] + base[3:], tmp, 1)
        assert not errors
        with_twin, errors = run(command, base, tmp, 1)
        assert not errors
        out[command] = base, without, with_twin
    return out


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name, make, rejected", CORPUS,
                         ids=[entry[0] for entry in CORPUS])
def test_a_hostile_line_passes_or_is_one_error_on_its_line(
        tmp_path, monkeypatch, baselines, name, make, rejected, jobs):
    if jobs > 1:  # a chunk per line, so the pool runs
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1)
    for command in COMMANDS:
        base, without, with_twin = baselines[command]
        lines = [*base[:2], make(base[2]), base[3]]
        output, errors = run(command, lines, tmp_path, jobs)
        if command in rejected:
            assert [n for n, _ in errors] == [HOSTILE_LINE_NUMBER], command
            assert output == without, command
        else:
            # it passed with the twin's values; permute draws its
            # permutation over the records that pass, so the others
            # are compared with the run that holds the twin
            assert errors == (), command
            if command != "diagnose":
                del output[2]
                with_twin = with_twin[:2] + with_twin[3:]
            assert output == with_twin, command


@pytest.mark.parametrize("jobs", [1, 2])
def test_margins_whose_squares_sum_past_float_range_over_records_are_rejected(
        tmp_path, monkeypatch, jobs):
    # no CORPUS row: it takes two hostile lines. Each has token 0's runner-ups
    # at -1e154, a margin square of about 1e308 that is finite alone, but the
    # two would sum past float range in diagnose's batch bin 0
    if jobs > 1:
        monkeypatch.setattr(pipeline, "_CHUNK_BYTES", 1)
    lines = [dumps_obj(rollout_to_obj(generate_rollout(
        np.linspace(1, 0, 6), tokens_per_segment=10, noise_std=0.3, seed=1,
        index=i)[0])) for i in range(4)]
    released, errors = run("bic", lines, tmp_path, jobs)
    assert not errors
    make = edited(runner_ups_at(-1e154, [0]))
    expected = tuple((n, f"line {n}: topk.teacher_logp at position 0: "
                         "log-probability below -1e+100") for n in (2, 3))
    for command in COMMANDS:
        base = released if command == "permute" else lines
        without, errors = run(command, [base[0], base[3]], tmp_path, jobs)
        assert not errors
        output, errors = run(command, [base[0], make(base[1]), make(base[2]),
                                       base[3]], tmp_path, jobs)
        assert errors == expected, command
        assert output == without, command
