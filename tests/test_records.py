import json
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.records import (LOGP_FLOOR, PROB_FLOOR, DataProcessingError,
                              RecordParseError, RecordValidationError,
                              decode_line, iter_jsonl_lines,
                              parse_rollout_line, rollout_from_obj,
                              rollout_to_obj, sampled_advantage)

from helpers import valid_obj, to_line
from reference import student_order_error


def test_parse_valid_record():
    record = parse_rollout_line(to_line(valid_obj()))
    assert record.rollout_id == "r0"
    assert record.num_tokens == 4
    assert record.candidates is not None
    assert len(record.candidates.lengths) == 4
    np.testing.assert_array_equal(record.candidates.row_lengths(), [3, 3, 3, 3])
    assert record.segments is not None
    np.testing.assert_array_equal(record.segments.token_ids, [0, 1, 2, 3])
    np.testing.assert_array_equal(record.segments.bounds, [4])


def test_advantage_is_teacher_minus_student():
    record = parse_rollout_line(to_line(valid_obj()))
    np.testing.assert_allclose(sampled_advantage(record), 0.2)


def test_topk_and_segments_are_optional():
    obj = valid_obj()
    del obj["topk"]
    del obj["segments"]
    record = parse_rollout_line(to_line(obj))
    assert record.candidates is None
    assert record.segments is None


def test_invalid_json_reports_line_and_offset():
    with pytest.raises(RecordParseError) as info:
        parse_rollout_line(b'{"rollout_id": ', line_number=7)
    assert info.value.line_number == 7
    assert "line 7" in str(info.value)
    assert info.value.byte_offset is not None
    # a surrogate's bytes are not UTF-8: the error is at their first byte
    with pytest.raises(RecordParseError) as info:
        parse_rollout_line(b'{"a": "\xed\xa0\x80",,}')
    assert info.value.byte_offset == 7


DIGITS = b"1" * 4301  # one past CPython's limit on int conversion
DEEP = b"[" * 2000 + b"0" + b"]" * 2000  # past its recursion limit


@pytest.mark.parametrize("raw", [
    DIGITS,
    to_line(valid_obj()).replace(b"{", b'{"extra": ' + DIGITS + b", ", 1),
    to_line(valid_obj()).replace(b'"r0"', DIGITS),
    to_line(valid_obj()).replace(b'"segments": [[0',
                                 b'"segments": [[' + DIGITS),
    to_line(valid_obj()).replace(b"{", b'{"extra": ' + DEEP[:-1] + b", ", 1),
    to_line(valid_obj()).replace(b"{", b'{"extra": ' + DEEP
                                 + b', "nan": NaN, ', 1),
], ids=["line", "unknown_field", "rollout_id", "segments",
        "unclosed", "beside_nan"])
def test_every_error_of_the_stdlib_retry_is_the_lines(raw):
    # orjson refuses each line, and the stdlib retry raises a ValueError
    # (digits) or a RecursionError (depth) of its own
    with pytest.raises(RecordParseError, match="^line 7: invalid JSON: ") as info:
        parse_rollout_line(raw, line_number=7)
    assert info.value.line_number == 7


@pytest.mark.parametrize("read, error", [
    (lambda **kw: decode_line(b"{", **kw), RecordParseError),
    (lambda **kw: rollout_from_obj({}, **kw), RecordValidationError),
])
def test_public_readers_attach_the_line_number(read, error):
    with pytest.raises(error) as info:
        read(line_number=9)
    assert info.value.line_number == 9
    assert str(info.value).startswith("line 9: ")
    with pytest.raises(error) as info:
        read()
    assert info.value.line_number is None
    assert not str(info.value).startswith("line ")


@pytest.mark.parametrize("make", [
    lambda: RecordValidationError("bad", field="topk.ids", position=2),
    lambda: RecordParseError("unexpected end", byte_offset=14),
    lambda: DataProcessingError(5, "segments: bad"),
])
@pytest.mark.parametrize("line_number", [None, 4])
def test_errors_survive_pickling(make, line_number):
    error = make()
    if line_number is not None and not isinstance(error, DataProcessingError):
        error.line_number = line_number
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for name in ("field", "position", "byte_offset", "line_number"):
        assert getattr(copy, name, "absent") == getattr(error, name, "absent")


def test_errors_cross_a_process_pool():
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(rollout_from_obj, {}, line_number=3)
        with pytest.raises(RecordValidationError) as info:
            future.result()
    assert info.value.field == "rollout_id"
    assert info.value.line_number == 3


def test_top_level_array_rejected():
    with pytest.raises(RecordParseError, match="not an object"):
        parse_rollout_line(b"[1, 2]")


@pytest.mark.parametrize("field", ["rollout_id", "tokens", "teacher_logp",
                                   "student_logp", "loss_mask"])
def test_missing_required_field(field):
    obj = valid_obj()
    del obj[field]
    with pytest.raises(RecordValidationError, match="missing field") as info:
        parse_rollout_line(to_line(obj))
    assert info.value.field == field


def test_positive_logp_rejected_with_position():
    obj = valid_obj()
    obj["teacher_logp"][2] = 0.5
    with pytest.raises(RecordValidationError, match="> 0") as info:
        parse_rollout_line(to_line(obj), line_number=3)
    assert info.value.field == "teacher_logp"
    assert info.value.position == 2
    assert str(info.value).startswith("line 3: teacher_logp at position 2")


def test_zero_logp_allowed():
    obj = valid_obj()
    obj["teacher_logp"][0] = 0.0
    parse_rollout_line(to_line(obj))


def test_nan_literal_reaches_field_validation():
    # stdlib json accepts NaN; the error should name the field, not the parser
    raw = to_line(valid_obj()).replace(b"-0.2", b"NaN", 1)
    with pytest.raises(RecordValidationError, match="not finite") as info:
        parse_rollout_line(raw)
    assert info.value.field == "teacher_logp"


@pytest.mark.parametrize("value, message", [
    (0.5, "log-probability > 0"),
    (-1.000001e100, "log-probability below -1e+100"),
    (float("nan"), "log-probability not finite"),
    (float("-inf"), "log-probability not finite")])
@pytest.mark.parametrize("key", ["student_logp", "teacher_logp"])
def test_logp_range_errors_name_the_token(key, value, message):
    # a sampled field's entry is its token; a top-K entry names its row, not
    # its index among the flat candidates (7 for row 2, candidate 1)
    obj = valid_obj()
    obj[key][2] = value
    with pytest.raises(RecordValidationError) as info:
        parse_rollout_line(to_line(obj))
    assert str(info.value) == f"{key} at position 2: {message}"
    obj = valid_obj()
    obj["topk"][key][2][1] = value
    with pytest.raises(RecordValidationError) as info:
        parse_rollout_line(to_line(obj))
    assert str(info.value) == f"topk.{key} at position 2: {message}"


@pytest.mark.parametrize("value", [LOGP_FLOOR, -1e9, -3.4028234663852886e38])
def test_logp_down_to_the_floor_allowed(value):
    # masked-candidate sentinels such as -1e9 or float32's least value pass
    obj = valid_obj()
    obj["teacher_logp"][0] = obj["student_logp"][3] = value
    obj["topk"]["teacher_logp"][1][0] = obj["topk"]["student_logp"][2][2] = value
    parse_rollout_line(to_line(obj))


def test_length_mismatch_rejected():
    obj = valid_obj()
    obj["student_logp"].append(-0.1)
    with pytest.raises(RecordValidationError, match="length mismatch"):
        parse_rollout_line(to_line(obj))


def test_loss_mask_range_and_coverage():
    obj = valid_obj()
    obj["loss_mask"][1] = 1.5
    with pytest.raises(RecordValidationError, match=r"\[0, 1\]") as info:
        parse_rollout_line(to_line(obj))
    assert info.value.position == 1

    obj = valid_obj()
    obj["loss_mask"] = [0.0] * 4
    with pytest.raises(RecordValidationError, match="no positive entries"):
        parse_rollout_line(to_line(obj))


def test_empty_tokens_rejected():
    obj = valid_obj()
    obj["tokens"] = []
    with pytest.raises(RecordValidationError, match="non-empty"):
        parse_rollout_line(to_line(obj))


def test_topk_fewer_than_two_candidates_rejected():
    obj = valid_obj()
    for key in ("ids", "student_logp", "teacher_logp"):
        obj["topk"][key][1] = obj["topk"][key][1][:1]
    with pytest.raises(RecordValidationError, match="fewer than 2") as info:
        parse_rollout_line(to_line(obj))
    assert info.value.position == 1


def test_topk_ragged_rows_accepted():
    obj = valid_obj()
    for key in ("ids", "student_logp", "teacher_logp"):
        obj["topk"][key][1] = obj["topk"][key][1][:2]
    record = parse_rollout_line(to_line(obj))
    np.testing.assert_array_equal(record.candidates.row_lengths(), [3, 2, 3, 3])
    # the rows are held flat, concatenated in position order, unpadded
    topk = obj["topk"]
    for key, dtype in (("ids", np.int64), ("student_logp", np.float64),
                       ("teacher_logp", np.float64)):
        flat = getattr(record.candidates, key)
        assert flat.dtype == dtype
        np.testing.assert_array_equal(flat, sum(topk[key], []))
    assert record.candidates.teacher_logp.shape == (11,)


def test_topk_row_count_mismatch():
    obj = valid_obj()
    obj["topk"]["ids"] = obj["topk"]["ids"][:3]
    obj["topk"]["student_logp"] = obj["topk"]["student_logp"][:3]
    obj["topk"]["teacher_logp"] = obj["topk"]["teacher_logp"][:3]
    with pytest.raises(RecordValidationError, match="3 positions, expected 4"):
        parse_rollout_line(to_line(obj))


def test_student_order_enforced():
    obj = valid_obj()
    obj["topk"]["student_logp"][2] = [-1.0, -0.5, -1.5]
    with pytest.raises(RecordValidationError, match="descending student") as info:
        parse_rollout_line(to_line(obj))
    assert info.value.position == 2


def test_student_ties_must_order_by_id():
    obj = valid_obj()
    obj["topk"]["student_logp"][0] = [-0.5, -0.5, -1.5]
    obj["topk"]["ids"][0] = [2, 1, 0]
    with pytest.raises(RecordValidationError, match="ascending candidate id"):
        parse_rollout_line(to_line(obj))

    obj["topk"]["ids"][0] = [1, 2, 0]  # tie ordered, rest free
    parse_rollout_line(to_line(obj))


@pytest.mark.parametrize("bad", [1.5, 2**70, "1"])
def test_candidate_ids_must_be_64_bit_integers(bad):
    # 1.5 was truncated and "1" parsed; 2**70 decodes as a float and used to
    # raise a bare OverflowError
    obj = valid_obj()
    obj["topk"]["ids"][2][1] = bad
    with pytest.raises(RecordValidationError, match="64-bit integers") as info:
        parse_rollout_line(to_line(obj))
    assert info.value.field == "topk.ids"


def short_first_row():
    obj = valid_obj()
    for key in ("ids", "student_logp", "teacher_logp"):
        obj["topk"][key][0] = obj["topk"][key][0][:2]
    return obj


def test_student_order_enforced_on_ragged_rows():
    obj = short_first_row()
    obj["topk"]["student_logp"][2] = [-1.0, -0.5, -1.5]
    with pytest.raises(RecordValidationError, match="descending student") as info:
        parse_rollout_line(to_line(obj))
    assert info.value.position == 2

    # order is checked within rows: a rise or a tie with descending ids
    # across a row boundary is fine
    obj = short_first_row()
    obj["topk"]["student_logp"][1] = [-0.2, -1.0, -1.5]
    parse_rollout_line(to_line(obj))
    obj = short_first_row()
    obj["topk"]["ids"][0] = [4, 5]
    obj["topk"]["student_logp"][1] = [-1.0, -1.2, -1.5]
    parse_rollout_line(to_line(obj))

    # a rise or an id-descending tie inside a short row is not
    obj = short_first_row()
    obj["topk"]["student_logp"][0] = [-1.0, -0.5]
    with pytest.raises(RecordValidationError, match="descending student") as info:
        parse_rollout_line(to_line(obj))
    assert (info.value.field, info.value.position) == ("topk.student_logp", 0)
    obj = short_first_row()
    obj["topk"]["student_logp"][0] = [-0.5, -0.5]
    obj["topk"]["ids"][0] = [1, 0]
    with pytest.raises(RecordValidationError, match="ascending candidate id") as info:
        parse_rollout_line(to_line(obj))
    assert (info.value.field, info.value.position) == ("topk.ids", 0)


@st.composite
def ragged_topk_rows(draw):
    """Rows of 2-64 candidates in valid order, with rises, ties and ties
    whose ids descend or repeat put at row starts and ends. Each row's ids
    start afresh, so equal values meet across row boundaries with
    descending ids."""
    ids_rows, student_rows = [], []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(2, 64))
        row = sorted(draw(st.lists(st.sampled_from([-1.0, -2.0, -3.0]),
                                   min_size=length, max_size=length)),
                     reverse=True)
        ids = sorted(draw(st.lists(st.integers(0, 199), min_size=length,
                                   max_size=length, unique=True)))
        for lo, hi in ((0, 1), (length - 2, length - 1)):
            flaw = draw(st.sampled_from(["none", "none", "rise", "tie",
                                         "swapped tie", "repeated id"]))
            if flaw == "rise":
                row[hi] = row[lo] + 0.5
            elif flaw != "none":
                row[hi] = row[lo]
            if flaw == "swapped tie":
                ids[lo], ids[hi] = ids[hi], ids[lo]
            elif flaw == "repeated id":
                ids[hi] = ids[lo]
        ids_rows.append(ids)
        student_rows.append(row)
    return ids_rows, student_rows


@settings(max_examples=300)
@given(ragged_topk_rows())
def test_flat_order_check_matches_per_row_reference(rows):
    ids_rows, student_rows = rows
    obj = valid_obj(num_tokens=len(ids_rows))
    obj["topk"] = {"ids": ids_rows, "student_logp": student_rows,
                   "teacher_logp": [[-1.0] * len(row) for row in ids_rows]}
    expected = student_order_error(ids_rows, student_rows)
    try:
        parse_rollout_line(to_line(obj))
    except RecordValidationError as exc:
        assert (exc.field, exc.position) == expected
    else:
        assert expected is None


def test_segments_validation():
    obj = valid_obj()
    obj["segments"] = [[0, 1], [1, 2]]
    with pytest.raises(RecordValidationError, match="overlap"):
        parse_rollout_line(to_line(obj))

    obj["segments"] = [[0, 1], [3, 2]]
    with pytest.raises(RecordValidationError, match="strictly ascending"):
        parse_rollout_line(to_line(obj))

    obj["segments"] = [[0, 1], [2, 4]]
    with pytest.raises(RecordValidationError, match="out of range"):
        parse_rollout_line(to_line(obj))
    for bad, position in (([[-1, 0]], 0), ([[0, 1], [-5]], 1)):
        obj["segments"] = bad
        with pytest.raises(RecordValidationError,
                           match="token index out of range") as info:
            parse_rollout_line(to_line(obj))
        assert (info.value.field, info.value.position) == ("segments", position)

    # neither truncated (1.7) nor an overflow (2**70 decodes as a float)
    for bad in (1.7, 2**70):
        obj["segments"] = [[0, 1], [2, bad]]
        with pytest.raises(RecordValidationError, match="integers") as info:
            parse_rollout_line(to_line(obj))
        assert (info.value.field, info.value.position) == ("segments", 1)
    # only an empty list is an empty segment
    for entry in ("", {}):
        obj["segments"] = [[0, 1], entry, [2, 3]]
        with pytest.raises(RecordValidationError, match="integers") as info:
            parse_rollout_line(to_line(obj))
        assert (info.value.field, info.value.position) == ("segments", 1)

    obj["segments"] = [[0, 1], [], [2, 3]]
    record = parse_rollout_line(to_line(obj))
    assert len(record.segments) == 2  # empties dropped


def test_probs_mode_converts_topk_only():
    obj = valid_obj(num_tokens=2, num_candidates=2)
    obj["topk"]["student_logp"] = [[0.5, 0.25], [0.5, 0.25]]
    obj["topk"]["teacher_logp"] = [[0.8, 0.0], [0.8, 0.1]]
    record = parse_rollout_line(to_line(obj), probs=True)
    np.testing.assert_allclose(record.candidates.student_logp,
                               np.log([0.5, 0.25, 0.5, 0.25]))
    # zero probability floors instead of -inf
    np.testing.assert_allclose(record.candidates.teacher_logp,
                               np.log([0.8, PROB_FLOOR, 0.8, 0.1]))
    # sampled arrays stay untouched
    np.testing.assert_array_equal(record.sampled_teacher_logp, [-0.2, -0.2])


def test_probs_mode_rejects_values_above_one():
    obj = valid_obj(num_tokens=2, num_candidates=2)
    obj["topk"]["student_logp"] = [[0.5, 0.25], [0.5, 0.25]]
    obj["topk"]["teacher_logp"] = [[1.5, 0.1], [0.8, 0.1]]
    with pytest.raises(RecordValidationError, match="> 0"):
        parse_rollout_line(to_line(obj), probs=True)


def test_round_trip_to_obj(tmp_path):
    obj = valid_obj()
    record = rollout_from_obj(obj)
    assert rollout_to_obj(record) == obj

    # ragged candidates round-trip too
    for key in ("ids", "student_logp", "teacher_logp"):
        obj["topk"][key][1] = obj["topk"][key][1][:2]
    assert rollout_to_obj(rollout_from_obj(obj)) == obj


def test_iter_jsonl_lines_skips_blanks(tmp_path):
    # blank is JSON whitespace only; bytes.isspace() also takes \v and \f,
    # which no JSON decoder does, so those lines are read
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"a":1}\n\n   \n{"b":2}\n\f\n \v \n\t\r\n')
    pairs = list(iter_jsonl_lines(str(path)))
    assert [n for n, _ in pairs] == [1, 4, 5, 6]


@settings(max_examples=40)
@given(num_tokens=st.integers(1, 8), num_candidates=st.integers(2, 5),
       data=st.data())
def test_round_trip_property(num_tokens, num_candidates, data):
    logp = st.floats(min_value=-30.0, max_value=0.0, allow_nan=False)
    obj = valid_obj(num_tokens, num_candidates)
    obj["teacher_logp"] = data.draw(
        st.lists(logp, min_size=num_tokens, max_size=num_tokens))
    obj["loss_mask"] = data.draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=num_tokens,
                 max_size=num_tokens))
    if not any(v > 0 for v in obj["loss_mask"]):
        obj["loss_mask"][0] = 1.0
    record = rollout_from_obj(obj)
    assert rollout_to_obj(record) == obj
    assert json.loads(to_line(obj)) == obj
