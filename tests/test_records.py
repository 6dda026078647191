import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.records import (PROB_FLOOR, RecordParseError,
                              RecordValidationError, decode_line,
                              iter_jsonl_lines, parse_rollout_line,
                              rollout_from_obj, rollout_to_obj,
                              sampled_advantage)

from helpers import valid_obj, to_line


def test_parse_valid_record():
    record = parse_rollout_line(to_line(valid_obj()))
    assert record.rollout_id == "r0"
    assert record.num_tokens == 4
    assert record.candidates is not None
    assert record.candidates.num_positions == 4
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
    # the short row is padded with -inf to the widest row
    assert record.candidates.teacher_logp.shape == (4, 3)
    assert record.candidates.student_logp[1, 2] == -math.inf
    assert record.candidates.teacher_logp[1, 2] == -math.inf


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
    assert record.candidates.student_logp[0, 0] == pytest.approx(math.log(0.5))
    # zero probability floors instead of -inf
    assert record.candidates.teacher_logp[0, 1] == pytest.approx(math.log(PROB_FLOOR))
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
    path = tmp_path / "in.jsonl"
    path.write_bytes(b'{"a":1}\n\n   \n{"b":2}\n')
    pairs = list(iter_jsonl_lines(str(path)))
    assert [n for n, _ in pairs] == [1, 4]


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
