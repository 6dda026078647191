import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.records import RecordValidationError, rollout_from_obj
from teachcut.segmentation import (SegmentIndex, aggregate_segment_scores,
                                   segment_tokens)

from helpers import valid_obj


def boundaries(index):
    return [seg.tolist() for seg in index]


def test_terminal_punctuation_closes_segment():
    idx = segment_tokens(["The", "end.", "Next", "one!"])
    assert boundaries(idx) == [[0, 1], [2, 3]]


def test_trailing_closers_are_stripped_before_the_check():
    idx = segment_tokens(['He said "stop."', "then', )", 'quote."))'])
    assert boundaries(idx) == [[0], [1, 2]]


def test_blank_line_closes_segment():
    idx = segment_tokens(["para\n\n", "next", "done."])
    assert boundaries(idx) == [[0], [1, 2]]


@pytest.mark.parametrize("terminal", [".", "!", "?", ";", ":"])
def test_all_terminals_close(terminal):
    idx = segment_tokens(["a" + terminal, "b"])
    assert boundaries(idx) == [[0], [1]]


def test_final_segment_closes_at_last_token():
    idx = segment_tokens(["no", "boundary", "here"])
    assert boundaries(idx) == [[0, 1, 2]]


def test_closers_alone_do_not_close():
    idx = segment_tokens(['")', "x"])
    assert boundaries(idx) == [[0, 1]]


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty"):
        segment_tokens([])


def test_every_token_assigned_exactly_once():
    surfaces = ["a.", "b", "c!", "d", "e", 'f."', "g"]
    idx = segment_tokens(surfaces)
    np.testing.assert_array_equal(np.sort(idx.token_ids), np.arange(len(surfaces)))


def test_segment_index_helpers():
    idx = SegmentIndex((np.array([0, 1]), np.array([2]), np.array([3, 4, 5])), 6)
    np.testing.assert_array_equal(idx.token_ids, [0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(idx.bounds, [2, 3, 6])
    np.testing.assert_array_equal(idx.token_ids[:idx.bounds[1]], [0, 1, 2])
    assert boundaries(idx) == [[0, 1], [2], [3, 4, 5]]
    assert len(idx) == 3
    assert boundaries(SegmentIndex([], 6)) == []


def test_from_lists_validates():
    idx = SegmentIndex([[0, 1], [], [2]], 3)  # empties dropped
    assert len(idx) == 2
    with pytest.raises(RecordValidationError, match="ascending") as info:
        SegmentIndex([[1, 0]], 2)
    assert (info.value.field, info.value.position) == ("segments", 0)
    with pytest.raises(RecordValidationError, match="overlap") as info:
        SegmentIndex([[0, 1], [1, 2]], 3)
    assert info.value.position == 1
    with pytest.raises(RecordValidationError, match="out of range") as info:
        SegmentIndex([[0, 5]], 3)
    assert info.value.position == 0
    # arrays get the same check as lists
    with pytest.raises(RecordValidationError, match="out of range") as info:
        SegmentIndex((np.array([5]),), 3)
    assert (info.value.field, info.value.position) == ("segments", 0)
    with pytest.raises(RecordValidationError, match="out of order") as info:
        SegmentIndex((np.array([2]), np.array([0, 1])), 3)
    assert (info.value.field, info.value.position) == ("segments", 1)
    # a negative index is out of range, not out of order
    for segments, position in (([[-1, 0]], 0), ([[0, 1], [-5]], 1)):
        with pytest.raises(RecordValidationError,
                           match=r"token index out of range \[0, 3\)") as info:
            SegmentIndex(segments, 3)
        assert (info.value.field, info.value.position) == ("segments", position)


def test_aggregate_frozen_values():
    # one segment [2, 4]: S = log1p(3) = ln 4; second segment [0]: S = 0
    idx = SegmentIndex((np.array([0, 1]), np.array([2])), 3)
    scores = aggregate_segment_scores(np.array([2.0, 4.0, 0.0]), idx)
    assert scores.scores[0] == pytest.approx(1.3862943611198906, abs=1e-12)
    assert scores.scores[1] == 0.0
    assert scores.segment_index is idx


def test_aggregate_accepts_margin_like_objects():
    class Wrapper:
        values = np.array([1.0, 1.0])

    idx = SegmentIndex((np.array([0, 1]),), 2)
    scores = aggregate_segment_scores(Wrapper(), idx)
    assert scores.scores[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_aggregate_out_of_range_margin_index():
    idx = SegmentIndex((np.array([0, 3]),), 4)
    with pytest.raises(ValueError):
        aggregate_segment_scores(np.array([1.0, 1.0]), idx)


@settings(max_examples=60)
@given(st.lists(st.sampled_from(["word", "mid.dle", "stop.", "bang!", 'q."',
                                 "para\n\ntext", ")"]),
                min_size=1, max_size=30))
def test_segmentation_partition_property(surfaces):
    idx = segment_tokens(surfaces)
    assert idx.num_tokens == len(surfaces)
    np.testing.assert_array_equal(idx.token_ids, np.arange(len(surfaces)))
    assert idx.bounds[-1] == len(surfaces)
    assert (np.diff(idx.bounds, prepend=0) > 0).all()


@settings(max_examples=60)
@given(st.data())
def test_aggregate_matches_per_segment_means(data):
    num_tokens = data.draw(st.integers(1, 20))
    margins = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=num_tokens,
        max_size=num_tokens)))
    cuts = sorted(data.draw(st.sets(st.integers(1, num_tokens - 1), max_size=4))
                  ) if num_tokens > 1 else []
    edges = [0] + cuts + [num_tokens]
    lists = [list(range(a, b)) for a, b in zip(edges, edges[1:])]
    idx = SegmentIndex(lists, num_tokens)
    np.testing.assert_array_equal(idx.token_ids, np.arange(num_tokens))
    np.testing.assert_array_equal(idx.bounds, edges[1:])
    scores = aggregate_segment_scores(margins, idx)
    for lo, hi, score in zip(edges, edges[1:], scores.scores):
        assert score == pytest.approx(math.log1p(margins[lo:hi].mean()), rel=1e-12)


_HUGE = (2**63 - 1, 2**63, -2**63, -2**63 - 1)


def _outcome(build):
    try:
        return build()
    except RecordValidationError as exc:
        return exc.field, exc.position, str(exc)


@settings(max_examples=300)
@given(st.data())
def test_constructor_and_record_parse_agree(data):
    # a valid layout, possibly with empty segments, then maybe one entry that
    # repeats, reorders, leaves the range or needs more than 64 bits
    num_tokens = data.draw(st.integers(1, 8))
    ids = sorted(data.draw(st.sets(st.integers(0, num_tokens - 1))))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ids)), max_size=4)))
    lists = [ids[a:b] for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(lists) - 1))
        extra = data.draw(st.one_of(st.integers(-2, num_tokens + 1),
                                    st.sampled_from(_HUGE)))
        lists[i] = data.draw(st.permutations(lists[i] + [extra]))
    obj = valid_obj(num_tokens)
    obj["segments"] = lists

    direct = _outcome(lambda: SegmentIndex(lists, num_tokens))
    parsed = _outcome(lambda: rollout_from_obj(obj).segments)
    if isinstance(direct, tuple) or isinstance(parsed, tuple):
        assert direct == parsed
        return
    nonempty = [seg for seg in lists if seg]
    for idx in (direct, parsed):
        assert boundaries(idx) == nonempty
        np.testing.assert_array_equal(idx.bounds,
                                      np.cumsum([len(s) for s in nonempty]))
        again = SegmentIndex(idx, num_tokens)
        np.testing.assert_array_equal(again.token_ids, idx.token_ids)
        np.testing.assert_array_equal(again.bounds, idx.bounds)
