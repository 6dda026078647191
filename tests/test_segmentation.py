import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.records import RecordValidationError
from teachcut.segmentation import (SegmentIndex, aggregate_segment_scores,
                                   segment_tokens)


def boundaries(index):
    return [seg.tolist() for seg in index.segments]


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
    flat = np.concatenate(idx.segments)
    np.testing.assert_array_equal(np.sort(flat), np.arange(len(surfaces)))


def test_segment_index_helpers():
    idx = SegmentIndex((np.array([0, 1]), np.array([2]), np.array([3, 4, 5])), 6)
    np.testing.assert_array_equal(idx.token_counts(), [2, 1, 3])
    np.testing.assert_array_equal(idx.cumulative_token_counts(), [2, 3, 6])
    np.testing.assert_array_equal(idx.prefix_token_ids(2), [0, 1, 2])
    assert idx.prefix_token_ids(0).size == 0
    assert len(idx) == 3


def test_from_lists_validates():
    idx = SegmentIndex.from_lists([[0, 1], [], [2]], 3)  # empties dropped
    assert len(idx) == 2
    with pytest.raises(RecordValidationError, match="ascending") as info:
        SegmentIndex.from_lists([[1, 0]], 2)
    assert (info.value.field, info.value.position) == ("segments", 0)
    with pytest.raises(RecordValidationError, match="overlap") as info:
        SegmentIndex.from_lists([[0, 1], [1, 2]], 3)
    assert info.value.position == 1
    with pytest.raises(RecordValidationError, match="out of range") as info:
        SegmentIndex.from_lists([[0, 5]], 3)
    assert info.value.position == 0


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
    flat = np.concatenate(idx.segments)
    np.testing.assert_array_equal(flat, np.arange(len(surfaces)))
    for seg in idx.segments:
        assert seg.size > 0


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
    idx = SegmentIndex.from_lists(lists, num_tokens)
    scores = aggregate_segment_scores(margins, idx)
    for seg, score in zip(idx.segments, scores.scores):
        assert score == pytest.approx(math.log1p(margins[seg].mean()), rel=1e-12)
