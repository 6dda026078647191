import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.margin import teacher_top2_margin
from teachcut.records import parse_rollout_line, rollout_to_obj
from teachcut.synthetic import generate_rollout

from helpers import candidates_from_rows, reshaped_topk, to_line


def build(teacher_rows, ids_rows=None):
    if ids_rows is None:
        ids_rows = [list(range(len(row))) for row in teacher_rows]
    student_rows = [[-0.5 * (j + 1) for j in range(len(row))]
                    for row in teacher_rows]
    return candidates_from_rows(ids_rows, student_rows, teacher_rows)


def reference_margin(ids_rows, teacher_rows, support_size):
    """One row at a time: rank the row's first min(support_size, length)
    candidates by teacher log-prob, ties by ascending id."""
    num_positions = len(teacher_rows)
    values = np.empty(num_positions)
    for t, (ids, te) in enumerate(zip(ids_rows, teacher_rows)):
        w = min(support_size, len(te))
        te = np.asarray(te[:w], dtype=np.float64)
        order = np.lexsort((np.asarray(ids[:w], dtype=np.int64), -te))
        values[t] = te[order[0]] - te[order[1]]
    return values


def test_margin_is_top1_minus_top2():
    cands = build([[-3.0, -0.5, -2.0], [-0.1, -4.0, -0.3]])
    series = teacher_top2_margin(cands, support_size=3)
    np.testing.assert_allclose(series.values, [1.5, 0.2])


def test_support_size_restricts_candidates():
    # best candidate overall sits outside the support and must be ignored
    cands = build([[-2.0, -3.0, -0.1]])
    series = teacher_top2_margin(cands, support_size=2)
    assert series.values[0] == pytest.approx(1.0)


def test_teacher_tie_gives_zero_margin():
    cands = build([[-1.0, -1.0, -1.0]], ids_rows=[[7, 3, 5]])
    series = teacher_top2_margin(cands, support_size=3)
    assert series.values[0] == 0.0


def test_support_larger_than_rows_uses_every_candidate():
    cands = build([[-0.1, -0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = teacher_top2_margin(cands, support_size=4)
    assert series.values[0] == pytest.approx(0.8)


def test_support_size_below_two_rejected():
    cands = build([[-0.1, -0.9]])
    with pytest.raises(ValueError, match="at least 2"):
        teacher_top2_margin(cands, support_size=1)


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_support_size_must_be_an_int(bad):
    # a float would take ceil(bad) columns of the gather silently
    cands = build([[-0.1, -0.9, -1.0], [-0.1, -0.9]])
    with pytest.raises(ValueError, match="support_size must be an integer"):
        teacher_top2_margin(cands, support_size=bad)


def test_single_candidate_position_rejected():
    cands = candidates_from_rows([[0]], [[-0.5]], [[-0.1]])
    with pytest.raises(ValueError, match="position 0"):
        teacher_top2_margin(cands)


def test_empty_candidates():
    cands = candidates_from_rows([], [], [])
    series = teacher_top2_margin(cands)
    assert len(series) == 0


def test_ragged_rows_use_per_row_support():
    cands = build([[-0.1, -0.5, -0.2], [-1.0, -3.5]])
    series = teacher_top2_margin(cands, support_size=3)
    np.testing.assert_allclose(series.values, [0.1, 2.5])
    np.testing.assert_array_equal(cands.row_lengths(), [3, 2])


def test_margins_are_non_negative():
    cands = build([[-5.0, -1.0, -3.0, -2.0]])
    assert teacher_top2_margin(cands).values[0] >= 0.0


@settings(max_examples=150)
@given(st.data())
def test_margin_matches_per_row_reference(data):
    # ragged rows, with teacher ties drawn often, against the per-row loop
    num_positions = data.draw(st.integers(1, 6))
    support = data.draw(st.integers(2, 7))
    logp = st.one_of(st.sampled_from([-0.5, -1.0, -2.0]),
                     st.floats(min_value=-20.0, max_value=-0.01))
    teacher_rows, ids_rows = [], []
    for _ in range(num_positions):
        length = data.draw(st.integers(2, 6))
        teacher_rows.append(data.draw(st.lists(logp, min_size=length,
                                               max_size=length)))
        ids_rows.append(data.draw(st.lists(st.integers(0, 50), min_size=length,
                                           max_size=length, unique=True)))
    cands = build(teacher_rows, ids_rows)
    series = teacher_top2_margin(cands, support_size=support)
    np.testing.assert_array_equal(series.values, reference_margin(
        ids_rows, teacher_rows, support))


@settings(max_examples=60)
@given(st.data())
def test_margin_matches_naive_per_position(data):
    num_positions = data.draw(st.integers(1, 5))
    width = data.draw(st.integers(2, 5))
    logp = st.floats(min_value=-20.0, max_value=-0.01, allow_nan=False)
    teacher_rows = [data.draw(st.lists(logp, min_size=width, max_size=width))
                    for _ in range(num_positions)]
    series = teacher_top2_margin(build(teacher_rows), support_size=width)
    for t, row in enumerate(teacher_rows):
        ranked = sorted(range(width), key=lambda j: (-row[j], j))
        expected = row[ranked[0]] - row[ranked[1]]
        assert series.values[t] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("width", [5000, 20000])
def test_a_wide_row_costs_memory_linear_in_the_candidates(width):
    # a 1,000-token record whose row 0 holds `width` candidates: rows
    # padded to the widest took 171 MB (5,000) and 683 MB (20,000)
    record, _ = generate_rollout(np.ones(100), tokens_per_segment=10)
    line = to_line(reshaped_topk(rollout_to_obj(record), {0: width}))
    tracemalloc.start()
    try:
        parsed = parse_rollout_line(line)
        margins = teacher_top2_margin(parsed.candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.candidates.ids.size == 999 * 4 + width
    np.testing.assert_array_equal(margins.values, 1.0)
    assert peak < 8_000_000
