import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.changepoint import ChangeDecision
from teachcut.pipeline import PipelineConfig, dynamic_prefix_reweight
from teachcut.records import rollout_from_obj
from teachcut.reweight import (_release_sources, _snap_release_segment,
                               build_prefix_mask, permute_release_points,
                               rescale_advantages)
from teachcut.segmentation import SegmentIndex

from helpers import valid_obj


def decision(release_segment, accepted=True, gain=10.0):
    return ChangeDecision(release_segment, accepted, gain if accepted else 0.0,
                          1.0, 0.1 if accepted else None)


def index(counts, num_tokens=None):
    lists, start = [], 0
    for c in counts:
        lists.append(list(range(start, start + c)))
        start += c
    return SegmentIndex(lists, num_tokens or start)


def test_prefix_mask_covers_retained_segments():
    seg = index([2, 1, 2])
    mask = build_prefix_mask(seg, decision(2), 5)
    np.testing.assert_array_equal(mask, [1, 1, 1, 0, 0])


def test_prefix_mask_rejected_keeps_everything():
    seg = index([2, 1, 2])
    mask = build_prefix_mask(seg, decision(3, accepted=False), 5)
    np.testing.assert_array_equal(mask, np.ones(5))


def test_prefix_mask_unassigned_tokens_stay_zero():
    seg = SegmentIndex([[1, 2]], 4)
    mask = build_prefix_mask(seg, decision(1), 4)
    np.testing.assert_array_equal(mask, [0, 1, 1, 0])


def test_prefix_mask_range_check():
    seg = SegmentIndex([[0, 1, 2]], 3)
    with pytest.raises(ValueError, match="out of range"):
        build_prefix_mask(seg, decision(1), 2)


def test_rescale_frozen_case():
    rescaled, scale = rescale_advantages(np.array([1.0, 2.0, 3.0, 4.0]),
                                         np.ones(4),
                                         np.array([1.0, 1.0, 0.0, 0.0]))
    assert scale == 2.0
    np.testing.assert_array_equal(rescaled, [2.0, 4.0, 0.0, 0.0])


def test_rescale_eps_floor_when_nothing_kept():
    rescaled, scale = rescale_advantages(np.array([1.0, 1.0]),
                                         np.array([1.0, 1.0]),
                                         np.zeros(2))
    assert scale == pytest.approx(2.0 / 1e-8)
    np.testing.assert_array_equal(rescaled, [0.0, 0.0])


def test_rescale_full_mask_is_identity():
    rng = np.random.default_rng(3)
    advantages = rng.normal(size=50)
    loss = rng.uniform(0.1, 1.0, size=50)
    rescaled, scale = rescale_advantages(advantages, loss, np.ones(50))
    assert scale == 1.0
    np.testing.assert_array_equal(rescaled, advantages)


def test_rescale_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ"):
        rescale_advantages(np.ones(3), np.ones(2), np.ones(3))


@settings(max_examples=150)
@given(st.data())
def test_mass_conservation_property(data):
    n = data.draw(st.integers(1, 40))
    advantages = np.array(data.draw(st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)))
    loss = np.array(data.draw(st.lists(
        st.floats(0, 1, allow_nan=False), min_size=n, max_size=n)))
    prefix = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    kept = float((loss * prefix).sum())
    if kept <= 1e-8:
        return
    rescaled, scale = rescale_advantages(advantages, loss, prefix)
    assert float((loss * prefix).sum()) * scale == pytest.approx(
        float(loss.sum()), rel=1e-9, abs=1e-12)
    np.testing.assert_array_equal(rescaled, advantages * prefix * scale)


def test_fixed_prefix_mask():
    # a K past the end keeps every token
    for strategy, num_tokens, expected in (("fixed:2", 4, [1, 1, 0, 0]),
                                           ("fixed:7", 3, [1, 1, 1])):
        record = rollout_from_obj(valid_obj(num_tokens))
        result = dynamic_prefix_reweight(record,
                                         PipelineConfig(strategy=strategy))
        np.testing.assert_array_equal(result.prefix_mask, expected)


def test_snap_picks_first_boundary_at_or_after_the_fraction():
    # source kept 5 of 10; target segments cover 3/6/9 of 9 tokens
    cums = np.array([3, 6, 9])
    assert _snap_release_segment(cums, 5, 10, 9) == 2
    # exact boundary snaps to itself
    assert _snap_release_segment(np.array([2, 4, 8]), 4, 8, 8) == 2
    # nothing reaches the fraction: clamp to the last segment
    assert _snap_release_segment(np.array([1, 2]), 9, 10, 4) == 2


def test_permute_homogeneous_batch_preserves_positions_exactly():
    seg = index([2, 2, 2, 2])
    items = [(seg, decision(1)), (seg, decision(3)),
             (seg, decision(4, accepted=False)), (seg, decision(2))]
    assignments = permute_release_points(items, seed=5)
    before = sorted((d.release_segment if d.accepted else 4) for _, d in items)
    after = sorted(a.release_segment for a in assignments)
    assert before == after

    def kept(d):
        return seg.bounds[d.release_segment - 1] / 8 if d.accepted else 1.0

    # every target shares seg, so each keeps exactly its source's fraction
    rel_before = sorted(kept(d) for _, d in items)
    rel_after = sorted(seg.bounds[a.release_segment - 1] / 8
                       for a in assignments)
    assert rel_before == rel_after
    sources = _release_sources(len(items), 5)
    assert sources != list(range(len(items)))
    for a, s in zip(assignments, sources):
        assert seg.bounds[a.release_segment - 1] / 8 == kept(items[s][1])
        assert a.accepted == items[s][1].accepted


def test_permute_is_seed_deterministic_and_seed_sensitive():
    seg = index([1, 1, 1, 1, 1])
    items = [(seg, decision(k)) for k in (1, 2, 3, 4)]
    a = permute_release_points(items, seed=11)
    b = permute_release_points(items, seed=11)
    assert a == b
    seen = set()
    for seed in range(8):
        # one layout and four distinct decisions: each target's segment is
        # its source's
        got = tuple(x.release_segment
                    for x in permute_release_points(items, seed=seed))
        assert got == tuple(items[s][1].release_segment
                            for s in _release_sources(len(items), seed))
        seen.add(got)
    assert len(seen) > 1


def test_permute_rejected_source_transfers_full_supervision():
    # the last target's segments leave tokens 0 and 3 unassigned
    items = [(index([2, 2]), decision(2, accepted=False)),
             (index([1, 1, 1, 1]), decision(1)),
             (SegmentIndex([[1], [2]], 4), decision(1))]
    swapped = False
    covering = set()  # whether each target a rejected source reached covers
    for seed in range(12):
        assignments = permute_release_points(items, seed=seed)
        sources = _release_sources(len(items), seed)
        swapped |= sources != [0, 1, 2]
        for t, s in enumerate(sources):
            if not items[s][1].accepted:
                assert not assignments[t].accepted
                assert assignments[t].release_segment == len(items[t][0])
                covering.add(int(items[t][0].bounds[-1]) == 4)
    assert swapped
    assert covering == {True, False}


def test_permute_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty batch"):
        permute_release_points([], seed=0)


def test_permute_carries_source_gains():
    seg = index([1, 1])
    items = [(seg, ChangeDecision(1, True, 12.5, 1.0, 0.0)),
             (seg, ChangeDecision(1, True, 7.25, 1.0, 0.0))]
    swapped = False
    for seed in range(6):
        assignments = permute_release_points(items, seed=seed)
        assert sorted(a.bic_gain for a in assignments) == [7.25, 12.5]
        sources = _release_sources(len(items), seed)
        swapped |= sources != [0, 1]
        for t, s in enumerate(sources):
            assert assignments[t].bic_gain == items[s][1].bic_gain
    assert swapped
