import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachcut.changepoint import (BIC_EPS, ChangeDecision,
                                  detect_downward_change)

from reference import oracle_change_point, profiled_bic

LN6 = 1.7917594692280551  # ln 6
# 6 * ln(1e-12 / 6) + 3 * ln 6, worked by hand from ln 10 and ln 6
BIC1_AT_3 = -171.16140510325545
GAIN = 172.9531645724835  # 4 * ln 6 - 6 * ln 1e-12


def test_hand_worked_step_sequence():
    decision = detect_downward_change([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])
    assert decision.accepted
    assert decision.release_segment == 3
    assert decision.bic_gain == pytest.approx(GAIN, abs=1e-8)
    assert decision.mu_pre == 2.0
    assert decision.mu_post == 0.0


def test_hand_worked_bic_terms():
    values = [2.0, 2.0, 2.0, 0.0, 0.0, 0.0]
    assert profiled_bic(values, 6.0, 1) == pytest.approx(LN6, abs=1e-9)
    assert profiled_bic(values, 0.0, 3) == pytest.approx(BIC1_AT_3, abs=1e-8)


def test_profiled_bic_formula():
    assert profiled_bic([1.0, 2.0, 3.0], 2.0, 1) == pytest.approx(
        3.0 * math.log((2.0 + BIC_EPS) / 3.0) + math.log(3.0), rel=1e-12)


def test_profiled_bic_input_checks():
    with pytest.raises(ValueError, match="at least one"):
        profiled_bic([], 0.0, 1)
    with pytest.raises(ValueError, match="non-negative"):
        profiled_bic([1.0], -0.5, 1)
    with pytest.raises(ValueError, match="positive"):
        profiled_bic([1.0], 0.0, 0)


def test_tied_best_taus_resolve_to_the_earliest():
    # both tau=1 and tau=2 leave residual 2.0 exactly
    decision = detect_downward_change([4.0, 2.0, 0.0])
    assert decision.accepted
    assert decision.release_segment == 1


def test_upward_step_rejected_with_full_retention():
    decision = detect_downward_change([0.0, 0.0, 2.0, 2.0])
    assert not decision.accepted
    assert decision.release_segment == 4
    assert decision.bic_gain == 0.0
    assert decision.mu_pre == pytest.approx(1.0)
    assert decision.mu_post is None


def test_constant_sequence_rejected():
    decision = detect_downward_change([1.0] * 8)
    assert not decision.accepted
    assert decision.release_segment == 8


def test_two_point_drop():
    decision = detect_downward_change([1.0, 0.0])
    assert decision.accepted
    assert decision.release_segment == 1
    assert decision.mu_pre == 1.0
    assert decision.mu_post == 0.0


def test_degenerate_lengths():
    assert detect_downward_change([]) == ChangeDecision(0, False, 0.0, None,
                                                        None)
    # one score takes the general path's no-drop exit: its mean is the score
    assert detect_downward_change([0.7]) == ChangeDecision(1, False, 0.0, 0.7,
                                                           None)


def test_accepts_segment_scores_objects():
    class Wrapper:
        scores = np.array([2.0, 2.0, 0.0, 0.0])

    decision = detect_downward_change(Wrapper())
    assert decision.accepted
    assert decision.release_segment == 2


def test_non_1d_rejected():
    with pytest.raises(ValueError, match="one-dimensional"):
        detect_downward_change(np.zeros((2, 2)))


def test_acceptance_requires_strict_empirical_drop():
    # mean-preserving alternating sequence: no tau has mean_right < mean_left
    decision = detect_downward_change([1.0, 1.0, 1.0, 1.0])
    assert not decision.accepted


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=0, max_size=40))
def test_matches_naive_oracle(scores):
    decision = detect_downward_change(scores)
    segment, accepted, gain = oracle_change_point(scores)
    assert decision.release_segment == segment
    assert decision.accepted == accepted
    assert decision.bic_gain == pytest.approx(gain, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                min_size=2, max_size=25),
       st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_shift_invariance_away_from_decision_boundaries(scores, shift):
    base = detect_downward_change(scores)
    if _decision_gap(scores) < 1e-5:
        return  # too close to the accept/reject boundary to compare
    shifted = detect_downward_change([s + shift for s in scores])
    assert shifted.accepted == base.accepted
    assert shifted.release_segment == base.release_segment
    if base.accepted:
        assert shifted.bic_gain == pytest.approx(base.bic_gain, rel=1e-5,
                                                 abs=1e-5)


def _decision_gap(scores):
    """Distance from the accept/reject and tau-choice boundaries, recomputed
    naively so the guard is independent of the implementation under test."""
    s = np.asarray(scores, dtype=np.float64)
    n = s.size
    mu = s.mean()
    bic0 = n * math.log((float(((s - mu) ** 2).sum()) + BIC_EPS) / n) + math.log(n)
    bics = []
    for tau in range(1, n):
        left, right = s[:tau], s[tau:]
        if right.mean() >= left.mean():
            continue
        rss = float(((left - left.mean()) ** 2).sum()
                    + ((right - right.mean()) ** 2).sum())
        bics.append(n * math.log((rss + BIC_EPS) / n) + 3.0 * math.log(n))
    if not bics:
        return math.inf
    ranked = sorted(bics)
    gap = abs(ranked[0] - bic0)
    if len(ranked) > 1:
        gap = min(gap, abs(ranked[1] - ranked[0]))
    # means near a tie can flip candidacy under a shift
    tie = min(abs(s[:tau].mean() - s[tau:].mean()) for tau in range(1, n))
    return min(gap, tie)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
                min_size=1, max_size=30))
def test_decision_invariants(scores):
    decision = detect_downward_change(scores)
    n = len(scores)
    assert 0 <= decision.release_segment <= n
    assert decision.bic_gain >= 0.0
    if decision.accepted:
        assert 1 <= decision.release_segment < n
        assert decision.bic_gain > 0.0
        assert decision.mu_post < decision.mu_pre
    else:
        assert decision.release_segment == n
        assert decision.bic_gain == 0.0
        assert decision.mu_post is None


def test_exact_rss_tie_lands_on_an_exact_argmin():
    # dyadic values make the minimal split residual an exact rational tie
    # (rss(5) == rss(7) == 149/280); either split is a correct answer, and
    # summation order decides which one a float implementation reports
    s = [0.75, 0.75, 0.75, 0.75, 0.5, 0.0, 0.75, 0.0, 0.0, 0.25, 0.0, 0.0]
    exact = [Fraction(v) for v in s]
    n = len(exact)

    def exact_rss(xs):
        mean = sum(xs, Fraction(0)) / len(xs)
        return sum((x - mean) ** 2 for x in xs)

    per_tau = {}
    for tau in range(1, n):
        left, right = exact[:tau], exact[tau:]
        if sum(right, Fraction(0)) * tau < sum(left, Fraction(0)) * (n - tau):
            per_tau[tau] = exact_rss(left) + exact_rss(right)
    best = min(per_tau.values())
    tied = {tau for tau, rss in per_tau.items() if rss == best}
    assert tied == {5, 7}

    decision = detect_downward_change(np.array(s))
    ref_tau, ref_accepted, ref_gain = oracle_change_point(np.array(s))
    assert decision.accepted and ref_accepted
    assert decision.release_segment in tied
    assert ref_tau in tied
    assert decision.bic_gain == pytest.approx(ref_gain, abs=1e-9)
