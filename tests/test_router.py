from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specroute.core import DecisionReason, FrameScoreVector, checked_scores, stable_key
from specroute.router import (
    AggregationMode,
    AlwaysAcceptPolicy,
    AlwaysRejectPolicy,
    RandomPolicy,
    ThresholdPolicy,
    aggregate,
)

finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=16
)


class TestAggregate:
    def test_min_frame(self):
        assert aggregate(FrameScoreVector(0, (0.5, -0.3, 0.1)), AggregationMode.MIN_FRAME) == -0.3

    def test_single_frame_identity(self):
        v = FrameScoreVector(0, (0.7,))
        assert aggregate(v, AggregationMode.MIN_FRAME) == 0.7
        assert aggregate(v, AggregationMode.MEAN_FRAME) == 0.7

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="^cannot aggregate an empty score vector$"):
            checked_scores(0, ())

    def test_non_finite_rejected(self):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="^non-finite frame score in block 3$"):
                checked_scores(3, (0.1, bad))

    @pytest.mark.parametrize("scores", [(1e308, 1e308), (-1e308, -1e308, 1e308, 1e308)])
    def test_overflowing_mean_rejected(self, scores):
        v = FrameScoreVector(1, scores)
        with pytest.raises(ValueError, match="overflows a float"):
            aggregate(v, AggregationMode.MEAN_FRAME)
        assert aggregate(v, AggregationMode.MIN_FRAME) == min(scores)

    @given(scores=finite_scores)
    def test_min_never_exceeds_mean(self, scores):
        v = FrameScoreVector(0, tuple(scores))
        low = aggregate(v, AggregationMode.MIN_FRAME)
        mid = aggregate(v, AggregationMode.MEAN_FRAME)
        assert low == min(scores)
        assert mid == pytest.approx(sum(scores) / len(scores))
        assert low <= mid + 1e-12


class TestThresholdPolicy:
    def test_boundary_is_inclusive(self):
        policy = ThresholdPolicy(tau=-0.7)
        d = policy.decide(3, -0.7)
        assert d is DecisionReason.ABOVE_THRESHOLD

    def test_just_below_rejects(self):
        d = ThresholdPolicy(tau=-0.7).decide(3, -0.71)
        assert d is DecisionReason.BELOW_THRESHOLD

    def test_block0_forced_despite_high_score(self):
        d = ThresholdPolicy(tau=-0.7, force_reject_block0=True).decide(0, 5.0)
        assert d is DecisionReason.FORCED_FIRST_BLOCK

    def test_block0_forced_even_at_infinite_score(self):
        d = ThresholdPolicy(tau=-0.7).decide(0, float("inf"))
        assert d is DecisionReason.FORCED_FIRST_BLOCK

    def test_unforced_block0_uses_threshold(self):
        d = ThresholdPolicy(tau=-0.7, force_reject_block0=False).decide(0, 5.0)
        assert d.accepted

    def test_missing_score_raises(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(tau=-0.7).decide(3, None)

    def test_decide_is_deterministic(self):
        policy = ThresholdPolicy(tau=-1.0)
        assert [policy.decide(2, -0.5) for _ in range(5)] == [policy.decide(2, -0.5)] * 5

    @given(
        scores=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=30),
        tau1=st.floats(-3, 3, allow_nan=False),
        tau2=st.floats(-3, 3, allow_nan=False),
    )
    def test_threshold_monotonicity(self, scores, tau1, tau2):
        lo, hi = min(tau1, tau2), max(tau1, tau2)
        accept_lo = {i for i, q in enumerate(scores) if ThresholdPolicy(tau=lo).decide(1 + i, q).accepted}
        accept_hi = {i for i, q in enumerate(scores) if ThresholdPolicy(tau=hi).decide(1 + i, q).accepted}
        assert accept_hi <= accept_lo

    @given(frames=st.lists(finite_scores, min_size=1, max_size=10), tau=st.floats(-3, 3, allow_nan=False))
    def test_min_accept_set_within_mean_accept_set(self, frames, tau):
        policy = ThresholdPolicy(tau=tau, force_reject_block0=False)
        accepted_min = set()
        accepted_mean = set()
        for i, scores in enumerate(frames):
            v = FrameScoreVector(i, tuple(scores))
            if policy.decide(i, aggregate(v, AggregationMode.MIN_FRAME)).accepted:
                accepted_min.add(i)
            if policy.decide(i, aggregate(v, AggregationMode.MEAN_FRAME)).accepted:
                accepted_mean.add(i)
        assert accepted_min <= accepted_mean


class TestRandomPolicy:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            RandomPolicy(accept_prob=1.2, rng_seed=0)
        with pytest.raises(ValueError):
            RandomPolicy(accept_prob=-0.1, rng_seed=0)

    def test_matched_rate_is_stored(self):
        assert RandomPolicy(accept_prob=0.731, rng_seed=1).accept_prob == 0.731

    def test_zero_rate_never_accepts(self):
        policy = RandomPolicy(accept_prob=0.0, rng_seed=3)
        assert not any(policy.decide(b, None).accepted for b in range(1, 200))

    def test_one_rate_always_accepts(self):
        policy = RandomPolicy(accept_prob=1.0, rng_seed=3)
        assert all(policy.decide(b, None).accepted for b in range(1, 200))

    def test_empirical_rate_matches_binomial(self):
        # 1e5 draws at p=0.731: binomial sigma ~0.0014, band is +-0.005
        n = 100_000
        policy = RandomPolicy(accept_prob=0.731, rng_seed=77)
        hits = sum(policy.decide(b % 8 + 1, None).accepted for b in range(n))
        assert abs(hits / n - 0.731) <= 0.005

    def test_decisions_ignore_score(self):
        a = RandomPolicy(accept_prob=0.5, rng_seed=9)
        b = RandomPolicy(accept_prob=0.5, rng_seed=9)
        seq_a = [a.decide(i, -100.0).accepted for i in range(1, 50)]
        seq_b = [b.decide(i, +100.0).accepted for i in range(1, 50)]
        assert seq_a == seq_b

    def test_forced_block0_consumes_no_draw(self):
        forced = RandomPolicy(accept_prob=0.5, rng_seed=11, force_reject_block0=True)
        plain = RandomPolicy(accept_prob=0.5, rng_seed=11)
        d0 = forced.decide(0, None)
        assert d0 is DecisionReason.FORCED_FIRST_BLOCK
        assert [forced.decide(i, None).accepted for i in range(1, 30)] == [
            plain.decide(i, None).accepted for i in range(1, 30)
        ]

    def test_random_reasons_are_distinct(self):
        policy = RandomPolicy(accept_prob=0.5, rng_seed=5)
        reasons = {policy.decide(i, None) for i in range(1, 100)}
        assert reasons == {DecisionReason.RANDOM_ACCEPT, DecisionReason.RANDOM_REJECT}


class TestForRun:
    def test_stateless_policy_serves_every_run(self):
        policy = ThresholdPolicy(tau=-1.0)
        assert policy.for_run(42, "arm", 3) is policy

    def test_random_policy_draws_from_the_runs_keyed_stream(self):
        base = RandomPolicy(accept_prob=0.4, force_reject_block0=True)
        run = base.for_run(42, "arm", 3)
        fresh = RandomPolicy(accept_prob=0.4, force_reject_block0=True,
                             rng_seed=stable_key(42, "arm", 3))
        assert run == fresh
        assert [run.decide(b, None) for b in range(30)] == [fresh.decide(b, None) for b in range(30)]
        assert base.for_run(42, "arm", 4).rng_seed != run.rng_seed


class TestFixedPolicies:
    def test_always_accept(self):
        d = AlwaysAcceptPolicy().decide(4, None)
        assert d is DecisionReason.ALWAYS_ACCEPT

    def test_always_reject(self):
        d = AlwaysRejectPolicy().decide(4, 10.0)
        assert d is DecisionReason.ALWAYS_REJECT

    def test_forced_always_accept_still_rejects_block0(self):
        d = AlwaysAcceptPolicy(force_reject_block0=True).decide(0, float("inf"))
        assert d is DecisionReason.FORCED_FIRST_BLOCK

    def test_decide_function_delegates(self):
        assert AlwaysAcceptPolicy().decide(1, None).accepted


@settings(max_examples=50)
@given(tau=st.floats(-4, 0, allow_nan=False), q=st.floats(-6, 2, allow_nan=False))
def test_threshold_matches_inclusive_comparison_oracle(tau, q):
    got = ThresholdPolicy(tau=tau).decide(2, q).accepted
    assert got == (q >= tau)
