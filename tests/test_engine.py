from __future__ import annotations

import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specroute.caches import KVCache
from specroute.core import (
    GenerationConfig,
    Producer,
    PromptSpec,
    noise_seed_for_block,
    pixel_frame_count,
    summary_to_dict,
)
from specroute.engine import (
    Arm,
    BlockExecutionError,
    route_run,
    run_arms_detailed,
    run_video_detailed,
)
from specroute.router import (
    AggregationMode,
    AlwaysAcceptPolicy,
    AlwaysRejectPolicy,
    RandomPolicy,
    ThresholdPolicy,
    aggregate,
)
from specroute.synthmodels import SyntheticScorer, build_synthetic_stack


def run(stack, calibration, config, policy, prompt_id="p0", **kwargs):
    return run_video_detailed(
        config,
        PromptSpec(prompt_id),
        stack.drafter,
        stack.target,
        stack.decoder,
        stack.scorer,
        policy,
        latency=calibration.latency,
        **kwargs,
    )


class TestBaselinePolicies:
    def test_always_reject_yields_target_only_content(self, stack, calibration, config):
        res = run(stack, calibration, config, AlwaysRejectPolicy())
        assert [e.producer for e in res.target_kv.entries] == [Producer.TARGET] * 9
        assert res.summary.accept_rate_excl_block0 == 0.0

    def test_always_accept_without_force_is_draft_only(self, stack, calibration, config):
        res = run(stack, calibration, config, AlwaysAcceptPolicy())
        assert [e.producer for e in res.target_kv.entries] == [Producer.DRAFT] * 9
        assert res.summary.accept_rate_excl_block0 == 1.0

    def test_default_policy_forces_target_block0(self, stack, calibration, config):
        res = run(stack, calibration, config, ThresholdPolicy())
        assert res.target_kv.entries[0].producer is Producer.TARGET
        assert res.summary.block_traces[0].decision.value == "forced_first_block"


class TestRunShape:
    def test_both_caches_filled_regardless_of_routing(self, stack, calibration, config):
        for policy in (ThresholdPolicy(), AlwaysRejectPolicy(), AlwaysAcceptPolicy()):
            res = run(stack, calibration, config, policy)
            assert len(res.drafter_kv) == 9
            assert len(res.target_kv) == 9
            assert [e.producer for e in res.drafter_kv.entries] == [Producer.DRAFT] * 9

    @pytest.mark.parametrize("num_blocks", [1, 2, 9])
    def test_emitted_frame_counts(self, stack, calibration, num_blocks):
        config = GenerationConfig(num_blocks=num_blocks)
        stack = build_synthetic_stack(calibration, config)
        res = run(stack, calibration, config, ThresholdPolicy())
        emitted = sum(len(f.frames) for f in res.emitted_frames)
        assert emitted == 9 + (num_blocks - 1) * 12

    def test_target_kv_matches_decision_sequence(self, stack, calibration, config):
        res = run(stack, calibration, config, ThresholdPolicy())
        for trace, entry in zip(res.summary.block_traces, res.target_kv.entries):
            expected = Producer.DRAFT if trace.decision.accepted else Producer.TARGET
            assert entry.producer is expected

    def test_target_time_iff_rejected(self, stack, calibration, config):
        res = run(stack, calibration, config, ThresholdPolicy(), prompt_id="p3")
        for trace in res.summary.block_traces:
            assert (trace.target_time_s > 0) == (not trace.decision.accepted)

    def test_accept_rate_counts_blocks_after_the_first(self, stack, calibration, config):
        res = run(stack, calibration, config, ThresholdPolicy())
        accepted = sum(1 for t in res.summary.block_traces[1:] if t.decision.accepted)
        assert res.summary.accept_rate_excl_block0 == accepted / 8

    def test_single_block_accept_rate_is_zero(self, stack, calibration):
        config = GenerationConfig(num_blocks=1)
        stack = build_synthetic_stack(calibration, config)
        res = run(stack, calibration, config, ThresholdPolicy())
        assert res.summary.accept_rate_excl_block0 == 0.0

    def test_total_time_matches_cost_model_aggregation(self, stack, calibration, config):
        from specroute.costmodel import simulate_time

        res = run(stack, calibration, config, ThresholdPolicy())
        assert res.summary.total_time_s == simulate_time(
            res.summary.block_traces, calibration.latency
        )


class TestScoringRules:
    def test_forced_block0_unscored_by_default(self, stack, calibration, config):
        res = run(stack, calibration, config, ThresholdPolicy())
        first = res.summary.block_traces[0]
        assert first.aggregate_score is None
        assert first.frame_scores is None
        assert first.score_time_s == 0.0

    def test_forced_block0_scored_when_configured(self, calibration, config):
        config = config.with_overrides(score_forced_rejections=True)
        stack = build_synthetic_stack(calibration, config)
        res = run(stack, calibration, config, ThresholdPolicy())
        first = res.summary.block_traces[0]
        assert first.aggregate_score is not None
        assert first.decision.value == "forced_first_block"

    def test_unforced_blocks_always_scored(self, stack, calibration, config):
        res = run(stack, calibration, config, AlwaysRejectPolicy())
        for trace in res.summary.block_traces:
            assert trace.frame_scores is not None
            assert trace.aggregate_score == min(trace.frame_scores.scores)

    def test_mean_aggregation_accepts_no_less_than_min(self, stack, calibration, config):
        res_min = run(stack, calibration, config, ThresholdPolicy(tau=-0.7))
        res_mean = run(
            stack, calibration, config, ThresholdPolicy(tau=-0.7),
            aggregation=AggregationMode.MEAN_FRAME,
        )
        assert res_mean.summary.accept_rate_excl_block0 >= res_min.summary.accept_rate_excl_block0


class TestDrafterInvariance:
    def test_drafter_digests_identical_across_policies(self, stack, calibration, config):
        policies = [
            ThresholdPolicy(tau=-0.7),
            ThresholdPolicy(tau=-2.5),
            AlwaysAcceptPolicy(),
            AlwaysRejectPolicy(),
            RandomPolicy(accept_prob=0.5, rng_seed=1),
        ]
        digests = {
            run(stack, calibration, config, policy, prompt_id="inv").drafter_kv.digests()
            for policy in policies
        }
        assert len(digests) == 1

    def test_rejected_blocks_regenerate_from_the_same_noise(self, stack, calibration, config):
        res = run(stack, calibration, config, ThresholdPolicy(), prompt_id="noise")
        for trace in res.summary.block_traces:
            draft_entry = res.drafter_kv.entries[trace.block_index]
            target_entry = res.target_kv.entries[trace.block_index]
            expected = noise_seed_for_block(config.seed, "noise", trace.block_index)
            assert draft_entry.block.noise_seed == expected
            assert target_entry.block.noise_seed == expected


class TestDecodeConsistency:
    @pytest.mark.parametrize("label,policy", [
        ("threshold", ThresholdPolicy()),
        ("random", RandomPolicy(accept_prob=0.5, rng_seed=3)),
        ("reject", AlwaysRejectPolicy()),
    ])
    def test_committed_path_replay_reproduces_emitted_frames(
        self, stack, calibration, config, label, policy
    ):
        res = run(stack, calibration, config, policy, prompt_id=f"replay-{label}")
        state = stack.decoder.fresh_state()
        for entry, emitted in zip(res.target_kv.entries, res.emitted_frames):
            again = stack.decoder.decode(entry.block, state)
            assert len(again.frames) == len(emitted.frames)
            for a, b in zip(again.frames, emitted.frames):
                assert np.array_equal(a, b)


class TestDeterminism:
    def test_identical_inputs_give_identical_summaries(self, stack, calibration, config):
        a = run(
            stack, calibration, config, ThresholdPolicy(), prompt_id="det",
            quality_fn=calibration.proxy.run_quality,
        ).summary
        b = run(
            stack, calibration, config, ThresholdPolicy(), prompt_id="det",
            quality_fn=calibration.proxy.run_quality,
        ).summary
        assert a == b
        assert summary_to_dict(a) == summary_to_dict(b)

    def test_random_policy_runs_reproduce_under_same_seed(self, stack, calibration, config):
        a = run(
            stack, calibration, config, RandomPolicy(accept_prob=0.6, rng_seed=5),
            quality_fn=calibration.proxy.run_quality,
        ).summary
        b = run(
            stack, calibration, config, RandomPolicy(accept_prob=0.6, rng_seed=5),
            quality_fn=calibration.proxy.run_quality,
        ).summary
        assert a == b

    def test_prompt_changes_results(self, stack, calibration, config):
        a = run(stack, calibration, config, ThresholdPolicy(), prompt_id="p1").summary
        b = run(stack, calibration, config, ThresholdPolicy(), prompt_id="p2").summary
        assert a.block_traces != b.block_traces


class TestTargetOnlyMode:
    def test_skips_drafter_entirely(self, stack, calibration, config):
        res = run(
            stack, calibration, config, AlwaysRejectPolicy(),
            draft_enabled=False,
        )
        assert len(res.drafter_kv) == 0
        assert [e.producer for e in res.target_kv.entries] == [Producer.TARGET] * 9
        for trace in res.summary.block_traces:
            assert trace.draft_time_s == 0.0
            assert trace.decode_time_s == 0.0
            assert trace.score_time_s == 0.0
            assert trace.target_time_s == calibration.latency.c_target
        assert res.summary.total_time_s == pytest.approx(9 * calibration.latency.c_target)

    def test_requires_rejecting_policy(self, stack, calibration, config):
        with pytest.raises(ValueError):
            run(stack, calibration, config, AlwaysAcceptPolicy(), draft_enabled=False)

    def test_emits_all_frames(self, stack, calibration, config):
        res = run(stack, calibration, config, AlwaysRejectPolicy(), draft_enabled=False)
        assert sum(len(f.frames) for f in res.emitted_frames) == 105


class TestErrorHandling:
    def test_scorer_failure_carries_block_index(self, stack, calibration, config):
        class FailingScorer(SyntheticScorer):
            def score(self, frame, prompt):
                raise RuntimeError("reward model offline")

        with pytest.raises(BlockExecutionError) as err:
            run_video_detailed(
                config,
                PromptSpec("p0"),
                stack.drafter,
                stack.target,
                stack.decoder,
                FailingScorer(),
                ThresholdPolicy(),
                latency=calibration.latency,
            )
        assert err.value.block_index == 0 or err.value.block_index == 1
        assert err.value.stage == "scorer"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("mode", list(AggregationMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("score_forced", [False, True], ids=["forced_unscored", "forced_scored"])
    def test_non_finite_score_names_its_block(self, stack, calibration, bad, mode, score_forced):
        class NonFiniteScorer(SyntheticScorer):
            def score(self, frame, prompt):
                return bad

        # Block 0 is force-rejected, so it is scored only when forced rejections are.
        config = GenerationConfig(num_blocks=3, score_forced_rejections=score_forced)
        block = 0 if score_forced else 1
        with pytest.raises(ValueError, match=f"^non-finite frame score in block {block}$"):
            run_video_detailed(
                config,
                PromptSpec("p0"),
                stack.drafter,
                stack.target,
                stack.decoder,
                NonFiniteScorer(),
                ThresholdPolicy(),
                aggregation=mode,
                latency=calibration.latency,
            )

    def test_missing_latency_rejected(self, stack, config):
        with pytest.raises(ValueError):
            run_video_detailed(
                config,
                PromptSpec("p0"),
                stack.drafter,
                stack.target,
                stack.decoder,
                stack.scorer,
                ThresholdPolicy(),
                latency=None,
            )

    def test_error_crosses_a_process_boundary_intact(self):
        # Sweep workers pickle a failure back to the caller.
        err = pickle.loads(pickle.dumps(BlockExecutionError(3, "drafter", ValueError("boom"))))
        assert (str(err), err.block_index, err.stage) == ("block 3: drafter failed: boom", 3,
                                                          "drafter")

    def test_quality_defaults_to_nan(self, stack, calibration, config):
        summary = run(stack, calibration, config, ThresholdPolicy()).summary
        assert math.isnan(summary.quality_proxy)


# Arm descriptions; each run builds fresh policies, since a RandomPolicy is stateful.
arm_descriptions = st.one_of(
    st.tuples(st.just("threshold"), st.floats(-3.0, 0.5), st.just(True)),
    st.tuples(st.just("mean_frame"), st.floats(-3.0, 0.5), st.just(True)),
    st.tuples(st.just("random"), st.floats(0.0, 1.0), st.booleans()),
    st.tuples(st.just("always_accept"), st.none(), st.booleans()),
    st.tuples(st.just("always_reject"), st.none(), st.booleans()),
    st.tuples(st.just("target_only"), st.none(), st.just(False)),
)


def make_arm(description, index: int) -> Arm:
    kind, value, force = description
    if kind in ("threshold", "mean_frame"):
        mode = AggregationMode.MEAN_FRAME if kind == "mean_frame" else AggregationMode.MIN_FRAME
        return Arm(ThresholdPolicy(tau=value, force_reject_block0=force), mode)
    if kind == "random":
        return Arm(RandomPolicy(accept_prob=value, force_reject_block0=force, rng_seed=index))
    if kind == "always_accept":
        return Arm(AlwaysAcceptPolicy(force_reject_block0=force))
    if kind == "always_reject":
        return Arm(AlwaysRejectPolicy(force_reject_block0=force))
    return Arm(AlwaysRejectPolicy(), draft_enabled=False)


class TestLockstepArms:
    @settings(max_examples=40, deadline=None)
    @given(
        descriptions=st.lists(arm_descriptions, min_size=1, max_size=6),
        num_blocks=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        score_forced=st.booleans(),
    )
    def test_each_lane_equals_its_solo_run(
        self, calibration, descriptions, num_blocks, seed, score_forced
    ):
        config = GenerationConfig(
            num_blocks=num_blocks, seed=seed, score_forced_rejections=score_forced
        )
        cal = calibration.with_seed(seed)
        stack = build_synthetic_stack(cal, config)
        prompt = PromptSpec(f"lock{seed}")
        models = (stack.drafter, stack.target, stack.decoder, stack.scorer)

        def solo(arm: Arm):
            return run_video_detailed(
                config, prompt, *models, arm.policy, arm.aggregation,
                cal.latency, cal.proxy.run_quality, arm.draft_enabled,
            )

        arms = [make_arm(d, i) for i, d in enumerate(descriptions)]
        lanes = run_arms_detailed(
            config, prompt, *models, arms, cal.latency, cal.proxy.run_quality
        )
        drafted = solo(Arm(AlwaysAcceptPolicy()))
        # The scores the synthetic drafter embeds, so the kernel routes what the engine scored.
        vectors = [
            cal.quantile.sample_block_score(prompt.prompt_id, b, pixel_frame_count(config, b))
            for b in range(num_blocks)
        ]
        assert len(lanes) == len(arms)
        for i, (description, lane) in enumerate(zip(descriptions, lanes)):
            alone = solo(make_arm(description, i))
            assert lane.summary == alone.summary
            arm = make_arm(description, i)
            kernel = route_run(
                prompt.prompt_id, vectors, arm, score_forced,
                cal.latency.block_times, cal.latency, cal.proxy.run_quality,
            )
            assert kernel == lane.summary
            assert len(lane.emitted_frames) == len(alone.emitted_frames) == num_blocks
            for mine, theirs in zip(lane.emitted_frames, alone.emitted_frames):
                assert len(mine.frames) == len(theirs.frames)
                for a, b in zip(mine.frames, theirs.frames):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()
            assert lane.target_kv.digests() == alone.target_kv.digests()
            assert lane.drafter_kv is lanes[0].drafter_kv
        if any(arm.draft_enabled for arm in arms):
            assert lanes[0].drafter_kv.digests() == drafted.drafter_kv.digests()
        else:
            assert len(lanes[0].drafter_kv) == 0

    @pytest.mark.parametrize("policy, message", [
        (AlwaysAcceptPolicy(), "draft_enabled=False requires a policy that rejects every block"),
        (ThresholdPolicy(), "threshold policy needs a score for block 1"),
    ])
    def test_an_arm_that_does_not_draft_must_reject(
        self, stack, calibration, config, policy, message
    ):
        with pytest.raises(ValueError, match=message):
            run(stack, calibration, config, policy, draft_enabled=False)
        vectors = [calibration.quantile.sample_block_score("p0", b, pixel_frame_count(config, b))
                   for b in range(config.num_blocks)]
        with pytest.raises(ValueError, match=message):
            route_run(
                "p0", vectors, Arm(policy, draft_enabled=False), False,
                calibration.latency.block_times, calibration.latency, None,
            )

    def test_drafter_runs_once_per_block(self, stack, calibration, config):
        calls = []

        class CountingDrafter(type(stack.drafter)):
            def generate(self, noise_seed, kv, block_index, prompt):
                calls.append(block_index)
                return super().generate(noise_seed, kv, block_index, prompt)

        drafter = CountingDrafter(stack.drafter.quality, config)
        arms = [Arm(ThresholdPolicy()), Arm(AlwaysAcceptPolicy()),
                Arm(AlwaysRejectPolicy(), draft_enabled=False)]
        run_arms_detailed(
            config, PromptSpec("once"), drafter, stack.target, stack.decoder, stack.scorer,
            arms, calibration.latency,
        )
        assert calls == list(range(config.num_blocks))

    def test_target_only_arms_never_draft(self, stack, calibration, config):
        lanes = run_arms_detailed(
            config, PromptSpec("t"), None, stack.target, stack.decoder, None,
            [Arm(AlwaysRejectPolicy(), draft_enabled=False)] * 2, calibration.latency,
            calibration.proxy.run_quality,
        )
        assert [len(lane.drafter_kv) for lane in lanes] == [0, 0]
        assert lanes[0].summary == lanes[1].summary


    def counted_run(self, stack, calibration, config, arms, monkeypatch):
        """Run arms over counting models; counts decode, score, target and commit calls."""
        counts = Counter()

        class Decoder(type(stack.decoder)):
            def decode(self, latent, state):
                counts["decode"] += 1
                return super().decode(latent, state)

        class Scorer(type(stack.scorer)):
            def score(self, frame, prompt):
                counts["score"] += 1
                return super().score(frame, prompt)

        class Target(type(stack.target)):
            def generate(self, noise_seed, kv, block_index, prompt):
                counts["target.generate"] += 1
                return super().generate(noise_seed, kv, block_index, prompt)

        commit = KVCache.commit

        def counting_commit(cache, block):
            counts[f"commit.{cache.owner.value}"] += 1
            return commit(cache, block)

        monkeypatch.setattr(KVCache, "commit", counting_commit)
        try:
            lanes = run_arms_detailed(
                config, PromptSpec("share"), stack.drafter, Target(config), Decoder(config),
                Scorer(), arms, calibration.latency,
            )
        finally:
            monkeypatch.undo()
        return counts, lanes

    def test_identical_arms_cost_one_solo_run(self, stack, calibration, config, monkeypatch):
        solo, _ = self.counted_run(
            stack, calibration, config, [Arm(ThresholdPolicy(tau=-1.0))], monkeypatch
        )
        shared, lanes = self.counted_run(
            stack, calibration, config, [Arm(ThresholdPolicy(tau=-1.0)) for _ in range(4)],
            monkeypatch,
        )
        assert solo["target.generate"] > 0 and solo["score"] > 0
        for key in ("decode", "score", "target.generate", "commit.target"):
            assert shared[key] == solo[key], key
        assert all(lane.target_kv is lanes[0].target_kv for lane in lanes)
        assert all(lane.emitted_frames is lanes[0].emitted_frames for lane in lanes)

    def test_diverged_arms_end_with_distinct_target_caches(self, stack, calibration, config):
        arms = [Arm(ThresholdPolicy(tau=-1.0)), Arm(AlwaysAcceptPolicy()),
                Arm(AlwaysRejectPolicy(), draft_enabled=False), Arm(ThresholdPolicy(tau=-1.0))]
        lanes = run_arms_detailed(
            config, PromptSpec("fork"), stack.drafter, stack.target, stack.decoder, stack.scorer,
            arms, calibration.latency,
        )
        caches = [lane.target_kv for lane in lanes]
        assert len({id(cache) for cache in caches[:3]}) == 3
        assert len({cache.digests() for cache in caches[:3]}) == 3
        assert caches[3] is caches[0]
