from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from specroute.core import (
    LATENT_FRAMES_PER_BLOCK,
    PIXEL_FRAMES_FIRST_BLOCK,
    PIXEL_FRAMES_LATER_BLOCK,
    BlockTrace,
    ConfigError,
    DecisionReason,
    FrameScoreVector,
    GenerationConfig,
    LatentBlock,
    Producer,
    RunSummary,
    block_digest,
    checked_scores,
    default_config,
    keyed_generator,
    noise_seed_for_block,
    pixel_frame_count,
    stable_key,
    summary_to_dict,
    trace_to_dict,
)
from specroute.router import ThresholdPolicy


class TestDefaultConfig:
    def test_matches_reference_protocol(self):
        cfg = default_config()
        assert cfg.num_blocks == 9
        assert LATENT_FRAMES_PER_BLOCK == 3
        assert PIXEL_FRAMES_FIRST_BLOCK == 9
        assert PIXEL_FRAMES_LATER_BLOCK == 12

    def test_default_threshold(self):
        # tau is a policy setting, never a config field.
        assert not hasattr(default_config(), "threshold")
        assert ThresholdPolicy().tau == -0.7

    def test_default_seed(self):
        assert default_config().seed == 42

    def test_forced_rejections_unscored_by_default(self):
        assert default_config().score_forced_rejections is False


class TestConfigValidation:
    def test_at_least_one_block(self):
        with pytest.raises(ConfigError):
            GenerationConfig(num_blocks=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            GenerationConfig(seed=-1)

    def test_single_block_config_is_valid(self):
        assert GenerationConfig(num_blocks=1).num_blocks == 1


class TestPixelFrameCount:
    def test_first_block(self, config):
        assert pixel_frame_count(config, 0) == 9

    def test_later_block(self, config):
        assert pixel_frame_count(config, 5) == 12

    def test_total_over_default_video(self, config):
        total = sum(pixel_frame_count(config, b) for b in range(config.num_blocks))
        assert total == 9 + 8 * 12 == 105

    @pytest.mark.parametrize("num_blocks", [1, 2, 9])
    def test_total_formula(self, num_blocks):
        cfg = GenerationConfig(num_blocks=num_blocks)
        total = sum(pixel_frame_count(cfg, b) for b in range(num_blocks))
        assert total == 9 + (num_blocks - 1) * 12

    def test_out_of_range(self, config):
        with pytest.raises(IndexError):
            pixel_frame_count(config, 9)
        with pytest.raises(IndexError):
            pixel_frame_count(config, -1)


class TestPayloads:
    def test_latent_block_rejects_non_finite(self):
        data = np.zeros((3, 4, 8, 8))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            LatentBlock(0, data, Producer.DRAFT, noise_seed=1)

    def test_latent_block_data_is_read_only(self):
        block = LatentBlock(0, np.zeros((3, 4, 8, 8)), Producer.DRAFT, noise_seed=1)
        with pytest.raises(ValueError):
            block.data[0, 0, 0, 0] = 1.0

    def test_latent_block_copies_its_payload(self):
        data = np.zeros((3, 4, 8, 8))
        block = LatentBlock(0, data, Producer.DRAFT, noise_seed=1)
        digest = block_digest(block)
        data[0, 0, 0, 0] = 99.0
        assert not block.data.any()
        assert block_digest(block) == digest

    def test_latent_block_digest_is_taken_once_at_construction(self):
        block = LatentBlock(3, np.arange(192.0).reshape(3, 4, 4, 4), Producer.TARGET, noise_seed=7)
        # The value the drafter and target seed their noise from: it must not change.
        assert block.digest == block_digest(block) == "698ae8a6ac36bd1d12a6111fb1b22689"
        with pytest.raises(AttributeError):
            block.digest = "0" * 32

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        *(lambda block, p=p: pickle.loads(pickle.dumps(block, protocol=p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ], ids=["copy", "deepcopy", *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_latent_block_copies_are_read_only_with_their_own_digest(self, clone):
        block = LatentBlock(2, np.full((3, 4, 8, 8), 0.5), Producer.DRAFT, noise_seed=9)
        twin = clone(block)
        assert (twin.block_index, twin.producer, twin.noise_seed) == (2, Producer.DRAFT, 9)
        assert twin.data.tobytes() == block.data.tobytes()
        assert twin.digest == block.digest == block_digest(twin)
        with pytest.raises(ValueError):
            twin.data[0, 0, 0, 0] = 99.0
        with pytest.raises(ValueError):
            twin.data.setflags(write=True)

    def test_frame_score_vector_stats(self):
        v = FrameScoreVector(2, (0.5, -0.3, 0.1))
        assert v.mean() == pytest.approx(0.1)

    def test_frame_score_vector_holds_plain_floats(self):
        v = checked_scores(0, (1, np.float64(0.5), -2.0))
        assert v == FrameScoreVector(0, (1.0, 0.5, -2.0))
        assert [type(s) for s in v.scores] == [float, float, float]
        assert type(checked_scores(0, [0.25]).scores) is tuple
        floats = (0.5, -0.3)
        assert checked_scores(0, floats).scores is floats


class TestRoutingDecision:
    """A decision is its reason, and the reason fixes the verdict."""

    @staticmethod
    def exported(reason):
        doc = trace_to_dict(BlockTrace(0, reason))
        return doc["verdict"], doc["reason"]

    @pytest.mark.parametrize(
        "reason",
        [DecisionReason.ABOVE_THRESHOLD, DecisionReason.RANDOM_ACCEPT, DecisionReason.ALWAYS_ACCEPT],
    )
    def test_accept_reasons(self, reason):
        assert reason.accepted is True
        assert self.exported(reason) == ("accept", reason.value)

    @pytest.mark.parametrize(
        "reason",
        [
            DecisionReason.BELOW_THRESHOLD,
            DecisionReason.FORCED_FIRST_BLOCK,
            DecisionReason.RANDOM_REJECT,
            DecisionReason.ALWAYS_REJECT,
        ],
    )
    def test_reject_reasons(self, reason):
        assert reason.accepted is False
        assert self.exported(reason) == ("reject", reason.value)


class TestHashing:
    def test_stable_key_reproducible(self):
        assert stable_key("a", 1, 2.5) == stable_key("a", 1, 2.5)

    def test_stable_key_sensitive_to_parts(self):
        keys = {stable_key("a"), stable_key("b"), stable_key("a", "b"), stable_key("ab")}
        assert len(keys) == 4

    def test_keyed_generator_streams_are_independent_and_deterministic(self):
        a1 = keyed_generator("x", 1).standard_normal(4)
        a2 = keyed_generator("x", 1).standard_normal(4)
        b = keyed_generator("x", 2).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_noise_seed_varies_per_block_and_prompt(self):
        seeds = {noise_seed_for_block(42, "p0", b) for b in range(9)}
        seeds |= {noise_seed_for_block(42, "p1", b) for b in range(9)}
        assert len(seeds) == 18


def test_summary_to_dict_maps_nan_quality_to_none():
    summary = RunSummary("p0", 0.0, 1.0, float("nan"), ())
    assert summary_to_dict(summary)["quality_proxy"] is None
