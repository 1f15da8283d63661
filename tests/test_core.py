from __future__ import annotations

import math

import numpy as np
import pytest

from specroute.core import (
    ConfigError,
    DecisionReason,
    FrameScoreVector,
    GenerationConfig,
    LatentBlock,
    Producer,
    RoutingDecision,
    RunSummary,
    Verdict,
    default_config,
    keyed_generator,
    noise_seed_for_block,
    pixel_frame_count,
    stable_key,
    summary_to_dict,
)


class TestDefaultConfig:
    def test_matches_reference_protocol(self):
        cfg = default_config()
        assert cfg.num_blocks == 9
        assert cfg.denoise_steps == 4
        assert cfg.timestep_schedule == (1000, 937, 833, 625, 0)
        assert cfg.guidance_scale == 3.0
        assert cfg.timestep_shift == 5.0
        assert cfg.latent_frames_per_block == 3
        assert cfg.pixel_frames_first_block == 9
        assert cfg.pixel_frames_later_block == 12
        assert cfg.resolution == (832, 480)

    def test_default_threshold(self):
        assert default_config().threshold == -0.7

    def test_default_seed(self):
        assert default_config().seed == 42

    def test_forced_rejections_unscored_by_default(self):
        assert default_config().score_forced_rejections is False


class TestConfigValidation:
    def test_schedule_length_must_match_steps(self):
        with pytest.raises(ConfigError):
            GenerationConfig(denoise_steps=3)  # default 5-entry schedule

    def test_schedule_strictly_decreasing(self):
        with pytest.raises(ConfigError):
            GenerationConfig(timestep_schedule=(1000, 937, 937, 625, 0))

    def test_schedule_ends_at_zero(self):
        with pytest.raises(ConfigError):
            GenerationConfig(timestep_schedule=(1000, 937, 833, 625, 1))

    def test_at_least_one_block(self):
        with pytest.raises(ConfigError):
            GenerationConfig(num_blocks=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            GenerationConfig(seed=-1)

    def test_single_block_config_is_valid(self):
        assert GenerationConfig(num_blocks=1).num_blocks == 1


class TestConfigSerialization:
    def test_round_trip_default(self):
        cfg = default_config()
        assert GenerationConfig.from_text(cfg.to_text()) == cfg

    def test_round_trip_is_bit_exact_for_awkward_floats(self):
        cfg = default_config().with_overrides(
            threshold=-0.12345678901234567,
            guidance_scale=1.0000000000000002,
            timestep_shift=math.pi,
        )
        back = GenerationConfig.from_text(cfg.to_text())
        assert back.threshold == cfg.threshold
        assert back.guidance_scale == cfg.guidance_scale
        assert back.timestep_shift == cfg.timestep_shift
        assert back == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = default_config().with_overrides(num_blocks=3, seed=7)
        path = tmp_path / "run.cfg"
        cfg.save(path)
        assert GenerationConfig.load(path) == cfg

    def test_missing_field_is_named(self):
        text = default_config().to_text().replace("seed = 42\n", "")
        with pytest.raises(ConfigError, match="seed"):
            GenerationConfig.from_text(text)


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

    def test_frame_score_vector_stats(self):
        v = FrameScoreVector(2, (0.5, -0.3, 0.1))
        assert v.minimum() == -0.3
        assert v.mean() == pytest.approx(0.1)

    def test_frame_score_vector_holds_plain_floats(self):
        v = FrameScoreVector(0, (1, np.float64(0.5), -2.0))
        assert v.scores == (1.0, 0.5, -2.0)
        assert [type(s) for s in v.scores] == [float, float, float]
        assert type(FrameScoreVector(0, [0.25]).scores) is tuple
        floats = (0.5, -0.3)
        assert FrameScoreVector(0, floats).scores is floats


class TestRoutingDecision:
    @pytest.mark.parametrize(
        "reason",
        [DecisionReason.ABOVE_THRESHOLD, DecisionReason.RANDOM_ACCEPT, DecisionReason.ALWAYS_ACCEPT],
    )
    def test_accept_reasons(self, reason):
        assert RoutingDecision(Verdict.ACCEPT, reason).accepted

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
        assert not RoutingDecision(Verdict.REJECT, reason).accepted

    def test_inconsistent_pairs_rejected(self):
        with pytest.raises(ValueError):
            RoutingDecision(Verdict.ACCEPT, DecisionReason.BELOW_THRESHOLD)
        with pytest.raises(ValueError):
            RoutingDecision(Verdict.REJECT, DecisionReason.ALWAYS_ACCEPT)


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
