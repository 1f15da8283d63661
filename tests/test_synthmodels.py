from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from specroute.caches import KVCache, CacheOwner, SnapshotMismatchError, decode_restore, decode_snapshot
from specroute.core import (
    BlockTrace,
    DecisionReason,
    FrameScoreVector,
    GenerationConfig,
    Producer,
    PromptSpec,
    block_digest,
    default_config,
)
from specroute.costmodel import LatencyParams, OverlapMode
from specroute.synthmodels import (
    DEFAULT_FRAME_GAP_MEAN,
    DEFAULT_LOWER_TAIL_SLOPE,
    DEFAULT_UPPER_TAIL_SLOPE,
    Calibration,
    CalibrationError,
    DraftQualityModel,
    QualityProxyModel,
    SynthDecodeState,
    SyntheticDecoder,
    SyntheticDrafter,
    SyntheticTarget,
    build_synthetic_stack,
    fit_calibration,
    fit_frame_gap,
    fit_quality_proxy,
    fit_quantile,
    load_reference_table,
)
from tables import synthetic_table

KNOTS = [
    (-0.7, 0.731),
    (-0.8, 0.749),
    (-0.9, 0.764),
    (-1.0, 0.780),
    (-1.5, 0.834),
    (-2.0, 0.875),
    (-2.5, 0.889),
]


@pytest.fixture(scope="module")
def model():
    return fit_quantile(KNOTS)


@pytest.fixture(scope="module")
def seeded_model():
    return dataclasses.replace(fit_quantile(KNOTS), rng_seed=7)


@pytest.fixture(scope="module")
def parts():
    cal, _, _ = fit_calibration(load_reference_table())
    config = default_config()
    return (
        config,
        SyntheticDrafter(cal.quantile, config),
        SyntheticTarget(config),
        SyntheticDecoder(config),
    )


class TestQuantileModel:
    def test_knots_reproduced_exactly(self, model):
        for tau, rate in KNOTS:
            assert model.accept_rate(tau) == pytest.approx(rate, abs=1e-12)

    def test_midpoint_interpolation(self, model):
        # linear midpoint of (-1.0, 0.780) and (-1.5, 0.834)
        assert model.accept_rate(-1.25) == pytest.approx(0.807, abs=1e-9)

    def test_tails_saturate(self, model):
        assert model.accept_rate(50.0) == 0.0
        assert model.accept_rate(-50.0) == 1.0

    def test_non_monotone_knots_rejected(self):
        with pytest.raises(CalibrationError):
            fit_quantile([(-0.7, 0.731), (-0.8, 0.731)])
        with pytest.raises(CalibrationError):
            fit_quantile([(-0.7, 0.75), (-0.8, 0.70)])

    def test_rates_must_be_probabilities(self):
        with pytest.raises(CalibrationError):
            fit_quantile([(-0.7, 0.5), (-0.8, 1.0)])

    def test_inverse_cdf_round_trips_through_accept_rate(self, model):
        for u in (0.05, 0.3, 0.731, 0.85, 0.99):
            tau = float(model.min_score_from_uniform(u))
            assert model.accept_rate(tau) == pytest.approx(u, abs=1e-9)


class TestSampleBlockScore:
    def test_deterministic_per_key(self, seeded_model):
        a = seeded_model.sample_block_score("p1", 3, 12)
        b = seeded_model.sample_block_score("p1", 3, 12)
        assert a == b

    def test_varies_across_prompts_and_blocks(self, seeded_model):
        vecs = {
            seeded_model.sample_block_score(pid, b, 12).scores
            for pid in ("p1", "p2")
            for b in (1, 2, 3)
        }
        assert len(vecs) == 6

    def test_exactly_one_frame_sits_at_the_minimum(self, seeded_model):
        for b in range(30):
            scores = seeded_model.sample_block_score("pin", b, 12).scores
            low = min(scores)
            assert scores.count(low) == 1
            assert all(s >= low for s in scores)

    def test_single_frame_vector_is_the_minimum_itself(self, seeded_model):
        v = seeded_model.sample_block_score("p9", 4, 1)
        assert len(v.scores) == 1

    def test_minimum_distribution_matches_knots(self, seeded_model):
        # Monte Carlo over 1e5 keyed blocks; 0.005 is ~3.5 sigma here.
        n = 100_000
        mins = np.fromiter(
            (min(seeded_model.sample_block_score(f"mc{i}", i % 9, 3).scores) for i in range(n)),
            dtype=float,
            count=n,
        )
        assert abs((mins >= -0.7).mean() - 0.731) <= 0.005
        assert abs((mins >= -2.0).mean() - 0.875) <= 0.005

    def test_mean_exceeds_min_by_calibrated_gap(self, seeded_model):
        gaps = []
        for i in range(2000):
            scores = seeded_model.sample_block_score(f"gap{i}", 1, 12)
            gaps.append(scores.mean() - min(scores.scores))
        assert np.mean(gaps) == pytest.approx(seeded_model.frame_gap_mean, abs=0.02)


class TestFrameGapFit:
    def test_recovers_gap_from_mean_frame_rows(self):
        model = fit_quantile(KNOTS)
        gap = 0.3
        rows = [(tau, model.accept_rate(tau - gap)) for tau in (-0.7, -0.9)]
        assert fit_frame_gap(model, rows) == pytest.approx(gap, abs=1e-9)

    def test_rows_outside_knot_range_are_skipped(self):
        model = fit_quantile(KNOTS)
        assert fit_frame_gap(model, [(-0.2, 0.40)]) == model.frame_gap_mean


class TestQualityProxyModel:
    def make_model(self):
        return QualityProxyModel(
            base_quality=0.0788,
            edges=(-0.7, -1.5),
            penalties=(0.001, 0.002, 0.01),
        )

    def accepted_trace(self, block_index, min_score):
        return BlockTrace(
            block_index=block_index,
            decision=DecisionReason.ABOVE_THRESHOLD,
            aggregate_score=min_score,
            frame_scores=FrameScoreVector(block_index, (min_score, min_score + 0.4)),
        )

    def rejected_trace(self, block_index):
        return BlockTrace(
            block_index=block_index,
            decision=DecisionReason.ALWAYS_REJECT,
            target_time_s=1.0,
        )

    def test_all_reject_is_anchored_exactly(self):
        model = self.make_model()
        traces = [self.rejected_trace(b) for b in range(9)]
        assert model.run_quality(traces) == 0.0788

    def test_penalty_segments(self):
        model = self.make_model()
        assert model.penalty(0.3) == 0.001
        assert model.penalty(-0.7) == 0.001
        assert model.penalty(-0.71) == 0.002
        assert model.penalty(-1.5) == 0.002
        assert model.penalty(-2.4) == 0.01

    def test_monotone_in_accept_set(self):
        model = self.make_model()
        base_traces = [self.rejected_trace(0), self.accepted_trace(1, 0.5)]
        more = base_traces + [self.accepted_trace(2, -2.0)]
        assert model.run_quality(more) < model.run_quality(base_traces)

    def test_lower_scoring_block_never_raises_quality(self):
        model = self.make_model()
        high = [self.accepted_trace(0, 0.9)]
        low = [self.accepted_trace(0, -2.0)]
        assert model.run_quality(low) <= model.run_quality(high)

    def test_accepted_block_without_scores_is_an_error(self):
        model = self.make_model()
        bad = BlockTrace(
            block_index=1,
            decision=DecisionReason.ALWAYS_ACCEPT,
        )
        with pytest.raises(ValueError):
            model.run_quality([bad])

    def test_overflowing_total_is_an_error(self):
        model = QualityProxyModel(0.0788, edges=(-0.7,), penalties=(1e308, 1e308))
        traces = [self.accepted_trace(b, 0.5) for b in range(2)]
        assert model.run_quality(traces[:1]) == 0.0788 - 1e308
        with pytest.raises(ValueError, match="overflows a float"):
            model.run_quality(traces)

    def test_validation(self):
        with pytest.raises(CalibrationError):
            QualityProxyModel(0.07, edges=(-0.7, -0.5), penalties=(0.0, 0.0, 0.0))
        with pytest.raises(CalibrationError):
            QualityProxyModel(0.07, edges=(-0.7,), penalties=(0.002, 0.001))
        with pytest.raises(CalibrationError):
            QualityProxyModel(0.07, edges=(-0.7,), penalties=(-0.001, 0.001))


class TestExpectedPenalty:
    def test_matches_monte_carlo_oracle(self):
        quantile = fit_quantile(KNOTS)
        model = QualityProxyModel(
            base_quality=0.08,
            edges=tuple(t for t, _ in KNOTS),
            penalties=(0.0002, 0.0005, 0.0005, 0.001, 0.0015, 0.0015, 0.002, 0.01),
        )
        rng = np.random.default_rng(123)
        samples = np.asarray(quantile.min_score_from_uniform(rng.random(400_000)))
        for tau in (-0.7, -1.2, -2.5, float("-inf")):
            mc = np.mean(
                [model.penalty(q) if q >= tau else 0.0 for q in samples]
            )
            analytic = model.expected_penalty_above(quantile, tau)
            assert analytic == pytest.approx(float(mc), abs=3e-5)


class TestQualityProxyFit:
    def test_fit_reproduces_reference_quality_column(self, reference_table, calibration, quality_report):
        assert quality_report.within_tolerance
        assert quality_report.max_abs_residual <= 5e-4
        # target-only anchored exactly
        assert calibration.proxy.base_quality == 0.0788

    def test_needs_three_threshold_rows(self, calibration):
        from specroute.synthmodels import TableRow

        rows = [
            TableRow(method="target_only", vr=0.0788, time_s=97.0),
            TableRow(method="draft_only", vr=0.0644, time_s=25.7),
            TableRow(method="threshold", tau=-0.7, vr=0.0773, time_s=60.9, accept_rate=0.731),
        ]
        with pytest.raises(CalibrationError):
            fit_quality_proxy(rows, calibration.quantile)

    def test_penalties_are_monotone_steps(self, calibration):
        pens = calibration.proxy.penalties
        assert all(p1 <= p2 for p1, p2 in zip(pens, pens[1:]))
        assert all(p >= 0 for p in pens)


# Fixed numbers with no fit behind them, so the pin does not depend on scipy's solvers.
PINNED_CALIBRATION = Calibration(
    DraftQualityModel(quantile_knots=((-0.5, 0.25), (-1.0, 0.75)), upper_tail_slope=0.2,
                      lower_tail_slope=0.125, frame_gap_mean=0.5),
    LatencyParams(c_draft=1.5, c_target=6.0, c_decode=0.5, c_score=0.25,
                  overlap_mode=OverlapMode.FULLY_SEQUENTIAL),
    QualityProxyModel(base_quality=0.08, edges=(-0.75,), penalties=(0.001, 0.002)),
)
PINNED_CALIBRATION_TEXT = """\
{
  "draft_quality": {
    "frame_gap_mean": 0.5,
    "lower_tail_slope": 0.125,
    "quantile_knots": [
      [
        -0.5,
        0.25
      ],
      [
        -1.0,
        0.75
      ]
    ],
    "upper_tail_slope": 0.2
  },
  "latency": {
    "c_decode": 0.5,
    "c_draft": 1.5,
    "c_score": 0.25,
    "c_target": 6.0,
    "overlap_mode": "fully_sequential"
  },
  "quality_proxy": {
    "base_quality": 0.08,
    "edges": [
      -0.75
    ],
    "penalties": [
      0.001,
      0.002
    ]
  },
  "schema_version": 1
}
"""


class TestCalibrationBundle:
    def test_save_load_round_trip(self, calibration, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(calibration.to_json())
        loaded = Calibration.load(path)
        assert loaded.quantile == calibration.quantile
        assert loaded.latency == calibration.latency
        assert loaded.proxy == calibration.proxy

    def test_file_text_is_pinned(self):
        assert PINNED_CALIBRATION.to_json() == PINNED_CALIBRATION_TEXT
        assert Calibration.from_json(PINNED_CALIBRATION_TEXT) == PINNED_CALIBRATION

    def test_optional_keys_read_as_their_defaults(self):
        doc = json.loads(PINNED_CALIBRATION_TEXT)
        for section, key in [("draft_quality", "upper_tail_slope"),
                             ("draft_quality", "lower_tail_slope"),
                             ("draft_quality", "frame_gap_mean"),
                             ("latency", "c_score"), ("latency", "overlap_mode")]:
            del doc[section][key]
        loaded = Calibration.from_json(json.dumps(doc))
        assert loaded.quantile == DraftQualityModel(
            quantile_knots=((-0.5, 0.25), (-1.0, 0.75)),
            upper_tail_slope=DEFAULT_UPPER_TAIL_SLOPE,
            lower_tail_slope=DEFAULT_LOWER_TAIL_SLOPE,
            frame_gap_mean=DEFAULT_FRAME_GAP_MEAN,
        )
        assert loaded.latency == LatencyParams(
            c_draft=1.5, c_target=6.0, c_decode=0.5,
            c_score=0.0, overlap_mode=OverlapMode.SCORING_OVERLAPPED,
        )
        assert loaded.proxy == PINNED_CALIBRATION.proxy

    def test_with_seed_changes_streams_not_curves(self, calibration):
        other = calibration.with_seed(7)
        assert other.quantile.quantile_knots == calibration.quantile.quantile_knots
        assert other.latency == calibration.latency
        a = calibration.quantile.sample_block_score("p", 1, 3)
        b = other.quantile.sample_block_score("p", 1, 3)
        assert a != b

    def test_file_has_no_rng_seed_and_ignores_one(self, calibration):
        doc = json.loads(calibration.to_json())
        assert "rng_seed" not in doc["draft_quality"]
        doc["draft_quality"]["rng_seed"] = 12345
        assert Calibration.from_json(json.dumps(doc)) == calibration

    def test_refit_of_synthetic_table_is_a_fixed_point(self, calibration):
        table = synthetic_table(calibration)
        refit, latency_report, quality_report = fit_calibration(table)
        assert refit.quantile.quantile_knots == calibration.quantile.quantile_knots
        assert refit.quantile.frame_gap_mean == pytest.approx(
            calibration.quantile.frame_gap_mean, abs=1e-9
        )
        assert refit.latency.c_target == pytest.approx(calibration.latency.c_target, abs=1e-6)
        assert refit.latency.c_draft + refit.latency.c_decode == pytest.approx(
            calibration.latency.c_draft + calibration.latency.c_decode, abs=1e-6
        )
        assert np.allclose(refit.proxy.penalties, calibration.proxy.penalties, atol=1e-7)
        assert latency_report.max_abs_rel_error < 1e-6
        assert quality_report.max_abs_residual < 1e-7

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        with pytest.raises(CalibrationError):
            Calibration.load(path)
        path.write_text("{}")
        with pytest.raises(CalibrationError):
            Calibration.load(path)


class TestStackSeed:
    def test_config_seed_keys_the_drafters_scores(self, calibration):
        config = GenerationConfig(seed=42)
        reseeded = build_synthetic_stack(calibration.with_seed(7), config).drafter.quality
        plain = build_synthetic_stack(calibration, config).drafter.quality
        assert reseeded.sample_block_score("p", 1, 12) == plain.sample_block_score("p", 1, 12)
        seven = build_synthetic_stack(calibration, GenerationConfig(seed=7)).drafter.quality
        expected = calibration.with_seed(7).quantile.sample_block_score("p", 1, 12)
        assert seven.sample_block_score("p", 1, 12) == expected != plain.sample_block_score("p", 1, 12)


class TestReferenceTable:
    def test_bundled_table_shape(self, reference_table):
        methods = [r.method for r in reference_table.main]
        assert methods[0] == "target_only"
        assert methods[-1] == "draft_only"
        assert methods.count("threshold") == 7
        assert len(reference_table.ablation) == 5


class TestSyntheticComponents:
    def test_drafter_is_pure(self, parts):
        config, drafter, _, _ = parts
        kv = KVCache(CacheOwner.DRAFTER)
        prompt = PromptSpec("p0")
        a = drafter.generate(123, kv, 0, prompt)
        b = drafter.generate(123, kv, 0, prompt)
        assert block_digest(a) == block_digest(b)
        assert a.producer is Producer.DRAFT

    def test_drafter_depends_on_kv_contents(self, parts):
        config, drafter, _, _ = parts
        prompt = PromptSpec("p0")
        empty = KVCache(CacheOwner.DRAFTER)
        fresh = drafter.generate(5, empty, 0, prompt)
        grown = KVCache(CacheOwner.DRAFTER)
        grown.commit(fresh)
        follow_a = drafter.generate(6, grown, 1, prompt)
        other = KVCache(CacheOwner.DRAFTER)
        other.commit(drafter.generate(7, empty, 0, PromptSpec("p1")))
        follow_b = drafter.generate(6, other, 1, prompt)
        assert block_digest(follow_a) != block_digest(follow_b)

    def test_draft_scores_flow_through_decoder(self, parts):
        config, drafter, _, decoder = parts
        kv = KVCache(CacheOwner.DRAFTER)
        prompt = PromptSpec("flow")
        block = drafter.generate(9, kv, 1, prompt)
        frames = decoder.decode(block, decoder.fresh_state())
        expected = drafter.quality.sample_block_score("flow", 1, 12)
        got = tuple(float(f[0, 0]) for f in frames.frames)
        assert got == expected.scores

    def test_target_blocks_score_high(self, parts):
        config, _, target, decoder = parts
        block = target.generate(11, KVCache(CacheOwner.TARGET), 2, PromptSpec("p"))
        frames = decoder.decode(block, decoder.fresh_state())
        assert all(float(f[0, 0]) == 3.0 for f in frames.frames)
        assert block.producer is Producer.TARGET

    def test_decoder_frame_count_follows_config(self, parts):
        config, drafter, _, decoder = parts
        state = decoder.fresh_state()
        b0 = drafter.generate(1, KVCache(CacheOwner.DRAFTER), 0, PromptSpec("p"))
        assert len(decoder.decode(b0, state).frames) == 9

    def test_decoder_output_depends_on_temporal_state(self, parts):
        config, drafter, _, decoder = parts
        prompt = PromptSpec("temporal")
        kv = KVCache(CacheOwner.DRAFTER)
        b0 = drafter.generate(1, kv, 0, prompt)
        kv.commit(b0)
        b1 = drafter.generate(2, kv, 1, prompt)

        state = decoder.fresh_state()
        decoder.decode(b0, state)
        with_history = decoder.decode(b1, state)

        fresh = decoder.fresh_state()
        without_history = decoder.decode(b1, fresh)
        assert not np.array_equal(with_history.frames[3], without_history.frames[3])

    def test_snapshot_restore_between_decodes(self, parts):
        config, drafter, _, decoder = parts
        state = decoder.fresh_state()
        block = drafter.generate(3, KVCache(CacheOwner.DRAFTER), 0, PromptSpec("p"))
        snap = decode_snapshot(state)
        decoder.decode(block, state)
        decode_restore(state, snap)
        assert state.digest() == snap.captured_digest

    def test_mismatched_decoder_state_rejected(self, parts):
        config, _, _, decoder = parts
        small = SynthDecodeState(np.zeros(4), 0, (4, 12, 8, 8))
        snap = decode_snapshot(small)
        with pytest.raises(SnapshotMismatchError):
            decode_restore(decoder.fresh_state(), snap)
