from __future__ import annotations

import pytest

from specroute.core import BlockTrace, DecisionReason
from specroute.costmodel import (
    LatencyFitError,
    LatencyParams,
    OverlapMode,
    expected_rejected_blocks,
    fit_latencies,
    simulate_time,
    speedup,
)

# Measured per-video seconds for the nine reference rows.
TARGET_ONLY_TIME = 97.0
DRAFT_ONLY_TIME = 25.7
THRESHOLD_ROWS = [
    (0.731, 60.9),
    (0.749, 58.6),
    (0.764, 58.3),
    (0.780, 57.2),
    (0.834, 51.6),
    (0.875, 47.4),
    (0.889, 46.4),
]
ALL_ROWS = (
    [("target_only", TARGET_ONLY_TIME), ("draft_only", DRAFT_ONLY_TIME)]
    + [(a, t) for a, t in THRESHOLD_ROWS]
)


def make_trace(num_blocks, rejected, params, scored=True):
    traces = []
    for b in range(num_blocks):
        is_rejected = b in rejected
        decision = DecisionReason.ALWAYS_REJECT if is_rejected else DecisionReason.ALWAYS_ACCEPT
        traces.append(
            BlockTrace(
                block_index=b,
                decision=decision,
                draft_time_s=params.c_draft,
                decode_time_s=params.c_decode,
                score_time_s=params.c_score if scored else 0.0,
                target_time_s=params.c_target if is_rejected else 0.0,
            )
        )
    return traces


def target_only_trace(num_blocks, params):
    return [
        BlockTrace(
            block_index=b,
            decision=DecisionReason.ALWAYS_REJECT,
            target_time_s=params.c_target,
        )
        for b in range(num_blocks)
    ]


class TestClosedFormOracle:
    """Hand arithmetic on the two baselines, before any fitting.

    c_target ~ 97.0/9 per block and the drafted path ~ 25.7/9 per block;
    a run at accept rate a then costs 25.7 + (1 + 8(1-a)) * c_target.
    """

    c_target = TARGET_ONLY_TIME / 9
    draft_path = DRAFT_ONLY_TIME / 9

    def predict(self, accept_rate):
        rejected = 1 + 8 * (1 - accept_rate)
        return DRAFT_ONLY_TIME + rejected * self.c_target

    def test_per_block_costs(self):
        assert self.c_target == pytest.approx(10.7778, abs=1e-3)
        assert self.draft_path == pytest.approx(2.8556, abs=1e-3)

    def test_predicts_conservative_row_within_3pct(self):
        predicted = self.predict(0.731)
        assert predicted == pytest.approx(59.67, abs=0.05)
        assert abs(predicted - 60.9) / 60.9 < 0.03

    def test_predicts_aggressive_row_within_3pct(self):
        predicted = self.predict(0.889)
        assert predicted == pytest.approx(46.05, abs=0.05)
        assert abs(predicted - 46.4) / 46.4 < 0.03


class TestFitLatencies:
    def test_all_rows_within_5pct(self):
        _, report = fit_latencies(ALL_ROWS)
        assert report.max_abs_rel_error < 0.05

    def test_params_close_to_closed_form(self):
        params, _ = fit_latencies(ALL_ROWS)
        assert params.c_target == pytest.approx(97.0 / 9, rel=0.05)
        assert params.c_draft + params.c_decode == pytest.approx(25.7 / 9, rel=0.05)
        assert params.overlap_mode is OverlapMode.SCORING_OVERLAPPED

    def test_missing_baseline_is_named(self):
        rows = [r for r in ALL_ROWS if r[0] != "draft_only"]
        with pytest.raises(LatencyFitError, match="draft_only"):
            fit_latencies(rows)

    def test_too_few_rows(self):
        with pytest.raises(LatencyFitError):
            fit_latencies(ALL_ROWS[:3])

    def test_bad_accept_rate(self):
        with pytest.raises(LatencyFitError):
            fit_latencies(ALL_ROWS + [(1.7, 30.0)])

    def test_non_positive_time(self):
        with pytest.raises(LatencyFitError):
            fit_latencies(ALL_ROWS + [(0.5, 0.0)])

    def test_decode_fraction_splits_draft_path(self):
        params, _ = fit_latencies(ALL_ROWS)
        draft_path = params.c_draft + params.c_decode
        assert params.c_decode == pytest.approx(0.25 * draft_path)
        assert params.c_draft == pytest.approx(0.75 * draft_path)


@pytest.fixture(scope="module")
def params():
    return fit_latencies(ALL_ROWS)[0]


class TestSimulateTime:
    def test_all_reject_near_target_only(self, params):
        total = simulate_time(target_only_trace(9, params), params)
        assert abs(total - TARGET_ONLY_TIME) / TARGET_ONLY_TIME < 0.05

    def test_all_accept_near_draft_only(self, params):
        total = simulate_time(make_trace(9, rejected=set(), params=params), params)
        assert abs(total - DRAFT_ONLY_TIME) / DRAFT_ONLY_TIME < 0.05

    def test_conservative_row_reproduced(self, params):
        # 3.152 expected rejections at the tightest threshold; integer
        # rejection counts bracket it, so interpolate the two simulations.
        t3 = simulate_time(make_trace(9, {0, 1, 2}, params), params)
        t4 = simulate_time(make_trace(9, {0, 1, 2, 3}, params), params)
        total = t3 + 0.152 * (t4 - t3)
        assert abs(total - 60.9) / 60.9 < 0.05

    def test_incomplete_trace_rejected(self, params):
        traces = target_only_trace(9, params)
        with pytest.raises(ValueError, match=r"^incomplete trace: block 4 at position 3$"):
            simulate_time(traces[:3] + traces[4:], params)
        with pytest.raises(ValueError):
            simulate_time([], params)

    def test_overflowing_total_rejected(self):
        huge = LatencyParams(c_draft=0.0, c_target=1e308, c_decode=0.0)
        with pytest.raises(ValueError, match="overflows"):
            simulate_time(target_only_trace(2, huge), huge)

    def test_monotone_in_rejections(self, params):
        totals = [
            simulate_time(make_trace(9, set(range(k)), params), params) for k in range(10)
        ]
        assert totals == sorted(totals)

    def test_fully_sequential_counts_scoring(self, params):
        kwargs = dict(
            c_draft=params.c_draft,
            c_target=params.c_target,
            c_decode=params.c_decode,
            c_score=1.0,
        )
        sequential = LatencyParams(overlap_mode=OverlapMode.FULLY_SEQUENTIAL, **kwargs)
        overlapped = LatencyParams(overlap_mode=OverlapMode.SCORING_OVERLAPPED, **kwargs)
        trace = make_trace(9, set(), sequential)
        assert simulate_time(trace, sequential) == pytest.approx(
            simulate_time(trace, overlapped) + 9.0
        )


class TestSpeedup:
    def test_reference_conservative(self):
        assert speedup(60.9, 97.0) == pytest.approx(1.593, abs=5e-4)

    def test_identity(self):
        assert speedup(97.0, 97.0) == 1.0

    def test_reference_draft_only(self):
        assert speedup(25.7, 97.0) == pytest.approx(3.774, abs=5e-4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            speedup(0.0, 97.0)
        with pytest.raises(ValueError):
            speedup(60.0, -1.0)

    def test_rejects_overflowing_ratio(self):
        with pytest.raises(ValueError, match="overflows"):
            speedup(1e-10, 1e300)


def test_expected_rejected_blocks():
    assert expected_rejected_blocks(0.731, 9) == pytest.approx(3.152)
    assert expected_rejected_blocks(1.0, 9) == 1.0
    assert expected_rejected_blocks(0.0, 9) == 9.0
