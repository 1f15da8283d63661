from __future__ import annotations

import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specroute.core import PromptSpec, Verdict
from specroute.costmodel import LatencyParams, OverlapMode, simulate_time
from specroute.engine import run_video_detailed
from specroute.router import AggregationMode, ThresholdPolicy
from specroute.synthmodels import build_synthetic_stack
from specroute.traceio import (
    ExternalTraceRecord,
    TraceFormatError,
    parse_trace_text,
    records_from_traces,
    replay,
    serialize_record,
    serialize_records,
)


def make_records(prompt_id="p0", num_blocks=9, scores=None, with_times=True):
    records = []
    for b in range(num_blocks):
        block_scores = scores[b] if scores is not None else (0.5 - 0.2 * b, 0.9)
        records.append(
            ExternalTraceRecord(
                prompt_id=prompt_id,
                block_index=b,
                frame_scores=tuple(block_scores),
                draft_time_s=2.2 if with_times else None,
                decode_time_s=0.7 if with_times else None,
                score_time_s=0.4 if with_times else None,
                target_time_s=10.8 if with_times else None,
            )
        )
    return records


class TestRecordValidation:
    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            ExternalTraceRecord(prompt_id="p", block_index=0, frame_scores=())

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError):
            ExternalTraceRecord(prompt_id="p", block_index=0, frame_scores=(float("nan"),))

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError):
            ExternalTraceRecord(prompt_id="p", block_index=-1, frame_scores=(0.1,))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ExternalTraceRecord(
                prompt_id="p", block_index=0, frame_scores=(0.1,), draft_time_s=-1.0
            )


class TestParse:
    def test_well_formed_nine_block_trace(self):
        text = serialize_records(make_records())
        records = parse_trace_text(text)
        assert len(records) == 9
        assert [r.block_index for r in records] == list(range(9))

    def test_blank_lines_are_skipped(self):
        text = "\n" + serialize_records(make_records(num_blocks=2)) + "\n\n"
        assert len(parse_trace_text(text)) == 2

    def test_invalid_json_names_line(self):
        text = serialize_records(make_records(num_blocks=2)) + "{broken\n"
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace_text(text)

    def test_empty_frame_scores_names_line(self):
        good = serialize_record(make_records(num_blocks=1)[0])
        bad = json.dumps({"prompt_id": "p0", "block_index": 1, "frame_scores": []})
        with pytest.raises(TraceFormatError, match="line 2"):
            parse_trace_text(good + "\n" + bad + "\n")

    def test_missing_required_field_named(self):
        bad = json.dumps({"prompt_id": "p0", "frame_scores": [0.1]})
        with pytest.raises(TraceFormatError, match="block_index"):
            parse_trace_text(bad + "\n")

    def test_unknown_field_rejected(self):
        bad = json.dumps(
            {"prompt_id": "p0", "block_index": 0, "frame_scores": [0.1], "gpu": 1}
        )
        with pytest.raises(TraceFormatError, match="gpu"):
            parse_trace_text(bad + "\n")

    def test_boolean_block_index_rejected(self):
        bad = json.dumps({"prompt_id": "p0", "block_index": True, "frame_scores": [0.1]})
        with pytest.raises(TraceFormatError, match="integer"):
            parse_trace_text(bad + "\n")

    def test_bad_producer_rejected(self):
        bad = json.dumps(
            {
                "prompt_id": "p0",
                "block_index": 0,
                "frame_scores": [0.1],
                "producer_observed": "vae",
            }
        )
        with pytest.raises(TraceFormatError, match="producer_observed"):
            parse_trace_text(bad + "\n")

    @pytest.mark.parametrize(
        "extra",
        [{"frame_scores": [0.5, 10**400]}, {"draft_time_s": 10**400}, {"score_time_s": 10**400}],
        ids=["score", "draft_time", "score_time"],
    )
    def test_integer_too_large_for_a_float_names_line(self, extra):
        good = serialize_record(make_records(num_blocks=1)[0])
        bad = json.dumps({"prompt_id": "p0", "block_index": 1, "frame_scores": [0.1], **extra})
        with pytest.raises(TraceFormatError, match="line 2: .*fit in a float"):
            parse_trace_text(good + "\n" + bad + "\n")

    def test_integer_literal_over_digit_limit_names_line(self):
        bad = '{"prompt_id":"p0","block_index":0,"frame_scores":[1' + "0" * 5000 + "]}"
        with pytest.raises(TraceFormatError, match="line 1: invalid JSON") as exc:
            parse_trace_text(bad + "\n")
        assert len(str(exc.value)) < 200

    def test_deep_nesting_names_line(self):
        with pytest.raises(TraceFormatError, match="line 1: invalid JSON"):
            parse_trace_text("[" * 100_000 + "\n")


record_strategy = st.builds(
    ExternalTraceRecord,
    prompt_id=st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
    ),
    block_index=st.integers(min_value=0, max_value=20),
    frame_scores=st.lists(
        st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=12
    ).map(tuple),
    draft_time_s=st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
    target_time_s=st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
    decode_time_s=st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
    score_time_s=st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(records=st.lists(record_strategy, min_size=1, max_size=12))
    def test_serialize_parse_round_trip(self, records):
        text = serialize_records(records)
        parsed = parse_trace_text(text)
        assert parsed == records
        assert serialize_records(parsed) == text

    def test_serialization_canonicalizes_formatting(self):
        loose = (
            '{ "frame_scores": [0.5, 0.25],  "block_index": 0, "prompt_id": "p0" }\n'
        )
        parsed = parse_trace_text(loose)
        canonical = serialize_records(parsed)
        assert canonical == (
            '{"block_index":0,"frame_scores":[0.5,0.25],"prompt_id":"p0"}\n'
        )
        # normalize(x) is a fixed point
        assert serialize_records(parse_trace_text(canonical)) == canonical


class TestReplay:
    def test_negative_infinity_accepts_everything_except_forced_block0(self):
        runs = replay(make_records(), tau=float("-inf"))
        summary = runs[0].summary
        assert summary.block_traces[0].decision.verdict is Verdict.REJECT
        assert all(t.decision.accepted for t in summary.block_traces[1:])
        assert summary.accept_rate_excl_block0 == 1.0

    def test_positive_infinity_rejects_everything(self, calibration):
        # A trace recording zero draft-path timings stands in for a pure
        # target-only deployment: its all-reject replay time is exactly the
        # target-only prediction.
        records = [
            ExternalTraceRecord(
                prompt_id="p0",
                block_index=b,
                frame_scores=(0.4, 0.6),
                draft_time_s=0.0,
                decode_time_s=0.0,
                score_time_s=0.0,
            )
            for b in range(9)
        ]
        runs = replay(records, tau=float("inf"), latency=calibration.latency)
        summary = runs[0].summary
        assert all(not t.decision.accepted for t in summary.block_traces)
        assert summary.total_time_s == pytest.approx(9 * calibration.latency.c_target)

    def test_missing_blocks_listed(self):
        records = [r for r in make_records() if r.block_index != 4]
        with pytest.raises(TraceFormatError, match=r"missing blocks \[4\]"):
            replay(records, tau=-0.7)

    def test_duplicate_blocks_listed(self):
        records = make_records(num_blocks=3)
        records.append(records[1])
        with pytest.raises(TraceFormatError, match="duplicate"):
            replay(records, tau=-0.7)

    def test_far_block_index_is_reported_at_once(self):
        records = make_records(num_blocks=1) + [
            ExternalTraceRecord(prompt_id="p0", block_index=10**9, frame_scores=(0.1,))
        ]
        start = time.perf_counter()
        message = r"missing blocks \[1, 2, .*, 10\] and 999999989 more"
        with pytest.raises(TraceFormatError, match=message) as exc:
            replay(records, tau=-0.7)
        assert time.perf_counter() - start < 1.0
        assert len(str(exc.value)) < 1024

    def test_listed_duplicates_are_capped(self):
        records = [r for r in make_records(num_blocks=30) for _ in range(2)]
        with pytest.raises(TraceFormatError, match=r"duplicate blocks \[0, .*, 9\] and 20 more$"):
            replay(records, tau=-0.7)

    def test_recorded_timings_used_verbatim(self):
        runs = replay(make_records(), tau=float("-inf"))
        assert runs[0].timing_provenance == ("recorded",) * 9
        # 9 drafted blocks, block 0 rejected: 9*(2.2+0.7) + 10.8
        assert runs[0].summary.total_time_s == pytest.approx(9 * 2.9 + 10.8)

    def test_modeled_fallback_flagged(self, calibration):
        records = make_records(with_times=False)
        runs = replay(records, tau=float("-inf"), latency=calibration.latency)
        assert runs[0].timing_provenance == ("modeled",) * 9

    def test_mixed_provenance_flagged(self, calibration):
        records = make_records(with_times=False)
        records[2] = ExternalTraceRecord(
            prompt_id="p0", block_index=2, frame_scores=(0.5, 0.9), draft_time_s=2.0
        )
        runs = replay(records, tau=float("-inf"), latency=calibration.latency)
        assert runs[0].timing_provenance[2] == "mixed"

    def test_counterfactual_reject_of_accepted_block_uses_model(self, calibration):
        # Recorded target_time_s of 0 means the factual run accepted the
        # block; a counterfactual rejection must fall back to c_target.
        records = [
            ExternalTraceRecord(
                prompt_id="p0",
                block_index=0,
                frame_scores=(0.9,),
                draft_time_s=2.2,
                decode_time_s=0.7,
                score_time_s=0.4,
                target_time_s=0.0,
            )
        ]
        runs = replay(records, tau=float("inf"), latency=calibration.latency)
        trace = runs[0].summary.block_traces[0]
        assert trace.target_time_s == calibration.latency.c_target
        assert runs[0].timing_provenance[0] == "mixed"

    def test_missing_timing_without_latency_errors(self):
        records = make_records(with_times=False)
        with pytest.raises(TraceFormatError, match="no recorded"):
            replay(records, tau=-0.7)

    def test_multi_prompt_replay(self):
        records = make_records("a", 3) + make_records("b", 3)
        runs = replay(records, tau=float("-inf"))
        assert sorted(r.summary.prompt_id for r in runs) == ["a", "b"]

    def test_replay_is_pure(self):
        records = make_records()
        quality = lambda traces: 0.0  # noqa: E731 - NaN default defeats equality
        a = replay(records, tau=-0.3, quality_fn=quality)
        b = replay(records, tau=-0.3, quality_fn=quality)
        assert a == b


timing = st.none() | st.just(0.0) | st.floats(min_value=0, max_value=50, allow_nan=False)


@st.composite
def prompt_groups(draw):
    """Records of 1-3 prompts with 1-6 blocks each, timings present, absent or zero."""
    records = []
    for p in range(draw(st.integers(min_value=1, max_value=3))):
        for b in range(draw(st.integers(min_value=1, max_value=6))):
            scores = draw(
                st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=4)
            )
            records.append(
                ExternalTraceRecord(
                    prompt_id=f"p{p}",
                    block_index=b,
                    frame_scores=tuple(scores),
                    draft_time_s=draw(timing),
                    target_time_s=draw(timing),
                    decode_time_s=draw(timing),
                    score_time_s=draw(timing),
                )
            )
    return draw(st.permutations(records))


class TestReplayAccounting:
    """Replay against the engine's accounting and the field-by-field timing rules."""

    @settings(max_examples=150, deadline=None)
    @given(
        records=prompt_groups(),
        tau=st.floats(min_value=-3.5, max_value=3.5),
        aggregation=st.sampled_from(AggregationMode),
        force=st.booleans(),
        overlap=st.sampled_from(OverlapMode),
    )
    def test_replay_matches_engine_accounting(self, records, tau, aggregation, force, overlap):
        latency = LatencyParams(
            c_draft=2.2, c_target=10.8, c_decode=0.7, c_score=0.4, overlap_mode=overlap
        )
        runs = replay(
            records, tau=tau, aggregation=aggregation, force_reject_block0=force, latency=latency
        )
        policy = ThresholdPolicy(tau=tau, force_reject_block0=force)
        first_seen = list(dict.fromkeys(r.prompt_id for r in records))
        assert [r.summary.prompt_id for r in runs] == first_seen
        for run in runs:
            summary = run.summary
            traces = summary.block_traces
            assert summary.total_time_s == simulate_time(traces, latency)
            accepted = sum(1 for t in traces[1:] if t.decision.accepted)
            rate = accepted / (len(traces) - 1) if len(traces) > 1 else 0.0
            assert summary.accept_rate_excl_block0 == rate

            group = sorted(
                (r for r in records if r.prompt_id == summary.prompt_id),
                key=lambda r: r.block_index,
            )
            assert len(traces) == len(group) == len(run.timing_provenance)
            for trace, record, source in zip(traces, group, run.timing_provenance):
                scores = record.frame_scores
                if aggregation is AggregationMode.MIN_FRAME:
                    q = min(scores)
                else:
                    q = sum(scores) / len(scores)
                assert trace.aggregate_score == q
                assert trace.decision == policy.decide(record.block_index, q)
                recorded = [
                    record.draft_time_s is not None,
                    record.decode_time_s is not None,
                    record.score_time_s is not None,
                ]
                if trace.decision.accepted:
                    assert trace.target_time_s == 0.0
                else:
                    # A zero target time records an accepted block: rejecting it
                    # counterfactually needs the modeled regeneration cost.
                    recorded.append(bool(record.target_time_s))
                    expected_target = record.target_time_s or latency.c_target
                    assert trace.target_time_s == expected_target
                for value, recorded_value, modeled in (
                    (trace.draft_time_s, record.draft_time_s, latency.c_draft),
                    (trace.decode_time_s, record.decode_time_s, latency.c_decode),
                    (trace.score_time_s, record.score_time_s, latency.c_score),
                ):
                    assert value == (modeled if recorded_value is None else recorded_value)
                if all(recorded):
                    assert source == "recorded"
                elif any(recorded):
                    assert source == "mixed"
                else:
                    assert source == "modeled"


class TestEngineSelfConsistency:
    def test_exported_trace_replays_to_the_same_decisions(self, calibration):
        from specroute.core import default_config

        config = default_config().with_overrides(score_forced_rejections=True)
        stack = build_synthetic_stack(calibration, config)
        tau = config.threshold
        for pid in ("r0", "r1", "r2"):
            res = run_video_detailed(
                config,
                PromptSpec(pid),
                stack.drafter,
                stack.target,
                stack.decoder,
                stack.scorer,
                ThresholdPolicy(tau=tau),
                latency=calibration.latency,
            )
            records = records_from_traces(pid, res.summary.block_traces)
            text = serialize_records(records)
            runs = replay(
                parse_trace_text(text),
                tau=tau,
                aggregation=AggregationMode.MIN_FRAME,
                latency=calibration.latency,
            )
            replayed = runs[0].summary
            live = [
                (t.decision.verdict, t.decision.reason) for t in res.summary.block_traces
            ]
            again = [(t.decision.verdict, t.decision.reason) for t in replayed.block_traces]
            assert again == live
            assert replayed.accept_rate_excl_block0 == res.summary.accept_rate_excl_block0
            assert replayed.total_time_s == pytest.approx(res.summary.total_time_s)

    def test_export_requires_scored_blocks(self, calibration, config, stack):
        res = run_video_detailed(
            config,
            PromptSpec("unscored"),
            stack.drafter,
            stack.target,
            stack.decoder,
            stack.scorer,
            ThresholdPolicy(),
            latency=calibration.latency,
        )
        with pytest.raises(ValueError, match="score_forced_rejections"):
            records_from_traces("unscored", res.summary.block_traces)
