from __future__ import annotations

import copy
import gc
import json
import math
import pickle
import re
import reprlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specroute.core import (
    BlockTrace,
    DecisionReason,
    FrameScoreVector,
    Producer,
    PromptSpec,
    RunSummary,
    summary_to_dict,
)
from specroute.costmodel import LatencyParams, OverlapMode, simulate_time
from specroute.engine import run_video_detailed
from specroute.router import AggregationMode, ThresholdPolicy
from specroute.synthmodels import build_synthetic_stack
from specroute.traceio import (
    ExternalTraceRecord,
    ReplayedRun,
    TraceFormatError,
    parse_trace,
    parse_trace_file,
    parse_trace_text,
    records_from_traces,
    replay,
    serialize_record,
    serialize_records,
    write_replay_report,
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

    @pytest.mark.parametrize("prompt_id", ["", 7, None, b"p"], ids=["empty", "int", "none", "bytes"])
    def test_prompt_id_must_be_a_non_empty_string(self, prompt_id):
        with pytest.raises(ValueError, match="^prompt_id must be a non-empty string$"):
            ExternalTraceRecord(prompt_id=prompt_id, block_index=0, frame_scores=(0.1,))

    @pytest.mark.parametrize("block_index", [True, False, 1.5, 2.0, "3", None],
                             ids=["true", "false", "fraction", "whole_float", "str", "none"])
    def test_block_index_must_be_an_integer(self, block_index):
        with pytest.raises(ValueError, match="^block_index must be an integer$"):
            ExternalTraceRecord(prompt_id="p", block_index=block_index, frame_scores=(0.1,))

    def test_producer_given_by_value_is_converted(self):
        record = ExternalTraceRecord(
            prompt_id="p", block_index=0, frame_scores=(0.1,), producer_observed="draft"
        )
        assert record.producer_observed is Producer.DRAFT
        assert serialize_record(record) == (
            '{"block_index":0,"frame_scores":[0.1],"producer_observed":"draft","prompt_id":"p"}'
        )

    @pytest.mark.parametrize("producer", ["vae", "DRAFT", 1, ["draft"]],
                             ids=["unknown", "name", "int", "list"])
    def test_unknown_producer_rejected(self, producer):
        message = f"^producer_observed must be 'draft' or 'target', got {re.escape(repr(producer))}$"
        with pytest.raises(ValueError, match=message):
            ExternalTraceRecord(
                prompt_id="p", block_index=0, frame_scores=(0.1,), producer_observed=producer
            )


class TestRecordRebuilds:
    """Every way to build a record from another runs the checker."""

    RECORD = ExternalTraceRecord(
        "p", 3, (0.5, -1.0), draft_time_s=2.0, target_time_s=None, producer_observed="target"
    )

    def test_make_checks_and_converts(self):
        record = ExternalTraceRecord._make(["p", 3, [1, 0.5], 2])
        assert record == ExternalTraceRecord("p", 3, (1.0, 0.5), 2.0)
        assert [type(s) for s in record.frame_scores] == [float, float]
        assert type(record.draft_time_s) is float
        with pytest.raises(ValueError, match="^frame_scores must be finite$"):
            ExternalTraceRecord._make(["p", 3, [math.nan]])

    def test_replace_runs_the_parsers_check(self):
        assert self.RECORD._replace(block_index=4).block_index == 4
        assert type(self.RECORD._replace(score_time_s=1).score_time_s) is float
        with pytest.raises(ValueError, match="^block_index must be >= 0, got -1$"):
            self.RECORD._replace(block_index=-1)
        with pytest.raises(ValueError, match="^producer_observed must be 'draft' or 'target'"):
            self.RECORD._replace(producer_observed="vae")

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        again = pickle.loads(pickle.dumps(self.RECORD, protocol=protocol))
        assert type(again) is ExternalTraceRecord
        assert again == self.RECORD
        assert again.producer_observed is Producer.TARGET

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_a_bad_record_is_refused(self, protocol):
        # A stored block index of -7 written by a tuple with the record's type.
        bad = tuple.__new__(ExternalTraceRecord, ("p", -7, (0.5,), None, None, None, None, None))
        data = pickle.dumps(bad, protocol=protocol)
        with pytest.raises(ValueError, match="^block_index must be >= 0, got -7$"):
            pickle.loads(data)

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy])
    def test_copies_run_the_check(self, duplicate, monkeypatch):
        import specroute.traceio as traceio

        calls = []
        check = traceio._check_record
        monkeypatch.setattr(traceio, "_check_record", lambda *a: calls.append(a) or check(*a))
        assert duplicate(self.RECORD) == self.RECORD
        assert len(calls) == 1


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

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_text_splits_into_the_lines_a_file_read_gives(self, tmp_path, newline):
        # str.splitlines would also split at the raw U+2028, U+0085 and U+2029.
        lines = [
            json.dumps({"prompt_id": "p\u2028\x85\u2029", "block_index": b, "frame_scores": [0.5]},
                       ensure_ascii=False)
            for b in range(3)
        ]
        text = newline.join(lines) + newline
        path = tmp_path / "trace.jsonl"
        path.write_bytes(text.encode())
        records = parse_trace_file(path)
        assert [r.block_index for r in records] == [0, 1, 2]
        assert parse_trace_text(text) == records

    @pytest.mark.parametrize(
        "line, reason",
        [
            ('\ufeff{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}',
             "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
            ('{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}x', "Extra data"),
            ('{"prompt_id":"p0","block_index":0', "Expecting ',' delimiter"),
            ("]", "Expecting value"),
        ],
        ids=["bom", "trailing_data", "truncated", "bare_bracket"],
    )
    def test_invalid_json_message_is_the_decoders(self, line, reason):
        with pytest.raises(TraceFormatError) as exc:
            parse_trace_text(line + "\n")
        assert str(exc.value) == f"line 1: invalid JSON ({reason})"

    def test_nan_score_reaches_the_checker(self):
        line = '{"prompt_id":"p0","block_index":0,"frame_scores":[0.5,NaN]}'
        with pytest.raises(TraceFormatError) as exc:
            parse_trace_text(line + "\n")
        assert str(exc.value) == "line 1: frame_scores must be finite"

    def test_records_of_one_prompt_share_its_id_string(self):
        text = serialize_records(make_records("p0", num_blocks=3) + make_records("p1", num_blocks=2))
        records = parse_trace_text(text)
        assert [r.prompt_id for r in records] == ["p0"] * 3 + ["p1"] * 2
        assert records[0].prompt_id is records[1].prompt_id is records[2].prompt_id
        assert records[3].prompt_id is records[4].prompt_id

    def test_deep_nesting_names_line(self):
        with pytest.raises(TraceFormatError, match="line 1: invalid JSON"):
            parse_trace_text("[" * 100_000 + "\n")

    def test_invalid_utf8_past_the_first_chunk_names_its_line(self, tmp_path):
        # 300 good lines fill several 8 KB decode chunks before the bad byte.
        good = serialize_records(make_records("p0", num_blocks=300)).encode()
        path = tmp_path / "bad.jsonl"
        path.write_bytes(good + b'{"prompt_id":"\xc3","block_index":300}\n')
        assert len(good) > 3 * 8192
        with pytest.raises(TraceFormatError, match=r"line 301: invalid UTF-8 \(byte 0xc3\)"):
            parse_trace_file(path)

    @pytest.mark.parametrize("char, what", [("\udcc3", "byte 0xc3"), ("\ud800", "U+D800")])
    def test_text_holding_a_lone_surrogate_is_refused(self, char, what):
        good = serialize_records(make_records("p0", num_blocks=2))
        with pytest.raises(TraceFormatError) as exc:
            parse_trace_text(good + '{"prompt_id":"' + char + '","block_index":2}\n')
        assert str(exc.value) == f"line 3: invalid UTF-8 ({what})"

    def test_earlier_json_error_wins_over_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{broken\n{"prompt_id":"\xff"}\n')
        with pytest.raises(TraceFormatError, match="line 1: invalid JSON"):
            parse_trace_file(path)


def _parse_file(tmp_path, text):
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    return parse_trace_file(path)


_GOOD_TRACE = serialize_records(make_records(num_blocks=2))
_UNTIMED_TRACE = serialize_records(make_records(num_blocks=2, with_times=False))

# (call, raises): each parse and replay entry point, returning and failing.
_COLLECTOR_CALLS = {
    "parse_text": (lambda tmp_path: parse_trace_text(_GOOD_TRACE), False),
    "parse_text_bad_line": (lambda tmp_path: parse_trace_text(_GOOD_TRACE + "{broken\n"), True),
    "parse_file": (lambda tmp_path: _parse_file(tmp_path, _GOOD_TRACE), False),
    "parse_file_bad_line": (lambda tmp_path: _parse_file(tmp_path, _GOOD_TRACE + "]\n"), True),
    "replay": (lambda tmp_path: replay(parse_trace_text(_GOOD_TRACE), tau=0.0), False),
    "replay_no_timing": (lambda tmp_path: replay(parse_trace_text(_UNTIMED_TRACE), tau=0.0), True),
}


class TestCollectorPause:
    """Parse and replay pause the cyclic collector and hand back the caller's setting."""

    @pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
    def caller_gc(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("name", list(_COLLECTOR_CALLS))
    def test_caller_setting_is_restored(self, caller_gc, name, tmp_path):
        call, raises = _COLLECTOR_CALLS[name]
        if raises:
            with pytest.raises(TraceFormatError):
                call(tmp_path)
        else:
            call(tmp_path)
        assert gc.isenabled() is caller_gc

    def test_collector_is_paused_while_parsing_and_replaying(self, caller_gc):
        seen = []

        def lines():
            for line in _GOOD_TRACE.splitlines():
                seen.append(gc.isenabled())
                yield line

        def quality(traces):
            seen.append(gc.isenabled())
            return 0.0

        replay(parse_trace(lines()), tau=0.0, quality_fn=quality)
        assert seen == [False] * 3


prompt_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
)
record_fields = st.fixed_dictionaries(
    {
        "prompt_id": prompt_ids,
        "block_index": st.integers(min_value=0, max_value=20),
        "frame_scores": st.lists(
            st.floats(min_value=-20, max_value=20, allow_nan=False), min_size=1, max_size=12
        ).map(tuple),
        "draft_time_s": st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
        "target_time_s": st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
        "decode_time_s": st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
        "score_time_s": st.none() | st.floats(min_value=0, max_value=100, allow_nan=False),
        "producer_observed": st.none() | st.sampled_from(Producer),
    }
)
record_strategy = record_fields.map(lambda fields: ExternalTraceRecord(**fields))

# Valid values and ones the trace format rejects, for the fields the parser checks by type.
any_prompt_id = prompt_ids | st.sampled_from(["", 7, None, b"p", True])
any_block_index = (
    st.integers(min_value=-3, max_value=20)
    | st.sampled_from([True, False, 1.5, 2.0, "3", None, 10**400])
)
any_producer = st.none() | st.sampled_from(
    [*Producer, "draft", "target", "vae", "DRAFT", "", 1, True, ["draft"]]
)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(records=st.lists(record_strategy, min_size=1, max_size=12))
    def test_serialize_parse_round_trip(self, records):
        text = serialize_records(records)
        parsed = parse_trace_text(text)
        assert parsed == records
        assert serialize_records(parsed) == text

    @settings(max_examples=300, deadline=None)
    @given(
        fields=record_fields,
        prompt_id=any_prompt_id,
        block_index=any_block_index,
        producer=any_producer,
    )
    def test_a_constructed_record_round_trips_or_is_refused(
        self, fields, prompt_id, block_index, producer
    ):
        fields.update(prompt_id=prompt_id, block_index=block_index, producer_observed=producer)
        try:
            record = ExternalTraceRecord(**fields)
        except ValueError:
            return
        assert parse_trace_text(serialize_record(record) + "\n") == [record]

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


_BIG = "1" + "0" * 400  # 10**400, an integer no float holds
_TIME_ERRORS = [
    ('"1.0"', "{} must be a number"),
    ("true", "{} must be a number"),
    ("[1.0]", "{} must be a number"),
    ("{}", "{} must be a number"),
    ("-1.0", "{} must be a non-negative finite number"),
    ("-1", "{} must be a non-negative finite number"),
    ("NaN", "{} must be a non-negative finite number"),
    ("Infinity", "{} must be a non-negative finite number"),
    ("1e400", "{} must be a non-negative finite number"),
    (_BIG, "{} must fit in a float"),
    ("-" + _BIG, "{} must fit in a float"),
]
# (field, JSON text that replaces its value, the parser's message without "line 1: ").
# A value of None drops the field.
CORRUPTIONS = [
    ("prompt_id", "7", "prompt_id must be a non-empty string"),
    ("prompt_id", '""', "prompt_id must be a non-empty string"),
    ("prompt_id", "null", "prompt_id must be a non-empty string"),
    ("prompt_id", '["p"]', "prompt_id must be a non-empty string"),
    ("prompt_id", None, "missing required fields ['prompt_id']"),
    ("block_index", '"3"', "block_index must be an integer"),
    ("block_index", "true", "block_index must be an integer"),
    ("block_index", "false", "block_index must be an integer"),
    ("block_index", "1.5", "block_index must be an integer"),
    ("block_index", "2.0", "block_index must be an integer"),
    ("block_index", "null", "block_index must be an integer"),
    ("block_index", "-1", "block_index must be >= 0, got -1"),
    ("block_index", "-" + _BIG, f"block_index must be >= 0, got -{_BIG}"),
    ("block_index", None, "missing required fields ['block_index']"),
    ("frame_scores", "[]", "frame_scores must be a non-empty array"),
    ("frame_scores", "0.5", "frame_scores must be a non-empty array"),
    ("frame_scores", '"0.5"', "frame_scores must be a non-empty array"),
    ("frame_scores", "{}", "frame_scores must be a non-empty array"),
    ("frame_scores", "null", "frame_scores must be a non-empty array"),
    ("frame_scores", "[true]", "frame_scores must contain only numbers"),
    ("frame_scores", "[0.5, false]", "frame_scores must contain only numbers"),
    ("frame_scores", "[null]", "frame_scores must contain only numbers"),
    ("frame_scores", '["0.5"]', "frame_scores must contain only numbers"),
    ("frame_scores", "[[0.5]]", "frame_scores must contain only numbers"),
    ("frame_scores", "[NaN]", "frame_scores must be finite"),
    ("frame_scores", "[0.5, Infinity]", "frame_scores must be finite"),
    ("frame_scores", "[-Infinity, 0.5]", "frame_scores must be finite"),
    ("frame_scores", "[1e400]", "frame_scores must be finite"),
    ("frame_scores", f"[0.5, {_BIG}]", "frame_scores must fit in a float"),
    ("frame_scores", None, "missing required fields ['frame_scores']"),
    ("producer_observed", '"vae"', "producer_observed must be 'draft' or 'target', got 'vae'"),
    ("producer_observed", '"DRAFT"', "producer_observed must be 'draft' or 'target', got 'DRAFT'"),
    ("producer_observed", '""', "producer_observed must be 'draft' or 'target', got ''"),
    ("producer_observed", "1", "producer_observed must be 'draft' or 'target', got 1"),
    ("producer_observed", "true", "producer_observed must be 'draft' or 'target', got True"),
    ("producer_observed", '["draft"]',
     "producer_observed must be 'draft' or 'target', got ['draft']"),
    ("gpu", "1", "unknown fields ['gpu']"),
    ("Prompt_id", '"p0"', "unknown fields ['Prompt_id']"),
] + [
    (key, literal, message.format(key))
    for key in ("draft_time_s", "target_time_s", "decode_time_s", "score_time_s")
    for literal, message in _TIME_ERRORS
]


# The rows that name a record field and give it a value: the constructor's keywords.
CONSTRUCTOR_CORRUPTIONS = [
    row for row in CORRUPTIONS
    if row[1] is not None and row[0] in ExternalTraceRecord._fields
]


def _json_line(fields: dict[str, str]) -> str:
    return "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in fields.items()) + "}\n"


class TestCorruptedRecord:
    @settings(max_examples=300, deadline=None)
    @given(record=record_strategy, corruption=st.sampled_from(CORRUPTIONS))
    def test_one_corrupted_field_gives_its_message(self, record, corruption):
        key, literal, message = corruption
        fields = {k: json.dumps(v) for k, v in json.loads(serialize_record(record)).items()}
        if literal is None:
            del fields[key]
        else:
            fields[key] = literal
        with pytest.raises(TraceFormatError) as exc:
            parse_trace_text(_json_line(fields))
        assert str(exc.value) == f"line 1: {message}"
        assert exc.value.line_number == 1

    @settings(max_examples=300, deadline=None)
    @given(record=record_strategy, corruption=st.sampled_from(CONSTRUCTOR_CORRUPTIONS))
    def test_the_constructor_refuses_with_the_parsers_message(self, record, corruption):
        key, literal, message = corruption
        fields = {name: getattr(record, name) for name in ExternalTraceRecord._fields}
        fields[key] = json.loads(literal)
        with pytest.raises(ValueError) as exc:
            ExternalTraceRecord(**fields)
        assert str(exc.value) == message


_TIME_FIELDS = ("draft_time_s", "target_time_s", "decode_time_s", "score_time_s")


def reference_check(prompt_id, block_index, scores, times, producer):
    """The record checker without its leading test: every rule in order.

    Returns the values a record stores, or raises the ValueError that the
    first failing rule gives.
    """
    if not isinstance(prompt_id, str) or not prompt_id:
        raise ValueError("prompt_id must be a non-empty string")
    if type(block_index) is not int:
        raise ValueError("block_index must be an integer")
    if type(scores) not in (list, tuple) or not scores:
        raise ValueError("frame_scores must be a non-empty array")
    score_types = set(map(type, scores))
    if not score_types <= {int, float}:
        raise ValueError("frame_scores must contain only numbers")
    if producer is not None and type(producer) is not Producer:
        try:
            producer = {p.value: p for p in Producer}[producer]
        except (KeyError, TypeError):
            raise ValueError(
                f"producer_observed must be 'draft' or 'target', got {reprlib.repr(producer)}"
            ) from None
    number_types = {int, float, type(None)}
    if not set(map(type, times)) <= number_types:
        key = next(k for k, v in zip(_TIME_FIELDS, times) if type(v) not in number_types)
        raise ValueError(f"{key} must be a number")
    try:
        scores = tuple(scores) if score_types == {float} else tuple(map(float, scores))
    except OverflowError:
        raise ValueError("frame_scores must fit in a float") from None
    if not all(map(math.isfinite, scores)):
        raise ValueError("frame_scores must be finite")
    if block_index < 0:
        raise ValueError(f"block_index must be >= 0, got {block_index}")
    checked = []
    for name, val in zip(_TIME_FIELDS, times):
        if val is not None:
            if type(val) is not float:
                try:
                    val = float(val)
                except OverflowError:
                    raise ValueError(f"{name} must fit in a float") from None
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} must be a non-negative finite number")
        checked.append(val)
    return (prompt_id, block_index, scores, *checked, producer)


def _outcome(make):
    """What make() stores, with every value's type and repr (so -0.0 and 0.0 differ), or its message."""
    try:
        values = make()
    except ValueError as exc:
        return str(exc)
    return [(type(v), repr(v), [type(x) for x in v] if type(v) is tuple else None)
            for v in values]


def _stored(record):
    return tuple(getattr(record, name) for name in ExternalTraceRecord._fields)


class _Id(str):
    pass


_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan])
_any_float = st.floats() | _edge_floats
_any_number = _any_float | st.integers(-3, 3) | st.sampled_from([10**400, -(10**400), True, False])
# Per field: values the leading test accepts, and odd ones: valid values it
# leaves to the ordered rules, borderline values and invalid ones.
_fast_time = st.none() | st.floats(0, 100) | st.sampled_from([-0.0, 5e-324, 1e308])
_CHECKED_FIELDS = {
    "prompt_id": (prompt_ids, any_prompt_id | prompt_ids.map(_Id) | st.sampled_from([_Id("")])),
    "block_index": (st.integers(0, 20), any_block_index | st.sampled_from([-0.0, 0.0, -1])),
    "frame_scores": (
        st.lists(st.floats(-20, 20) | st.sampled_from([-0.0, 5e-324, -5e-324]), min_size=1,
                 max_size=6).flatmap(lambda v: st.sampled_from([v, tuple(v)])),
        st.lists(_any_number, max_size=6).flatmap(lambda v: st.sampled_from([v, tuple(v)]))
        | st.sampled_from([[1e308, 1e308], (-1e308, -1e308, 1.0), [0.5, "0.5"], [[0.5]], [None],
                           None, "0.5", 0.5, {}]),
    ),
    **{key: (_fast_time, _any_number | st.sampled_from(["1.0", [1.0], {}]))
       for key in _TIME_FIELDS},
    "producer_observed": (
        st.none() | st.sampled_from([*Producer, "draft", "target"]),
        any_producer | st.sampled_from([["draft"], {"draft": 1}, _Id("draft")]),
    ),
}


@st.composite
def checked_fields(draw):
    """Every field one the leading test accepts, except at most two drawn from odd values."""
    odd = draw(st.sets(st.sampled_from(sorted(_CHECKED_FIELDS)), max_size=2))
    return {key: draw(pair[key in odd]) for key, pair in _CHECKED_FIELDS.items()}


class TestCheckerLeadingTest:
    """The checker's leading test changes no outcome: each record gets what every rule gives."""

    @settings(max_examples=800, deadline=None)
    @given(fields=checked_fields())
    def test_constructor_and_parser_match_the_ordered_rules(self, fields):
        def checked(values):
            return reference_check(
                values["prompt_id"], values["block_index"], values["frame_scores"],
                tuple(values[k] for k in _TIME_FIELDS), values["producer_observed"],
            )

        expected = _outcome(lambda: checked(fields))
        got = _outcome(lambda: _stored(ExternalTraceRecord(**fields)))
        assert got == expected

        try:
            line = json.dumps(fields)
        except TypeError:
            return  # bytes have no JSON form; the constructor's outcome is checked above
        expected = _outcome(lambda: checked(json.loads(line)))
        if isinstance(expected, str):
            expected = "line 1: " + expected
        got = _outcome(lambda: _stored(parse_trace_text(line + "\n")[0]))
        assert got == expected


class TestReplay:
    def test_negative_infinity_accepts_everything_except_forced_block0(self):
        runs = replay(make_records(), tau=float("-inf"))
        summary = runs[0].summary
        assert not summary.block_traces[0].decision.accepted
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

    def test_scoring_counts_as_overlapped_without_latency(self):
        summary = replay(make_records(), tau=-0.7)[0].summary
        traces = summary.block_traces
        assert all(t.score_time_s == 0.4 for t in traces)
        assert summary.total_time_s == simulate_time(traces, None)
        assert summary.total_time_s == sum(
            t.draft_time_s + t.decode_time_s + t.target_time_s for t in traces
        )

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

    def test_faults_are_reported_in_block_order(self):
        # Block 0 has no times and there are no latency params; block 1's mean overflows.
        scores = [(0.5,), (1e308, 1e308)]
        untimed = make_records(num_blocks=2, scores=scores, with_times=False)
        with pytest.raises(TraceFormatError, match="block 0: no recorded c_draft"):
            replay(untimed, tau=-0.7, aggregation=AggregationMode.MEAN_FRAME)
        timed = make_records(num_blocks=2, scores=scores)
        with pytest.raises(ValueError, match="mean frame score of block 1 overflows a float"):
            replay(timed, tau=-0.7, aggregation=AggregationMode.MEAN_FRAME)

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


_report_strings = st.text(max_size=6) | st.text(
    st.characters(blacklist_categories=()), max_size=6
) | st.sampled_from(['"', "\\", "\x00\x1f", "\u2028", "\ud800", "\udcff", "\u00e9\u4e2d"])
_report_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1e16, 1e-5]
)
_report_times = st.floats(min_value=0, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 1e308]
) | st.integers(0, 10**20)


@st.composite
def report_runs(draw):
    traces = []
    for b in range(draw(st.integers(0, 3))):
        scores = draw(st.none() | st.lists(_report_floats, min_size=1, max_size=4).map(
            lambda xs, b=b: FrameScoreVector(b, tuple(xs))
        ))
        traces.append(BlockTrace(
            block_index=draw(st.integers(0, 10**20)),
            decision=draw(st.sampled_from(DecisionReason)),
            aggregate_score=draw(st.none() | _report_floats | st.just(math.nan)
                                 | st.integers(-5, 5)),
            frame_scores=scores,
            draft_time_s=draw(_report_times),
            score_time_s=draw(_report_times),
            target_time_s=draw(_report_times),
            decode_time_s=draw(_report_times),
        ))
    summary = RunSummary(
        prompt_id=draw(_report_strings),
        accept_rate_excl_block0=draw(_report_floats | st.sampled_from([0, 1])),
        total_time_s=draw(_report_times | st.just(math.inf)),
        quality_proxy=draw(_report_floats | st.just(math.nan) | st.just(-math.inf)),
        block_traces=tuple(traces),
    )
    provenance = draw(st.lists(st.sampled_from(["recorded", "modeled", "mixed"]), max_size=4))
    return ReplayedRun(summary, tuple(provenance))


class TestReplayReport:
    @settings(max_examples=300, deadline=None)
    @given(
        runs=st.lists(report_runs(), max_size=3),
        tau=_report_floats,
        aggregation=st.sampled_from([*AggregationMode, "min_frame", "mean_frame"]),
    )
    def test_writer_gives_the_bytes_of_json_dumps(self, runs, tau, aggregation):
        doc = {
            "schema_version": 1,
            "tau": tau,
            "aggregation": aggregation,
            "runs": [
                {**summary_to_dict(r.summary), "timing_provenance": list(r.timing_provenance)}
                for r in runs
            ],
        }
        parts = []
        write_replay_report(parts.append, iter(runs), tau, aggregation)
        assert "".join(parts) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        # One write for the head, one per run and one for the tail.
        assert len(parts) == len(runs) + 2

    def test_writer_writes_a_replayed_trace_as_json_dumps(self):
        runs = replay(make_records("p0") + make_records("p\"1\u00e9", with_times=False),
                      tau=0.0, latency=LatencyParams(c_draft=1.0, c_target=5.0, c_decode=0.5))
        parts = []
        write_replay_report(parts.append, runs, 0.0, "min_frame")
        doc = {"schema_version": 1, "tau": 0.0, "aggregation": "min_frame", "runs": [
            {**summary_to_dict(r.summary), "timing_provenance": list(r.timing_provenance)}
            for r in runs
        ]}
        assert "".join(parts) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestEngineSelfConsistency:
    def test_exported_trace_replays_to_the_same_decisions(self, calibration):
        from specroute.core import default_config

        config = default_config().with_overrides(score_forced_rejections=True)
        stack = build_synthetic_stack(calibration, config)
        tau = -0.7
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
            live = [t.decision for t in res.summary.block_traces]
            again = [t.decision for t in replayed.block_traces]
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
