"""Line-delimited trace ingestion and counterfactual replay.

This is the integration boundary for real deployments: a pipeline that
runs actual models exports one JSON record per line per (prompt, block),
carrying the per-frame rewards it measured and, optionally, its observed
component timings. The replay machinery then re-runs the routing decision
at any threshold against those recorded scores, filling in missing
timings from fitted latency parameters.

Record format (one JSON object per line, unknown keys rejected):

    required  prompt_id          string
    required  block_index        integer >= 0
    required  frame_scores       non-empty array of finite numbers
                                  (every number in a record must fit in a float)
    optional  draft_time_s       number >= 0
    optional  target_time_s      number >= 0 (cost of a target regeneration
                                  for this block; 0/absent if never rejected)
    optional  decode_time_s      number >= 0
    optional  score_time_s       number >= 0
    optional  producer_observed  "draft" | "target"

Each rule is checked once, where the value enters. One checker holds the
record rules, types and values alike, and both the parser and the
ExternalTraceRecord constructor call it, so a record a pipeline builds
serializes to a line the parser accepts and a refused one gets the
parser's message. Types are compared exactly: true is not a number, and a
string or numpy scalar is not one either. The checker returns the
record's values in field order. Its leading test passes the common record
(a str id, an int index >= 0, floats with a finite sum, float or absent
times in range, a known producer) through at once; any other record goes
through the ordered rules, so outcomes and messages are those of the
rules. The parser checks only the UTF-8 and the keys itself, then builds
each record, a named tuple, from the checker's values without running it
again. `replay` builds each block's score vector from the record's
checked values with its plain constructor and routes each prompt's blocks
through `engine.route_run`, the one routing rule.

`parse_trace` reads its input line by line but returns every record in
one list, and `replay` groups that list by prompt before routing, so
memory grows with the size of the trace. Records of one prompt share one
prompt-id string.

`write_replay_report` writes the report of `specroute replay` run by run,
with the exact bytes of `json.dumps(doc, indent=2, sort_keys=True)` and
a final newline, so the document and its text are never held whole.

`parse_trace` (and so `parse_trace_text` and `parse_trace_file`) and
`replay` pause the process-wide cyclic garbage collector while they run.
Records, score vectors, traces and run summaries hold no reference cycles,
so a collection during these calls could free nothing, while over a 100k
record trace the collector would scan the growing heap hundreds of times.
Each call restores the caller's setting when it returns or raises, and
reference counting frees everything else as usual; cyclic garbage made by
a caller's line iterable or `quality_fn` waits for the next collection
after the call.
"""

from __future__ import annotations

import gc
import io
import json
import reprlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .core import (
    BlockTrace,
    FrameScoreVector,
    Producer,
    RunSummary,
    _float_or_none,
    all_finite,
)
from .costmodel import LatencyParams
from .engine import Arm, route_run
from .router import AggregationMode, ThresholdPolicy, aggregate

__all__ = [
    "TraceFormatError",
    "ExternalTraceRecord",
    "parse_trace",
    "parse_trace_text",
    "parse_trace_file",
    "serialize_record",
    "serialize_records",
    "records_from_traces",
    "ReplayedRun",
    "replay",
    "write_replay_report",
]

_REQUIRED_KEYS = frozenset({"prompt_id", "block_index", "frame_scores"})
# In ExternalTraceRecord field order.
_TIME_KEYS = ("draft_time_s", "target_time_s", "decode_time_s", "score_time_s")
_KNOWN_KEYS = _REQUIRED_KEYS | set(_TIME_KEYS) | {"producer_observed"}
_ARRAY_TYPES = frozenset({list, tuple})
_NUMBER_TYPES = frozenset({int, float})
_FLOAT_ONLY = frozenset({float})
_OPTIONAL_NUMBER_TYPES = _NUMBER_TYPES | {type(None)}
# What Producer(...) accepts other than a Producer: its values.
_PRODUCERS = {p.value: p for p in Producer}
# A producer value as stored, keyed by what the checker's leading test
# accepts (a member equals its value, so it finds itself).
_PRODUCER_OF = {None: None, **_PRODUCERS}
_PRODUCER_TYPES = frozenset({type(None), Producer, str})
# A decoder with json.loads's defaults; parse_trace calls its scanner directly.
_scan_once = json.JSONDecoder().scan_once

RECORDED = "recorded"
MODELED = "modeled"
MIXED = "mixed"


class TraceFormatError(ValueError):
    """Malformed or invalid trace content; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)
        self.line_number = line_number


class _RecordFields(NamedTuple):
    prompt_id: str
    block_index: int
    frame_scores: tuple[float, ...]
    draft_time_s: float | None = None
    target_time_s: float | None = None
    decode_time_s: float | None = None
    score_time_s: float | None = None
    producer_observed: Producer | None = None


class ExternalTraceRecord(_RecordFields):
    """Per-block observation exported by a real (or simulated) pipeline.

    Construction runs the parser's own checker, so it accepts exactly the
    values a trace line may hold and refuses the rest with the parser's
    messages: a non-empty string prompt id, an int block index >= 0 (not a
    bool), a non-empty list or tuple of int or float scores, each finite,
    int, float or None times, each non-negative and finite, and a producer
    that Producer(...) accepts. Strings, bools and numpy scalars are
    refused. Scores and times are stored as floats. _make (and so
    _replace), copying and unpickling build through the same check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExternalTraceRecord:
        # The base binds the arguments to the fields, defaults included.
        return tuple.__new__(cls, _check_record(*_RecordFields(*args, **kwargs)))

    @classmethod
    def _make(cls, iterable: Iterable) -> ExternalTraceRecord:
        return cls(*iterable)

    def __reduce__(self) -> tuple:
        # Every pickle protocol and copy then rebuild through __new__.
        return type(self), tuple(self)


def _producer(value: object) -> Producer:
    try:
        return _PRODUCERS[value]
    except (KeyError, TypeError):
        raise ValueError(
            f"producer_observed must be 'draft' or 'target', got {reprlib.repr(value)}"
        ) from None


def _check_record(
    prompt_id: object,
    block_index: object,
    scores: object,
    draft: object,
    target: object,
    decode: object,
    score: object,
    producer: object,
) -> tuple:
    """Check one record's values; return them in field order, numbers as floats.

    The one checker of the record rules, for the parser and the
    constructor alike. Types are compared exactly, as JSON yields them:
    true and false are not integers or numbers here. The first failing
    rule raises its ValueError.

    A leading test accepts the common record, whose values need no
    conversion: a non-empty str id, an int index >= 0, a list or tuple of
    floats with a finite sum, float times in [0, inf) or None, and a
    producer that is None, a Producer or its value. Anything else goes
    through the ordered rules, which give every message.
    """
    if (
        type(prompt_id) is str and prompt_id
        and type(block_index) is int and block_index >= 0
        and type(scores) in _ARRAY_TYPES and set(map(type, scores)) == _FLOAT_ONLY
        and isfinite(sum(scores))
        and (draft is None or type(draft) is float and 0.0 <= draft < inf)
        and (target is None or type(target) is float and 0.0 <= target < inf)
        and (decode is None or type(decode) is float and 0.0 <= decode < inf)
        and (score is None or type(score) is float and 0.0 <= score < inf)
        and type(producer) in _PRODUCER_TYPES and producer in _PRODUCER_OF
    ):
        return (
            prompt_id, block_index, tuple(scores), draft, target, decode, score,
            _PRODUCER_OF[producer],
        )
    if not isinstance(prompt_id, str) or not prompt_id:
        raise ValueError("prompt_id must be a non-empty string")
    if type(block_index) is not int:
        raise ValueError("block_index must be an integer")
    if type(scores) not in _ARRAY_TYPES or not scores:
        raise ValueError("frame_scores must be a non-empty array")
    score_types = set(map(type, scores))
    if not score_types <= _NUMBER_TYPES:
        raise ValueError("frame_scores must contain only numbers")
    if producer is not None and type(producer) is not Producer:
        producer = _producer(producer)
    times = (draft, target, decode, score)
    if not set(map(type, times)) <= _OPTIONAL_NUMBER_TYPES:
        key = next(k for k, v in zip(_TIME_KEYS, times) if type(v) not in _OPTIONAL_NUMBER_TYPES)
        raise ValueError(f"{key} must be a number")
    try:
        scores = tuple(scores) if score_types == _FLOAT_ONLY else tuple(map(float, scores))
    except OverflowError:
        raise ValueError("frame_scores must fit in a float") from None
    if not all_finite(scores):
        raise ValueError("frame_scores must be finite")
    if block_index < 0:
        raise ValueError(f"block_index must be >= 0, got {block_index}")
    checked_times = []
    for name, val in zip(_TIME_KEYS, times):
        if val is not None:
            if type(val) is not float:
                try:
                    val = float(val)
                except OverflowError:
                    raise ValueError(f"{name} must fit in a float") from None
            # Also false for NaN.
            if not 0.0 <= val < inf:
                raise ValueError(f"{name} must be a non-negative finite number")
        checked_times.append(val)
    return (prompt_id, block_index, scores, *checked_times, producer)


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore the caller's setting.

    Safe around parse and replay because what they build holds no
    reference cycles (see the module docstring).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_collector_paused()
def parse_trace(lines: Iterable[str]) -> list[ExternalTraceRecord]:
    """Parse trace lines into a list; errors carry the offending line number.

    A line holding a lone surrogate is not UTF-8 text and is refused.
    parse_trace_file keeps each undecodable byte as one, so the message
    names the byte. A record whose prompt id equals the previous record's
    shares that string object, so a trace grouped by prompt holds one id
    per prompt.
    """
    records = []
    append = records.append
    new_record = tuple.__new__
    record_type = ExternalTraceRecord
    check = _check_record
    scan_once = _scan_once
    known_keys = _KNOWN_KEYS
    required_keys = _REQUIRED_KEYS
    prompt_id = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        # A lone surrogate is not ASCII, so an ASCII line needs no encode check.
        if not line.isascii():
            _check_utf8(line, line_number)
        # What json.loads(line) does, less its per-call work: the line is
        # stripped, so the value must end where the line ends. On any failure
        # json.loads decodes the line again and raises its exact error.
        try:
            obj, end = scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            obj = _decode(line, line_number)
        if type(obj) is not dict:
            raise TraceFormatError("record must be a JSON object", line_number)
        keys = obj.keys()
        if not keys <= known_keys:
            unknown = keys - known_keys
            raise TraceFormatError(f"unknown fields {reprlib.repr(sorted(unknown))}", line_number)
        if not keys >= required_keys:
            missing = required_keys - keys
            raise TraceFormatError(f"missing required fields {sorted(missing)}", line_number)
        # Keep the previous record's id object when the text is the same.
        line_prompt_id = obj["prompt_id"]
        if line_prompt_id != prompt_id:
            prompt_id = line_prompt_id
        get = obj.get
        try:
            values = check(
                prompt_id, obj["block_index"], obj["frame_scores"], get("draft_time_s"),
                get("target_time_s"), get("decode_time_s"), get("score_time_s"),
                get("producer_observed"),
            )
        except ValueError as exc:
            raise TraceFormatError(str(exc), line_number) from None
        append(new_record(record_type, values))
    return records


def _check_utf8(line: str, line_number: int) -> None:
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(line[exc.start])
        what = f"byte 0x{code - 0xDC00:02x}" if 0xDC80 <= code <= 0xDCFF else f"U+{code:04X}"
        raise TraceFormatError(f"invalid UTF-8 ({what})", line_number) from None


def _decode(line: str, line_number: int) -> object:
    """json.loads(line), with its errors as TraceFormatErrors naming the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"invalid JSON ({exc.msg})", line_number) from exc
    except ValueError as exc:
        # The only other ValueError: an integer literal over the digit limit.
        limit = sys.get_int_max_str_digits()
        raise TraceFormatError(
            f"invalid JSON (integer literal of more than {limit} digits)", line_number
        ) from exc
    except RecursionError:
        raise TraceFormatError("invalid JSON (nested too deeply)", line_number) from None


def parse_trace_text(text: str) -> list[ExternalTraceRecord]:
    """Parse trace text, split into lines only where a file read in text mode splits it."""
    return parse_trace(io.StringIO(text, newline=None))


def parse_trace_file(path: str | Path) -> list[ExternalTraceRecord]:
    """Parse a UTF-8 trace file; invalid UTF-8 is a TraceFormatError naming its line."""
    # Text mode decodes 8 KB at a time, so a strict decoding error names no
    # line. Undecodable bytes are kept as lone surrogates instead, and the
    # parse stops at the first line that holds one (or at any earlier error).
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_trace(fh)


def serialize_record(record: ExternalTraceRecord) -> str:
    """Canonical single-line form: sorted keys, no spaces, Nones omitted."""
    obj: dict = {
        "prompt_id": record.prompt_id,
        "block_index": record.block_index,
        "frame_scores": list(record.frame_scores),
    }
    for key in _TIME_KEYS:
        val = getattr(record, key)
        if val is not None:
            obj[key] = val
    if record.producer_observed is not None:
        obj["producer_observed"] = record.producer_observed.value
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize_records(records: Sequence[ExternalTraceRecord]) -> str:
    return "".join(serialize_record(r) + "\n" for r in records)


def records_from_traces(
    prompt_id: str, traces: Sequence[BlockTrace]
) -> list[ExternalTraceRecord]:
    """Export an engine run's block traces in the external record format.

    Every block must carry frame scores (run with score_forced_rejections
    enabled if the policy force-rejects block 0), because the record format
    requires them for counterfactual re-routing.
    """
    records = []
    for t in traces:
        if t.frame_scores is None:
            raise ValueError(
                f"block {t.block_index} has no frame scores; export needs runs "
                "configured with score_forced_rejections=True"
            )
        producer = Producer.DRAFT if t.decision.accepted else Producer.TARGET
        records.append(
            ExternalTraceRecord(
                prompt_id=prompt_id,
                block_index=t.block_index,
                frame_scores=t.frame_scores.scores,
                draft_time_s=t.draft_time_s,
                target_time_s=t.target_time_s if t.target_time_s > 0 else None,
                decode_time_s=t.decode_time_s,
                score_time_s=t.score_time_s,
                producer_observed=producer,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Counterfactual replay
# ---------------------------------------------------------------------------


class ReplayedRun(NamedTuple):
    """Replay outcome for one prompt, with per-block timing provenance."""

    summary: RunSummary
    timing_provenance: tuple[str, ...]


_block_index = attrgetter("block_index")

# Gaps and duplicates listed in a contiguity error before "and N more".
_LISTED_BLOCKS = 10


def _check_contiguous(prompt_id: str, seen: list[int]) -> None:
    """Require sorted block indices to be 0..n-1, each once; O(n) in the number of records."""
    if seen == list(range(len(seen))):
        return
    gaps: list[int] = []
    dupes: list[int] = []
    num_gaps = num_dupes = 0
    next_index = 0
    last_dupe = -1
    for b in seen:
        if b < next_index:
            # Sorted, so b repeats the previous index; count each value once.
            if b != last_dupe:
                num_dupes += 1
                last_dupe = b
                if len(dupes) < _LISTED_BLOCKS:
                    dupes.append(b)
            continue
        if b > next_index:
            num_gaps += b - next_index
            room = _LISTED_BLOCKS - len(gaps)
            gaps.extend(range(next_index, min(b, next_index + room)))
        next_index = b + 1
    detail = []
    if num_gaps:
        detail.append(_listing("missing", gaps, num_gaps))
    if num_dupes:
        detail.append(_listing("duplicate", dupes, num_dupes))
    raise TraceFormatError(f"prompt {reprlib.repr(prompt_id)}: " + ", ".join(detail))


def _listing(kind: str, listed: list[int], count: int) -> str:
    text = f"{kind} blocks {listed}"
    if count > len(listed):
        text += f" and {count - len(listed)} more"
    return text


def _no_fallback(
    prompt_id: str, block_index: int, times: Sequence[float | None]
) -> TraceFormatError:
    """Name the first missing timing, in the order draft, decode, score, target."""
    names = ("c_draft", "c_decode", "c_score", "c_target")
    name = next(n for n, t in zip(names, times) if t is None)
    return TraceFormatError(
        f"prompt {reprlib.repr(prompt_id)} block {block_index}: "
        f"no recorded {name} and no latency params for fallback"
    )


@_collector_paused()
def replay(
    records: Sequence[ExternalTraceRecord],
    tau: float,
    aggregation: AggregationMode = AggregationMode.MIN_FRAME,
    force_reject_block0: bool = True,
    latency: LatencyParams | None = None,
    quality_fn: Callable[[Sequence[BlockTrace]], float] | None = None,
) -> list[ReplayedRun]:
    """Re-route recorded blocks at a counterfactual threshold.

    Each prompt's run goes through `engine.route_run` under the arm
    ThresholdPolicy(tau, force_reject_block0), every block scored from its
    recorded frame scores. Times are the recorded ones where present and
    `latency`'s otherwise (an error if one is needed and no params were
    given); without `latency`, scoring counts as overlapped.

    Pure over its inputs: two replays of the same records agree exactly.
    """
    arm = Arm(ThresholdPolicy(tau=tau, force_reject_block0=force_reject_block0), aggregation)
    # Every replayed block carries scores, so the model counts it as scored.
    modeled = latency and (latency.block_times(False, True), latency.block_times(True, True))
    groups: defaultdict[str, list[ExternalTraceRecord]] = defaultdict(list)
    for r in records:
        groups[r.prompt_id].append(r)
    new_vector = tuple.__new__
    runs = []
    for prompt_id, group in groups.items():
        if list(map(_block_index, group)) != list(range(len(group))):
            group.sort(key=_block_index)
            _check_contiguous(prompt_id, list(map(_block_index, group)))
        # Records hold non-empty finite float scores, so vectors need no check;
        # tuple.__new__ builds each one without the named tuple's Python-level __new__.
        vectors = [new_vector(FrameScoreVector, (b, r.frame_scores)) for b, r in enumerate(group)]
        try:
            qs = [aggregate(v, aggregation) for v in vectors]
        except ValueError:
            # A mean overflows: take each q as its block is routed, so that a
            # missing time in an earlier block is still the fault reported.
            qs = _RoutedAggregates(vectors, aggregation)
        provenance: list[str] = []
        blocks = iter(group)

        # route_run's times source for this prompt, called once per block in block order:
        # the recorded times, a missing one taken from modeled[accepted], and the provenance.
        def times(accepted: bool, scored: bool, drafted: bool) -> tuple:
            record = next(blocks)
            draft, decode, score = record.draft_time_s, record.decode_time_s, record.score_time_s
            # A recorded target time of 0 means the factual run accepted the block.
            target = 0.0 if accepted else record.target_time_s or None
            if (draft is not None and decode is not None and score is not None
                    and target is not None):
                provenance.append(RECORDED)
                return draft, score, target, decode
            if modeled is None:
                raise _no_fallback(prompt_id, record.block_index, (draft, decode, score, target))
            model = modeled[accepted]
            missing = (draft is None) + (decode is None) + (score is None) + (target is None)
            # An accepted block needs no target time, so three can be missing.
            provenance.append(MODELED if missing == (3 if accepted else 4) else MIXED)
            return (model[0] if draft is None else draft, model[1] if score is None else score,
                    model[2] if target is None else target, model[3] if decode is None else decode)

        summary = route_run(prompt_id, vectors, qs, arm, True, times, latency, quality_fn)
        runs.append(ReplayedRun(summary, tuple(provenance)))
    return runs


class _RoutedAggregates:
    """Each block's q under one mode, taken when the routing rule reads it."""

    def __init__(self, vectors: Sequence[FrameScoreVector], mode: AggregationMode) -> None:
        self.vectors, self.mode = vectors, mode

    def __getitem__(self, b: int) -> float:
        return aggregate(self.vectors[b], self.mode)


# ---------------------------------------------------------------------------
# Replay report
# ---------------------------------------------------------------------------


def write_replay_report(
    write: Callable[[str], object],
    runs: Iterable[ReplayedRun],
    tau: float,
    aggregation: str,
) -> None:
    """Write the replay report through `write`, one run at a time.

    The text is exactly json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for doc = {"schema_version": 1, "tau": tau, "aggregation": aggregation,
    "runs": [...]}, where each run is summary_to_dict(run.summary) plus
    "timing_provenance": list(run.timing_provenance). NaN quality is
    written as null. The sorted top-level keys put "runs" between the
    aggregation and the schema version, so the head is written first, then
    each run as `runs` yields it, then the tail; the whole document is
    never held in memory.
    """
    write('{\n  "aggregation": ' + _json_scalar(aggregation) + ',\n  "runs": [')
    separator = "\n    "
    for run in runs:
        write(separator + _run_json(run))
        separator = ",\n    "
    close = "]" if separator == "\n    " else "\n  ]"
    write(close + ',\n  "schema_version": 1,\n  "tau": ' + _json_scalar(tau) + "\n}\n")


def _run_json(run: ReplayedRun) -> str:
    """One run's object as json.dumps writes it at depth 2 (its first line unindented)."""
    s = run.summary
    return (
        '{\n      "accept_rate_excl_block0": ' + _json_scalar(s.accept_rate_excl_block0)
        + ',\n      "block_traces": ' + _json_array(list(map(_trace_json, s.block_traces)), 3)
        + ',\n      "prompt_id": ' + _json_scalar(s.prompt_id)
        + ',\n      "quality_proxy": ' + _json_scalar(_float_or_none(s.quality_proxy))
        + ',\n      "timing_provenance": ' + _json_scalars(run.timing_provenance, 3)
        + ',\n      "total_time_s": ' + _json_scalar(s.total_time_s)
        + "\n    }"
    )


def _trace_json(t: BlockTrace) -> str:
    """One block trace's object as json.dumps writes it at depth 4 (its first line unindented)."""
    decision = t.decision
    scores = t.frame_scores
    numbers = (t.aggregate_score, t.decode_time_s, t.draft_time_s, t.score_time_s, t.target_time_s)
    if set(map(type, numbers)) == _FLOAT_ONLY and isfinite(sum(numbers)):
        # repr of a finite float is what json writes for it.
        aggregate_score, decode, draft, score, target = map(_FLOAT_REPR, numbers)
    else:
        aggregate_score = _json_scalar(_float_or_none(t.aggregate_score))
        decode, draft, score, target = map(_json_scalar, numbers[1:])
    return _TRACE_JSON % (
        aggregate_score,
        _json_scalar(t.block_index),
        decode,
        draft,
        "null" if scores is None else _json_scalars(scores.scores, 5),
        _json_scalar(decision.value),
        score,
        target,
        "accept" if decision.accepted else "reject",
    )


_TRACE_JSON = (
    '{\n          "aggregate_score": %s,\n          "block_index": %s,'
    '\n          "decode_time_s": %s,\n          "draft_time_s": %s,'
    '\n          "frame_scores": %s,\n          "reason": %s,'
    '\n          "score_time_s": %s,\n          "target_time_s": %s,'
    '\n          "verdict": "%s"\n        }'
)
_FLOAT_REPR = float.__repr__


def _json_array(items: list[str], depth: int) -> str:
    """A list of encoded items, `depth` levels deep, laid out as json.dumps(indent=2) does."""
    if not items:
        return "[]"
    indent = "\n" + "  " * (depth + 1)
    return "[" + indent + ("," + indent).join(items) + "\n" + "  " * depth + "]"


def _json_scalars(values: Sequence, depth: int) -> str:
    """A list of scalars; one that holds only finite floats is encoded in one pass."""
    if set(map(type, values)) == _FLOAT_ONLY and all_finite(values):
        return _json_array(list(map(_FLOAT_REPR, values)), depth)
    return _json_array(list(map(_json_scalar, values)), depth)


def _json_scalar(o: object) -> str:
    """json.dumps(o) for a string, None, bool, int or float, by json's own rules."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if isfinite(o):
            return _FLOAT_REPR(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
