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
string or numpy scalar is not one either. The parser checks only the keys
itself, then builds each record from the checker's values without running
it again; FrameScoreVector checks that engine scores are non-empty and
finite, and `replay` builds each block's score vector and trace from the
record's checked values.

`parse_trace` reads its input line by line but returns every record in
one list, and `replay` groups that list by prompt before routing, so
memory grows with the size of the trace. Records of one prompt share one
prompt-id string.

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
import math
import reprlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    BlockTrace,
    FrameScoreVector,
    Producer,
    RunSummary,
    all_finite,
)
from .costmodel import LatencyParams
from .engine import summarize_run
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
_new_record = object.__new__
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


@dataclass(frozen=True, slots=True)
class ExternalTraceRecord:
    """Per-block observation exported by a real (or simulated) pipeline.

    Construction runs the parser's own checker, so it accepts exactly the
    values a trace line may hold and refuses the rest with the parser's
    messages: a non-empty string prompt id, an int block index >= 0 (not a
    bool), a non-empty list or tuple of int or float scores, each finite,
    int, float or None times, each non-negative and finite, and a producer
    that Producer(...) accepts. Strings, bools and numpy scalars are
    refused. Scores and times are stored as floats.
    """

    prompt_id: str
    block_index: int
    frame_scores: tuple[float, ...]
    draft_time_s: float | None = None
    target_time_s: float | None = None
    decode_time_s: float | None = None
    score_time_s: float | None = None
    producer_observed: Producer | None = None

    def __post_init__(self) -> None:
        times = (self.draft_time_s, self.target_time_s, self.decode_time_s, self.score_time_s)
        _check_record(
            self, self.prompt_id, self.block_index, self.frame_scores, times,
            self.producer_observed,
        )


# Slot setters, so a record can be filled with checked values without __post_init__.
_set_prompt_id, _set_block_index, _set_frame_scores, *_TIME_SETTERS, _set_producer = (
    vars(ExternalTraceRecord)[f.name].__set__ for f in fields(ExternalTraceRecord)
)


def _producer(value: object) -> Producer:
    try:
        return _PRODUCERS[value]
    except (KeyError, TypeError):
        raise ValueError(
            f"producer_observed must be 'draft' or 'target', got {reprlib.repr(value)}"
        ) from None


def _check_record(
    record: ExternalTraceRecord,
    prompt_id: object,
    block_index: object,
    scores: object,
    times: tuple,
    producer: object,
) -> None:
    """Check one record's values and store them in its slots, numbers as floats.

    The one checker of the record rules, for the parser and the
    constructor alike. Types are compared exactly, as JSON yields them:
    true and false are not integers or numbers here. The first failing
    rule raises its ValueError.
    """
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
    _set_prompt_id(record, prompt_id)
    _set_block_index(record, block_index)
    _set_frame_scores(record, scores)
    for name, set_time, val in zip(_TIME_KEYS, _TIME_SETTERS, times):
        if val is not None:
            if type(val) is not float:
                try:
                    val = float(val)
                except OverflowError:
                    raise ValueError(f"{name} must fit in a float") from None
            # Also false for NaN.
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} must be a non-negative finite number")
        set_time(record, val)
    _set_producer(record, producer)


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

    A record whose prompt id equals the previous record's shares that
    string object, so a trace grouped by prompt holds one id per prompt.
    """
    records = []
    append = records.append
    prompt_id = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        # What json.loads(line) does, less its per-call work: the line is
        # stripped, so the value must end where the line ends. On any failure
        # json.loads decodes the line again and raises its exact error.
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            obj = _decode(line, line_number)
        if not isinstance(obj, dict):
            raise TraceFormatError("record must be a JSON object", line_number)
        keys = obj.keys()
        if not keys <= _KNOWN_KEYS:
            unknown = keys - _KNOWN_KEYS
            raise TraceFormatError(f"unknown fields {reprlib.repr(sorted(unknown))}", line_number)
        if not keys >= _REQUIRED_KEYS:
            missing = _REQUIRED_KEYS - keys
            raise TraceFormatError(f"missing required fields {sorted(missing)}", line_number)
        # Keep the previous record's id object when the text is the same.
        line_prompt_id = obj["prompt_id"]
        if line_prompt_id != prompt_id:
            prompt_id = line_prompt_id
        record = _new_record(ExternalTraceRecord)
        try:
            _check_record(
                record, prompt_id, obj["block_index"], obj["frame_scores"],
                tuple(map(obj.get, _TIME_KEYS)), obj.get("producer_observed"),
            )
        except ValueError as exc:
            raise TraceFormatError(str(exc), line_number) from None
        append(record)
    return records


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
        return parse_trace(_utf8_lines(fh))


def _utf8_lines(lines: Iterable[str]) -> Iterator[str]:
    for line_number, line in enumerate(lines, start=1):
        # A lone surrogate is not ASCII, so an ASCII line needs no encode check.
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise TraceFormatError(f"invalid UTF-8 (byte 0x{byte:02x})", line_number) from None
        yield line


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


@dataclass(frozen=True, slots=True)
class ReplayedRun:
    """Replay outcome for one prompt, with per-block timing provenance."""

    summary: RunSummary
    timing_provenance: tuple[str, ...]


_block_index = attrgetter("block_index")

# Gaps and duplicates listed in a contiguity error before "and N more".
_LISTED_BLOCKS = 10


def _group_by_prompt(
    records: Sequence[ExternalTraceRecord],
) -> dict[str, list[ExternalTraceRecord]]:
    groups: defaultdict[str, list[ExternalTraceRecord]] = defaultdict(list)
    for r in records:
        groups[r.prompt_id].append(r)
    return groups


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

    Decisions come from the recorded frame scores; timings come from the
    recorded values where present and from `latency` otherwise (an error
    if a needed timing is missing and no params were given). Accept rate,
    total time and quality come from `engine.summarize_run`, as for engine
    runs; without `latency`, scoring counts as overlapped.

    Pure over its inputs: two replays of the same records agree exactly.
    """
    policy = ThresholdPolicy(tau=tau, force_reject_block0=force_reject_block0)
    # Records hold non-empty finite float scores and non-negative finite
    # times, and so do latency params, so vectors and traces skip their checks.
    new_scores = FrameScoreVector.from_checked
    new_trace = BlockTrace.from_checked
    # Every replayed block carries scores, so the model counts it as scored.
    if latency is not None:
        modeled_accept = latency.block_times(True, scored=True)
        modeled_reject = latency.block_times(False, scored=True)
    runs = []
    for prompt_id, group in _group_by_prompt(records).items():
        group.sort(key=_block_index)
        _check_contiguous(prompt_id, list(map(_block_index, group)))
        traces: list[BlockTrace] = []
        provenance: list[str] = []
        for b, record in enumerate(group):
            scores = new_scores(b, record.frame_scores)
            q = aggregate(scores, aggregation)
            decision = policy.decide(b, q)
            accepted = decision.accepted
            draft, decode, score = record.draft_time_s, record.decode_time_s, record.score_time_s
            needed = 3
            missing = (draft is None) + (decode is None) + (score is None)
            if accepted:
                target = 0.0
            else:
                # A recorded 0 means the factual run accepted this block.
                target = record.target_time_s or None
                needed = 4
                missing += target is None
            if missing:
                if latency is None:
                    raise _no_fallback(prompt_id, b, (draft, decode, score, target))
                model_draft, model_score, model_target, model_decode = (
                    modeled_accept if accepted else modeled_reject
                )
                if draft is None:
                    draft = model_draft
                if decode is None:
                    decode = model_decode
                if score is None:
                    score = model_score
                if target is None:
                    target = model_target
                provenance.append(MODELED if missing == needed else MIXED)
            else:
                provenance.append(RECORDED)
            traces.append(new_trace(b, decision, q, scores, draft, score, target, decode))

        summary = summarize_run(prompt_id, traces, latency, quality_fn)
        runs.append(ReplayedRun(summary, tuple(provenance)))
    return runs
