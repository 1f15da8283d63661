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

`parse_trace` reads its input line by line but returns every record in
one list, and `replay` groups that list by prompt before routing, so
memory grows with the size of the trace.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .core import (
    BlockTrace,
    FrameScoreVector,
    Producer,
    RunSummary,
    Verdict,
)
from .costmodel import LatencyParams
from .router import AggregationMode, Policy, ThresholdPolicy, aggregate

__all__ = [
    "TraceFormatError",
    "ExternalTraceRecord",
    "parse_trace",
    "parse_trace_text",
    "parse_trace_file",
    "serialize_record",
    "serialize_records",
    "write_trace_file",
    "records_from_traces",
    "ReplayedRun",
    "replay",
]

_REQUIRED_KEYS = frozenset({"prompt_id", "block_index", "frame_scores"})
# In ExternalTraceRecord field order.
_TIME_KEYS = ("draft_time_s", "target_time_s", "decode_time_s", "score_time_s")
_KNOWN_KEYS = _REQUIRED_KEYS | set(_TIME_KEYS) | {"producer_observed"}
_NUMBER_TYPES = frozenset({int, float})
_OPTIONAL_NUMBER_TYPES = _NUMBER_TYPES | {type(None)}

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

    Construction converts every value to float once and checks it.
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
        try:
            scores = tuple(map(float, self.frame_scores))
        except OverflowError:
            raise ValueError("frame_scores must fit in a float") from None
        object.__setattr__(self, "frame_scores", scores)
        if not scores:
            raise ValueError("frame_scores must be non-empty")
        if not all(map(math.isfinite, scores)):
            raise ValueError("frame_scores must be finite")
        if self.block_index < 0:
            raise ValueError(f"block_index must be >= 0, got {self.block_index}")
        for name in _TIME_KEYS:
            val = getattr(self, name)
            if val is None:
                continue
            if type(val) is not float:
                try:
                    val = float(val)
                except OverflowError:
                    raise ValueError(f"{name} must fit in a float") from None
                object.__setattr__(self, name, val)
            # Also false for NaN.
            if not 0.0 <= val < math.inf:
                raise ValueError(f"{name} must be a non-negative finite number")


def _record_from_obj(obj: object, line_number: int) -> ExternalTraceRecord:
    """Check the JSON shape of one record; the record checks the values."""
    if not isinstance(obj, dict):
        raise TraceFormatError("record must be a JSON object", line_number)
    if not obj.keys() <= _KNOWN_KEYS:
        unknown = obj.keys() - _KNOWN_KEYS
        raise TraceFormatError(f"unknown fields {sorted(unknown)}", line_number)
    if not obj.keys() >= _REQUIRED_KEYS:
        missing = _REQUIRED_KEYS - obj.keys()
        raise TraceFormatError(f"missing required fields {sorted(missing)}", line_number)
    prompt_id = obj["prompt_id"]
    if not isinstance(prompt_id, str) or not prompt_id:
        raise TraceFormatError("prompt_id must be a non-empty string", line_number)
    block_index = obj["block_index"]
    # JSON yields exact types, so this also rejects true and false.
    if type(block_index) is not int:
        raise TraceFormatError("block_index must be an integer", line_number)
    scores = obj["frame_scores"]
    if type(scores) is not list or not scores:
        raise TraceFormatError("frame_scores must be a non-empty array", line_number)
    if not set(map(type, scores)) <= _NUMBER_TYPES:
        raise TraceFormatError("frame_scores must contain only numbers", line_number)

    producer = obj.get("producer_observed")
    if producer is not None:
        try:
            producer = Producer(producer)
        except ValueError:
            raise TraceFormatError(
                f"producer_observed must be 'draft' or 'target', got {producer!r}",
                line_number,
            ) from None

    times = tuple(map(obj.get, _TIME_KEYS))
    if not set(map(type, times)) <= _OPTIONAL_NUMBER_TYPES:
        key = next(k for k, v in zip(_TIME_KEYS, times) if type(v) not in _OPTIONAL_NUMBER_TYPES)
        raise TraceFormatError(f"{key} must be a number", line_number)

    try:
        return ExternalTraceRecord(prompt_id, block_index, scores, *times, producer)
    except ValueError as exc:
        raise TraceFormatError(str(exc), line_number) from exc


def parse_trace(lines: Iterable[str]) -> list[ExternalTraceRecord]:
    """Parse trace lines into a list; errors carry the offending line number."""
    records = []
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
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
        records.append(_record_from_obj(obj, line_number))
    return records


def parse_trace_text(text: str) -> list[ExternalTraceRecord]:
    return parse_trace(text.splitlines())


def parse_trace_file(path: str | Path) -> list[ExternalTraceRecord]:
    with open(path, "r", encoding="utf-8") as fh:
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


def write_trace_file(path: str | Path, records: Sequence[ExternalTraceRecord]) -> None:
    Path(path).write_text(serialize_records(records), encoding="utf-8")


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


def _check_contiguous(prompt_id: str, blocks: Sequence[ExternalTraceRecord]) -> None:
    """Require block indices 0..n-1, each once; O(n) in the number of records."""
    seen = sorted(map(_block_index, blocks))
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
    raise TraceFormatError(f"prompt {prompt_id!r}: " + ", ".join(detail))


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
        f"prompt {prompt_id!r} block {block_index}: "
        f"no recorded {name} and no latency params for fallback"
    )


def replay(
    records: Sequence[ExternalTraceRecord],
    tau: float,
    aggregation: AggregationMode = AggregationMode.MIN_FRAME,
    force_reject_block0: bool = True,
    policy: Policy | None = None,
    latency: LatencyParams | None = None,
    quality_fn: Callable[[Sequence[BlockTrace]], float] | None = None,
) -> list[ReplayedRun]:
    """Re-route recorded blocks at a counterfactual threshold.

    Decisions come from the recorded frame scores; timings come from the
    recorded values where present and from `latency` otherwise (an error
    if a needed timing is missing and no params were given). Passing
    `policy` overrides the default threshold policy built from `tau`.
    Total time and accept rate follow the engine's accounting
    (`costmodel.simulate_time` and `run_video_detailed`).

    Pure over its inputs: two replays of the same records agree exactly.
    """
    if policy is None:
        policy = ThresholdPolicy(tau=tau, force_reject_block0=force_reject_block0)
    # Scoring is assumed overlapped (factor 0) when no params are given,
    # matching the engine's default accounting.
    factor = latency.overlap_factor if latency is not None else 0.0
    runs = []
    for prompt_id, group in _group_by_prompt(records).items():
        _check_contiguous(prompt_id, group)
        group.sort(key=_block_index)
        traces: list[BlockTrace] = []
        provenance: list[str] = []
        total = 0.0
        accepted = 0
        for record in group:
            b = record.block_index
            scores = FrameScoreVector(b, record.frame_scores)
            q = aggregate(scores, aggregation)
            decision = policy.decide(b, q)
            draft, decode, score = record.draft_time_s, record.decode_time_s, record.score_time_s
            needed = 3
            missing = (draft is None) + (decode is None) + (score is None)
            if decision.verdict is Verdict.ACCEPT:
                target = 0.0
                accepted += b > 0
            else:
                # A recorded 0 means the factual run accepted this block.
                target = record.target_time_s or None
                needed = 4
                missing += target is None
            if missing:
                if latency is None:
                    raise _no_fallback(prompt_id, b, (draft, decode, score, target))
                if draft is None:
                    draft = latency.c_draft
                if decode is None:
                    decode = latency.c_decode
                if score is None:
                    score = latency.c_score
                if target is None:
                    target = latency.c_target
                provenance.append(MODELED if missing == needed else MIXED)
            else:
                provenance.append(RECORDED)
            total += draft + decode + score * factor + target
            traces.append(
                BlockTrace(
                    block_index=b,
                    decision=decision,
                    aggregate_score=q,
                    frame_scores=scores,
                    draft_time_s=draft,
                    score_time_s=score,
                    target_time_s=target,
                    decode_time_s=decode,
                )
            )

        num_blocks = len(traces)
        summary = RunSummary(
            prompt_id=prompt_id,
            accept_rate_excl_block0=accepted / (num_blocks - 1) if num_blocks > 1 else 0.0,
            total_time_s=total,
            quality_proxy=quality_fn(traces) if quality_fn is not None else float("nan"),
            block_traces=tuple(traces),
        )
        runs.append(ReplayedRun(summary, tuple(provenance)))
    return runs
