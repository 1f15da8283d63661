"""The per-block inference loop: draft, decode, score, route, commit or regenerate.

One run walks the blocks of a single video in order. For each block the
drafter proposes a candidate from the block's noise seed and the drafter
KV cache is committed unconditionally, so the drafter always conditions
on its own prior outputs regardless of routing. The candidate is decoded
(after snapshotting the decoder cache) and scored; the policy then either
accepts the draft into the target KV cache and emits its frames, or
restores the decoder cache and has the target regenerate the block from
the same noise seed.

One draft serves every arm. run_arms_detailed routes one prompt under
several arms (policy, aggregation, drafting) in lockstep: each block is
drafted and committed to the drafter KV cache once. The arms walk the
blocks in lanes: a lane is the set of arms whose verdict histories match
so far, and it holds one target KV cache, one decoder state and one list
of emitted frames. All arms start in one lane. Per lane and block the
draft is decoded once and scored once (only if some arm needs scores);
each arm's rule aggregates the scores and its own policy decides.
The accepting arms commit the draft; the rejecting arms, target-only arms
among them, restore the decoder snapshot and have the target regenerate
and commit once. When both sides are non-empty the rejecting side forks
into a new lane with a KVCache.fork() and its own restored decoder state.

This is sound because GeneratorInterface, DecoderInterface and
ScorerInterface implementations are deterministic and the drafter
conditions only on its own cache, never on routing: arms with equal
verdict histories hold equal caches, decoder states and frames, so each
arm run alone would compute exactly what its lane computes. For a real
stack, one drafter pass serves every arm, and one decode, reward pass and
regeneration serve every arm in a lane.

Runs are strictly sequential within a video (block b+1 depends on block
b's decision). Runs over different prompts share no mutable state and may
execute in parallel.

One rule (_route_block) routes a block under an arm, in the engine and in
route_run alike: whether the block is scored, its aggregate score, the
policy's decision, the check that an undrafted block is rejected, its
times and its BlockTrace.
route_run applies it to a run's scores with no models: exact only where
scores do not depend on routing, so real stacks run through the engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from .caches import CacheOwner, KVCache, RestorableState, decode_restore, decode_snapshot
from .core import (
    BlockTrace,
    DecodedFrames,
    FrameScoreVector,
    GenerationConfig,
    LatentBlock,
    PromptSpec,
    RunSummary,
    checked_scores,
    noise_seed_for_block,
    pixel_frame_count,
)
from .costmodel import LatencyParams, simulate_time
from .router import AggregationMode, Policy, aggregate

__all__ = [
    "GeneratorInterface",
    "DecoderInterface",
    "ScorerInterface",
    "BlockExecutionError",
    "RunResult",
    "Arm",
    "run_arms_detailed",
    "run_video_detailed",
    "route_run",
    "summarize_run",
]

QualityFn = Callable[[Sequence[BlockTrace]], float]
# As LatencyParams.block_times: (accepted, scored, drafted) -> (draft, score, target, decode)
TimesFn = Callable[[bool, bool, bool], tuple[float, float, float, float]]


class GeneratorInterface(ABC):
    """A block generator (drafter or target).

    Implementations must be deterministic: identical (noise_seed, kv
    contents, block_index, prompt) produce identical output.
    """

    @abstractmethod
    def generate(
        self, noise_seed: int, kv: KVCache, block_index: int, prompt: PromptSpec
    ) -> LatentBlock: ...


class DecoderInterface(ABC):
    """Causal frame decoder with explicit, snapshottable temporal state.

    decode must be deterministic given (latent, state): lanes of arms
    share one decode, so equal inputs must give equal frames and states.
    """

    @abstractmethod
    def fresh_state(self) -> RestorableState: ...

    @abstractmethod
    def decode(self, latent: LatentBlock, state: RestorableState) -> DecodedFrames: ...


class ScorerInterface(ABC):
    """Per-frame reward model; deterministic per (frame, prompt)."""

    @abstractmethod
    def score(self, frame, prompt: PromptSpec) -> float: ...


class BlockExecutionError(RuntimeError):
    """A generator, decoder, or scorer failed; carries the failing block."""

    def __init__(self, block_index: int, stage: str, cause: object):
        super().__init__(f"block {block_index}: {stage} failed: {cause}")
        self.block_index = block_index
        self.stage = stage
        self.detail = str(cause)

    def __reduce__(self):
        # Rebuilt from its parts, so a failure in a sweep worker reaches the caller intact.
        return type(self), (self.block_index, self.stage, self.detail)


@dataclass(frozen=True)
class RunResult:
    """Full artifacts of one run; summary is the JSON-facing subset."""

    summary: RunSummary
    emitted_frames: tuple[DecodedFrames, ...]
    drafter_kv: KVCache
    target_kv: KVCache


class Arm(NamedTuple):
    """One way to route a run: a policy, its score aggregation, and whether it drafts.

    With draft_enabled=False the arm never uses the draft and every block
    is generated by the target directly; this is the pure target-only
    deployment used as the speedup baseline, and its per-block cost is
    c_target alone (emission decode is folded into c_target by the fit).

    label names the arm in an experiment: the sweep's row for it, and the
    key of its per-run policy stream (Policy.for_run). The engine ignores it.
    """

    policy: Policy
    aggregation: AggregationMode = AggregationMode.MIN_FRAME
    draft_enabled: bool = True
    label: str = ""


def _guard(block_index: int, stage: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise BlockExecutionError(block_index, stage, exc) from exc


def run_arms_detailed(
    config: GenerationConfig,
    prompt: PromptSpec,
    drafter: GeneratorInterface | None,
    target: GeneratorInterface,
    decoder: DecoderInterface,
    scorer: ScorerInterface | None,
    arms: Sequence[Arm],
    latency: LatencyParams | None,
    quality_fn: QualityFn | None = None,
) -> list[RunResult]:
    """Run one video under every arm in lockstep; one RunResult per arm, in order.

    Each block's draft is generated and committed once, and every result
    shares the one drafter KVCache (empty when no arm drafts). Arms that
    end in one lane likewise share that lane's target KVCache and
    emitted-frames tuple. Each result equals that of the arm run alone.
    Before returning, the drafter cache and every lane's target cache are
    verified once against their recorded digests (IntegrityError if not).
    Arms must not share a stateful policy such as a RandomPolicy, whose
    draws would interleave.
    """
    if latency is None:
        raise ValueError("engine runs require latency params to attribute block timings")
    drafting = any(arm.draft_enabled for arm in arms)
    if drafting and drafter is None:
        raise ValueError("draft_enabled runs need a drafter")
    if drafting and scorer is None:
        raise ValueError("draft_enabled runs need a scorer")

    drafter_kv = KVCache(CacheOwner.DRAFTER)
    traces: list[list[BlockTrace]] = [[] for _ in arms]
    lanes = [_Lane(list(range(len(arms))), KVCache(CacheOwner.TARGET), decoder.fresh_state(), [])]
    draft = None
    for b in range(config.num_blocks):
        nseed = noise_seed_for_block(config.seed, prompt.prompt_id, b)
        if drafting:
            draft = _guard(b, "drafter", drafter.generate, nseed, drafter_kv, b, prompt)
            # Unconditional: the drafter conditions on its own outputs, never on routing.
            drafter_kv.commit(draft)
        expected = pixel_frame_count(config, b)
        for lane in list(lanes):
            forked = _run_lane_block(
                config, prompt, target, decoder, scorer, arms, latency, traces,
                lane, b, nseed, draft, expected,
            )
            if forked is not None:
                lanes.append(forked)

    # Commits hash only the new block; every entry is checked once here.
    drafter_kv.verify_integrity()
    for lane in lanes:
        lane.target_kv.verify_integrity()
    results: list = [None] * len(arms)
    for lane in lanes:
        emitted = tuple(lane.emitted)
        for k in lane.arms:
            summary = summarize_run(prompt.prompt_id, traces[k], latency, quality_fn)
            results[k] = RunResult(summary, emitted, drafter_kv, lane.target_kv)
    return results


_accepted = attrgetter("decision.accepted")


def summarize_run(
    prompt_id: str,
    traces: Sequence[BlockTrace],
    latency: LatencyParams | None,
    quality_fn: QualityFn | None,
) -> RunSummary:
    """Account one run from its complete block trace; route_run and the engine's lanes end here.

    The accept rate counts accepted blocks among 1..B-1 over B-1 (0.0 when
    B == 1), total time is simulate_time(traces, latency), and quality is
    quality_fn(traces), or NaN without one.
    """
    traces = tuple(traces)
    num_blocks = len(traces)
    accepted = sum(map(_accepted, islice(traces, 1, None)))
    return RunSummary(
        prompt_id=prompt_id,
        accept_rate_excl_block0=accepted / (num_blocks - 1) if num_blocks > 1 else 0.0,
        total_time_s=simulate_time(traces, latency),
        quality_proxy=quality_fn(traces) if quality_fn is not None else float("nan"),
        block_traces=traces,
    )


def route_run(
    prompt_id: str, vectors: Sequence[FrameScoreVector], arm: Arm,
    score_forced_rejections: bool, times: TimesFn, latency: LatencyParams | None,
    quality_fn: QualityFn | None,
) -> RunSummary:
    """Route one run of len(vectors) blocks by the one rule, from their scores alone.

    vectors[b] is block b's draft scores, read (and aggregated under
    arm.aggregation) only for scored blocks. times(accepted, scored,
    drafted) gives a block's (draft, score, target, decode) seconds, as
    LatencyParams.block_times does; it is called once per block, in block
    order. arm.policy decides as given, so a random policy must be the
    run's own copy (Policy.for_run).

    Limit: exact for any stack whose scores do not depend on routing, such
    as recorded traces and the synthetic stack, where it equals
    run_arms_detailed. A real stack decodes each draft through decoder
    state that routing changes, so it runs through run_arms_detailed.
    """
    traces = [_route_block(b, arm, score_forced_rejections, vectors, times)
              for b in range(len(vectors))]
    return summarize_run(prompt_id, traces, latency, quality_fn)


def _route_block(
    b: int, arm: Arm, score_forced: bool, vectors: Sequence[FrameScoreVector], times: TimesFn,
) -> BlockTrace:
    """The routing rule: block b's decision and trace under one arm.

    A drafted block is scored unless its policy forces it out and
    score_forced is off; only then is vectors[b] read, and its aggregate
    under arm.aggregation is the q the policy decides on. A block that is
    not drafted is never scored, and its policy must reject it.
    """
    policy, drafted = arm.policy, arm.draft_enabled
    scored = drafted and (score_forced or not policy.forces_rejection(b))
    vector = vectors[b] if scored else None
    q = aggregate(vector, arm.aggregation) if scored else None
    decision = policy.decide(b, q)
    accepted = decision.accepted
    if accepted and not drafted:
        raise ValueError("draft_enabled=False requires a policy that rejects every block")
    return BlockTrace(b, decision, q, vector, *times(accepted, scored, drafted))


def run_video_detailed(
    config: GenerationConfig,
    prompt: PromptSpec,
    drafter: GeneratorInterface | None,
    target: GeneratorInterface,
    decoder: DecoderInterface,
    scorer: ScorerInterface | None,
    policy: Policy,
    aggregation: AggregationMode = AggregationMode.MIN_FRAME,
    latency: LatencyParams | None = None,
    quality_fn: QualityFn | None = None,
    draft_enabled: bool = True,
) -> RunResult:
    """Run one video under one Arm and keep every artifact (frames, caches, traces)."""
    (result,) = run_arms_detailed(
        config, prompt, drafter, target, decoder, scorer,
        [Arm(policy, aggregation, draft_enabled)], latency, quality_fn,
    )
    return result


@dataclass(slots=True)
class _Lane:
    """Arms (by index) whose verdict histories match so far, and the state they share."""

    arms: list[int]
    target_kv: KVCache
    state: RestorableState
    emitted: list[DecodedFrames]


def _run_lane_block(
    config, prompt, target, decoder, scorer, arms, latency, traces,
    lane, b, nseed, draft, expected,
) -> _Lane | None:
    """Route block b for one lane; returns the lane its rejecting arms fork into, if any."""
    snapshot = vectors = None
    if any(arms[k].draft_enabled for k in lane.arms):
        snapshot = decode_snapshot(lane.state)
        draft_frames = _guard(b, "decode", decoder.decode, draft, lane.state)
        # The draft is scored once, when a rule first reads its scores.
        # Only index b is read, so a defaultdict's factory, which takes no key, serves.
        vectors = defaultdict(lambda: checked_scores(
            b, [_guard(b, "scorer", scorer.score, frame, prompt) for frame in draft_frames.frames]
        ))
    score_forced = config.score_forced_rejections
    accepting, rejecting = [], []
    for k in lane.arms:
        trace = _route_block(b, arms[k], score_forced, vectors, latency.block_times)
        traces[k].append(trace)
        (accepting if trace.decision.accepted else rejecting).append(k)

    rejected = lane
    if accepting and rejecting:
        # The rejecting arms fork before the draft is committed, so they keep the shared prefix.
        rejected = _Lane(rejecting, lane.target_kv.fork(), lane.state.clone(), list(lane.emitted))
        lane.arms = accepting
    if accepting:
        lane.target_kv.commit(draft)
        _emit(lane, draft_frames, b, expected)
    if rejecting:
        if snapshot is not None:
            decode_restore(rejected.state, snapshot)
        regen = _guard(b, "target", target.generate, nseed, rejected.target_kv, b, prompt)
        rejected.target_kv.commit(regen)
        _emit(rejected, _guard(b, "decode", decoder.decode, regen, rejected.state), b, expected)
    return rejected if rejected is not lane else None


def _emit(lane: _Lane, frames: DecodedFrames, b: int, expected: int) -> None:
    if len(frames.frames) != expected:
        error = ValueError(f"expected {expected} frames, got {len(frames.frames)}")
        raise BlockExecutionError(b, "decode", error)
    lane.emitted.append(frames)

