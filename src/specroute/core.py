"""Shared domain types and configuration for the speculative routing pipeline.

Everything downstream (caches, router, engine, cost model, sweep harness)
imports its vocabulary from this module: the generation protocol constants,
the per-block payloads, the routing decision (a DecisionReason, which also
says whether the block was accepted), and the per-run summary.
All types are immutable value objects after construction and safe to share
across threads.

Frame scores are checked once, where they enter: by checked_scores for a
scorer's or a quality model's scores, and by the trace record checker in
traceio for recorded ones. FrameScoreVector, BlockTrace and RunSummary
are plain named tuples whose constructors check nothing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ConfigError",
    "Producer",
    "DecisionReason",
    "GenerationConfig",
    "PromptSpec",
    "LatentBlock",
    "DecodedFrames",
    "FrameScoreVector",
    "checked_scores",
    "BlockTrace",
    "RunSummary",
    "default_config",
    "pixel_frame_count",
    "stable_key",
    "keyed_generator",
    "noise_seed_for_block",
    "block_digest",
    "summary_to_dict",
]


class ConfigError(ValueError):
    """A configuration value violates a protocol invariant."""


class Producer(str, Enum):
    """Which model produced a latent block."""

    DRAFT = "draft"
    TARGET = "target"


class DecisionReason(str, Enum):
    """The router's decision for one block, named by why it was reached.

    Each reason fixes the verdict, held in the member's `accepted`
    attribute: ABOVE_THRESHOLD, RANDOM_ACCEPT and ALWAYS_ACCEPT accept the
    draft, and every other reason rejects it. Random draws get distinct
    accept/reject reasons so audit records stay unambiguous.
    """

    accepted: bool

    def __new__(cls, value: str, accepted: bool) -> DecisionReason:
        member = str.__new__(cls, value)
        member._value_ = value
        member.accepted = accepted
        return member

    ABOVE_THRESHOLD = ("above_threshold", True)
    BELOW_THRESHOLD = ("below_threshold", False)
    FORCED_FIRST_BLOCK = ("forced_first_block", False)
    RANDOM_ACCEPT = ("random_accept", True)
    RANDOM_REJECT = ("random_reject", False)
    ALWAYS_ACCEPT = ("always_accept", True)
    ALWAYS_REJECT = ("always_reject", False)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Desk-scale latent geometry. Routing logic only ever observes frame counts,
# so the latent tensor just needs to be a real payload, not a realistic one.
LATENT_CHANNELS = 4
LATENT_HEIGHT = 8
LATENT_WIDTH = 8

# The reference protocol's block layout: every block holds 3 latent frames,
# which decode to 9 pixel frames for block 0 and 12 for later blocks.
LATENT_FRAMES_PER_BLOCK = 3
PIXEL_FRAMES_FIRST_BLOCK = 9
PIXEL_FRAMES_LATER_BLOCK = 12


@dataclass(frozen=True)
class GenerationConfig:
    """Per-run settings for one video generation run.

    The default instance is the reference protocol: 9 blocks, seed 42. The
    block layout is fixed (see LATENT_FRAMES_PER_BLOCK and the pixel frame
    counts beside it). The routing threshold is not part of the config: it
    comes only from the --tau and --tau-list flags.
    """

    # The paper's reference protocol also fixes 4 denoising steps per block
    # at 832x480 (PAPER.md). The synthetic stack does not simulate denoising
    # or pixel resolution, so neither is a setting here.
    num_blocks: int = 9
    seed: int = 42
    # Forced rejections (block 0 under the default policy) skip scoring and
    # leave the block's aggregate score absent; set True to score anyway for
    # diagnostics or for exporting replayable traces.
    score_forced_rejections: bool = False

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.seed < 0:
            raise ConfigError("seed must be unsigned")

    def with_overrides(self, **kwargs) -> GenerationConfig:
        return replace(self, **kwargs)


def default_config() -> GenerationConfig:
    """The reference generation protocol (see GenerationConfig docstring)."""
    return GenerationConfig()


def pixel_frame_count(config: GenerationConfig, block_index: int) -> int:
    """Number of pixel frames the decoder emits for a given block."""
    if not 0 <= block_index < config.num_blocks:
        raise IndexError(
            f"block_index {block_index} out of range [0, {config.num_blocks})"
        )
    if block_index == 0:
        return PIXEL_FRAMES_FIRST_BLOCK
    return PIXEL_FRAMES_LATER_BLOCK


# ---------------------------------------------------------------------------
# Payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PromptSpec:
    """A conditioning prompt; prompt_id must be unique within a run set."""

    prompt_id: str
    text: str = ""


@dataclass(frozen=True)
class LatentBlock:
    """One generated latent block, tagged by the model that produced it.

    The payload is copied once into a private ``bytes`` object and exposed
    as a read-only float64 view over it. The block never aliases the
    caller's array, and numpy refuses ``setflags(write=True)`` on a view of
    immutable memory, so a block's data, and hence its digest, cannot
    change after construction.

    digest is block_digest(self), taken once here: it is the only place a
    block is hashed, except for KVCache.verify_integrity's re-hash. Copies
    and unpickled blocks are rebuilt through the constructor, so they get
    a read-only payload and their own digest too.
    """

    block_index: int
    data: np.ndarray
    producer: Producer
    noise_seed: int
    digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError(f"latent block {self.block_index} contains non-finite values")
        frozen = np.frombuffer(arr.tobytes(), dtype=np.float64).reshape(arr.shape)
        object.__setattr__(self, "data", frozen)
        object.__setattr__(self, "digest", block_digest(self))

    def __reduce__(self) -> tuple:
        # copy, deepcopy and every pickle protocol rebuild through __init__.
        return type(self), (self.block_index, self.data, self.producer, self.noise_seed)


@dataclass(frozen=True)
class DecodedFrames:
    """Pixel-space proxy frames for one block."""

    block_index: int
    frames: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        frozen = []
        for f in self.frames:
            arr = np.asarray(f, dtype=np.float64)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "frames", tuple(frozen))


def all_finite(values: tuple[float, ...]) -> bool:
    """Whether every float in values is finite.

    A float sum is finite only if every term is, so one sum settles the
    common case; only a sum that overflows needs the scan.
    """
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


_FLOAT_ONLY = frozenset({float})


class FrameScoreVector(NamedTuple):
    """Per-frame reward scores for one decoded block.

    The scores are a non-empty tuple of finite plain floats, so aggregation
    never rescans them. The constructor checks nothing: scores from a model
    enter through checked_scores, and replay builds vectors from checked
    trace records.
    """

    block_index: int
    scores: tuple[float, ...]

    def mean(self) -> float:
        return sum(self.scores) / len(self.scores)


def checked_scores(block_index: int, values: Iterable[float]) -> FrameScoreVector:
    """The score vector of one block's scores, checked once where they enter.

    A tuple that already holds only floats is kept as given; anything else
    (ints, numpy scalars, lists) is converted to a tuple of floats once.
    Raises ValueError for an empty or non-finite vector.
    """
    scores = values
    if type(scores) is not tuple or not set(map(type, scores)) <= _FLOAT_ONLY:
        scores = tuple(map(float, scores))
    if not scores:
        raise ValueError("cannot aggregate an empty score vector")
    if not all_finite(scores):
        raise ValueError(f"non-finite frame score in block {block_index}")
    return FrameScoreVector(block_index, scores)


class BlockTrace(NamedTuple):
    """Audit record for one block of one run.

    aggregate_score and frame_scores are None when scoring was skipped
    (forced rejections under the default config, and pure target-only
    runs where no draft exists to score). All times are simulated seconds
    from the cost model, never wall-clock of the simulator. The
    constructor checks nothing: the times come from LatencyParams, which
    checks its costs, or from checked trace records.
    """

    block_index: int
    decision: DecisionReason
    aggregate_score: float | None = None
    frame_scores: FrameScoreVector | None = None
    draft_time_s: float = 0.0
    score_time_s: float = 0.0
    target_time_s: float = 0.0
    decode_time_s: float = 0.0


class RunSummary(NamedTuple):
    """Outcome of one full video run.

    accept_rate_excl_block0 counts accepted blocks among indices 1..B-1
    over B-1 (0.0 when B == 1 and no block is eligible).
    """

    prompt_id: str
    accept_rate_excl_block0: float
    total_time_s: float
    quality_proxy: float
    block_traces: tuple[BlockTrace, ...] = ()


# ---------------------------------------------------------------------------
# Deterministic hashing and keyed RNG streams
# ---------------------------------------------------------------------------


def stable_key(*parts: object) -> int:
    """Collapse heterogeneous parts into a stable 64-bit stream key.

    Platform- and process-independent (unlike builtin hash), so seeds
    derived here reproduce across runs and machines.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b:" + part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return int.from_bytes(h.digest(), "big")


def keyed_generator(*parts: object) -> np.random.Generator:
    """A fresh, independent RNG stream keyed by the given parts.

    Seeding goes through the stable 64-bit key rather than the OS entropy
    pool, so streams reproduce across processes and machines.
    """
    return np.random.Generator(np.random.PCG64(seed=stable_key(*parts)))


def noise_seed_for_block(master_seed: int, prompt_id: str, block_index: int) -> int:
    """Derive the per-block initial-noise seed shared by drafter and target."""
    return stable_key("noise", master_seed, prompt_id, block_index)


def block_digest(block: LatentBlock) -> str:
    """Content digest of a latent block (index, producer, payload, seed), hashed afresh.

    LatentBlock.digest holds this value from construction on.
    """
    header = f"{block.block_index}:{block.producer.value}:{block.noise_seed}:{block.data.shape}"
    h = hashlib.blake2b(header.encode(), digest_size=16)
    h.update(np.ascontiguousarray(block.data))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# JSON-friendly views of run records
# ---------------------------------------------------------------------------


def _float_or_none(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return float(x)


def trace_to_dict(trace: BlockTrace) -> dict:
    return {
        "block_index": trace.block_index,
        "verdict": "accept" if trace.decision.accepted else "reject",
        "reason": trace.decision.value,
        "aggregate_score": _float_or_none(trace.aggregate_score),
        "frame_scores": list(trace.frame_scores.scores) if trace.frame_scores else None,
        "draft_time_s": trace.draft_time_s,
        "score_time_s": trace.score_time_s,
        "target_time_s": trace.target_time_s,
        "decode_time_s": trace.decode_time_s,
    }


def summary_to_dict(summary: RunSummary) -> dict:
    """JSON-serializable view of a run (NaN quality maps to null)."""
    return {
        "prompt_id": summary.prompt_id,
        "accept_rate_excl_block0": summary.accept_rate_excl_block0,
        "total_time_s": summary.total_time_s,
        "quality_proxy": _float_or_none(summary.quality_proxy),
        "block_traces": [trace_to_dict(t) for t in summary.block_traces],
    }
