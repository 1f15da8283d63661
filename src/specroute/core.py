"""Shared domain types and configuration for the speculative routing pipeline.

Everything downstream (caches, router, engine, cost model, sweep harness)
imports its vocabulary from this module: the generation protocol constants,
the per-block payloads, the routing verdict record, and the per-run summary.
All types are immutable value objects after construction and safe to share
across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
import numpy as np

__all__ = [
    "ConfigError",
    "Producer",
    "Verdict",
    "DecisionReason",
    "GenerationConfig",
    "PromptSpec",
    "LatentBlock",
    "DecodedFrames",
    "FrameScoreVector",
    "RoutingDecision",
    "BlockTrace",
    "RunSummary",
    "default_config",
    "pixel_frame_count",
    "stable_key",
    "keyed_generator",
    "noise_seed_for_block",
    "array_digest",
    "block_digest",
    "summary_to_dict",
]


class ConfigError(ValueError):
    """A configuration value violates a protocol invariant."""


class Producer(str, Enum):
    """Which model produced a latent block."""

    DRAFT = "draft"
    TARGET = "target"


class Verdict(str, Enum):
    ACCEPT = "accept"
    REJECT = "reject"


class DecisionReason(str, Enum):
    """Why the router reached its verdict.

    Accept verdicts pair only with ABOVE_THRESHOLD, RANDOM_ACCEPT, or
    ALWAYS_ACCEPT; every other reason implies a rejection. Random draws
    get distinct accept/reject reasons so audit records stay unambiguous.
    """

    ABOVE_THRESHOLD = "above_threshold"
    BELOW_THRESHOLD = "below_threshold"
    FORCED_FIRST_BLOCK = "forced_first_block"
    RANDOM_ACCEPT = "random_accept"
    RANDOM_REJECT = "random_reject"
    ALWAYS_ACCEPT = "always_accept"
    ALWAYS_REJECT = "always_reject"


ACCEPT_REASONS = frozenset(
    {
        DecisionReason.ABOVE_THRESHOLD,
        DecisionReason.RANDOM_ACCEPT,
        DecisionReason.ALWAYS_ACCEPT,
    }
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Desk-scale latent geometry. Routing logic only ever observes frame counts,
# so the latent tensor just needs to be a real payload, not a realistic one.
LATENT_CHANNELS = 4
LATENT_HEIGHT = 8
LATENT_WIDTH = 8


@dataclass(frozen=True)
class GenerationConfig:
    """Protocol constants for one video generation run.

    The default instance reproduces the reference protocol: 9 blocks of 4
    denoising steps on schedule [1000, 937, 833, 625, 0], 3 latent frames
    per block decoding to 9 pixel frames for block 0 and 12 for later
    blocks, routing threshold -0.7, seed 42.
    """

    num_blocks: int = 9
    denoise_steps: int = 4
    timestep_schedule: tuple[int, ...] = (1000, 937, 833, 625, 0)
    guidance_scale: float = 3.0
    timestep_shift: float = 5.0
    latent_frames_per_block: int = 3
    pixel_frames_first_block: int = 9
    pixel_frames_later_block: int = 12
    threshold: float = -0.7
    seed: int = 42
    resolution: tuple[int, int] = (832, 480)
    # Forced rejections (block 0 under the default policy) skip scoring and
    # leave the block's aggregate score absent; set True to score anyway for
    # diagnostics or for exporting replayable traces.
    score_forced_rejections: bool = False

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ConfigError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.denoise_steps < 1:
            raise ConfigError(f"denoise_steps must be >= 1, got {self.denoise_steps}")
        sched = tuple(int(t) for t in self.timestep_schedule)
        object.__setattr__(self, "timestep_schedule", sched)
        if len(sched) != self.denoise_steps + 1:
            raise ConfigError(
                f"timestep_schedule needs {self.denoise_steps + 1} entries, got {len(sched)}"
            )
        if any(t < 0 for t in sched):
            raise ConfigError("timestep_schedule entries must be non-negative")
        if any(a <= b for a, b in zip(sched, sched[1:])):
            raise ConfigError(f"timestep_schedule must be strictly decreasing: {sched}")
        if sched[-1] != 0:
            raise ConfigError(f"timestep_schedule must end at 0, got {sched[-1]}")
        if self.guidance_scale <= 0 or self.timestep_shift <= 0:
            raise ConfigError("guidance_scale and timestep_shift must be positive")
        for name in ("latent_frames_per_block", "pixel_frames_first_block", "pixel_frames_later_block"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be unsigned")
        if not math.isfinite(self.threshold):
            raise ConfigError("threshold must be finite")
        res = (int(self.resolution[0]), int(self.resolution[1]))
        object.__setattr__(self, "resolution", res)
        if res[0] < 1 or res[1] < 1:
            raise ConfigError("resolution must be positive")

    def with_overrides(self, **kwargs) -> GenerationConfig:
        return replace(self, **kwargs)

    # -- key/value serialization (round-trips bit-exactly) ------------------

    def to_text(self) -> str:
        lines = ["# specroute generation config"]
        lines.append(f"num_blocks = {self.num_blocks}")
        lines.append(f"denoise_steps = {self.denoise_steps}")
        lines.append("timestep_schedule = " + ", ".join(str(t) for t in self.timestep_schedule))
        lines.append(f"guidance_scale = {self.guidance_scale!r}")
        lines.append(f"timestep_shift = {self.timestep_shift!r}")
        lines.append(f"latent_frames_per_block = {self.latent_frames_per_block}")
        lines.append(f"pixel_frames_first_block = {self.pixel_frames_first_block}")
        lines.append(f"pixel_frames_later_block = {self.pixel_frames_later_block}")
        lines.append(f"threshold = {self.threshold!r}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"resolution = {self.resolution[0]}x{self.resolution[1]}")
        lines.append(f"score_forced_rejections = {str(self.score_forced_rejections).lower()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> GenerationConfig:
        values: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        try:
            w, _, h = values["resolution"].partition("x")
            return cls(
                num_blocks=int(values["num_blocks"]),
                denoise_steps=int(values["denoise_steps"]),
                timestep_schedule=tuple(
                    int(t.strip()) for t in values["timestep_schedule"].split(",")
                ),
                guidance_scale=float(values["guidance_scale"]),
                timestep_shift=float(values["timestep_shift"]),
                latent_frames_per_block=int(values["latent_frames_per_block"]),
                pixel_frames_first_block=int(values["pixel_frames_first_block"]),
                pixel_frames_later_block=int(values["pixel_frames_later_block"]),
                threshold=float(values["threshold"]),
                seed=int(values["seed"]),
                resolution=(int(w), int(h)),
                score_forced_rejections=values.get("score_forced_rejections", "false") == "true",
            )
        except KeyError as exc:
            raise ConfigError(f"config file missing field {exc.args[0]!r}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())

    @classmethod
    def load(cls, path: str | Path) -> GenerationConfig:
        return cls.from_text(Path(path).read_text())


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
        return config.pixel_frames_first_block
    return config.pixel_frames_later_block


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
    """One generated latent block, tagged by the model that produced it."""

    block_index: int
    data: np.ndarray
    producer: Producer
    noise_seed: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        if not np.isfinite(arr).all():
            raise ValueError(f"latent block {self.block_index} contains non-finite values")


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


_FLOAT_ONLY = frozenset({float})


@dataclass(frozen=True, slots=True)
class FrameScoreVector:
    """Per-frame reward scores for one decoded block.

    Scores are stored as a tuple of plain floats; a tuple that already is
    one is kept as given, anything else (ints, numpy scalars, lists) is
    converted once.
    """

    block_index: int
    scores: tuple[float, ...]

    def __post_init__(self) -> None:
        scores = self.scores
        if type(scores) is not tuple or not set(map(type, scores)) <= _FLOAT_ONLY:
            object.__setattr__(self, "scores", tuple(map(float, scores)))

    def minimum(self) -> float:
        return min(self.scores)

    def mean(self) -> float:
        return sum(self.scores) / len(self.scores)


@dataclass(frozen=True, slots=True)
class RoutingDecision:
    verdict: Verdict
    reason: DecisionReason

    def __post_init__(self) -> None:
        accepted = self.reason in ACCEPT_REASONS
        if (self.verdict is Verdict.ACCEPT) != accepted:
            raise ValueError(f"verdict {self.verdict} inconsistent with reason {self.reason}")

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPT


@dataclass(frozen=True, slots=True)
class BlockTrace:
    """Audit record for one block of one run.

    aggregate_score and frame_scores are None when scoring was skipped
    (forced rejections under the default config, and pure target-only
    runs where no draft exists to score). All times are simulated seconds
    from the cost model, never wall-clock of the simulator.
    """

    block_index: int
    decision: RoutingDecision
    aggregate_score: float | None = None
    frame_scores: FrameScoreVector | None = None
    draft_time_s: float = 0.0
    score_time_s: float = 0.0
    target_time_s: float = 0.0
    decode_time_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("draft_time_s", "score_time_s", "target_time_s", "decode_time_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, slots=True)
class RunSummary:
    """Outcome of one full video run.

    accept_rate_excl_block0 counts accepted blocks among indices 1..B-1
    over B-1 (0.0 when B == 1 and no block is eligible).
    """

    prompt_id: str
    accept_rate_excl_block0: float
    total_time_s: float
    quality_proxy: float
    block_traces: tuple[BlockTrace, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "block_traces", tuple(self.block_traces))


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


def array_digest(arr: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def block_digest(block: LatentBlock) -> str:
    """Content digest of a latent block (index, producer, payload, seed)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(f"{block.block_index}:{block.producer.value}:{block.noise_seed}:".encode())
    h.update(str(block.data.shape).encode())
    h.update(np.ascontiguousarray(block.data).tobytes())
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
        "verdict": trace.decision.verdict.value,
        "reason": trace.decision.reason.value,
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
