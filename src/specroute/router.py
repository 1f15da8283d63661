"""Score aggregation and routing policies.

A block's quality score is the worst (minimum) per-frame reward by
default; averaging is available as an ablation arm because it masks
single-frame artifacts. Policies map (block_index, score) to an
accept/reject decision: a fixed inclusive threshold with forced
first-block rejection is the production policy, with random and
always-accept/always-reject arms for baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .core import (
    DecisionReason,
    FrameScoreVector,
    keyed_generator,
    stable_key,
)

__all__ = [
    "AggregationMode",
    "aggregate",
    "Policy",
    "ThresholdPolicy",
    "RandomPolicy",
    "AlwaysAcceptPolicy",
    "AlwaysRejectPolicy",
]


class AggregationMode(str, Enum):
    MIN_FRAME = "min_frame"
    MEAN_FRAME = "mean_frame"


def aggregate(scores: FrameScoreVector, mode: AggregationMode) -> float:
    """Collapse per-frame scores into the block score q.

    Scores are checked non-empty and finite where they enter, so only the
    mean, which finite scores can push past float range, is checked here.
    """
    if mode is AggregationMode.MIN_FRAME:
        return min(scores.scores)
    if mode is AggregationMode.MEAN_FRAME:
        q = scores.mean()
        if not math.isfinite(q):
            raise ValueError(f"mean frame score of block {scores.block_index} overflows a float")
        return q
    raise ValueError(f"unknown aggregation mode: {mode}")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

# The decisions policies return, as module globals: decide runs once per block.
_FORCED = DecisionReason.FORCED_FIRST_BLOCK
_ABOVE = DecisionReason.ABOVE_THRESHOLD
_BELOW = DecisionReason.BELOW_THRESHOLD
_RANDOM_ACCEPT = DecisionReason.RANDOM_ACCEPT
_RANDOM_REJECT = DecisionReason.RANDOM_REJECT
_ALWAYS_ACCEPT = DecisionReason.ALWAYS_ACCEPT
_ALWAYS_REJECT = DecisionReason.ALWAYS_REJECT


@dataclass(kw_only=True)
class Policy:
    """Base routing policy. Subclasses implement _decide_unforced."""

    force_reject_block0: bool = False

    def forces_rejection(self, block_index: int) -> bool:
        return self.force_reject_block0 and block_index == 0

    def decide(self, block_index: int, q: float | None) -> DecisionReason:
        # forces_rejection, inlined: decide runs once per block.
        if self.force_reject_block0 and block_index == 0:
            return _FORCED
        return self._decide_unforced(block_index, q)

    def _decide_unforced(self, block_index: int, q: float | None) -> DecisionReason:
        raise NotImplementedError

    def for_run(self, *key: object) -> Policy:
        """The policy one run routes with; a stateless policy serves every run itself."""
        return self


@dataclass(kw_only=True)
class ThresholdPolicy(Policy):
    """Accept iff q >= tau; the inequality is inclusive. Stateless."""

    tau: float = -0.7
    force_reject_block0: bool = True

    def _decide_unforced(self, block_index: int, q: float | None) -> DecisionReason:
        if q is None:
            raise ValueError(f"threshold policy needs a score for block {block_index}")
        if q >= self.tau:
            return _ABOVE
        return _BELOW


@dataclass(kw_only=True)
class RandomPolicy(Policy):
    """Accept with fixed probability, independent of the score.

    Owns its own seeded stream so toggling policies never perturbs
    generator noise; confine one instance to one run, as for_run does.
    Forced block-0 rejections do not consume a draw.
    """

    accept_prob: float = 0.5
    rng_seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.accept_prob <= 1.0:
            raise ValueError(f"accept_prob must be in [0, 1], got {self.accept_prob}")
        self._rng = keyed_generator("random-policy", self.rng_seed)

    def for_run(self, *key: object) -> RandomPolicy:
        """A copy drawing from the stream keyed by `key`, so runs never share draws."""
        return replace(self, rng_seed=stable_key(*key))

    def _decide_unforced(self, block_index: int, q: float | None) -> DecisionReason:
        if self._rng.random() < self.accept_prob:
            return _RANDOM_ACCEPT
        return _RANDOM_REJECT


@dataclass(kw_only=True)
class AlwaysAcceptPolicy(Policy):
    """Accept every block (draft-only when force_reject_block0 is False)."""

    def _decide_unforced(self, block_index: int, q: float | None) -> DecisionReason:
        return _ALWAYS_ACCEPT


@dataclass(kw_only=True)
class AlwaysRejectPolicy(Policy):
    """Reject every block (target-only content)."""

    def _decide_unforced(self, block_index: int, q: float | None) -> DecisionReason:
        return _ALWAYS_REJECT

