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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    DecisionReason,
    FrameScoreVector,
    RoutingDecision,
    Verdict,
    keyed_generator,
)

__all__ = [
    "AggregationMode",
    "aggregate",
    "Policy",
    "ThresholdPolicy",
    "RandomPolicy",
    "AlwaysAcceptPolicy",
    "AlwaysRejectPolicy",
    "decide",
    "matched_random_policy",
    "policy_from_flags",
]


class AggregationMode(str, Enum):
    MIN_FRAME = "min_frame"
    MEAN_FRAME = "mean_frame"


def aggregate(scores: FrameScoreVector, mode: AggregationMode) -> float:
    """Collapse per-frame scores into the block score q."""
    if not scores.scores:
        raise ValueError("cannot aggregate an empty score vector")
    if not all(map(math.isfinite, scores.scores)):
        raise ValueError(f"non-finite frame score in block {scores.block_index}")
    if mode is AggregationMode.MIN_FRAME:
        return scores.minimum()
    if mode is AggregationMode.MEAN_FRAME:
        return scores.mean()
    raise ValueError(f"unknown aggregation mode: {mode}")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

# Decisions are immutable, so every policy hands out these shared instances.
_FORCED = RoutingDecision(Verdict.REJECT, DecisionReason.FORCED_FIRST_BLOCK)
_ABOVE = RoutingDecision(Verdict.ACCEPT, DecisionReason.ABOVE_THRESHOLD)
_BELOW = RoutingDecision(Verdict.REJECT, DecisionReason.BELOW_THRESHOLD)
_RANDOM_ACCEPT = RoutingDecision(Verdict.ACCEPT, DecisionReason.RANDOM_ACCEPT)
_RANDOM_REJECT = RoutingDecision(Verdict.REJECT, DecisionReason.RANDOM_REJECT)
_ALWAYS_ACCEPT = RoutingDecision(Verdict.ACCEPT, DecisionReason.ALWAYS_ACCEPT)
_ALWAYS_REJECT = RoutingDecision(Verdict.REJECT, DecisionReason.ALWAYS_REJECT)


@dataclass(kw_only=True)
class Policy:
    """Base routing policy. Subclasses implement _decide_unforced."""

    force_reject_block0: bool = False

    def forces_rejection(self, block_index: int) -> bool:
        return self.force_reject_block0 and block_index == 0

    def requires_score(self, block_index: int) -> bool:
        return False

    def decide(self, block_index: int, q: float | None) -> RoutingDecision:
        if self.forces_rejection(block_index):
            return _FORCED
        return self._decide_unforced(block_index, q)

    def _decide_unforced(self, block_index: int, q: float | None) -> RoutingDecision:
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(kw_only=True)
class ThresholdPolicy(Policy):
    """Accept iff q >= tau; the inequality is inclusive. Stateless."""

    tau: float = -0.7
    force_reject_block0: bool = True

    def requires_score(self, block_index: int) -> bool:
        return not self.forces_rejection(block_index)

    def _decide_unforced(self, block_index: int, q: float | None) -> RoutingDecision:
        if q is None:
            raise ValueError(f"threshold policy needs a score for block {block_index}")
        if q >= self.tau:
            return _ABOVE
        return _BELOW

    def label(self) -> str:
        return f"threshold(tau={self.tau:g})"


@dataclass(kw_only=True)
class RandomPolicy(Policy):
    """Accept with fixed probability, independent of the score.

    Owns its own seeded stream so toggling policies never perturbs
    generator noise; confine one instance to one run. Forced block-0
    rejections do not consume a draw.
    """

    accept_prob: float = 0.5
    rng_seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.accept_prob <= 1.0:
            raise ValueError(f"accept_prob must be in [0, 1], got {self.accept_prob}")
        self._rng = keyed_generator("random-policy", self.rng_seed)

    def _decide_unforced(self, block_index: int, q: float | None) -> RoutingDecision:
        if self._rng.random() < self.accept_prob:
            return _RANDOM_ACCEPT
        return _RANDOM_REJECT

    def label(self) -> str:
        prefix = "force_reject_random" if self.force_reject_block0 else "random"
        return f"{prefix}(rate={self.accept_prob:g})"


@dataclass(kw_only=True)
class AlwaysAcceptPolicy(Policy):
    """Accept every block (draft-only when force_reject_block0 is False)."""

    def _decide_unforced(self, block_index: int, q: float | None) -> RoutingDecision:
        return _ALWAYS_ACCEPT

    def label(self) -> str:
        return "always_accept"


@dataclass(kw_only=True)
class AlwaysRejectPolicy(Policy):
    """Reject every block (target-only content)."""

    def _decide_unforced(self, block_index: int, q: float | None) -> RoutingDecision:
        return _ALWAYS_REJECT

    def label(self) -> str:
        return "always_reject"


def decide(policy: Policy, block_index: int, q: float | None) -> RoutingDecision:
    return policy.decide(block_index, q)


def matched_random_policy(
    reference_accept_rate: float,
    seed: int,
    force_reject_block0: bool = False,
) -> RandomPolicy:
    """Random routing whose per-block accept probability matches a reference rate."""
    if not 0.0 <= reference_accept_rate <= 1.0:
        raise ValueError(
            f"reference_accept_rate must be in [0, 1], got {reference_accept_rate}"
        )
    return RandomPolicy(
        accept_prob=reference_accept_rate,
        force_reject_block0=force_reject_block0,
        rng_seed=seed,
    )


def policy_from_flags(
    kind: str,
    tau: float = -0.7,
    rate: float = 0.5,
    seed: int = 0,
    force_reject_first: bool | None = None,
) -> Policy:
    """Build a policy from CLI-style flags.

    force_reject_first defaults to True for threshold (the production
    policy) and False for every other kind.
    """
    kind = kind.replace("_", "-")
    if kind == "threshold":
        force = True if force_reject_first is None else force_reject_first
        return ThresholdPolicy(tau=tau, force_reject_block0=force)
    force = False if force_reject_first is None else force_reject_first
    if kind == "random":
        return RandomPolicy(accept_prob=rate, force_reject_block0=force, rng_seed=seed)
    if kind == "always-accept":
        return AlwaysAcceptPolicy(force_reject_block0=force)
    if kind == "always-reject":
        return AlwaysRejectPolicy(force_reject_block0=force)
    raise ValueError(f"unknown policy kind: {kind!r}")
