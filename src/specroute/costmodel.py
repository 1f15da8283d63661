"""The runtime cost model of a block, and its fit to measured (row, seconds) pairs.

The timing model is linear: every drafted block pays a draft-path cost
(drafter forward pass plus draft decode, plus scoring times an overlap
factor), and every rejected block additionally pays the target cost.
Target-cost includes the rejected-path emission decode; only the sum of
draft and decode costs is identifiable from end-to-end times, so the
split between c_draft and c_decode is an attribution convention.

LatencyParams.block_times is the one home of a block's modelled cost:
every BlockTrace the engine builds takes its times from it, and so does
replay for each timing a trace record lacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import BlockTrace

__all__ = [
    "OverlapMode",
    "LatencyParams",
    "LatencyFitError",
    "LatencyFitReport",
    "fit_latencies",
    "simulate_time",
    "speedup",
    "expected_rejected_blocks",
]

TARGET_ONLY = "target_only"
DRAFT_ONLY = "draft_only"

# Blocks per video in the reference table's protocol. Every fit of the
# table's rows assumes this.
TABLE_NUM_BLOCKS = 9

# Share of the fitted draft-path cost booked as c_decode. End-to-end times
# identify only c_draft + c_decode, so the split is a convention.
DECODE_FRACTION = 0.25


class OverlapMode(str, Enum):
    # Reward scoring runs on a second device and does not block denoising,
    # so its overlappable cost contributes nothing to wall-clock by default.
    SCORING_OVERLAPPED = "scoring_overlapped"
    FULLY_SEQUENTIAL = "fully_sequential"


class LatencyFitError(RuntimeError):
    """The latency fit is infeasible or the input rows are unusable."""


@dataclass(frozen=True)
class LatencyParams:
    """Simulated seconds per block for each pipeline component."""

    c_draft: float
    c_target: float
    c_decode: float
    c_score: float = 0.0
    overlap_mode: OverlapMode = OverlapMode.SCORING_OVERLAPPED

    def __post_init__(self) -> None:
        for name in ("c_draft", "c_target", "c_decode", "c_score"):
            value = getattr(self, name)
            if not 0.0 <= value < float("inf"):  # also rejects NaN
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def overlap_factor(self) -> float:
        return 0.0 if self.overlap_mode is OverlapMode.SCORING_OVERLAPPED else 1.0

    def block_times(
        self, accepted: bool, scored: bool, drafted: bool = True
    ) -> tuple[float, float, float, float]:
        """Modelled (draft, score, target, decode) seconds of one block.

        A drafted block pays c_draft and c_decode, c_score if it was
        scored, and c_target unless it was accepted. A block that is not
        drafted is generated by the target alone and pays c_target only.
        """
        if not drafted:
            return 0.0, 0.0, self.c_target, 0.0
        score = self.c_score if scored else 0.0
        return self.c_draft, score, 0.0 if accepted else self.c_target, self.c_decode


@dataclass(frozen=True)
class LatencyFitReport:
    """Per-row predictions and relative residuals from fit_latencies."""

    rows: tuple[tuple[str, float, float, float], ...]  # (label, measured, predicted, rel_err)

    @property
    def max_abs_rel_error(self) -> float:
        return max(abs(r[3]) for r in self.rows)

    def lines(self) -> list[str]:
        out = []
        for label, measured, predicted, rel in self.rows:
            out.append(
                f"{label:<22} measured {measured:7.2f}s  predicted {predicted:7.2f}s  "
                f"residual {rel * 100:+.2f}%"
            )
        out.append(f"max |residual| = {self.max_abs_rel_error * 100:.2f}%")
        return out


def expected_rejected_blocks(accept_rate_excl_block0: float, num_blocks: int) -> float:
    """Expected rejections per video under forced block-0 rejection."""
    return 1.0 + (num_blocks - 1) * (1.0 - accept_rate_excl_block0)


def fit_latencies(
    rows: Sequence[tuple[str | float, float]],
) -> tuple[LatencyParams, LatencyFitReport]:
    """Non-negative least-squares fit of the linear timing model.

    Each row is (accept_rate | "target_only" | "draft_only", measured seconds).
    Threshold rows are mapped to expected rejection counts; the target-only
    row pins B * c_target and the draft-only row pins the draft-path cost,
    with B = TABLE_NUM_BLOCKS. DECODE_FRACTION of the draft-path cost is
    attributed to c_decode for trace bookkeeping.
    """
    if len(rows) < 4:
        raise LatencyFitError("need at least 4 rows including both baselines")
    kinds = {r[0] for r in rows if isinstance(r[0], str)}
    missing = {TARGET_ONLY, DRAFT_ONLY} - kinds
    if missing:
        raise LatencyFitError(f"missing baseline rows: {sorted(missing)}")

    design, targets, labels = [], [], []
    for kind, time_s in rows:
        if time_s <= 0:
            raise LatencyFitError(f"non-positive measured time {time_s} for row {kind!r}")
        if kind == TARGET_ONLY:
            design.append((0.0, float(TABLE_NUM_BLOCKS)))
            labels.append(TARGET_ONLY)
        elif kind == DRAFT_ONLY:
            design.append((float(TABLE_NUM_BLOCKS), 0.0))
            labels.append(DRAFT_ONLY)
        else:
            rate = float(kind)
            if not 0.0 <= rate <= 1.0:
                raise LatencyFitError(f"accept rate {rate} outside [0, 1]")
            design.append(
                (float(TABLE_NUM_BLOCKS), expected_rejected_blocks(rate, TABLE_NUM_BLOCKS))
            )
            labels.append(f"accept={rate:g}")
        targets.append(float(time_s))

    # Only fit needs scipy, so every other command starts without importing it.
    from scipy.optimize import nnls

    a = np.asarray(design)
    y = np.asarray(targets)
    x, _ = nnls(a, y)
    draft_path, c_target = float(x[0]), float(x[1])
    if draft_path <= 0 and c_target <= 0:
        raise LatencyFitError("fit produced all-zero latency parameters")

    params = LatencyParams(
        c_draft=draft_path * (1.0 - DECODE_FRACTION),
        c_target=c_target,
        c_decode=draft_path * DECODE_FRACTION,
        c_score=0.0,
        overlap_mode=OverlapMode.SCORING_OVERLAPPED,
    )
    predicted = a @ x
    report = LatencyFitReport(
        rows=tuple(
            (label, measured, float(pred), float((pred - measured) / measured))
            for label, measured, pred in zip(labels, targets, predicted)
        )
    )
    return params, report


def simulate_time(trace: Sequence[BlockTrace], params: LatencyParams | None) -> float:
    """Total simulated seconds for a complete per-block trace.

    Each block costs its draft, decode and target times plus its score
    time scaled by params.overlap_factor. params=None means scoring is
    overlapped (factor 0, the OverlapMode default), as when a trace is
    replayed without calibration. A trace whose blocks are not 0..n-1 in
    order, or whose total overflows, is a ValueError.
    """
    if not trace:
        raise ValueError("empty trace")
    factor = params.overlap_factor if params is not None else 0.0
    total = 0.0
    for b, t in enumerate(trace):
        if t.block_index != b:
            raise ValueError(f"incomplete trace: block {t.block_index} at position {b}")
        total += t.draft_time_s + t.decode_time_s + t.score_time_s * factor + t.target_time_s
    if not math.isfinite(total):
        raise ValueError(f"simulated time of {len(trace)} blocks overflows a float")
    return total


def speedup(t: float, t_target_only: float) -> float:
    """Wall-clock speedup relative to target-only generation."""
    if t <= 0 or t_target_only <= 0:
        raise ValueError("times must be positive")
    ratio = t_target_only / t
    if not math.isfinite(ratio):
        raise ValueError(f"speedup {t_target_only!r} / {t!r} overflows a float")
    return ratio
