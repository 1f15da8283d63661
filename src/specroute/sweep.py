"""Experiment harness: threshold sweeps, baselines, and ablation arms.

A sweep simulates many prompts per arm and reduces to one row per arm.
An arm is an engine.Arm; its label names its row and keys the policy
stream of each of its runs, so labels within one arm list must be unique.
Baselines (pure target-only and draft-only) are always included because
every speedup is defined against the same sweep's target-only row.
Prompts are the unit of parallelism: one prompt's arms run in lockstep
(engine.run_arms_detailed), sharing one drafter pass, and prompts are
independent, so chunks of them may run in parallel. Each arm reduces in
prompt order, so worker scheduling never changes output.
"""

from __future__ import annotations

import math
import os
import reprlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Sequence

from .core import GenerationConfig, PromptSpec
from .costmodel import speedup
from .engine import Arm, RunResult, run_arms_detailed
from .router import (
    AggregationMode,
    AlwaysAcceptPolicy,
    AlwaysRejectPolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from .synthmodels import Calibration, build_synthetic_stack

__all__ = [
    "threshold_arm",
    "mean_frame_arm",
    "random_arm",
    "target_only_arm",
    "draft_only_arm",
    "prompt_spec",
    "run_prompts",
    "SweepSpec",
    "SweepRow",
    "repeated_labels",
    "run_arms",
    "run_sweep",
    "ablation_arms",
    "ParetoReport",
    "pareto_check",
    "rows_to_csv",
    "rows_to_json_dict",
]

CSV_HEADER = "label,quality,time_s,speedup,accept_rate"


def _tau_text(tau: float) -> str:
    """tau as :g, or as its repr where :g would give two thresholds one label."""
    text = f"{tau:g}"
    return text if float(text) == tau else repr(tau)


def threshold_arm(tau: float) -> Arm:
    return Arm(ThresholdPolicy(tau=tau), label=f"threshold(tau={_tau_text(tau)})")


def mean_frame_arm(tau: float) -> Arm:
    return Arm(
        ThresholdPolicy(tau=tau), AggregationMode.MEAN_FRAME,
        label=f"avg_frame(tau={_tau_text(tau)})",
    )


def random_arm(rate: float, force_reject_block0: bool) -> Arm:
    prefix = "force_reject_random" if force_reject_block0 else "random"
    policy = RandomPolicy(accept_prob=rate, force_reject_block0=force_reject_block0)
    return Arm(policy, label=f"{prefix}(rate={rate:g})")


def target_only_arm() -> Arm:
    return Arm(AlwaysRejectPolicy(), draft_enabled=False, label="target_only")


def draft_only_arm() -> Arm:
    return Arm(AlwaysAcceptPolicy(), label="draft_only")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: thresholds, prompt count, seed and blocks per video."""

    thresholds: tuple[float, ...]
    num_prompts: int = 1003
    seed: int = GenerationConfig.seed
    num_blocks: int = GenerationConfig.num_blocks

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        if not self.thresholds:
            raise ValueError("thresholds must be non-empty")

    def arms(self) -> list[Arm]:
        return [target_only_arm(), *map(threshold_arm, self.thresholds), draft_only_arm()]


@dataclass(frozen=True)
class SweepRow:
    label: str
    tau: float | None
    quality: float
    time_s: float
    speedup: float
    accept_rate: float


def prompt_spec(index: int) -> PromptSpec:
    """The synthetic prompt that simulate and the sweep run as prompt `index`."""
    return PromptSpec(prompt_id=f"p{index:05d}", text=f"synthetic prompt {index}")


def run_prompts(
    arms: Sequence[Arm], indices: Iterable[int],
    calibration: Calibration, config: GenerationConfig,
) -> Iterator[list[RunResult]]:
    """Run every arm on the synthetic stack over prompts `indices`, in order.

    Yields each prompt's run_arms_detailed results, one per arm. config.seed
    keys the stack, and prompt i routes with arm.policy.for_run(config.seed,
    arm.label, i), so a prompt's results do not depend on which other
    prompts run, or in which process.
    """
    stack = build_synthetic_stack(calibration, config)
    for i in indices:
        yield run_arms_detailed(
            config, prompt_spec(i), stack.drafter, stack.target, stack.decoder, stack.scorer,
            [arm._replace(policy=arm.policy.for_run(config.seed, arm.label, i)) for arm in arms],
            calibration.latency, calibration.proxy.run_quality,
        )


def _simulate_chunk(
    arms: Sequence[Arm], calibration: Calibration, config: GenerationConfig,
    indices: Sequence[int],
) -> list[list[tuple[float, float, float]]]:
    """Run every arm over a chunk of prompts; per prompt, each arm's (quality, time, accept)."""
    return [
        [(r.summary.quality_proxy, r.summary.total_time_s, r.summary.accept_rate_excl_block0)
         for r in results]
        for results in run_prompts(arms, indices, calibration, config)
    ]


def repeated_labels(arms: Sequence[Arm]) -> list[str]:
    """The labels that more than one of `arms` carries; run_arms refuses them."""
    return [label for label, count in Counter(a.label for a in arms).items() if count > 1]


def run_arms(
    arms: Sequence[Arm],
    num_prompts: int,
    seed: int,
    calibration: Calibration,
    num_blocks: int = GenerationConfig.num_blocks,
    jobs: int = 1,
) -> list[SweepRow]:
    """Simulate an explicit arm list; a target_only arm anchors the speedups."""
    if num_prompts < 1:
        raise ValueError("num_prompts must be >= 1")
    labels = [a.label for a in arms]
    if repeated := repeated_labels(arms):
        raise ValueError(f"arm labels must be unique; repeated: {reprlib.repr(repeated)}")
    if "target_only" not in labels:
        raise ValueError("arm list needs a target_only arm to define speedups")
    config = GenerationConfig(num_blocks=num_blocks, seed=seed)

    workers = min(jobs, os.cpu_count() or 1)
    indices = list(range(num_prompts))
    if workers > 1:
        size = -(-num_prompts // workers)
        with ProcessPoolExecutor(max_workers=workers) as executor:
            futures = [
                executor.submit(
                    _simulate_chunk, arms, calibration, config, indices[i : i + size]
                )
                for i in range(0, num_prompts, size)
            ]
            per_prompt = [stats for f in futures for stats in f.result()]
    else:
        per_prompt = _simulate_chunk(arms, calibration, config, indices)

    # Each arm reduces over prompts in prompt order.
    try:
        stats = [
            [math.fsum(p[k][j] for p in per_prompt) / num_prompts for j in range(3)]
            for k in range(len(arms))
        ]
    except OverflowError:
        raise ValueError("an arm's totals over all prompts overflow a float") from None
    for arm, (_, time_s, _) in zip(arms, stats):
        if not time_s > 0:
            raise ValueError(f"arm {arm.label} has zero simulated time, so speedups are undefined")
    target_time = stats[labels.index("target_only")][1]
    # A row's tau is its ThresholdPolicy's; no other policy has one.
    return [
        SweepRow(label=arm.label, tau=getattr(arm.policy, "tau", None), quality=quality,
                 time_s=time_s, speedup=speedup(time_s, target_time), accept_rate=accept)
        for arm, (quality, time_s, accept) in zip(arms, stats)
    ]


def run_sweep(spec: SweepSpec, calibration: Calibration, jobs: int = 1) -> list[SweepRow]:
    """One row per arm plus both baselines; deterministic under spec.seed."""
    return run_arms(
        spec.arms(), spec.num_prompts, spec.seed, calibration, spec.num_blocks, jobs
    )


# ---------------------------------------------------------------------------
# Pareto verification and output formats
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoReport:
    """Monotonicity verdicts over the threshold arms of a sweep."""

    ok: bool
    violations: tuple[str, ...]
    rows_checked: int

    def lines(self) -> list[str]:
        if self.ok:
            return [f"pareto check passed over {self.rows_checked} threshold rows"]
        return [f"pareto check FAILED ({len(self.violations)} violations):"] + [
            f"  - {v}" for v in self.violations
        ]


def pareto_check(rows: Sequence[SweepRow], quality_tolerance: float = 1e-3) -> ParetoReport:
    """Verify the frontier shape as tau relaxes (decreases).

    Accept rate and speedup must not fall; quality must not rise by more
    than quality_tolerance (the measured quality column itself is not
    strictly monotone, so weak monotonicity needs a small band). Rows are
    sorted internally, so input order never changes the verdict.
    """
    threshold_rows = sorted(
        (r for r in rows if r.tau is not None), key=lambda r: -r.tau
    )
    violations = []
    for prev, cur in zip(threshold_rows, threshold_rows[1:]):
        if cur.accept_rate < prev.accept_rate:
            violations.append(
                f"accept rate fell from {prev.accept_rate:.4f} ({prev.label}) "
                f"to {cur.accept_rate:.4f} ({cur.label})"
            )
        if cur.speedup < prev.speedup:
            violations.append(
                f"speedup fell from {prev.speedup:.3f} ({prev.label}) "
                f"to {cur.speedup:.3f} ({cur.label})"
            )
        if cur.quality > prev.quality + quality_tolerance:
            violations.append(
                f"quality rose from {prev.quality:.4f} ({prev.label}) "
                f"to {cur.quality:.4f} ({cur.label}) beyond tolerance {quality_tolerance:g}"
            )
    return ParetoReport(
        ok=not violations, violations=tuple(violations), rows_checked=len(threshold_rows)
    )


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Stable CSV schema: label,quality,time_s,speedup,accept_rate."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.label},{r.quality:.6f},{r.time_s:.4f},{r.speedup:.4f},{r.accept_rate:.6f}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json_dict(rows: Sequence[SweepRow], pareto: ParetoReport, meta: dict) -> dict:
    return {"schema_version": 1, "rows": [asdict(r) for r in rows], "pareto": asdict(pareto),
            "meta": meta}


def ablation_arms() -> list[Arm]:
    """The ablation arm set: min-frame default, mean-frame sweep, random arms.

    The random arms' accept rates match the reference measurements: 70.3%
    with forced block-0 rejection, 70.0% without.
    """
    return [
        threshold_arm(-0.7),
        mean_frame_arm(-0.2),
        mean_frame_arm(-0.5),
        mean_frame_arm(-0.7),
        random_arm(0.703, force_reject_block0=True),
        random_arm(0.700, force_reject_block0=False),
    ]
