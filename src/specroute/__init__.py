"""Block-level speculative routing for drafter/target video generation.

A fast drafter proposes each video block; a reward router accepts the
draft or hands the block to the slow target model. This package provides
the routing engine with full cache commit/rollback semantics, calibrated
synthetic stand-ins for the neural components, a fitted latency model,
sweep/ablation harnesses, and counterfactual replay of externally
recorded traces.
"""

from .caches import (
    CacheOwner,
    ContiguityError,
    DecodeCacheSnapshot,
    KVCache,
    SnapshotMismatchError,
    decode_restore,
    decode_snapshot,
)
from .core import (
    BlockTrace,
    DecisionReason,
    DecodedFrames,
    FrameScoreVector,
    GenerationConfig,
    LatentBlock,
    Producer,
    PromptSpec,
    RunSummary,
    default_config,
    pixel_frame_count,
)
from .costmodel import (
    LatencyParams,
    OverlapMode,
    expected_rejected_blocks,
    fit_latencies,
    simulate_time,
    speedup,
)
from .engine import (
    DecoderInterface,
    GeneratorInterface,
    Arm,
    RunResult,
    ScorerInterface,
    run_arms_detailed,
    run_video_detailed,
)
from .router import (
    AggregationMode,
    AlwaysAcceptPolicy,
    AlwaysRejectPolicy,
    Policy,
    RandomPolicy,
    ThresholdPolicy,
    aggregate,
)
from .sweep import (
    ParetoReport,
    SweepRow,
    SweepSpec,
    pareto_check,
    run_sweep,
)
from .synthmodels import (
    Calibration,
    CalibrationError,
    DraftQualityModel,
    QualityProxyModel,
    build_synthetic_stack,
    fit_calibration,
    fit_quality_proxy,
    fit_quantile,
    load_reference_table,
)
from .traceio import (
    ExternalTraceRecord,
    TraceFormatError,
    parse_trace,
    replay,
    serialize_records,
)

__version__ = "0.1.0"
