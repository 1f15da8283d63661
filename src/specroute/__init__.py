"""Block-level speculative routing for drafter/target video generation.

A fast drafter proposes each video block; a reward router accepts the
draft or hands the block to the slow target model. This package provides
the routing engine with full cache commit/rollback semantics, calibrated
synthetic stand-ins for the neural components, a fitted latency model,
sweep/ablation harnesses, and counterfactual replay of externally
recorded traces.

The package namespace holds only the public surface: the three model
interfaces, the trace format and the calibration file. Everything else
is imported from its module, such as specroute.engine or specroute.sweep.
"""

from .engine import DecoderInterface, GeneratorInterface, ScorerInterface
from .synthmodels import Calibration, CalibrationError
from .traceio import ExternalTraceRecord, TraceFormatError, parse_trace, serialize_records

# perfbench's cmd_setup and write_replay_trace call these two as specroute.X.
from .core import default_config
from .synthmodels import build_synthetic_stack

__version__ = "0.1.0"
