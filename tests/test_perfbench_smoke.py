"""The benchmark's correctness gate, run once per workload at test scale.

perfbench/worker.py checks what it measures: each workload's seed-42
reference output must hash to its digest in perfbench/golden.json, and
every operation's output must pass the workload's own check. Both run
here, the replay workload on a 4-prompt trace, so a change that breaks a
library call the benchmark makes, or changes an output it pins, fails the
suite rather than the benchmark run. The library's replay report writer
must also give the bytes of the benchmark's own copy of that report.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

import specroute
from specroute.traceio import parse_trace_file, replay, write_replay_report

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 5
REPLAY_PROMPTS = 4


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


worker = _load_worker()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _write_replay_inputs(calibration, work: Path) -> None:
    """The files `worker.py gen` writes, with a small trace for the measured run."""
    meta = worker.write_replay_trace(
        specroute, calibration, SEED, REPLAY_PROMPTS, work / f"replay-{SEED}.jsonl"
    )
    (work / f"replay-{SEED}.meta.json").write_text(json.dumps(meta))
    worker.write_replay_trace(
        specroute, calibration, worker.REFERENCE_SEED, worker.REFERENCE_REPLAY_PROMPTS,
        work / f"replay-{worker.REFERENCE_SEED}-reference.jsonl",
    )


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_reference_matches_golden_and_an_operation_passes_its_check(name, calibration, tmp_path):
    if name == "replay":
        _write_replay_inputs(calibration, tmp_path)
    workload = worker.WORKLOADS[name](calibration, SEED, tmp_path)
    assert workload.reference() == GOLDEN[name]
    assert workload.check(workload.op(0)) == 0


def test_library_report_writer_gives_the_benchmarks_replay_document(calibration, tmp_path):
    """write_replay_report writes replay_doc's bytes for the reference trace: the golden digest."""
    path = tmp_path / "reference.jsonl"
    worker.write_replay_trace(
        specroute, calibration, worker.REFERENCE_SEED, worker.REFERENCE_REPLAY_PROMPTS, path
    )
    runs = replay(
        parse_trace_file(path), tau=worker.REPLAY_TAU,
        latency=calibration.latency, quality_fn=calibration.proxy.run_quality,
    )
    parts = []
    write_replay_report(parts.append, runs, worker.REPLAY_TAU, "min_frame")
    text = "".join(parts)
    assert text == worker.replay_doc(runs, worker.REPLAY_TAU)
    assert worker.sha256(text) == GOLDEN["replay"]


@pytest.mark.xfail(
    strict=True, raises=statistics.StatisticsError,
    reason="ROADMAP item 1: SpeedGauge.split has no probe sample for an operation that ends "
    "before the first probe, so a short first operation ends the worker",
)
def test_gauge_splits_an_operation_that_ends_before_the_first_probe():
    """A gauge with no samples yet, as when the first operation beats the 50 ms probe.

    The gauge is never entered, so no timer starts.
    """
    net, _ = worker.SpeedGauge().split(0.0, 0.01)
    assert net == pytest.approx(0.01)
