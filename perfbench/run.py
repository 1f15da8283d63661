"""Benchmark of the specroute simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,longvideo,replay} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. It starts fresh interpreters for the
set-up probes, for input generation and for the measured worker (see
``worker.py``), waits for each, and prints the metrics by name followed,
as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run. A
manifest with every result and its context is written next to the run's
scratch files in ``perfbench/.work/``. Metric definitions are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
WORKLOADS = ("sweep", "longvideo", "replay")

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 30
GEN_TIMEOUT_S = 90
WORKER_TIMEOUT_S = 150
# The tail reported beside the median leaves at least this many samples beyond it.
TAIL_SAMPLES = 10

UNITS = {
    "speed_adjusted_blocks_per_s": "blocks/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """A step of the run could not complete; no result is printed."""


def run_child(args: list[str], timeout: float) -> None:
    """Run a worker role to completion; its stdout goes to our stderr."""
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} timed out after {timeout:g}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")


def setup_seconds() -> list[float]:
    """Wall time from starting a fresh interpreter until it reports ready."""
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "setup"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup run failed (exit {proc.returncode})")
    return samples


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest nearest-rank percentile that leaves
    at least TAIL_SAMPLES samples above it; None when there are too few."""
    n = len(samples)
    rank = n - TAIL_SAMPLES
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def end_to_end(result: dict, setup: list[float]) -> dict:
    """The gated metrics; throughput is taken at reference machine speed
    (see SpeedGauge in worker.py)."""
    if not result["op_s"]:
        raise BenchError("no operation completed")
    blocks = result["blocks_per_op"]
    return {
        "speed_adjusted_blocks_per_s": statistics.median(blocks / s for s in result["reference_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "specroute" / "__init__.py").is_file():
        print("error: src/specroute not found; run from the root of a checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = WORK / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    inputs = []
    try:
        if args.workload == "replay":
            gen_start = time.perf_counter()
            run_child(["gen", "--seed", str(args.seed), "--out", str(WORK)], GEN_TIMEOUT_S)
            gen_s = time.perf_counter() - gen_start
            inputs = sorted(WORK.glob(f"replay-{args.seed}.*")) + sorted(WORK.glob("replay-*-reference.jsonl"))
        else:
            gen_s = 0.0
        setup = setup_seconds() if args.trace == 0 else []
        run_child(
            [
                "run", "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work", str(WORK), "--result", str(result_path),
            ],
            WORKER_TIMEOUT_S,
        )
        result = json.loads(result_path.read_text())
        metrics = result["per_layer"] if args.trace else end_to_end(result, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in inputs:
            path.unlink(missing_ok=True)
        for path in WORK.glob(f"longvideo-{args.seed}.jsonl"):
            path.unlink()

    golden = json.loads(GOLDEN.read_text()).get(args.workload) if GOLDEN.is_file() else None
    reference_ok = golden is not None and golden == result["reference_digest"]
    errors = list(result["errors"])
    if not reference_ok:
        errors.append(
            f"reference output digest {result['reference_digest']} != recorded {golden}"
        )
    failed = result["failed"]
    correct = reference_ok and failed == 0 and all(math.isfinite(v) for v in metrics.values())

    op_tail = tail(result["op_s"])
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "versions": result["versions"],
        "params": result["params"],
        "input_gen_s": gen_s,
        "setup_samples_s": setup,
        "worker_setup_s": result["worker_setup_s"],
        "op_s": result["op_s"],
        "op_tail": op_tail,
        "reference_s": result.get("reference_s"),
        "probe_median_s": result.get("probe_median_s"),
        "probe_samples": result.get("probe_samples"),
        "reference_digest": result["reference_digest"],
        "reference_ok": reference_ok,
        "attempted": result["attempted"],
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
    }
    (WORK / f"manifest-{tag}.json").write_text(json.dumps(manifest, indent=2) + "\n")

    for error in errors:
        print(f"check: {error}", file=sys.stderr)
    units = {name: UNITS.get(name) or per_layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if args.trace == 0:
        op_s = result["op_s"]
        raw_rate = statistics.median(result["blocks_per_op"] / s for s in op_s)
        print(f"blocks_per_s {raw_rate:.6g} blocks/s (unadjusted wall clock)")
        print(f"op_p50_ms {statistics.median(op_s) * 1e3:.6g} ms (of {len(op_s)} operations)")
        if op_tail is not None:
            pct, value = op_tail
            print(f"op_tail_ms {value * 1e3:.6g} ms (p{pct:.1f} of {len(op_s)} operations)")
    print(f"error_rate {failed / result['attempted']:.6g} ({failed} of {result['attempted']} operations)")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    if ".us_per_block." in name:
        return "us/block"
    if name.endswith(("ratio", "speedup", "per_block")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
