"""The measured process of the specroute benchmark.

``run.py`` starts this file in three roles, each in a fresh interpreter:

    worker.py setup
        import specroute, fit the calibration, build the synthetic stack,
        print "ready" and exit (``run.py`` times this as ``setup_s``);
    worker.py gen --seed N --out DIR
        write the replay workload's input traces (never in the measured
        process, so generating them adds nothing to its peak RSS);
    worker.py run --workload W --seed N --seconds S --trace T --work DIR --result PATH
        set up, run the workload's reference operation, then run and check
        operations for S seconds (T=0), or a fixed number untraced and then
        traced (T=1); write the measurements to PATH as JSON.

Everything is driven through the library functions the CLI subcommands
call, single-process (``jobs=1``) except for the one-off ``jobs=2``
comparison of the traced run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SWEEP_TAUS = (-0.7, -0.8, -0.9, -1.0, -1.5, -2.0, -2.5)
SWEEP_PROMPTS = 12
SWEEP_BLOCKS = 9
LONG_BLOCKS = 144
LONG_TAU = -0.7
REPLAY_PROMPTS = 11112  # x 9 blocks = 100,008 records
REPLAY_BLOCKS = 9
REPLAY_TAU = -1.0
# The generated trace records target timings only where a run at this
# (looser) threshold rejected, so replay at REPLAY_TAU mixes sources.
REPLAY_RECORDED_TAU = -1.5
REPLAY_UNTIMED_SHARE = 0.25

REFERENCE_SEED = 42
REFERENCE_LONG_VIDEOS = 2
REFERENCE_REPLAY_PROMPTS = 300

TRACED_OPS = {"sweep": 6, "longvideo": 12, "replay": 1}
UNIT_BLOCKS = (9, 144, 576)
JOBS_SWEEP_PROMPTS = 40


def import_specroute():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = SRC / "specroute" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import specroute

    if Path(specroute.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported specroute from {specroute.__file__}, not {init}")
    return specroute


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_PROBE_BYTES = bytes(range(256)) * 16
_PROBE_JSON = json.dumps(
    [{"prompt_id": f"p{i}", "block_index": i, "frame_scores": [i / 7 + j / 3 for j in range(12)]}
     for i in range(4)]
)
# The probe's duration at the speed that adjusted figures are scaled to:
# about its median on the 2-core Xeon (2.1 GHz) where the benchmark was
# written. A fixed scale, so adjusted figures read like that machine's.
PROBE_REFERENCE_S = 0.0008
GAUGE_INTERVAL_S = 0.05


def machine_probe() -> None:
    """A fixed mix of the kinds of work the workloads do (bytecode,
    hashing, JSON parsing, numpy RNG construction), none of it specroute
    code. Its duration gauges the machine's current speed."""
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(30):
        hashlib.blake2b(_PROBE_BYTES, digest_size=16).hexdigest()
    for _ in range(5):
        json.loads(_PROBE_JSON)
    for i in range(20):
        np.random.Generator(np.random.PCG64(i)).standard_normal(16)


class SpeedGauge:
    """Samples machine speed while operations run.

    The speed of a shared machine can change by 2x within seconds, which
    is more than a regression bound can absorb. A wall-clock timer runs
    the probe every GAUGE_INTERVAL_S in the main thread, between bytecodes
    of whatever is running, and records its duration. An operation's time
    at reference speed is then its own time, less the probes inside it,
    scaled by the mean of PROBE_REFERENCE_S / probe duration over them.
    """

    def __init__(self):
        self.at: list[float] = []
        self.duration: list[float] = []

    def __enter__(self) -> SpeedGauge:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        machine_probe()
        self.at.append(start)
        self.duration.append(time.perf_counter() - start)

    def split(self, start: float, end: float) -> tuple[float, float]:
        """(seconds less the probes inside, seconds at reference speed)."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)
        inside = self.duration[lo:hi]
        net = end - start - math.fsum(inside)
        # An operation shorter than the interval uses the samples beside it.
        gauged = inside or self.duration[max(lo - 1, 0):hi + 1]
        return net, net * statistics.fmean(PROBE_REFERENCE_S / d for d in gauged)


def derived_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


# ---------------------------------------------------------------------------
# Workloads: each has a reference operation (digest checked against the
# recorded one), numbered operations, and a check of each output.
# ---------------------------------------------------------------------------


class SweepWorkload:
    """The reference protocol in two calls per pass, with a fresh seed per pass."""

    def __init__(self, calibration, seed: int, work: Path):
        from specroute import sweep

        self.sweep = sweep
        self.calibration = calibration
        self.seed = seed
        self.ablation = [sweep.target_only_arm()] + sweep.ablation_arms() + [sweep.draft_only_arm()]
        # An operation is one arm: the sweep's taus and two baselines, then the ablation set.
        self.ops_per_call = len(SWEEP_TAUS) + 2 + len(self.ablation)
        self.blocks_per_call = self.ops_per_call * SWEEP_PROMPTS * SWEEP_BLOCKS
        self.params = {
            "taus": SWEEP_TAUS,
            "prompts": SWEEP_PROMPTS,
            "blocks": SWEEP_BLOCKS,
            "ablation_arms": [a.label for a in self.ablation],
            "pass_seed": "seed * 100003 + pass",
            "jobs": 1,
        }

    def _run(self, seed: int):
        sweep = self.sweep
        spec = sweep.SweepSpec(thresholds=SWEEP_TAUS, num_prompts=SWEEP_PROMPTS, seed=seed)
        rows = sweep.run_sweep(spec, self.calibration, jobs=1)
        ablation_rows = sweep.run_arms(self.ablation, SWEEP_PROMPTS, seed, self.calibration, jobs=1)
        return rows, ablation_rows

    def reference(self) -> str:
        rows, ablation_rows = self._run(REFERENCE_SEED)
        return sha256(self.sweep.rows_to_csv(rows) + self.sweep.rows_to_csv(ablation_rows))

    def op(self, index: int):
        return self._run(derived_seed(self.seed, index))

    def check(self, output) -> int:
        rows, ablation_rows = output
        failed = 0
        if not self.sweep.pareto_check(rows).ok:
            failed += len(rows)
        for arm_rows in (rows, ablation_rows):
            speedups = [r.speedup for r in arm_rows if r.label == "target_only"]
            if speedups != [1.0]:
                failed += 1
        return failed


class LongVideoWorkload:
    """Long threshold-routed videos, each exported and appended to a JSONL trace."""

    def __init__(self, calibration, seed: int, work: Path):
        from specroute import core, engine, router, synthmodels, traceio

        self.core, self.engine, self.traceio = core, engine, traceio
        self.policy = router.ThresholdPolicy(tau=LONG_TAU)
        self.ops_per_call = 1
        self.blocks_per_call = LONG_BLOCKS
        self.trace_path = work / f"longvideo-{seed}.jsonl"
        self.trace_path.write_text("")
        self._setup = {}
        for s in {seed, REFERENCE_SEED}:
            config = core.default_config().with_overrides(
                num_blocks=LONG_BLOCKS, score_forced_rejections=True, seed=s
            )
            cal = calibration.with_seed(s)
            self._setup[s] = (config, cal, synthmodels.build_synthetic_stack(cal, config))
        self.seed = seed
        self.params = {
            "blocks": LONG_BLOCKS,
            "tau": LONG_TAU,
            "score_forced_rejections": True,
            "prompt_ids": "lv<index>",
        }

    def _video(self, seed: int, index: int):
        config, cal, stack = self._setup[seed]
        prompt = self.core.PromptSpec(prompt_id=f"lv{index:05d}", text=f"long video {index}")
        result = self.engine.run_video_detailed(
            config, prompt, stack.drafter, stack.target, stack.decoder, stack.scorer,
            self.policy, latency=cal.latency, quality_fn=cal.proxy.run_quality,
        )
        records = self.traceio.records_from_traces(prompt.prompt_id, result.summary.block_traces)
        text = self.traceio.serialize_records(records)
        return seed, result, text

    def reference(self) -> str:
        outputs = [self._video(REFERENCE_SEED, i) for i in range(REFERENCE_LONG_VIDEOS)]
        for output in outputs:
            if self.check(output):
                return "check failed"
        return sha256("".join(text for _, _, text in outputs))

    def op(self, index: int):
        output = self._video(self.seed, index)
        with open(self.trace_path, "a", encoding="utf-8") as fh:
            fh.write(output[2])
        return output

    def check(self, output) -> int:
        seed, result, text = output
        _, cal, _ = self._setup[seed]
        for kv in (result.drafter_kv, result.target_kv):
            if kv.replay() != kv:
                return 1
        runs = self.traceio.replay(
            self.traceio.parse_trace_text(text), tau=LONG_TAU,
            latency=cal.latency, quality_fn=cal.proxy.run_quality,
        )
        if len(runs) != 1:
            return 1
        engine_run, replayed = result.summary, runs[0].summary
        same = (
            [t.decision for t in engine_run.block_traces]
            == [t.decision for t in replayed.block_traces]
            and engine_run.total_time_s == replayed.total_time_s
            and engine_run.quality_proxy == replayed.quality_proxy
            and engine_run.accept_rate_excl_block0 == replayed.accept_rate_excl_block0
        )
        return 0 if same else 1


def replay_doc(runs, tau: float) -> str:
    """The replay JSON document, in the form ``specroute replay`` writes."""
    from specroute.core import summary_to_dict

    doc = {
        "schema_version": 1,
        "tau": tau,
        "aggregation": "min_frame",
        "runs": [
            {**summary_to_dict(r.summary), "timing_provenance": list(r.timing_provenance)}
            for r in runs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class ReplayWorkload:
    """Parse a generated 100k-record trace, then replay it with calibration fallback."""

    def __init__(self, calibration, seed: int, work: Path):
        from specroute import traceio

        self.traceio = traceio
        self.calibration = calibration
        self.trace_path = work / f"replay-{seed}.jsonl"
        self.reference_path = work / f"replay-{REFERENCE_SEED}-reference.jsonl"
        self.meta = json.loads((work / f"replay-{seed}.meta.json").read_text())
        self.ops_per_call = self.meta["prompts"]
        self.blocks_per_call = self.meta["records"]
        self.params = {
            "records": self.meta["records"],
            "prompts": self.meta["prompts"],
            "blocks": REPLAY_BLOCKS,
            "tau": REPLAY_TAU,
            "recorded_tau": REPLAY_RECORDED_TAU,
            "untimed_share": REPLAY_UNTIMED_SHARE,
            "trace_bytes": self.trace_path.stat().st_size,
        }

    def _run(self, path: Path):
        records = self.traceio.parse_trace_file(path)
        return self.traceio.replay(
            records, tau=REPLAY_TAU,
            latency=self.calibration.latency, quality_fn=self.calibration.proxy.run_quality,
        )

    def reference(self) -> str:
        return sha256(replay_doc(self._run(self.reference_path), REPLAY_TAU))

    def op(self, index: int):
        return self._run(self.trace_path)

    def check(self, runs) -> int:
        expected = self.meta["accepted"]
        if len(runs) != len(expected):
            return self.ops_per_call
        failed = 0
        provenance = {"recorded": 0, "modeled": 0, "mixed": 0}
        for i, run in enumerate(runs):
            s = run.summary
            ok = (
                s.prompt_id == f"r{i:06d}"
                and len(s.block_traces) == REPLAY_BLOCKS
                and s.accept_rate_excl_block0 == expected[i] / (REPLAY_BLOCKS - 1)
                and math.isfinite(s.total_time_s)
                and math.isfinite(s.quality_proxy)
            )
            failed += not ok
            for source in run.timing_provenance:
                provenance[source] += 1
        if provenance != self.meta["provenance"]:
            failed = max(failed, 1)
        return failed


WORKLOADS = {"sweep": SweepWorkload, "longvideo": LongVideoWorkload, "replay": ReplayWorkload}


# ---------------------------------------------------------------------------
# Roles
# ---------------------------------------------------------------------------


def fit():
    from specroute import synthmodels

    calibration, _, _ = synthmodels.fit_calibration(synthmodels.load_reference_table())
    return calibration


def cmd_setup(args) -> int:
    specroute = import_specroute()
    calibration = fit()
    specroute.build_synthetic_stack(calibration, specroute.default_config())
    print("ready", flush=True)
    return 0


def write_replay_trace(specroute, calibration, seed: int, prompts: int, path: Path) -> dict:
    """Write a trace grouped by prompt; return its shape and expected outcomes."""
    from specroute.core import Producer, pixel_frame_count
    from specroute.traceio import ExternalTraceRecord, serialize_records

    cal = calibration.with_seed(seed)
    quality, latency = cal.quantile, cal.latency
    config = specroute.default_config().with_overrides(num_blocks=REPLAY_BLOCKS)
    rng = random.Random(seed)
    accepted: list[int] = []
    provenance = {"recorded": 0, "modeled": 0, "mixed": 0}
    with open(path, "w", encoding="utf-8") as fh:
        for p in range(prompts):
            prompt_id = f"r{p:06d}"
            timed = rng.random() >= REPLAY_UNTIMED_SHARE
            records = []
            accepted.append(0)
            for b in range(REPLAY_BLOCKS):
                scores = quality.sample_block_score(prompt_id, b, pixel_frame_count(config, b))
                worst = min(scores.scores)
                accept_now = b > 0 and worst >= REPLAY_TAU
                accepted[-1] += accept_now
                if not timed:
                    records.append(ExternalTraceRecord(prompt_id, b, scores.scores))
                    provenance["modeled"] += 1
                    continue
                recorded_reject = b == 0 or worst < REPLAY_RECORDED_TAU
                jitter = [1.0 + 0.1 * (rng.random() - 0.5) for _ in range(3)]
                records.append(
                    ExternalTraceRecord(
                        prompt_id, b, scores.scores,
                        draft_time_s=latency.c_draft * jitter[0],
                        decode_time_s=latency.c_decode * jitter[1],
                        score_time_s=latency.c_score,
                        target_time_s=latency.c_target * jitter[2] if recorded_reject else None,
                        producer_observed=Producer.TARGET if recorded_reject else Producer.DRAFT,
                    )
                )
                mixed = not accept_now and not recorded_reject
                provenance["mixed" if mixed else "recorded"] += 1
            fh.write(serialize_records(records))
    return {
        "seed": seed,
        "prompts": prompts,
        "records": prompts * REPLAY_BLOCKS,
        "accepted": accepted,
        "provenance": provenance,
    }


def cmd_gen(args) -> int:
    specroute = import_specroute()
    calibration = fit()
    out = Path(args.out)
    meta = write_replay_trace(
        specroute, calibration, args.seed, REPLAY_PROMPTS, out / f"replay-{args.seed}.jsonl"
    )
    (out / f"replay-{args.seed}.meta.json").write_text(json.dumps(meta))
    write_replay_trace(
        specroute, calibration, REFERENCE_SEED, REFERENCE_REPLAY_PROMPTS,
        out / f"replay-{REFERENCE_SEED}-reference.jsonl",
    )
    return 0


class Tally:
    """Operation times and failure counts of one phase.

    With a gauge, op_s excludes the probes that ran inside each operation
    and reference_s holds each operation's time at reference speed.
    """

    def __init__(self, gauge: SpeedGauge | None = None):
        self.gauge = gauge
        self.op_s: list[float] = []
        self.reference_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_op(self, workload, index: int, pause=None) -> None:
        gc.collect()  # every operation starts from the same heap state
        start = time.perf_counter()
        try:
            output = workload.op(index)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.attempted += workload.ops_per_call
            self.failed += workload.ops_per_call
            self.errors.append(f"op {index}: {type(exc).__name__}: {exc}"[:300])
            return
        end = time.perf_counter()
        if self.gauge is None:
            self.op_s.append(end - start)
        else:
            net, reference = self.gauge.split(start, end)
            self.op_s.append(net)
            self.reference_s.append(reference)
        self.attempted += workload.ops_per_call
        if pause is not None:
            pause.uninstall()
        try:
            failed = workload.check(output)
        except Exception as exc:
            failed = workload.ops_per_call
            self.errors.append(f"check {index}: {type(exc).__name__}: {exc}"[:300])
        if pause is not None:
            pause.install()
        if failed:
            self.errors.append(f"op {index}: {failed} operations failed their check")
        self.failed += failed


def layer_comparisons(calibration, workload_name: str, workload) -> tuple[dict, bool]:
    """One-off figures for the open roadmap items, outside the traced phase."""
    from spans import SpanRecorder, SPAN_TARGETS

    from specroute import core, engine, router, sweep, synthmodels, traceio

    metrics = {}
    unit_targets = [t for t in SPAN_TARGETS if t[0] in ("engine.run_video", "caches.commit")]
    for blocks in UNIT_BLOCKS:
        config = core.default_config().with_overrides(num_blocks=blocks, seed=REFERENCE_SEED)
        stack = synthmodels.build_synthetic_stack(calibration, config)
        prompt = core.PromptSpec(prompt_id=f"unit{blocks}")
        # Only the run and the commit are wrapped, so commit's self time
        # includes its integrity re-hash.
        with SpanRecorder(unit_targets) as rec:
            start = time.perf_counter()
            engine.run_video_detailed(
                config, prompt, stack.drafter, stack.target, stack.decoder, stack.scorer,
                router.ThresholdPolicy(tau=LONG_TAU), latency=calibration.latency,
                quality_fn=calibration.proxy.run_quality,
            )
            wall = time.perf_counter() - start
        metrics[f"engine.us_per_block.b{blocks}"] = wall / blocks * 1e6
        metrics[f"caches.commit.us_per_block.b{blocks}"] = (
            rec.per_name()["caches.commit"][1] / blocks * 1e6
        )

    spec = sweep.SweepSpec(thresholds=SWEEP_TAUS, num_prompts=JOBS_SWEEP_PROMPTS, seed=REFERENCE_SEED)
    walls, csvs = {}, {}
    for jobs in (1, 2):
        start = time.perf_counter()
        csvs[jobs] = sweep.rows_to_csv(sweep.run_sweep(spec, calibration, jobs=jobs))
        walls[jobs] = time.perf_counter() - start
    metrics["sweep.jobs2_speedup"] = walls[1] / walls[2]
    jobs_agree = csvs[1] == csvs[2]

    trace_path = getattr(workload, "trace_path", None)
    parse_mb = total_mb = 0.0
    if trace_path is not None:
        cal = calibration.with_seed(workload.seed) if workload_name == "longvideo" else calibration
        tau = LONG_TAU if workload_name == "longvideo" else REPLAY_TAU
        tracemalloc.start()
        try:
            records = traceio.parse_trace_file(trace_path)
            parse_mb = tracemalloc.get_traced_memory()[1] / 2**20
            traceio.replay(records, tau=tau, latency=cal.latency, quality_fn=cal.proxy.run_quality)
            total_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        del records
    metrics["traceio.parse_trace.peak_alloc_mb"] = parse_mb
    metrics["traceio.parse_replay.peak_alloc_mb"] = total_mb
    return metrics, jobs_agree


def traced_metrics(recorder, traced_s: float, untraced_s: float) -> dict:
    from spans import SPAN_NAMES

    per = recorder.per_name()
    c = recorder.counters
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = per.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    metrics["core.block_digest.bytes"] = c["core.block_digest.bytes"]
    drafts = per.get("synthmodels.drafter.generate", (0, 0.0))[0]
    decodes = per.get("synthmodels.decode", (0, 0.0))[0]
    metrics["engine.draft_accept_ratio"] = c["engine.drafts_accepted"] / drafts if drafts else 0.0
    metrics["engine.decodes_per_block"] = decodes / c["engine.blocks"] if c["engine.blocks"] else 0.0
    for source in ("recorded", "modeled", "mixed"):
        key = f"traceio.replay.provenance.{source}"
        metrics[key] = c[key]
    metrics["trace_overhead_ratio"] = traced_s / untraced_s
    return metrics


def cmd_run(args) -> int:
    t_start = time.perf_counter()
    specroute = import_specroute()
    import scipy

    calibration = fit()
    work = Path(args.work)
    workload = WORKLOADS[args.workload](calibration, args.seed, work)
    setup_s = time.perf_counter() - t_start

    reference_digest = workload.reference()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "params": workload.params,
        "blocks_per_op": workload.blocks_per_call,
        "ops_per_call": workload.ops_per_call,
        "reference_digest": reference_digest,
        "worker_setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "specroute": specroute.__version__,
        },
    }
    if args.trace == 0:
        with SpeedGauge() as gauge:
            timed = Tally(gauge)
            deadline = time.perf_counter() + args.seconds
            index = 0
            while True:
                timed.run_op(workload, index)
                index += 1
                if time.perf_counter() >= deadline:
                    break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["probe_median_s"] = statistics.median(gauge.duration)
        result["probe_samples"] = len(gauge.duration)
    else:
        timed = Tally()
        from spans import SpanRecorder
        from specroute import synthmodels

        ops = TRACED_OPS[args.workload]
        for index in range(ops):
            timed.run_op(workload, index)
        recorder = SpanRecorder()
        traced = Tally()
        with recorder:
            synthmodels.fit_calibration(synthmodels.load_reference_table())
            if isinstance(workload, LongVideoWorkload):
                workload.trace_path.write_text("")  # the export may not repeat a prompt
            for index in range(ops):
                traced.run_op(workload, index, pause=recorder)
        recorder.save(work / f"spans-{args.workload}-{args.seed}.npz")
        metrics = traced_metrics(recorder, math.fsum(traced.op_s), math.fsum(timed.op_s))
        comparisons, jobs_agree = layer_comparisons(calibration, args.workload, workload)
        metrics.update(comparisons)
        result["per_layer"] = metrics
        result["spans_recorded"] = len(recorder.start)
        result["traced_op_s"] = traced.op_s
        timed.attempted += traced.attempted
        timed.failed += traced.failed
        timed.errors += traced.errors
        if not jobs_agree:
            timed.errors.append("sweep CSV differs between jobs=1 and jobs=2")
            timed.failed += 1
            timed.attempted += 1
    result.update(
        op_s=timed.op_s,
        reference_s=timed.reference_s,
        attempted=timed.attempted,
        failed=timed.failed,
        errors=timed.errors[:20],
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="role", required=True)
    sub.add_parser("setup")
    gen = sub.add_parser("gen")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--work", required=True)
    run.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    return {"setup": cmd_setup, "gen": cmd_gen, "run": cmd_run}[args.role](args)


if __name__ == "__main__":
    sys.exit(main())
