"""Command-line entry point: fit, simulate, sweep, ablate, replay.

Human-readable progress and reports go to stderr; machine output (CSV,
JSON, JSONL) goes to files or stdout, never interleaved with diagnostics.

Exit codes:
    0  success
    1  sweep completed but the pareto check flagged violations
    2  usage error (bad flags)
    3  parse error (unreadable or syntactically invalid input file)
    4  validation error (well-formed input violating an invariant)
    5  calibration failure (infeasible fit or residuals over tolerance)

SPECROUTE_CALIBRATION sets the default calibration path; SPECROUTE_CI=1
makes --seed mandatory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .core import ConfigError, GenerationConfig, PromptSpec, default_config, summary_to_dict
from .costmodel import LatencyFitError
from .engine import run_video
from .router import AggregationMode, policy_from_flags
from .sweep import (
    SweepSpec,
    ablation_arms,
    draft_only_arm,
    pareto_check,
    rows_to_csv,
    rows_to_json_dict,
    run_arms,
    run_sweep,
    target_only_arm,
)
from .synthmodels import (
    Calibration,
    CalibrationError,
    QUALITY_FIT_TOLERANCE,
    build_synthetic_stack,
    fit_calibration,
    load_reference_table,
)
from .traceio import (
    TraceFormatError,
    parse_trace_file,
    records_from_traces,
    replay,
    write_trace_file,
)

EXIT_PARETO = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_CALIBRATION = 5

CALIBRATION_ENV = "SPECROUTE_CALIBRATION"
CI_ENV = "SPECROUTE_CI"

DEFAULT_SWEEP_TAUS = (-0.7, -0.8, -0.9, -1.0, -1.5, -2.0, -2.5)


class CliFailure(Exception):
    """Internal: carries an exit code to main()."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _resolve_seed(args) -> int:
    if args.seed is None:
        if os.environ.get(CI_ENV):
            raise CliFailure(EXIT_USAGE, "--seed is mandatory when SPECROUTE_CI is set")
        return 42
    return args.seed


def _load_calibration(args) -> Calibration:
    path = args.calibration or os.environ.get(CALIBRATION_ENV)
    if not path:
        raise CliFailure(
            EXIT_VALIDATION,
            f"no calibration file: pass --calibration or set {CALIBRATION_ENV} "
            "(create one with `specroute fit`)",
        )
    try:
        return Calibration.load(path)
    except FileNotFoundError:
        raise CliFailure(EXIT_VALIDATION, f"calibration file not found: {path}") from None
    except CalibrationError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot parse calibration file {path}: {exc}") from exc


def _load_config(args) -> GenerationConfig:
    try:
        config = GenerationConfig.load(args.config) if args.config else default_config()
        if getattr(args, "blocks", None) is not None:
            config = config.with_overrides(num_blocks=args.blocks)
        return config
    except FileNotFoundError:
        raise CliFailure(EXIT_VALIDATION, f"config file not found: {args.config}") from None
    except ConfigError as exc:
        raise CliFailure(EXIT_PARSE, f"bad config: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    seed = _resolve_seed(args)
    try:
        table = load_reference_table(args.table)
    except FileNotFoundError:
        raise CliFailure(EXIT_VALIDATION, f"table file not found: {args.table}") from None
    except CalibrationError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot parse table: {exc}") from exc

    try:
        calibration, latency_report, quality_report = fit_calibration(table, rng_seed=seed)
    except LatencyFitError as exc:
        raise CliFailure(EXIT_VALIDATION, f"latency fit: {exc}") from exc
    except CalibrationError as exc:
        raise CliFailure(EXIT_CALIBRATION, f"calibration fit failed: {exc}") from exc

    calibration.save(args.out)
    _info(f"wrote calibration to {args.out}")
    _info("latency fit:")
    for line in latency_report.lines():
        _info("  " + line)
    _info("quality-proxy fit:")
    for line in quality_report.lines():
        _info("  " + line)

    failed = False
    if latency_report.max_abs_rel_error > 0.05:
        _info("latency residuals exceed 5%")
        failed = True
    if not quality_report.within_tolerance:
        _info(f"quality residuals exceed {QUALITY_FIT_TOLERANCE:g}")
        failed = True
    return EXIT_CALIBRATION if failed else 0


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    calibration = _load_calibration(args).with_seed(seed)
    config = _load_config(args).with_overrides(seed=seed)
    if args.export_trace:
        # Exported records need per-frame scores on every block, including
        # force-rejected ones.
        config = config.with_overrides(score_forced_rejections=True)
    try:
        policy = policy_from_flags(
            args.policy,
            tau=args.tau,
            rate=args.rate,
            seed=seed,
            force_reject_first=args.force_reject_first,
        )
    except ValueError as exc:
        raise CliFailure(EXIT_USAGE, str(exc)) from exc
    aggregation = AggregationMode(args.aggregation)
    stack = build_synthetic_stack(calibration, config)

    lines = []
    trace_records = []
    accept_sum = time_sum = quality_sum = 0.0
    for i in range(args.n):
        prompt = PromptSpec(prompt_id=f"p{i:05d}", text=f"synthetic prompt {i}")
        summary = run_video(
            config,
            prompt,
            stack.drafter,
            stack.target,
            stack.decoder,
            stack.scorer,
            policy,
            aggregation=aggregation,
            latency=calibration.latency,
            quality_fn=calibration.proxy.run_quality,
        )
        lines.append(json.dumps(summary_to_dict(summary), sort_keys=True))
        if args.export_trace:
            trace_records.extend(records_from_traces(prompt.prompt_id, summary.block_traces))
        accept_sum += summary.accept_rate_excl_block0
        time_sum += summary.total_time_s
        quality_sum += summary.quality_proxy
    _write_text(args.out, "".join(line + "\n" for line in lines))
    if args.export_trace:
        write_trace_file(args.export_trace, trace_records)
        _info(f"exported {len(trace_records)} trace records to {args.export_trace}")
    _info(
        f"{args.n} runs: mean accept {accept_sum / args.n:.3f}, "
        f"mean time {time_sum / args.n:.2f}s, mean quality {quality_sum / args.n:.4f}"
    )
    return 0


def cmd_sweep(args) -> int:
    seed = _resolve_seed(args)
    calibration = _load_calibration(args)
    config = _load_config(args)
    taus = tuple(args.tau_list) if args.tau_list else DEFAULT_SWEEP_TAUS
    try:
        spec = SweepSpec(thresholds=taus, num_prompts=args.n, seed=seed)
    except ValueError as exc:
        raise CliFailure(EXIT_USAGE, str(exc)) from exc

    _info(f"sweeping {len(taus)} thresholds x {args.n} prompts (seed {seed})")
    rows = run_sweep(spec, calibration, config=config, jobs=args.jobs)
    _write_text(args.out, rows_to_csv(rows))
    report = pareto_check(rows)
    for line in report.lines():
        _info(line)
    if args.out_json:
        doc = rows_to_json_dict(rows, report, meta={"seed": seed, "num_prompts": args.n})
        _write_text(args.out_json, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if report.ok else EXIT_PARETO


def cmd_ablate(args) -> int:
    seed = _resolve_seed(args)
    calibration = _load_calibration(args)
    config = _load_config(args)
    arms = [target_only_arm()] + ablation_arms() + [draft_only_arm()]
    _info(f"running {len(arms)} ablation arms x {args.n} prompts (seed {seed})")
    rows = run_arms(arms, args.n, seed, calibration, config=config, jobs=args.jobs)
    _write_text(args.out, rows_to_csv(rows))
    return 0


def cmd_replay(args) -> int:
    calibration = None
    if args.calibration or os.environ.get(CALIBRATION_ENV):
        calibration = _load_calibration(args)
    try:
        records = parse_trace_file(args.trace)
    except FileNotFoundError:
        raise CliFailure(EXIT_VALIDATION, f"trace file not found: {args.trace}") from None
    except TraceFormatError as exc:
        code = EXIT_PARSE if exc.line_number is not None else EXIT_VALIDATION
        raise CliFailure(code, f"trace parse: {exc}") from exc

    try:
        runs = replay(
            records,
            tau=args.tau,
            aggregation=AggregationMode(args.aggregation),
            force_reject_block0=not args.no_force_reject_first,
            latency=calibration.latency if calibration else None,
            quality_fn=calibration.proxy.run_quality if calibration else None,
        )
    except TraceFormatError as exc:
        raise CliFailure(EXIT_VALIDATION, f"replay: {exc}") from exc

    doc = {
        "schema_version": 1,
        "tau": args.tau,
        "aggregation": args.aggregation,
        "runs": [
            {
                **summary_to_dict(r.summary),
                "timing_provenance": list(r.timing_provenance),
            }
            for r in runs
        ],
    }
    _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for r in runs:
        s = r.summary
        _info(
            f"{s.prompt_id}: accept {s.accept_rate_excl_block0:.3f}, "
            f"time {s.total_time_s:.2f}s over {len(s.block_traces)} blocks"
        )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specroute",
        description="Block-level speculative routing simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, calibration=True):
        p.add_argument("--seed", type=int, default=None, help="master seed (default 42)")
        if calibration:
            p.add_argument(
                "--calibration",
                default=None,
                help=f"calibration file (default ${CALIBRATION_ENV})",
            )
        p.add_argument("--config", default=None, help="generation config file")
        p.add_argument("--blocks", type=_positive_int, default=None, help="override num_blocks")

    p_fit = sub.add_parser("fit", help="fit calibration from a measurement table")
    p_fit.add_argument("--table", default=None, help="table JSON (default: bundled)")
    p_fit.add_argument("--out", required=True, help="calibration file to write")
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate runs under one policy")
    add_common(p_sim)
    p_sim.add_argument("--policy", default="threshold",
                       choices=["threshold", "random", "always-accept", "always-reject"])
    p_sim.add_argument("--tau", type=float, default=-0.7)
    p_sim.add_argument("--rate", type=float, default=0.5, help="accept prob for random policy")
    force = p_sim.add_mutually_exclusive_group()
    force.add_argument("--force-reject-first", dest="force_reject_first",
                       action="store_true", default=None)
    force.add_argument("--no-force-reject-first", dest="force_reject_first",
                       action="store_false")
    p_sim.add_argument("--aggregation", default="min_frame",
                       choices=[m.value for m in AggregationMode])
    p_sim.add_argument("--n", type=_positive_int, default=1, help="number of prompts")
    p_sim.add_argument("--out", default="-", help="JSONL output (default stdout)")
    p_sim.add_argument("--export-trace", default=None,
                       help="also export replayable trace records to this file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="threshold sweep with baselines")
    add_common(p_sweep)
    p_sweep.add_argument("--tau-list", type=float, nargs="+", default=None,
                         help=f"thresholds (default {' '.join(str(t) for t in DEFAULT_SWEEP_TAUS)})")
    p_sweep.add_argument("--n", type=_positive_int, default=1003, help="prompts per arm")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sweep.add_argument("--out", default="-", help="CSV output (default stdout)")
    p_sweep.add_argument("--out-json", default=None, help="optional JSON report")
    p_sweep.set_defaults(func=cmd_sweep)

    p_abl = sub.add_parser("ablate", help="scoring/routing ablation arm set")
    add_common(p_abl)
    p_abl.add_argument("--n", type=_positive_int, default=1003, help="prompts per arm")
    p_abl.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_abl.add_argument("--out", default="-", help="CSV output (default stdout)")
    p_abl.set_defaults(func=cmd_ablate)

    p_rep = sub.add_parser("replay", help="counterfactual replay of a trace file")
    p_rep.add_argument("--trace", required=True, help="line-delimited trace file")
    p_rep.add_argument("--tau", type=float, required=True)
    p_rep.add_argument("--aggregation", default="min_frame",
                       choices=[m.value for m in AggregationMode])
    p_rep.add_argument("--no-force-reject-first", action="store_true")
    p_rep.add_argument("--calibration", default=None,
                       help="latency/quality fallback for records missing timings")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--out", default="-", help="JSON report (default stdout)")
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as exc:
        _info(f"error: {exc}")
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
