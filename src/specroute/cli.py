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

SPECROUTE_CALIBRATION sets the default calibration path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
from contextlib import ExitStack, contextmanager, nullcontext

from .core import GenerationConfig, summary_to_dict
from .costmodel import LatencyFitError
from .engine import Arm, BlockExecutionError
from .router import AggregationMode, AlwaysAcceptPolicy, AlwaysRejectPolicy, ThresholdPolicy
from .sweep import (
    SweepRow,
    SweepSpec,
    ablation_arms,
    draft_only_arm,
    pareto_check,
    random_arm,
    repeated_labels,
    rows_to_csv,
    rows_to_json_dict,
    run_arms,
    run_prompts,
    target_only_arm,
)
from .synthmodels import (
    Calibration,
    CalibrationError,
    CalibrationValueError,
    QUALITY_FIT_TOLERANCE,
    REFERENCE_TABLE,
    fit_calibration,
    load_reference_table,
)
from .traceio import (
    TraceFormatError,
    parse_trace_file,
    records_from_traces,
    replay,
    serialize_records,
    write_replay_report,
)

EXIT_PARETO = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_CALIBRATION = 5

CALIBRATION_ENV = "SPECROUTE_CALIBRATION"

DEFAULT_SWEEP_TAUS = (-0.7, -0.8, -0.9, -1.0, -1.5, -2.0, -2.5)
# Characters of an error message; a longer one keeps its two ends.
_MESSAGE_LIMIT = 500


class CliFailure(Exception):
    """Internal: carries an exit code to main()."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _bounded(message: str) -> str:
    """A message, cut to both its ends when a long argv value, path or prompt id makes it long."""
    keep = (_MESSAGE_LIMIT - 3) // 2
    return message if len(message) <= _MESSAGE_LIMIT else message[:keep] + "..." + message[-keep:]


class _Parser(argparse.ArgumentParser):
    """argparse's parser with a bounded usage error; add_subparsers makes its subparsers so."""

    def error(self, message: str):
        super().error(_bounded(message))


def _unreadable(what: str, path, exc: OSError) -> CliFailure:
    """A missing or unreadable input file: a validation error naming the file."""
    if isinstance(exc, FileNotFoundError):
        return CliFailure(EXIT_VALIDATION, f"{what} not found: {path}")
    reason = exc.strerror or type(exc).__name__
    return CliFailure(EXIT_VALIDATION, f"cannot read {what} {path}: {reason}")


@contextmanager
def _writing(flag: str, path):
    """Turn a failure to write an output file into a usage error naming its flag."""
    try:
        yield
    except BrokenPipeError:
        raise  # stdout's reader went away, as in `| head`; main exits 0
    except OSError as exc:
        reason = exc.strerror or type(exc).__name__
        raise CliFailure(EXIT_USAGE, f"cannot write {flag} {path}: {reason}") from None


@contextmanager
def _output(flag: str, path: str):
    """The write function of an output file opened now, or of stdout for "-".

    Opening, writing, flushing and closing fail as _writing says. Each
    write is guarded on its own, so its failure names this output even
    while another output is open around it. The stream is flushed inside
    the guard; stdout is left open.
    """
    with _writing(flag, path):
        with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8") as fh:
            def write(text: str) -> None:
                with _writing(flag, path):
                    fh.write(text)

            yield write
            fh.flush()


def _calibration_input(args) -> tuple[str, str | None]:
    """The flag and path of the calibration file: --calibration, else $SPECROUTE_CALIBRATION."""
    if args.calibration:
        return "--calibration", args.calibration
    return f"${CALIBRATION_ENV}", os.environ.get(CALIBRATION_ENV)


def _refuse_overwrites(args) -> None:
    """Refuse an output that names an input or another output of the command.

    Runs before anything is read or opened. An output "-" is stdout and
    matches only "-"; every other path, an input's too, matches by its
    real path.
    """
    inputs = [("--table", getattr(args, "table", None)), ("--trace", getattr(args, "trace", None))]
    if hasattr(args, "calibration"):
        inputs.append(_calibration_input(args))
    # A real path, or "-" for stdout, maps to (its flag, whether it is an output).
    named = {os.path.realpath(path): (flag, False) for flag, path in inputs if path}
    for flag in ("--out", "--export-trace", "--out-json"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if not path:
            continue
        key = path if path == "-" else os.path.realpath(path)
        if key in named:
            first, output = named[key]
            raise CliFailure(EXIT_USAGE, f"{first} and {flag} name the same output {path}" if output
                             else f"{flag} would overwrite the {first} input {path}")
        named[key] = (flag, True)


def _load_calibration(args, required: bool = True) -> Calibration | None:
    """The calibration that --calibration or $SPECROUTE_CALIBRATION names, if one does."""
    _, path = _calibration_input(args)
    if not path:
        if not required:
            return None
        raise CliFailure(EXIT_VALIDATION, f"no calibration file: pass --calibration or set "
                         f"{CALIBRATION_ENV} (create one with `specroute fit`)")
    try:
        return Calibration.load(path)
    except OSError as exc:
        raise _unreadable("calibration file", path, exc) from None
    except CalibrationValueError as exc:
        raise CliFailure(EXIT_VALIDATION, f"invalid calibration file {path}: {exc}") from exc
    except CalibrationError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot parse calibration file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    try:
        table = load_reference_table(args.table)
    except OSError as exc:
        raise _unreadable("table file", args.table, exc) from None
    except CalibrationError as exc:
        raise CliFailure(EXIT_PARSE, f"cannot parse table: {exc}") from exc

    try:
        calibration, latency_report, quality_report = fit_calibration(table)
    except LatencyFitError as exc:
        raise CliFailure(EXIT_VALIDATION, f"latency fit: {exc}") from exc
    except CalibrationError as exc:
        raise CliFailure(EXIT_CALIBRATION, f"calibration fit failed: {exc}") from exc

    with _output("--out", args.out) as write:
        write(calibration.to_json())
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
    calibration = _load_calibration(args)
    # Exported records need per-frame scores on every block, including
    # force-rejected ones.
    config = GenerationConfig(
        num_blocks=args.blocks, seed=args.seed, score_forced_rejections=bool(args.export_trace)
    )
    arm = _simulate_arm(args)

    accept_sum = time_sum = quality_sum = 0.0
    with ExitStack() as outputs:
        write_run = outputs.enter_context(_output("--out", args.out))
        if args.export_trace:
            write_trace = outputs.enter_context(_output("--export-trace", args.export_trace))
        try:
            for (result,) in run_prompts([arm], range(args.n), calibration, config):
                summary = result.summary
                write_run(json.dumps(summary_to_dict(summary), sort_keys=True) + "\n")
                if args.export_trace:
                    records = records_from_traces(summary.prompt_id, summary.block_traces)
                    write_trace(serialize_records(records))
                accept_sum += summary.accept_rate_excl_block0
                time_sum += summary.total_time_s
                quality_sum += summary.quality_proxy
        except (ValueError, BlockExecutionError) as exc:
            # Such as a calibration that overflows the simulated time or breaks a model.
            raise CliFailure(EXIT_VALIDATION, str(exc)) from exc
    if not math.isfinite(time_sum):
        raise CliFailure(EXIT_VALIDATION, "the simulated time over all prompts overflows a float")
    if not math.isfinite(quality_sum):
        raise CliFailure(EXIT_VALIDATION, "the quality proxy over all prompts overflows a float")
    if args.export_trace:
        # One record per block.
        _info(f"exported {args.n * config.num_blocks} trace records to {args.export_trace}")
    _info(
        f"{args.n} runs: mean accept {accept_sum / args.n:.3f}, "
        f"mean time {time_sum / args.n:.2f}s, mean quality {quality_sum / args.n:.4f}"
    )
    return 0


def _simulate_arm(args) -> Arm:
    """simulate's policy flags as one arm.

    Block 0 is force-rejected by default under threshold only. A random
    policy is the sweep's random arm, so prompt i draws from the stream the
    sweep gives it and its record does not depend on --n.
    """
    aggregation = AggregationMode(args.aggregation)
    force = args.force_reject_first
    if force is None:
        force = args.policy == "threshold"
    if args.policy == "random":
        try:
            arm = random_arm(args.rate, force)
        except ValueError as exc:
            raise CliFailure(EXIT_USAGE, str(exc)) from exc
        return arm._replace(aggregation=aggregation)
    if args.policy == "threshold":
        policy = ThresholdPolicy(tau=args.tau, force_reject_block0=force)
    elif args.policy == "always-accept":
        policy = AlwaysAcceptPolicy(force_reject_block0=force)
    else:
        policy = AlwaysRejectPolicy(force_reject_block0=force)
    return Arm(policy, aggregation, label=args.policy)


def _run_arm_list(args, arms: list[Arm], intro: str) -> list[SweepRow]:
    """Run an arm list over args.n prompts, write its CSV to --out and return its rows."""
    calibration = _load_calibration(args)
    _info(f"{intro} x {args.n} prompts (seed {args.seed})")
    try:
        rows = run_arms(arms, args.n, args.seed, calibration, args.blocks, jobs=args.jobs)
    except (ValueError, BlockExecutionError) as exc:
        # Such as a calibration that gives an arm zero simulated time or breaks a model.
        raise CliFailure(EXIT_VALIDATION, str(exc)) from exc
    with _output("--out", args.out) as write:
        write(rows_to_csv(rows))
    return rows


def cmd_sweep(args) -> int:
    # argparse has already checked what SweepSpec and run_arms require: thresholds and n >= 1.
    taus = tuple(args.tau_list) if args.tau_list else DEFAULT_SWEEP_TAUS
    spec = SweepSpec(thresholds=taus, num_prompts=args.n, seed=args.seed, num_blocks=args.blocks)
    arms = spec.arms()
    if repeated := repeated_labels(arms):
        raise CliFailure(EXIT_USAGE, f"--tau-list repeats a threshold: {reprlib.repr(repeated)}")
    rows = _run_arm_list(args, arms, f"sweeping {len(taus)} thresholds")
    report = pareto_check(rows)
    for line in report.lines():
        _info(line)
    if args.out_json:
        doc = rows_to_json_dict(rows, report, meta={"seed": args.seed, "num_prompts": args.n})
        with _output("--out-json", args.out_json) as write:
            write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if report.ok else EXIT_PARETO


def cmd_ablate(args) -> int:
    arms = [target_only_arm()] + ablation_arms() + [draft_only_arm()]
    _run_arm_list(args, arms, f"running {len(arms)} ablation arms")
    return 0


def cmd_replay(args) -> int:
    calibration = _load_calibration(args, required=False)
    try:
        records = parse_trace_file(args.trace)
    except OSError as exc:
        raise _unreadable("trace file", args.trace, exc) from None
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
    except ValueError as exc:
        # A TraceFormatError, or recorded timings whose total overflows.
        raise CliFailure(EXIT_VALIDATION, f"replay: {exc}") from exc

    with _output("--out", args.out) as write:
        write_replay_report(write, runs, args.tau, args.aggregation)
    for r in runs:
        s = r.summary
        _info(_bounded(
            f"{s.prompt_id}: accept {s.accept_rate_excl_block0:.3f}, "
            f"time {s.total_time_s:.2f}s over {len(s.block_traces)} blocks"
        ))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _int_at_least(minimum: int):
    """An argparse type: an int of at least `minimum`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specroute",
        description="Block-level speculative routing simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=_int_at_least(0), default=GenerationConfig.seed,
                       help=f"master seed, >= 0 (default {GenerationConfig.seed})")
        p.add_argument("--calibration", default=None,
                       help=f"calibration file (default ${CALIBRATION_ENV})")
        p.add_argument("--blocks", type=_positive_int, default=GenerationConfig.num_blocks,
                       help="blocks per video (default %(default)s)")

    def add_arm_list(p):
        p.add_argument("--n", type=_positive_int, default=1003, help="prompts per arm")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       help="parallel workers (capped at the CPU count)")
        p.add_argument("--out", default="-", help="CSV output (default stdout)")

    def add_aggregation(p):
        p.add_argument("--aggregation", default="min_frame",
                       choices=[m.value for m in AggregationMode])

    p_fit = sub.add_parser("fit", help="fit calibration from a measurement table")
    p_fit.add_argument("--table", default=REFERENCE_TABLE, help="table JSON (default: bundled)")
    p_fit.add_argument("--out", required=True, help="calibration file to write")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate runs under one policy")
    add_common(p_sim)
    p_sim.add_argument("--policy", default="threshold",
                       choices=["threshold", "random", "always-accept", "always-reject"])
    p_sim.add_argument("--tau", type=_finite_float, default=-0.7)
    p_sim.add_argument("--rate", type=float, default=0.5, help="accept prob for random policy")
    force = p_sim.add_mutually_exclusive_group()
    force.add_argument("--force-reject-first", dest="force_reject_first",
                       action="store_true", default=None)
    force.add_argument("--no-force-reject-first", dest="force_reject_first",
                       action="store_false")
    add_aggregation(p_sim)
    p_sim.add_argument("--n", type=_positive_int, default=1, help="number of prompts")
    p_sim.add_argument("--out", default="-", help="JSONL output (default stdout)")
    p_sim.add_argument("--export-trace", default=None,
                       help="also export replayable trace records to this file")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="threshold sweep with baselines")
    add_common(p_sweep)
    p_sweep.add_argument("--tau-list", type=_finite_float, nargs="+", default=None,
                         help=f"thresholds (default {' '.join(str(t) for t in DEFAULT_SWEEP_TAUS)})")
    add_arm_list(p_sweep)
    p_sweep.add_argument("--out-json", default=None, help="optional JSON report")
    p_sweep.set_defaults(func=cmd_sweep)

    p_abl = sub.add_parser("ablate", help="scoring/routing ablation arm set")
    add_common(p_abl)
    add_arm_list(p_abl)
    p_abl.set_defaults(func=cmd_ablate)

    p_rep = sub.add_parser("replay", help="counterfactual replay of a trace file")
    p_rep.add_argument("--trace", required=True, help="line-delimited trace file")
    p_rep.add_argument("--tau", type=_finite_float, required=True)
    add_aggregation(p_rep)
    p_rep.add_argument("--no-force-reject-first", action="store_true")
    p_rep.add_argument("--calibration", default=None,
                       help="latency/quality fallback for records missing timings")
    p_rep.add_argument("--out", default="-", help="JSON report (default stdout)")
    p_rep.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_overwrites(args)
        return args.func(args)
    except CliFailure as exc:
        _info(f"error: {_bounded(str(exc))}")
        return exc.code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
