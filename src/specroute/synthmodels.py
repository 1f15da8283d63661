"""Calibrated synthetic models: drafter, target, decoder, scorer, quality proxy.

The synthetic family replaces the neural components with deterministic
stand-ins whose *aggregate* behavior is calibrated against measured sweep
results:

* DraftQualityModel defines the distribution of a draft block's worst-frame
  reward via the measured accept-rate-vs-threshold curve, interpreted as a
  survival function P(q >= tau) and interpolated piecewise-linearly between
  knots with configurable tail slopes.
* QualityProxyModel maps a run's accepted-draft scores to a scalar quality
  proxy. It is a curve fit that reproduces the measured quality column of
  the reference sweep; it does not emulate the underlying video-quality
  metric and must not be read as such.
* The synthetic drafter embeds its sampled per-frame rewards into the
  latent payload; the synthetic decoder carries them into a reserved pixel
  of each frame; the synthetic scorer reads that pixel back. Quality flows
  through the data path exactly as it would with real models, so the
  routing engine is exercised end to end.

All models are immutable after fitting and safe to share across parallel
simulations.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .caches import KVCache, SnapshotMismatchError
from .core import (
    BlockTrace,
    DecodedFrames,
    FrameScoreVector,
    GenerationConfig,
    LATENT_CHANNELS,
    LATENT_FRAMES_PER_BLOCK,
    LATENT_HEIGHT,
    LATENT_WIDTH,
    PIXEL_FRAMES_FIRST_BLOCK,
    PIXEL_FRAMES_LATER_BLOCK,
    LatentBlock,
    Producer,
    PromptSpec,
    checked_scores,
    keyed_generator,
    pixel_frame_count,
)
from .costmodel import (
    DRAFT_ONLY,
    TABLE_NUM_BLOCKS,
    TARGET_ONLY,
    LatencyFitReport,
    LatencyParams,
    OverlapMode,
    fit_latencies,
)
from .engine import DecoderInterface, GeneratorInterface, ScorerInterface

__all__ = [
    "CalibrationError",
    "CalibrationValueError",
    "DraftQualityModel",
    "fit_quantile",
    "fit_frame_gap",
    "QualityProxyModel",
    "QualityFitReport",
    "fit_quality_proxy",
    "TableRow",
    "ReferenceTable",
    "load_reference_table",
    "Calibration",
    "fit_calibration",
    "SynthDecodeState",
    "SyntheticDrafter",
    "SyntheticTarget",
    "SyntheticDecoder",
    "SyntheticScorer",
    "build_synthetic_stack",
]

DEFAULT_FRAME_GAP_MEAN = 0.34
DEFAULT_UPPER_TAIL_SLOPE = 0.18
DEFAULT_LOWER_TAIL_SLOPE = 0.10
QUALITY_FIT_TOLERANCE = 5e-4
REFERENCE_TABLE = Path(__file__).with_name("data") / "reference_table.json"


class CalibrationError(RuntimeError):
    """A calibration fit is infeasible or its inputs are malformed."""


class CalibrationValueError(CalibrationError):
    """A calibration file parses, but one of its values breaks a model invariant."""


# ---------------------------------------------------------------------------
# Draft quality distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DraftQualityModel:
    """Distribution of a draft block's worst-frame reward.

    quantile_knots are (tau, accept_rate) pairs ordered by decreasing tau
    with accept_rate strictly increasing as tau decreases. The survival
    function P(q >= tau) interpolates the knots linearly and continues
    past them at the configured tail slopes until it saturates at 0 / 1,
    which makes the implied distribution proper and invertible.

    Per-frame scores are the sampled minimum plus non-negative offsets
    (one frame pinned at the minimum); frame_gap_mean sets the expected
    mean-minus-min gap, which is what separates mean-frame from min-frame
    routing behavior.
    """

    quantile_knots: tuple[tuple[float, float], ...]
    # Keys the score stream; build_synthetic_stack sets it to the run's seed.
    rng_seed: int = GenerationConfig.seed
    upper_tail_slope: float = DEFAULT_UPPER_TAIL_SLOPE
    lower_tail_slope: float = DEFAULT_LOWER_TAIL_SLOPE
    frame_gap_mean: float = DEFAULT_FRAME_GAP_MEAN
    # survival-function breakpoints, tau ascending (derived, cached)
    _taus_asc: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _accept_desc: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        knots = tuple((float(t), float(a)) for t, a in self.quantile_knots)
        if len(knots) < 1:
            raise CalibrationError("need at least one quantile knot")
        taus = [t for t, _ in knots]
        rates = [a for _, a in knots]
        if any(t1 <= t2 for t1, t2 in zip(taus, taus[1:])):
            raise CalibrationError(
                f"knot thresholds must be strictly decreasing: {reprlib.repr(taus)}"
            )
        if any(a1 >= a2 for a1, a2 in zip(rates, rates[1:])):
            raise CalibrationError(
                f"accept rate must strictly increase as tau decreases: {reprlib.repr(rates)}"
            )
        if not all(0.0 < a < 1.0 for a in rates):
            raise CalibrationError(
                f"knot accept rates must lie in (0, 1): {reprlib.repr(rates)}"
            )
        if self.upper_tail_slope <= 0 or self.lower_tail_slope <= 0:
            raise CalibrationError("tail slopes must be positive")
        if self.frame_gap_mean < 0:
            raise CalibrationError("frame_gap_mean must be non-negative")
        object.__setattr__(self, "quantile_knots", knots)

        # Breakpoints where the survival function saturates.
        tau_top = taus[0] + rates[0] / self.upper_tail_slope          # A -> 0
        tau_bottom = taus[-1] - (1.0 - rates[-1]) / self.lower_tail_slope  # A -> 1
        taus_asc = [tau_bottom] + list(reversed(taus)) + [tau_top]
        accept_desc = [1.0] + list(reversed(rates)) + [0.0]
        object.__setattr__(self, "_taus_asc", tuple(taus_asc))
        object.__setattr__(self, "_accept_desc", tuple(accept_desc))

    # -- distribution ------------------------------------------------------

    def accept_rate(self, tau: float) -> float:
        """P(q >= tau): the expected accept rate at an inclusive threshold."""
        return float(np.interp(tau, self._taus_asc, self._accept_desc))

    def min_score_from_uniform(self, u) -> np.ndarray | float:
        """Inverse-CDF transform: uniform draws to worst-frame scores."""
        xp = tuple(reversed(self._accept_desc))  # ascending 0 .. 1
        fp = tuple(reversed(self._taus_asc))     # descending taus
        return np.interp(u, xp, fp)

    # -- keyed sampling ------------------------------------------------------

    def sample_block_score(
        self, prompt_id: str, block_index: int, num_frames: int
    ) -> FrameScoreVector:
        """Per-frame scores for one block; deterministic per (seed, prompt, block).

        The vector minimum follows the calibrated distribution exactly: one
        frame sits at the sampled minimum and the rest add non-negative
        exponential offsets.
        """
        if num_frames < 1:
            raise ValueError("num_frames must be >= 1")
        rng = keyed_generator("draft-scores", self.rng_seed, prompt_id, block_index)
        minimum = float(self.min_score_from_uniform(rng.random()))
        if num_frames == 1:
            return checked_scores(block_index, (minimum,))
        pin = int(rng.integers(num_frames))
        scale = self.frame_gap_mean * num_frames / (num_frames - 1)
        offsets = rng.exponential(scale=scale, size=num_frames - 1) if scale > 0 else np.zeros(num_frames - 1)
        scores = np.empty(num_frames)
        scores[:pin] = minimum + offsets[:pin]
        scores[pin] = minimum
        scores[pin + 1 :] = minimum + offsets[pin:]
        return checked_scores(block_index, scores.tolist())


def fit_quantile(knots: Sequence[tuple[float, float]]) -> DraftQualityModel:
    """Interpolating quantile model through measured (tau, accept_rate) knots."""
    ordered = tuple(sorted(((float(t), float(a)) for t, a in knots), key=lambda k: -k[0]))
    return DraftQualityModel(quantile_knots=ordered)


def fit_frame_gap(
    quantile: DraftQualityModel, mean_rows: Sequence[tuple[float, float]]
) -> float:
    """Mean-minus-min gap that matches measured mean-frame accept rates.

    Mean-frame routing at tau accepts roughly when the minimum exceeds
    tau - gap, so each row inverts to gap = tau - A^-1(rate). Rows whose
    rate falls outside the knot range would lean on the extrapolated
    tails, so they are skipped.
    """
    rates = [a for _, a in quantile.quantile_knots]
    lo, hi = min(rates), max(rates)
    gaps = []
    for tau, rate in mean_rows:
        if not lo <= rate <= hi:
            continue
        tau_equiv = float(quantile.min_score_from_uniform(rate))
        gaps.append(tau - tau_equiv)
    if not gaps:
        return DEFAULT_FRAME_GAP_MEAN
    return float(np.mean(gaps))


# ---------------------------------------------------------------------------
# Quality proxy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QualityProxyModel:
    """Additive-penalty quality proxy, anchored at the all-reject quality.

    A run's proxy is base_quality minus one penalty per accepted draft
    block, where the penalty depends on the block's worst-frame score
    through a non-increasing step function (edges: taus descending;
    penalties: one value per segment, ascending as scores fall). An
    all-reject run scores base_quality exactly.

    Calibration device only: reproduces the measured quality column of the
    reference sweep, and is not an emulation of the video-quality metric.
    """

    base_quality: float
    edges: tuple[float, ...]
    penalties: tuple[float, ...]

    def __post_init__(self) -> None:
        edges = tuple(float(e) for e in self.edges)
        pens = tuple(float(p) for p in self.penalties)
        if len(pens) != len(edges) + 1:
            raise CalibrationError("need exactly one penalty per score segment")
        if any(e1 <= e2 for e1, e2 in zip(edges, edges[1:])):
            raise CalibrationError("edges must be strictly decreasing")
        if any(p < 0 for p in pens):
            raise CalibrationError("penalties must be non-negative")
        if any(p1 > p2 for p1, p2 in zip(pens, pens[1:])):
            raise CalibrationError("penalties must be non-decreasing as scores fall")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "penalties", pens)

    def penalty(self, q: float) -> float:
        """Quality cost of accepting a draft block whose worst-frame score is q."""
        for k, edge in enumerate(self.edges):
            if q >= edge:
                return self.penalties[k]
        return self.penalties[-1]

    def run_quality(self, traces: Sequence[BlockTrace]) -> float:
        total = self.base_quality
        penalty = self.penalty
        for t in traces:
            if t.decision.accepted:
                scores = t.frame_scores
                if scores is None:
                    raise ValueError(
                        f"accepted block {t.block_index} has no frame scores to penalize"
                    )
                total -= penalty(min(scores.scores))
        if not math.isfinite(total):
            raise ValueError(f"quality proxy of {len(traces)} blocks overflows a float")
        return total

    def expected_penalty_above(self, quantile: DraftQualityModel, tau: float) -> float:
        """E[penalty(q) * 1{q >= tau}] under the calibrated score distribution.

        Segment k spans scores in [edges[k], edges[k-1]) with an open top for
        k = 0 and the tail below edges[-1]; each contributes its penalty times
        the probability mass of its overlap with [tau, inf).
        """
        total = 0.0
        mass_above_upper = 0.0  # P(q >= upper bound of current segment)
        for k, edge in enumerate(self.edges):
            if edge <= tau:
                total += self.penalties[k] * max(
                    quantile.accept_rate(tau) - mass_above_upper, 0.0
                )
                return total
            seg = quantile.accept_rate(edge) - mass_above_upper
            total += self.penalties[k] * max(seg, 0.0)
            mass_above_upper = quantile.accept_rate(edge)
        # Tail segment, truncated at tau (accept_rate clamps to 1 at -inf).
        tail = quantile.accept_rate(tau) - mass_above_upper
        total += self.penalties[-1] * max(tail, 0.0)
        return total


@dataclass(frozen=True)
class QualityFitReport:
    """Expected-vs-measured quality per fitted row; non-fatal on breach."""

    rows: tuple[tuple[str, float, float, float], ...]  # (label, measured, expected, residual)

    @property
    def max_abs_residual(self) -> float:
        return max(abs(r[3]) for r in self.rows)

    @property
    def within_tolerance(self) -> bool:
        return self.max_abs_residual <= QUALITY_FIT_TOLERANCE

    def lines(self) -> list[str]:
        out = []
        for label, measured, expected, residual in self.rows:
            out.append(
                f"{label:<22} measured {measured:.4f}  model {expected:.4f}  "
                f"residual {residual:+.5f}"
            )
        status = "OK" if self.within_tolerance else "EXCEEDS TOLERANCE"
        out.append(
            f"max |residual| = {self.max_abs_residual:.5f} "
            f"(tolerance {QUALITY_FIT_TOLERANCE:g}) {status}"
        )
        return out


def fit_quality_proxy(
    main: Sequence[TableRow], quantile: DraftQualityModel,
) -> tuple[QualityProxyModel, QualityFitReport]:
    """Fit segment penalties so expected run quality matches the table.

    Minimizes the worst absolute quality error across the threshold rows
    and the draft-only row (a small linear program), subject to the
    penalty function being non-negative and non-increasing in the score.
    The measured quality column need not be monotone, so a nonzero
    residual floor can be unavoidable; breaches of QUALITY_FIT_TOLERANCE
    are reported, not raised. Runs are TABLE_NUM_BLOCKS blocks long.
    """
    base_row = _single_row(main, TARGET_ONLY)
    draft_row = _single_row(main, DRAFT_ONLY)
    threshold_rows = [r for r in main if r.method == "threshold"]
    if len(threshold_rows) < 3:
        raise CalibrationError("need at least 3 threshold rows to fit the quality proxy")
    threshold_rows.sort(key=lambda r: -r.tau)
    if base_row.vr is None or draft_row.vr is None or any(r.vr is None for r in threshold_rows):
        raise CalibrationError("quality fit needs a quality value on every row")

    base = base_row.vr
    edges = [r.tau for r in threshold_rows]
    accept_at = [quantile.accept_rate(t) for t in edges]
    masses = [accept_at[0]]
    masses += [accept_at[k] - accept_at[k - 1] for k in range(1, len(edges))]
    masses.append(1.0 - accept_at[-1])
    n_seg = len(masses)
    eligible = TABLE_NUM_BLOCKS - 1  # block 0 is force-rejected in threshold runs

    # Variables: segment penalties p_0..p_{n-1}, then the Chebyshev bound t.
    c = np.zeros(n_seg + 1)
    c[-1] = 1.0
    a_ub: list[np.ndarray] = []
    b_ub: list[float] = []

    def add_abs_constraint(coeffs: np.ndarray, target: float) -> None:
        row = np.append(coeffs, -1.0)
        a_ub.append(row)
        b_ub.append(target)
        a_ub.append(np.append(-coeffs, -1.0))
        b_ub.append(-target)

    for j, row in enumerate(threshold_rows):
        coeffs = np.zeros(n_seg)
        coeffs[: j + 1] = eligible * np.asarray(masses[: j + 1])
        add_abs_constraint(coeffs, base - row.vr)
    add_abs_constraint(TABLE_NUM_BLOCKS * np.asarray(masses), base - draft_row.vr)
    for k in range(n_seg - 1):
        row = np.zeros(n_seg + 1)
        row[k], row[k + 1] = 1.0, -1.0
        a_ub.append(row)
        b_ub.append(0.0)

    # Only fit needs scipy, so every other command starts without importing it.
    from scipy.optimize import linprog

    result = linprog(
        c,
        A_ub=np.vstack(a_ub),
        b_ub=np.asarray(b_ub),
        bounds=[(0.0, None)] * (n_seg + 1),
        method="highs",
    )
    if not result.success:
        raise CalibrationError(f"quality-proxy fit failed: {result.message}")

    # The solver honors the ordering constraints only to its own tolerance;
    # clamp the epsilon-level violations before validation.
    penalties = np.maximum.accumulate(np.maximum(result.x[:n_seg], 0.0))
    model = QualityProxyModel(
        base_quality=base,
        edges=tuple(edges),
        penalties=tuple(float(p) for p in penalties),
    )

    report_rows = [(TARGET_ONLY, base, base, 0.0)]
    for row in threshold_rows:
        expected = base - eligible * model.expected_penalty_above(quantile, row.tau)
        report_rows.append((f"threshold(tau={row.tau:g})", row.vr, expected, expected - row.vr))
    expected_draft = base - TABLE_NUM_BLOCKS * model.expected_penalty_above(
        quantile, float("-inf")
    )
    report_rows.append((DRAFT_ONLY, draft_row.vr, expected_draft, expected_draft - draft_row.vr))
    return model, QualityFitReport(rows=tuple(report_rows))


# ---------------------------------------------------------------------------
# Reference table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    """One measured sweep row from the reference system."""

    method: str  # target_only | draft_only | threshold | avg_frame | random | force_reject_random
    vr: float | None = None
    time_s: float | None = None
    accept_rate: float | None = None
    tau: float | None = None


@dataclass(frozen=True)
class ReferenceTable:
    main: tuple[TableRow, ...]
    ablation: tuple[TableRow, ...] = ()

    @property
    def threshold_rows(self) -> tuple[TableRow, ...]:
        return tuple(r for r in self.main if r.method == "threshold")


def _single_row(rows: Sequence[TableRow], method: str) -> TableRow:
    found = [r for r in rows if r.method == method]
    if len(found) != 1:
        raise CalibrationError(
            f"reference table needs exactly one {method!r} row, found {len(found)}"
        )
    return found[0]


def _parse_row(raw: dict) -> TableRow:
    method = raw.get("method")
    if not isinstance(method, str):
        raise CalibrationError("table row needs a string 'method'")

    def opt(key: str) -> float | None:
        return float(raw[key]) if raw.get(key) is not None else None

    return TableRow(
        method=method,
        vr=opt("vr"),
        time_s=opt("time_s"),
        accept_rate=opt("accept_rate"),
        tau=opt("tau"),
    )


def load_reference_table(path: str | Path = REFERENCE_TABLE) -> ReferenceTable:
    """Load the bundled (or an external) reference measurement table.

    Rows are objects in the arrays "main" and (optionally) "ablation";
    each has a string "method" and JSON numbers or nulls for the rest.
    Invalid UTF-8 or JSON, a wrong shape or a row value that is not a
    finite number raises CalibrationError.
    """
    text = _read_utf8(Path(path), "reference table")
    sections = _load_json(text, "reference table", _table_sections)
    try:
        return ReferenceTable(
            main=tuple(_parse_row(r) for r in sections["main"]),
            ablation=tuple(_parse_row(r) for r in sections["ablation"]),
        )
    except (AttributeError, TypeError) as exc:
        raise CalibrationError(f"reference table has the wrong shape: {exc}") from exc


def _table_sections(doc) -> dict:
    """The table's row arrays; each row value but "method" is a finite number or null."""
    if not isinstance(doc, dict) or "main" not in doc:
        raise CalibrationError("reference table missing 'main' section")
    sections = {"main": doc["main"], "ablation": doc.get("ablation", [])}
    for where, value in _non_numbers(sections, "table"):
        if value is not None and not where.endswith(".method"):
            raise CalibrationError(
                f"{_KEY_PATH.repr(where)} is not a finite number: {reprlib.repr(value)}"
            )
    return sections


# ---------------------------------------------------------------------------
# Calibration bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """Everything the simulator needs; to_json and from_json define its file format."""

    quantile: DraftQualityModel
    latency: LatencyParams
    proxy: QualityProxyModel

    def to_json(self) -> str:
        q, lat, proxy = self.quantile, self.latency, self.proxy
        doc = {
            "schema_version": 1,
            "draft_quality": {"quantile_knots": q.quantile_knots, "frame_gap_mean": q.frame_gap_mean,
                              "upper_tail_slope": q.upper_tail_slope,
                              "lower_tail_slope": q.lower_tail_slope},
            "latency": {"c_draft": lat.c_draft, "c_target": lat.c_target, "c_decode": lat.c_decode,
                        "c_score": lat.c_score, "overlap_mode": lat.overlap_mode.value},
            "quality_proxy": {"base_quality": proxy.base_quality, "edges": proxy.edges,
                              "penalties": proxy.penalties},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> Calibration:
        """Parse a calibration file.

        Every value but latency.overlap_mode must be a finite JSON number;
        the tail slopes, frame_gap_mean, c_score and overlap_mode may be
        absent. quantile_knots, edges and penalties are arrays, and each
        knot is an array of two. Bad JSON, a missing key, a wrong shape or
        a non-number raises CalibrationError; a value that breaks a model
        invariant (such as a negative latency or an unknown overlap_mode)
        raises CalibrationValueError.
        """
        doc = _load_json(text, "calibration file", _calibration_numbers)
        try:
            draft = doc["draft_quality"]
            knots = _array(draft["quantile_knots"], "calibration.draft_quality.quantile_knots")
            quantile = DraftQualityModel(
                quantile_knots=[_array(knot, f"calibration.draft_quality.quantile_knots[{i}]", 2)
                                for i, knot in enumerate(knots)],
                upper_tail_slope=float(draft.get("upper_tail_slope", DEFAULT_UPPER_TAIL_SLOPE)),
                lower_tail_slope=float(draft.get("lower_tail_slope", DEFAULT_LOWER_TAIL_SLOPE)),
                frame_gap_mean=float(draft.get("frame_gap_mean", DEFAULT_FRAME_GAP_MEAN)),
            )
            times = doc["latency"]
            latency = LatencyParams(
                float(times["c_draft"]), float(times["c_target"]), float(times["c_decode"]),
                c_score=float(times.get("c_score", 0.0)),
                overlap_mode=_overlap_mode(times),
            )
            proxy = doc["quality_proxy"]
            return cls(quantile, latency, QualityProxyModel(
                base_quality=float(proxy["base_quality"]),
                edges=_array(proxy["edges"], "calibration.quality_proxy.edges"),
                penalties=_array(proxy["penalties"], "calibration.quality_proxy.penalties"),
            ))
        except KeyError as exc:
            raise CalibrationError(f"calibration file missing key {exc.args[0]!r}") from exc
        except TypeError as exc:
            raise CalibrationError(f"calibration file has the wrong shape: {exc}") from exc
        except (CalibrationError, ValueError) as exc:
            raise CalibrationValueError(str(exc)) from exc

    @classmethod
    def load(cls, path: str | Path) -> Calibration:
        return cls.from_json(_read_utf8(Path(path), "calibration file"))

    def with_seed(self, seed: int) -> Calibration:
        """Same fitted curves, different sampling stream."""
        return replace(self, quantile=replace(self.quantile, rng_seed=seed))


def _array(value, where: str, length: int | None = None) -> list:
    """value if it is a JSON array (of `length` items, if given); TypeError if not."""
    if isinstance(value, list) and length in (None, len(value)):
        return value
    shape = "an array" if length is None else f"an array of {length}"
    raise TypeError(f"{_KEY_PATH.repr(where)} is not {shape}")


def _overlap_mode(times: dict) -> OverlapMode:
    """latency.overlap_mode, scoring_overlapped if absent; an unknown mode's echo is cut short."""
    mode = times.get("overlap_mode", OverlapMode.SCORING_OVERLAPPED)
    if mode not in list(OverlapMode):
        raise ValueError(f"{reprlib.repr(mode)} is not a valid OverlapMode")
    return OverlapMode(mode)


def _calibration_numbers(doc):
    """doc; every value but latency.overlap_mode is a finite number."""
    for where, value in _non_numbers(doc, "calibration"):
        if where != "calibration.latency.overlap_mode":
            raise CalibrationError(
                f"{_KEY_PATH.repr(where)} is not a finite number: {reprlib.repr(value)}"
            )
    return doc


def _read_utf8(source, what: str) -> str:
    """source's text; invalid UTF-8 raises CalibrationError naming `what`."""
    try:
        return source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CalibrationError(f"{what} is not valid UTF-8: {exc}") from None


def _load_json(text: str, what: str, check):
    """check(json.loads(text)), every JSON failure a CalibrationError naming `what`.

    check is the caller's refusal of non-numbers. Bad JSON, an integer
    literal past the digit limit and nesting too deep for json or for
    check's walk are the failures.
    """
    try:
        return check(json.loads(text))
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"{what} is not valid JSON: {exc}") from exc
    except ValueError:  # json.loads's one ValueError that is not a JSONDecodeError
        raise CalibrationError(
            f"{what} is not valid JSON: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise CalibrationError(f"{what} is nested too deeply") from None


# Echoes a key path from _non_numbers in a message: every path of a
# well-formed file fits, and a path built from a huge key is cut short.
_KEY_PATH = reprlib.Repr()
_KEY_PATH.maxstring = 80


def _non_numbers(value, path: str):
    """Yield (path, value) for every leaf under value that is not a finite float.

    json reads NaN, Infinity and 1e400 (as inf) as floats, and an integer
    of any length; none of them is a number a model can use.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _non_numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_numbers(item, f"{path}[{i}]")
    else:
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            finite = False
        if not finite:
            yield path, value


def fit_calibration(
    table: ReferenceTable,
) -> tuple[Calibration, LatencyFitReport, QualityFitReport]:
    """Fit all three models from a reference table in dependency order."""
    threshold_rows = table.threshold_rows
    if any(r.tau is None or r.accept_rate is None for r in threshold_rows):
        raise CalibrationError("threshold rows need both tau and accept_rate")
    knots = [(r.tau, r.accept_rate) for r in threshold_rows]
    mean_rows = [
        (r.tau, r.accept_rate)
        for r in table.ablation
        if r.method == "avg_frame" and r.tau is not None and r.accept_rate is not None
    ]
    quantile = fit_quantile(knots)
    if mean_rows:
        quantile = replace(quantile, frame_gap_mean=fit_frame_gap(quantile, mean_rows))

    latency_rows: list[tuple[str | float, float]] = []
    for row in table.main:
        if row.time_s is None:
            raise CalibrationError(
                f"main-table row {reprlib.repr(row.method)} is missing time_s"
            )
        key: str | float = row.method if row.method in (TARGET_ONLY, DRAFT_ONLY) else row.accept_rate
        if key is None:
            raise CalibrationError(f"threshold row tau={row.tau} is missing accept_rate")
        latency_rows.append((key, row.time_s))
    latency, latency_report = fit_latencies(latency_rows)

    proxy, quality_report = fit_quality_proxy(table.main, quantile)
    return Calibration(quantile, latency, proxy), latency_report, quality_report


# ---------------------------------------------------------------------------
# Synthetic pipeline components
# ---------------------------------------------------------------------------

FRAME_SHAPE = (8, 8)
LATENT_SHAPE = (LATENT_FRAMES_PER_BLOCK, LATENT_CHANNELS, LATENT_HEIGHT, LATENT_WIDTH)
CARRY_LEN = LATENT_CHANNELS
TARGET_FRAME_SCORE = 3.0


@dataclass
class SynthDecodeState:
    """Temporal state of the synthetic causal decoder.

    carry is a running mix of decoded latent statistics; every decoded
    frame depends on it, which is what gives snapshot/restore its teeth.
    """

    carry: np.ndarray
    blocks_decoded: int
    geometry: tuple[int, ...]

    def clone(self) -> SynthDecodeState:
        return SynthDecodeState(self.carry.copy(), self.blocks_decoded, self.geometry)

    def digest(self) -> str:
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(str(self.geometry).encode())
        h.update(self.blocks_decoded.to_bytes(8, "big"))
        h.update(np.ascontiguousarray(self.carry).tobytes())
        return h.hexdigest()

    def load(self, other: SynthDecodeState) -> None:
        if not isinstance(other, SynthDecodeState):
            raise SnapshotMismatchError(f"cannot restore from {type(other).__name__}")
        if other.geometry != self.geometry or other.carry.shape != self.carry.shape:
            raise SnapshotMismatchError(
                f"snapshot geometry {other.geometry} does not match decoder {self.geometry}"
            )
        self.carry[...] = other.carry
        self.blocks_decoded = other.blocks_decoded


class SyntheticDecoder(DecoderInterface):
    """Deterministic stand-in for the causal pixel decoder.

    Frame j of a block exposes the latent's j-th reserved score slot at
    pixel [0, 0]; all remaining pixels are a keyed function of the latent
    payload and the decoder's temporal state.
    """

    def __init__(self, config: GenerationConfig):
        self.config = config

    def fresh_state(self) -> SynthDecodeState:
        geometry = (PIXEL_FRAMES_FIRST_BLOCK, PIXEL_FRAMES_LATER_BLOCK, *FRAME_SHAPE)
        return SynthDecodeState(
            carry=np.zeros(CARRY_LEN), blocks_decoded=0, geometry=geometry
        )

    def decode(self, latent: LatentBlock, state: SynthDecodeState) -> DecodedFrames:
        num = pixel_frame_count(self.config, latent.block_index)
        rng = keyed_generator(
            "decode",
            state.digest(),
            latent.data.tobytes(),
        )
        frames = rng.standard_normal((num, *FRAME_SHAPE)) * 0.05
        slots = latent.data.reshape(-1)[:num]
        frames[:, 0, 0] = slots
        # Temporal update: later blocks condition on everything decoded so far.
        state.carry[...] = 0.5 * state.carry + 0.5 * latent.data.mean(axis=(0, 2, 3))
        state.blocks_decoded += 1
        return DecodedFrames(latent.block_index, tuple(frames))


class SyntheticScorer(ScorerInterface):
    """Reads back the reward the drafter embedded in each frame."""

    def score(self, frame, prompt: PromptSpec) -> float:
        return float(frame[0, 0])


class SyntheticDrafter(GeneratorInterface):
    """Fast generator whose block quality follows the calibrated distribution."""

    def __init__(self, quality: DraftQualityModel, config: GenerationConfig):
        self.quality = quality
        self.config = config

    def generate(
        self, noise_seed: int, kv: KVCache, block_index: int, prompt: PromptSpec
    ) -> LatentBlock:
        num = pixel_frame_count(self.config, block_index)
        scores = self.quality.sample_block_score(prompt.prompt_id, block_index, num)
        rng = keyed_generator("draft-noise", noise_seed, kv.tip_digest())
        data = rng.standard_normal(LATENT_SHAPE)
        data.reshape(-1)[:num] = scores.scores
        return LatentBlock(block_index, data, Producer.DRAFT, noise_seed)


class SyntheticTarget(GeneratorInterface):
    """Slow, high-quality generator invoked on rejection."""

    def __init__(self, config: GenerationConfig):
        self.config = config

    def generate(
        self, noise_seed: int, kv: KVCache, block_index: int, prompt: PromptSpec
    ) -> LatentBlock:
        num = pixel_frame_count(self.config, block_index)
        rng = keyed_generator("target-noise", noise_seed, kv.tip_digest())
        data = rng.standard_normal(LATENT_SHAPE)
        data.reshape(-1)[:num] = TARGET_FRAME_SCORE
        return LatentBlock(block_index, data, Producer.TARGET, noise_seed)


@dataclass(frozen=True)
class SyntheticStack:
    drafter: SyntheticDrafter
    target: SyntheticTarget
    decoder: SyntheticDecoder
    scorer: SyntheticScorer


def build_synthetic_stack(calibration: Calibration, config: GenerationConfig) -> SyntheticStack:
    """The synthetic models of one run; config.seed keys the drafter's scores and noise."""
    return SyntheticStack(
        drafter=SyntheticDrafter(calibration.with_seed(config.seed).quantile, config),
        target=SyntheticTarget(config),
        decoder=SyntheticDecoder(config),
        scorer=SyntheticScorer(),
    )
