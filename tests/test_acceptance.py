"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive pieces
(the full 1003-prompt sweep and ablation) run once via module-scoped
fixtures and are shared across criteria.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from specroute.caches import ContiguityError, KVCache, CacheOwner, decode_restore, decode_snapshot
from specroute.cli import main
from specroute.core import (
    GenerationConfig,
    LatentBlock,
    Producer,
    PromptSpec,
    noise_seed_for_block,
)
from specroute.costmodel import fit_latencies, speedup
from specroute.engine import run_video_detailed
from specroute.router import (
    AggregationMode,
    AlwaysAcceptPolicy,
    AlwaysRejectPolicy,
    RandomPolicy,
    ThresholdPolicy,
)
from specroute.sweep import ablation_arms, draft_only_arm, run_arms, target_only_arm
from specroute.synthmodels import build_synthetic_stack
from specroute.traceio import parse_trace_text, records_from_traces, replay, serialize_records

NUM_PROMPTS = 1003
SEED = 42

TABLE_MAIN = {
    "target_only": dict(vr=0.0788, time_s=97.0),
    -0.7: dict(vr=0.0773, time_s=60.9, speedup=1.59, accept=0.731),
    -0.8: dict(vr=0.0769, time_s=58.6, speedup=1.66, accept=0.749),
    -0.9: dict(vr=0.0771, time_s=58.3, speedup=1.66, accept=0.764),
    -1.0: dict(vr=0.0764, time_s=57.2, speedup=1.69, accept=0.780),
    -1.5: dict(vr=0.0757, time_s=51.6, speedup=1.88, accept=0.834),
    -2.0: dict(vr=0.0756, time_s=47.4, speedup=2.05, accept=0.875),
    -2.5: dict(vr=0.0754, time_s=46.4, speedup=2.09, accept=0.889),
    "draft_only": dict(vr=0.0644, time_s=25.7),
}
THRESHOLDS = [k for k in TABLE_MAIN if isinstance(k, float)]


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def parse_csv(text: str) -> dict[str, dict[str, float]]:
    lines = text.strip().splitlines()
    assert lines[0] == "label,quality,time_s,speedup,accept_rate"
    rows = {}
    for line in lines[1:]:
        label, quality, time_s, sp, accept = line.split(",")
        rows[label] = dict(
            quality=float(quality), time_s=float(time_s),
            speedup=float(sp), accept=float(accept),
        )
    return rows


@pytest.fixture(scope="module")
def full_sweep(cal_file, tmp_path_factory):
    """Two full cmd_sweep runs: (rows, elapsed seconds, both CSV payloads)."""
    outdir = tmp_path_factory.mktemp("sweep")
    csv_a, csv_b = outdir / "a.csv", outdir / "b.csv"
    args = ["sweep", "--calibration", str(cal_file), "--n", str(NUM_PROMPTS),
            "--seed", str(SEED)]
    start = time.perf_counter()
    code_a = main(args + ["--out", str(csv_a)])
    elapsed = time.perf_counter() - start
    code_b = main(args + ["--out", str(csv_b)])
    assert code_a == 0 and code_b == 0
    return parse_csv(csv_a.read_text()), elapsed, csv_a.read_bytes(), csv_b.read_bytes()


@pytest.fixture(scope="module")
def cal_file(calibration, tmp_path_factory):
    path = tmp_path_factory.mktemp("cal") / "calibration.json"
    path.write_text(calibration.to_json())
    return path


@pytest.fixture(scope="module")
def ablation_rows(calibration):
    arms = [target_only_arm()] + ablation_arms() + [draft_only_arm()]
    rows = run_arms(arms, NUM_PROMPTS, SEED, calibration)
    return {r.label: r for r in rows}


def test_criterion_1_latency_fit_oracle():
    with criterion(1, "closed-form latency oracle and <5% fit residuals in <1s"):
        start = time.perf_counter()
        # Closed-form check ahead of any fitting: per-block costs from the
        # two baselines predict the sweep endpoints within 3%.
        c_target = TABLE_MAIN["target_only"]["time_s"] / 9
        draft_path = TABLE_MAIN["draft_only"]["time_s"] / 9
        assert c_target == pytest.approx(10.78, abs=0.01)
        assert draft_path == pytest.approx(2.86, abs=0.01)
        for tau in (-0.7, -2.5):
            rejected = 1 + 8 * (1 - TABLE_MAIN[tau]["accept"])
            predicted = 9 * draft_path + rejected * c_target
            measured = TABLE_MAIN[tau]["time_s"]
            assert abs(predicted - measured) / measured < 0.03

        rows = [("target_only", TABLE_MAIN["target_only"]["time_s"]),
                ("draft_only", TABLE_MAIN["draft_only"]["time_s"])]
        rows += [(TABLE_MAIN[t]["accept"], TABLE_MAIN[t]["time_s"]) for t in THRESHOLDS]
        _, report = fit_latencies(rows)
        assert report.max_abs_rel_error < 0.05
        assert time.perf_counter() - start < 1.0


def test_criterion_2_speedup_reproduction(full_sweep):
    with criterion(2, "simulated speedups 1.59x / 2.09x within +-0.05"):
        rows = full_sweep[0]
        assert rows["threshold(tau=-0.7)"]["speedup"] == pytest.approx(1.59, abs=0.05)
        assert rows["threshold(tau=-2.5)"]["speedup"] == pytest.approx(2.09, abs=0.05)


def test_criterion_3_accept_rate_calibration(calibration):
    with criterion(3, "Monte Carlo over 1e5 blocks matches all seven accept rates +-0.5%"):
        start = time.perf_counter()
        model = calibration.with_seed(SEED).quantile
        n = 100_000
        mins = np.fromiter(
            (min(model.sample_block_score(f"mc{i}", i % 9, 3).scores) for i in range(n)),
            dtype=float,
            count=n,
        )
        for tau in THRESHOLDS:
            empirical = float((mins >= tau).mean())
            assert abs(empirical - TABLE_MAIN[tau]["accept"]) <= 0.005, (
                f"tau={tau}: {empirical:.4f} vs {TABLE_MAIN[tau]['accept']}"
            )
        assert time.perf_counter() - start < 10.0


def test_criterion_4_quality_proxy_calibration(full_sweep, calibration, stack, config):
    with criterion(4, "1003-prompt sweep reproduces the quality column +-0.0005"):
        rows = full_sweep[0]
        # target-only anchor is exact at the run level
        res = run_video_detailed(
            config, PromptSpec("anchor"), None, stack.target, stack.decoder, None,
            AlwaysRejectPolicy(), latency=calibration.latency,
            quality_fn=calibration.proxy.run_quality, draft_enabled=False,
        )
        assert res.summary.quality_proxy == 0.0788
        assert rows["target_only"]["quality"] == pytest.approx(0.0788, abs=1e-9)
        for tau in THRESHOLDS:
            label = f"threshold(tau={tau:g})"
            assert rows[label]["quality"] == pytest.approx(
                TABLE_MAIN[tau]["vr"], abs=5e-4
            ), f"{label}: {rows[label]['quality']:.5f} vs {TABLE_MAIN[tau]['vr']}"
        assert rows["draft_only"]["quality"] == pytest.approx(
            TABLE_MAIN["draft_only"]["vr"], abs=5e-4
        )


def test_criterion_5_ablation_orderings(ablation_rows):
    with criterion(5, "mean-frame accepts more than min-frame; random quality lowest"):
        min_frame = ablation_rows["threshold(tau=-0.7)"]
        mean_frame = ablation_rows["avg_frame(tau=-0.7)"]
        assert mean_frame.accept_rate > min_frame.accept_rate
        assert min_frame.accept_rate == pytest.approx(0.731, abs=0.01)
        assert mean_frame.accept_rate == pytest.approx(0.784, abs=0.01)
        random_quality = ablation_rows["random(rate=0.7)"].quality
        for label, row in ablation_rows.items():
            if label.startswith(("threshold", "avg_frame")):
                assert random_quality < row.quality, f"random not below {label}"


@pytest.mark.parametrize("num_blocks", [1, 2, 9])
def test_criterion_6_property_suite(calibration, num_blocks):
    with criterion(6, f"algorithm property suite at B={num_blocks}"):
        policies = [
            ThresholdPolicy(tau=-0.7),
            ThresholdPolicy(tau=-1.5),
            AlwaysAcceptPolicy(force_reject_block0=True),
            AlwaysAcceptPolicy(),
            AlwaysRejectPolicy(),
            RandomPolicy(accept_prob=0.7, rng_seed=101),
            RandomPolicy(accept_prob=0.7, force_reject_block0=True, rng_seed=202),
        ]
        for seed in (42, 7):
            config = GenerationConfig(num_blocks=num_blocks, seed=seed)
            stack = build_synthetic_stack(calibration, config)
            prompt = PromptSpec(f"prop-{seed}")
            drafter_digests = set()
            for policy in policies:
                res = run_video_detailed(
                    config, prompt, stack.drafter, stack.target, stack.decoder,
                    stack.scorer, policy, latency=calibration.latency,
                )
                traces = res.summary.block_traces

                # forced policies always reject block 0, even at q = +inf
                if policy.force_reject_block0:
                    assert not traces[0].decision.accepted
                    assert not policy.decide(0, float("inf")).accepted

                # drafter never sees routing
                drafter_digests.add(res.drafter_kv.digests())

                # rejected blocks regenerate from the draft's own noise seed
                for t in traces:
                    expected_seed = noise_seed_for_block(seed, prompt.prompt_id, t.block_index)
                    assert res.target_kv.entries[t.block_index].block.noise_seed == expected_seed
                    producer = res.target_kv.entries[t.block_index].producer
                    assert producer is (
                        Producer.DRAFT if t.decision.accepted else Producer.TARGET
                    )

                # committed-path replay through a fresh decoder
                state = stack.decoder.fresh_state()
                for entry, emitted in zip(res.target_kv.entries, res.emitted_frames):
                    again = stack.decoder.decode(entry.block, state)
                    for a, b in zip(again.frames, emitted.frames):
                        assert np.array_equal(a, b)

                # emitted frame count
                assert sum(len(f.frames) for f in res.emitted_frames) == 9 + (num_blocks - 1) * 12

            assert len(drafter_digests) == 1

            # KV contiguity and append-only digests
            cache = KVCache(CacheOwner.TARGET)
            out_of_order = LatentBlock(
                block_index=2, data=np.zeros((3, 4, 8, 8)),
                producer=Producer.TARGET, noise_seed=0,
            )
            with pytest.raises(ContiguityError):
                cache.commit(out_of_order)
            rebuilt = res.target_kv.replay()
            assert rebuilt.digests() == res.target_kv.digests()
            blocks = [e.block for e in res.target_kv.entries]

            # decode snapshot/restore identity
            state = stack.decoder.fresh_state()
            snap = decode_snapshot(state)
            stack.decoder.decode(blocks[0], state)
            decode_restore(state, snap)
            assert state.digest() == snap.captured_digest

            # threshold monotonicity and min-within-mean dominance
            rates = {}
            for tau in (-0.7, -1.5, -2.5):
                for mode in AggregationMode:
                    res2 = run_video_detailed(
                        config, prompt, stack.drafter, stack.target, stack.decoder,
                        stack.scorer, ThresholdPolicy(tau=tau), aggregation=mode,
                        latency=calibration.latency,
                    )
                    rates[(tau, mode)] = res2.summary.accept_rate_excl_block0
            assert (
                rates[(-0.7, AggregationMode.MIN_FRAME)]
                <= rates[(-1.5, AggregationMode.MIN_FRAME)]
                <= rates[(-2.5, AggregationMode.MIN_FRAME)]
            )
            for tau in (-0.7, -1.5, -2.5):
                assert rates[(tau, AggregationMode.MIN_FRAME)] <= rates[(tau, AggregationMode.MEAN_FRAME)]


def test_criterion_7_trace_round_trip(calibration):
    with criterion(7, "exported trace replays to identical decisions in <1s"):
        start = time.perf_counter()
        config = GenerationConfig(score_forced_rejections=True)
        stack = build_synthetic_stack(calibration.with_seed(SEED), config)
        tau = -0.7
        records = []
        live = {}
        for pid in ("t0", "t1", "t2"):
            res = run_video_detailed(
                config, PromptSpec(pid), stack.drafter, stack.target, stack.decoder,
                stack.scorer, ThresholdPolicy(tau=tau), latency=calibration.latency,
            )
            records.extend(records_from_traces(pid, res.summary.block_traces))
            live[pid] = res.summary

        text = serialize_records(records)
        parsed = parse_trace_text(text)
        assert parsed == records
        assert serialize_records(parsed) == text  # canonical round-trip

        for run in replay(parsed, tau=tau, latency=calibration.latency):
            want = live[run.summary.prompt_id]
            assert [t.decision for t in run.summary.block_traces] == [
                t.decision for t in want.block_traces
            ]
            assert run.summary.accept_rate_excl_block0 == want.accept_rate_excl_block0
        assert time.perf_counter() - start < 1.0


def test_criterion_8_end_to_end_budget(full_sweep):
    with criterion(8, "1003-prompt sweep under 60s and byte-identical CSV"):
        _, elapsed, csv_a, csv_b = full_sweep
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
        assert csv_a == csv_b
