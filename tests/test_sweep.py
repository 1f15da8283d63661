from __future__ import annotations

import hashlib
import inspect
import random
from concurrent.futures import Future

import pytest

from specroute import sweep
from specroute.cli import main
from specroute.sweep import (
    SweepRow,
    SweepSpec,
    ablation_arms,
    draft_only_arm,
    mean_frame_arm,
    pareto_check,
    random_arm,
    rows_to_csv,
    run_arms,
    run_sweep,
    target_only_arm,
    threshold_arm,
)

SMALL_TAUS = (-0.7, -1.5, -2.5)


@pytest.fixture(scope="module")
def small_rows(calibration):
    spec = SweepSpec(thresholds=SMALL_TAUS, num_prompts=40, seed=11)
    return run_sweep(spec, calibration)


class TestSweepSpec:
    def test_requires_thresholds(self):
        with pytest.raises(ValueError):
            SweepSpec(thresholds=())

    def test_requires_prompts(self, calibration):
        # run_arms checks the count, so run_sweep and a direct call fail alike.
        with pytest.raises(ValueError, match="num_prompts must be >= 1"):
            run_sweep(SweepSpec(thresholds=(-0.7,), num_prompts=0), calibration)
        with pytest.raises(ValueError, match="num_prompts must be >= 1"):
            run_arms([target_only_arm()], 0, 42, calibration)

    def test_arm_order_has_baselines_around_thresholds(self):
        labels = [a.label for a in SweepSpec(thresholds=SMALL_TAUS).arms()]
        assert labels[0] == "target_only"
        assert labels[-1] == "draft_only"
        assert len(labels) == 5


class TestRunSweep:
    def test_row_per_arm(self, small_rows):
        assert [r.label for r in small_rows] == [
            "target_only",
            "threshold(tau=-0.7)",
            "threshold(tau=-1.5)",
            "threshold(tau=-2.5)",
            "draft_only",
        ]

    def test_target_only_speedup_is_exactly_one(self, small_rows):
        assert small_rows[0].speedup == 1.0

    def test_target_only_quality_is_anchored(self, small_rows, calibration):
        # every target-only run scores base_quality exactly; the row mean can
        # carry at most summation epsilon
        assert small_rows[0].quality == pytest.approx(
            calibration.proxy.base_quality, abs=1e-12
        )

    def test_rows_reproducible_under_fixed_seed(self, calibration, small_rows):
        again = run_sweep(SweepSpec(thresholds=SMALL_TAUS, num_prompts=40, seed=11), calibration)
        assert again == small_rows

    def test_seed_changes_monte_carlo_outcomes(self, calibration, small_rows):
        other = run_sweep(SweepSpec(thresholds=SMALL_TAUS, num_prompts=40, seed=12), calibration)
        assert other != small_rows

    def test_seed_argument_is_the_runs_only_seed(self, calibration):
        arms = [target_only_arm(), threshold_arm(-0.7), random_arm(0.5, False)]
        rows = run_arms(arms, 5, 42, calibration)
        assert run_arms(arms, 5, 42, calibration.with_seed(99)) == rows
        assert run_arms(arms, 5, 7, calibration) != rows
        for fn in (run_arms, run_sweep):
            assert "config" not in inspect.signature(fn).parameters
        assert "seed" not in inspect.signature(sweep.run_prompts).parameters

    def test_num_blocks_comes_from_the_spec(self, calibration):
        spec = SweepSpec(thresholds=(-0.7,), num_prompts=3, seed=5, num_blocks=4)
        rows = run_sweep(spec, calibration)
        assert rows == run_arms(spec.arms(), 3, 5, calibration, num_blocks=4)
        assert rows != run_sweep(SweepSpec(thresholds=(-0.7,), num_prompts=3, seed=5), calibration)

    def test_single_prompt_always_reject_speedup(self, calibration):
        rows = run_sweep(SweepSpec(thresholds=(-0.7,), num_prompts=1, seed=0), calibration)
        by_label = {r.label: r for r in rows}
        assert by_label["target_only"].speedup == 1.0
        assert by_label["target_only"].accept_rate == 0.0

    def test_adding_arms_never_shifts_existing_rows(self, calibration, small_rows):
        spec = SweepSpec(thresholds=SMALL_TAUS, num_prompts=40, seed=11)
        extended = run_arms(
            spec.arms() + [random_arm(0.7, force_reject_block0=False)], 40, 11, calibration
        )
        assert extended[:-1] == small_rows

    def test_repeated_labels_are_refused(self, calibration):
        arms = [target_only_arm(), threshold_arm(-0.7), mean_frame_arm(-0.7), threshold_arm(-0.7)]
        with pytest.raises(ValueError, match=r"repeated: \['threshold\(tau=-0.7\)'\]"):
            run_arms(arms, 1, 42, calibration)

    def test_jobs_do_not_change_results(self, calibration, small_rows):
        parallel = run_sweep(
            SweepSpec(thresholds=SMALL_TAUS, num_prompts=40, seed=11), calibration, jobs=2
        )
        assert parallel == small_rows

    def test_random_arm_quality_below_threshold_arms_at_matched_rate(self, calibration):
        spec = SweepSpec(thresholds=(-0.7, -1.0, -2.5), num_prompts=120, seed=3)
        rows = run_arms(
            spec.arms() + [random_arm(0.70, force_reject_block0=False)], 120, 3, calibration
        )
        by_label = {r.label: r for r in rows}
        random_quality = by_label["random(rate=0.7)"].quality
        for label, row in by_label.items():
            if label.startswith("threshold"):
                assert random_quality < row.quality

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (42, "b74231f83019e15f2f5e0635f2e01eef37fd7bdc1b2baa21679645cfb4505b84"),
            (7, "8a9781511bcc64f1e40bb111c33090c20485b82afa17a55b9533d8f8ad795254"),
        ],
    )
    def test_sweep_and_ablation_csv_is_pinned(self, calibration, seed, digest):
        # Digests of the output before one prompt's arms ran in lockstep.
        spec = SweepSpec(thresholds=(-0.7, -0.8, -0.9, -1.0, -1.5, -2.0, -2.5), num_prompts=12,
                         seed=seed)
        ablation = [target_only_arm()] + ablation_arms() + [draft_only_arm()]
        text = rows_to_csv(run_sweep(spec, calibration)) + rows_to_csv(
            run_arms(ablation, 12, seed, calibration)
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_sweep_json_report_is_pinned(self, calibration, tmp_path):
        cal, out = tmp_path / "cal.json", tmp_path / "sweep.json"
        cal.write_text(calibration.to_json())
        assert main(["sweep", "--calibration", str(cal), "--n", "3", "--seed", "42",
                     "--out", str(tmp_path / "sweep.csv"), "--out-json", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a21cc70953257e91c4e39861062f48f2351a3194f90e6e5889eb2006d44ad8e5"
        )

    @pytest.mark.parametrize(
        "flags,digest",
        [
            ([], "fd27d50113f343045848b413faa0a3942968db1f928c7089cbda90ee12229d18"),
            (["--policy", "random"],
             "4dd472443e3b91f783cd35603760426079e2292fcb838fe6d470f740d030b34b"),
        ],
        ids=["threshold", "random"],
    )
    def test_simulate_jsonl_is_pinned(self, calibration, tmp_path, flags, digest):
        cal, out = tmp_path / "cal.json", tmp_path / "runs.jsonl"
        cal.write_text(calibration.to_json())
        assert main(["simulate", "--calibration", str(cal), "--n", "3", "--seed", "42",
                     "--out", str(out)] + flags) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_replay_json_of_an_exported_trace_is_pinned(self, calibration, tmp_path):
        cal, trace, out = tmp_path / "cal.json", tmp_path / "trace.jsonl", tmp_path / "replay.json"
        cal.write_text(calibration.to_json())
        assert main(["simulate", "--calibration", str(cal), "--n", "3", "--seed", "42",
                     "--out", str(tmp_path / "runs.jsonl"), "--export-trace", str(trace)]) == 0
        assert main(["replay", "--trace", str(trace), "--tau", "-1.0",
                     "--calibration", str(cal), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "943c795b6b05e2d6b8259a9a79d0ffa90ec4b5f28a8c80c594e3892d4a8896bb"
        )

    def test_duplicate_labels_rejected(self, calibration):
        with pytest.raises(ValueError):
            run_arms([target_only_arm(), target_only_arm()], 1, 0, calibration)

    def test_target_only_arm_required(self, calibration):
        with pytest.raises(ValueError):
            run_arms([draft_only_arm()], 1, 0, calibration)


class TestAblationArms:
    def test_arm_list_matches_reference_layout(self):
        labels = [a.label for a in ablation_arms()]
        assert labels == [
            "threshold(tau=-0.7)",
            "avg_frame(tau=-0.2)",
            "avg_frame(tau=-0.5)",
            "avg_frame(tau=-0.7)",
            "force_reject_random(rate=0.703)",
            "random(rate=0.7)",
        ]

    def test_mean_frame_arm_accepts_more_than_min_frame(self, calibration):
        arms = [target_only_arm(), threshold_arm(-0.7), mean_frame_arm(-0.7)]
        rows = run_arms(arms, 120, 5, calibration)
        by_label = {r.label: r for r in rows}
        assert (
            by_label["avg_frame(tau=-0.7)"].accept_rate
            > by_label["threshold(tau=-0.7)"].accept_rate
        )


def table_shaped_rows():
    """Rows mirroring the reference sweep, including its quality wobble."""
    data = [
        ("threshold(tau=-0.7)", -0.7, 0.0773, 60.9, 1.59, 0.731),
        ("threshold(tau=-0.8)", -0.8, 0.0769, 58.6, 1.66, 0.749),
        ("threshold(tau=-0.9)", -0.9, 0.0771, 58.3, 1.66, 0.764),
        ("threshold(tau=-1)", -1.0, 0.0764, 57.2, 1.69, 0.780),
        ("threshold(tau=-1.5)", -1.5, 0.0757, 51.6, 1.88, 0.834),
        ("threshold(tau=-2)", -2.0, 0.0756, 47.4, 2.05, 0.875),
        ("threshold(tau=-2.5)", -2.5, 0.0754, 46.4, 2.09, 0.889),
    ]
    return [
        SweepRow(label=l, tau=t, quality=q, time_s=ts, speedup=sp, accept_rate=a)
        for l, t, q, ts, sp, a in data
    ]


class TestParetoCheck:
    def test_reference_rows_pass_with_quality_band(self):
        # quality rises 0.0769 -> 0.0771 between adjacent thresholds; the
        # default 0.001 band must tolerate it.
        report = pareto_check(table_shaped_rows())
        assert report.ok
        assert report.rows_checked == 7

    def test_reference_rows_fail_with_zero_band(self):
        report = pareto_check(table_shaped_rows(), quality_tolerance=0.0)
        assert not report.ok
        assert any("quality rose" in v for v in report.violations)

    def test_single_row_vacuously_passes(self):
        report = pareto_check(table_shaped_rows()[:1])
        assert report.ok and report.rows_checked == 1

    def test_order_independent(self):
        rows = table_shaped_rows()
        rng = random.Random(0)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert pareto_check(shuffled) == pareto_check(rows)

    def test_accept_rate_regression_flagged(self):
        rows = table_shaped_rows()
        rows[3] = SweepRow(
            label=rows[3].label, tau=rows[3].tau, quality=rows[3].quality,
            time_s=rows[3].time_s, speedup=rows[3].speedup, accept_rate=0.50,
        )
        report = pareto_check(rows)
        assert not report.ok
        assert any("accept rate fell" in v for v in report.violations)

    def test_baseline_rows_are_ignored(self):
        rows = table_shaped_rows() + [
            SweepRow("target_only", None, 0.0788, 97.0, 1.0, 0.0),
            SweepRow("draft_only", None, 0.0644, 25.7, 3.77, 1.0),
        ]
        assert pareto_check(rows).rows_checked == 7


class TestCsv:
    def test_header_and_shape(self, small_rows):
        text = rows_to_csv(small_rows)
        lines = text.strip().splitlines()
        assert lines[0] == "label,quality,time_s,speedup,accept_rate"
        assert len(lines) == 1 + len(small_rows)
        assert lines[1].startswith("target_only,")

    def test_csv_deterministic(self, small_rows):
        assert rows_to_csv(small_rows) == rows_to_csv(small_rows)


class InlineExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs tasks inline."""

    created: list[int] = []

    def __init__(self, max_workers: int):
        InlineExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestJobs:
    ARMS = [target_only_arm(), threshold_arm(-0.7), random_arm(0.5, force_reject_block0=True)]

    @pytest.fixture()
    def inline(self, monkeypatch):
        InlineExecutor.created = []
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlineExecutor)
        return InlineExecutor

    @pytest.mark.parametrize("jobs,cpus,workers", [(64, 3, [3]), (2, 3, [2]), (8, None, [])])
    def test_workers_capped_at_cpu_count(self, calibration, monkeypatch, inline, jobs, cpus,
                                         workers):
        serial = run_arms(self.ARMS, 7, 4, calibration)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        assert run_arms(self.ARMS, 7, 4, calibration, jobs=jobs) == serial
        assert inline.created == workers
