from __future__ import annotations

import json
import time

import pytest

from specroute.cli import main
from specroute.synthmodels import (
    Calibration,
    fit_calibration,
    load_reference_table,
    synthetic_table,
    table_to_json_dict,
)


@pytest.fixture(scope="module")
def cal_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cal") / "calibration.json"
    assert main(["fit", "--out", str(path)]) == 0
    return path


class TestFit:
    def test_writes_loadable_calibration(self, cal_path):
        cal = Calibration.load(cal_path)
        assert cal.proxy.base_quality == 0.0788
        assert len(cal.quantile.quantile_knots) == 7

    def test_residual_report_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["fit", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "latency fit" in err
        assert "quality-proxy fit" in err
        assert "max |residual|" in err

    def test_missing_baseline_rows_named(self, tmp_path):
        table = json.loads(
            json.dumps(table_to_json_dict(synthetic_table(fit_calibration(load_reference_table())[0])))
        )
        table["main"] = [r for r in table["main"] if r["method"] != "draft_only"]
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps(table))
        code = main(["fit", "--table", str(bad), "--out", str(tmp_path / "c.json")])
        assert code == 4

    def test_unparseable_table_is_a_parse_error(self, tmp_path):
        bad = tmp_path / "table.json"
        bad.write_text("{nope")
        assert main(["fit", "--table", str(bad), "--out", str(tmp_path / "c.json")]) == 3

    def test_missing_table_file(self, tmp_path):
        code = main(["fit", "--table", str(tmp_path / "absent.json"), "--out", str(tmp_path / "c.json")])
        assert code == 4

    def test_refit_of_synthetic_table_reproduces_calibration(self, cal_path, tmp_path):
        cal = Calibration.load(cal_path)
        table_path = tmp_path / "self.json"
        table_path.write_text(json.dumps(table_to_json_dict(synthetic_table(cal))))
        out = tmp_path / "refit.json"
        assert main(["fit", "--table", str(table_path), "--out", str(out)]) == 0
        refit = Calibration.load(out)
        assert refit.quantile.quantile_knots == cal.quantile.quantile_knots
        assert refit.latency.c_target == pytest.approx(cal.latency.c_target, abs=1e-6)
        assert refit.proxy.penalties == pytest.approx(cal.proxy.penalties, abs=1e-7)


class TestSimulate:
    def test_jsonl_runs_written(self, cal_path, tmp_path):
        out = tmp_path / "runs.jsonl"
        code = main([
            "simulate", "--calibration", str(cal_path), "--n", "3", "--out", str(out),
        ])
        assert code == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(docs) == 3
        assert all(len(d["block_traces"]) == 9 for d in docs)

    def test_missing_calibration_is_validation_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SPECROUTE_CALIBRATION", raising=False)
        assert main(["simulate", "--n", "1", "--out", str(tmp_path / "r.jsonl")]) == 4

    def test_calibration_env_var(self, cal_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECROUTE_CALIBRATION", str(cal_path))
        assert main(["simulate", "--n", "1", "--out", str(tmp_path / "r.jsonl")]) == 0

    @pytest.mark.parametrize(
        "flags",
        [["simulate", "--n", "0"], ["simulate", "--blocks", "0"], ["ablate", "--n", "0"],
         ["sweep", "--blocks", "-1"]],
    )
    def test_non_positive_count_is_usage_error(self, cal_path, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(flags + ["--calibration", str(cal_path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_blocks_override_is_applied(self, cal_path, tmp_path):
        out = tmp_path / "runs.jsonl"
        args = ["simulate", "--calibration", str(cal_path), "--blocks", "3", "--out", str(out)]
        assert main(args) == 0
        assert len(json.loads(out.read_text())["block_traces"]) == 3

    def test_ci_mode_requires_seed(self, cal_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECROUTE_CI", "1")
        args = ["simulate", "--calibration", str(cal_path), "--n", "1",
                "--out", str(tmp_path / "r.jsonl")]
        assert main(args) == 2
        assert main(args + ["--seed", "7"]) == 0


class TestSweep:
    def test_smoke_run_is_fast(self, cal_path, tmp_path):
        out = tmp_path / "sweep.csv"
        start = time.perf_counter()
        code = main([
            "sweep", "--calibration", str(cal_path), "--n", "1", "--out", str(out),
        ])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,quality,time_s,speedup,accept_rate"
        assert len(lines) == 1 + 7 + 2  # seven thresholds plus both baselines

    def test_same_seed_is_byte_identical(self, cal_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--calibration", str(cal_path), "--n", "25", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_tau_list_with_negative_numbers(self, cal_path, tmp_path):
        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--calibration", str(cal_path), "--n", "2",
            "--tau-list", "-0.7", "-1.5", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 2 + 2

    def test_json_report(self, cal_path, tmp_path):
        out_json = tmp_path / "s.json"
        code = main([
            "sweep", "--calibration", str(cal_path), "--n", "2",
            "--out", str(tmp_path / "s.csv"), "--out-json", str(out_json),
        ])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert "pareto" in doc and "rows" in doc
        assert doc["meta"]["num_prompts"] == 2


class TestAblate:
    def test_arm_labels_follow_reference_layout(self, cal_path, tmp_path):
        out = tmp_path / "ablate.csv"
        code = main([
            "ablate", "--calibration", str(cal_path), "--n", "60", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        labels = [line.split(",")[0] for line in lines[1:]]
        assert labels == [
            "target_only",
            "threshold(tau=-0.7)",
            "avg_frame(tau=-0.2)",
            "avg_frame(tau=-0.5)",
            "avg_frame(tau=-0.7)",
            "force_reject_random(rate=0.703)",
            "random(rate=0.7)",
            "draft_only",
        ]

    def test_mean_frame_accepts_more_than_min_frame_at_equal_tau(self, cal_path, tmp_path):
        out = tmp_path / "ablate.csv"
        assert main([
            "ablate", "--calibration", str(cal_path), "--n", "150", "--out", str(out),
        ]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().strip().splitlines()[1:]}
        min_accept = float(rows["threshold(tau=-0.7)"][4])
        mean_accept = float(rows["avg_frame(tau=-0.7)"][4])
        assert mean_accept > min_accept

    def test_random_quality_below_threshold_arm(self, cal_path, tmp_path):
        out = tmp_path / "ablate.csv"
        assert main([
            "ablate", "--calibration", str(cal_path), "--n", "60", "--out", str(out),
        ]) == 0
        rows = {line.split(",")[0]: line.split(",") for line in out.read_text().strip().splitlines()[1:]}
        assert float(rows["random(rate=0.7)"][1]) < float(rows["threshold(tau=-0.7)"][1])


class TestReplayCommand:
    @pytest.fixture()
    def trace_path(self, cal_path, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main([
            "simulate", "--calibration", str(cal_path), "--n", "2",
            "--out", str(tmp_path / "runs.jsonl"), "--export-trace", str(trace),
        ])
        assert code == 0
        return trace

    def test_replay_reproduces_live_decisions(self, cal_path, tmp_path, trace_path):
        runs_doc = [
            json.loads(line) for line in (tmp_path / "runs.jsonl").read_text().splitlines()
        ]
        out = tmp_path / "replay.json"
        code = main([
            "replay", "--trace", str(trace_path), "--tau", "-0.7",
            "--calibration", str(cal_path), "--out", str(out),
        ])
        assert code == 0
        replayed = {r["prompt_id"]: r for r in json.loads(out.read_text())["runs"]}
        for live in runs_doc:
            got = replayed[live["prompt_id"]]
            assert [t["verdict"] for t in got["block_traces"]] == [
                t["verdict"] for t in live["block_traces"]
            ]
            assert got["accept_rate_excl_block0"] == live["accept_rate_excl_block0"]

    def test_replay_without_calibration_uses_recorded_times(self, trace_path, tmp_path, monkeypatch):
        monkeypatch.delenv("SPECROUTE_CALIBRATION", raising=False)
        out = tmp_path / "replay.json"
        assert main(["replay", "--trace", str(trace_path), "--tau", "-0.7",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        provenance = {p for r in doc["runs"] for p in r["timing_provenance"]}
        assert "recorded" in provenance

    def test_malformed_trace_is_parse_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["replay", "--trace", str(bad), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 3

    @pytest.mark.parametrize(
        "fields",
        ['"frame_scores":[1E]', '"frame_scores":[0.5],"target_time_s":1E'],
        ids=["score", "target_time"],
    )
    def test_number_too_large_for_a_float_is_parse_error(self, tmp_path, capsys, fields):
        fields = fields.replace("1E", "1" + "0" * 400)
        bad = tmp_path / "big.jsonl"
        bad.write_text(
            '{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}\n'
            '{"prompt_id":"p0","block_index":1,' + fields + "}\n"
        )
        assert main(["replay", "--trace", str(bad), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_gappy_trace_is_validation_error(self, trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        gappy = tmp_path / "gappy.jsonl"
        gappy.write_text("\n".join(line for line in lines if '"block_index":4' not in line) + "\n")
        assert main(["replay", "--trace", str(gappy), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 4

    def test_missing_trace_file(self, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "absent.jsonl"), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 4
