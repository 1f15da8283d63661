from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import specroute
from specroute import cli
from specroute.cli import build_parser, main
from specroute.core import PromptSpec, default_config, summary_to_dict
from specroute.engine import run_video_detailed
from specroute.sweep import random_arm, run_arms, target_only_arm
from specroute.synthmodels import (
    REFERENCE_TABLE,
    Calibration,
    build_synthetic_stack,
    fit_calibration,
    load_reference_table,
)
from tables import synthetic_table, table_to_json_dict


HUGE_LATENCY = {"c_draft": 1e308, "c_target": 1e308}
# JSON literals that json reads as numbers but that are not finite floats.
NON_FINITE = {"nan": "NaN", "infinity": "Infinity", "1e400": "1e400", "401_digits": "9" * 401}


def _json_with_literal(doc, path, literal: str) -> str:
    """doc as JSON text, with the value at key path `path` written as `literal`."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@LITERAL@"
    return json.dumps(doc).replace('"@LITERAL@"', literal)


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

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b'{"main": 5}', b'{"main": [1]}',
         b'{"main": [{"method": "target_only", "vr": "abc"}]}',
         b'{"main": [{"method": "target_only", "vr": ' + b"[" * 990 + b"]" * 990 + b"}]}",
         b'{"main": [{"method": "target_only", "' + b"k" * 100_000 + b'": "abc"}]}',
         b'{"main": [{"method": "target_only", "vr": ' + b"9" * 5000 + b"}]}"],
        ids=["invalid_utf8", "main_not_an_array", "row_not_an_object", "value_not_a_number",
             "nested_too_deeply", "long_key", "integer_over_the_digit_limit"],
    )
    def test_malformed_table_is_a_parse_error(self, tmp_path, capsys, content):
        bad = tmp_path / "table.json"
        bad.write_bytes(content)
        out = tmp_path / "c.json"
        assert main(["fit", "--table", str(bad), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cannot parse table" in err
        assert len(err) < 1024
        assert not out.exists()

    @pytest.mark.parametrize("literal", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_non_finite_table_number_is_a_parse_error(self, tmp_path, capsys, literal):
        table = tmp_path / "table.json"
        doc = table_to_json_dict(load_reference_table())
        table.write_text(_json_with_literal(doc, ("main", 0, "vr"), literal))
        out = tmp_path / "c.json"
        assert main(["fit", "--table", str(table), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "'table.main[0].vr' is not a finite number" in err
        assert len(err) < 1024
        assert not out.exists()

    def test_missing_table_file(self, tmp_path):
        code = main(["fit", "--table", str(tmp_path / "absent.json"), "--out", str(tmp_path / "c.json")])
        assert code == 4

    def test_missing_bundled_table_is_named(self, tmp_path, capsys, monkeypatch):
        absent = tmp_path / "reference_table.json"
        monkeypatch.setattr(cli, "REFERENCE_TABLE", absent)
        assert main(["fit", "--out", str(tmp_path / "c.json")]) == 4
        assert capsys.readouterr().err == f"error: table file not found: {absent}\n"

    def test_out_dash_writes_the_calibration_to_stdout(self, cal_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == cal_path.read_text()
        assert "latency fit" in captured.err and "quality-proxy fit" in captured.err
        assert not (tmp_path / "-").exists()

    def test_out_naming_the_bundled_table_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # The parser's default is a copy, so a broken rule cannot replace the installed table.
        table = tmp_path / "reference_table.json"
        table.write_bytes(REFERENCE_TABLE.read_bytes())
        monkeypatch.setattr(cli, "REFERENCE_TABLE", table)
        before = table.read_bytes()
        assert main(["fit", "--out", str(table)]) == 2
        assert capsys.readouterr().err == f"error: --out would overwrite the --table input {table}\n"
        assert table.read_bytes() == before

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

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_non_positive_jobs_is_usage_error(self, cal_path, tmp_path, command, jobs):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "1", "--jobs", jobs, "--calibration", str(cal_path),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "value,code", [(-1.0, 4), (float("inf"), 3), ("abc", 3), ("x" * 100_000, 3)],
        ids=["negative", "infinite", "not_a_number", "long_string"],
    )
    def test_bad_latency_value_in_calibration(self, cal_path, tmp_path, capsys, value, code):
        doc = json.loads(cal_path.read_text())
        doc["latency"]["c_draft"] = value
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--calibration", str(bad), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert "c_draft" in err
        assert len(err) < 1024

    def test_long_calibration_key_message_is_bounded(self, cal_path, tmp_path, capsys):
        doc = json.loads(cal_path.read_text())
        doc["latency"]["k" * 100_000] = "abc"
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps(doc))
        assert main(["simulate", "--calibration", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "calibration.latency.kkk" in err
        assert len(err) < 1024

    @pytest.mark.parametrize("depth", [600, 990, 100_000])
    def test_deeply_nested_calibration_is_parse_error(self, tmp_path, depth):
        bad = tmp_path / "cal.json"
        bad.write_text('{"latency": ' + "[" * depth + "]" * depth + "}")
        assert main(["simulate", "--calibration", str(bad), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["sweep", "replay"])
    def test_integer_over_the_digit_limit_in_calibration_is_parse_error(
        self, cal_path, tmp_path, capsys, command
    ):
        # json.dumps refuses such an int, so the literal goes in as text.
        doc = json.loads(cal_path.read_text())
        doc["latency"]["c_draft"] = "HUGE"
        bad = tmp_path / "cal.json"
        bad.write_text(json.dumps(doc).replace('"HUGE"', "9" * 5000))
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}\n')
        args = {"sweep": ["sweep", "--n", "1"], "replay": ["replay", "--trace", str(trace),
                                                         "--tau", "-0.7"]}[command]
        assert main(args + ["--calibration", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "digits" in err and "Traceback" not in err
        assert len(err) < 1024

    @pytest.mark.parametrize(
        "path,literal",
        [(("quality_proxy", "base_quality"), "NaN"),
         (("quality_proxy", "base_quality"), "1e400"),
         (("quality_proxy", "base_quality"), "9" * 401),
         (("latency", "c_draft"), "9" * 401),
         (("draft_quality", "frame_gap_mean"), "9" * 401),
         (("draft_quality", "frame_gap_mean"), "NaN"),
         (("quality_proxy", "edges", 3), "NaN")],
        ids=["base_quality_nan", "base_quality_1e400", "base_quality_401_digits",
             "c_draft_401_digits", "frame_gap_mean_401_digits", "frame_gap_mean_nan", "edge_nan"],
    )
    def test_non_finite_calibration_number_is_a_parse_error(
        self, cal_path, tmp_path, capsys, path, literal
    ):
        bad = tmp_path / "cal.json"
        bad.write_text(_json_with_literal(json.loads(cal_path.read_text()), path, literal))
        out, out_json = tmp_path / "o", tmp_path / "o.json"
        assert main(["sweep", "--calibration", str(bad), "--n", "1", "--blocks", "2",
                     "--out", str(out), "--out-json", str(out_json)]) == 3
        err = capsys.readouterr().err
        assert f"'calibration.{path[0]}.{path[1]}" in err and "is not a finite number" in err
        assert len(err) < 1024
        assert not out.exists() and not out_json.exists()

    def test_rng_seed_in_a_calibration_file_changes_nothing(self, cal_path, tmp_path):
        doc = json.loads(cal_path.read_text())
        assert "rng_seed" not in doc["draft_quality"]
        doc["draft_quality"]["rng_seed"] = 12345
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps(doc))
        outputs = []
        for cal in (cal_path, seeded):
            runs, csv = tmp_path / f"{cal.stem}.jsonl", tmp_path / f"{cal.stem}.csv"
            assert main(["simulate", "--calibration", str(cal), "--policy", "random",
                         "--n", "3", "--blocks", "3", "--out", str(runs)]) == 0
            assert main(["sweep", "--calibration", str(cal), "--n", "3", "--blocks", "3",
                         "--out", str(csv)]) == 0
            outputs.append((runs.read_text(), csv.read_text()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["simulate", "sweep", "ablate"])
    def test_overflowing_quality_proxy_is_validation_error(
        self, cal_path, tmp_path, capsys, command
    ):
        doc = json.loads(cal_path.read_text())
        doc["quality_proxy"]["penalties"] = [1e308] * len(doc["quality_proxy"]["penalties"])
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        out, out_json = tmp_path / "o", tmp_path / "o.json"
        args = [command, "--calibration", str(cal), "--n", "1", "--blocks", "3",
                "--out", str(out)]
        args += {"simulate": ["--policy", "always-accept"], "sweep": ["--out-json", str(out_json)],
                 "ablate": []}[command]
        assert main(args) == 4
        assert "quality proxy of 3 blocks overflows a float" in capsys.readouterr().err
        assert not out_json.exists()
        assert not out.exists() or out.read_text() == ""

    @pytest.mark.parametrize("flag", ["--calibration"])
    def test_invalid_utf8_input_file_is_parse_error(self, cal_path, tmp_path, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe not text\n")
        args = ["simulate", "--calibration", str(cal_path), flag, str(bad),
                "--out", str(tmp_path / "o")]
        assert main(args) == 3

    @pytest.mark.parametrize("force", [False, True])
    def test_random_policy_matches_the_sweeps_random_arm(self, cal_path, tmp_path, force):
        out = tmp_path / "runs.jsonl"
        flags = ["--force-reject-first"] if force else []
        assert main(["simulate", "--calibration", str(cal_path), "--policy", "random",
                     "--rate", "0.6", "--n", "4", "--seed", "11", "--out", str(out)] + flags) == 0
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        rows = run_arms([target_only_arm(), random_arm(0.6, force)], 4, 11,
                        Calibration.load(cal_path))
        keys = ("quality_proxy", "total_time_s", "accept_rate_excl_block0")
        means = [math.fsum(d[key] for d in docs) / 4 for key in keys]
        assert means == [rows[1].quality, rows[1].time_s, rows[1].accept_rate]

    def test_random_policy_record_is_its_prompts_own_run(self, cal_path, tmp_path):
        outs = []
        for n in ("2", "5"):
            out = tmp_path / f"runs{n}.jsonl"
            assert main(["simulate", "--calibration", str(cal_path), "--policy", "random",
                         "--n", n, "--out", str(out)]) == 0
            outs.append([json.loads(line) for line in out.read_text().splitlines()])
        assert outs[0] == outs[1][:2]
        cal = Calibration.load(cal_path).with_seed(42)
        config = default_config().with_overrides(seed=42)
        stack = build_synthetic_stack(cal, config)
        arm = random_arm(0.5, False)
        for i, doc in enumerate(outs[1]):
            summary = run_video_detailed(
                config, PromptSpec(f"p{i:05d}"), stack.drafter, stack.target, stack.decoder,
                stack.scorer, arm.policy.for_run(42, arm.label, i), latency=cal.latency,
                quality_fn=cal.proxy.run_quality,
            ).summary
            assert doc == summary_to_dict(summary)

    @pytest.mark.parametrize("policy", ["threshold", "random", "always-accept", "always-reject"])
    def test_block0_is_forced_by_default_only_under_threshold(self, cal_path, tmp_path, policy):
        out = tmp_path / "runs.jsonl"
        assert main(["simulate", "--calibration", str(cal_path), "--policy", policy,
                     "--n", "3", "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            reason = json.loads(line)["block_traces"][0]["reason"]
            assert (reason == "forced_first_block") == (policy == "threshold")

    @pytest.mark.parametrize(
        "flags", [["--policy", "coin-flip"], ["--policy", "random", "--rate", "1.5"]],
        ids=["unknown_policy", "rate_out_of_range"],
    )
    def test_bad_policy_flags_are_usage_errors(self, cal_path, tmp_path, flags):
        out = tmp_path / "runs.jsonl"
        args = ["simulate", "--calibration", str(cal_path), "--out", str(out)] + flags
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
    @pytest.mark.parametrize(
        "command,flag",
        [("simulate", "--tau"), ("sweep", "--tau-list"), ("replay", "--tau")],
    )
    def test_non_finite_tau_is_usage_error(self, cal_path, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        args = [command, flag, value, "--calibration", str(cal_path), "--out", str(out)]
        if command == "replay":
            args += ["--trace", str(tmp_path / "absent.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_blocks_override_is_applied(self, cal_path, tmp_path):
        out = tmp_path / "runs.jsonl"
        args = ["simulate", "--calibration", str(cal_path), "--blocks", "3", "--out", str(out)]
        assert main(args) == 0
        assert len(json.loads(out.read_text())["block_traces"]) == 3

    @pytest.mark.parametrize("command", ["simulate", "sweep", "ablate"])
    def test_negative_seed_is_usage_error(self, cal_path, tmp_path, capsys, command):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1", "--n", "1", "--calibration", str(cal_path),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,latency,n",
        [("simulate", HUGE_LATENCY, 1), ("sweep", HUGE_LATENCY, 1), ("ablate", HUGE_LATENCY, 1),
         ("sweep", {"c_target": 5e307}, 2)],
        ids=["simulate", "sweep", "ablate", "sweep-sum-over-prompts"],
    )
    def test_overflowing_simulated_time_is_validation_error(
        self, cal_path, tmp_path, capsys, command, latency, n
    ):
        doc = json.loads(cal_path.read_text())
        doc["latency"].update(latency)
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        out = tmp_path / "o"
        args = [command, "--calibration", str(cal), "--n", str(n), "--blocks", "3",
                "--out", str(out)]
        if command == "sweep":
            args += ["--out-json", str(tmp_path / "o.json")]
        assert main(args) == 4
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()
        assert not out.exists() or out.read_text() == ""

    @pytest.mark.parametrize("command", ["simulate", "sweep", "ablate"])
    def test_drafter_scores_overflowing_is_validation_error(
        self, cal_path, tmp_path, capsys, command
    ):
        # Exponential frame gaps of mean 1e308 overflow the drafter's scores to inf.
        doc = json.loads(cal_path.read_text())
        doc["draft_quality"]["frame_gap_mean"] = 1e308
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        out = tmp_path / "o"
        args = [command, "--calibration", str(cal), "--n", "1", "--blocks", "3",
                "--out", str(out)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "block 0: drafter failed: non-finite" in err
        assert len(err) < 1024

    def test_simulated_time_summed_over_prompts_overflowing_is_validation_error(
        self, cal_path, tmp_path, capsys
    ):
        doc = json.loads(cal_path.read_text())
        doc["latency"]["c_target"] = 5e307
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        out = tmp_path / "runs.jsonl"
        args = ["simulate", "--calibration", str(cal), "--n", "3", "--blocks", "3",
                "--out", str(out)]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "overflow" in err and "inf" not in err
        assert len(err) < 1024
        # Each prompt's own total is finite, so its record was written.
        assert all(math.isfinite(json.loads(line)["total_time_s"])
                   for line in out.read_text().splitlines())

    def test_quality_summed_over_prompts_overflowing_is_validation_error(
        self, cal_path, tmp_path, capsys
    ):
        doc = json.loads(cal_path.read_text())
        doc["quality_proxy"]["base_quality"] = 1e308
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        args = ["simulate", "--calibration", str(cal), "--n", "3",
                "--out", str(tmp_path / "runs.jsonl")]
        assert main(args) == 4
        err = capsys.readouterr().err
        assert "the quality proxy over all prompts overflows a float" in err
        assert "inf" not in err

    def test_closed_stdout_ends_the_run_quietly(self, cal_path, tmp_path, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["simulate", "--calibration", str(cal_path), "--n", "2",
                     "--export-trace", str(tmp_path / "t.jsonl")]) == 0

    def test_output_is_streamed(self, cal_path, tmp_path):
        peaks = {}
        for n in (20, 320):
            args = ["simulate", "--calibration", str(cal_path), "--n", str(n),
                    "--out", str(tmp_path / "runs.jsonl"),
                    "--export-trace", str(tmp_path / "trace.jsonl")]
            tracemalloc.start()
            try:
                assert main(args) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "runs.jsonl").read_text().splitlines()) == 320
        # Holding every record made the peak grow 13x here. CPython's tuple
        # free lists, which keep up to 2000 freed tuples per length, still
        # add a bounded 0.3 MB or so as a run warms them.
        assert peaks[320] < 2 * peaks[20], peaks


class TestUnusablePaths:
    """Directories and missing parents: inputs exit 4, outputs exit 2 naming the flag."""

    @pytest.mark.parametrize(
        "command,flag",
        [("simulate", "--calibration"), ("fit", "--table"), ("replay", "--trace")],
    )
    def test_input_path_that_is_a_directory(self, cal_path, tmp_path, capsys, command, flag):
        args = {
            "simulate": ["simulate", "--calibration", str(cal_path)],
            "fit": ["fit"],
            "replay": ["replay", "--tau", "-0.7"],
        }[command]
        out = tmp_path / "o"
        assert main(args + [flag, str(tmp_path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "cannot read" in err and str(tmp_path) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,target",
        [("simulate", "--out", "dir"), ("simulate", "--out", "missing"),
         ("simulate", "--export-trace", "dir"), ("sweep", "--out-json", "dir"),
         ("fit", "--out", "dir")],
        ids=["simulate-out-dir", "simulate-out-missing-parent", "export-trace-dir",
             "sweep-out-json-dir", "fit-out-dir"],
    )
    def test_output_path_that_cannot_be_written(
        self, cal_path, tmp_path, capsys, command, flag, target
    ):
        path = tmp_path if target == "dir" else tmp_path / "missing_dir" / "x.jsonl"
        args = [command] if command == "fit" else [command, "--calibration", str(cal_path)]
        if command == "sweep":
            args += ["--n", "1", "--out", str(tmp_path / "s.csv")]
        elif flag != "--out":
            args += ["--out", str(tmp_path / "runs.jsonl")]
        assert main(args + [flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {flag} {path}" in err


class TestSameOutput:
    """Two outputs of one command that name one destination: exit 2 before anything runs."""

    @pytest.mark.parametrize(
        "command,flag,other_flag",
        [("simulate", "--out", "--export-trace"), ("sweep", "--out", "--out-json")],
    )
    @pytest.mark.parametrize("target", ["same-file", "other-spelling", "symlink", "stdout"])
    def test_same_destination_is_usage_error(
        self, tmp_path, capsys, command, flag, other_flag, target
    ):
        path = tmp_path / "out"
        first = second = str(path)
        if target == "other-spelling":
            (tmp_path / "sub").mkdir()
            second = str(tmp_path / "sub" / ".." / "out")
        elif target == "symlink":
            path.write_text("kept\n")
            (tmp_path / "link").symlink_to(path)
            second = str(tmp_path / "link")
        # A calibration that does not exist: the check comes before it is read.
        argv = [command, "--calibration", str(tmp_path / "none.json"), "--n", "1"]
        if target == "stdout":
            argv += [other_flag, "-"]  # beside the default --out, which is stdout
        else:
            argv += [flag, first, other_flag, second]
        assert main(argv) == 2
        captured = capsys.readouterr()
        expected = "-" if target == "stdout" else second
        assert f"error: {flag} and {other_flag} name the same output {expected}\n" in captured.err
        assert captured.out == ""
        assert path.read_text() == "kept\n" if target == "symlink" else not path.exists()


class TestOutputOverInput:
    """An output that names a file the command reads: exit 2 before anything is read or written."""

    @pytest.mark.parametrize(
        "command,output,source",
        [("fit", "--out", "--table"), ("simulate", "--out", "--calibration"),
         ("simulate", "--export-trace", "--calibration"), ("sweep", "--out", "--calibration"),
         ("sweep", "--out-json", "--calibration"), ("ablate", "--out", "$SPECROUTE_CALIBRATION"),
         ("replay", "--out", "--trace"), ("replay", "--out", "--calibration")],
    )
    @pytest.mark.parametrize("spelling", ["same", "other-spelling", "symlink"])
    def test_output_naming_an_input_is_usage_error(
        self, cal_path, tmp_path, capsys, monkeypatch, command, output, source, spelling
    ):
        monkeypatch.delenv("SPECROUTE_CALIBRATION", raising=False)
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}\n')
        cal = tmp_path / "cal.json"
        cal.write_bytes(cal_path.read_bytes())
        table = tmp_path / "table.json"
        table.write_text(json.dumps(table_to_json_dict(load_reference_table())))
        inputs = {"--table": table, "--calibration": cal, "$SPECROUTE_CALIBRATION": cal,
                  "--trace": trace}
        read = inputs[source]
        before = read.read_bytes()
        target = str(read)
        if spelling == "other-spelling":
            (tmp_path / "sub").mkdir()
            target = str(tmp_path / "sub" / ".." / read.name)
        elif spelling == "symlink":
            (tmp_path / "link").symlink_to(read)
            target = str(tmp_path / "link")

        argv = [command]
        if command == "fit":
            argv += ["--table", str(table)]
        elif command == "ablate":
            monkeypatch.setenv("SPECROUTE_CALIBRATION", str(cal))
        else:
            argv += ["--calibration", str(cal)]
        if command == "replay":
            argv += ["--trace", str(trace), "--tau", "-0.7"]
        elif command != "fit":
            argv += ["--n", "1"]
        if output != "--out":
            argv += ["--out", str(tmp_path / "o")]
        argv += [output, target]

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {output} would overwrite the {source} input {target}\n"
        assert captured.out == ""
        assert read.read_bytes() == before
        assert not (tmp_path / "o").exists()

    def test_stdout_is_not_an_input_file_named_dash(self, cal_path, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "-").write_text('{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}\n')
        argv = ["replay", "--trace", "-", "--tau", "-0.7", "--calibration", str(cal_path)]
        assert main(argv + ["--out", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["runs"][0]["prompt_id"] == "p0"
        assert main(argv + ["--out", "./-"]) == 2
        assert capsys.readouterr().err == "error: --out would overwrite the --trace input ./-\n"


class TestMalformedDocuments:
    """The reference table and the calibration file share one JSON loader and its messages."""

    @pytest.mark.parametrize(
        "content,reason",
        [(b"\xff\xfe{}", "is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                        "invalid start byte"),
         (b"{nope", "is not valid JSON: Expecting property name enclosed in double quotes: "
                    "line 1 column 2 (char 1)"),
         (b'{"main": ' + b"9" * 5000 + b"}",
          f"is not valid JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits"),
         (b'{"main": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "is nested too deeply")],
        ids=["invalid_utf8", "invalid_json", "integer_over_the_digit_limit", "nested_too_deeply"],
    )
    @pytest.mark.parametrize("document", ["table", "calibration"])
    def test_malformed_document_is_a_parse_error(self, tmp_path, capsys, document, content, reason):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        out = tmp_path / "o"
        if document == "table":
            argv = ["fit", "--table", str(path), "--out", str(out)]
            expected = f"error: cannot parse table: reference table {reason}\n"
        else:
            argv = ["simulate", "--calibration", str(path), "--out", str(out)]
            expected = f"error: cannot parse calibration file {path}: calibration file {reason}\n"
        assert main(argv) == 3
        assert capsys.readouterr().err == expected
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value,reason",
        [("draft_quality", "quantile_knots", [[1.0, 0.5, 3.0]],
          "'calibration.draft_quality.quantile_knots[0]' is not an array of 2"),
         ("draft_quality", "quantile_knots", [[1.0]],
          "'calibration.draft_quality.quantile_knots[0]' is not an array of 2"),
         ("draft_quality", "quantile_knots", {"12": [1.0, 2.0]},
          "'calibration.draft_quality.quantile_knots' is not an array"),
         ("quality_proxy", "edges", {"k" * 100_000: 1.0},
          "'calibration.quality_proxy.edges' is not an array"),
         ("quality_proxy", "penalties", 0.5, "'calibration.quality_proxy.penalties' is not an array")],
        ids=["three_element_knot", "one_element_knot", "knots_object", "edges_object_with_long_key",
             "penalties_number"],
    )
    def test_calibration_of_the_wrong_shape_is_a_parse_error(
        self, cal_path, tmp_path, capsys, section, key, value, reason
    ):
        doc = json.loads(cal_path.read_text())
        doc[section][key] = value
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["simulate", "--calibration", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot parse calibration file {path}: calibration file has the wrong shape: "
            f"{reason}\n"
        )
        assert not out.exists()

    def test_unknown_overlap_mode_message_is_bounded(self, cal_path, tmp_path, capsys):
        doc = json.loads(cal_path.read_text())
        doc["latency"]["overlap_mode"] = "m" * 100_000
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--calibration", str(path), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid calibration file {path}: 'mmm")
        assert err.endswith("mmm' is not a valid OverlapMode\n")
        assert len(err) < 1024


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

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize(
        "zeroed,arm",
        [(("c_draft", "c_decode"), "draft_only"),
         (("c_draft", "c_decode", "c_target", "c_score"), "target_only")],
        ids=["draft_path", "all_latencies"],
    )
    def test_zero_time_arm_is_validation_error(
        self, cal_path, tmp_path, capsys, command, zeroed, arm
    ):
        doc = json.loads(cal_path.read_text())
        for key in zeroed:
            doc["latency"][key] = 0.0
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        assert main([command, "--calibration", str(cal), "--n", "1", "--out", str(out)]) == 4
        assert f"arm {arm} has zero simulated time" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_thresholds_are_usage_error(self, tmp_path, capsys):
        # Refused before the calibration is read: the named file does not exist.
        out = tmp_path / "s.csv"
        assert main(["sweep", "--calibration", str(tmp_path / "absent.json"), "--n", "1",
                     "--tau-list", "-0.7", "-0.7", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --tau-list repeats a threshold: ['threshold(tau=-0.7)']\n"
        )
        assert not out.exists()

    def test_zero_and_negative_zero_are_distinct_thresholds(self, cal_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--calibration", str(cal_path), "--n", "1", "--blocks", "2",
                     "--tau-list", "0", "-0", "--out", str(out)]) == 0
        labels = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert labels == ["target_only", "threshold(tau=0)", "threshold(tau=-0)", "draft_only"]

    def test_duplicate_threshold_message_names_only_the_repeats(self, cal_path, tmp_path, capsys):
        taus = [f"{-3 + i / 100:.2f}" for i in range(400)] + ["-0.70"]
        out = tmp_path / "s.csv"
        assert main(["sweep", "--calibration", str(cal_path), "--n", "1",
                     "--tau-list", *taus, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: --tau-list repeats a threshold: ['threshold(tau=-0.7)']\n"
        # The CLI fuzz property's stderr bound.
        assert len(err.encode()) <= 4096

    def test_thresholds_equal_to_six_digits_get_distinct_labels(self, cal_path, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--calibration", str(cal_path), "--n", "1", "--blocks", "2",
                     "--tau-list", "-0.7", "-0.7000001", "--out", str(out)]) == 0
        labels = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert labels == ["target_only", "threshold(tau=-0.7)", "threshold(tau=-0.7000001)",
                          "draft_only"]

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


def _stdout_commands(cal_path, tmp_path):
    """Each command writing to stdout ("-"): the default --out, and sweep's --out-json."""
    cal = ["--calibration", str(cal_path)]
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", "--n", "2", "--out", str(tmp_path / "runs.jsonl"),
                 "--export-trace", str(trace)] + cal) == 0
    return {
        "simulate": (["simulate", "--n", "2"] + cal, "--out"),
        "sweep": (["sweep", "--n", "2"] + cal, "--out"),
        "sweep-out-json": (["sweep", "--n", "2", "--out", str(tmp_path / "s.csv"),
                            "--out-json", "-"] + cal, "--out-json"),
        "ablate": (["ablate", "--n", "2"] + cal, "--out"),
        "replay": (["replay", "--trace", str(trace), "--tau", "-0.7"] + cal, "--out"),
    }


_STDOUT_CASES = ["simulate", "sweep", "sweep-out-json", "ablate", "replay"]


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFullStdout:
    """A failing stdout is an unwritable output: exit 2 naming the flag, no traceback."""

    @pytest.mark.parametrize("case", _STDOUT_CASES)
    def test_stdout_raising_enospc(self, cal_path, tmp_path, capsys, monkeypatch, case):
        args, flag = _stdout_commands(cal_path, tmp_path)[case]
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", _FullStdout())
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {flag} -: No space left on device" in err
        assert "Traceback" not in err

    def test_stdout_failing_beside_another_output_names_stdout(
        self, cal_path, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(sys, "stdout", _FullStdout())
        assert main(["simulate", "--n", "2", "--calibration", str(cal_path),
                     "--export-trace", str(tmp_path / "t.jsonl")]) == 2
        assert "error: cannot write --out -: No space left on device" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("case", _STDOUT_CASES)
    def test_stdout_on_a_full_device(self, cal_path, tmp_path, case):
        args, flag = _stdout_commands(cal_path, tmp_path)[case]
        src = str(Path(specroute.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "specroute.cli"] + args, stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path},
            )
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert f"error: cannot write {flag} -: No space left on device" in proc.stderr
        assert "Traceback" not in proc.stderr


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

    def test_invalid_utf8_is_parse_error_naming_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(
            b'{"prompt_id":"p0","block_index":0,"frame_scores":[0.5]}\n'
            b'{"prompt_id":"p\xff","block_index":0,"frame_scores":[0.5]}\n'
        )
        assert main(["replay", "--trace", str(bad), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_bad_producer_message_is_bounded(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        record = {"prompt_id": "p0", "block_index": 0, "frame_scores": [0.5],
                  "producer_observed": "x" * 50_000}
        bad.write_text(json.dumps(record) + "\n")
        assert main(["replay", "--trace", str(bad), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        assert "producer_observed" in err
        assert len(err) < 1024

    def test_unknown_field_message_is_bounded(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        record = {"prompt_id": "p0", "block_index": 0, "frame_scores": [0.5],
                  "k" * 100_000: 1}
        bad.write_text(json.dumps(record) + "\n")
        assert main(["replay", "--trace", str(bad), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 3
        err = capsys.readouterr().err
        assert "unknown fields" in err
        assert len(err) < 1024

    def test_overflowing_recorded_time_is_validation_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SPECROUTE_CALIBRATION", raising=False)
        record = {"prompt_id": "p", "frame_scores": [0.0], "draft_time_s": 1e308,
                  "decode_time_s": 0.0, "score_time_s": 0.0, "target_time_s": 1.0}
        trace, out = tmp_path / "t.jsonl", tmp_path / "r.json"
        trace.write_text("".join(json.dumps({**record, "block_index": b}) + "\n" for b in (0, 1)))
        assert main(["replay", "--trace", str(trace), "--tau", "-1", "--out", str(out)]) == 4
        assert "overflows a float" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scores", [[1e308, 1e308], [-1e308, -1e308, 1e308, 1e308]],
                             ids=["plus", "minus"])
    def test_overflowing_mean_frame_score_is_validation_error(
        self, tmp_path, capsys, monkeypatch, scores
    ):
        monkeypatch.delenv("SPECROUTE_CALIBRATION", raising=False)
        record = {"prompt_id": "p", "draft_time_s": 1.0, "decode_time_s": 0.0,
                  "score_time_s": 0.0, "target_time_s": 1.0}
        trace, out = tmp_path / "t.jsonl", tmp_path / "r.json"
        trace.write_text("".join(json.dumps({**record, "block_index": b, "frame_scores": f}) + "\n"
                                 for b, f in enumerate([[0.0], scores])))
        assert main(["replay", "--trace", str(trace), "--tau", "-1", "--aggregation",
                     "mean_frame", "--out", str(out)]) == 4
        assert "mean frame score of block 1 overflows a float" in capsys.readouterr().err
        assert not out.exists()

    def test_gappy_trace_is_validation_error(self, trace_path, tmp_path):
        lines = trace_path.read_text().splitlines()
        gappy = tmp_path / "gappy.jsonl"
        gappy.write_text("\n".join(line for line in lines if '"block_index":4' not in line) + "\n")
        assert main(["replay", "--trace", str(gappy), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 4

    def test_missing_trace_file(self, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "absent.jsonl"), "--tau", "-0.7",
                     "--out", str(tmp_path / "o.json")]) == 4


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which attributes are read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestFlags:
    @pytest.mark.parametrize("command", ["simulate", "sweep", "ablate"])
    def test_config_flag_is_gone(self, cal_path, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--calibration", str(cal_path), "--config", "run.cfg", "--n", "1",
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config run.cfg" in capsys.readouterr().err

    def test_every_flag_is_read(self, cal_path, tmp_path):
        def o(name):
            return str(tmp_path / name)

        cal, trace = ["--calibration", str(cal_path)], o("trace.jsonl")
        small = ["--n", "1", "--blocks", "2", "--seed", "42"]
        invocations = [
            ["fit", "--out", o("cal.json")],
            ["simulate", *cal, *small, "--out", o("runs.jsonl"), "--export-trace", trace],
            ["simulate", *cal, *small, "--policy", "random", "--out", o("runs.jsonl")],
            ["sweep", *cal, *small, "--tau-list", "-0.7", "--jobs", "1",
             "--out", o("sweep.csv"), "--out-json", o("sweep.json")],
            ["ablate", *cal, *small, "--jobs", "1", "--out", o("ablate.csv")],
            ["replay", "--trace", trace, "--tau", "-0.7", *cal, "--out", o("replay.json")],
        ]
        parser = build_parser()
        reads: dict[str, set[str]] = {}
        for argv in invocations:
            args = parser.parse_args(argv, namespace=_ReadRecorder())
            args._reads.clear()  # parsing itself reads every attribute
            assert args.func(args) in (0, 1)
            reads.setdefault(argv[0], set()).update(args._reads)

        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        unread = [
            f"{name} {action.option_strings[0]}"
            for name, sub in subparsers.items()
            for action in sub._actions
            if action.option_strings and action.dest != "help"
            and action.dest not in reads[name]
        ]
        assert unread == []


class TestStartup:
    def test_only_fit_imports_scipy(self, cal_path, tmp_path):
        # A fresh interpreter, since this one has long imported scipy through fit.
        cal, out = str(cal_path), str(tmp_path)
        script = f"""
import sys
import specroute
from specroute.cli import main
assert "scipy" not in sys.modules, "import specroute"
commands = [
    ["sweep", "--n", "1", "--calibration", {cal!r}, "--out", {out!r} + "/s.csv"],
    ["simulate", "--n", "1", "--calibration", {cal!r}, "--out", {out!r} + "/r.jsonl",
     "--export-trace", {out!r} + "/t.jsonl"],
    ["ablate", "--n", "1", "--calibration", {cal!r}, "--out", {out!r} + "/a.csv"],
    ["replay", "--trace", {out!r} + "/t.jsonl", "--tau", "-0.7", "--calibration", {cal!r},
     "--out", {out!r} + "/p.json"],
]
for argv in commands:
    assert main(argv) in (0, 1), argv[0]
    assert "scipy" not in sys.modules, argv[0]
"""
        _run_fresh(script)

    def test_package_exports_only_the_public_surface(self):
        script = """
import sys, types
import specroute
public = {n for n, v in vars(specroute).items()
          if not n.startswith("_") and not isinstance(v, types.ModuleType)}
assert public == {
    "GeneratorInterface", "DecoderInterface", "ScorerInterface",
    "ExternalTraceRecord", "TraceFormatError", "parse_trace", "serialize_records",
    "Calibration", "CalibrationError", "build_synthetic_stack", "default_config",
}, sorted(public)
assert "specroute.sweep" not in sys.modules
"""
        _run_fresh(script)


def _run_fresh(script: str) -> None:
    """Run script in a fresh interpreter that imports this checkout's specroute."""
    src = str(Path(specroute.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
