"""Fuzzing the CLI: no flag or input-file content gives a traceback or an undocumented exit.

Every subcommand runs in-process on drawn argv tokens (real flags and
values, garbage, nan, inf, negative and huge numbers) and on drawn
contents of its calibration, table and trace files. The property:
no exception escapes main(), the exit code is documented (1, the Pareto
verdict, only from sweep), stderr stays within 4 KB and a successful run
writes no Infinity or NaN, and no CSV cell that is not a finite number.

A run's cost grows linearly with --n and --blocks by design, so both are
drawn from {1, 2, 3} only. The sweep's process pool is replaced by an inline
executor, so no process starts.
"""

from __future__ import annotations

import copy
import io
import json
import math
import os
from concurrent.futures import Future
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specroute import sweep
from specroute.cli import main
from specroute.synthmodels import REFERENCE_TABLE

MAX_STDERR = 4096
SMALL_COUNTS = ["1", "2", "3"]
NUMBERS = ["0", "1", "-1", "3", "0.5", "-0.7", "1.5", "nan", "-nan", "inf", "-inf", "1e308",
           "1e999", "-1e999", "99999999999999999999", "-99999999999999999999"]
GARBAGE = ["", "x", "é", "--", "0x10", "1_0", "\x00", "true"]
# Outside values that an error message must not echo whole: each is longer
# than the stderr bound.
LONG_STRING = "s" * 5000
LONG_KEY_OBJECT = {"k" * 5000: 1.0}
# An argv token and a missing file's path of the same length.
LONG_TOKEN = "t" * 5000
LONG_MISSING = "@missing/" + "m" * 5000
# JSON values a calibration, table or trace leaf is replaced with.
JSON_VALUES = [-1, 0, 1, 0.5, -0.7, 1e308, 5e307, -1e308, 1e-308, float("nan"), float("inf"),
               10**30, 2**64, 10**400, "x", "", None, True, [], {}, [0.0], LONG_STRING,
               LONG_KEY_OBJECT]

INPUTS = ["@cal", "@table", "@trace", "@valid_cal", "@missing", "@dir", "", LONG_MISSING]
OUTPUTS = ["@out", "-", "@dir", "@missing_parent/o", "", LONG_MISSING]
VALUE_POOLS = {
    "--n": SMALL_COUNTS + ["0", "-1", "nan", "x", "", "1.5", "-99999999999999999999"],
    "--blocks": SMALL_COUNTS + ["0", "-1", "inf", "x", ""],
    "--jobs": ["1", "2", "3", "0", "-1", "99999999999999999999", "x"],
    "--policy": ["threshold", "random", "always-accept", "always-reject", "coin", ""],
    "--aggregation": ["min_frame", "mean_frame", "max", ""],
}
FLAGS = {
    "fit": ["--table", "--out"],
    "simulate": ["--seed", "--calibration", "--blocks", "--policy", "--tau", "--rate",
                 "--force-reject-first", "--no-force-reject-first", "--aggregation", "--n",
                 "--out", "--export-trace"],
    "sweep": ["--seed", "--calibration", "--blocks", "--tau-list", "--n", "--jobs",
              "--out", "--out-json"],
    "ablate": ["--seed", "--calibration", "--blocks", "--n", "--jobs", "--out"],
    "replay": ["--trace", "--tau", "--aggregation", "--no-force-reject-first", "--calibration",
               "--out"],
}
SWITCHES = {"--force-reject-first", "--no-force-reject-first"}


def _values(flag: str):
    if flag in VALUE_POOLS:
        return st.sampled_from(VALUE_POOLS[flag])
    if flag in ("--table", "--calibration", "--trace"):
        return st.sampled_from(INPUTS)
    if flag in ("--out", "--out-json", "--export-trace"):
        return st.sampled_from(OUTPUTS)
    return st.sampled_from(NUMBERS + GARBAGE)


def _flag_tokens(command: str):
    def tokens(flag: str):
        if flag in SWITCHES:
            return st.just([flag])
        if flag == "--tau-list":
            return st.lists(_values(flag), min_size=1, max_size=3).map(lambda v: [flag, *v])
        return _values(flag).map(lambda v: [flag, v])

    return st.sampled_from(FLAGS[command]).flatmap(tokens)


stray_tokens = st.one_of(
    st.sampled_from(NUMBERS + GARBAGE + [LONG_TOKEN, LONG_MISSING]),
    st.text(max_size=8).filter(lambda t: not t.startswith("-")),
).map(lambda t: [t])


def _base(command: str):
    """The flags that keep a run small and point it at the drawn files."""
    if command == "fit":
        return st.just(["fit", "--table", "@table", "--out", "@out"])
    if command == "replay":
        return _values("--tau").map(lambda tau: ["replay", "--trace", "@trace", "--tau", tau])
    return st.tuples(st.sampled_from(SMALL_COUNTS), st.sampled_from(SMALL_COUNTS)).map(
        lambda nb: [command, "--calibration", "@cal", "--n", nb[0], "--blocks", nb[1],
                    "--out", "@out"]
    )


def _argv(command: str):
    extras = st.lists(st.one_of(_flag_tokens(command), stray_tokens), max_size=4)
    return st.tuples(_base(command), extras).map(
        lambda parts: parts[0] + [t for tokens in parts[1] for t in tokens]
    )


argvs = st.sampled_from(sorted(FLAGS)).flatmap(_argv)

# A file's content: None keeps the valid file, bytes replace it, and a list
# of (selector, value) pairs edits the valid one. An int selector picks a
# leaf by index, modulo their number; a tuple is a key path.
edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(JSON_VALUES) | st.sampled_from(["DELETE"])),
    min_size=1, max_size=3,
)
# HUGE_INTEGER is the one raw content JSON_VALUES cannot give: json.dumps
# refuses an int over the digit limit, and json.loads raises a plain
# ValueError for one.
HUGE_INTEGER = b"9" * 5000
raw = st.binary(max_size=64) | st.sampled_from(
    [b"", b"{}", b"[]", b"null", b"\xff\xfe", b"{\"a\":", HUGE_INTEGER]
)
contents = st.fixed_dictionaries({
    "cal": st.none() | edits | raw,
    "table": st.none() | edits | raw,
    "trace": st.none() | edits | raw,
})


class _InlineExecutor:
    """Stands in for the sweep's process pool: runs each chunk inline."""

    def __init__(self, max_workers: int):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _leaves(doc, path=()):
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, (*path, key))
    else:
        yield path


def _edit_json(doc, changes):
    for selector, value in changes:
        leaves = list(_leaves(doc))
        if not leaves or leaves == [()]:
            return doc
        path = selector if isinstance(selector, tuple) else leaves[selector % len(leaves)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value == "DELETE":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Valid inputs for every subcommand; runs happen with this as the working directory."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "dir").mkdir()
    with redirect_stderr(io.StringIO()):
        assert main(["fit", "--out", str(root / "valid_cal")]) == 0
        assert main(["simulate", "--calibration", str(root / "valid_cal"), "--n", "2",
                     "--blocks", "3", "--out", str(root / "runs"),
                     "--export-trace", str(root / "valid_trace")]) == 0
    (root / "valid_table").write_text(REFERENCE_TABLE.read_text())
    cwd = os.getcwd()
    os.chdir(root)
    yield root
    os.chdir(cwd)


def _write_inputs(root: Path, files: dict) -> None:
    for kind, content in files.items():
        valid = (root / f"valid_{kind}").read_text()
        if content is None:
            text = valid.encode()
        elif isinstance(content, bytes):
            text = content
        elif kind == "trace":
            records = _edit_json([json.loads(line) for line in valid.splitlines()], content)
            text = "".join(json.dumps(r) + "\n" for r in records).encode()
        else:
            text = json.dumps(_edit_json(json.loads(valid), content)).encode()
        (root / kind).write_bytes(text)


def _resolve(token: str, root: Path) -> str:
    if token.startswith("@"):
        return str(root / token[1:])
    return token


OVERFLOW_TRACE = "".join(
    json.dumps({"prompt_id": "p", "block_index": b, "frame_scores": [0.0], "draft_time_s": 1e308,
                "decode_time_s": 0.0, "score_time_s": 0.0, "target_time_s": 1.0}) + "\n"
    for b in range(2)
).encode()
HUGE_LATENCY = [(("latency", "c_draft"), 1e308), (("latency", "c_target"), 1e308)]
HUGE_PENALTIES = [(("quality_proxy", "penalties", k), 1e308) for k in range(8)]
OVERFLOW_MEAN_TRACE = "".join(
    json.dumps({"prompt_id": "p", "block_index": b, "frame_scores": scores, "draft_time_s": 1.0,
                "decode_time_s": 0.0, "score_time_s": 0.0, "target_time_s": 1.0}) + "\n"
    for b, scores in enumerate([[0.0], [1e308, 1e308]])
).encode()
NO_EDITS = {"cal": None, "table": None, "trace": None}
# Outside values that error messages echo: each is about 100 KB in full.
LONG_NAME = "x" * 100_000


def _long_id_trace(blocks) -> bytes:
    """Untimed records of one prompt with a LONG_NAME id."""
    return "".join(
        json.dumps({"prompt_id": LONG_NAME, "block_index": b, "frame_scores": [0.0]}) + "\n"
        for b in blocks
    ).encode()


GAPPY_TRACE = _long_id_trace((0, 2))
UNTIMED_TRACE = _long_id_trace((0, 1))
UNSORTED_KNOTS = [(("draft_quality", "quantile_knots"), [[k % 2, 0.5] for k in range(20_000)])]
EQUAL_TAU_ROW = {"method": "threshold", "tau": -1.0, "vr": 0.07, "time_s": 57.2,
                 "accept_rate": 0.78}
EQUAL_TAU_ROWS = [(("main",), [
    {"method": "target_only", "vr": 0.08, "time_s": 97.0},
    {"method": "draft_only", "vr": 0.06, "time_s": 25.7},
    *[EQUAL_TAU_ROW] * 20_000,
])]
UNTIMED_LONG_METHOD = [(("main", 0, "method"), LONG_NAME), (("main", 0, "time_s"), None)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argv=argvs, files=contents)
@example(argv=["sweep", "--calibration", "@cal", "--n", "1", "--blocks", "1",
               "--out", "@out", "--out-json", "@out_json"],
         files={**NO_EDITS, "cal": HUGE_LATENCY})
@example(argv=["sweep", "--calibration", "@cal", "--n", "2", "--blocks", "3", "--out", "@out"],
         files={**NO_EDITS, "cal": [(("latency", "c_target"), 5e307)]})
@example(argv=["simulate", "--calibration", "@cal", "--n", "1", "--blocks", "1", "--out", "@out"],
         files={**NO_EDITS, "cal": HUGE_LATENCY})
@example(argv=["replay", "--trace", "@trace", "--tau", "-1", "--out", "@out"],
         files={**NO_EDITS, "trace": OVERFLOW_TRACE})
@example(argv=["simulate", "--calibration", "@cal", "--n", "1", "--seed", "-1"],
         files=NO_EDITS)
@example(argv=["ablate", "--calibration", "@cal", "--n", "1", "--blocks", "1", "--out", "@out"],
         files={**NO_EDITS, "cal": [(("draft_quality", "frame_gap_mean"), 1e308)]})
@example(argv=["fit", "--table", "@table", "--out", "@out"],
         files={**NO_EDITS, "table": HUGE_INTEGER})
@example(argv=["fit", "--table", "@table", "--out", "@out"],
         files={**NO_EDITS, "table": [(("main", 0, "vr"), 10**400)]})
@example(argv=["sweep", "--calibration", "@cal", "--n", "1", "--blocks", "2", "--out", "@out"],
         files={**NO_EDITS, "cal": [(("quality_proxy", "base_quality"), float("nan"))]})
@example(argv=["sweep", "--calibration", "@cal", "--n", "1", "--blocks", "3", "--out", "@out"],
         files={**NO_EDITS, "cal": HUGE_PENALTIES})
@example(argv=["replay", "--trace", "@trace", "--tau", "-1", "--aggregation", "mean_frame",
               "--out", "@out"],
         files={**NO_EDITS, "trace": OVERFLOW_MEAN_TRACE})
@example(argv=["simulate", "--calibration", "@cal", "--n", "3", "--out", "@out"],
         files={**NO_EDITS, "cal": [(("quality_proxy", "base_quality"), 1e308)]})
@example(argv=["replay", "--trace", "@trace", "--tau", "-1", "--out", "@out"],
         files={**NO_EDITS, "trace": GAPPY_TRACE})
@example(argv=["replay", "--trace", "@trace", "--tau", "-1", "--out", "@out"],
         files={**NO_EDITS, "trace": UNTIMED_TRACE})
@example(argv=["sweep", "--calibration", "@cal", "--n", "1", "--blocks", "1", "--out", "@out"],
         files={**NO_EDITS, "cal": UNSORTED_KNOTS})
@example(argv=["fit", "--table", "@table", "--out", "@out"],
         files={**NO_EDITS, "table": EQUAL_TAU_ROWS})
@example(argv=["fit", "--table", "@table", "--out", "@out"],
         files={**NO_EDITS, "table": UNTIMED_LONG_METHOD})
@example(argv=["simulate", "--calibration", "@cal", "--n", "1", "--blocks", "1", "--out", "@out"],
         files={**NO_EDITS, "cal": [(("latency", "overlap_mode"), LONG_STRING)]})
@example(argv=["simulate", "--calibration", "@cal", "--n", "1", "--blocks", "1", "--out", "@out"],
         files={**NO_EDITS, "cal": [(("quality_proxy", "edges"), LONG_KEY_OBJECT)]})
@example(argv=["sweep", "--calibration", "@cal", "--n", "1", "--blocks", "1", "--out", "@out",
               "--tau-list", LONG_NAME], files=NO_EDITS)
@example(argv=["simulate", "--calibration", "@cal", "--policy", LONG_NAME], files=NO_EDITS)
@example(argv=[LONG_NAME], files=NO_EDITS)
@example(argv=["simulate", "--calibration", "@missing/" + LONG_NAME], files=NO_EDITS)
@example(argv=["replay", "--trace", "@missing/" + LONG_NAME, "--tau", "-0.7"], files=NO_EDITS)
@example(argv=["replay", "--trace", "@trace", "--tau", "-1", "--calibration", "@valid_cal",
               "--out", "@out"],
         files={**NO_EDITS, "trace": UNTIMED_TRACE})
def test_cli_never_crashes(workdir, argv, files):
    _write_inputs(workdir, files)
    outputs = [workdir / "out", workdir / "out_json"]
    for path in outputs:
        path.unlink(missing_ok=True)
    argv = [_resolve(token, workdir) for token in argv]
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECROUTE_")}
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            mock.patch.object(sweep, "ProcessPoolExecutor", _InlineExecutor), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert "Traceback" not in err
    assert code in (0, 2, 3, 4, 5) or (code == 1 and argv[0] == "sweep"), (code, err)
    assert len(err.encode()) <= MAX_STDERR, err[:200]
    if code == 0:
        texts = [stdout.getvalue()] + [p.read_text(errors="replace") for p in outputs if p.is_file()]
        assert not any(_has_non_finite(t) for t in texts), texts


def _has_non_finite(text: str) -> bool:
    """Whether an output holds a number that is not finite: JSON's Infinity or
    NaN, or a CSV cell such as nan or -inf."""
    if text.startswith(sweep.CSV_HEADER):
        cells = [c for line in text.splitlines()[1:] for c in line.split(",")[1:]]
        return not all(math.isfinite(float(c)) for c in cells)
    return "Infinity" in text or "NaN" in text
