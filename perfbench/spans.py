"""In-memory span recorder that times specroute's layers from outside.

Wrappers replace public functions and methods for the duration of a
traced phase and are removed afterwards; nothing under ``src/`` changes.
Each call records (name, start, end, parent) into flat arrays, so a
traced run of a few hundred thousand calls stays a few megabytes. Counts
that ratios need are taken at the same call boundaries.

A name bound by ``from ... import`` is wrapped where its caller looks it
up (for example ``specroute.engine.decode_snapshot``), not where it is
defined.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

import specroute.caches as caches
import specroute.engine as engine
import specroute.router as router
import specroute.sweep as sweep
import specroute.synthmodels as synthmodels
import specroute.traceio as traceio

# (span name, object the caller looks the name up on, attribute)
SPAN_TARGETS = (
    ("caches.commit", caches.KVCache, "commit"),
    ("caches.verify_integrity", caches.KVCache, "verify_integrity"),
    ("core.block_digest", caches, "block_digest"),
    ("caches.snapshot", engine, "decode_snapshot"),
    ("caches.restore", engine, "decode_restore"),
    ("synthmodels.drafter.generate", synthmodels.SyntheticDrafter, "generate"),
    ("synthmodels.target.generate", synthmodels.SyntheticTarget, "generate"),
    ("synthmodels.decode", synthmodels.SyntheticDecoder, "decode"),
    ("synthmodels.score", synthmodels.SyntheticScorer, "score"),
    ("synthmodels.sample_block_score", synthmodels.DraftQualityModel, "sample_block_score"),
    ("core.keyed_generator", synthmodels, "keyed_generator"),
    ("core.keyed_generator", router, "keyed_generator"),
    ("synthmodels.run_quality", synthmodels.QualityProxyModel, "run_quality"),
    ("synthmodels.fit_calibration", synthmodels, "fit_calibration"),
    ("router.aggregate", engine, "aggregate"),
    ("router.aggregate", traceio, "aggregate"),
    ("router.decide", router.Policy, "decide"),
    ("engine.run_video", engine, "run_video_detailed"),
    ("costmodel.simulate_time", engine, "simulate_time"),
    ("sweep", sweep, "run_arms"),
    ("traceio.parse_trace", traceio, "parse_trace"),
    ("traceio.replay", traceio, "replay"),
    ("traceio.records_from_traces", traceio, "records_from_traces"),
    ("traceio.serialize_records", traceio, "serialize_records"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPAN_TARGETS))


def _count_digest_bytes(counters: Counter, args, result) -> None:
    counters["core.block_digest.bytes"] += args[0].data.nbytes


def _count_run(counters: Counter, args, result) -> None:
    traces = result.summary.block_traces
    counters["engine.blocks"] += len(traces)
    # Target-only runs never draft, so an accepted block is always a draft.
    counters["engine.drafts_accepted"] += sum(1 for t in traces if t.decision.accepted)


def _count_provenance(counters: Counter, args, result) -> None:
    for run in result:
        for source in run.timing_provenance:
            counters[f"traceio.replay.provenance.{source}"] += 1


ON_EXIT = {
    "core.block_digest": _count_digest_bytes,
    "engine.run_video": _count_run,
    "traceio.replay": _count_provenance,
}


class SpanRecorder:
    """Records spans for the wrapped calls while installed.

    Use as a context manager; ``install``/``uninstall`` may also be
    called directly to pause recording around untimed checks.
    """

    def __init__(self, targets=SPAN_TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span recorder already installed")
        for name, owner, attr in self.targets:
            # Read the raw attribute so a method is restored exactly as found.
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        on_exit = ON_EXIT.get(name)
        stack, counters = self._stack, self.counters
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(counters, args, result)
            return result

        return wrapper

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to an .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_name(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name.

        Calls nest strictly in one thread, so the part of a span that its
        children cover is the sum of their durations.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], duration[has_parent])
        self_time = duration - child
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_s = np.bincount(a["name_id"], weights=self_time, minlength=n)
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}
