"""The benchmark's span recorder wraps names by lookup; each one must still exist.

perfbench/spans.py replaces attributes of specroute's modules and classes
while a traced run (`perfbench/run.py --trace 1`) is timed, and reads each
one with `vars(owner)[attr]`. A renamed or deleted name breaks the traced
run with a KeyError, so it is checked here, where the suite catches it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_TARGETS = _load_spans().SPAN_TARGETS


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for _, owner, attr in SPAN_TARGETS],
    ids=[f"{owner.__name__}.{attr}" for _, owner, attr in SPAN_TARGETS],
)
def test_every_span_target_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)
