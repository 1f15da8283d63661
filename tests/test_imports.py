"""Every name a specroute module imports is used there, or is wrapped by the benchmark.

A name that perfbench/spans.py wraps on a module (SPAN_TARGETS) must stay
bound there even when the module itself no longer calls it; any other
unused import is dead code.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from test_perfbench_spans import SPAN_TARGETS

SRC = Path(__file__).resolve().parent.parent / "src" / "specroute"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module(f"specroute.{path.stem}")
    wrapped = {attr for _, owner, attr in SPAN_TARGETS if owner is module}
    assert _imported_names(tree) - used - wrapped == set()
