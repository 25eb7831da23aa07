"""Every name the benchmark uses must exist.

``bench/run.py`` reports a metric for every traced name, so a traced
function that is renamed or deleted breaks ``bench/run.py --trace 1``.
Likewise every ``pb.<name>`` and ``pandorabox.<name>`` the benchmark's
scripts reference must resolve on the package, so a deleted public name
fails here before it breaks a benchmark run.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


@pytest.mark.parametrize("layer, qualname", tracing.TARGETS)
def test_target_resolves(layer, qualname):
    target = importlib.import_module(f"pandorabox.{layer}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)


def package_references() -> list[str]:
    """Dotted names after ``pb.`` or ``pandorabox.`` in bench/*.py."""
    names = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in ("pb", "pandorabox"):
                names.add(".".join(reversed(parts)))
    return sorted(names)


def test_bench_references_found():
    assert "solve_tree" in package_references()


@pytest.mark.parametrize("dotted", package_references())
def test_bench_reference_resolves(dotted):
    target = importlib.import_module("pandorabox")
    path = "pandorabox"
    for part in dotted.split("."):
        path += "." + part
        # a submodule such as pandorabox.cli resolves once imported
        target = getattr(target, part) if hasattr(target, part) else importlib.import_module(path)
