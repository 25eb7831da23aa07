"""Every name the benchmark uses must exist.

``bench/run.py`` reports a metric for every traced name, so a traced
function that is renamed or deleted breaks ``bench/run.py --trace 1``.
Likewise every ``pb.<name>`` and ``pandorabox.<name>`` the benchmark's
scripts reference must resolve on the package, so a deleted public name
fails here before it breaks a benchmark run.  And the meters that read a
result's fields (``oracle.states``, ``approx.cells``) must count the work
the engines did.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

from pandorabox import load_instance, solve_approx, solve_exact
from pandorabox.core import integer_boxes
from pandorabox.oracle import _opened_sets, _stop_indices

from helpers import reachable_approx_cells

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
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


def scanned_states(inst) -> int:
    """The states below each set's stop index in ``_opened_sets``, called as ``solve_exact`` calls it."""
    ints = integer_boxes(inst.boxes)
    levels = _opened_sets(inst.order_model, ints, ints.grid.index(0), *_stop_indices(inst.boxes, ints))
    return sum((ys & (1 << stop) - 1).bit_count() for level in levels for _, ys, stop, _, _ in level)


def test_oracle_and_approx_meters_count_the_engines_work():
    # the meters read private fields (``oracle.states``) and the table's length (``approx.cells``)
    tracer, counters = tracing.Tracer(), {"oracle_states": 0, "approx_cells": 0}
    for item in gen.exhaustive_pool(1)[:12]:
        inst = load_instance(item["text"])
        if item["kind"] == "dag":
            tracer._inspect_solve_exact((inst,), solve_exact(inst))
            counters["oracle_states"] += scanned_states(inst)
        elif item["kind"] == "approx":
            tracer._inspect_solve_approx((inst,), solve_approx(inst))
            counters["approx_cells"] += len(reachable_approx_cells(inst))
    assert {key: tracer.counters[key] for key in counters} == counters
    assert min(counters.values()) > 0
