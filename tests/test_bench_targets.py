"""Every function the benchmark's layer tracer wraps must exist.

``bench/run.py`` reports a metric for every traced name, so a traced
function that is renamed or deleted breaks ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("layer, qualname", tracing.TARGETS)
def test_target_resolves(layer, qualname):
    target = importlib.import_module(f"pandorabox.{layer}")
    for part in qualname.split("."):
        target = getattr(target, part)
    assert callable(target)
