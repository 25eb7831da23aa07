"""The package is imported from ``src`` (``pythonpath`` in pyproject.toml);
the child processes some tests start (``python -m pandorabox.cli``) take it
from there too, so the suite runs from a bare checkout."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
