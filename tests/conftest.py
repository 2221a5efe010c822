"""Tests import the package from src/ (pytest's `pythonpath` in
pyproject.toml). A test that starts `python -m fixspace.cli` in a child
process gets the same directory through PYTHONPATH."""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
