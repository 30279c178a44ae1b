"""Package metadata."""

from pathlib import Path

import pytest

import orbiton


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert orbiton.__version__ == meta["project"]["version"]
