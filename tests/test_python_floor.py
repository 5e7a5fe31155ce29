"""Every source file parses under the grammar of the oldest Python that pyproject.toml declares.

`ast.parse(..., feature_version=...)` rejects syntax newer than that version
(`except*`, for one) while running on a newer interpreter. It checks grammar
only: a standard-library function or argument added after the floor is not
caught.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _floor():
    """The (major, minor) of pyproject.toml's `requires-python = ">=X.Y"`."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_floor())
