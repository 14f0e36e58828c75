"""Package metadata."""

import pathlib
import re

import compnull

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex instead of tomllib keeps the test running on Python 3.10
    declared = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE)
    assert declared is not None
    assert compnull.__version__ == declared.group(1)
