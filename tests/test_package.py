"""Package metadata and exports."""

import importlib
import pathlib
import pkgutil
import re

import compnull

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex instead of tomllib keeps the test running on Python 3.10
    declared = re.search(r'^version\s*=\s*"([^"]+)"', PYPROJECT.read_text(), re.MULTILINE)
    assert declared is not None
    assert compnull.__version__ == declared.group(1)


def test_exported_names_resolve():
    # a stale __all__ entry makes `from module import *` raise
    modules = [compnull] + [importlib.import_module(f"compnull.{info.name}")
                            for info in pkgutil.iter_modules(compnull.__path__)
                            if info.name != "__main__"]
    assert len(modules) > 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], f"{module.__name__}.__all__ names missing attributes {missing}"
