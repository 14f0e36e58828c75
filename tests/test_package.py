"""Package metadata and exports."""

import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np

import compnull
from compnull import (ConstraintRow, DensityTable, EcdfTable, LpSolution, MediationDataset,
                      OlsFit, build_lp)

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
    # the generalized p-value is exact, so no grid resolution is exported
    assert not hasattr(compnull, "DEFAULT_RESOLUTION")
    assert not hasattr(compnull.pvalues, "DEFAULT_RESOLUTION")


def test_array_holders_compare_by_identity():
    # field-wise == on ndarray fields has no truth value, so these compare
    # and hash by identity
    cols = {"y": np.arange(10.0), "a": np.ones(10), "m": np.arange(10.0) ** 2,
            "c": np.zeros((10, 0))}
    makers = [
        lambda: ConstraintRow(np.arange(2), np.ones(2), 0.05),
        lambda: build_lp(0.05, 4),
        lambda: LpSolution(np.zeros(3), 0.0, "optimal"),
        lambda: OlsFit(np.zeros(2), np.eye(2), 1.0, 10),
        lambda: MediationDataset(**cols),
        lambda: EcdfTable((("js", np.zeros(3)),)),
        lambda: DensityTable(((0.0, np.zeros(3)),)),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_import_leaves_lp_backends_unloaded(package_env):
    # the LP is solved in-library and the regressions run on numpy's LAPACK,
    # so importing the package pays for none of scipy.optimize, scipy.sparse
    # and scipy.linalg
    code = ("import sys, compnull; print(sorted(m for m in sys.modules if m.split('.')[:2] "
            "in (['scipy', 'optimize'], ['scipy', 'sparse'], ['scipy', 'linalg'])))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
