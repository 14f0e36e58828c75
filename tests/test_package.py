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


def test_package_exports_every_module_list():
    # one export list: each module's __all__, in the package's import order
    modules = (compnull.statmath, compnull.regions, compnull.closed_form, compnull.pvalues,
               compnull.latin3, compnull.bayes_lp, compnull.mediation, compnull.simulate,
               compnull.cli)
    union = [name for module in modules for name in module.__all__]
    assert compnull.__all__ == union + ["__version__"]
    assert len(set(compnull.__all__)) == len(compnull.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(compnull, name) is getattr(module, name)
    assert {"REGION_KINDS", "DEFAULT_PRIOR_SD"} <= set(compnull.__all__)
    # every package module except the entry point is listed
    listed = {module.__name__.rsplit(".", 1)[1] for module in modules}
    assert listed == {info.name for info in pkgutil.iter_modules(compnull.__path__)} - {"__main__"}


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


def _run(code: str, env: dict) -> str:
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def test_import_leaves_lp_backends_unloaded(package_env):
    # the LP is solved in-library and the regressions run on numpy's LAPACK,
    # so importing the package pays for none of scipy.optimize, scipy.sparse
    # and scipy.linalg; ndtr is loaded from its own extension, so neither
    # scipy.special's package init (scipy's array-API layer, numpy.f2py,
    # numpy.testing) nor the _ufuncs extension with scipy's OpenBLAS runs
    code = ("import sys, compnull; print(sorted(m for m in sys.modules if m.split('.')[:2] "
            "in (['scipy', 'optimize'], ['scipy', 'sparse'], ['scipy', 'linalg'], "
            "['numpy', 'f2py'], ['numpy', 'testing']) or m.split('.')[:3] in "
            "(['scipy', 'special', '_ufuncs'], ['scipy', '_lib', '_array_api'])))")
    assert _run(code, package_env) == "[]"


def test_design_path_leaves_numpy_ma_unloaded(package_env, shipped_bayes_paths):
    # on numpy 2.x np.unique's hash path imports numpy.ma (~8 ms) on first
    # use, so the LP, the region compilers and the CLI's LP solve avoid it
    code = f"""
import contextlib, io, sys
from compnull import (Interval, RejectionRegion3D, assemble_bayes_region, build_lp,
                      deserialize, serialize, solve_lp)
from compnull.cli import cli_dispatch
problem = build_lp(0.05, 12)
region = assemble_bayes_region(problem, solve_lp(problem))
assert deserialize(serialize(region)) == region
with open({str(shipped_bayes_paths[1])!r}) as f:
    assert deserialize(f.read()).kind == "bayes"
band = Interval(1.0, 2.0)
RejectionRegion3D(0.05, [(band, band, band), (Interval(0.0, 1.0), band, band)])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_dispatch(["bayes", "solve", "--alpha", "0.05", "--m", "12"]) == 0
print("numpy.ma" in sys.modules)
"""
    assert _run(code, package_env) == "False"


# Digests of the cdf and quantile bits on fixed inputs, printed by a
# subprocess and compared with those of this process.
_BITS = """
import hashlib, numpy as np
from compnull.statmath import _ndtr, std_normal_cdf, std_normal_quantile
xs = np.linspace(-40.0, 40.0, 8001)
ps = np.concatenate((np.linspace(0.0, 1.0, 8001), 10.0 ** -np.linspace(0.0, 320.0, 8001)))
cdf = _ndtr(xs).tobytes() + np.array([std_normal_cdf(x) for x in xs.tolist()]).tobytes()
q = np.array([std_normal_quantile(p) for p in ps.tolist()]).tobytes()
print(hashlib.sha256(cdf).hexdigest(), hashlib.sha256(q).hexdigest())
"""


def test_scipy_special_imported_later_reuses_the_ndtr_ufunc(package_env):
    # compnull leaves the extension it loads out of sys.modules, so a later
    # import of scipy.special binds it as the package's submodule, and that
    # import (and scipy.stats on top of it) shares compnull's ufunc
    code = _BITS + """
import scipy.special, scipy.stats
from compnull import statmath
assert scipy.special.ndtr is statmath._ndtr
assert scipy.special._special_ufuncs.ndtr is statmath._ndtr
assert scipy.special.ndtr(xs).tobytes() == _ndtr(xs).tobytes()
assert scipy.special.ndtri(ps).tobytes() == q
assert abs(scipy.stats.norm.ppf(0.975) - 1.959963984540054) < 1e-15
print("ok")
"""
    out = _run(code, package_env).splitlines()
    assert out[-1] == "ok"
    assert out[0] == _run(_BITS, package_env)


def test_ndtr_falls_back_to_the_scipy_special_package(package_env):
    # a scipy without the _special_ufuncs extension (older than its layout)
    # is simulated by pointing the file loader at a missing file; the
    # package import then supplies ndtr, with the same bits
    code = """
import importlib.util, sys
real = importlib.util.spec_from_file_location
importlib.util.spec_from_file_location = lambda name, path: real(name, path + ".missing")
""" + _BITS + """
importlib.util.spec_from_file_location = real
assert "scipy.special._ufuncs" in sys.modules
import scipy.special
from compnull import statmath
assert statmath._ndtr is scipy.special.ndtr
print("ok")
"""
    out = _run(code, package_env).splitlines()
    assert out[-1] == "ok"
    assert out[0] == _run(_BITS, package_env)
