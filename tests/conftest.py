import os
import pathlib

import pytest

import compnull
from compnull import deserialize

TESTS_DIR = pathlib.Path(__file__).resolve().parent
SHIPPED_BAYES = TESTS_DIR.parent / "src" / "compnull" / "fixtures" / "bayes_alpha0.05_m65.region.json"
# The same region as the region-v1 document (cells plus outside rule) it
# was first shipped as, kept byte for byte so v1 loading stays covered.
SHIPPED_BAYES_V1 = TESTS_DIR / "data" / "bayes_alpha0.05_m65.region-v1.json"


@pytest.fixture(scope="session")
def shipped_bayes_paths():
    """Paths of the shipped region-v2 Bayes document and of its region-v1 original."""
    return SHIPPED_BAYES, SHIPPED_BAYES_V1


@pytest.fixture(scope="session")
def shipped_bayes_region():
    """The solved alpha=0.05, m=65 randomized region shipped with the package."""
    return deserialize(SHIPPED_BAYES.read_text())


@pytest.fixture(scope="session")
def shipped_bayes_region_v1():
    """The shipped Bayes region loaded from its region-v1 cell document."""
    return deserialize(SHIPPED_BAYES_V1.read_text())


@pytest.fixture(scope="session")
def package_env():
    """Environment for a subprocess that imports this compnull, installed or not."""
    src = str(pathlib.Path(compnull.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
