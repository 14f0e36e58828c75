"""Scalar standard-normal primitives and the interval type.

Every rejection region, closed-form power, and LP coefficient in this
package reduces to standard-normal cdf and quantile evaluations on
intervals, so these functions are the numerical anchor of the whole
library. The cdf is ``scipy.special.ndtr``, loaded from its own extension
module without the ``scipy.special`` package (see :func:`_load_ndtr`). The
scalar cdf and the batch rules :func:`_band_masses` and :func:`_two_sided_p`
call that one ufunc, so they agree bit for bit. The quantile is
:func:`_ndtri`, a port of Cephes ``ndtri`` (the code behind
``scipy.special.ndtri``) with the same IEEE operations in the same order,
so quantiles and region edges have the same bits whatever scipy is installed.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "std_normal_cdf",
    "std_normal_quantile",
    "gaussian_interval_prob",
    "folded_interval_prob",
]

_NDTR_MODULE = "scipy.special._special_ufuncs"


def _load_ndtr():
    """``scipy.special.ndtr``, loaded without the ``scipy.special`` package.

    The package's ``__init__`` pulls in scipy's array-API layer,
    ``numpy.f2py``, ``numpy.testing`` and the ``_ufuncs`` extension, which
    starts scipy's own OpenBLAS; ``ndtr`` lives in the ``_special_ufuncs``
    extension, which needs none of them. An entry already in ``sys.modules``
    is reused; otherwise the extension is loaded from its file and then
    dropped from ``sys.modules``, where loading puts it before its parent
    package exists. A later ``import scipy.special`` then loads it as the
    package's submodule, binding ``scipy.special._special_ufuncs``, and as
    CPython keeps one copy of a single-phase extension's contents,
    ``scipy.special.ndtr`` is this same ufunc. Not safe while another thread
    is importing ``scipy.special`` at the same moment. A scipy without that
    extension falls back to the package import.
    """
    try:
        if _NDTR_MODULE in sys.modules:
            module = sys.modules[_NDTR_MODULE]
        else:
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            path = os.path.join(root, "special",
                                "_special_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0])
            spec = importlib.util.spec_from_file_location(_NDTR_MODULE, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(_NDTR_MODULE, None)
        return module.ndtr
    except (ImportError, AttributeError):
        from scipy import special
        return special.ndtr


_ndtr = _load_ndtr()


@dataclass(frozen=True)
class Interval:
    """Open interval ``(lo, hi)``. Endpoints may be infinite; NaN is rejected."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval requires lo <= hi, got ({lo!r}, {hi!r})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x: float) -> bool:
        """Open-interval membership: lo < x < hi."""
        return self.lo < x < self.hi


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf (``scipy.special.ndtr``); 0.0 below about -37.7."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("std_normal_cdf is undefined for NaN")
    return float(_ndtr(x))


def _alpha(value) -> float:
    """``value`` as a float test level in the open interval (0, 1)."""
    alpha = float(value)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``; bools and floats are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _sample_size(value, least: int) -> int:
    """``value`` as a sample size n: an int of at least ``least`` whose sqrt(n) is a float."""
    n = _count("n", value, least)
    if n > sys.float_info.max:
        raise ValueError(f"n must be at most {sys.float_info.max!r}, "
                         f"got a {n.bit_length()}-bit integer")
    return n


def _finite(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats; NaN and +-inf are refused."""
    out = tuple(float(v) for v in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


def _positive(name: str, value) -> float:
    """``value`` as a positive finite float."""
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return v


def _band_masses(edges, shifts, folded: bool = False) -> np.ndarray:
    """N(d, 1) mass of each band (edges[i], edges[i+1]), a row per shift d (1-d for
    a scalar d); ``folded``: the mass of |Z| on edges from 0, band plus mirror. Each
    cdf is taken in place and differenced by slicing, the bits of np.diff with one
    array fewer."""
    e, d = np.asarray(edges, dtype=float), np.asarray(shifts, dtype=float)[..., None]
    p = e - d
    _ndtr(p, out=p)
    g = p[..., 1:] - p[..., :-1]
    if folded:
        _ndtr(np.subtract(-e, d, out=p), out=p)
        g -= p[..., 1:] - p[..., :-1]
    return g


def _two_sided_p(z):
    """Two-sided normal p-value 2*Phi(-|z|) of a float or an array; NaN gives NaN."""
    return 2.0 * _ndtr(-abs(z))


_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _ndtri(y0: float) -> float:
    """Cephes ``ndtri`` for ``y0`` in [0, 1], bit for bit.

    Same IEEE operations in the same order as the C code, with its
    ``polevl``/``p1evl`` Horner steps written out. For exp(-2) < y <
    1 - exp(-2) a rational in (y - 1/2)^2 (P0/Q0); in the tails a
    correction in z = 1/x to x = sqrt(-2 log y), with P1/Q1 for x < 8
    (y > exp(-32)) and P2/Q2 beyond. Above 1 - exp(-2) it works on 1 - y
    and keeps the sign positive.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y = y0
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        p0 = ((((-5.99633501014107895267e1 * y2
                 + 9.80010754185999661536e1) * y2
                - 5.66762857469070293439e1) * y2
               + 1.39312609387279679503e1) * y2
              - 1.23916583867381258016e0)
        q0 = ((((((((y2 + 1.95448858338141759834e0) * y2
                    + 4.67627912898881538453e0) * y2
                   + 8.63602421390890590575e1) * y2
                  - 2.25462687854119370527e2) * y2
                 + 2.00260212380060660359e2) * y2
                - 8.20372256168333339912e1) * y2
               + 1.59056225126211695515e1) * y2
              - 1.18331621121330003142e0)
        x = y + y * (y2 * p0 / q0)
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        p1 = ((((((((4.05544892305962419923e0 * z
                     + 3.15251094599893866154e1) * z
                    + 5.71628192246421288162e1) * z
                   + 4.40805073893200834700e1) * z
                  + 1.46849561928858024014e1) * z
                 + 2.18663306850790267539e0) * z
                - 1.40256079171354495875e-1) * z
               - 3.50424626827848203418e-2) * z
              - 8.57456785154685413611e-4)
        q1 = ((((((((z + 1.57799883256466749731e1) * z
                    + 4.53907635128879210584e1) * z
                   + 4.13172038254672030440e1) * z
                  + 1.50425385692907503408e1) * z
                 + 2.50464946208309415979e0) * z
                - 1.42182922854787788574e-1) * z
               - 3.80806407691578277194e-2) * z
              - 9.33259480895457427372e-4)
        x1 = z * p1 / q1
    else:
        p2 = ((((((((3.23774891776946035970e0 * z
                     + 6.91522889068984211695e0) * z
                    + 3.93881025292474443415e0) * z
                   + 1.33303460815807542389e0) * z
                  + 2.01485389549179081538e-1) * z
                 + 1.23716634817820021358e-2) * z
                + 3.01581553508235416007e-4) * z
               + 2.65806974686737550832e-6) * z
              + 6.23974539184983293730e-9)
        q2 = ((((((((z + 6.02427039364742014255e0) * z
                    + 3.67983563856160859403e0) * z
                   + 1.37702099489081330271e0) * z
                  + 2.16236993594496635890e-1) * z
                 + 1.34204006088543189037e-2) * z
                + 3.28014464682127739104e-4) * z
               + 2.89247864745380683936e-6) * z
              + 6.79019408009981274425e-9)
        x1 = z * p2 / q2
    x = x0 - x1
    return x if upper else -x


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` (:func:`_ndtri`, the bits of
    ``scipy.special.ndtri``).

    Returns -inf at p=0, 0.0 at p=1/2 and +inf at p=1; raises ValueError
    outside [0, 1]. For p >= 1/2 the subtraction 1-p is exact and
    quantile(1-p) == -quantile(p) bit for bit.
    """
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"quantile requires p in [0, 1], got {p!r}")
    return _ndtri(p)


@functools.lru_cache(maxsize=1024)
def _two_sided_cutoff(alpha: float) -> float:
    """|z| cutoff of the two-sided level-``alpha`` test, -ndtri(alpha/2): finite
    wherever alpha/2 is nonzero, unlike the quantile of 1 - alpha/2. Memoized:
    a screen asks for the same few levels thousands of times."""
    if alpha / 2.0 == 0.0:
        raise ValueError(f"alpha={alpha!r} is too small: alpha/2 rounds to 0")
    return -_ndtri(alpha / 2.0)


def gaussian_interval_prob(interval: Interval, mu: float) -> float:
    """P(Z in interval) for Z ~ N(mu, 1), clamped to [0, 1]."""
    (mu,) = _finite("mean", (mu,))
    return min(1.0, max(0.0, float(_band_masses((interval.lo, interval.hi), mu)[0])))


def folded_interval_prob(interval: Interval, mu: float) -> float:
    """P(|Z| in interval) for Z ~ N(mu, 1); requires interval.lo >= 0."""
    if interval.lo < 0.0:
        raise ValueError(f"folded interval requires lo >= 0, got lo={interval.lo!r}")
    (mu,) = _finite("mean", (mu,))
    return min(1.0, max(0.0, float(_band_masses((interval.lo, interval.hi), mu, folded=True)[0])))
