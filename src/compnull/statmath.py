"""Scalar standard-normal primitives and the interval type.

Every rejection region, closed-form power, and LP coefficient in this
package reduces to standard-normal cdf and quantile evaluations on
intervals, so these four functions are the numerical anchor of the whole
library. Both come from ``scipy.special`` (``ndtr`` and ``ndtri``), and
the scalar cdf and the array cdf used by the batch paths call the same
ufunc, so they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

__all__ = [
    "Interval",
    "std_normal_cdf",
    "std_normal_quantile",
    "gaussian_interval_prob",
    "folded_interval_prob",
]

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

    def mirrored(self) -> "Interval":
        """The reflection (-hi, -lo)."""
        return Interval(-self.hi, -self.lo)


def std_normal_cdf(x: float) -> float:
    """Standard normal cdf (``scipy.special.ndtr``); 0.0 below about -37.7."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("std_normal_cdf is undefined for NaN")
    return float(_special.ndtr(x))


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


def _cdf_array(x: np.ndarray) -> np.ndarray:
    # The ufunc behind std_normal_cdf, so scalar and batch paths give the same bits.
    return _special.ndtr(np.asarray(x, dtype=float))


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` (``scipy.special.ndtri``).

    Returns -inf at p=0, 0.0 at p=1/2 and +inf at p=1; raises ValueError
    outside [0, 1]. For p >= 1/2 the subtraction 1-p is exact and
    quantile(1-p) == -quantile(p) bit for bit.
    """
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"quantile requires p in [0, 1], got {p!r}")
    return float(_special.ndtri(p))


def _two_sided_cutoff(alpha: float) -> float:
    """|z| cutoff of the two-sided level-``alpha`` test, -ndtri(alpha/2): finite
    wherever alpha/2 is nonzero, unlike the quantile of 1 - alpha/2."""
    if alpha / 2.0 == 0.0:
        raise ValueError(f"alpha={alpha!r} is too small: alpha/2 rounds to 0")
    return float(-_special.ndtri(alpha / 2.0))


def gaussian_interval_prob(interval: Interval, mu: float) -> float:
    """P(Z in interval) for Z ~ N(mu, 1), clamped to [0, 1]."""
    (mu,) = _finite("mean", (mu,))
    p = std_normal_cdf(interval.hi - mu) - std_normal_cdf(interval.lo - mu)
    return min(1.0, max(0.0, p))


def folded_interval_prob(interval: Interval, mu: float) -> float:
    """P(|Z| in interval) for Z ~ N(mu, 1); requires interval.lo >= 0."""
    if interval.lo < 0.0:
        raise ValueError(f"folded interval requires lo >= 0, got lo={interval.lo!r}")
    p = gaussian_interval_prob(interval, mu) + gaussian_interval_prob(interval.mirrored(), mu)
    return min(1.0, max(0.0, p))
