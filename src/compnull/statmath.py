"""Scalar standard-normal primitives and the interval type.

Every rejection region, closed-form power, and LP coefficient in this
package reduces to standard-normal cdf and quantile evaluations on
intervals, so these four functions are the numerical anchor of the whole
library. The cdf is erfc-based; the quantile is a rational approximation
polished by one Halley step against our own cdf, which makes the pair
self-consistent at double precision and exactly antisymmetric about 1/2.
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

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    """Standard normal cdf, accurate to ~1 ulp including the far tails."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("std_normal_cdf is undefined for NaN")
    return 0.5 * math.erfc(-x / _SQRT2)


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
    # Same formula as std_normal_cdf, vectorized for the batch power paths.
    return 0.5 * _special.erfc(-np.asarray(x, dtype=float) / _SQRT2)


# Acklam's rational approximation for the lower tail and central region.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _quantile_lower_half(p: float) -> float:
    # p in (0, 0.5]; rational first guess, then one Halley step against the cdf.
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    e = std_normal_cdf(x) - p
    if e != 0.0:
        u = e * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf`.

    Returns -inf at p=0 and +inf at p=1; raises ValueError outside [0, 1].
    quantile(0.5) == 0.0 exactly, and the upper half-line is the negation of
    the lower-half kernel at 1-p (exact by Sterbenz for p >= 1/2), so both
    tails carry full relative accuracy in probability space.
    """
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise ValueError(f"quantile requires p in [0, 1], got {p!r}")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    if p == 0.5:
        return 0.0
    if p > 0.5:
        # 1-p is exact for p in [0.5, 1], so this loses nothing.
        return -_quantile_lower_half(1.0 - p)
    return _quantile_lower_half(p)


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
