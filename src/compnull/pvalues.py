"""Generalized p-values for the banded product-null test, plus standard
multiple-testing adjustments.

The generalized p-value is the share of grid levels alpha_j = j/resolution
whose extended region misses the observed statistic pair. On the two-sided
p-value scale the region at level alpha is a set of bands floor(p/alpha),
and it holds a pair iff both p-values share a band. With a <= b the pair's
p-values and R the resolution, level j misses iff
floor(b*R/j) > floor(a*R/j). The count adds up about 2*sqrt(R) vectorized
groups: small j one by one, large j grouped by the value of floor(b*R/j).
On a right-endpoint grid only levels j <= b*R miss, so in exact arithmetic
the value is at most the joint-significance (JS) p-value b. The products
b*R and misses/R round, so the count is clamped to b as computed, which
keeps the value at most ``js_test``'s p-value bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import _as_xy
from .statmath import _cdf_array, _count

__all__ = [
    "PvalueResult",
    "DEFAULT_RESOLUTION",
    "minimax_pvalue",
    "minimax_pvalue_batch",
    "bonferroni",
    "benjamini_hochberg",
]

DEFAULT_RESOLUTION = 10_000

_PVALUE_METHODS = frozenset({"extended_minimax"})
_CHUNK = 1 << 14  # pairs x levels per broadcast: 163 pairs at R = 10**4, 128 KB a temporary


@dataclass(frozen=True)
class PvalueResult:
    p: float
    resolution: int
    method: str

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        _count("resolution", self.resolution, 1)
        if self.method not in _PVALUE_METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def minimax_pvalue(z, resolution: int = DEFAULT_RESOLUTION) -> PvalueResult:
    """Generalized p-value of the extended region family at ``z``.

    p = (1/resolution) * #{j : z not in R_{j/resolution}}. Always 1 on the
    axes (every region in the family excludes them) and at most the
    joint-significance p-value everywhere. A coordinate at +-inf lies in
    the end band of every region; NaN raises ``ValueError``.
    """
    resolution = _count("resolution", resolution, 100)
    zx, zy = _as_xy(z)
    if math.isnan(zx) or math.isnan(zy):
        raise ValueError("test statistics must not be NaN")
    p = float(minimax_pvalue_batch([zx], [zy], resolution)[0])
    return PvalueResult(p, resolution, "extended_minimax")


def minimax_pvalue_batch(zx, zy, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """:func:`minimax_pvalue` over paired statistic arrays.

    A pair holding NaN is never rejected, so its p-value is 1.
    """
    r = _count("resolution", resolution, 100)
    u = np.abs(np.asarray(zx, dtype=float))
    v = np.abs(np.asarray(zy, dtype=float))
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("zx and zy must be 1-d arrays of equal length")
    valid = (u > 0.0) & (v > 0.0)
    # Two-sided p-values times r. A nonzero |z| whose p rounds to 1 sits on
    # the top band's open end; every value in [r-1, r) shares that band.
    p2 = 2.0 * _cdf_array(-np.stack([u, v], axis=1))
    pr = np.minimum(p2 * r, r - 0.5)
    pr[~valid] = 0.0
    a = pr.min(axis=1)
    b = pr.max(axis=1)
    # Level j misses iff floor(b/j) > floor(a/j). Step k counts level j = k
    # and the levels j > s with floor(b/j) = k, i.e. b/(k+1) < j <= b/k, of
    # which those with j > a/k miss: isqrt(r) steps on one broadcast axis.
    s = math.isqrt(r)
    k = np.arange(1.0, s + 1.0)
    rows = max(1, _CHUNK // s)
    misses = np.empty(u.shape, dtype=np.int64)
    for i in range(0, len(a), rows):
        ac, bc = a[i:i + rows, None], b[i:i + rows, None]
        fa, fb = np.floor(ac / k), np.floor(bc / k)
        lo = np.maximum(np.maximum(fa, np.floor(bc / (k + 1.0))), s)
        lo = np.maximum(np.subtract(fb, lo, out=lo), 0.0, out=lo)
        lo += fb > fa  # whole counts, so the float sum is exact
        misses[i:i + rows] = lo.sum(axis=1)
    return np.where(valid, np.minimum(misses / r, p2.max(axis=1)), 1.0)


def _validated_pvals(pvals) -> np.ndarray:
    arr = np.asarray(pvals, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("pvals must be a non-empty 1-d sequence")
    if np.any(np.isnan(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("every p-value must lie in [0, 1]")
    return arr


def _validated_level(level: float, name: str) -> float:
    level = float(level)
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {level!r}")
    return level


def bonferroni(pvals, alpha_fwer: float) -> list[bool]:
    """Familywise-error control: reject_i iff p_i <= alpha_fwer / len(pvals)."""
    arr = _validated_pvals(pvals)
    alpha_fwer = _validated_level(alpha_fwer, "alpha_fwer")
    return (arr <= alpha_fwer / arr.size).tolist()


def benjamini_hochberg(pvals, q: float) -> list[bool]:
    """False-discovery-rate step-up rule at level ``q``.

    Finds the largest rank k with p_(k) <= k*q/n and rejects every p-value
    at most p_(k), so tied p-values share one decision.
    """
    arr = _validated_pvals(pvals)
    q = _validated_level(q, "q")
    n = arr.size
    sorted_p = np.sort(arr)
    ranks = np.arange(1, n + 1)
    passing = np.nonzero(sorted_p <= ranks * q / n)[0]
    if passing.size == 0:
        return [False] * n
    cutoff = sorted_p[passing[-1]]
    return (arr <= cutoff).tolist()
