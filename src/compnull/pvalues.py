"""Generalized p-values for the banded product-null test, plus standard
multiple-testing adjustments.

The generalized p-value integrates non-membership of the observed statistic
pair over the level grid alpha_j = j/resolution. A right-endpoint grid makes
the discretized value dominated by the joint-significance p-value exactly,
not just up to grid error: the outermost band of the extended region at
level alpha is the joint-significance region at the same level, so
non-membership transfers term by term.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_form import extended_breakpoints
from .regions import _as_xy

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


@dataclass(frozen=True)
class PvalueResult:
    p: float
    resolution: int
    method: str

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if self.resolution < 1:
            raise ValueError(f"resolution must be positive, got {self.resolution!r}")
        if self.method not in _PVALUE_METHODS:
            raise ValueError(f"unknown method {self.method!r}")


@lru_cache(maxsize=None)
def _ladder(alpha: float) -> tuple[float, ...]:
    # Shared read-only memo; tuples keep the bisect path allocation-free.
    # The trailing inf is dropped, so the end band (ladder[-1], inf] holds
    # an infinite coordinate.
    return tuple(extended_breakpoints(alpha)[:-1])


def _rejects(ladder: tuple[float, ...], u: float, v: float) -> bool:
    # u, v >= 0; reject iff both land strictly inside the same band.
    iu = bisect_right(ladder, u) - 1
    if u <= ladder[iu]:
        return False
    iv = bisect_right(ladder, v) - 1
    return iv == iu and v > ladder[iv]


def _check_resolution(resolution: int) -> int:
    resolution = int(resolution)
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    return resolution


def minimax_pvalue(z, resolution: int = DEFAULT_RESOLUTION) -> PvalueResult:
    """Generalized p-value of the extended region family at ``z``.

    p = (1/resolution) * #{j : z not in R_{j/resolution}}. Always 1 on the
    axes (every region in the family excludes them) and at most the
    joint-significance p-value everywhere. A coordinate at +-inf lies in
    the end band of every region; NaN raises ``ValueError``.
    """
    resolution = _check_resolution(resolution)
    zx, zy = _as_xy(z)
    if math.isnan(zx) or math.isnan(zy):
        raise ValueError("test statistics must not be NaN")
    u, v = abs(zx), abs(zy)
    misses = 0
    for j in range(1, resolution + 1):
        if not _rejects(_ladder(j / resolution), u, v):
            misses += 1
    return PvalueResult(misses / resolution, resolution, "extended_minimax")


def minimax_pvalue_batch(zx, zy, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Vectorized twin of minimax_pvalue over paired statistic arrays.

    A pair holding NaN is never rejected, so its p-value is 1.
    """
    resolution = _check_resolution(resolution)
    u = np.abs(np.asarray(zx, dtype=float))
    v = np.abs(np.asarray(zy, dtype=float))
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("zx and zy must be 1-d arrays of equal length")
    misses = np.zeros(u.shape, dtype=np.int64)
    for j in range(1, resolution + 1):
        bs = np.asarray(_ladder(j / resolution))
        iu = np.searchsorted(bs, u, side="right") - 1
        iv = np.searchsorted(bs, v, side="right") - 1
        rej = (iu == iv) & (u > bs[iu]) & (v > bs[iv])
        misses += ~rej
    return misses / resolution


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
