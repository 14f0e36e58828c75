"""Generalized p-values for the banded product-null test, plus standard
multiple-testing adjustments.

The generalized p-value is the measure of the levels alpha in (0, 1] whose
extended region misses the statistic pair. On the two-sided p-value scale
that region holds a pair iff both p-values share a band floor(p/alpha), so
with a <= b the pair's p-values the missed levels are the union of
(a/k, b/k] over k >= 1. With J = floor(a/(b - a)) these are disjoint for
k <= J and cover (0, b/(J + 1)] beyond, so p = (b - a)*H_J + b/(J + 1),
H_J the J-th harmonic number: O(1) per pair, b (the joint-significance
p-value) when b >= 2a and 0 when a = b. J minimizes that expression, whose
value at J = 0 is b, so p <= b exactly; the rounded value is clamped to b as
computed, which keeps it at most ``js_test``'s p-value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regions import _statistics
from .statmath import _two_sided_p

__all__ = [
    "PvalueResult",
    "minimax_pvalue",
    "minimax_pvalue_batch",
    "bonferroni",
    "benjamini_hochberg",
]

_PVALUE_METHODS = frozenset({"extended_minimax"})

# H_j for j below _TABLE; above it the asymptotic series, whose first omitted
# term 1/(252 j^6) times (b - a) <= 1/j stays below 1e-15.
_TABLE = 64
_HARMONIC = np.cumsum(np.concatenate(([0.0], 1.0 / np.arange(1.0, _TABLE))))
_EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class PvalueResult:
    p: float
    method: str

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if self.method not in _PVALUE_METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def minimax_pvalue(z) -> PvalueResult:
    """Generalized p-value of the extended region family at ``z``.

    The measure of the levels alpha in (0, 1] whose region misses ``z``.
    Always 1 on the axes (every region in the family excludes them) and at
    most the joint-significance p-value everywhere. A coordinate at +-inf
    lies in the end band of every region; NaN raises ``ValueError``.
    """
    zx, zy = _statistics(z, 2)
    return PvalueResult(float(minimax_pvalue_batch([zx], [zy])[0]), "extended_minimax")


def minimax_pvalue_batch(zx, zy) -> np.ndarray:
    """:func:`minimax_pvalue` over paired statistic arrays.

    A pair holding NaN is never rejected, so its p-value is 1.
    """
    u = np.abs(np.asarray(zx, dtype=float))
    v = np.abs(np.asarray(zy, dtype=float))
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("zx and zy must be 1-d arrays of equal length")
    valid = (u > 0.0) & (v > 0.0)
    # Two-sided p-values, zeroed on the pairs scored 1 so no NaN reaches the sum.
    p2 = np.where(valid, _two_sided_p(np.stack([u, v])), 0.0)
    return np.where(valid, _generalized(p2.min(axis=0), p2.max(axis=0)), 1.0)


def _generalized(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(b - a)*H_J + b/(J + 1), J = floor(a/(b - a)), for p-values a <= b in
    [0, 1]; 0 where a = b, and clamped to b."""
    d = b - a
    tied = d == 0.0
    j = np.floor(a / np.where(tied, 1.0, d))
    big = np.maximum(j, _TABLE)  # H_j from the table below _TABLE, the series above
    h = np.where(j < _TABLE, _HARMONIC[np.minimum(j, _TABLE - 1).astype(np.intp)],
                 np.log(big) + _EULER_GAMMA + 0.5 / big - big**-2 / 12.0 + big**-4 / 120.0)
    return np.where(tied, 0.0, np.minimum(d * h + b / (j + 1.0), b))


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
