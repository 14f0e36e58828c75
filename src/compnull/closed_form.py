"""Closed-form test constructors for the product null hypothesis.

Builds the minimax-optimal region of diagonal/antidiagonal squares (unit
fraction levels), its extension to arbitrary levels, and the two baseline
tests (joint significance, Sobel) that the optimal constructions are
benchmarked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regions import RejectionRegion2D, _as_xy
from .statmath import _alpha, std_normal_cdf, std_normal_quantile

__all__ = [
    "AlphaSpec",
    "build_minimax_region",
    "build_extended_region",
    "build_js_region",
    "extended_breakpoints",
    "origin_type1",
    "js_test",
    "sobel_test",
    "JsTestResult",
    "SobelTestResult",
]

_UNIT_FRACTION_TOL = 1e-9


@dataclass(frozen=True)
class AlphaSpec:
    """A test level with unit-fraction detection.

    ``k`` is the integer with alpha ~= 1/k when alpha is a unit fraction
    (within 1e-9 of an integer reciprocal), else None.
    """

    alpha: float
    k: int | None

    @classmethod
    def from_alpha(cls, alpha: float) -> "AlphaSpec":
        alpha = _alpha(alpha)
        return cls(alpha, _unit_order(alpha))

    @property
    def unit_fraction(self) -> bool:
        return self.k is not None


def _unit_order(alpha: float) -> int | None:
    """K when 1/alpha lies within 1e-9 of the integer K, else None."""
    inv = 1.0 / alpha
    k = round(inv)
    return k if abs(inv - k) <= _UNIT_FRACTION_TOL else None


def extended_breakpoints(alpha: float) -> list[float]:
    """Folded breakpoint ladder of the extended region: 0 = b_0 < ... < inf.

    Consecutive breakpoints carve |z| into floor(1/alpha)+1 bands; the
    innermost band has two-sided mass 1 - floor(1/alpha)*alpha (zero, hence
    dropped, at unit fractions) and every other band has mass alpha. At a
    unit fraction 1/K the k-th breakpoint is the (K+k)/(2K) normal quantile,
    whose argument is exact, so the minimax region and the Latin-square
    boxes share this ladder bit for bit.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    k = _unit_order(alpha)
    if k is not None:
        return [0.0] + [std_normal_quantile((k + j) / (2 * k)) for j in range(1, k + 1)]
    m = math.floor(1.0 / alpha)
    return [0.0] + [std_normal_quantile(1.0 - (m - j) * alpha / 2.0) for j in range(m + 1)]


def _folded_region(alpha: float, kind: str) -> RejectionRegion2D:
    """Reject wherever |zx| and |zy| lie in the same band of the folded ladder.

    The grid edges are the ladder mirrored about 0, so of its 2n bands, band
    i and its mirror 2n-1-i share the folded index |2(i-n)+1|.
    """
    ladder = np.array(extended_breakpoints(alpha))
    n = len(ladder) - 1
    edges = np.concatenate((-ladder[:0:-1], ladder))
    fold = np.abs(2 * np.arange(-n, n) + 1)
    return RejectionRegion2D.from_grid(alpha, kind, edges, edges, np.equal.outer(fold, fold))


def build_minimax_region(alpha) -> RejectionRegion2D:
    """Minimax-optimal rejection region for a unit-fraction level.

    The region is the union over k = 1..2K of the diagonal squares
    (a_{k-1}, a_k)^2 and the antidiagonal squares (a_{k-1}, a_k) x
    (-a_k, -a_{k-1}), where a_j is the j/(2K) standard-normal quantile
    (the mirrored ladder of :func:`extended_breakpoints`).
    """
    spec = alpha if isinstance(alpha, AlphaSpec) else AlphaSpec.from_alpha(alpha)
    if not spec.unit_fraction:
        raise ValueError(
            f"alpha={spec.alpha!r} is not a unit fraction 1/K; "
            "use build_extended_region for arbitrary levels")
    return _folded_region(spec.alpha, "minimax")


def build_extended_region(alpha: float) -> RejectionRegion2D:
    """Level-preserving extension of the minimax region to any alpha in (0, 1).

    Four quadrant families of squares between consecutive folded breakpoints;
    at unit-fraction alpha its grid is that of build_minimax_region(alpha).
    """
    return _folded_region(_alpha(alpha), "extended")


def build_js_region(alpha: float) -> RejectionRegion2D:
    """Joint-significance region: reject iff both |z| exceed the two-sided cutoff."""
    alpha = _alpha(alpha)
    t = std_normal_quantile(1.0 - alpha / 2.0)
    edges = [-math.inf, -t, t, math.inf]
    tails = np.array([1.0, 0.0, 1.0])
    return RejectionRegion2D.from_grid(alpha, "joint_significance", edges, edges,
                                       np.outer(tails, tails))


def origin_type1(alpha: float) -> float:
    """Exact type-1 error of the extended region at delta* = (0, 0).

    Equals floor(1/alpha)*alpha^2 + (1 - floor(1/alpha)*alpha)^2, which is
    <= alpha with equality exactly at unit fractions.
    """
    alpha = _alpha(alpha)
    m = _unit_order(alpha) or math.floor(1.0 / alpha)
    return m * alpha * alpha + (1.0 - m * alpha) ** 2


@dataclass(frozen=True)
class JsTestResult:
    reject: bool
    p_value: float
    threshold: float


def js_test(z, alpha: float) -> JsTestResult:
    """Joint significance (intersection-union) test.

    Rejects iff both |zx| and |zy| strictly exceed the two-sided cutoff;
    the p-value is the larger of the two two-sided normal p-values. NaN
    raises ``ValueError``.
    """
    alpha = _alpha(alpha)
    zx, zy = _as_xy(z)
    if math.isnan(zx) or math.isnan(zy):
        raise ValueError("test statistics must not be NaN")
    threshold = std_normal_quantile(1.0 - alpha / 2.0)
    reject = abs(zx) > threshold and abs(zy) > threshold
    p = max(2.0 * std_normal_cdf(-abs(zx)), 2.0 * std_normal_cdf(-abs(zy)))
    return JsTestResult(reject, min(1.0, p), threshold)


@dataclass(frozen=True)
class SobelTestResult:
    statistic: float
    p_value: float
    reject: bool
    degenerate: bool


def sobel_test(delta_x_hat: float, delta_y_hat: float, se_x: float, se_y: float,
               n: int, alpha: float = 0.05) -> SobelTestResult:
    """Delta-method (Sobel) test of the product of the two estimates.

    ``se_x``/``se_y`` are on the sqrt(n)-scale: the standard deviations of
    sqrt(n)*(estimate - truth). Z = sqrt(n)*dx*dy / sqrt(dy^2 se_x^2 +
    dx^2 se_y^2). Both estimates zero makes the denominator vanish; that
    degenerate case reports Z=0, p=1 with a flag instead of an error.
    """
    alpha = _alpha(alpha)
    if se_x <= 0.0 or se_y <= 0.0:
        raise ValueError("standard errors must be positive")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    dx = float(delta_x_hat)
    dy = float(delta_y_hat)
    denom = math.hypot(dy * se_x, dx * se_y)
    if denom == 0.0:
        return SobelTestResult(0.0, 1.0, False, True)
    stat = math.sqrt(n) * dx * dy / denom
    p = min(1.0, 2.0 * std_normal_cdf(-abs(stat)))
    reject = abs(stat) > std_normal_quantile(1.0 - alpha / 2.0)
    return SobelTestResult(stat, p, reject, False)
