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

from .regions import RejectionRegion2D, _check_cell_count, _js_outside, _statistics
from .statmath import (_alpha, _finite, _positive, _sample_size, _two_sided_cutoff,
                       _two_sided_p, std_normal_quantile)

__all__ = [
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


def _unit_order(alpha: float) -> int | None:
    """K when 1/alpha lies within 1e-9 of the integer K, else None."""
    inv = 1.0 / alpha
    if math.isinf(inv):  # subnormal alpha: no integer K has 1/K this small
        return None
    k = round(inv)
    return k if abs(inv - k) <= _UNIT_FRACTION_TOL else None


def _band_count(alpha: float, k: int | None) -> int | float:
    """Bands of the folded ladder at alpha of unit order k: K at alpha = 1/K,
    else floor(1/alpha) + 1, and inf where 1/alpha overflows."""
    if k is not None:
        return k
    inv = 1.0 / alpha
    return math.floor(inv) + 1 if inv < math.inf else inv


def _folded_ladder(alpha: float, k: int | None) -> list[float]:
    """:func:`extended_breakpoints` at a checked alpha of unit order k; the
    mirrored 2n x 2n grid is held to the cell limit before any quantile."""
    n = _band_count(alpha, k)
    _check_cell_count((2 * n, 2 * n))
    if k is not None:
        return [0.0] + [std_normal_quantile((k + j) / (2 * k)) for j in range(1, k + 1)]
    return [0.0] + [_two_sided_cutoff((n - 1 - j) * alpha) for j in range(n - 1)] + [math.inf]


def extended_breakpoints(alpha: float) -> list[float]:
    """Folded breakpoint ladder of the extended region: 0 = b_0 < ... < inf.

    Consecutive breakpoints carve |z| into floor(1/alpha)+1 bands; the
    innermost band has two-sided mass 1 - floor(1/alpha)*alpha (zero, hence
    dropped, at unit fractions) and every other band has mass alpha; off unit
    fractions the breakpoints are two-sided cutoffs at levels (m-j)*alpha. At a
    unit fraction 1/K the k-th breakpoint is the (K+k)/(2K) normal quantile,
    whose argument is exact, so the minimax region and the Latin-square
    boxes share this ladder bit for bit. A ladder of n bands whose mirrored
    2n x 2n grid exceeds the grid-cell limit raises RegionValidationError
    before it is built.
    """
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
    return _folded_ladder(alpha, _unit_order(alpha))


def _folded_region(alpha: float, k: int | None, kind: str) -> RejectionRegion2D:
    """Reject wherever |zx| and |zy| lie in the same band of the folded ladder.

    The grid edges are the ladder mirrored about 0, so of its 2n bands, band
    i and its mirror 2n-1-i share the folded index |2(i-n)+1|.
    """
    ladder = np.array(_folded_ladder(alpha, k))
    n = len(ladder) - 1
    edges = np.concatenate((-ladder[:0:-1], ladder))
    fold = np.abs(2 * np.arange(-n, n) + 1)
    return RejectionRegion2D.from_grid(alpha, kind, edges, edges, np.equal.outer(fold, fold))


def build_minimax_region(alpha: float) -> RejectionRegion2D:
    """Minimax-optimal rejection region for a unit-fraction level.

    The region is the union over k = 1..2K of the diagonal squares
    (a_{k-1}, a_k)^2 and the antidiagonal squares (a_{k-1}, a_k) x
    (-a_k, -a_{k-1}), where a_j is the j/(2K) standard-normal quantile
    (the mirrored ladder of :func:`extended_breakpoints`).
    """
    alpha = _alpha(alpha)
    k = _unit_order(alpha)
    if k is None:
        raise ValueError(
            f"alpha={alpha!r} is not a unit fraction 1/K; "
            "use build_extended_region for arbitrary levels")
    return _folded_region(alpha, k, "minimax")


def build_extended_region(alpha: float) -> RejectionRegion2D:
    """Level-preserving extension of the minimax region to any alpha in (0, 1).

    Four quadrant families of squares between consecutive folded breakpoints;
    at unit-fraction alpha its grid is that of build_minimax_region(alpha).
    """
    alpha = _alpha(alpha)
    return _folded_region(alpha, _unit_order(alpha), "extended")


def build_js_region(alpha: float) -> RejectionRegion2D:
    """Joint-significance region: reject iff both |z| exceed the two-sided cutoff."""
    alpha = _alpha(alpha)
    t = _two_sided_cutoff(alpha)
    edges = np.array([-math.inf, -t, t, math.inf])
    return RejectionRegion2D.from_grid(alpha, "joint_significance", edges, edges,
                                       _js_outside(edges, edges, t, None))


# The region builders by name: the CLI's --method choices and simulate_power's regions
_BUILDERS = {"minimax": build_minimax_region, "extended": build_extended_region,
             "js": build_js_region}


def origin_type1(alpha: float) -> float:
    """Exact type-1 error of the extended region at delta* = (0, 0).

    Equals floor(1/alpha)*alpha^2 + (1 - floor(1/alpha)*alpha)^2, which is
    <= alpha with equality exactly at unit fractions.
    """
    alpha = _alpha(alpha)
    k = _unit_order(alpha)
    n = _band_count(alpha, k)
    if n == math.inf:  # 1 - floor(1/alpha)*alpha < alpha: its square underflows
        return alpha
    m = k or n - 1  # the bands of mass alpha; the inner band holds the rest
    return m * alpha * alpha + (1.0 - m * alpha) ** 2


def _js_rejects(zx, zy, t):
    """The joint-significance decision |zx| > t and |zy| > t, for floats or arrays."""
    return (abs(zx) > t) & (abs(zy) > t)


def _sobel_magnitude(zx, zy):
    """|Z| of the Sobel statistic (floats or arrays) on the extended reals: min(|zx|,
    |zy|)/sqrt(1 + r**2) with r = min/max. It never overflows and is 0 where either z is 0.
    Three buffers, each pass after the first three in place: a power-study chunk
    allocates less."""
    shape = np.broadcast(zx, zy).shape
    ax, ay = np.abs(zx, out=np.empty(shape)), np.abs(zy, out=np.empty(shape))
    s = np.minimum(ax, ay, out=np.empty(shape))
    r = np.maximum(ax, ay, out=ax)
    with np.errstate(invalid="ignore"):  # 0/0 and inf/inf, where |zx| = |zy| and r = 1
        np.divide(s, r, out=r)
    np.fmin(r, 1.0, out=r)
    np.multiply(r, r, out=r)
    r += 1.0
    s /= np.sqrt(r, out=r)
    return s[()]  # a float for floats


def _sobel(zx, zy):
    """Sobel statistic zx*zy/hypot(zx, zy) of z- or t-statistics (floats or arrays): the
    sign of zx*zy times :func:`_sobel_magnitude`, so sign(zx)*zy at zx = +-inf. IEEE
    division is sign-symmetric, so these are the bits of dividing copysign(min, zx) by
    copysign(sqrt(1 + r**2), zy)."""
    return np.copysign(_sobel_magnitude(zx, zy), zx) * np.copysign(1.0, zy)


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
    zx, zy = _statistics(z, 2)
    threshold = _two_sided_cutoff(alpha)
    return JsTestResult(_js_rejects(zx, zy, threshold),
                        float(max(_two_sided_p(zx), _two_sided_p(zy))), threshold)


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
    sqrt(n)*(estimate - truth). The estimates are standardized first, zx =
    sqrt(n)*dx/se_x and zy = sqrt(n)*dy/se_y, and Z = zx*zy/hypot(zx, zy)
    (:func:`_sobel`), so Z depends only on those ratios, not on the scale of
    the estimates. Both estimates zero is the degenerate case: Z=0, p=1 with
    a flag instead of an error. The estimates must be finite, the SEs
    positive and finite, and n an integer.
    """
    alpha = _alpha(alpha)
    (dx,), (dy,) = _finite("delta_x_hat", (delta_x_hat,)), _finite("delta_y_hat", (delta_y_hat,))
    se_x, se_y = _positive("se_x", se_x), _positive("se_y", se_y)
    root_n = math.sqrt(_sample_size(n, 1))
    stat = float(_sobel(root_n * dx / se_x, root_n * dy / se_y))
    reject = abs(stat) > _two_sided_cutoff(alpha)
    return SobelTestResult(stat, float(_two_sided_p(stat)), reject, dx == dy == 0.0)
