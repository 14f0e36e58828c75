"""High-precision reference values, computed independently with mpmath.

Run this script to regenerate the frozen constants used in the test suite.
Everything here is derived from first principles (normal cdf/quantile at 50
digits, brute-force quadrature, large Monte Carlo runs, exact rational
arithmetic); nothing imports compnull.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import mpmath as mp
import numpy as np
from scipy import integrate, stats

mp.mp.dps = 50


def ncdf(x):
    return mp.ncdf(x)


def nquantile(p):
    return mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def gaussian_interval(lo, hi, mu):
    return ncdf(hi - mu) - ncdf(lo - mu)


def folded_interval(lo, hi, mu):
    return gaussian_interval(lo, hi, mu) + gaussian_interval(-hi, -lo, mu)


def main() -> None:
    out: dict[str, mp.mpf] = {}

    out["quantile_0.975"] = nquantile("0.975")
    out["quantile_0.995"] = nquantile("0.995")
    out["quantile_0.8"] = nquantile("0.8")
    out["quantile_5_7"] = nquantile(mp.mpf(5) / 7)
    out["cdf_1.0"] = ncdf(1)
    out["cdf_-3.5"] = ncdf(mp.mpf("-3.5"))
    out["folded_(1,2)_mu0.5"] = folded_interval(1, 2, mp.mpf("0.5"))
    out["gip_(q025,q05)_mu0"] = gaussian_interval(nquantile("0.025"), nquantile("0.05"), 0)

    # Sobel statistic for dx=0.2, dy=0.1, sx=sy=1, n=100.
    out["sobel_z_example"] = (
        mp.sqrt(100) * mp.mpf("0.2") * mp.mpf("0.1")
        / mp.sqrt(mp.mpf("0.1") ** 2 + mp.mpf("0.2") ** 2)
    )
    out["sobel_p_example"] = 2 * (1 - ncdf(out["sobel_z_example"]))

    # Two-sided JS p for z=(2.5, 1.0).
    out["js_p_(2.5,1.0)"] = max(2 * (1 - ncdf(mp.mpf("2.5"))), 2 * (1 - ncdf(1)))

    # Worst-case origin gap over alpha in (0, 0.05]: attained at alpha=41/840.
    a = mp.mpf(41) / 840
    m = mp.floor(1 / a)
    out["origin_gap_41_840"] = a - (m * a**2 + (1 - m * a) ** 2)
    out["one_over_1680"] = mp.mpf(1) / 1680

    # Origin type-1 error at alpha=3/4.
    a = mp.mpf(3) / 4
    out["origin_type1_0.75"] = mp.floor(1 / a) * a**2 + (1 - mp.floor(1 / a) * a) ** 2

    # Bayes LP box half-width at alpha=0.05.
    out["lp_b_alpha0.05"] = 2 * nquantile("0.975")

    # Prior-mixed interval probability: Z ~ N(0,1) + N(0, s^2), s=2, interval (0.5, 1.5).
    s = mp.mpf(2)
    scale = mp.sqrt(1 + s**2)
    out["prior_mix_(0.5,1.5)_s2"] = ncdf(mp.mpf("1.5") / scale) - ncdf(mp.mpf("0.5") / scale)

    # Latin-square thresholds c_k = quantile((1+k*alpha)/2) for alpha=1/3.
    for k in (1, 2):
        out[f"latin_c{k}_alpha1_3"] = nquantile((1 + mp.mpf(k) / 3) / 2)

    # Minimax ladder quantiles (K+j)/(2K) near 1/2, at the double nearest
    # each ratio (K = 200, j = 1 and 3; K = 100, j = 1).
    for num, den in ((201, 400), (203, 400), (101, 200)):
        out[f"quantile_{num}/{den}"] = nquantile(num / den)

    # Quantile at 3/4 (order-2 Latin threshold) and JS p at z=(3,3).
    out["quantile_0.75"] = nquantile("0.75")
    out["js_p_(3,3)"] = 2 * (1 - ncdf(3))

    for name, val in out.items():
        print(f"{name:28s} = {mp.nstr(val, 17)}")

    minimax_power_quadrature()
    hand_ols()
    total_symmetry_bruteforce()
    latin_power_mc()


def minimax_power_quadrature() -> None:
    """Power of the alpha=0.05 diagonal-band region at mean (5,5).

    The region is a union of axis-aligned rectangles, so the bivariate
    normal mass factorizes per cell.  Each 1-d factor is integrated
    numerically with adaptive quadrature on the density itself (no erf
    identity), which keeps this route independent of the package.
    """
    alpha = 0.05
    k2 = 40  # 2/alpha
    ladder = [stats.norm.ppf(j / k2) if 0 < j < k2 else (-np.inf if j == 0 else np.inf)
              for j in range(k2 + 1)]

    def seg(lo, hi, mu):
        val, _ = integrate.quad(lambda t: stats.norm.pdf(t - mu), lo, hi,
                                limit=400, epsabs=1e-13, epsrel=1e-13)
        return val

    total = 0.0
    for k in range(1, k2 + 1):
        lo, hi = ladder[k - 1], ladder[k]
        x_mass = seg(lo, hi, 5.0)
        total += x_mass * seg(lo, hi, 5.0)      # diagonal square
        total += x_mass * seg(-hi, -lo, 5.0)    # antidiagonal square
    print(f"{'mm_power_(5,5)_quad':28s} = {total!r}")


def hand_ols() -> None:
    """Exact (X'X)^-1 X'y for a 5-row design, in rational arithmetic."""
    xs = [Fraction(v) for v in (-2, -1, 0, 1, 3)]
    ys = [Fraction(v, 10) for v in (-31, -9, 2, 18, 52)]
    n = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(v * v for v in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = n * sxx - sx * sx
    b1 = (n * sxy - sx * sy) / det
    b0 = (sy - b1 * sx) / n
    rss = sum((y - b0 - b1 * x) ** 2 for x, y in zip(xs, ys))
    sigma2 = rss / (n - 2)
    # cov = sigma2 * (X'X)^-1; (X'X)^-1 = [[sxx, -sx], [-sx, n]] / det
    cov00 = sigma2 * sxx / det
    cov11 = sigma2 * n / det
    cov01 = -sigma2 * sx / det
    for name, v in [("ols5_b0", b0), ("ols5_b1", b1), ("ols5_sigma2", sigma2),
                    ("ols5_cov00", cov00), ("ols5_cov01", cov01),
                    ("ols5_cov11", cov11)]:
        print(f"{name:28s} = {v} = {float(v)!r}")


def total_symmetry_bruteforce() -> None:
    """Which cyclic squares equal all six of their conjugates.

    Works on the orthogonal-array triples directly: square -> set of
    (row, col, sym) triples; a conjugate permutes the roles; the square is
    totally symmetric iff the triple set is invariant under all 3! role
    permutations.
    """
    for k in (1, 2, 3, 4, 5):
        grid = [[((i + j) % k) + 1 for j in range(k)] for i in range(k)]
        triples = {(i + 1, j + 1, grid[i][j]) for i in range(k) for j in range(k)}
        sym = all({tuple(t[p] for p in perm) for t in triples} == triples
                  for perm in permutations(range(3)))
        print(f"{f'cyclic_K{k}_totally_symmetric':28s} = {sym}")
    swapped = [[2, 1], [1, 2]]
    triples = {(i + 1, j + 1, swapped[i][j]) for i in range(2) for j in range(2)}
    sym = all({tuple(t[p] for p in perm) for t in triples} == triples
              for perm in permutations(range(3)))
    print(f"{'swapped_K2_totally_symmetric':28s} = {sym}")


def latin_power_mc() -> None:
    """10^7-draw Monte Carlo power of the corner-normalized cyclic K=3
    region at mean (1,2,3), alpha=1/3.

    Membership is recomputed here from first principles (thresholds via
    scipy, boxes straight from the square definition).
    """
    alpha = 1.0 / 3.0
    k = 3
    c = [0.0] + [stats.norm.ppf((1 + i * alpha) / 2) for i in range(1, k)] + [np.inf]
    # cyclic square with symbols 2 and 3 swapped so the (3,3) cell holds 3
    grid = [[((i + j) % k) + 1 for j in range(k)] for i in range(k)]
    swap = {1: 1, 2: 3, 3: 2}
    grid = [[swap[v] for v in row] for row in grid]

    rng = np.random.Generator(np.random.Philox(12345))
    reps = 10_000_000
    hits = 0
    for start in range(0, reps, 1_000_000):
        size = min(1_000_000, reps - start)
        z = np.abs(rng.normal(size=(size, 3)) + np.array([1.0, 2.0, 3.0]))
        ix = np.searchsorted(c, z[:, 0], side="left") - 1
        iy = np.searchsorted(c, z[:, 1], side="left") - 1
        band = np.array(grid)[ix, iy] - 1
        iz = np.searchsorted(c, z[:, 2], side="left") - 1
        interior = ((z[:, 0] > c[0]) & (z[:, 1] > c[0]) & (z[:, 2] > c[0])
                    & (ix >= 0) & (iy >= 0) & (iz >= 0))
        hits += int(np.count_nonzero(interior & (iz == band)))
    rate = hits / reps
    se = float(np.sqrt(rate * (1 - rate) / reps))
    print(f"{'latin3_mc_(1,2,3)':28s} = {rate!r} +/- {se!r}")


if __name__ == "__main__":
    main()
