"""Top-level acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion. Each test carries its stated tolerance and, where one
is stated, its runtime budget.
"""

import math
import time

import numpy as np
from scipy import stats

from compnull.bayes_lp import (
    assemble_bayes_region,
    build_lp,
    candidate_objective,
    js_restricted_candidate,
    solve_lp,
)
from compnull.closed_form import (
    build_extended_region,
    build_js_region,
    build_minimax_region,
    origin_type1,
)
from compnull.latin3 import (
    analytic_power3,
    build_latin_region,
    cyclic_latin,
    normalize_corner,
    rejects3,
)
from compnull.pvalues import minimax_pvalue_batch
from compnull.regions import (
    Interval,
    RejectionRegion2D,
    WeightedRect,
    analytic_power,
    analytic_power_batch,
    rejection_prob_at_point,
    rejection_prob_at_points,
)
from compnull.simulate import (
    SimSpec,
    sample_product_statistic,
    sample_sobel_density,
    simulate_power,
)
from compnull.statmath import std_normal_cdf, std_normal_quantile


def test_criterion_01_minimax_similarity():
    # power equals alpha everywhere on both null axes, at unit fractions
    t0 = time.perf_counter()
    ts = np.arange(-120, 121) * 0.05
    zeros = np.zeros_like(ts)
    pts = np.concatenate([np.stack([ts, zeros], 1), np.stack([zeros, ts], 1)])
    for alpha in (0.5, 0.1, 0.05, 0.01):
        region = build_minimax_region(alpha)
        power = analytic_power_batch(region, pts)
        assert float(np.max(np.abs(power - alpha))) <= 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_worked_example():
    z = (std_normal_quantile(4.0 / 5.0), std_normal_quantile(5.0 / 7.0))
    third = build_minimax_region(1.0 / 3.0)
    half = build_minimax_region(0.5)
    assert rejection_prob_at_point(third, z) == 1.0
    assert rejection_prob_at_point(half, z) == 0.0


def test_criterion_03_extended_origin_formula():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(2026))
    alphas = rng.uniform(0.0, 1.0, size=1000)
    for alpha in alphas:
        alpha = float(alpha)
        m = math.floor(1.0 / alpha)
        want = m * alpha * alpha + (1.0 - m * alpha) ** 2
        region = build_extended_region(alpha)
        assert abs(analytic_power(region, (0.0, 0.0)) - want) <= 1e-12

    assert abs(analytic_power(build_extended_region(0.75), (0.0, 0.0)) - 5.0 / 8.0) \
        <= 1e-12

    # conservativeness gap at the origin: bounded by 1/1680, attained
    gap_bound = 1.0 / 1680.0
    grid = np.arange(1, 5001) * 1e-5
    worst = max(float(a) - origin_type1(float(a)) for a in grid)
    assert worst <= gap_bound + 1e-12
    at_peak = 41.0 / 840.0
    assert abs((at_peak - origin_type1(at_peak)) - gap_bound) <= 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_js_baselines():
    for alpha in (0.5, 0.1, 0.05, 0.01):
        region = build_js_region(alpha)
        assert abs(analytic_power(region, (0.0, 0.0)) - alpha * alpha) <= 1e-12

    # worst type-2 error approaches 1 - alpha^2 at alternatives vanishingly
    # close to the origin
    alpha = 0.05
    region = build_js_region(alpha)
    hs = (1e-4, 2e-4, 5e-4, 1e-3)
    worst_type2 = max(1.0 - analytic_power(region, (hx, hy))
                      for hx in hs for hy in hs)
    assert abs(worst_type2 - (1.0 - alpha * alpha)) <= 1e-6


def test_criterion_05_bayes_lp_solve():
    t0 = time.perf_counter()
    problem = build_lp(0.05, 65, 2.0)
    solution = solve_lp(problem)
    elapsed = time.perf_counter() - t0
    assert solution.solver_status == "optimal"
    assert elapsed < 600.0

    worst = max(float(r.values @ solution.m_r[r.indices] - r.rhs)
                for r in problem.constraints)
    assert worst <= 1e-8

    m_r = solution.m_r
    near_binary = np.sum((m_r <= 1e-6) | (m_r >= 1.0 - 1e-6))
    assert near_binary / len(m_r) >= 0.95

    js_obj = candidate_objective(problem, js_restricted_candidate(problem))
    assert solution.objective_value <= js_obj

    # power function is symmetric under the dihedral group up to
    # discretization noise
    region = assemble_bayes_region(problem, solution)
    rng = np.random.Generator(np.random.Philox(606))
    worst_asym = 0.0
    for _ in range(25):
        d = rng.uniform(-4.0, 4.0, size=2)
        base = analytic_power(region, d)
        images = ((d[0], -d[1]), (-d[0], d[1]), (-d[0], -d[1]),
                  (d[1], d[0]), (d[1], -d[0]), (-d[1], d[0]), (-d[1], -d[0]))
        for g in images:
            worst_asym = max(worst_asym, abs(analytic_power(region, g) - base))
    assert worst_asym <= 1e-3


def test_criterion_06_simulation_study(shipped_bayes_region):
    t0 = time.perf_counter()
    grid = tuple((round(0.05 * i, 2), round(0.05 * i, 2)) for i in range(9))
    spec = SimSpec(("minimax", "bayes", "js"), grid, 50, 100_000, 20260819,
                   bayes_region=shipped_bayes_region)
    result = simulate_power(spec)
    assert time.perf_counter() - t0 < 300.0

    rate = {}
    for row in result.rows:
        rate.setdefault(row.method, {})[row.delta_x] = row.reject_rate
    assert abs(rate["minimax"][0.0] - 0.05) <= 0.005
    assert abs(rate["bayes"][0.0] - 0.05) <= 0.005
    assert abs(rate["js"][0.0] - 0.0025) <= 0.001
    for d, _ in grid:
        assert abs(rate["minimax"][d] - rate["bayes"][d]) <= 0.01
        if d <= 0.2:
            assert rate["minimax"][d] >= rate["js"][d] + 0.01
            assert rate["bayes"][d] >= rate["js"][d] + 0.01


def test_criterion_07_pvalue_dominance():
    t0 = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(7001)))
    z = gen.standard_normal((10_000, 2))
    phat = minimax_pvalue_batch(z[:, 0], z[:, 1])
    pjs = np.array([min(1.0, max(2.0 * std_normal_cdf(-abs(a)),
                                 2.0 * std_normal_cdf(-abs(b))))
                    for a, b in z])
    assert bool(np.all(phat <= pjs))

    levels = np.arange(1, 10_001) / 10_000
    eps = math.sqrt(math.log(100.0) / (2 * 10_000))
    assert float(np.max(levels - np.sort(phat))) <= eps
    assert time.perf_counter() - t0 < 300.0


def test_criterion_08_latin_square_similarity():
    for k in (2, 3, 4, 5):
        alpha = 1.0 / k
        square = normalize_corner(cyclic_latin(k)).square
        region = build_latin_region(square, alpha)
        rng = np.random.Generator(np.random.Philox(808 + k))
        for plane in range(3):
            pts = rng.uniform(0.0, 4.0, size=(50, 2))
            for t, u in pts:
                point = [t, u]
                point.insert(plane, 0.0)
                assert abs(analytic_power3(region, point) - alpha) <= 1e-10
        assert analytic_power3(region, (10.0, 10.0, 10.0)) >= 0.999

    # order permutations of the same point can disagree for the raw cyclic
    # square of order 3
    raw = build_latin_region(cyclic_latin(3), 1.0 / 3.0)
    assert rejects3(raw, (0.7, 0.2, 0.7)) != rejects3(raw, (0.7, 0.7, 0.2))


def test_criterion_09_product_statistic_distribution():
    # single null: the law at delta_x = 0.3 is not N(0, 1) (its SD is ~0.86),
    # so the reference is built from raw data, 100 pairs per replicate and
    # the statistic of their sample means and SDs
    table = sample_sobel_density([0.3, 0.0], 100, 20_000, seed=0)
    rng = np.random.Generator(np.random.Philox(909090))
    tx, ty = (10.0 * v.mean(axis=1) / v.std(axis=1, ddof=1)
              for v in (rng.standard_normal((20_000, 100)) + 0.3,
                        rng.standard_normal((20_000, 100))))
    reference = tx * ty / np.hypot(tx, ty)
    assert stats.ks_2samp(table.samples(0.3), reference).pvalue > 0.01
    assert float(np.var(table.samples(0.0))) < 0.5

    prod = sample_product_statistic(0.0, 100, 20_000, seed=0)
    rng = np.random.Generator(np.random.Philox(424243))
    reference = rng.standard_normal(20_000) * rng.standard_normal(20_000)
    assert stats.ks_2samp(prod, reference).pvalue > 0.01


def test_criterion_10_analytic_power_matches_monte_carlo():
    # 100 random rectangle-union regions (grid partitions keep the cells
    # disjoint by construction, some randomized), 10 shifts each, one
    # shared million-draw sample
    rng = np.random.Generator(np.random.Philox(1009))
    draws = rng.standard_normal((1_000_000, 2))
    aux = rng.uniform(size=1_000_000)
    for _ in range(100):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 5))
        xs = np.sort(rng.uniform(-3.0, 3.0, size=nx + 1))
        ys = np.sort(rng.uniform(-3.0, 3.0, size=ny + 1))
        cells = []
        for i in range(nx):
            for j in range(ny):
                r = rng.uniform()
                if r < 0.45:
                    continue
                p = float(rng.uniform(0.2, 1.0)) if r < 0.7 else 1.0
                cells.append(WeightedRect(Interval(xs[i], xs[i + 1]),
                                          Interval(ys[j], ys[j + 1]), p))
        if not cells:
            cells = [WeightedRect(Interval(xs[0], xs[1]),
                                  Interval(ys[0], ys[1]), 0.5)]
        region = RejectionRegion2D(0.1, "custom", cells)
        for _ in range(10):
            d = rng.uniform(-2.0, 2.0, size=2)
            probs = rejection_prob_at_points(region, draws[:, 0] + d[0],
                                             draws[:, 1] + d[1])
            mc_rate = float(np.mean(aux < probs))
            want = analytic_power(region, d)
            se = max(math.sqrt(want * (1.0 - want) / 1_000_000), 1e-7)
            assert abs(mc_rate - want) <= 4.0 * se
