"""Generalized p-value in closed form and the multiplicity adjustments."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from compnull.closed_form import extended_breakpoints, js_test
from compnull.pvalues import (
    _TABLE,
    PvalueResult,
    _generalized,
    benjamini_hochberg,
    bonferroni,
    minimax_pvalue,
    minimax_pvalue_batch,
)
from compnull.simulate import simulate_pvalue_ecdf
from compnull.statmath import std_normal_cdf, std_normal_quantile

# mpmath, 50 digits: 2*Phi(-1), the joint-significance p at (2.5, 1.0)
JS_P_25_10 = 0.3173105078629141


def _union_measure(a, b, sweep=100):
    """50-digit measure of the union of (a/k, b/k] over k >= 1 within (0, 1],
    for p-values a <= b: the levels whose region misses the pair.

    The intervals move down as k grows, so interval k adds only its part
    below a/(k-1), the left end of interval k-1. Once interval k reaches
    a/(k-1) every later one does too, and they add a/(k-1) in all. Past the
    sweep, interval k adds (b - a)/k up to k = floor(a/(b - a)) + 1.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        if a == b:
            return 0.0
        total = min(b, 1) - a
        for k in range(2, sweep + 1):
            if b / k >= a / (k - 1):
                return float(total + a / (k - 1))
            total += b / k - a / k
        last = mpmath.floor(a / (b - a)) + 1
        return float(total + (b - a) * (mpmath.harmonic(last) - mpmath.harmonic(sweep))
                     + a / last)


def _two_sided(z):
    return 2.0 * ndtr(-np.abs(np.asarray(z, dtype=float)))


def test_result_validation():
    r = PvalueResult(0.25, "extended_minimax")
    assert (r.p, r.method) == (0.25, "extended_minimax")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PvalueResult(1.5, "extended_minimax")
    with pytest.raises(ValueError, match="method"):
        PvalueResult(0.5, "wald")
    # nothing produces a JS or Sobel generalized p-value
    for method in ("js", "sobel"):
        with pytest.raises(ValueError, match="method"):
            PvalueResult(0.5, method)


def test_no_resolution_parameter():
    # the value is exact, so there is no grid to size
    with pytest.raises(TypeError):
        minimax_pvalue((1.0, 1.0), 10_000)
    with pytest.raises(TypeError):
        minimax_pvalue_batch([1.0], [1.0], resolution=10_000)
    with pytest.raises(TypeError):
        simulate_pvalue_ecdf(5, resolution=10_000)
    # seed is keyword-only, so an old positional resolution is no seed
    with pytest.raises(TypeError):
        simulate_pvalue_ecdf(5, (0.0, 0.0), 10_000)
    with pytest.raises(TypeError):
        PvalueResult(0.5, 10_000, "extended_minimax")


def test_axis_points_score_one():
    # no region in the family touches the axes, so every level misses
    assert minimax_pvalue((0.0, 0.0)).p == 1.0
    assert minimax_pvalue((0.0, 3.0)).p == 1.0
    assert minimax_pvalue((-2.5, 0.0)).p == 1.0
    assert minimax_pvalue((math.inf, 0.0)).p == 1.0


def test_diagonal_points_score_zero():
    # equal magnitudes share a band at every level, so every level rejects
    assert minimax_pvalue((10.0, 10.0)).p == 0.0
    assert minimax_pvalue((0.03, -0.03)).p == 0.0
    # 1e-17 has two-sided p = 1; a tie there is still a tie
    assert minimax_pvalue((1e-17, 2e-17)).p == 0.0
    # even on a band edge: t is the outer breakpoint at level 0.05
    t = std_normal_quantile(0.975)
    assert minimax_pvalue((t, t)).p == 0.0
    assert minimax_pvalue((t, -t)).p == 0.0
    # a = b reaches no division by zero (RuntimeWarning is an error here)
    a = np.array([0.0, 1e-300, 0.3, 1.0])
    assert _generalized(a, a).tolist() == [0.0] * 4


def test_worked_example_is_the_js_pvalue():
    # p-values 0.0124 and 0.3173: b >= 2a, so no level below b holds the pair
    r = minimax_pvalue((2.5, 1.0))
    assert r == PvalueResult(0.31731050786291415, "extended_minimax")
    assert r.p == js_test((2.5, 1.0), 0.05).p_value
    assert r.p == pytest.approx(JS_P_25_10, abs=1e-16)


def _oracle_pairs():
    rng = np.random.Generator(np.random.Philox(4242))
    parts = [rng.standard_normal((400, 2)) * scale for scale in (0.01, 0.3, 1.0, 3.0, 8.0)]
    # |zx| close to |zy| makes J = floor(a/(b - a)) large: up to ~1e12 here
    x = 0.2 + 3.0 * rng.uniform(size=600)
    eps = 10.0 ** rng.uniform(-12.0, -1.0, size=600)
    sign = rng.choice([-1.0, 1.0], size=600)
    parts.append(np.c_[x, sign * x * (1.0 + eps)])
    return np.vstack(parts)


def test_matches_union_measure_oracle():
    z = _oracle_pairs()
    assert len(z) >= 2000
    got = minimax_pvalue_batch(z[:, 0], z[:, 1])
    p = _two_sided(z)
    a, b = p.min(axis=1), p.max(axis=1)
    want = np.array([_union_measure(lo, hi) for lo, hi in zip(a.tolist(), b.tolist())])
    assert np.max(np.abs(got - want)) <= 1e-14
    j = np.floor(a / (b - a))
    assert np.count_nonzero(j >= _TABLE) >= 300 and j.max() > 1e9


def test_table_and_series_meet():
    # J on both sides of the switch from the harmonic table to the series
    for base in (0.9, 0.31, 1e-3, 1e-200):
        for j in range(_TABLE - 4, _TABLE + 5):
            a = base
            b = a * (1.0 + 1.0 / (j + 0.5))
            assert math.floor(a / (b - a)) == j
            got = _generalized(np.array([a]), np.array([b]))[0]
            want = _union_measure(a, b)
            assert abs(got - want) <= 1e-14, (base, j)
            assert got == pytest.approx(want, rel=1e-13), (base, j)


def test_js_pvalue_when_b_is_at_least_twice_a():
    # with b >= 2a the intervals (a/k, b/k], k >= 2, cover (0, b/2], which
    # reaches a, so every level below b misses: p = b, bit for bit the JS
    # p-value; zx sits within 4 ulps of the edge b = 2a
    rng = np.random.Generator(np.random.Philox(77))
    zy = rng.uniform(0.05, 6.0, size=300)
    pb = _two_sided(zy)
    zx = np.array([-float(std_normal_quantile(p / 4.0)) for p in pb.tolist()])
    zx = np.concatenate([zx + s * np.spacing(zx) for s in range(-4, 5)]
                        + [zx + 0.5, rng.uniform(3.0, 9.0, size=300)])
    zy = np.tile(zy, len(zx) // len(zy))
    got = minimax_pvalue_batch(zx, zy)
    a, b = np.minimum(_two_sided(zx), _two_sided(zy)), np.maximum(_two_sided(zx), _two_sided(zy))
    js = np.array([js_test((u, v), 0.05).p_value for u, v in zip(zx.tolist(), zy.tolist())])
    wide = b >= 2.0 * a
    assert np.count_nonzero(wide) > 1000 and np.count_nonzero(~wide) > 300
    assert got[wide].tolist() == js[wide].tolist()
    assert np.all(got[~wide] <= js[~wide])


def test_batch_matches_scalar():
    special = (math.inf, -math.inf, 1e-17, -1e-17, 40.0, 0.001, 0.3, 2.0, -2.0000001)
    z = np.vstack([_oracle_pairs()[::7], [(u, v) for u in special for v in special]])
    got = minimax_pvalue_batch(z[:, 0], z[:, 1])
    want = [minimax_pvalue((u, v)).p for u, v in z.tolist()]
    assert got.tolist() == want


def test_infinite_statistics_lie_in_end_band():
    # +-inf has two-sided p-value 0, the end band of every level, so only
    # the finite coordinate's p-value b is left: p = b, the JS p-value
    inf = math.inf
    js_p_2 = 2.0 * std_normal_cdf(-2.0)
    for z, want in (((inf, 2.0), js_p_2), ((2.0, -inf), js_p_2),
                    ((inf, inf), 0.0), ((-inf, inf), 0.0)):
        p = minimax_pvalue(z).p
        assert p == want
        assert p == js_test(z, 0.05).p_value
        assert minimax_pvalue_batch([z[0]], [z[1]]).tolist() == [want]


def test_nan_contract():
    for z in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="test statistics must not be NaN"):
            minimax_pvalue(z)
    got = minimax_pvalue_batch([math.nan, 1.0, math.nan, math.inf, 0.0],
                               [1.0, math.nan, math.nan, math.nan, 2.0])
    assert got.tolist() == [1.0] * 5


def test_batch_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        minimax_pvalue_batch([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="1-d"):
        minimax_pvalue_batch([[1.0]], [[1.0]])


def test_dominated_by_js_pvalue_everywhere():
    # exact pointwise bound, no tolerance: the outermost band at level
    # alpha is the joint-significance rectangle at the same level
    rng = np.random.Generator(np.random.Philox(707))
    z = rng.standard_normal((2000, 2))
    phat = minimax_pvalue_batch(z[:, 0], z[:, 1])
    pjs = np.array([
        max(2.0 * std_normal_cdf(-abs(a)), 2.0 * std_normal_cdf(-abs(b)))
        for a, b in z
    ])
    assert np.all(phat <= pjs)
    assert np.all(phat >= 0.0)


@pytest.mark.parametrize("resolution", [300, 1000, 10_000, 12345])
def test_dominated_by_js_pvalue_on_grid_boundaries(resolution):
    # zx within 4 ulps of the boundary -Phi^-1(k/2R) of a level k/R, where a
    # grid count once rounded one ulp above the JS p-value; compared with
    # js_test itself, with no tolerance
    edge = np.array([-std_normal_quantile(k / (2 * resolution)) for k in range(1, resolution)])
    zx = [edge]
    for step in range(1, 5):
        zx += [edge + step * np.spacing(edge), edge - step * np.spacing(edge)]
    zx = np.concatenate(zx)
    for zy in (9.0, 0.5, 1.3):
        phat = minimax_pvalue_batch(zx, np.full_like(zx, zy))
        pjs = np.array([js_test((x, zy), 0.05).p_value for x in zx.tolist()])
        assert np.count_nonzero(phat > pjs) == 0
        for i in range(0, len(zx), 997):
            assert minimax_pvalue((zx[i], zy)).p == phat[i]


def _missed_level_share(zx, zy, levels):
    """Share of the levels j/levels whose extended region misses each pair,
    read off the breakpoint ladders: a pair is held only when both
    coordinates lie strictly inside one band."""
    u, v = np.abs(zx), np.abs(zy)
    misses = np.zeros(u.shape, dtype=np.int64)
    for j in range(1, levels + 1):
        bs = np.asarray(extended_breakpoints(j / levels)[:-1])
        iu = np.searchsorted(bs, u, side="right") - 1
        iv = np.searchsorted(bs, v, side="right") - 1
        misses += ~((iu == iv) & (u > bs[iu]) & (v > bs[iv]))
    return misses / levels


def test_count_matches_level_loop():
    # the missed levels form J + 1 intervals, so a count over the levels
    # j/R lands within (J + 1)/R of their measure, plus a level for rounding
    rng = np.random.Generator(np.random.Philox(99))
    z = np.vstack([rng.standard_normal((150, 2)) * 2.0,
                   np.c_[np.full(50, 1.1), 1.1 * (1.0 + rng.uniform(1e-3, 0.2, 50))]])
    p = _two_sided(z)
    a, b = p.min(axis=1), p.max(axis=1)
    slack = (np.floor(a / (b - a)) + 2.0) / 1000
    exact = minimax_pvalue_batch(z[:, 0], z[:, 1])
    assert np.all(np.abs(_missed_level_share(z[:, 0], z[:, 1], 1000) - exact) <= slack)


def test_bonferroni_golden():
    assert bonferroni([0.001, 0.5], 0.05) == [True, False]
    assert bonferroni([1.0, 1.0, 1.0], 0.05) == [False, False, False]
    out = bonferroni([0.01], 0.05)
    assert out == [True] and isinstance(out[0], bool)


def test_bonferroni_validation():
    with pytest.raises(ValueError, match="non-empty"):
        bonferroni([], 0.05)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bonferroni([0.5, 1.2], 0.05)
    with pytest.raises(ValueError, match="alpha_fwer"):
        bonferroni([0.5], -0.1)


def test_benjamini_hochberg_golden():
    assert benjamini_hochberg([0.01, 0.02, 0.9], 0.05) == [True, True, False]
    assert benjamini_hochberg([0.01, 0.02, 0.9], 0.0) == [False, False, False]
    assert benjamini_hochberg([0.04], 0.05) == [True]


def test_benjamini_hochberg_ties_share_a_decision():
    # both 0.03 entries pass or fail together via the shared cutoff
    assert benjamini_hochberg([0.03, 0.03, 0.9], 0.05) == [True, True, False]


def test_benjamini_hochberg_step_up_rescue():
    # 0.04 fails its own rank bound 2*0.05/3 but the rank-3 pass keeps it
    assert benjamini_hochberg([0.01, 0.04, 0.05], 0.05) == [True, True, True]


def test_benjamini_hochberg_validation():
    with pytest.raises(ValueError, match="non-empty"):
        benjamini_hochberg([], 0.05)
    with pytest.raises(ValueError, match="q"):
        benjamini_hochberg([0.5], 1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        benjamini_hochberg([float("nan")], 0.05)
