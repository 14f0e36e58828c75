"""Generalized p-value grid behavior and the multiplicity adjustments."""

import math

import numpy as np
import pytest

from compnull.closed_form import extended_breakpoints, js_test
from compnull.pvalues import (
    DEFAULT_RESOLUTION,
    PvalueResult,
    benjamini_hochberg,
    bonferroni,
    minimax_pvalue,
    minimax_pvalue_batch,
)
from compnull.statmath import std_normal_cdf, std_normal_quantile

# mpmath, 50 digits: 2*Phi(-1), the joint-significance p at (2.5, 1.0)
JS_P_25_10 = 0.3173105078629141


def test_result_validation():
    r = PvalueResult(0.25, 100, "extended_minimax")
    assert (r.p, r.resolution, r.method) == (0.25, 100, "extended_minimax")
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PvalueResult(1.5, 100, "extended_minimax")
    with pytest.raises(ValueError, match="resolution"):
        PvalueResult(0.5, 0, "extended_minimax")
    with pytest.raises(ValueError, match="method"):
        PvalueResult(0.5, 100, "wald")
    # nothing produces a JS or Sobel generalized p-value
    for method in ("js", "sobel"):
        with pytest.raises(ValueError, match="method"):
            PvalueResult(0.5, 100, method)


@pytest.mark.parametrize("bad", [100.5, True, "100"])
def test_resolution_must_be_an_integer(bad):
    for call in (lambda r: minimax_pvalue((1.0, 1.0), r),
                 lambda r: minimax_pvalue_batch([1.0], [1.0], r),
                 lambda r: PvalueResult(0.5, r, "extended_minimax")):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value) == f"resolution must be an integer, got {bad!r}"
    assert minimax_pvalue((1.0, 1.0), np.int64(100)).resolution == 100


def test_resolution_floor():
    with pytest.raises(ValueError, match="resolution"):
        minimax_pvalue((1.0, 1.0), resolution=99)
    with pytest.raises(ValueError, match="resolution"):
        minimax_pvalue_batch([1.0], [1.0], resolution=0)
    assert minimax_pvalue((1.0, 1.0), resolution=100).resolution == 100


def test_axis_points_score_one():
    # no region in the family touches the axes, so every level misses
    assert minimax_pvalue((0.0, 0.0), resolution=100).p == 1.0
    assert minimax_pvalue((0.0, 3.0), resolution=100).p == 1.0
    assert minimax_pvalue((-2.5, 0.0), resolution=100).p == 1.0


def test_diagonal_points_score_zero():
    # equal magnitudes share a band at every level, so every level rejects
    assert minimax_pvalue((10.0, 10.0), resolution=500).p == 0.0
    assert minimax_pvalue((10.0, 10.0), resolution=500).p < 0.001
    tiny = minimax_pvalue((0.03, 0.03), resolution=500).p
    assert tiny < 1.0
    assert tiny == 0.0
    # even on a band edge: t is the outer breakpoint at level 0.05
    t = std_normal_quantile(0.975)
    assert minimax_pvalue((t, t)).p == 0.0
    assert minimax_pvalue((t, -t)).p == 0.0


def test_worked_example_matches_truncated_js():
    r = minimax_pvalue((2.5, 1.0))
    assert r.resolution == DEFAULT_RESOLUTION
    # right-endpoint grid turns the dominated-by-js bound into truncation
    assert r.p == math.floor(JS_P_25_10 * 10_000) / 10_000
    assert r.p == 0.3173
    assert r.p <= js_test((2.5, 1.0), 0.05).p_value


def _level_loop_pvalues(zx, zy, resolution):
    # Reference: test every level j/resolution against the breakpoint
    # ladder; a pair misses unless both coordinates lie strictly inside
    # one band. The ladder's trailing inf is dropped so +-inf lies in the
    # end band.
    u = np.abs(np.asarray(zx, dtype=float))
    v = np.abs(np.asarray(zy, dtype=float))
    misses = np.zeros(u.shape, dtype=np.int64)
    for j in range(1, resolution + 1):
        bs = np.asarray(extended_breakpoints(j / resolution)[:-1])
        iu = np.searchsorted(bs, u, side="right") - 1
        iv = np.searchsorted(bs, v, side="right") - 1
        misses += ~((iu == iv) & (u > bs[iu]) & (v > bs[iv]))
    return misses / resolution


def test_count_matches_level_loop():
    rng = np.random.Generator(np.random.Philox(4242))
    parts = [rng.standard_normal((200, 2)) * scale
             for scale in (0.01, 0.3, 1.0, 3.0, 10.0)]
    x = 2.0 * rng.standard_normal(300)
    for sign in (1.0, -1.0):
        parts.append(np.c_[x, sign * x * (1.0 + 1e-5 * rng.standard_normal(300))])
    special = (math.inf, -math.inf, 0.0, 1e-17, -1e-17, 40.0, 0.001, 0.3, 2.0)
    parts.append(np.array([(a, b) for a in special for b in special]))
    # 1e-17 rounds to two-sided p = 1; it still lies in the innermost band
    tiny = np.c_[np.full(200, 1e-17), rng.standard_normal(200)]
    parts += [tiny, tiny[:, ::-1]]
    z = np.vstack(parts)
    for resolution in (100, 300, 1000, 10_000):
        got = minimax_pvalue_batch(z[:, 0], z[:, 1], resolution=resolution)
        want = _level_loop_pvalues(z[:, 0], z[:, 1], resolution)
        assert got.tolist() == want.tolist()


def test_batch_matches_scalar():
    vals = [-3.0, -1.2, -0.4, 0.0, 0.7, 1.5, 2.5]
    zx, zy = [], []
    for a in vals:
        for b in vals:
            zx.append(a)
            zy.append(b)
    got = minimax_pvalue_batch(zx, zy, resolution=300)
    want = [minimax_pvalue((a, b), resolution=300).p for a, b in zip(zx, zy)]
    assert got.tolist() == want


def test_infinite_statistics_lie_in_end_band():
    # +-inf shares the unbounded end band with any finite coordinate beyond
    # the last finite breakpoint, so p equals the truncated JS p-value
    inf = math.inf
    js_p_2 = 2.0 * std_normal_cdf(-2.0)
    for z, want in (((inf, 2.0), math.floor(js_p_2 * 1000) / 1000),
                    ((2.0, -inf), math.floor(js_p_2 * 1000) / 1000),
                    ((inf, inf), 0.0), ((-inf, inf), 0.0)):
        p = minimax_pvalue(z, resolution=1000).p
        assert p == want
        assert p <= js_test(z, 0.05).p_value
        assert minimax_pvalue_batch([z[0]], [z[1]], resolution=1000).tolist() == [want]


def test_nan_contract():
    for z in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            minimax_pvalue(z, resolution=100)
    got = minimax_pvalue_batch([math.nan, 1.0, math.nan], [1.0, math.nan, math.nan],
                               resolution=100)
    assert got.tolist() == [1.0, 1.0, 1.0]


def test_batch_shape_validation():
    with pytest.raises(ValueError, match="equal length"):
        minimax_pvalue_batch([1.0, 2.0], [1.0], resolution=100)
    with pytest.raises(ValueError, match="1-d"):
        minimax_pvalue_batch([[1.0]], [[1.0]], resolution=100)


def test_dominated_by_js_pvalue_everywhere():
    # exact pointwise bound, no tolerance: the outermost band at level
    # alpha is the joint-significance rectangle at the same level
    rng = np.random.Generator(np.random.Philox(707))
    z = rng.standard_normal((2000, 2))
    phat = minimax_pvalue_batch(z[:, 0], z[:, 1], resolution=200)
    pjs = np.array([
        max(2.0 * std_normal_cdf(-abs(a)), 2.0 * std_normal_cdf(-abs(b)))
        for a, b in z
    ])
    assert np.all(phat <= pjs)
    assert np.all(phat >= 0.0)


@pytest.mark.parametrize("resolution", [300, 1000, 10_000, 12345])
def test_dominated_by_js_pvalue_on_grid_boundaries(resolution):
    # zx within 4 ulps of the boundary -Phi^-1(k/2R) of a grid level, where
    # the rounding of p*R and misses/R used to lift the value one ulp above
    # the JS p-value; compared with js_test itself, with no tolerance
    edge = np.array([-std_normal_quantile(k / (2 * resolution)) for k in range(1, resolution)])
    zx = [edge]
    for step in range(1, 5):
        zx += [edge + step * np.spacing(edge), edge - step * np.spacing(edge)]
    zx = np.concatenate(zx)
    phat = minimax_pvalue_batch(zx, np.full_like(zx, 9.0), resolution)
    pjs = np.array([js_test((x, 9.0), 0.05).p_value for x in zx.tolist()])
    assert np.count_nonzero(phat > pjs) == 0
    for i in range(0, len(zx), 997):
        assert minimax_pvalue((zx[i], 9.0), resolution).p == phat[i]


def test_resolution_refinement_is_slow():
    # halving the grid step moves the value by at most one coarse step
    vals = [0.0, 0.3, 0.9, 1.7, 2.6]
    for a in vals:
        for b in vals:
            p1 = minimax_pvalue((a, b), resolution=500).p
            p2 = minimax_pvalue((a, b), resolution=1000).p
            assert abs(p1 - p2) <= 1.0 / 500


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
