"""Closed-form region constructors and the two baseline tests."""

import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from compnull import (Interval, OutsideRule, RegionValidationError,
                      RejectionRegion2D, WeightedRect,
                      analytic_power, build_extended_region, build_js_region,
                      build_latin_region, build_lp, build_minimax_region, cyclic_latin,
                      extended_breakpoints, gaussian_interval_prob, js_test, origin_type1,
                      rejection_prob_at_point, rejection_prob_at_points, serialize,
                      sobel_test, std_normal_cdf, std_normal_quantile)
from compnull.closed_form import _js_rejects, _sobel, _sobel_magnitude, _unit_order
from compnull.statmath import _two_sided_cutoff

Q_08 = 0.84162123357291421
Q_5_7 = 0.56594882193286305
JS_P_33 = 0.0026997960632601891     # 2(1 - cdf(3))
SOBEL_Z = 0.89442719099991588       # 10*0.02/sqrt(0.05)
SOBEL_P = 0.37109336952269757


def test_unit_fraction_detection():
    # detection tolerance is 1e-9 on 1/alpha; the minimax builder takes
    # exactly the levels detected as 1/K, and builds 2K x 2K bands there
    for alpha, k in ((0.05, 20), (1.0 / 3.0, 3), (1.0 / (7.0 + 4e-10), 7),
                     (0.3, None), (1.0 / 7.1, None)):
        assert _unit_order(alpha) == k, alpha
        if k is None:
            with pytest.raises(ValueError, match="is not a unit fraction 1/K"):
                build_minimax_region(alpha)
        else:
            assert build_minimax_region(alpha).probs.shape == (2 * k, 2 * k)
            assert len(extended_breakpoints(alpha)) == k + 1
    for bad in (0.0, 1.0, -0.2, math.nan):
        with pytest.raises(ValueError):
            build_minimax_region(bad)


def test_minimax_region_cell_count_and_origin():
    region = build_minimax_region(0.05)
    assert len(region.cells) == 80  # 4K cells at K=20
    assert region.outside_rule is None
    assert all(c.p == 1.0 for c in region.cells)
    assert analytic_power(region, (0.0, 0.0)) == pytest.approx(0.05, abs=1e-12)


def test_minimax_half_ladder_is_quarter_quantiles():
    region = build_minimax_region(0.5)
    points = sorted({v for c in region.cells for v in (c.x.lo, c.x.hi)
                     if math.isfinite(v)})
    expected = [std_normal_quantile(k / 4.0) for k in (1, 2, 3)]
    assert points == expected
    assert points[1] == 0.0
    assert points[0] == -points[2]


def test_minimax_rejects_non_unit_fraction():
    with pytest.raises(ValueError, match="extended"):
        build_minimax_region(0.3)


def test_minimax_worked_example_half_vs_third():
    z = (Q_08, Q_5_7)
    third = rejection_prob_at_points(build_minimax_region(1.0 / 3.0),
                                     np.array([z[0]]), np.array([z[1]]))
    half = rejection_prob_at_points(build_minimax_region(0.5),
                                    np.array([z[0]]), np.array([z[1]]))
    assert third[0] == 1.0 and half[0] == 0.0


def test_similarity_on_both_axes():
    for alpha in (0.5, 0.2, 0.05):
        region = build_minimax_region(alpha)
        ts = np.arange(-60, 61) / 10.0
        on_x = analytic_power_grid(region, ts, axis="x")
        on_y = analytic_power_grid(region, ts, axis="y")
        assert np.max(np.abs(on_x - alpha)) <= 1e-10
        assert np.max(np.abs(on_y - alpha)) <= 1e-10


def analytic_power_grid(region, ts, axis):
    from compnull import analytic_power_batch
    zeros = np.zeros_like(ts)
    deltas = np.column_stack([ts, zeros] if axis == "x" else [zeros, ts])
    return analytic_power_batch(region, deltas)


def test_minimax_power_never_below_alpha_on_alternative():
    region = build_minimax_region(0.05)
    vals = np.arange(1, 51) / 10.0
    grid = [(sx * t, sy * u) for t in vals for u in vals[::7]
            for sx in (1, -1) for sy in (1, -1)]
    from compnull import analytic_power_batch
    power = analytic_power_batch(region, np.array(grid))
    assert power.min() >= 0.05 - 1e-8


def _null_axis_power_from_ladder(ladder, t):
    """Power at (t, 0) of the diagonal/antidiagonal construction with the
    given increasing breakpoint ladder (first/last entries -inf/+inf).
    Merges the two y-intervals of a strip when a perturbation makes them
    overlap, so the value is the true region mass."""
    total = 0.0
    for k in range(1, len(ladder)):
        lo, hi = ladder[k - 1], ladder[k]
        gx = std_normal_cdf(hi - t) - std_normal_cdf(lo - t)
        ivs = sorted([(lo, hi), (-hi, -lo)])
        if ivs[0][1] >= ivs[1][0]:  # overlapping pair: merge
            ivs = [(ivs[0][0], max(ivs[0][1], ivs[1][1]))]
        ymass = sum(std_normal_cdf(b) - std_normal_cdf(a) for a, b in ivs)
        total += gx * ymass
    return total


def _band_masses(ladder):
    """Conditional y-rejection mass of each x-strip under a null y shift."""
    masses = []
    for k in range(1, len(ladder)):
        lo, hi = ladder[k - 1], ladder[k]
        ivs = sorted([(lo, hi), (-hi, -lo)])
        if ivs[0][1] >= ivs[1][0]:
            ivs = [(ivs[0][0], max(ivs[0][1], ivs[1][1]))]
        masses.append(sum(std_normal_cdf(b) - std_normal_cdf(a) for a, b in ivs))
    return masses


def test_breakpoint_ladder_is_unique_for_similarity():
    # The exact ladder gives every strip conditional rejection mass alpha;
    # that conditional property is what pins the ladder down uniquely.
    # Moving any single interior breakpoint by 0.01 (either direction)
    # perturbs some strip's conditional mass by ~2*phi(a_k)*0.01 >> 1e-4.
    # The marginal null-axis power moves too, but neighbouring strips
    # compensate, so its deviation bottoms out near 4.3e-5 for the most
    # forgiving breakpoint; it is asserted at that measured floor.
    alpha = 0.1
    k2 = 20
    ladder = [-math.inf] + [std_normal_quantile(j / k2) for j in range(1, k2)] \
        + [math.inf]
    ts = np.arange(-600, 601) / 100.0
    base_dev = max(abs(_null_axis_power_from_ladder(ladder, t) - alpha) for t in ts)
    assert base_dev <= 1e-12
    assert max(abs(m - alpha) for m in _band_masses(ladder)) <= 1e-12

    for j in range(1, k2):
        for eps in (0.01, -0.01):
            bent = list(ladder)
            bent[j] += eps
            cond_dev = max(abs(m - alpha) for m in _band_masses(bent))
            assert cond_dev > 1e-4, \
                f"breakpoint {j} shifted by {eps} kept conditional similarity"
            marg_dev = max(abs(_null_axis_power_from_ladder(bent, t) - alpha)
                           for t in ts)
            assert marg_dev > 3.9e-5, \
                f"breakpoint {j} shifted by {eps} kept marginal similarity"


def test_extended_breakpoints_shape():
    bs = extended_breakpoints(0.3)
    assert bs[0] == 0.0 and bs[-1] == math.inf
    assert len(bs) == 5  # floor(1/0.3)=3 bands plus the inner band
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    # unit fraction: inner band boundary is the first ladder rung
    bs_unit = extended_breakpoints(0.25)
    assert len(bs_unit) == 5
    with pytest.raises(ValueError):
        extended_breakpoints(0.0)
    with pytest.raises(ValueError):
        extended_breakpoints(1.5)


def test_extended_equals_minimax_at_unit_fractions():
    from compnull import analytic_power_batch
    for alpha in (0.5, 0.25, 0.05):
        mm = build_minimax_region(alpha)
        ext = build_extended_region(alpha)
        rng = np.random.default_rng(17)
        pts = rng.uniform(-6, 6, size=(20_000, 2))
        mm_mem = rejection_prob_at_points(mm, pts[:, 0], pts[:, 1])
        ext_mem = rejection_prob_at_points(ext, pts[:, 0], pts[:, 1])
        assert np.array_equal(mm_mem, ext_mem)
        deltas = rng.uniform(-4, 4, size=(50, 2))
        assert np.max(np.abs(analytic_power_batch(mm, deltas)
                             - analytic_power_batch(ext, deltas))) <= 1e-12


def test_extended_origin_power_worked_values():
    assert analytic_power(build_extended_region(0.05), (0.0, 0.0)) \
        == pytest.approx(0.05, abs=1e-12)
    assert analytic_power(build_extended_region(0.75), (0.0, 0.0)) \
        == pytest.approx(0.625, abs=1e-12)
    alpha = 0.04872
    m = math.floor(1.0 / alpha)
    formula = m * alpha**2 + (1.0 - m * alpha) ** 2
    assert analytic_power(build_extended_region(alpha), (0.0, 0.0)) \
        == pytest.approx(formula, abs=1e-12)


def test_extended_conditional_band_mass_is_alpha():
    # every x-strip beyond the first breakpoint carries conditional
    # y-rejection mass alpha under a null y-coordinate
    for alpha in (0.3, 0.13, 0.05):
        region = build_extended_region(alpha)
        b1 = extended_breakpoints(alpha)[1]
        strips = {}
        for cell in region.cells:
            strips.setdefault((cell.x.lo, cell.x.hi), []).append(cell)
        outer = {k: v for k, v in strips.items() if abs(k[0]) >= b1 or abs(k[1]) >= b1}
        # keep strips fully beyond the inner band on either side
        outer = {k: v for k, v in outer.items()
                 if k[0] >= b1 - 1e-15 or k[1] <= -b1 + 1e-15}
        assert outer
        for cells in outer.values():
            mass = sum(gaussian_interval_prob(c.y, 0.0) * c.p for c in cells)
            assert mass == pytest.approx(alpha, abs=1e-10)


def test_origin_type1_values_and_gap():
    assert origin_type1(0.05) == pytest.approx(0.05, abs=1e-12)
    assert origin_type1(0.75) == pytest.approx(0.625, abs=1e-15)
    alpha = 41.0 / 840.0
    assert alpha - origin_type1(alpha) == pytest.approx(1.0 / 1680.0, abs=1e-12)
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(ValueError):
            origin_type1(bad)


@pytest.mark.parametrize("alpha", [1e-320, 5e-324])
def test_levels_whose_inverse_overflows_raise_no_overflow_error(alpha):
    # 1/alpha is inf, so floor(1/alpha) cannot be taken; 1 - floor(1/alpha)*alpha
    # lies below alpha, so its square underflows and the origin size is alpha
    assert origin_type1(alpha) == alpha
    for build in (extended_breakpoints, build_extended_region):
        with pytest.raises(RegionValidationError,
                           match=r"^grid of inf x inf = inf cells exceeds the limit of 8388608$"):
            build(alpha)


def test_oversized_ladders_are_refused_before_they_are_built():
    # the band count n is checked on the mirrored 2n x 2n grid before any
    # quantile is computed: K = 1449 is the first unit fraction over the
    # limit, 1e-7 = 1/10^7 asks for 10^7 bands and 2.2e-308 for ~4.5e307
    for alpha, cells in ((1 / 1449, "2898 x 2898 = 8398404"),
                         (1e-7, "20000000 x 20000000 = 400000000000000"),
                         (2.2e-308, None)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(RegionValidationError, match="^grid of ") as err:
                extended_breakpoints(alpha)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seconds < 1.0 and peak < 4 << 20, (alpha, seconds, peak)
        assert str(err.value).endswith(" cells exceeds the limit of 8388608")
        if cells is not None:
            assert str(err.value).startswith(f"grid of {cells} cells")
    # in the limit, the ladder is the one it was, bit for bit
    k = 1448
    assert extended_breakpoints(1 / k) == [0.0] + [std_normal_quantile((k + j) / (2 * k))
                                                  for j in range(1, k + 1)]
    m = math.floor(1 / 0.0007)
    assert extended_breakpoints(0.0007) == [0.0] + [-ndtri((m - j) * 0.0007 / 2.0)
                                                   for j in range(m)] + [math.inf]
    assert extended_breakpoints(1.0) == [0.0, math.inf]


def test_js_region_and_test_agree():
    region = build_js_region(0.05)
    assert region.kind == "joint_significance"
    t = -ndtri(0.025)
    assert region.x_edges.tolist() == region.y_edges.tolist() == [-math.inf, -t, t, math.inf]
    assert region.probs.tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]
    assert analytic_power(region, (0.0, 0.0)) == pytest.approx(0.0025, abs=1e-12)


def test_two_sided_cutoff_has_exact_size():
    # the cutoff is -Phi^-1(alpha/2), taken in the lower tail where alpha/2
    # is exact; every test built on it shares the one value
    mpmath = pytest.importorskip("mpmath")
    for alpha in (0.05, 1e-4, 1e-8, 1e-10, 1e-14, 1e-16):
        t = js_test((1.0, 1.0), alpha).threshold
        with mpmath.workdps(50):
            size = 2 * mpmath.ncdf(-mpmath.mpf(t))
            assert abs(float(size / alpha) - 1.0) <= 2e-14, alpha
        assert build_js_region(alpha).x_edges.tolist() == [-math.inf, -t, t, math.inf]
    for alpha in (0.05, 1e-4):  # smaller levels leave the Bayes LP infeasible
        assert build_lp(alpha, 4).b == 2.0 * js_test((1.0, 1.0), alpha).threshold
    assert js_test((1.0, 1.0), 0.05).threshold == 1.9599639845400545
    assert math.isfinite(js_test((1.0, 1.0), 1e-320).threshold)
    with pytest.raises(ValueError, match=r"alpha=5e-324 is too small"):
        js_test((1.0, 1.0), 5e-324)
    with pytest.raises(ValueError, match=r"alpha=5e-324 is too small"):
        build_js_region(5e-324)


def test_js_test_examples():
    res = js_test((3.0, 3.0), 0.05)
    assert res.reject
    assert res.p_value == pytest.approx(JS_P_33, rel=1e-12)

    res = js_test((0.0, 10.0), 0.05)
    assert not res.reject and res.p_value == 1.0

    # boundary: exactly at the two-sided threshold stays an accept
    b = std_normal_quantile(0.975)
    res = js_test((b, b), 0.05)
    assert not res.reject
    assert res.p_value == pytest.approx(0.05, abs=1e-12)
    assert js_test((b + 1e-9, b + 1e-9), 0.05).reject

    # negation symmetry of the decision and p-value
    r1 = js_test((2.3, -1.7), 0.1)
    r2 = js_test((-2.3, 1.7), 0.1)
    assert (r1.reject, r1.p_value) == (r2.reject, r2.p_value)


def test_js_test_rejects_nan():
    for z in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="test statistics must not be NaN"):
            js_test(z, 0.05)


def test_sobel_test_examples():
    # zero numerator but a live denominator: not degenerate
    res = sobel_test(0.0, 0.3, 1.0, 1.0, 100)
    assert res.statistic == 0.0 and res.p_value == 1.0 and not res.degenerate

    res = sobel_test(0.2, 0.1, 1.0, 1.0, 100)
    assert res.statistic == pytest.approx(SOBEL_Z, rel=1e-13)
    assert res.p_value == pytest.approx(SOBEL_P, rel=1e-12)
    assert not res.reject  # p = 0.37 at alpha 0.05

    flipped = sobel_test(-0.2, 0.1, 1.0, 1.0, 100)
    assert flipped.statistic == -res.statistic
    assert flipped.p_value == res.p_value


def test_sobel_degenerate_input():
    res = sobel_test(0.0, 0.0, 1.0, 1.0, 50)
    assert res.degenerate
    assert res.statistic == 0.0 and res.p_value == 1.0 and not res.reject


@pytest.mark.parametrize("args, message", [
    ((math.inf, 1.0, 1.0, 1.0, 10), "delta_x_hat must be finite, got (inf,)"),
    ((1.0, -math.inf, 1.0, 1.0, 10), "delta_y_hat must be finite, got (-inf,)"),
    ((math.nan, 1.0, 1.0, 1.0, 10), "delta_x_hat must be finite, got (nan,)"),
    ((1.0, 1.0, math.nan, 1.0, 10), "se_x must be positive and finite, got nan"),
    ((1.0, 1.0, math.inf, 1.0, 10), "se_x must be positive and finite, got inf"),
    ((1.0, 1.0, 1.0, 0.0, 10), "se_y must be positive and finite, got 0.0"),
    ((1.0, 1.0, 1.0, -2.0, 10), "se_y must be positive and finite, got -2.0"),
    ((1.0, 1.0, 1.0, 1.0, 2.5), "n must be an integer, got 2.5"),
    ((1.0, 1.0, 1.0, 1.0, True), "n must be an integer, got True"),
    ((1.0, 1.0, 1.0, 1.0, 0), "n must be >= 1, got 0"),
])
def test_sobel_input_contract(args, message):
    with pytest.raises(ValueError) as err:
        sobel_test(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e200])
def test_sobel_depends_only_on_z_ratios(scale):
    # the estimates are standardized first, so neither their product nor its
    # standard error under- or overflows: at 1e-200 and 1e-170 the products
    # dy*se_x used to underflow to 0, a degenerate Z = 0, and at 1e200 both overflowed
    unit = sobel_test(1.0, 1.0, 1.0, 1.0, 10)
    res = sobel_test(scale, scale, scale, scale, 10)
    assert res.statistic == pytest.approx(unit.statistic, rel=1e-15, abs=0.0)
    assert res.p_value == pytest.approx(unit.p_value, rel=1e-15, abs=0.0)
    assert res.reject and unit.reject and not res.degenerate
    # a z-ratio past the float range is inf, where Z is the other z-ratio
    res = sobel_test(1e300, -0.2, 1e-10, 1.0, 100)
    assert res.statistic == -2.0 and not res.degenerate


def test_sobel_statistic_on_the_extended_reals():
    inf = math.inf
    cases = [((inf, 2.0), 2.0), ((-inf, 2.0), -2.0), ((2.0, -inf), -2.0), ((-3.0, -inf), 3.0),
             ((inf, inf), inf), ((inf, -inf), -inf), ((-inf, -inf), inf),
             ((0.0, 3.0), 0.0), ((-2.0, 0.0), 0.0), ((0.0, 0.0), 0.0), ((0.0, inf), 0.0),
             ((1e200, 1e200), 1e200 / math.sqrt(2.0)), ((-1e300, 1e-300), -1e-300),
             ((1e-310, 1.0), 1e-310)]
    zx, zy = np.array([z for z, _ in cases]).T
    want = [w for _, w in cases]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (x, y), w in cases:
            assert _sobel(x, y) == pytest.approx(w, rel=1e-15, abs=0.0), (x, y)
        assert _sobel(zx, zy).tolist() == pytest.approx(want, rel=1e-15, abs=0.0)


def _signed_quotient_sobel(zx, zy):
    # the statistic as it was written before its sign and magnitude were split
    s = np.minimum(np.abs(zx), np.abs(zy))
    with np.errstate(invalid="ignore"):
        r = np.fmin(s / np.maximum(np.abs(zx), np.abs(zy)), 1.0)
    return np.copysign(s, zx) / np.copysign(np.sqrt(r * r + 1.0), zy)


def test_sobel_magnitude_bits():
    special = [0.0, -0.0, math.inf, -math.inf, 1e-320, -1e-320, 5e-324, 1e300, -1e300,
               1.7976931348623157e308, 1.0, -1.0, 2.5, -2.5, 3.0, -3.0]
    pairs = np.array([(x, y) for x in special for y in special]).T
    gen = np.random.Generator(np.random.Philox(3100))
    wide = gen.standard_normal((2, 20_000)) * np.exp(gen.uniform(-700.0, 700.0, (2, 20_000)))
    equal = np.vstack((wide[0], -wide[0]))  # equal magnitudes, r = 1
    zx, zy = np.hstack((pairs, wide, equal))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        magnitude, statistic = _sobel_magnitude(zx, zy), _sobel(zx, zy)
        assert np.abs(statistic).tobytes() == magnitude.tobytes()
        assert statistic.tobytes() == _signed_quotient_sobel(zx, zy).tobytes()
        for x, y in pairs.T:
            assert np.float64(_sobel(x, y)).tobytes() == _signed_quotient_sobel(x, y).tobytes()
            assert np.float64(_sobel_magnitude(x, y)).tobytes() == np.abs(_sobel(x, y)).tobytes()


def test_js_rejects_matches_js_test():
    # the one JS decision, on the cutoff, either side of it, at 0 and at +-inf
    t = _two_sided_cutoff(0.05)
    values = [t, math.nextafter(t, math.inf), math.nextafter(t, -math.inf), 0.0, math.inf]
    values += [-v for v in values]
    zx, zy = np.array([(x, y) for x in values for y in values]).T
    want = [js_test((x, y), 0.05).reject for x, y in zip(zx, zy)]
    assert _js_rejects(zx, zy, t).tolist() == want
    assert [_js_rejects(float(x), float(y), t) for x, y in zip(zx, zy)] == want
    assert sum(want) == 16 and all(type(w) is bool for w in want)


def test_sobel_accepts_numpy_integers():
    assert sobel_test(0.2, 0.1, 1.0, 1.0, np.int64(100)) == sobel_test(0.2, 0.1, 1.0, 1.0, 100)


def test_interval_reuse_in_cells():
    # cells expose plain Interval endpoints; tails carry the infinities
    region = build_minimax_region(0.25)
    xs = [c.x for c in region.cells]
    assert any(iv.lo == -math.inf for iv in xs)
    assert any(iv.hi == math.inf for iv in xs)
    assert all(isinstance(iv, Interval) for iv in xs)


# The cell-list builders the grid builders replaced, kept as oracles: each
# region is painted from WeightedRect cells (or an OutsideRule) with its own
# copy of the breakpoint ladder.

def _oracle_minimax(alpha):
    k = _unit_order(alpha)
    k2 = 2 * k
    ladder = [0.0] * (k2 + 1)
    for j in range(k, k2 + 1):
        ladder[j] = std_normal_quantile(j / k2)
    for j in range(k):
        ladder[j] = -ladder[k2 - j]
    cells = []
    for j in range(1, k2 + 1):
        x = Interval(ladder[j - 1], ladder[j])
        cells.append(WeightedRect(x, x))
        cells.append(WeightedRect(x, Interval(-ladder[j], -ladder[j - 1])))
    return RejectionRegion2D(alpha, "minimax", cells)


def _oracle_extended(alpha):
    inv = 1.0 / alpha
    m = round(inv) if abs(inv - round(inv)) <= 1e-9 else math.floor(inv)
    unit = abs(m * alpha - 1.0) <= 1e-9
    ladder = [0.0] + [-ndtri((m - j) * alpha / 2.0) for j in range(1 if unit else 0, m + 1)]
    cells = []
    for j in range(1, len(ladder)):
        lo, hi = ladder[j - 1], ladder[j]
        if lo == hi:
            continue
        pos, neg = Interval(lo, hi), Interval(-hi, -lo)
        cells.extend(WeightedRect(x, y) for x in (pos, neg) for y in (pos, neg))
    return RejectionRegion2D(alpha, "extended", cells)


def _oracle_js(alpha):
    return RejectionRegion2D(alpha, "joint_significance", [],
                             OutsideRule(-ndtri(alpha / 2.0)))


def _same_document(a, b):
    """serialize(a) == serialize(b). serialize is a function of alpha, kind and
    the grid, so past 100 bands a side only those are compared, bit for bit."""
    if a.probs.shape[0] <= 100:
        return serialize(a) == serialize(b)
    return ((a.alpha, a.kind) == (b.alpha, b.kind)
            and all(u.tobytes() == v.tobytes() for u, v in zip(
                (a.x_edges, a.y_edges, a.probs), (b.x_edges, b.y_edges, b.probs))))


def test_grid_builders_match_cell_list_oracles():
    for k in range(2, 401):
        assert _same_document(build_minimax_region(1.0 / k), _oracle_minimax(1.0 / k)), k
    for k in (60, 125, 250, 400):
        assert serialize(build_minimax_region(1.0 / k)) == serialize(_oracle_minimax(1.0 / k)), k
    rng = np.random.default_rng(20261018)
    levels = [a for a in rng.uniform(0.001, 0.999, size=1000)
              if _unit_order(a) is None]
    assert len(levels) == 1000
    for alpha in levels + [0.07, 0.3, 0.13, 0.04872, 0.75, 41.0 / 840.0]:
        assert serialize(build_extended_region(alpha)) == serialize(_oracle_extended(alpha)), alpha
    for alpha in (0.01, 0.05, 0.1):
        assert serialize(build_js_region(alpha)) == serialize(_oracle_js(alpha))


def test_unit_fraction_ladder_is_shared():
    for k in range(2, 401):
        mm, ext = build_minimax_region(1.0 / k), build_extended_region(1.0 / k)
        for a, b in zip((mm.x_edges, mm.y_edges, mm.probs), (ext.x_edges, ext.y_edges, ext.probs)):
            assert a.tobytes() == b.tobytes(), k
        ladder = extended_breakpoints(1.0 / k)
        assert ladder == [std_normal_quantile((k + j) / (2 * k)) if j else 0.0
                          for j in range(k + 1)]
        assert mm.x_edges[k:].tolist() == ladder
        assert (-mm.x_edges[:k + 1][::-1]).tolist() == ladder
    # Phi^-1(0.65) = 0.38532046640756762... (mpmath) is an edge at alpha = 1/20,
    # so the open bands leave the point outside both regions
    edge = 0.38532046640756773
    assert edge == std_normal_quantile(26 / 40)
    for region in (build_minimax_region(0.05), build_extended_region(0.05)):
        assert rejection_prob_at_point(region, (edge, edge)) == 0.0
        assert rejection_prob_at_point(region, (edge, -edge)) == 0.0
    for k in (2, 3, 5, 20):
        region = build_latin_region(cyclic_latin(k), 1.0 / k)
        axes = [sorted({box[a].lo for box in region.boxes} | {box[a].hi for box in region.boxes})
                for a in range(3)]
        assert axes == [extended_breakpoints(1.0 / k)] * 3


def test_region_edges_carry_no_negative_zero():
    for region in (build_minimax_region(0.05), build_minimax_region(1.0 / 3.0),
                   build_extended_region(0.05), build_extended_region(0.1),
                   build_extended_region(0.07), build_extended_region(0.3),
                   _oracle_minimax(0.05), _oracle_extended(0.07)):
        edges = np.concatenate((region.x_edges, region.y_edges))
        assert not np.signbit(edges[edges == 0.0]).any()
        doc = json.loads(serialize(region))
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0
                       for v in doc["x_edges"] + doc["y_edges"])
