"""Region data model: lookup, analytic power, serialization."""

import functools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from compnull import (Interval, OutsideRule, RegionFormatError, RegionValidationError,
                      RejectionRegion2D, WeightedRect, analytic_power,
                      analytic_power_batch, build_extended_region, build_js_region,
                      build_minimax_region, deserialize, gaussian_interval_prob, js_test,
                      rejection_prob_at_point, rejection_prob_at_points, serialize)
from compnull.regions import _CHUNK
from compnull.statmath import _cdf_array

Q_08 = 0.84162123357291421   # quantile(4/5)
Q_5_7 = 0.56594882193286305  # quantile(5/7)
MM_POWER_55_QUAD = 0.9976365727126597  # adaptive quadrature over the cells


def _rect(xlo, xhi, ylo, yhi, p=1.0):
    return WeightedRect(Interval(xlo, xhi), Interval(ylo, yhi), p)


def test_weighted_rect_probability_bounds():
    _rect(0, 1, 0, 1, 0.0)
    _rect(0, 1, 0, 1, 1.0)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            _rect(0, 1, 0, 1, bad)


def test_outside_rule_validation():
    OutsideRule(1.96)
    OutsideRule(1.96, (-4, 4, -4, 4))
    with pytest.raises(ValueError):
        OutsideRule(-1.0)
    with pytest.raises(ValueError):
        OutsideRule(math.inf)
    with pytest.raises(ValueError):
        OutsideRule(1.0, (4, -4, -4, 4))


def test_region_rejects_overlapping_cells():
    for cells, a, b in (([_rect(0, 1, 0, 1), _rect(0.5, 1.5, 0, 1)], 0, 1),
                        ([_rect(0, 1, 0, 1), _rect(0.5, 1.5, 0.5, 1.5)], 0, 1),
                        ([_rect(5, 6, 5, 6), _rect(0, 1, 0, 1), _rect(0.5, 1.5, -1, 0.5)], 1, 2)):
        with pytest.raises(RegionValidationError,
                           match=rf"overlapping.*cells\[{a}\].*cells\[{b}\]"):
            RejectionRegion2D(0.05, "custom", cells)
    # cells that only share an edge, and zero-width cells, have disjoint interiors
    RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1), _rect(1, 2, 0, 1), _rect(0, 1, 1, 2)])
    RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1), _rect(0.5, 0.5, 0, 1)])


def test_region_rejects_bad_alpha_and_kind():
    with pytest.raises(ValueError):
        RejectionRegion2D(0.0, "custom", [])
    with pytest.raises(ValueError):
        RejectionRegion2D(0.05, "nonsense", [])


def test_point_lookup_never_rejects_on_axes():
    region = build_minimax_region(0.05)
    assert rejection_prob_at_point(region, (0.0, 3.0)) == 0.0
    assert rejection_prob_at_point(region, (3.0, 0.0)) == 0.0
    assert rejection_prob_at_point(region, (0.0, 0.0)) == 0.0


def test_point_lookup_worked_example_third_vs_half():
    z = (Q_08, Q_5_7)
    assert rejection_prob_at_point(build_minimax_region(1.0 / 3.0), z) == 1.0
    assert rejection_prob_at_point(build_minimax_region(0.5), z) == 0.0


def test_cells_are_open_on_boundaries():
    region = build_minimax_region(0.5)
    assert rejection_prob_at_point(region, (0.3, 0.3)) == 1.0
    # probe exactly on the ladder breakpoint shared by the region's own cells
    b = min(c.x.hi for c in region.cells if c.x.lo == 0.0)
    assert 0.3 < b < 1.0
    assert rejection_prob_at_point(region, (b, 0.3)) == 0.0
    assert rejection_prob_at_point(region, (0.3, b)) == 0.0


def test_infinite_coordinates_lie_in_end_bands():
    mm = build_minimax_region(0.05)
    assert rejection_prob_at_point(mm, (math.inf, math.inf)) == 1.0
    assert rejection_prob_at_point(build_extended_region(0.07), (math.inf, math.inf)) == 1.0
    assert rejection_prob_at_point(mm, (math.inf, 0.0)) == 0.0
    js = build_js_region(0.05)
    assert rejection_prob_at_point(js, (math.inf, -math.inf)) == 1.0
    # band edges are open, like js_test's strict inequality
    t = js_test((5.0, 5.0), 0.05).threshold
    assert rejection_prob_at_point(js, (t, 5.0)) == 0.0
    assert not js_test((t, 5.0), 0.05).reject
    assert rejection_prob_at_points(mm, [math.nan, 1.0], [1.0, math.nan]).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="NaN"):
        rejection_prob_at_point(mm, (math.nan, 1.0))


def test_analytic_power_js_origin():
    region = build_js_region(0.05)
    assert analytic_power(region, (0.0, 0.0)) == pytest.approx(0.0025, abs=1e-12)


def test_analytic_power_similarity_spot_checks():
    region = build_minimax_region(0.05)
    for t in (-4.0, -1.3, 0.0, 0.6, 2.2, 5.5):
        assert analytic_power(region, (t, 0.0)) == pytest.approx(0.05, abs=1e-10)
        assert analytic_power(region, (0.0, t)) == pytest.approx(0.05, abs=1e-10)


def test_analytic_power_vs_quadrature_oracle():
    region = build_minimax_region(0.05)
    assert analytic_power(region, (5.0, 5.0)) == pytest.approx(
        MM_POWER_55_QUAD, abs=1e-6)


def test_analytic_power_bounded_and_continuous():
    region = build_minimax_region(0.1)
    h = 1e-4
    grid = [(x, y) for x in (-3.0, -0.5, 0.0, 1.1, 4.0) for y in (-2.0, 0.0, 0.7, 3.3)]
    for dx, dy in grid:
        base = analytic_power(region, (dx, dy))
        assert 0.0 <= base <= 1.0
        assert abs(analytic_power(region, (dx + h, dy)) - base) <= h
        assert abs(analytic_power(region, (dx, dy + h)) - base) <= h


def test_membership_symmetry_under_sign_flips_and_swap():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-6, 6, size=(500, 2))
    for region in (build_minimax_region(0.05), build_extended_region(0.13)):
        base = rejection_prob_at_points(region, pts[:, 0], pts[:, 1])
        for sx, sy in ((-1, 1), (1, -1), (-1, -1)):
            flipped = rejection_prob_at_points(region, sx * pts[:, 0], sy * pts[:, 1])
            assert np.array_equal(base, flipped)
        swapped = rejection_prob_at_points(region, pts[:, 1], pts[:, 0])
        assert np.array_equal(base, swapped)


def test_js_region_contained_in_minimax():
    alpha = 0.05
    js = build_js_region(alpha)
    mm = build_minimax_region(alpha)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-8, 8, size=(100_000, 2))
    js_rej = rejection_prob_at_points(js, pts[:, 0], pts[:, 1]) == 1.0
    mm_rej = rejection_prob_at_points(mm, pts[:, 0], pts[:, 1]) == 1.0
    assert js_rej.sum() > 0
    assert np.all(mm_rej[js_rej])


def test_monte_carlo_consistency():
    region = build_minimax_region(0.05)
    rng = np.random.Generator(np.random.Philox(2024))
    for delta in ((0.0, 0.0), (1.2, 0.7), (2.5, 2.5)):
        z = rng.normal(size=(100_000, 2)) + np.asarray(delta)
        rate = float(np.mean(rejection_prob_at_points(region, z[:, 0], z[:, 1])))
        exact = analytic_power(region, delta)
        se = math.sqrt(max(exact * (1 - exact), 1e-12) / 100_000)
        assert abs(rate - exact) <= 4 * se


def test_batch_lookup_matches_scalar():
    regions = [
        build_minimax_region(0.1),
        build_js_region(0.05),
        RejectionRegion2D(0.05, "custom",
                          [_rect(0.2, 1.0, 0.1, 0.9, 0.5), _rect(1.0, 2.0, -1.0, 0.0)],
                          OutsideRule(2.0, (-3, 3, -3, 3))),
    ]
    rng = np.random.default_rng(3)
    pts = rng.uniform(-5, 5, size=(2000, 2))
    for region in regions:
        batch = rejection_prob_at_points(region, pts[:, 0], pts[:, 1])
        scalar = [rejection_prob_at_point(region, (x, y)) for x, y in pts]
        assert np.array_equal(batch, np.array(scalar))


def _searchsorted_lookup(region, zx, zy):
    """The lookup as two binary searches: the upper edges are searched, so a
    point on an inner edge lands in the band below, and NaN past +inf, on a
    zero pad row or column."""
    zx, zy = np.asarray(zx, dtype=float), np.asarray(zy, dtype=float)
    x_hi, y_hi = (np.concatenate((e[1:-1], [math.nan, math.nan]))
                  for e in (region.x_edges, region.y_edges))
    padded = np.pad(region.probs, ((0, 1), (0, 1)))
    i = np.searchsorted(region.x_edges[1:], zx)
    j = np.searchsorted(region.y_edges[1:], zy)
    on_edge = (zx == x_hi[i]) | (zy == y_hi[j])
    return np.where(on_edge, 0.0, padded[i, j])


def _criterion_10_style_region(rng):
    nx, ny = (int(v) for v in rng.integers(2, 5, size=2))
    xs, ys = (np.sort(rng.uniform(-3.0, 3.0, size=k + 1)) for k in (nx, ny))
    cells = [WeightedRect(Interval(xs[i], xs[i + 1]), Interval(ys[j], ys[j + 1]),
                          float(rng.uniform(0.2, 1.0)))
             for i in range(nx) for j in range(ny) if rng.uniform() < 0.6]
    return RejectionRegion2D(0.1, "custom", cells or [_rect(xs[0], xs[1], ys[0], ys[1], 0.5)])


def _lookup_test_regions(shipped_bayes_region):
    rng = np.random.default_rng(2718)
    # 200 edges inside an interval of width 1e-9 and a few wide ones, so
    # many edges share a bucket however long the table grows
    clustered = np.concatenate(([-math.inf, -2.0, -1.0], 0.5 + np.sort(rng.uniform(0.0, 1e-9, 200)),
                                [1.5, 3.0, math.inf]))
    wide = [-math.inf, -1e308, -1.0, 1e-300, 1e308, math.inf]
    tiny = [-math.inf, 0.0, 5e-324, 1e-323, math.inf]
    grids = {"clustered": (clustered, np.append(clustered[:-1:3], math.inf)), "wide": (wide, tiny),
             "one_edge": ([-math.inf, 0.0, math.inf], [-math.inf, math.inf]),
             "huge": ([-math.inf, -1.7e308, 1.7e308, math.inf],
                      [-math.inf, -1e308, 0.0, 1.5e308, math.inf]),
             "uneven": (np.concatenate(([-math.inf], np.cumsum(rng.exponential(size=30) ** 3) - 20,
                                        [math.inf])), [-math.inf, -0.0, 1e-12, 2.0, math.inf])}
    regions = {name: RejectionRegion2D.from_grid(
                   0.1, "custom", x, y, rng.choice([0.0, 0.25, 1.0], size=(len(x) - 1, len(y) - 1)))
               for name, (x, y) in grids.items()}
    for alpha in (0.5, 0.2, 0.05, 0.01, 1 / 300):
        regions[f"minimax_{alpha}"] = build_minimax_region(alpha)
        regions[f"js_{alpha}"] = build_js_region(alpha)
    for alpha in (0.07, 0.3, 0.0123):
        regions[f"extended_{alpha}"] = build_extended_region(alpha)
    regions["fixture"] = shipped_bayes_region
    for k in range(8):
        regions[f"criterion_10_{k}"] = _criterion_10_style_region(rng)
    return regions


def _lookup_test_points(region, n, rng):
    """n coordinates per axis: wide normals, points on and next to every
    inner edge, signed zeros, NaN and infinities."""
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324])
    out = []
    for edges in (region.x_edges, region.y_edges):
        inner = edges[1:-1]
        z = rng.standard_normal(n) * rng.choice([0.5, 3.0, 1e3], size=n)
        if len(inner):
            near = rng.choice(inner, size=n)
            near = np.where(rng.uniform(size=n) < 0.5, near,
                            np.nextafter(near, rng.choice([-math.inf, math.inf], size=n)))
            z = np.where(rng.uniform(size=n) < 0.4, near, z)
        z = np.where(rng.uniform(size=n) < 0.05, rng.choice(special, size=n), z)
        out.append(z)
    return out


@pytest.mark.parametrize("n", [1, 4096, 200_000])
def test_lookup_matches_searchsorted_oracle(n, shipped_bayes_region):
    rng = np.random.default_rng(n)
    for name, region in _lookup_test_regions(shipped_bayes_region).items():
        zx, zy = _lookup_test_points(region, n, rng)
        got = rejection_prob_at_points(region, zx, zy)
        want = _searchsorted_lookup(region, zx, zy)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        # Python floats, 0-d arrays and strided views take the same path
        for a, b in ((float(zx[0]), float(zy[0])), (zx[0].reshape(()), zy[0].reshape(())),
                     (zx[::3], zy[::-3])):
            got = rejection_prob_at_points(region, a, b)
            want = _searchsorted_lookup(region, a, b)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_lookup_keeps_the_input_shape():
    region = build_minimax_region(0.2)
    rng = np.random.default_rng(4)
    zx, zy = rng.standard_normal((2, 3, 4, 5)) * 2.0
    got = rejection_prob_at_points(region, zx, zy)
    assert got.shape == (3, 4, 5)
    assert np.array_equal(got, _searchsorted_lookup(region, zx, zy))
    assert np.array_equal(rejection_prob_at_points(region, zx.T, zy.T), got.T)
    assert rejection_prob_at_points(region, [], []).shape == (0,)


def test_batch_power_matches_scalar():
    region = build_extended_region(0.07)
    deltas = np.array([[0.0, 0.0], [1.0, -2.0], [3.5, 0.2], [-4.0, 4.0]])
    batch = analytic_power_batch(region, deltas)
    for row, d in zip(batch, deltas):
        assert row == pytest.approx(analytic_power(region, tuple(d)), abs=1e-14)


def _unblocked_power(region, deltas):
    """Exact power with all shifts in one pass, the oracle for the blocked kernel."""
    gx = np.diff(_cdf_array(region.x_edges[None, :] - deltas[:, :1]), axis=1)
    gy = np.diff(_cdf_array(region.y_edges[None, :] - deltas[:, 1:]), axis=1)
    return np.clip(((gx @ region.probs) * gy).sum(axis=1), 0.0, 1.0)


def _power_test_regions(shipped_bayes_region):
    rng = np.random.default_rng(1729)
    x = np.concatenate(([-math.inf], np.sort(rng.uniform(-5.0, 5.0, 90)), [math.inf]))
    y = np.array([-math.inf, -2.0, -0.5, 0.0, 1.0, 3.0, math.inf])
    hand = {f"hand_{name}": RejectionRegion2D.from_grid(
                0.1, "custom", a, b, rng.choice([0.0, 0.3, 1.0], size=(len(a) - 1, len(b) - 1)))
            for name, (a, b) in (("wide_x", (x, y)), ("wide_y", (y, x)))}
    return {"minimax": build_minimax_region(0.05), "extended": build_extended_region(0.07),
            "js": build_js_region(0.05), "bayes": shipped_bayes_region, **hand}


def test_blocked_power_matches_the_unblocked_formula(shipped_bayes_region):
    # shift counts around the block size: none, one, a block short by one,
    # one block, one block and one, and several blocks and a partial one
    rng = np.random.default_rng(31)
    for name, region in _power_test_regions(shipped_bayes_region).items():
        rows = max(1, _CHUNK // max(len(region.x_edges), len(region.y_edges)))
        for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 7):
            deltas = rng.uniform(-6.0, 6.0, size=(n, 2))
            deltas[: n // 4, 1] = 0.0
            got = analytic_power_batch(region, deltas)
            want = _unblocked_power(region, deltas)
            assert got.shape == (n,) and got.tobytes() == want.tobytes(), (name, n)


def test_blocked_power_memory_does_not_grow_with_the_shifts(shipped_bayes_region):
    # 50k shifts took 112 MiB in one pass; blocks keep the peak near 1.5 MiB
    deltas = np.random.default_rng(5).uniform(-6.0, 6.0, size=(50_000, 2))
    tracemalloc.start()
    try:
        analytic_power_batch(shipped_bayes_region, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_analytic_power_rejects_non_finite_shifts(bad):
    region = build_minimax_region(0.05)
    for shift in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="at row 0"):
            analytic_power(region, shift)
    deltas = np.array([[0.0, 0.0], [1.0, -2.0], [bad, 1.0], [0.0, bad]])
    with pytest.raises(ValueError, match=r"shifts must be finite, got \(.*, 1\.0\) at row 2"):
        analytic_power_batch(region, deltas)


@functools.cache
def _band(lo, hi, mu):
    return gaussian_interval_prob(Interval(lo, hi), mu)


@functools.cache
def _abs_tail(t, lo, hi, mu):
    """P(Z in (lo, hi), |Z| >= t) for Z ~ N(mu, 1)."""
    total = 0.0
    if lo < min(-t, hi):
        total += _band(lo, min(-t, hi), mu)
    if max(t, lo) < hi:
        total += _band(max(t, lo), hi, mu)
    return total


def _rule_box(region):
    rule = region.outside_rule
    if rule.box is not None or not region.cells:
        return rule.box
    return (min(c.x.lo for c in region.cells), max(c.x.hi for c in region.cells),
            min(c.y.lo for c in region.cells), max(c.y.hi for c in region.cells))


def _rule_mass_in(region, x, y, dx, dy):
    """Outside-rule mass inside the rectangle x times y at shift (dx, dy)."""
    t = region.outside_rule.threshold
    box = _rule_box(region)
    mass = _abs_tail(t, x[0], x[1], dx) * _abs_tail(t, y[0], y[1], dy)
    if box is not None:
        mass -= (_abs_tail(t, max(x[0], box[0]), min(x[1], box[1]), dx)
                 * _abs_tail(t, max(y[0], box[2]), min(y[1], box[3]), dy))
    return mass


def _oracle_power(region, dx, dy):
    """Per-cell sum of interval-probability products plus the outside-rule
    mass, less the rule mass under cells with p > 0 (cells take precedence)."""
    total = 0.0
    plane = (-math.inf, math.inf)
    if region.outside_rule is not None:
        total += _rule_mass_in(region, plane, plane, dx, dy)
    for c in region.cells:
        total += c.p * _band(c.x.lo, c.x.hi, dx) * _band(c.y.lo, c.y.hi, dy)
        if region.outside_rule is not None and c.p > 0.0:
            total -= _rule_mass_in(region, (c.x.lo, c.x.hi), (c.y.lo, c.y.hi), dx, dy)
    return total


def _oracle_lookup(region, zx, zy):
    """Per-cell open-rectangle membership, then the rule outside its closed box."""
    out = np.zeros(zx.shape)
    for c in region.cells:
        out[(zx > c.x.lo) & (zx < c.x.hi) & (zy > c.y.lo) & (zy < c.y.hi)] = c.p
    rule = region.outside_rule
    if rule is not None:
        fires = (np.abs(zx) > rule.threshold) & (np.abs(zy) > rule.threshold)
        box = _rule_box(region)
        if box is not None:
            fires &= ~((zx >= box[0]) & (zx <= box[1]) & (zy >= box[2]) & (zy <= box[3]))
        out[fires & (out == 0.0)] = 1.0
    return out


def test_grid_matches_per_cell_oracles(shipped_bayes_region_v1):
    # the second cell lies beyond the rule box where the rule fires, so its
    # p=0.5 must replace the rule there; the p=0 cell leaves the rule in force
    boxed = RejectionRegion2D(
        0.05, "custom",
        [_rect(-1, 1, -1, 1, 0.8), _rect(3.5, 4.5, 3.5, 4.5, 0.5), _rect(-4.5, -3.5, 3.5, 4.5, 0.0)],
        OutsideRule(2.0, (-3, 3, -3, 3)))
    rng = np.random.default_rng(17)
    shifts = rng.uniform(-5.0, 5.0, size=(200, 2))
    pts = rng.uniform(-6.0, 6.0, size=(20_000, 2))
    default_box = RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1, 0.25)], OutsideRule(1.5))
    # the v1 document's cells and outside rule keep this oracle independent
    # of the grid that the shipped region-v2 document stores
    for region in (shipped_bayes_region_v1, build_js_region(0.05), boxed, default_box,
                   build_minimax_region(0.1), build_extended_region(0.07)):
        want = [_oracle_power(region, dx, dy) for dx, dy in shifts]
        np.testing.assert_allclose(analytic_power_batch(region, shifts), want, rtol=0, atol=1e-14)
        got = rejection_prob_at_points(region, pts[:, 0], pts[:, 1])
        assert np.array_equal(got, _oracle_lookup(region, pts[:, 0], pts[:, 1]))


def test_outside_rule_membership_and_mass():
    # one central cell; rule applies beyond the explicit box
    region = RejectionRegion2D(
        0.05, "custom", [_rect(-1, 1, -1, 1, 1.0)], OutsideRule(2.0, (-3, 3, -3, 3)))
    assert rejection_prob_at_point(region, (0.0, 0.0)) == 1.0
    assert rejection_prob_at_point(region, (2.5, 2.5)) == 0.0   # inside box, no cell
    assert rejection_prob_at_point(region, (3.5, 3.5)) == 1.0   # beyond box, both large
    assert rejection_prob_at_point(region, (3.5, 1.5)) == 0.0   # one coordinate small
    assert rejection_prob_at_point(region, (-3.5, 3.5)) == 1.0
    # analytic power integrates the rule mass too: compare against MC
    rng = np.random.Generator(np.random.Philox(5))
    z = rng.normal(size=(200_000, 2)) + np.array([1.5, 1.5])
    rate = float(np.mean(rejection_prob_at_points(region, z[:, 0], z[:, 1])))
    exact = analytic_power(region, (1.5, 1.5))
    se = math.sqrt(exact * (1 - exact) / 200_000)
    assert abs(rate - exact) <= 4 * se


def test_serialize_round_trip_identity():
    for region in (build_minimax_region(0.05),
                   build_js_region(0.1),
                   RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1, 0.25)],
                                     OutsideRule(1.5))):
        text = serialize(region)
        again = deserialize(text)
        assert again == region
        assert serialize(again) == text


def test_serialize_encodes_infinities_as_strings():
    text = serialize(build_minimax_region(0.5))
    doc = json.loads(text)
    for key in ("x_edges", "y_edges"):
        edges = doc[key]
        assert edges[0] == "-inf" and edges[-1] == "inf"
        assert not any(isinstance(v, float) and math.isinf(v) for v in edges)


def _doc(cells, alpha=0.05, version="region-v1", kind="custom", rule=None):
    return json.dumps({
        "version": version, "alpha": alpha, "kind": kind, "cells": cells,
        "outside_rule": rule if rule is not None else {"type": "none"},
    })


def test_deserialize_rejects_bad_probability():
    with pytest.raises(RegionValidationError, match="probability"):
        deserialize(_doc([{"x": [0, 1], "y": [0, 1], "p": 1.5}]))


def test_deserialize_rejects_overlap():
    with pytest.raises(RegionValidationError, match="overlap"):
        deserialize(_doc([{"x": [0, 1], "y": [0, 1], "p": 1},
                          {"x": [0.5, 1.5], "y": [0, 1], "p": 1}]))


def test_deserialize_names_offending_field():
    with pytest.raises(RegionFormatError, match="version"):
        deserialize(_doc([], version="region-v0"))
    with pytest.raises(RegionFormatError, match="cells\\[0\\]\\.p"):
        deserialize(_doc([{"x": [0, 1], "y": [0, 1], "p": "high"}]))
    with pytest.raises(RegionFormatError, match="alpha"):
        deserialize(json.dumps({"version": "region-v1", "kind": "custom",
                                "cells": [], "outside_rule": {"type": "none"}}))
    with pytest.raises(RegionFormatError, match="not valid JSON"):
        deserialize("{")


# -- region-v2: the grid as the document ---------------------------------------

def _grid_bytes(region):
    return tuple(a.tobytes() for a in (region.x_edges, region.y_edges, region.probs))


def test_shipped_fixture_is_lossless_v2(shipped_bayes_paths, shipped_bayes_region,
                                        shipped_bayes_region_v1):
    v2_path, v1_path = shipped_bayes_paths
    text = v2_path.read_text()
    assert json.loads(text)["version"] == "region-v2"
    assert len(text.encode()) <= 10_000
    v1, v2 = shipped_bayes_region_v1, shipped_bayes_region
    # the shipped document is exactly serialize(deserialize(v1 document))
    assert serialize(v1) == text
    assert v1 == v2 and hash(v1) == hash(v2)
    assert _grid_bytes(v1) == _grid_bytes(v2)
    assert v2.probs.shape == (97, 97)

    rng = np.random.default_rng(65)
    pts = np.concatenate([rng.normal(scale=2.5, size=(900_000, 2)),
                          rng.uniform(-5.0, 5.0, size=(100_000, 2))])
    edges = np.concatenate([v1.x_edges, v1.y_edges])
    ex, ey = np.meshgrid(edges, edges)
    partners = rng.uniform(-5.0, 5.0, size=len(edges))
    specials = np.array([[math.inf, math.inf], [math.inf, -math.inf], [-math.inf, 3.0],
                         [3.0, math.inf], [-math.inf, 0.0], [0.0, 0.0]])
    pts = np.concatenate([pts, np.column_stack([ex.ravel(), ey.ravel()]),
                          np.column_stack([edges, partners]), np.column_stack([partners, edges]),
                          specials])
    got1 = rejection_prob_at_points(v1, pts[:, 0], pts[:, 1])
    got2 = rejection_prob_at_points(v2, pts[:, 0], pts[:, 1])
    assert got1.tobytes() == got2.tobytes()
    assert rejection_prob_at_point(v2, (math.inf, math.inf)) == 1.0

    shifts = rng.uniform(-5.0, 5.0, size=(200, 2))
    assert np.array_equal(analytic_power_batch(v1, shifts), analytic_power_batch(v2, shifts))


def test_region_equality_is_on_the_grid():
    a = RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1, 0.5), _rect(1, 2, 0, 1)])
    b = RejectionRegion2D(0.05, "custom", [_rect(1, 2, 0, 1), _rect(0, 1, 0, 1, 0.5)])
    assert a.cells != b.cells
    assert a == b and hash(a) == hash(b)
    # a rule and the cells it paints compile to one grid, which is the grid
    # build_js_region writes
    js = RejectionRegion2D(0.05, "joint_significance", [], OutsideRule(-ndtri(0.025)))
    painted = RejectionRegion2D(0.05, "joint_significance", deserialize(serialize(js)).cells)
    assert js.outside_rule is not None and painted.outside_rule is None
    assert js == painted and hash(js) == hash(painted)
    assert js == build_js_region(0.05) and hash(js) == hash(build_js_region(0.05))
    # -0.0 and 0.0 compare equal, so they must hash alike; a -0.0 edge is stored as 0.0
    neg = RejectionRegion2D(0.05, "custom", [_rect(-0.0, 1, 0, 1)])
    pos = RejectionRegion2D(0.05, "custom", [_rect(0.0, 1, 0, 1)])
    assert math.copysign(1.0, neg.x_edges[1]) == 1.0
    assert neg == pos and hash(neg) == hash(pos)
    grid = RejectionRegion2D.from_grid(0.05, "custom", [-math.inf, 0.0, math.inf],
                                       [-math.inf, math.inf], [[-0.0], [1.0]])
    signed = RejectionRegion2D.from_grid(0.05, "custom", [-math.inf, -0.0, math.inf],
                                         [-math.inf, math.inf], [[0.0], [1.0]])
    assert math.copysign(1.0, signed.x_edges[1]) == 1.0
    assert grid == signed and hash(grid) == hash(signed)
    assert serialize(grid) == serialize(signed)
    # anything that changes the grid, alpha or kind breaks equality
    assert a != RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1, 0.25), _rect(1, 2, 0, 1)])
    assert a != RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1, 0.5), _rect(1, 3, 0, 1)])
    assert a != RejectionRegion2D(0.1, "custom", a.cells)
    assert a != RejectionRegion2D(0.05, "bayes", a.cells)
    assert a != "region"


def test_grid_region_derives_cells_once(shipped_bayes_paths):
    region = deserialize(shipped_bayes_paths[0].read_text())
    assert region.outside_rule is None
    assert "97x97" in repr(region)
    assert region._cells is None  # neither loading nor repr builds the cell view
    cells = region.cells
    assert region.cells is cells
    assert len(cells) == np.count_nonzero(region.probs) == 4951
    assert all(c.p > 0.0 for c in cells)
    assert RejectionRegion2D(region.alpha, region.kind, cells) == region


def test_rebuilding_from_derived_cells_gives_an_equal_region():
    boxed = RejectionRegion2D(
        0.05, "custom",
        [_rect(-1, 1, -1, 1, 0.8), _rect(3.5, 4.5, 3.5, 4.5, 0.5)],
        OutsideRule(2.0, (-3, 3, -3, 3)))
    for region in (build_minimax_region(0.05), build_extended_region(0.07),
                   build_js_region(0.1), boxed):
        grid = RejectionRegion2D.from_grid(region.alpha, region.kind, region.x_edges,
                                           region.y_edges, region.probs)
        assert grid == region
        rebuilt = RejectionRegion2D(grid.alpha, grid.kind, grid.cells)
        assert rebuilt == region and hash(rebuilt) == hash(region)


def test_from_grid_validates_and_copies():
    inf = math.inf
    x, y, probs = [-inf, 0.0, inf], [-inf, 1.0, inf], np.array([[0.0, 0.5], [1.0, 0.0]])
    region = RejectionRegion2D.from_grid(0.05, "custom", x, y, probs)
    probs[0, 1] = 0.25
    assert region.probs[0, 1] == 0.5
    assert not region.probs.flags.writeable and not region.x_edges.flags.writeable
    assert rejection_prob_at_point(region, (-1.0, 2.0)) == 0.5
    assert rejection_prob_at_point(region, (0.0, 2.0)) == 0.0  # inner edges are open
    probs[0, 1] = 0.5
    for args, match in (
            ((0.0, "custom", x, y, probs), "alpha"),
            ((0.05, "nonsense", x, y, probs), "kind"),
            ((0.05, "custom", [-inf, inf], y, probs), "probs: expected shape"),
            ((0.05, "custom", [-1.0, 0.0, inf], y, probs), "x_edges: .*-inf to inf"),
            ((0.05, "custom", x, [-inf, 1.0, 5.0], probs), "y_edges: .*-inf to inf"),
            ((0.05, "custom", [-inf, inf, 0.0], y, probs), "x_edges: .*strictly increasing"),
            ((0.05, "custom", x, [-inf, inf, inf], probs), "y_edges: .*strictly increasing"),
            ((0.05, "custom", [-inf, math.nan, inf], y, probs), "x_edges: NaN"),
            ((0.05, "custom", [inf], y, probs), "x_edges: expected at least two"),
            ((0.05, "custom", x, y, [[0.0, 0.5], [1.5, 0.0]]), r"probs: .*\[0, 1\]"),
            ((0.05, "custom", x, y, [[0.0, 0.5], [math.nan, 0.0]]), r"probs: .*\[0, 1\]")):
        with pytest.raises(ValueError, match=match):
            RejectionRegion2D.from_grid(*args)


def _v2_doc():
    region = RejectionRegion2D(0.05, "custom", [_rect(0, 1, 0, 1, 0.25), _rect(1, 2, -1, 0)])
    return json.loads(serialize(region))


def test_v2_document_fields():
    doc = _v2_doc()
    assert doc == {
        "version": "region-v2", "alpha": 0.05, "kind": "custom",
        "x_edges": ["-inf", 0.0, 1.0, 2.0, "inf"], "y_edges": ["-inf", -1.0, 0.0, 1.0, "inf"],
        "values": [0.0, 0.25, 1.0],
        "runs": [[0, 6], [1, 1], [0, 2], [2, 1], [0, 6]]}
    # unknown top-level keys are ignored, so documents can carry metadata
    doc["meta"] = {"builder": "hand"}
    assert deserialize(json.dumps(doc)) == deserialize(json.dumps(_v2_doc()))


_DELETE = object()


def _edit(path, value):
    """A document edit: set the item at ``path`` to ``value``, or delete it."""
    def apply(doc):
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        return doc
    return apply


@pytest.mark.parametrize("edit, error, match", [
    *[(_edit((key,), _DELETE), RegionFormatError, f"{key}: missing")
      for key in ("alpha", "kind", "x_edges", "y_edges", "values", "runs")],
    (_edit(("x_edges", 2), -5.0), RegionValidationError, "x_edges: .*strictly increasing"),
    (_edit(("y_edges", 2), -1.0), RegionValidationError, "y_edges: .*strictly increasing"),
    (_edit(("x_edges", 0), -9.0), RegionValidationError, "x_edges: .*-inf to inf"),
    (_edit(("y_edges", 4), 9.0), RegionValidationError, "y_edges: .*-inf to inf"),
    (_edit(("x_edges", 1), math.nan), RegionFormatError, r"x_edges\[1\]: NaN"),
    (_edit(("values", 1), math.nan), RegionFormatError, r"values\[1\]: NaN"),
    (_edit(("alpha",), math.nan), RegionFormatError, "alpha: NaN"),
    (_edit(("values", 2), 1.5), RegionValidationError, r"values\[2\]: .*\[0, 1\]"),
    (_edit(("values", 0), -0.5), RegionValidationError, r"values\[0\]: .*\[0, 1\]"),
    (_edit(("runs", 1, 0), 3), RegionValidationError, r"runs\[1\]: value index 3 out of range"),
    (_edit(("runs", 1, 0), -1), RegionValidationError, r"runs\[1\]: value index -1 out of range"),
    (_edit(("runs", 1, 1), 0), RegionValidationError, r"runs\[1\]: run length must be positive"),
    (_edit(("runs", 1, 1), -1), RegionValidationError, r"runs\[1\]: run length must be positive"),
    (_edit(("runs", 0, 1), 7), RegionValidationError, "runs: run lengths sum to 17, expected 16"),
    (_edit(("runs", 4, 1), 4), RegionValidationError, "runs: run lengths sum to 14, expected 16"),
    (_edit(("runs", 0, 1), 2 ** 70), RegionValidationError, "runs: integer out of range"),
    (_edit(("runs", 0, 1), 6.0), RegionFormatError, r"runs\[0\]: expected .* integer pair"),
    (_edit(("runs", 0, 1), True), RegionFormatError, r"runs\[0\]: expected .* integer pair"),
    (_edit(("runs", 0), [0, 6, 1]), RegionFormatError, r"runs\[0\]: expected .* integer pair"),
    (_edit(("runs",), {"0": 16}), RegionFormatError, "runs: expected a list"),
    (_edit(("x_edges", 1), "zero"), RegionFormatError, r"x_edges\[1\]: expected a number"),
    (_edit(("values",), 1.0), RegionFormatError, "values: expected a list"),
    (_edit(("kind",), "nonsense"), RegionFormatError, "kind"),
    (_edit(("version",), "region-v3"), RegionFormatError, "version"),
])
def test_deserialize_rejects_malformed_v2(edit, error, match):
    text = json.dumps(edit(_v2_doc()))
    with pytest.raises(error, match=match):
        deserialize(text)
