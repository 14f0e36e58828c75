"""Region data model: lookup, analytic power, serialization."""

import functools
import hashlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from compnull import (Interval, OutsideRule, RegionFormatError, RegionValidationError,
                      RejectionRegion2D, WeightedRect, analytic_power,
                      analytic_power_batch, build_extended_region, build_js_region,
                      build_minimax_region, deserialize, gaussian_interval_prob, js_test,
                      minimax_pvalue, rejection_prob_at_point, rejection_prob_at_points,
                      serialize)
from compnull.bayes_lp import build_lp
from compnull.latin3 import build_latin_region, cyclic_latin
from compnull.regions import _CHUNK
from compnull.regions import TestStatisticPair as StatisticPair  # not a test class
from compnull.simulate import SimSpec, simulate_power
from compnull.statmath import _ndtr

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
    gx = np.diff(_ndtr(region.x_edges[None, :] - deltas[:, :1]), axis=1)
    gy = np.diff(_ndtr(region.y_edges[None, :] - deltas[:, 1:]), axis=1)
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


def test_power_bits_are_pinned(shipped_bayes_region):
    # sha256 of the powers at 10k shifts, a tenth of them on the null axes, recorded when
    # each block took its cdf, band masses and product in fresh arrays. The matmul's bits
    # come from the BLAS kernel, which OpenBLAS picks per CPU
    rng = np.random.default_rng(2030)
    shifts = rng.uniform(-6.0, 6.0, size=(10_000, 2))
    shifts[:1000:2, 0] = 0.0
    shifts[1:1000:2, 1] = 0.0
    digest = hashlib.sha256()
    for region in (build_minimax_region(0.05), build_extended_region(0.07), build_js_region(0.05),
                   shipped_bayes_region, build_minimax_region(1 / 300)):
        digest.update(analytic_power_batch(region, shifts).tobytes())
    assert digest.hexdigest() == "a1c39559c2b1b11c782fe051b44d60029fcc979c519266380991a96e705e7f3a"


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


def _blocked_power_oracle(region, deltas):
    """analytic_power_batch as it was before runs of equal shifts shared their
    band masses: every block takes the masses of every shift."""
    from compnull.statmath import _band_masses
    x_edges, y_edges = region.x_edges, region.y_edges
    rows = max(1, _CHUNK // max(x_edges.size, y_edges.size))
    out = np.empty(len(deltas))
    for lo in range(0, len(deltas), rows):
        d = deltas[lo:lo + rows]
        g = _band_masses(x_edges, d[:, 0]) @ region.probs
        g *= _band_masses(y_edges, d[:, 1])
        g.sum(axis=1, out=out[lo:lo + rows])
    return np.clip(out, 0.0, 1.0, out=out)


def _axis_scan(k, half_width=12.0, offset=0.01):
    """Design's certification scan: the x null axis, then the y null axis."""
    axis = np.linspace(-half_width, half_width, k) + offset
    zero = np.zeros(k)
    return np.vstack([np.column_stack([axis, zero]), np.column_stack([zero, axis])])


def _run_shift_sets():
    rng = np.random.default_rng(33)
    line = np.linspace(-5.0, 5.0, 3001)
    mesh = np.stack(np.meshgrid(np.linspace(-4, 4, 70), np.linspace(-3, 3, 90),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    alternating = np.zeros((2000, 2))
    alternating[0::2, 0] = rng.uniform(-6, 6, 1000)
    alternating[1::2, 1] = rng.uniform(-6, 6, 1000)
    return {
        "axis_scan": _axis_scan(1201),
        "fixed_dx": np.column_stack([np.full_like(line, 1.5), line]),
        "fixed_dy": np.column_stack([line, np.full_like(line, -0.7)]),
        "ij_mesh": mesh,
        "alternating_null_rows": alternating,
        "random": rng.uniform(-6.0, 6.0, size=(5000, 2)),
        "single": np.array([[0.3, 0.3]]),
    }


def _run_regions(shipped_bayes_region):
    inf = math.inf
    uneven = RejectionRegion2D.from_grid(
        0.05, "custom", [-inf, -2.0, -0.5, 0.5, 2.0, inf], [-inf, -1.0, 1.0, inf],
        [[1.0, 0.0, 1.0], [0.2, 0.0, 0.2], [0.0, 0.0, 0.0], [0.2, 0.0, 0.2], [1.0, 0.0, 1.0]])
    return {"minimax": build_minimax_region(0.05), "extended": build_extended_region(0.07),
            "js": build_js_region(0.05), "fixture": shipped_bayes_region, "uneven": uneven}


@pytest.mark.parametrize("shifts", list(_run_shift_sets()))
def test_runs_of_equal_shifts_keep_the_bits_of_the_blocked_loop(shifts, shipped_bayes_region):
    deltas = _run_shift_sets()[shifts]
    for name, region in _run_regions(shipped_bayes_region).items():
        want = _blocked_power_oracle(region, deltas)
        assert np.array_equal(analytic_power_batch(region, deltas), want), name


def test_a_run_of_equal_shifts_takes_its_band_masses_once(monkeypatch):
    # the x-axis half of the scan holds dy = 0 throughout and the y-axis half
    # dx = 0: each axis pays one mass row per run within a block, not per shift
    import compnull.regions as regions
    rows = []

    def counted(edges, shifts, folded=False):
        rows.append(np.size(shifts))
        return _band_masses(edges, shifts, folded)

    _band_masses = regions._band_masses
    region = build_minimax_region(0.05)
    k = 1201
    deltas = _axis_scan(k)
    monkeypatch.setattr(regions, "_band_masses", counted)
    power = analytic_power_batch(region, deltas)
    block = max(1, _CHUNK // max(region.x_edges.size, region.y_edges.size))
    heads = 0
    for lo in range(0, 2 * k, block):
        d = deltas[lo:lo + block]
        heads += sum(1 + int(np.count_nonzero(c[1:] != c[:-1])) for c in d.T)
    # about one row per shift on the axis that moves and one per block on the
    # axis held at 0, where taking every shift would be 2 rows per shift
    assert sum(rows) == heads < 2 * k + 2 * math.ceil(2 * k / block)
    assert np.all(np.abs(power - 0.05) <= 1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_analytic_power_rejects_non_finite_shifts(bad):
    region = build_minimax_region(0.05)
    for shift in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="at row 0"):
            analytic_power(region, shift)
    deltas = np.array([[0.0, 0.0], [1.0, -2.0], [bad, 1.0], [0.0, bad]])
    with pytest.raises(ValueError, match=r"shifts must be finite, got \(.*, 1\.0\) at row 2"):
        analytic_power_batch(region, deltas)


def test_pairs_of_the_wrong_length_name_the_count():
    region = build_minimax_region(0.05)
    for z, got in (((1.0,), 1), ((1.0, 2.0, 3.0), 3), (np.ones(3), 3)):
        for call in (lambda: rejection_prob_at_point(region, z), lambda: js_test(z, 0.05),
                     lambda: minimax_pvalue(z)):
            with pytest.raises(ValueError, match=f"^z must hold 2 values, got {got}$"):
                call()
        with pytest.raises(ValueError, match=f"^delta_star must hold 2 values, got {got}$"):
            analytic_power(region, z)
    # a statistic pair, an array and a list are pairs
    pair = StatisticPair(2.5, -1.0)
    for z in (pair, np.array([2.5, -1.0]), [2.5, -1.0]):
        assert rejection_prob_at_point(region, z) == rejection_prob_at_point(region, (2.5, -1.0))
        assert js_test(z, 0.05) == js_test((2.5, -1.0), 0.05)
        assert minimax_pvalue(z) == minimax_pvalue((2.5, -1.0))
        assert analytic_power(region, z) == analytic_power(region, (2.5, -1.0))


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


def _refused_peak(build, match, error=RegionValidationError):
    """The tracemalloc peak, in bytes, of a build refused by a size limit."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=match):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_cap_refuses_big_documents_before_allocating():
    # 4000 x 4000 = 16M cells would take ~275 MB to expand
    edges = ["-inf", *range(3999), "inf"]
    v2 = json.dumps({"version": "region-v2", "alpha": 0.05, "kind": "custom",
                     "x_edges": edges, "y_edges": edges, "values": [0.0],
                     "runs": [[0, 4000 * 4000]]})
    assert _refused_peak(lambda: deserialize(v2),
                         r"^grid of 4000 x 4000 = 16000000 cells exceeds the limit of 8388608$"
                         ) < 4 * 2**20
    # 2000 disjoint diagonal cells compile to a 4001 x 4001 grid
    v1 = _doc([{"x": [k, k + 0.5], "y": [k, k + 0.5], "p": 1} for k in range(2000)])
    assert _refused_peak(lambda: deserialize(v1), "= 16008001 cells exceeds") < 4 * 2**20


_EDGES_2899 = np.concatenate(([-math.inf], np.arange(2897.0), [math.inf]))
_OVER_CAP = "2898 x 2898 = 8398404 cells exceeds"


@pytest.mark.parametrize("build, match, error", [
    pytest.param(lambda: build_minimax_region(1 / 1449), _OVER_CAP, RegionValidationError,
                 id="minimax-K1449"),
    pytest.param(lambda: build_extended_region(1e-4), "20000 x 20000 = 400000000 cells",
                 RegionValidationError, id="extended-1e-4"),
    pytest.param(lambda: build_extended_region(1e-320), "inf x inf = inf cells",
                 RegionValidationError, id="extended-1e-320"),
    pytest.param(functools.partial(build_latin_region, cyclic_latin(204), 1 / 204),
                 "204 x 204 x 204 = 8489664 cells", RegionValidationError, id="latin-K204"),
    # a broadcast view takes no memory, so only a copy of probs would show
    pytest.param(lambda: RejectionRegion2D.from_grid(
        0.05, "custom", _EDGES_2899, _EDGES_2899, np.broadcast_to(0.0, (2898, 2898))),
        _OVER_CAP, RegionValidationError, id="from_grid-2899-edges"),
    pytest.param(lambda: simulate_power(SimSpec(("extended",), ((0.0, 0.0),), 50, 10, 1, 1e-4)),
                 "20000 x 20000", RegionValidationError, id="simulate_power-extended-1e-4"),
    pytest.param(lambda: build_lp(0.05, 257), r"^order m=257 exceeds the limit of 256$",
                 ValueError, id="build_lp-m257"),
])
def test_constructors_refuse_the_first_size_over_the_limit(build, match, error):
    assert _refused_peak(build, match, error) < 4 * 2**20


def test_grid_cap_admits_the_largest_grids():
    # K = 1448 gives 2896^2 = 8386816 cells, the largest square grid within 2^23
    region = build_minimax_region(1 / 1448)
    assert region.probs.shape == (2896, 2896)
    assert deserialize(serialize(region)) == region
    # off unit fractions the grid has 2 floor(1/alpha) + 2 bands a side
    assert build_extended_region(1 / 1447.5).probs.shape == (2896, 2896)
    # 203^3 = 8365427 labels; 204^3 is over the cap
    assert build_latin_region(cyclic_latin(203), 1 / 203)._label.shape == (203, 203, 203)


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
    # grids, not rejection functions: an unused inner edge makes a 2x1
    # all-zero grid, unequal to the 1x1 one its (empty) cells compile to
    unused = RejectionRegion2D.from_grid(0.05, "custom", [-math.inf, 0.0, math.inf],
                                         [-math.inf, math.inf], [[0.0], [0.0]])
    rebuilt = RejectionRegion2D(0.05, "custom", unused.cells)
    assert len(unused.cells) == 0 and rebuilt.probs.shape == (1, 1)
    points = np.array([-1.0, 0.0, 1.0])
    assert not rejection_prob_at_points(unused, points, points).any()
    assert not rejection_prob_at_points(rebuilt, points, points).any()
    assert unused != rebuilt


def _bands(edges):
    edges = np.asarray(edges).tolist()
    return [Interval(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _grid_cells_tuple(region):
    """The derived cells built eagerly, one per nonzero grid cell in row-major order."""
    xs, ys = _bands(region.x_edges), _bands(region.y_edges)
    i, j = np.nonzero(region.probs)
    return tuple(WeightedRect(xs[a], ys[b], p)
                 for a, b, p in zip(i.tolist(), j.tolist(), region.probs[i, j].tolist()))


def _check_cell_view(view, want):
    n = len(want)
    assert len(view) == n
    assert all(view[k] == want[k] for k in range(-n, n))
    for k in (n, -n - 1, 10 ** 30):
        with pytest.raises(IndexError):
            view[k]
    with pytest.raises(TypeError):
        view[1.0]
    for s in (slice(None), slice(None, None, -1), slice(3, 17, 4), slice(-5, None),
              slice(n, None), slice(-n - 3, 2), slice(None, None, 7), slice(10, 2, -3)):
        assert view[s] == want[s]
    assert tuple(view) == want and list(iter(view)) == list(want)
    assert view == want and want == view and not view != want
    assert hash(view) == hash(want)
    assert view != list(want) and pickle.loads(pickle.dumps(view)) == want
    if n:
        assert view != want[:-1]
        assert view[-1] in view and view.index(view[-1]) == n - 1
        changed = want[:-1] + (WeightedRect(want[-1].x, want[-1].y, 0.5 * want[-1].p),)
        assert view != changed


def _cells_built(monkeypatch, read) -> int:
    """How many WeightedRect objects ``read()`` builds."""
    built = []
    post_init = WeightedRect.__post_init__

    def counting(cell):
        built.append(cell)
        post_init(cell)

    monkeypatch.setattr(WeightedRect, "__post_init__", counting)
    read()
    monkeypatch.undo()
    return len(built)


def _check_reads_build_only_what_they_return(monkeypatch, owner):
    # counting and reading two cells of a fresh view builds those two cells
    assert _cells_built(monkeypatch, lambda: (len(owner.cells), owner.cells[0],
                                              owner.cells[-1])) == 2


@pytest.mark.parametrize("name", ["minimax", "extended", "js", "fixture"])
def test_grid_region_cells_are_a_lazy_tuple_like_view(name, shipped_bayes_paths, monkeypatch):
    region = {"minimax": lambda: build_minimax_region(0.05),
              "extended": lambda: build_extended_region(0.07),
              "js": lambda: build_js_region(0.1),
              "fixture": lambda: deserialize(shipped_bayes_paths[0].read_text())}[name]()
    _check_reads_build_only_what_they_return(monkeypatch, region)
    want = _grid_cells_tuple(region)
    _check_cell_view(region.cells, want)
    assert region.cells is region.cells
    assert RejectionRegion2D(region.alpha, region.kind, region.cells) == region
    # a region built from a cell list keeps the tuple it was given
    rebuilt = RejectionRegion2D(region.alpha, region.kind, list(region.cells))
    assert type(rebuilt.cells) is tuple and rebuilt.cells == want


@pytest.mark.parametrize("m", [4, 12, 65])
def test_lp_cells_are_a_lazy_tuple_like_view(m, monkeypatch):
    problem = build_lp(0.05, m)
    _check_reads_build_only_what_they_return(monkeypatch, problem)
    bands = _bands(problem.edges)
    want = tuple(WeightedRect(bx, by) for bx in bands for by in bands)
    _check_cell_view(problem.cells, want)
    assert problem.cells is problem.cells


def test_cell_views_are_counted_without_building_cells(shipped_bayes_paths):
    problem = build_lp(0.05, 65)
    region = deserialize(shipped_bayes_paths[0].read_text())
    for obj, count, limit in ((problem, 16900, 0.2e6), (region, 4951, 0.4e6)):
        tracemalloc.start()
        try:
            assert len(obj.cells) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # building every cell costs 1.80 MB for the LP and 0.86 MB for the fixture
        assert peak < limit, (count, peak)
    empty = RejectionRegion2D.from_grid(0.05, "custom", [-math.inf, math.inf],
                                        [-math.inf, math.inf], [[0.0]])
    _check_cell_view(empty.cells, ())
    assert RejectionRegion2D(0.05, "custom", empty.cells) == empty


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
