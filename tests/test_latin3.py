"""Three-factor regions built from Latin squares."""

import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from compnull.latin3 import (
    CornerNormalization,
    LatinSquare,
    RejectionRegion3D,
    analytic_power3,
    build_latin_region,
    conjugate,
    cyclic_latin,
    is_totally_symmetric,
    normalize_corner,
    rejects3,
    square_from_json,
    square_to_json,
)
from compnull.regions import RegionValidationError
from compnull.statmath import Interval, _band_masses, folded_interval_prob, std_normal_quantile

# mpmath, 50 digits: band edges for alpha = 1/3
C1_THIRD = 0.43072729929545749
C2_THIRD = 0.96742156610170104

# 1e7 Philox(12345) draws on the corner-normalized cyclic square of order 3,
# mean (1, 2, 3): rate and its binomial standard error
MC_POWER_123 = 0.4854659
MC_POWER_123_SE = 0.00015804706891846807

SWAPPED_2 = LatinSquare(2, ((2, 1), (1, 2)))


def test_cyclic_squares():
    assert cyclic_latin(2).grid == ((1, 2), (2, 1))
    assert cyclic_latin(3).grid == ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    big = cyclic_latin(20)
    assert big[1, 1] == 1 and big[20, 20] == 19
    assert big[7, 12] == (7 + 12 - 2) % 20 + 1
    with pytest.raises(ValueError, match="order"):
        cyclic_latin(0)


@pytest.mark.parametrize("k, cells", [(10**400, "1" + "0" * 800), (2897, "8392609")],
                         ids=["10**400", "2897"])
def test_cyclic_square_over_the_grid_limit_is_refused_before_it_is_built(k, cells):
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(RegionValidationError, match=rf"= {cells} cells exceeds the limit"):
            cyclic_latin(k)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 4 * 2**20
    # the limit is on the K x K square; build_latin_region refuses K = 204 for its K^3 tensor
    assert cyclic_latin(204).k == 204


def test_square_validation():
    with pytest.raises(ValueError, match="row 2"):
        LatinSquare(2, ((1, 2), (2, 2)))
    with pytest.raises(ValueError, match="column 1"):
        LatinSquare(2, ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match="2x2"):
        LatinSquare(2, ((1, 2),))
    with pytest.raises(ValueError, match="order"):
        LatinSquare(0, ())
    a = cyclic_latin(3)
    assert a[1, 1] == 1 and a[2, 3] == 1 and a[3, 2] == 1


def test_non_integer_symbols_are_refused():
    # each of these once loaded as the cyclic square of order 2, its symbols truncated by int()
    for grid, shown in ((((1, 2.7), (2, 1.2)), "2.7"), (((True, 2), (2, 1)), "True"),
                        (((1, "2"), (2, 1)), "'2'"), (((1, 2), (2, np.True_)), "np.True_")):
        with pytest.raises(ValueError) as err:
            LatinSquare(2, grid)
        assert str(err.value) == f"symbol must be an integer, got {shown}"
    with pytest.raises(ValueError) as err:
        square_from_json('{"order": 2, "grid": [[1, 2.9], [2, 1]]}')
    assert str(err.value) == "invalid square document: symbol must be an integer, got 2.9"
    # numpy integers are symbols; the grid holds them as ints
    square = LatinSquare(2, ((np.uint8(1), np.int64(2)), (2, np.uint64(1))))
    assert square == cyclic_latin(2) and type(square.grid[1][1]) is int
    # a symbol past int64 is out of range, not an overflow
    with pytest.raises(ValueError, match="row 2 is not a permutation of 1..2"):
        LatinSquare(2, ((1, 2), (2, 10**30)))


def test_conjugate_identity_and_column_symbol_swap():
    a = cyclic_latin(4)
    assert conjugate(a, (1, 2, 3)) == a
    b = conjugate(a, (1, 3, 2))
    for i in range(1, 5):
        for j in range(1, 5):
            assert b[i, a[i, j]] == j
    # transpositions are involutions
    for p in ((1, 3, 2), (3, 2, 1), (2, 1, 3)):
        assert conjugate(conjugate(a, p), p) == a
    with pytest.raises(ValueError, match="perm"):
        conjugate(a, (1, 2, 2))


def test_total_symmetry_census():
    assert is_totally_symmetric(cyclic_latin(1))
    assert is_totally_symmetric(cyclic_latin(2))
    assert is_totally_symmetric(SWAPPED_2)
    assert not is_totally_symmetric(cyclic_latin(3))
    assert not is_totally_symmetric(cyclic_latin(4))
    assert not is_totally_symmetric(cyclic_latin(5))


def test_normalize_corner():
    done = normalize_corner(SWAPPED_2)
    assert done.square == SWAPPED_2
    assert done.sym_perm == (1, 2)

    fixed = normalize_corner(cyclic_latin(3))
    assert isinstance(fixed, CornerNormalization)
    assert fixed.square.grid == ((1, 3, 2), (3, 2, 1), (2, 1, 3))
    assert fixed.square[3, 3] == 3
    assert fixed.row_perm == (1, 2, 3)
    assert fixed.col_perm == (1, 2, 3)
    assert fixed.sym_perm == (1, 3, 2)


def test_build_region_order_two():
    region = build_latin_region(cyclic_latin(2), 0.5)
    assert len(region.boxes) == 4
    c1 = min(b[0].hi for b in region.boxes)
    assert c1 == std_normal_quantile(0.75)
    assert abs(c1 - 0.67448975019608174) < 1e-14
    assert max(b[0].hi for b in region.boxes) == float("inf")
    with pytest.raises(ValueError, match="reciprocal"):
        build_latin_region(cyclic_latin(3), 0.5)
    with pytest.raises(ValueError, match="alpha"):
        build_latin_region(cyclic_latin(2), 0.0)


def test_level_is_checked_as_in_test3():
    # the level checks of compnull test3, in its order: alpha = 1/K, then the
    # K^3 tensor limit; only then is K compared with the square's order
    with pytest.raises(ValueError, match=r"^alpha=0.4 must be 1/K for an integer order K$"):
        build_latin_region(cyclic_latin(2), 0.4)
    with pytest.raises(RegionValidationError, match=r"^grid of 204 x 204 x 204 = 8489664 "):
        build_latin_region(cyclic_latin(2), 1 / 204)
    with pytest.raises(ValueError, match=r"^alpha=0.3333333333333333 must be the reciprocal "
                                         r"of the square's order 2$"):
        build_latin_region(cyclic_latin(2), 1 / 3)


def test_band_edges_order_three():
    region = build_latin_region(cyclic_latin(3), 1.0 / 3.0)
    edges = sorted({b[0].lo for b in region.boxes} | {b[0].hi for b in region.boxes})
    assert edges[0] == 0.0 and edges[-1] == float("inf")
    assert edges[1] == pytest.approx(C1_THIRD, rel=1e-12)
    assert edges[2] == pytest.approx(C2_THIRD, rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_similar_on_null_hyperplanes(k):
    # power is exactly alpha whenever any one coordinate has mean zero,
    # whatever the square
    alpha = 1.0 / k
    squares = [cyclic_latin(k), normalize_corner(cyclic_latin(k)).square]
    if k == 2:
        squares.append(SWAPPED_2)
    for sq in squares:
        region = build_latin_region(sq, alpha)
        for t in (0.0, 0.8, 2.3):
            for u in (0.0, 1.4):
                for point in ((t, u, 0.0), (t, 0.0, u), (0.0, t, u)):
                    assert abs(analytic_power3(region, point) - alpha) <= 1e-10


def test_origin_power_is_alpha():
    region = build_latin_region(cyclic_latin(2), 0.5)
    assert abs(analytic_power3(region, (0.0, 0.0, 0.0)) - 0.5) <= 1e-12


def test_corner_normalization_restores_consistency():
    # raw cyclic square of order 3 has the all-large box mapped to band 2,
    # so far-out diagonal alternatives are almost never caught
    raw = build_latin_region(cyclic_latin(3), 1.0 / 3.0)
    assert analytic_power3(raw, (10.0, 10.0, 10.0)) < 0.9
    fixed = build_latin_region(normalize_corner(cyclic_latin(3)).square, 1.0 / 3.0)
    assert analytic_power3(fixed, (10.0, 10.0, 10.0)) >= 0.999


def test_power_matches_simulation():
    fixed = build_latin_region(normalize_corner(cyclic_latin(3)).square, 1.0 / 3.0)
    got = analytic_power3(fixed, (1.0, 2.0, 3.0))
    assert abs(got - MC_POWER_123) <= 4.0 * MC_POWER_123_SE


def test_rejects3_sign_invariance():
    region = build_latin_region(normalize_corner(cyclic_latin(3)).square, 1.0 / 3.0)
    rng = np.random.Generator(np.random.Philox(31))
    pts = rng.normal(scale=1.3, size=(40, 3))
    for p in pts:
        base = rejects3(region, p)
        for signs in itertools.product((1.0, -1.0), repeat=3):
            flipped = tuple(s * v for s, v in zip(signs, p))
            assert rejects3(region, flipped) == base


def test_totally_symmetric_square_gives_exchangeable_region():
    region = build_latin_region(SWAPPED_2, 0.5)
    rng = np.random.Generator(np.random.Philox(32))
    pts = rng.normal(size=(60, 3))
    for p in pts:
        decisions = {rejects3(region, tuple(p[list(perm)]))
                     for perm in itertools.permutations(range(3))}
        assert len(decisions) == 1


def test_cyclic_order_three_is_not_exchangeable():
    # bands (2,1,2) are in the cyclic region, bands (2,2,1) are not
    region = build_latin_region(cyclic_latin(3), 1.0 / 3.0)
    assert rejects3(region, (0.7, 0.2, 0.7))
    assert not rejects3(region, (0.7, 0.7, 0.2))


def test_region_validation():
    band = Interval(0.0, 1.0)
    far = Interval(2.0, 3.0)
    with pytest.raises(ValueError, match="alpha"):
        RejectionRegion3D(1.0, [(band, band, band)])
    with pytest.raises(ValueError, match="Interval"):
        RejectionRegion3D(0.5, [(band, band, (0.0, 1.0))])
    with pytest.raises(ValueError, match="nonnegative"):
        RejectionRegion3D(0.5, [(Interval(-1.0, 1.0), band, band)])
    with pytest.raises(ValueError, match="overlap"):
        RejectionRegion3D(0.5, [(band, band, band),
                                (Interval(0.5, 1.5), band, band)])
    ok = RejectionRegion3D(0.5, [(band, band, band), (far, band, band)])
    assert len(ok.boxes) == 2
    with pytest.raises(ValueError, match="NaN"):
        rejects3(ok, (float("nan"), 0.5, 0.5))


def test_square_json_round_trip():
    a = normalize_corner(cyclic_latin(5)).square
    assert square_from_json(square_to_json(a)) == a
    with pytest.raises(ValueError, match="invalid square document"):
        square_from_json("{not json")
    with pytest.raises(ValueError, match="'order' and 'grid'"):
        square_from_json('{"order": 2}')
    with pytest.raises(ValueError, match="invalid square document"):
        square_from_json('{"order": 2, "grid": [[1, 2], [1, 2]]}')


# -- the box scans the band tensor replaced, kept as oracles ----------------

def _scan_rejects3(region, z):
    u = tuple(abs(float(v)) for v in z)
    return any(all(iv.contains(t) for iv, t in zip(box, u)) for box in region.boxes)


def _box_power(region, d):
    total = 0.0
    for box in region.boxes:
        term = 1.0
        for iv, mu in zip(box, d):
            term *= folded_interval_prob(iv, mu)
            if term == 0.0:
                break
        total += term
    return min(1.0, total)


def _scan_overlaps(boxes):
    return any(all(min(i1.hi, i2.hi) > max(i1.lo, i2.lo) for i1, i2 in zip(b1, b2))
               for b1, b2 in itertools.combinations(boxes, 2))


def _axis_edges(region):
    return [sorted({b[a].lo for b in region.boxes} | {b[a].hi for b in region.boxes}
                   | {0.0}) for a in range(3)]


def _check_points(region, seed):
    """Seeded normals, every band edge on each axis against interior and edge
    partners, random all-edge triples and the origin; edges include inf, so
    finite edges are checked against the scan and inf against a far point
    in the same end band."""
    rng = np.random.Generator(np.random.Philox(seed))
    finite = [[e for e in edges if np.isfinite(e)] for edges in _axis_edges(region)]
    top = max(max(f) for f in finite) + 1.0
    pts = [tuple(p) for p in rng.normal(scale=top / 2.0, size=(300, 3))]
    pts.append((0.0, 0.0, 0.0))
    for axis in range(3):
        for e in finite[axis] + [np.inf]:
            for _ in range(4):
                p = list(rng.uniform(-top, top, size=3))
                p[axis] = e * rng.choice((-1.0, 1.0))
                pts.append(tuple(p))
    for _ in range(150):
        pts.append(tuple(rng.choice(f + [np.inf]) * rng.choice((-1.0, 1.0)) for f in finite))
    return pts


def _far(z):
    return tuple(np.copysign(1e300, v) if np.isinf(v) else v for v in z)


def _assert_lookup_matches_scan(region, seed):
    for z in _check_points(region, seed):
        if all(np.isfinite(z)):
            assert rejects3(region, z) == _scan_rejects3(region, z), z
        else:
            assert rejects3(region, z) == _scan_rejects3(region, _far(z)), z


def _assert_power_matches_boxes(region, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    shifts = rng.normal(scale=2.0, size=(100, 3))
    shifts[:10] = 0.0
    shifts[:10, :2] = rng.uniform(0.0, 4.0, size=(10, 2))
    for d in shifts:
        assert abs(analytic_power3(region, d) - _box_power(region, d)) <= 1e-15, d


def _reference_power3(region, d):
    """The contraction analytic_power3 did before its one-pass form: each axis's folded
    masses from its own _band_masses call and a fresh boolean membership."""
    gx, gy, gz = (_band_masses(e, mu, folded=True) for e, mu in zip(region._edges, d))
    return min(1.0, max(0.0, float((region._label > 0) @ gz @ gy @ gx)))


def _gapped_region():
    # gaps between boxes, different edges on each axis, two boxes touching
    # along y = 1.0 and a zero-width box
    iv = Interval
    return RejectionRegion3D(0.1, [
        (iv(0.2, 0.9), iv(0.0, 1.5), iv(1.0, np.inf)),
        (iv(1.3, 2.0), iv(0.5, 1.0), iv(0.0, 0.4)),
        (iv(1.3, 2.0), iv(1.0, 3.0), iv(0.0, 0.4)),
        (iv(2.5, np.inf), iv(2.2, 2.7), iv(0.7, 1.9)),
        (iv(0.6, 0.6), iv(0.1, 0.3), iv(0.0, 5.0)),
    ])


@pytest.mark.parametrize("k", [2, 3, 5, 20])
def test_band_tensor_matches_box_scan(k):
    for seed, sq in enumerate((cyclic_latin(k), normalize_corner(cyclic_latin(k)).square)):
        region = build_latin_region(sq, 1.0 / k)
        _assert_lookup_matches_scan(region, 40 * k + seed)
        _assert_power_matches_boxes(region, 50 * k + seed)


def test_band_tensor_matches_box_scan_on_gapped_region():
    region = _gapped_region()
    _assert_lookup_matches_scan(region, 61)
    _assert_power_matches_boxes(region, 62)
    assert rejects3(region, (0.5, 1.4, 3.0))
    assert not rejects3(region, (0.5, 1.5, 3.0))
    assert not rejects3(region, (1.5, 1.0, 0.2))
    assert rejects3(region, (np.inf, 2.5, 1.0))


def test_infinite_statistics_lie_in_end_band():
    fixed = build_latin_region(normalize_corner(cyclic_latin(3)).square, 1.0 / 3.0)
    assert rejects3(fixed, (np.inf, np.inf, np.inf))
    assert rejects3(fixed, (-np.inf, np.inf, -np.inf))
    big = build_latin_region(normalize_corner(cyclic_latin(20)).square, 0.05)
    assert rejects3(big, (np.inf, np.inf, np.inf))
    # the raw cyclic square maps the all-large band pair to band 2 of 3
    raw = build_latin_region(cyclic_latin(3), 1.0 / 3.0)
    assert not rejects3(raw, (np.inf, np.inf, np.inf))
    assert rejects3(raw, (np.inf, np.inf, 0.7))


def test_non_finite_contract():
    region = build_latin_region(normalize_corner(cyclic_latin(3)).square, 1.0 / 3.0)
    for axis in range(3):
        z = [0.5, 0.5, 0.5]
        z[axis] = float("nan")
        with pytest.raises(ValueError, match="^test statistics must not be NaN$"):
            rejects3(region, z)
        for bad in (float("nan"), np.inf, -np.inf):
            d = [1.0, 1.0, 1.0]
            d[axis] = bad
            with pytest.raises(ValueError, match="mean must be finite"):
                analytic_power3(region, d)


def test_triples_of_the_wrong_length_name_the_count():
    region = build_latin_region(normalize_corner(cyclic_latin(3)).square, 1.0 / 3.0)
    for z, got in (((0.5, 0.5), 2), ((0.5, 0.5, 0.5, 0.5), 4), (np.ones(4), 4)):
        with pytest.raises(ValueError, match=f"^z must hold 3 values, got {got}$"):
            rejects3(region, z)
        with pytest.raises(ValueError, match=f"^mean must hold 3 values, got {got}$"):
            analytic_power3(region, z)
    # an array row and a generator are triples too
    assert rejects3(region, np.array([0.7, 0.2, 1.5])) == rejects3(region, (0.7, 0.2, 1.5))
    assert rejects3(region, (v for v in (0.7, 0.2, 1.5)))


def test_grid_cap_refuses_hand_built_boxes_before_allocating():
    # 130 disjoint diagonal boxes give each axis 0, inf and 260 edges: 261^3 = 17.8M cells
    boxes = [(Interval(k, k + 0.5),) * 3 for k in range(1, 131)]
    tracemalloc.start()
    try:
        with pytest.raises(RegionValidationError, match=r"^grid of 261 x 261 x 261 = 17779581 "
                                                        r"cells exceeds the limit"):
            RejectionRegion3D(0.5, boxes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_overlap_names_both_boxes():
    iv = Interval
    first = (iv(3.0, 4.0), iv(0.0, 1.0), iv(0.0, 1.0))
    a = (iv(0.0, 1.0), iv(0.2, 1.2), iv(0.0, 2.0))
    b = (iv(0.5, 1.5), iv(0.1, 0.7), iv(0.3, 0.9))
    with pytest.raises(ValueError, match="boxes overlap") as info:
        RejectionRegion3D(0.5, [first, a, b])
    assert str(info.value) == f"boxes overlap: {a} and {b}"

    touching = [(iv(0.0, 1.0), iv(0.0, 1.0), iv(0.0, 1.0)),
                (iv(1.0, 2.0), iv(0.0, 1.0), iv(0.0, 1.0)),
                (iv(0.0, 1.0), iv(1.0, np.inf), iv(0.0, 1.0)),
                (iv(0.5, 0.5), iv(0.0, 1.0), iv(0.0, 1.0))]
    assert len(RejectionRegion3D(0.5, touching).boxes) == 4


def test_overlap_check_matches_pair_scan():
    rng = np.random.Generator(np.random.Philox(71))
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, np.inf]
    raised = 0
    for _ in range(300):
        boxes = []
        for _ in range(int(rng.integers(2, 5))):
            box = []
            for _ in range(3):
                lo, hi = sorted(rng.choice(len(grid), size=2))
                box.append(Interval(grid[lo], grid[hi]))
            boxes.append(tuple(box))
        if _scan_overlaps(boxes):
            raised += 1
            with pytest.raises(ValueError, match="boxes overlap"):
                RejectionRegion3D(0.5, boxes)
        else:
            RejectionRegion3D(0.5, boxes)
    assert 0 < raised < 300


def test_large_order_is_similar():
    # 10^4 boxes: the band tensor builds in O(K^2) slice writes, where a
    # pairwise overlap scan would make ~5e7 box-pair tests
    k = 100
    region = build_latin_region(normalize_corner(cyclic_latin(k)).square, 1.0 / k)
    assert len(region.boxes) == k * k
    for point in ((0.0, 1.3, 2.9), (0.4, 0.0, 3.5), (2.2, 0.01, 0.0)):
        assert abs(analytic_power3(region, point) - 1.0 / k) <= 1e-12
    assert rejects3(region, (np.inf, np.inf, np.inf))


@pytest.mark.parametrize("bad", [True, 2.5, "3"])
def test_order_must_be_an_integer(bad):
    for make in (cyclic_latin, lambda k: LatinSquare(k, ((1,),))):
        with pytest.raises(ValueError) as err:
            make(bad)
        assert str(err.value) == f"order must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match="invalid square document: order must be an integer"):
        square_from_json(json.dumps({"order": bad, "grid": [[1]]}))
    assert cyclic_latin(np.int64(3)) == cyclic_latin(3)


@pytest.mark.parametrize("k", [2, 3, 5, 20])
def test_written_tensor_equals_compiled(k):
    # the box compiler is the reference for the tensor build_latin_region writes
    for sq in (cyclic_latin(k), normalize_corner(cyclic_latin(k)).square):
        region = build_latin_region(sq, 1.0 / k)
        compiled = RejectionRegion3D(1.0 / k, region.boxes)
        assert region == compiled
        assert region.boxes == compiled.boxes
        assert all(isinstance(iv, Interval) for box in region.boxes for iv in box)
        for written, ref in zip(region._edges + (region._label,),
                                compiled._edges + (compiled._label,)):
            assert written.dtype == ref.dtype and np.array_equal(written, ref)
            assert not written.flags.writeable
        assert region._inner == compiled._inner


def _uneven_regions():
    # hand-built regions whose three axes have different edge counts
    iv = Interval
    yield _gapped_region()
    yield RejectionRegion3D(0.2, [(iv(0.5, 1.0), iv(0.0, np.inf), iv(0.3, 0.6))])
    yield RejectionRegion3D(0.2, [
        (iv(0.0, 0.1), iv(0.0, 2.0), iv(0.0, np.inf)),
        (iv(0.1, 0.2), iv(0.5, 0.75), iv(0.0, 1.0)),
        (iv(0.2, 0.3), iv(0.0, 0.5), iv(1.0, 1.5)),
        (iv(0.3, 3.0), iv(2.0, 2.5), iv(0.0, 0.25)),
    ])


def test_power_bits_match_per_axis_reference():
    regions = [build_latin_region(normalize_corner(cyclic_latin(k)).square, 1.0 / k)
               for k in (2, 3, 5, 20)]
    regions += _uneven_regions()
    assert all(len({e.size for e in r._edges}) > 1 for r in regions[4:])
    rng = np.random.Generator(np.random.Philox(3030))
    shifts = rng.normal(scale=2.5, size=(60, 3))
    shifts[:12] = 0.0
    shifts[:12, :2] = rng.uniform(-4.0, 4.0, size=(12, 2))
    shifts[12:16] = [[40.0, -40.0, 0.5], [-1e-300, 0.0, 2.0], [8.0, 8.0, 8.0], [-0.0, 1.0, 1.0]]
    for region in regions:
        for d in shifts:
            got = analytic_power3(region, d)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(_reference_power3(region, d)).tobytes()


def test_power_keeps_its_membership_and_lookups_do_not_build_it():
    k = 60
    tensor = 8 * k ** 3  # bytes of one K^3 float tensor
    tracemalloc.start()
    try:
        region = build_latin_region(normalize_corner(cyclic_latin(k)).square, 1.0 / k)
        built = tracemalloc.get_traced_memory()[1]  # the int64 label tensor and the boxes
        assert rejects3(region, (1.0, 2.0, 3.0)) in (True, False)
        tracemalloc.reset_peak()
        first = analytic_power3(region, (0.5, 1.0, 1.5))
        first_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        again = analytic_power3(region, (0.5, 1.0, 1.5))
        later = analytic_power3(region, (2.0, 0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert built < 1.5 * tensor  # no float membership beside the label tensor
    assert first_peak >= tensor  # the first power call builds it once
    assert peak < tensor / 16  # later calls reuse it
    assert again == first and later == 1.0 / k
