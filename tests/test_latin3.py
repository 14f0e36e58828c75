"""Three-factor regions built from Latin squares."""

import hashlib
import itertools
import json
import time
import tracemalloc

import numpy as np
import pytest

from compnull.closed_form import extended_breakpoints
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
    assert cyclic_latin(2).grid.tolist() == [[1, 2], [2, 1]]
    assert cyclic_latin(3).grid.tolist() == [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
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
    # the limit is on the K x K square alone, not on the level limit of build_latin_region
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
    # an integer array is copied: the caller's array stays theirs, the square's is read-only
    mine = np.array([[1, 2], [2, 1]])
    sq = LatinSquare(2, mine)
    before = hash(sq)
    mine[:] = [[2, 1], [1, 2]]
    assert sq == cyclic_latin(2) and hash(sq) == before and sq.grid.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        sq.grid[0, 0] = 2
    for shape in ((2, 3), (3, 3), (4,), (2, 2, 1)):
        with pytest.raises(ValueError) as err:
            LatinSquare(2, np.ones(shape, dtype=np.int64))
        assert str(err.value) == "grid must be 2x2"


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
    # numpy integers are symbols; the square reads them back as ints
    square = LatinSquare(2, ((np.uint8(1), np.int64(2)), (2, np.uint64(1))))
    assert square == cyclic_latin(2) and type(square[2, 2]) is int
    # arrays follow the same rule: bool and float arrays are refused, unsigned ones taken
    for grid, shown in ((np.array([[True, False], [False, True]]), "np.True_"),
                        (np.array([[1.0, 2.0], [2.0, 1.0]]), "np.float64(1.0)")):
        with pytest.raises(ValueError) as err:
            LatinSquare(2, grid)
        assert str(err.value) == f"symbol must be an integer, got {shown}"
    for dtype in (np.uint8, np.uint64):
        square = LatinSquare(2, np.array([[1, 2], [2, 1]], dtype=dtype))
        assert square == cyclic_latin(2) and square.grid.dtype == np.int64
    with pytest.raises(ValueError, match="row 2 is not a permutation of 1..2"):
        LatinSquare(2, np.array([[1, 2], [2, 2**64 - 1]], dtype=np.uint64))
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
    assert conjugate(a, (np.int64(1), np.uint8(3), 2)) == b


def test_conjugate_refuses_non_integer_entries():
    # each of these once gave a conjugate, its entries truncated by int()
    a = cyclic_latin(3)
    for perm, shown in (((1, 2, 3.7), "3.7"), ((True, 2, 3), "True"), (("1", "3", "2"), "'1'"),
                        ((1.0, 2, 3), "1.0")):
        with pytest.raises(ValueError) as err:
            conjugate(a, perm)
        assert str(err.value) == f"perm entry must be an integer, got {shown}"


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
    assert fixed.square.grid.tolist() == [[1, 3, 2], [3, 2, 1], [2, 1, 3]]
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
    # folded ladder's order limit (2K)^2 <= 2^23; only then is K compared with
    # the square's order
    with pytest.raises(ValueError, match=r"^alpha=0.4 must be 1/K for an integer order K$"):
        build_latin_region(cyclic_latin(2), 0.4)
    with pytest.raises(RegionValidationError, match=r"^grid of 2898 x 2898 = 8398404 "):
        build_latin_region(cyclic_latin(2), 1 / 1449)
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
    with pytest.raises(ValueError, match="alpha"):
        build_latin_region(cyclic_latin(2), 1.0)
    # a square is the only way in: the class takes no boxes
    band = Interval(0.0, 1.0)
    with pytest.raises(TypeError):
        RejectionRegion3D(0.5, [(band, band, band)])
    ok = build_latin_region(cyclic_latin(2), 0.5)
    with pytest.raises(ValueError, match="NaN"):
        rejects3(ok, (float("nan"), 0.5, 0.5))


def test_square_json_round_trip():
    a = normalize_corner(cyclic_latin(5)).square
    assert square_from_json(square_to_json(a)) == a
    # the sha256 of these documents as written when the grid was a tuple of tuples
    digest = hashlib.sha256()
    for k in (1, 2, 3, 20, 203):
        c = cyclic_latin(k)
        for sq in (c, normalize_corner(c).square, conjugate(c, (2, 3, 1))):
            digest.update(square_to_json(sq).encode() + b"\n")
    assert digest.hexdigest() == "8ddaad939468cacee30b2632d439426614f7cf2ab90bb7294f94b3d6fb295ab4"
    with pytest.raises(ValueError, match="invalid square document"):
        square_from_json("{not json")
    with pytest.raises(ValueError, match="'order' and 'grid'"):
        square_from_json('{"order": 2}')
    with pytest.raises(ValueError, match="invalid square document"):
        square_from_json('{"order": 2, "grid": [[1, 2], [1, 2]]}')


# -- box scans and the K^3 contraction, kept as oracles ----------------------

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


def _box_tensor(region):
    """Each axis's band edges and the float membership of every grid cell, painted
    from the boxes."""
    edges = [np.array(e) for e in _axis_edges(region)]
    member = np.zeros([len(e) - 1 for e in edges])
    for box in region.boxes:
        member[tuple(slice(*np.searchsorted(e, (iv.lo, iv.hi))) for e, iv in zip(edges, box))] = 1.0
    return edges, member


def _reference_power3(edges, member, d):
    """Each axis's folded masses from its own _band_masses call, contracted with
    the K^3 membership tensor."""
    gx, gy, gz = (_band_masses(e, mu, folded=True) for e, mu in zip(edges, d))
    return min(1.0, max(0.0, float(member @ gz @ gy @ gx)))


@pytest.mark.parametrize("k", [2, 3, 5, 20])
def test_band_tensor_matches_box_scan(k):
    for seed, sq in enumerate((cyclic_latin(k), normalize_corner(cyclic_latin(k)).square)):
        region = build_latin_region(sq, 1.0 / k)
        _assert_lookup_matches_scan(region, 40 * k + seed)
        _assert_power_matches_boxes(region, 50 * k + seed)


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


def test_large_order_is_similar():
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
def test_boxes_equality_and_hash_follow_the_square(k):
    c = extended_breakpoints(1.0 / k)
    for sq in (cyclic_latin(k), normalize_corner(cyclic_latin(k)).square):
        region = build_latin_region(sq, 1.0 / k)
        want = tuple((Interval(c[i - 1], c[i]), Interval(c[j - 1], c[j]),
                      Interval(c[sq[i, j] - 1], c[sq[i, j]]))
                     for i in range(1, k + 1) for j in range(1, k + 1))
        assert region.boxes == want
        assert all(type(iv.lo) is float for box in region.boxes for iv in box)
        again = build_latin_region(LatinSquare(k, sq.grid), 1.0 / k)
        assert region == again and hash(region) == hash(again)
        assert repr(region) == f"RejectionRegion3D(alpha={1.0 / k!r}, boxes=<{k * k}>)"
    flipped = LatinSquare(k, cyclic_latin(k).grid[::-1])
    assert build_latin_region(cyclic_latin(k), 1.0 / k) != build_latin_region(flipped, 1.0 / k)


def test_power_bits_match_per_axis_reference():
    rng = np.random.Generator(np.random.Philox(3030))
    shifts = rng.normal(scale=2.5, size=(60, 3))
    shifts[:12] = 0.0
    shifts[:12, :2] = rng.uniform(-4.0, 4.0, size=(12, 2))
    shifts[12:16] = [[40.0, -40.0, 0.5], [-1e-300, 0.0, 2.0], [8.0, 8.0, 8.0], [-0.0, 1.0, 1.0]]
    for k in (2, 3, 5, 20):
        for sq in (cyclic_latin(k), normalize_corner(cyclic_latin(k)).square):
            region = build_latin_region(sq, 1.0 / k)
            edges, member = _box_tensor(region)
            for d in shifts:
                got = analytic_power3(region, d)
                assert type(got) is float
                want = _reference_power3(edges, member, d)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_order_203_region_stays_small():
    # one K^3 float tensor alone would be 8 * 203^3 bytes = 63.8 MiB
    tracemalloc.start()
    try:
        region = build_latin_region(normalize_corner(cyclic_latin(203)).square, 1 / 203)
        assert rejects3(region, (1.0, 2.0, 3.0)) in (True, False)
        null = analytic_power3(region, (0.5, 0.0, 1.5))
        alternative = analytic_power3(region, (2.0, 3.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert abs(null - 1 / 203) <= 1e-12 and 1 / 203 < alternative < 1.0


def test_order_1448_region_stays_small():
    # a square held as tuples of ints peaked at 185.7 MiB on this path; the array is 16 MiB
    k = 1448
    tracemalloc.start()
    try:
        square = normalize_corner(cyclic_latin(k)).square
        region = build_latin_region(square, 1 / k)
        assert rejects3(region, (np.inf, np.inf, np.inf))
        null = analytic_power3(region, (0.5, 0.0, 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert abs(null - 1 / k) <= 1e-12
    again = square_from_json(square_to_json(square))
    assert again == square and hash(again) == hash(square)
