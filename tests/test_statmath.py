"""Normal-distribution primitives against frozen high-precision references.

Reference constants come from tests/oracles/compute_references.py (mpmath at
50 digits) and are frozen here; the band-mass test, which spans many shifts,
computes its oracle with mpmath (a test dependency) at 40 digits.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from compnull import (Interval, RejectionRegion2D, SimSpec,
                      build_extended_region, build_js_region, build_latin_region, build_lp,
                      build_minimax_region, cyclic_latin, extended_breakpoints,
                      folded_interval_prob, gaussian_interval_prob, js_test,
                      origin_type1, sobel_test, std_normal_cdf, std_normal_quantile)
from compnull.statmath import _band_masses, _ndtr, _two_sided_cutoff

Q_975 = 1.9599639845400542
Q_995 = 2.5758293035489008
Q_08 = 0.84162123357291421
Q_5_7 = 0.56594882193286305
CDF_1 = 0.84134474606854295
CDF_M35 = 0.00023262907903552504
FOLDED_12_MU05 = 0.30232787340021076
# Minimax ladder quantiles at the double nearest (K+j)/(2K)
LADDER_Q = {201 / 400: 0.0062666117017503349, 203 / 400: 0.018800819591187534,
            101 / 200: 0.012533469508069274}


def test_cdf_frozen_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(1.0) == pytest.approx(CDF_1, abs=1e-15)
    assert std_normal_cdf(-3.5) == pytest.approx(CDF_M35, rel=1e-13)


def test_cdf_limits_and_nan():
    assert std_normal_cdf(math.inf) == 1.0
    assert std_normal_cdf(-math.inf) == 0.0
    with pytest.raises(ValueError):
        std_normal_cdf(math.nan)


def test_quantile_frozen_values():
    assert std_normal_quantile(0.975) == pytest.approx(Q_975, abs=1e-14)
    assert std_normal_quantile(0.995) == pytest.approx(Q_995, abs=1e-14)
    assert std_normal_quantile(0.8) == pytest.approx(Q_08, abs=1e-14)
    assert std_normal_quantile(5.0 / 7.0) == pytest.approx(Q_5_7, abs=1e-14)


def test_scalar_and_array_cdf_agree_bitwise():
    xs = np.concatenate((np.linspace(-40.0, 40.0, 80_001),
                         np.random.default_rng(7).uniform(-40.0, 40.0, 20_000)))
    scalar = np.array([std_normal_cdf(x) for x in xs.tolist()])
    assert scalar.tobytes() == _ndtr(xs).tobytes()


def test_quantile_on_the_ladder_within_four_ulps():
    # near 1/2 the quantile is small, so its ulp is fine-grained there
    for p, ref in LADDER_Q.items():
        assert abs(std_normal_quantile(p) - ref) <= 4 * math.ulp(ref), p


def test_quantile_edges():
    assert std_normal_quantile(0.0) == -math.inf
    assert std_normal_quantile(1.0) == math.inf
    assert std_normal_quantile(0.5) == 0.0
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)


def test_quantile_exact_antisymmetry():
    # for p >= 1/2 the subtraction 1-p is exact, so the identity is bitwise;
    # the ladder builders rely on negation, never on re-evaluating at 1-p
    for p in (0.5, 0.501, 0.7, 0.9, 0.975, 0.999):
        assert std_normal_quantile(1.0 - p) == -std_normal_quantile(p)


def _neighbours(p: float, steps: int = 64) -> np.ndarray:
    """``p`` and the ``steps`` doubles on each side of it."""
    out = [p]
    lo = hi = p
    for _ in range(steps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return np.array(out)


def test_quantile_matches_scipy_ndtri_bit_for_bit():
    # std_normal_quantile is a port of Cephes ndtri, so it must give the bits
    # of scipy.special.ndtri everywhere: deep tails, the branch edges at
    # exp(-2) and 1 - exp(-2), the switch of tail coefficients where
    # x = sqrt(-2 log y) crosses 8 (y = exp(-32), on both sides), and every
    # minimax ladder point (K + j) / (2K) for K <= 1000
    rng = np.random.default_rng(20210)
    edges = [math.exp(-2.0), 0.13533528323661269189, 1.0 - math.exp(-2.0),
             1.0 - 0.13533528323661269189, math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5]
    ladder = [(k + j) / (2 * k) for k in range(1, 1001) for j in range(1, k + 1)]
    ps = np.concatenate((
        rng.uniform(0.0, 1.0, 100_000),
        10.0 ** -rng.uniform(0.0, 323.3, 100_000),  # log-uniform down to 5e-324
        1.0 - 10.0 ** -rng.uniform(0.0, 17.0, 50_000),  # next to 1
        *[_neighbours(p) for p in edges],
        ladder,
        [0.0, 5e-324, 2.2250738585072014e-308, 1.0 - 2.0 ** -53, 1.0],
    ))
    ps = ps[(ps >= 0.0) & (ps <= 1.0)]
    ours = np.array([std_normal_quantile(p) for p in ps.tolist()])
    bad = np.flatnonzero(ours.view(np.int64) != ndtri(ps).view(np.int64))
    assert bad.size == 0, f"{bad.size} of {ps.size} differ, first at p={ps[bad[0]]!r}"


def test_two_sided_cutoff_is_minus_ndtri_of_half_alpha():
    rng = np.random.default_rng(20211)
    alphas = np.concatenate((
        rng.uniform(0.0, 1.0, 20_000),
        10.0 ** -rng.uniform(0.0, 300.0, 20_000),
        1.0 / np.arange(1, 1001),
        np.linspace(0.001, 0.999, 999),
        _neighbours(2.0 * math.exp(-2.0)),
        _neighbours(2.0 * math.exp(-32.0)),
    ))
    alphas = alphas[(alphas > 0.0) & (alphas < 1.0)]
    ours = np.array([_two_sided_cutoff(a) for a in alphas.tolist()])
    assert ours.tobytes() == (-ndtri(alphas / 2.0)).tobytes()


def test_cdf_quantile_round_trip():
    for j in range(1, 2000):
        p = j / 2000.0
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=2e-15)
    # upper-tail x is capped: double spacing of p near 1 limits recoverable x
    for x in (-8.0, -5.5, -2.0, -0.3, 0.7, 4.1):
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, rel=1e-11)


def test_interval_validation():
    iv = Interval(-1.0, 2.5)
    assert iv.contains(0.0) and not iv.contains(-1.0) and not iv.contains(2.5)
    Interval(3.0, 3.0)  # degenerate allowed, contains nothing
    assert not Interval(3.0, 3.0).contains(3.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)


def test_gaussian_interval_prob():
    assert gaussian_interval_prob(Interval(-math.inf, math.inf), 3.3) == 1.0
    assert gaussian_interval_prob(Interval(0.0, math.inf), 0.0) == pytest.approx(0.5)
    # quantile-bounded interval mass is the probability difference exactly
    iv = Interval(std_normal_quantile(0.025), std_normal_quantile(0.05))
    assert gaussian_interval_prob(iv, 0.0) == pytest.approx(0.025, abs=1e-15)
    with pytest.raises(ValueError):
        gaussian_interval_prob(Interval(0.0, 1.0), math.inf)


def test_folded_interval_prob():
    assert folded_interval_prob(Interval(1.0, 2.0), 0.5) == pytest.approx(
        FOLDED_12_MU05, abs=1e-15)
    # folding at mu=0 doubles the one-sided mass
    one_sided = gaussian_interval_prob(Interval(1.0, 2.0), 0.0)
    assert folded_interval_prob(Interval(1.0, 2.0), 0.0) == pytest.approx(
        2.0 * one_sided, abs=1e-15)
    assert folded_interval_prob(Interval(0.0, math.inf), 1.7) == 1.0
    with pytest.raises(ValueError):
        folded_interval_prob(Interval(-0.5, 1.0), 0.0)


def _mp_band_masses(edges, d, folded):
    """N(d, 1) band masses of the float edges, exact to 40 digits."""
    with mpmath.workdps(40):
        cdf = [mpmath.ncdf(mpmath.mpf(e) - mpmath.mpf(d)) for e in edges]
        masses = [hi - lo for lo, hi in zip(cdf, cdf[1:])]
        if folded:
            cdf = [mpmath.ncdf(-mpmath.mpf(e) - mpmath.mpf(d)) for e in edges]
            masses = [m + lo - hi for m, lo, hi in zip(masses, cdf, cdf[1:])]
        return [float(m) for m in masses]


@pytest.mark.parametrize("folded", [False, True])
def test_band_masses_match_mpmath(folded):
    if folded:  # the folded ladder of the level-1/20 extended region, from 0 to inf
        edges = np.array(extended_breakpoints(1.0 / 20.0))
    else:
        edges = np.array([-math.inf, -6.0, -2.5, -0.3, 0.0, 0.7, 1.96, 3.0, 8.5, math.inf])
    shifts = np.array([0.0, 0.3, -0.3, 5.0, -5.0, 38.0, -38.0])
    got = _band_masses(edges, shifts, folded=folded)
    assert got.shape == (len(shifts), len(edges) - 1)
    for row, d in zip(got, shifts.tolist()):
        assert np.abs(row - _mp_band_masses(edges.tolist(), d, folded)).max() <= 1e-15
        # a scalar shift gives the same row as a 1-d array
        assert _band_masses(edges, d, folded=folded).tobytes() == row.tobytes()


def test_every_level_check_gives_one_message():
    checks = [
        lambda a: RejectionRegion2D(a, "custom", []),
        build_minimax_region,
        build_extended_region,
        build_js_region,
        origin_type1,
        lambda a: js_test((1.0, 1.0), a),
        lambda a: sobel_test(0.1, 0.2, 1.0, 1.0, 10, a),
        lambda a: build_latin_region(cyclic_latin(2), a),
        lambda a: build_lp(a, 4),
        lambda a: SimSpec(("js",), ((0.0, 0.0),), 10, 10, 0, a),
    ]
    for bad, shown in ((0.0, "0.0"), (1, "1.0"), (-0.2, "-0.2"), (1.5, "1.5"),
                       (math.nan, "nan"), (math.inf, "inf")):
        for check in checks:
            with pytest.raises(ValueError) as err:
                check(bad)
            assert str(err.value) == f"alpha must lie in (0, 1), got {shown}"
    assert SimSpec(("js",), ((0.0, 0.0),), 10, 10, 0, 0.25).alpha == 0.25
