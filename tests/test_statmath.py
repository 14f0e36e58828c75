"""Normal-distribution primitives against frozen high-precision references.

Reference constants come from tests/oracles/compute_references.py (mpmath at
50 digits); they are frozen here so the suite never depends on mpmath.
"""

import math

import pytest

from compnull import (AlphaSpec, Interval, RejectionRegion2D, RejectionRegion3D, SimSpec,
                      build_extended_region, build_js_region, build_latin_region, build_lp,
                      cyclic_latin, folded_interval_prob, gaussian_interval_prob, js_test,
                      origin_type1, sobel_test, std_normal_cdf, std_normal_quantile)

Q_975 = 1.9599639845400542
Q_995 = 2.5758293035489008
Q_08 = 0.84162123357291421
Q_5_7 = 0.56594882193286305
CDF_1 = 0.84134474606854295
CDF_M35 = 0.00023262907903552504
FOLDED_12_MU05 = 0.30232787340021076


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
    assert iv.mirrored() == Interval(-2.5, 1.0)
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


def test_every_level_check_gives_one_message():
    checks = [
        lambda a: RejectionRegion2D(a, "custom", []),
        AlphaSpec.from_alpha,
        build_extended_region,
        build_js_region,
        origin_type1,
        lambda a: js_test((1.0, 1.0), a),
        lambda a: sobel_test(0.1, 0.2, 1.0, 1.0, 10, a),
        lambda a: RejectionRegion3D(a, []),
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
