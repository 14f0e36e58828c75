"""Regression fitting, standardization, and CSV intake."""

import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from compnull.mediation import (
    DataError,
    FitResult,
    MediationDataset,
    OlsFit,
    _r_factor,
    fit_ols,
    load_csv,
    product_method_stats,
    standardize_pair,
)

# exact rational least squares for x = (-2,-1,0,1,3),
# y = (-3.1,-0.9,0.2,1.8,5.2) against [1, x]:
# beta = (47/148, 1193/740), sigma2 = 557/7400,
# cov = sigma2 * (X'X)^-1 = [[1671/109520, -557/547600],
#                            [-557/547600, 557/109520]]
OLS5_X = (-2.0, -1.0, 0.0, 1.0, 3.0)
OLS5_Y = (-3.1, -0.9, 0.2, 1.8, 5.2)
OLS5_B0 = 0.31756756756756754
OLS5_B1 = 1.6121621621621622
OLS5_SIGMA2 = 0.07527027027027026
OLS5_COV00 = 0.015257487216946676
OLS5_COV01 = -0.0010171658144631118
OLS5_COV11 = 0.005085829072315559


def _simulated(n, seed, *, dy=0.3, dx=0.7, theta_am=0.0):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal(n)
    m = 0.4 + dy * a + rng.standard_normal(n)
    y = 1.0 + 0.5 * a + dx * m + theta_am * a * m + rng.standard_normal(n)
    return MediationDataset(y, a, m, np.empty((n, 0)))


def test_fit_ols_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    fit = fit_ols(np.column_stack([np.ones(5), x]), 2.0 * x)
    assert fit.beta == pytest.approx([0.0, 2.0], abs=1e-13)
    assert fit.sigma2 < 1e-24
    assert fit.n == 5


def test_fit_ols_hand_dataset():
    x = np.asarray(OLS5_X)
    fit = fit_ols(np.column_stack([np.ones(5), x]), np.asarray(OLS5_Y))
    assert fit.beta[0] == pytest.approx(OLS5_B0, rel=1e-12)
    assert fit.beta[1] == pytest.approx(OLS5_B1, rel=1e-12)
    assert fit.sigma2 == pytest.approx(OLS5_SIGMA2, rel=1e-12)
    assert fit.cov[0, 0] == pytest.approx(OLS5_COV00, rel=1e-12)
    assert fit.cov[0, 1] == pytest.approx(OLS5_COV01, rel=1e-12)
    assert fit.cov[1, 0] == pytest.approx(OLS5_COV01, rel=1e-12)
    assert fit.cov[1, 1] == pytest.approx(OLS5_COV11, rel=1e-12)


def test_fit_ols_matches_lstsq_route():
    rng = np.random.Generator(np.random.Philox(21))
    x = rng.standard_normal((50, 4))
    y = rng.standard_normal(50)
    fit = fit_ols(x, y)
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (50 - 4)
    cov = sigma2 * np.linalg.inv(x.T @ x)
    assert np.max(np.abs(fit.beta - beta)) < 1e-10
    assert np.max(np.abs(fit.cov - cov)) < 1e-10
    assert fit.sigma2 == pytest.approx(sigma2, rel=1e-12)


def test_fit_ols_names_collinear_columns():
    x = np.linspace(0.0, 1.0, 9)
    design = np.column_stack([np.ones(9), x, 2.0 * x])
    with pytest.raises(DataError, match="collinear columns"):
        fit_ols(design, x, ["intercept", "left", "right"])
    with pytest.raises(DataError) as err:
        fit_ols(design, x, ["intercept", "left", "right"])
    assert "left" in str(err.value) or "right" in str(err.value)


def _hypot_reduce_dependent(xy):
    # the rank rule as one np.hypot.reduce over the lower triangle of
    # QR's raw output: design column j depends on columns :j when
    # |R[j, j]| <= max(n, p)*eps*||R[:j+1, j]||
    n, q = xy.shape
    p = q - 1
    h = np.linalg.qr(xy, mode="raw")[0]
    norms = np.hypot.reduce(np.where(np.tri(p, dtype=bool), h[:p, :p], 0.0), axis=1)
    dependent = np.abs(h.diagonal()[:p]) <= max(n, p) * np.finfo(float).eps * norms
    return [f"x{j}" for j in np.flatnonzero(dependent)]


def _named_dependent(xy):
    try:
        _r_factor(xy, [f"x{j}" for j in range(xy.shape[1] - 1)])
    except DataError as err:
        return str(err).split("collinear columns: ")[1].split(", ")
    return []


@pytest.mark.parametrize("scales", ["1", "1e300", "1e-300", "1e+-300"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_rank_rule_matches_the_hypot_reduce_oracle(k, scales):
    # [1, c, a, m, y] with m = a + t*noise, and for k = 3 the last covariate
    # also its first plus t*noise: t sweeps across the max(n, p)*eps
    # threshold, so both rules must name the same columns on each side of it
    rng = np.random.Generator(np.random.Philox(59))
    n = 40
    c, a, noise, y = rng.standard_normal((n, k)), *rng.standard_normal((3, n))
    col_scale = {"1": np.ones(k + 4), "1e300": np.full(k + 4, 1e300),
                 "1e-300": np.full(k + 4, 1e-300),
                 "1e+-300": 10.0 ** rng.choice([-300.0, 300.0], k + 4)}[scales]
    seen = set()
    for t in [0.0, *np.geomspace(1e-17, 1e-11, 73)]:
        cols = [np.ones(n), *c.T, a, a + t * noise, y]
        if k == 3:
            cols[3] = cols[1] + t * noise[::-1]
        xy = np.asfortranarray(np.column_stack(cols) * col_scale)
        want = _hypot_reduce_dependent(xy)
        assert _named_dependent(xy) == want, t
        seen.add(len(want))
    assert seen == ({0, 1, 2} if k == 3 else {0, 1})


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_fit_ols_takes_columns_whose_squares_overflow(scale):
    # the rank test's column norms must not overflow: the column is not
    # named collinear, only its variance (near 1/scale**2) leaves the range
    rng = np.random.Generator(np.random.Philox(53))
    z = rng.standard_normal(40)
    y = 1.0 + 2.0 * z + rng.standard_normal(40)
    with pytest.raises(DataError, match="variance underflows; columns: x1$"):
        fit_ols(np.column_stack([np.ones(40), scale * z]), y)
    with pytest.raises(DataError, match="collinear columns: right$"):
        fit_ols(np.column_stack([np.ones(40), scale * z, 2.0 * scale * z]), y,
                ["intercept", "left", "right"])


def test_fit_ols_names_a_column_whose_variance_overflows():
    # a column scaled by 1e-300 has a coefficient near 1e300 and a variance
    # near 1e600, past the float range: it is named instead of returned as inf
    rng = np.random.Generator(np.random.Philox(53))
    z = rng.standard_normal(40)
    y = 1.0 + 2.0 * z + rng.standard_normal(40)
    with pytest.raises(DataError, match="variance overflows; columns: tiny$"):
        fit_ols(np.column_stack([np.ones(40), 1e-300 * z]), y, ["intercept", "tiny"])
    fit = fit_ols(np.column_stack([np.ones(40), 1e-150 * z]), y)
    assert np.isfinite(fit.cov).all() and fit.cov[1, 1] > 1e298


def test_fit_ols_names_a_column_whose_variance_underflows():
    # a column scaled by s has its coefficient scaled by 1/s and its
    # variance by 1/s**2, which is subnormal or zero from s ~ 1e154 on
    rng = np.random.Generator(np.random.Philox(53))
    z = rng.standard_normal(40)
    y = 1.0 + 2.0 * z + rng.standard_normal(40)
    base = fit_ols(np.column_stack([np.ones(40), z]), y)
    for scale in (1e200, 1e300):
        with pytest.raises(DataError, match="variance underflows; columns: big$"):
            fit_ols(np.column_stack([np.ones(40), scale * z]), y, ["intercept", "big"])
    fit = fit_ols(np.column_stack([np.ones(40), 1e150 * z]), y)
    assert fit.beta[0] == pytest.approx(base.beta[0], rel=1e-12)
    assert fit.beta[1] * 1e150 == pytest.approx(base.beta[1], rel=1e-12)
    assert fit.cov[1, 1] * 1e300 == pytest.approx(base.cov[1, 1], rel=1e-12)
    # squares of the column overflow, yet a response as large keeps the
    # variance in range: the column norms of the rank test must not overflow
    fit = fit_ols(np.column_stack([np.ones(40), 1e160 * z]), 1e20 * y)
    assert fit.beta[1] * 1e140 == pytest.approx(base.beta[1], rel=1e-12)
    assert fit.cov[1, 1] * 1e280 == pytest.approx(base.cov[1, 1], rel=1e-12)
    # a zero residual gives zero variances at any scale
    assert not fit_ols(np.column_stack([np.ones(40), 1e200 * z]), np.zeros(40)).cov.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_ols_refuses_a_residual_variance_that_overflows():
    # RSS/(n - p) of a response near 1e200 is past the float range; it is
    # refused without a numpy warning. With the design unscaled, the
    # coefficient variances overflow first and keep naming their columns.
    rng = np.random.Generator(np.random.Philox(53))
    z = rng.standard_normal(40)
    y = 1.0 + 2.0 * z + rng.standard_normal(40)
    with pytest.raises(DataError, match="^residual variance overflows$"):
        fit_ols(np.column_stack([1e200 * np.ones(40), 1e200 * z]), 1e200 * y)
    with pytest.raises(DataError, match="^coefficient variance overflows; columns: x0, x1$"):
        fit_ols(np.column_stack([np.ones(40), z]), 1e200 * y)


def test_fit_ols_shape_validation():
    with pytest.raises(DataError, match="n > p"):
        fit_ols(np.ones((3, 3)), np.ones(3))
    with pytest.raises(DataError, match="n x p"):
        fit_ols(np.ones(5), np.ones(5))
    with pytest.raises(DataError, match="column_names"):
        fit_ols(np.ones((5, 1)), np.ones(5), ["a", "b"])


def _pivoted_qr_fit(design, response) -> OlsFit:
    """Reference least squares: column-pivoted QR of the design alone, with
    the RSS recomputed from residuals and the full covariance from R^-1."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    n, p = x.shape
    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    beta = np.empty(p)
    beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
    resid = y - x @ beta
    sigma2 = float(resid @ resid) / (n - p)
    rinv = scipy.linalg.solve_triangular(r, np.eye(p))
    cov = np.empty((p, p))
    cov[np.ix_(piv, piv)] = rinv @ rinv.T
    return OlsFit(beta, sigma2 * cov, sigma2, n)


def _two_regression_oracle(data, model, a_prime, a_dblprime):
    """(delta_x_hat, delta_y_hat, se_x, se_y, zx, zy) from two separate
    pivoted-QR fits, the mediator model and the outcome model."""
    n = data.n
    ones = np.ones(n)
    med = _pivoted_qr_fit(np.column_stack([ones, data.a, data.c]), data.m)
    inter = [data.a * data.m] if model == "interaction" else []
    out = _pivoted_qr_fit(np.column_stack([ones, data.a, data.m, *inter, data.c]),
                          data.y)
    w = np.zeros(len(out.beta))
    w[2] = 1.0
    scale = 1.0
    if inter:
        w[3] = a_prime
        scale = a_prime - a_dblprime
    dx = float(w @ out.beta)
    se_x = math.sqrt(n * float(w @ out.cov @ w))
    dy = float(med.beta[1]) * scale
    se_y = abs(scale) * math.sqrt(n * med.cov[1, 1])
    rn = math.sqrt(n)
    return dx, dy, se_x, se_y, rn * dx / se_x, rn * dy / se_y


def _scaled_design(rng, n, width, collinear):
    """Intercept plus width-1 normal columns and a response with O(1) signal
    and noise, then every column scaled by 10**U(-6, 6). With ``collinear``
    the last two columns are at condition number ~1e8 before scaling."""
    x = rng.standard_normal((n, width))
    x[:, 0] = 1.0
    if collinear:
        x[:, -1] = x[:, -2] + 1e-8 * rng.standard_normal(n)
    y = x @ rng.standard_normal(width) + rng.standard_normal(n)
    return x * 10.0 ** rng.uniform(-6.0, 6.0, width), y * 10.0 ** rng.uniform(-6.0, 6.0)


# Both routes are backward stable, so on well-posed designs they agree to
# ~eps times the condition number left after column scaling: 1e-10 leaves
# ~200x headroom (worst seen 4.9e-13 over 3300 designs). A column pair at
# condition kappa = 1e8 determines the fit only to ~kappa*eps*||y||/||resid||,
# so there the bound is 100 times that (worst seen 10 times it, 2100 designs).
@pytest.mark.parametrize("collinear", [False, True])
def test_fit_ols_matches_pivoted_qr_oracle(collinear):
    rng = np.random.Generator(np.random.Philox(31 + collinear))
    for n in (8, 40, 400, 5000):
        for width in (2, 4, 7):
            if n <= width or (collinear and width < 4):
                continue
            x, y = _scaled_design(rng, n, width, collinear)
            fit, ref = fit_ols(x, y), _pivoted_qr_fit(x, y)
            tol = 1e-10
            if collinear:
                resid = math.sqrt(ref.sigma2 * (n - width))
                tol = 100 * 1e8 * np.finfo(float).eps * np.linalg.norm(y) / resid
            # coefficients and covariances on the scale of their own SEs
            se = np.sqrt(np.diag(ref.cov))
            assert np.max(np.abs(fit.beta - ref.beta) / se) <= tol
            assert np.max(np.abs(fit.cov - ref.cov) / np.outer(se, se)) <= tol
            assert np.max(np.abs(np.sqrt(np.diag(fit.cov)) / se - 1.0)) <= tol
            assert fit.sigma2 == pytest.approx(ref.sigma2, rel=tol)
            assert fit.n == n


# With the collinear pair among the covariates, the a and m coefficients
# stay well determined: worst seen 1.4e-7 over 1800 fits, against 1e-5.
@pytest.mark.parametrize("collinear, tol", [(False, 1e-10), (True, 1e-5)])
def test_product_method_matches_two_regression_oracle(collinear, tol):
    rng = np.random.Generator(np.random.Philox(41 + collinear))
    for n in (8, 40, 400, 5000):
        for k in ((3,) if collinear else (0, 1, 3)):
            if n <= 6 + k:
                continue
            a = rng.standard_normal(n)
            c = rng.standard_normal((n, k))
            if collinear:
                c[:, 2] = c[:, 1] + 1e-8 * rng.standard_normal(n)
            m = 0.3 * a + c @ rng.standard_normal(k) + rng.standard_normal(n)
            y = 0.5 * a + 0.4 * m + c @ rng.standard_normal(k) + rng.standard_normal(n)
            scale = 10.0 ** rng.uniform(-6.0, 6.0, 3 + k)
            data = MediationDataset(scale[0] * y, scale[1] * a, scale[2] * m,
                                    scale[3:] * c)
            for model in ("main_effects", "interaction"):
                fit, pair = product_method_stats(data, model, 1.3, 0.2)
                dx, dy, se_x, se_y, zx, zy = _two_regression_oracle(data, model, 1.3, 0.2)
                rn = math.sqrt(n)
                assert abs(fit.delta_x_hat - dx) * rn / se_x <= tol
                assert abs(fit.delta_y_hat - dy) * rn / se_y <= tol
                assert fit.se_x == pytest.approx(se_x, rel=tol)
                assert fit.se_y == pytest.approx(se_y, rel=tol)
                assert abs(pair.zx - zx) <= tol * max(1.0, abs(zx))
                assert abs(pair.zy - zy) <= tol * max(1.0, abs(zy))


def _mp_ols(cols, response):
    """Coefficients, inverse Gram matrix and RSS of ``response`` on ``cols``
    by the normal equations in mpmath's working precision; the float64
    inputs convert exactly."""
    x = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in zip(*cols)])
    y = mpmath.matrix([mpmath.mpf(float(v)) for v in response])
    gram_inv = mpmath.inverse(x.T * x)
    beta = gram_inv * (x.T * y)
    resid = y - x * beta
    return beta, gram_inv, sum(e * e for e in resid)


def _mpmath_oracle(data, model, a_prime, a_dblprime):
    """(zx, zy, se_x, se_y, delta_x_hat, delta_y_hat) at 40 digits, from the
    two regressions fitted to the same float64 columns (a*m rounded as the
    library rounds it)."""
    n, ones = data.n, np.ones(data.n)
    with mpmath.workdps(40):
        med, med_inv, med_rss = _mp_ols([ones, data.a, *data.c.T], data.m)
        inter = [data.a * data.m] if model == "interaction" else []
        out_cols = [ones, data.a, data.m, *inter, *data.c.T]
        out, out_inv, out_rss = _mp_ols(out_cols, data.y)
        w = mpmath.matrix(len(out_cols), 1)
        w[2] = 1
        scale = mpmath.mpf(1)
        if inter:
            w[3] = mpmath.mpf(a_prime)
            scale = mpmath.mpf(a_prime) - mpmath.mpf(a_dblprime)
        dx = (w.T * out)[0]
        se_x = mpmath.sqrt(n * out_rss / (n - len(out_cols)) * (w.T * out_inv * w)[0])
        dy = med[1] * scale
        se_y = abs(scale) * mpmath.sqrt(n * med_rss / (n - 2 - data.c.shape[1]) * med_inv[1, 1])
        rn = mpmath.sqrt(n)
        return tuple(float(v) for v in (rn * dx / se_x, rn * dy / se_y, se_x, se_y, dx, dy))


def test_product_method_matches_mpmath_oracle():
    # every output within 1e-12 relative of a 40-digit oracle, or within
    # 1e-13 in Wald units where the value is near 0; the columns are scaled
    # by 10**U(-3, 3) and the levels run up to 2000 times a's scale, where
    # the interaction column is far from the contrast's direction
    rng = np.random.Generator(np.random.Philox(71))
    n = 30
    for k in (0, 1, 3):
        for _ in range(3):
            a = rng.standard_normal(n)
            c = rng.standard_normal((n, k))
            m = 0.3 * a + c @ rng.standard_normal(k) + rng.standard_normal(n)
            y = (0.5 * a + 0.4 * m + 0.2 * a * m + c @ rng.standard_normal(k)
                 + rng.standard_normal(n))
            scale = 10.0 ** rng.uniform(-3.0, 3.0, 3 + k)
            data = MediationDataset(scale[0] * y, scale[1] * a, scale[2] * m, scale[3:] * c)
            runs = [("main_effects", 1.0, 0.0)] + [
                ("interaction", lo * scale[1], hi * scale[1])
                for lo, hi in ((1.3, 0.2), (1e3, 0.2), (-2e3, 1e3))]
            for model, a_prime, a_dblprime in runs:
                fit, pair = product_method_stats(data, model, a_prime, a_dblprime)
                zx, zy, se_x, se_y, dx, dy = _mpmath_oracle(data, model, a_prime, a_dblprime)
                assert fit.se_x == pytest.approx(se_x, rel=1e-12, abs=0.0)
                assert fit.se_y == pytest.approx(se_y, rel=1e-12, abs=0.0)
                rn = math.sqrt(n)
                for got, want, wald in ((pair.zx, zx, 1.0), (pair.zy, zy, 1.0),
                                        (fit.delta_x_hat, dx, rn / se_x),
                                        (fit.delta_y_hat, dy, rn / se_y)):
                    assert abs(got - want) * wald <= max(1e-12 * abs(want) * wald, 1e-13)


def test_fit_ols_refuses_non_finite_input():
    x = np.column_stack([np.ones(6), np.arange(6.0)])
    for bad in (math.nan, math.inf, -math.inf):
        design = x.copy()
        design[2, 1] = bad
        with pytest.raises(DataError, match="finite"):
            fit_ols(design, np.arange(6.0))
        response = np.arange(6.0)
        response[4] = bad
        with pytest.raises(DataError, match="finite"):
            fit_ols(x, response)


def test_product_method_names_the_dependent_column():
    rng = np.random.Generator(np.random.Philox(5))
    n = 30
    a, m, y, c = (rng.standard_normal(n) for _ in range(4))
    for model in ("main_effects", "interaction"):
        same = MediationDataset(y, a, m, np.column_stack([c, m]), ("age", "dose"))
        with pytest.raises(DataError, match=r"collinear columns: m$"):
            product_method_stats(same, model)
        twice = MediationDataset(y, a, m, np.column_stack([c, 3.0 * c]), ("age", "age3"))
        with pytest.raises(DataError, match=r"collinear columns: age3$"):
            product_method_stats(twice, model)


def test_fit_result_validation():
    with pytest.raises(ValueError, match="model"):
        FitResult(0.1, 0.1, 1.0, 1.0, 10, "probit")
    with pytest.raises(DataError, match="se_x"):
        FitResult(0.1, 0.1, 0.0, 1.0, 10, "main_effects")
    with pytest.raises(DataError, match="not finite"):
        FitResult(math.nan, 0.1, 1.0, 1.0, 10, "main_effects")


def test_main_effects_shapes_and_wald_scale():
    data = _simulated(400, 7)
    fit, pair = product_method_stats(data)
    assert fit.model == "main_effects"
    assert fit.n == 400
    rn = math.sqrt(400)
    assert pair.zx == pytest.approx(rn * fit.delta_x_hat / fit.se_x, rel=1e-15)
    assert pair.zy == pytest.approx(rn * fit.delta_y_hat / fit.se_y, rel=1e-15)
    assert pair.provenance.n == 400
    assert pair.provenance.delta_x_hat == fit.delta_x_hat
    with pytest.raises(ValueError, match="model"):
        product_method_stats(data, model="anova")


def test_null_mediator_statistic_is_centered():
    # delta_y = 0 exactly; zy averages to zero at the 1/sqrt(reps) scale
    rng = np.random.Generator(np.random.Philox(55))
    vals = []
    for _ in range(200):
        n = 60
        a = rng.standard_normal(n)
        m = 0.3 + rng.standard_normal(n)
        y = 1.0 + 0.5 * a + 0.7 * m + rng.standard_normal(n)
        _, pair = product_method_stats(MediationDataset(y, a, m, np.empty((n, 0))))
        vals.append(pair.zy)
    assert abs(float(np.mean(vals))) <= 4.0 / math.sqrt(200)


def test_interaction_is_the_stated_linear_combination():
    data = _simulated(80, 13, theta_am=0.4)
    a_prime, a_dbl = 1.3, 0.2
    fit, pair = product_method_stats(data, model="interaction",
                                     a_prime=a_prime, a_dblprime=a_dbl)
    assert fit.model == "interaction"
    assert (fit.a_prime, fit.a_dblprime) == (a_prime, a_dbl)

    n = data.n
    ones = np.ones(n)
    out = fit_ols(np.column_stack([ones, data.a, data.m, data.a * data.m]), data.y)
    med = fit_ols(np.column_stack([ones, data.a]), data.m)
    assert fit.delta_x_hat == pytest.approx(out.beta[2] + out.beta[3] * a_prime,
                                            rel=1e-12)
    var = out.cov[2, 2] + a_prime ** 2 * out.cov[3, 3] + 2 * a_prime * out.cov[2, 3]
    assert fit.se_x == pytest.approx(math.sqrt(n * var), rel=1e-12)
    assert fit.delta_y_hat == pytest.approx(med.beta[1] * (a_prime - a_dbl),
                                            rel=1e-12)
    assert fit.se_y == pytest.approx(abs(a_prime - a_dbl)
                                     * math.sqrt(n * med.cov[1, 1]), rel=1e-12)


def test_interaction_zy_depends_only_on_level_order():
    # the contrast scale cancels from the Wald ratio, leaving its sign
    data = _simulated(120, 14, theta_am=0.3)
    _, base = product_method_stats(data, model="interaction",
                                   a_prime=1.3, a_dblprime=0.2)
    _, wide = product_method_stats(data, model="interaction",
                                   a_prime=2.0, a_dblprime=0.5)
    _, flipped = product_method_stats(data, model="interaction",
                                      a_prime=0.2, a_dblprime=1.3)
    assert wide.zy == pytest.approx(base.zy, rel=1e-12)
    assert flipped.zy == pytest.approx(-base.zy, rel=1e-12)


def test_interaction_requires_distinct_levels():
    data = _simulated(50, 15)
    with pytest.raises(ValueError, match="distinct"):
        product_method_stats(data, model="interaction",
                             a_prime=1.0, a_dblprime=1.0)


def test_interaction_reduces_to_main_effects_without_interaction():
    # theta_am = 0 in truth, so the a_prime = 1 combination estimates the
    # same effect; measured gap at this seed is about 0.019
    data = _simulated(2000, 88)
    fit_main, _ = product_method_stats(data)
    fit_int, _ = product_method_stats(data, model="interaction",
                                      a_prime=1.0, a_dblprime=0.0)
    assert abs(fit_main.delta_x_hat - fit_int.delta_x_hat) < 0.05


def test_standardize_pair():
    pair = standardize_pair(0.5, -0.2, [[4.0, 0.0], [0.0, 9.0]], 25)
    assert pair.zx == pytest.approx(1.25, rel=1e-15)
    assert pair.zy == pytest.approx(-1.0 / 3.0, rel=1e-15)
    assert pair.provenance.se_x == 2.0
    assert pair.provenance.se_y == 3.0
    with pytest.raises(ValueError, match="diagonal"):
        standardize_pair(0.5, 0.5, [[1.0, 0.1], [0.1, 1.0]], 25)
    with pytest.raises(ValueError, match="2x2"):
        standardize_pair(0.5, 0.5, [1.0, 1.0], 25)
    with pytest.raises(ValueError, match="positive"):
        standardize_pair(0.5, 0.5, [[0.0, 0.0], [0.0, 1.0]], 25)
    with pytest.raises(ValueError, match="n must be"):
        standardize_pair(0.5, 0.5, [[1.0, 0.0], [0.0, 1.0]], 0)


def test_scaling_the_mediator_leaves_wald_ratios_alone():
    data = _simulated(300, 19)
    fit, pair = product_method_stats(data)
    scaled = MediationDataset(data.y, data.a, 3.7 * data.m, data.c)
    fit2, pair2 = product_method_stats(scaled)
    assert fit2.delta_x_hat == pytest.approx(fit.delta_x_hat / 3.7, rel=1e-10)
    assert fit2.delta_y_hat == pytest.approx(fit.delta_y_hat * 3.7, rel=1e-10)
    assert pair2.zx == pytest.approx(pair.zx, rel=1e-10)
    assert pair2.zy == pytest.approx(pair.zy, rel=1e-10)


def test_wald_pipeline_is_asymptotically_standard_normal():
    """End to end: fitted, standardized, recentered statistics pass a KS
    check against N(0,1) in both coordinates."""
    reps, n, dx, dy = 2000, 5000, 0.02, 0.015
    rng = np.random.Generator(np.random.Philox(99))
    zx, zy = [], []
    rn = math.sqrt(n)
    for _ in range(reps):
        a = rng.standard_normal(n)
        m = 0.2 + dy * a + rng.standard_normal(n)
        y = 0.1 + 0.3 * a + dx * m + rng.standard_normal(n)
        fit, pair = product_method_stats(
            MediationDataset(y, a, m, np.empty((n, 0))))
        zx.append(pair.zx - rn * dx / fit.se_x)
        zy.append(pair.zy - rn * dy / fit.se_y)
    assert stats.kstest(zx, "norm").pvalue > 0.01
    assert stats.kstest(zy, "norm").pvalue > 0.01


def test_dataset_validation():
    with pytest.raises(DataError, match="equal length"):
        MediationDataset(np.ones(10), np.ones(9), np.ones(10), np.empty((10, 0)))
    with pytest.raises(DataError, match="non-finite"):
        MediationDataset(np.array([math.inf] + [0.0] * 9), np.ones(10),
                         np.ones(10), np.empty((10, 0)))
    with pytest.raises(DataError, match="need more than 5 rows"):
        MediationDataset(np.ones(5), np.ones(5), np.ones(5), np.empty((5, 0)))
    rng = np.random.Generator(np.random.Philox(3))
    data = MediationDataset(rng.standard_normal(12), rng.standard_normal(12),
                            rng.standard_normal(12), rng.standard_normal((12, 2)))
    assert data.covariate_names == ("c1", "c2")
    assert data.n == 12


@pytest.mark.parametrize("field", ["y", "a", "m"])
def test_dataset_refuses_a_two_dimensional_column(field):
    rng = np.random.Generator(np.random.Philox(7))
    cols = dict(zip("yam", rng.standard_normal((3, 12))))
    cols[field] = rng.standard_normal((12, 2))
    with pytest.raises(DataError, match=rf"^column '{field}' must be one-dimensional, "
                                        r"got shape \(12, 2\)$"):
        MediationDataset(cols["y"], cols["a"], cols["m"], np.empty((12, 0)))


def test_dataset_refuses_three_dimensional_covariates():
    rng = np.random.Generator(np.random.Philox(7))
    y, a, m = rng.standard_normal((3, 12))
    with pytest.raises(DataError, match=r"^covariates 'c' must be n x k, got shape \(12, 2, 1\)$"):
        MediationDataset(y, a, m, rng.standard_normal((12, 2, 1)))


@pytest.mark.parametrize("none", [[], (), np.empty(0), np.empty((12, 0)), np.empty((0, 2))])
def test_zero_size_covariates_mean_none(none):
    base = _simulated(12, 8)
    data = MediationDataset(base.y, base.a, base.m, none)
    assert data.c.shape == (12, 0) and data.covariate_names == ()
    for model in ("main_effects", "interaction"):
        assert product_method_stats(data, model)[1] == product_method_stats(base, model)[1]


def test_covariate_names_must_match_the_columns():
    rng = np.random.Generator(np.random.Philox(4))
    y, a, m = rng.standard_normal((3, 12))
    c = rng.standard_normal((12, 3))
    with pytest.raises(DataError, match="got 2 covariate names for 3 columns"):
        MediationDataset(y, a, m, c, ("age", "dose"))
    with pytest.raises(DataError, match="got 1 covariate names for 0 columns"):
        MediationDataset(y, a, m, np.empty((12, 0)), ("age",))
    assert MediationDataset(y, a, m, c).covariate_names == ("c1", "c2", "c3")
    named = MediationDataset(y, a, m, c, ["age", "dose", "site"])
    assert named.covariate_names == ("age", "dose", "site")
    with pytest.raises(DataError, match="collinear columns: site$"):
        product_method_stats(MediationDataset(y, a, m, c[:, [0, 1, 1]], ("age", "dose", "site")))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", ["y", "a", "m", "dose"])
def test_dataset_names_the_non_finite_column(column, bad):
    rng = np.random.Generator(np.random.Philox(6))
    cols = dict(zip("yam", rng.standard_normal((3, 12))), c=rng.standard_normal((12, 2)))
    if column == "dose":
        cols["c"][7, 1] = bad
    else:
        cols[column][7] = bad
    with pytest.raises(DataError, match=f"^column '{column}' contains non-finite values$"):
        MediationDataset(cols["y"], cols["a"], cols["m"], cols["c"], ("age", "dose"))


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e-200, 1e-300])
@pytest.mark.parametrize("column", ["y", "a", "m", "c"])
def test_columns_past_the_squared_range_fit_without_warning(column, scale):
    # squares of these entries (or of their inverses) leave the float range,
    # so neither the finiteness test, the rank test nor the SEs may square them;
    # Wald ratios do not depend on column scale (levels move with a)
    rng = np.random.Generator(np.random.Philox(17))
    n = 40
    a, noise_m, noise_y = rng.standard_normal((3, n))
    c = rng.standard_normal((n, 1))
    m = 0.3 * a + noise_m
    cols = dict(y=0.5 * a + 0.4 * m + noise_y, a=a, m=m, c=c)
    base = MediationDataset(cols["y"], cols["a"], cols["m"], cols["c"])
    cols[column] = scale * cols[column]
    levels = scale if column == "a" else 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = MediationDataset(cols["y"], cols["a"], cols["m"], cols["c"])
        for model in ("main_effects", "interaction"):
            pair = product_method_stats(data, model, 1.3 * levels, 0.2 * levels)[1]
            want = product_method_stats(base, model, 1.3, 0.2)[1]
            assert pair.zx == pytest.approx(want.zx, rel=1e-12)
            assert pair.zy == pytest.approx(want.zy, rel=1e-12)


def test_columns_whose_sums_of_squares_add_past_the_float_range_fit_without_warning():
    # each column's sum of squares is finite but their total is not, so the
    # dataset's one finiteness test fails and the column scan must pass
    rng = np.random.Generator(np.random.Philox(23))
    n, scale = 40, 1e153
    a, noise_m, noise_y = rng.standard_normal((3, n))
    c = rng.standard_normal((n, 2))
    m = 0.3 * a + noise_m
    y = 0.5 * a + 0.4 * m + noise_y
    base = MediationDataset(y, a, m, c)
    cols = [scale * v for v in (y, a, m, c)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        squares = [float(np.vdot(v, v)) for v in cols]
        assert all(map(math.isfinite, squares)) and sum(squares) == math.inf
        data = MediationDataset(*cols)
        for model in ("main_effects", "interaction"):
            pair = product_method_stats(data, model, 1.3 * scale, 0.2 * scale)[1]
            want = product_method_stats(base, model, 1.3, 0.2)[1]
            assert pair.zx == pytest.approx(want.zx, rel=1e-12)
            assert pair.zy == pytest.approx(want.zy, rel=1e-12)


def test_exposure_mediator_product_must_be_finite():
    rng = np.random.Generator(np.random.Philox(19))
    y, a, m = rng.standard_normal((3, 40))
    data = MediationDataset(y, 1e200 * a, 1e200 * m, np.empty((40, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        product_method_stats(data, "main_effects")
        with pytest.raises(DataError, match="column 'a:m' is not finite"):
            product_method_stats(data, "interaction", 1.3e200, 0.2e200)


@pytest.mark.parametrize("scale", [6e153, 7e153])
def test_a_column_whose_norm_overflows_in_the_qr_is_named(scale):
    # every a*m entry is finite, but the a:m column's norm is near or past the
    # float range: at 6e153 the QR's R holds inf in the response column, on
    # a:m's row, and at 7e153 a:m's own diagonal entry is -inf. Neither is
    # collinearity nor a non-finite estimate; the column is named instead
    rng = np.random.default_rng(1)
    n = 40
    y, a, m = rng.standard_normal((3, n))
    message = "^column 'a:m' is too large: its norm overflows in the QR factorization$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        data = MediationDataset(y, scale * a, scale * m, np.empty((n, 0)))
        with pytest.raises(DataError, match=message):
            product_method_stats(data, "interaction", scale, 0.0)
        design = np.column_stack([np.ones(n), scale * a, scale * m, (scale * a) * (scale * m)])
        with pytest.raises(DataError, match=message):
            fit_ols(design, y, ["intercept", "a", "m", "a:m"])
        # a response whose norm overflows is named as the response
        with pytest.raises(DataError, match="^the response is too large: its norm overflows"):
            fit_ols(design[:, :2] / scale, np.full(n, 1.7e308))


def test_a_column_whose_norm_stays_in_range_still_fits():
    # the same data scaled by 1e153: the QR stays finite and the interaction
    # fit returns the unscaled z pair; fit_ols refuses only the a:m variance,
    # which is near 1/scale**4 and underflows, as it did before
    rng = np.random.default_rng(1)
    n, scale = 40, 1e153
    y, a, m = rng.standard_normal((3, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = product_method_stats(MediationDataset(y, a, m, np.empty((n, 0))),
                                    "interaction")[1]
        data = MediationDataset(y, scale * a, scale * m, np.empty((n, 0)))
        pair = product_method_stats(data, "interaction", scale, 0.0)[1]
        assert pair.zx == pytest.approx(want.zx, rel=1e-12)
        assert pair.zy == pytest.approx(want.zy, rel=1e-12)
        design = np.column_stack([np.ones(n), scale * a, scale * m, (scale * a) * (scale * m)])
        with pytest.raises(DataError, match="^coefficient variance underflows; columns: a:m$"):
            fit_ols(design, y, ["intercept", "a", "m", "a:m"])
        fit = fit_ols(design[:, :3], y)
        assert np.isfinite(fit.beta).all() and np.isfinite(fit.cov).all()


def test_fit_output_bits_are_pinned():
    # sha256 of the float64 bits of every fit in a seeded sweep, so that a
    # change that is meant to leave the arithmetic alone moves no bit. The
    # bits come from numpy's LAPACK build (recorded with the OpenBLAS of the
    # numpy 2.4 x86-64 wheel); test_product_method_matches_mpmath_oracle
    # bounds the error itself.
    rng = np.random.Generator(np.random.Philox(1961))
    digest = hashlib.sha256()
    for n in (30, 400):
        for k in (0, 1, 3):
            for _ in range(4):
                a = rng.standard_normal(n)
                c = rng.standard_normal((n, k))
                m = 0.3 * a + c @ rng.standard_normal(k) + rng.standard_normal(n)
                y = 0.5 * a + 0.4 * m + c @ rng.standard_normal(k) + rng.standard_normal(n)
                scale = 10.0 ** rng.uniform(-3.0, 3.0, 3 + k)
                data = MediationDataset(scale[0] * y, scale[1] * a, scale[2] * m, scale[3:] * c)
                for model in ("main_effects", "interaction"):
                    fit, pair = product_method_stats(data, model, 1.3 * scale[1], 0.2 * scale[1])
                    digest.update(np.array([pair.zx, pair.zy, fit.se_x, fit.se_y,
                                            fit.delta_x_hat, fit.delta_y_hat]).tobytes())
    assert digest.hexdigest() == (
        "166ba0734d2d78225266a709c440160e4b34b932a58adbeedf2e45819a65e073")


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_golden(tmp_path):
    p = _write(tmp_path / "ok.csv",
               "y, a ,m,extra\n"
               + "".join(f"{i / 7.0},{i / 3.0},{i / 5.0},9\n" for i in range(8)))
    data = load_csv(p, y="y", a="a", m="m")
    assert data.n == 8
    assert data.m[3] == pytest.approx(3 / 5.0)
    assert data.covariate_names == ()
    with_cov = load_csv(p, y="y", a="a", m="m", covariates=["extra"])
    assert with_cov.c.shape == (8, 1)
    assert with_cov.covariate_names == ("extra",)


def test_load_csv_error_coordinates(tmp_path):
    body = "y,a,m\n1,2,3\n4,NA,6\n"
    p = _write(tmp_path / "bad.csv", body)
    with pytest.raises(DataError, match=r"row 2, column 'a': non-numeric value 'NA'"):
        load_csv(p, y="y", a="a", m="m")

    p = _write(tmp_path / "inf.csv", "y,a,m\n1,2,inf\n")
    with pytest.raises(DataError, match=r"row 1, column 'm'.*non-finite"):
        load_csv(p, y="y", a="a", m="m")

    p = _write(tmp_path / "short.csv", "y,a,m\n1,2\n")
    with pytest.raises(DataError, match="row 1 has 2 fields, expected 3"):
        load_csv(p, y="y", a="a", m="m")

    p = _write(tmp_path / "headeronly.csv", "y,a,m\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(p, y="y", a="a", m="m")

    p = _write(tmp_path / "empty.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_csv(p, y="y", a="a", m="m")

    p = _write(tmp_path / "missing.csv", "y,a\n1,2\n")
    with pytest.raises(DataError, match=r"missing columns \['m'\]"):
        load_csv(p, y="y", a="a", m="m")

    p = _write(tmp_path / "roles.csv", "y,a,m\n1,2,3\n")
    with pytest.raises(DataError, match="roles overlap"):
        load_csv(p, y="y", a="a", m="a")


def test_load_csv_reads_bom_headers_blank_lines_and_extra_columns(tmp_path):
    lines = [f"{i / 7.0},{i / 3.0},{(i * i) % 5 / 5.0}" for i in range(8)]
    want = load_csv(_write(tmp_path / "plain.csv", "y,a,m\n" + "\n".join(lines) + "\n"),
                    y="y", a="a", m="m")
    # a UTF-8 byte-order mark, blank lines, a whitespace-only line and an unused column
    p = tmp_path / "bom.csv"
    p.write_text("\ufeffy,a,m,extra\n" + "\n\n".join(f"{ln},9" for ln in lines) + "\n  \n",
                 encoding="utf-8")
    assert p.read_bytes().startswith(b"\xef\xbb\xbfy,")
    got = load_csv(str(p), y="y", a="a", m="m")
    for col in ("y", "a", "m"):
        assert np.array_equal(getattr(got, col), getattr(want, col))


def test_load_csv_rows_count_data_rows(tmp_path):
    # blank lines are skipped and not counted
    p = _write(tmp_path / "gap.csv", "y,a,m\n1,2,3\n\n4,x,6\n")
    with pytest.raises(DataError, match=r"row 2, column 'a': non-numeric value 'x'$"):
        load_csv(p, y="y", a="a", m="m")


def test_load_csv_refuses_a_wanted_column_named_twice(tmp_path):
    body = "y,a,m,y\n" + "".join(f"{i},{i * i},{i % 3},{-i}\n" for i in range(8))
    p = _write(tmp_path / "twice.csv", body)
    with pytest.raises(DataError, match=r"column 'y' appears 2 times in the header"):
        load_csv(p, y="y", a="a", m="m")
    # an unwanted column may repeat
    p = _write(tmp_path / "extra.csv", "y,a,m,z,z\n" + "".join(
        f"{i},{i * i},{i % 3},0,0\n" for i in range(8)))
    assert load_csv(p, y="y", a="a", m="m").n == 8


_SIGMA = [[4.0, 0.0], [0.0, 9.0]]


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.5, _SIGMA, 25), "delta_x_hat must be finite, got (nan,)"),
    ((0.5, math.inf, _SIGMA, 25), "delta_y_hat must be finite, got (inf,)"),
    ((0.5, 0.5, [[math.nan, 0.0], [0.0, 1.0]], 25), "sigma[0][0] must be positive and finite, got nan"),
    ((0.5, 0.5, [[1.0, 0.0], [0.0, math.inf]], 25), "sigma[1][1] must be positive and finite, got inf"),
    ((0.5, 0.5, [[1.0, 0.0], [0.0, -1.0]], 25), "sigma[1][1] must be positive and finite, got -1.0"),
    ((0.5, 0.5, _SIGMA, 2.5), "n must be an integer, got 2.5"),
    ((0.5, 0.5, _SIGMA, True), "n must be an integer, got True"),
])
def test_standardize_pair_input_contract(args, message):
    with pytest.raises(ValueError) as err:
        standardize_pair(*args)
    assert str(err.value) == message
