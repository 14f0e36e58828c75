"""From raw mediation data to a standardized statistic pair.

Fits the mediator and outcome regressions by least squares, extracts the two
product-method coefficients with their standard errors, and standardizes.
SEs are carried on the sqrt(n) scale throughout (the standard deviation of
sqrt(n) times the estimation error), so zx = sqrt(n)*delta_x_hat/se_x is the
usual finite-sample Wald ratio.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .regions import EstimateProvenance, TestStatisticPair
from .statmath import _count, _finite, _positive

__all__ = [
    "DataError",
    "MediationDataset",
    "OlsFit",
    "FitResult",
    "fit_ols",
    "product_method_stats",
    "standardize_pair",
    "load_csv",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@functools.cache
def _lower(p: int) -> np.ndarray:
    return np.tri(p, dtype=bool)


class DataError(ValueError):
    """Malformed input data (bad CSV cell, rank deficiency, degenerate fit)."""


# eq=False: ndarray fields have no truth value, so compare and hash by identity
@dataclass(frozen=True, eq=False)
class MediationDataset:
    """Columns y (outcome), a (exposure), m (mediator), c (n x k covariates;
    zero-size means none), checked finite here once; names default to c1..ck."""

    y: np.ndarray
    a: np.ndarray
    m: np.ndarray
    c: np.ndarray
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        a = np.asarray(self.a, dtype=float)
        m = np.asarray(self.m, dtype=float)
        c = np.asarray(self.c, dtype=float)
        for field, col in (("y", y), ("a", a), ("m", m)):
            if col.ndim != 1:
                raise DataError(f"column {field!r} must be one-dimensional, got shape {col.shape}")
        n = len(y)
        if c.size == 0:
            c = c.reshape(n, 0)
        elif c.ndim == 1:
            c = c.reshape(-1, 1)
        elif c.ndim > 2:
            raise DataError(f"covariates 'c' must be n x k, got shape {c.shape}")
        if a.shape != (n,) or m.shape != (n,) or c.shape[0] != n:
            raise DataError("columns must have equal length")
        names = self.covariate_names or tuple(f"c{i + 1}" for i in range(c.shape[1]))
        if len(names) != c.shape[1]:
            raise DataError(f"got {len(names)} covariate names for {c.shape[1]} columns")
        # A sum of squares is finite only if every entry is. vdot sets no
        # overflow warning; past ~1e154 the columns are scanned one by one.
        if not all(math.isfinite(np.vdot(v, v)) for v in (y, a, m, c)):
            for name, col in (("y", y), ("a", a), ("m", m), *zip(names, c.T)):
                if not np.isfinite(col).all():
                    raise DataError(f"column {name!r} contains non-finite values")
        width = 3 + c.shape[1]
        if n <= width + 2:
            raise DataError(
                f"need more than {width + 2} rows for {width} columns, got {n}")
        for field, val in (("y", y), ("a", a), ("m", m), ("c", c),
                           ("covariate_names", tuple(names))):
            object.__setattr__(self, field, val)

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True, eq=False)
class OlsFit:
    beta: np.ndarray
    cov: np.ndarray
    sigma2: float
    n: int


def _r_factor(xy: np.ndarray, names) -> np.ndarray:
    """One Householder QR of the finite, column-major ``xy = [X | y]``; R is
    the upper triangle of the returned n x q view (below it is not R).

    Every leading block is a regression: column j on columns :j has
    coefficients R[:j, :j]^-1 R[:j, j] and RSS R[j, j]^2. Design columns with
    |R[j, j]| <= max(n, p)*eps*||x_j|| depend on earlier ones and are named;
    ||x_j|| is the hypot of R's column j, which does not overflow past 1e154.
    """
    n, q = xy.shape
    p = q - 1
    h = np.linalg.qr(xy, mode="raw")[0]  # q x n, R transposed: row j holds R[:j+1, j]
    norms = np.hypot.reduce(np.where(_lower(p), h[:p, :p], 0.0), axis=1)
    dependent = np.abs(h.diagonal()[:p]) <= max(n, p) * _EPS * norms
    if dependent.any():
        raise DataError("design is rank deficient; collinear columns: "
                        + ", ".join(names[j] for j in np.flatnonzero(dependent)))
    return h.T


def fit_ols(design, response, column_names=None) -> OlsFit:
    """Least squares from one QR of [X | y]; no normal-equations inversion.

    Returns coefficients and their covariance sigma2*(X'X)^-1 with
    sigma2 = RSS/(n-p). Non-finite input, rank deficiency and a coefficient
    variance outside the normal float range raise DataError, the latter two
    naming the columns; so does a residual variance past the float range.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DataError("design must be n x p and response length n")
    n, p = x.shape
    if n <= p:
        raise DataError(f"need n > p, got n={n}, p={p}")
    names = [f"x{i}" for i in range(p)] if column_names is None else list(column_names)
    if len(names) != p:
        raise DataError("column_names length must match design width")

    xy = np.empty((n, p + 1), order="F")
    xy[:, :p], xy[:, p] = x, y
    if not np.isfinite(xy).all():
        raise DataError("design and response must be finite")
    r = _r_factor(xy, names)
    rinv = np.linalg.inv(np.triu(r[:p, :p]))
    rss_root = float(r[p, p])
    # a Python float product overflows to inf without a warning
    sigma2 = rss_root * rss_root / (n - p)
    # sigma*R^-1 is squared once, so only a variance outside the normal range
    # leaves it; its column is named instead of returning inf or 0
    with np.errstate(over="ignore", invalid="ignore"):
        root = abs(rss_root) / math.sqrt(n - p) * rinv
        cov = root @ root.T
    var = cov.diagonal()
    for bad, what in ((~np.isfinite(var), "overflows"),
                      ((var < _TINY) & (sigma2 > 0.0), "underflows")):
        if bad.any():
            raise DataError(f"coefficient variance {what}; columns: "
                            + ", ".join(names[j] for j in np.flatnonzero(bad)))
    if not math.isfinite(sigma2):
        raise DataError("residual variance overflows")
    return OlsFit(rinv @ r[:p, p], cov, sigma2, n)


@dataclass(frozen=True)
class FitResult:
    """Product-method estimates with sqrt(n)-scale standard errors."""

    delta_x_hat: float
    delta_y_hat: float
    se_x: float
    se_y: float
    n: int
    model: str
    a_prime: float | None = None
    a_dblprime: float | None = None

    def __post_init__(self):
        if self.model not in ("main_effects", "interaction"):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("delta_x_hat", "delta_y_hat"):
            if not math.isfinite(getattr(self, name)):
                raise DataError(f"{name} is not finite")
        for name in ("se_x", "se_y"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DataError(f"{name} must be positive and finite, got {v!r}")


def _pair(dx: float, dy: float, se_x: float, se_y: float, n: int) -> TestStatisticPair:
    root_n = math.sqrt(n)
    return TestStatisticPair(root_n * dx / se_x, root_n * dy / se_y,
                             EstimateProvenance(dx, dy, se_x, se_y, n))


def product_method_stats(data: MediationDataset, model: str = "main_effects",
                         a_prime: float = 1.0, a_dblprime: float = 0.0,
                         ) -> tuple[FitResult, TestStatisticPair]:
    """Fit the mediator and outcome models and standardize the two factors.

    main_effects: the outcome regression y ~ 1 + a + m + c gives
    delta_x_hat (the m coefficient) and the mediator regression
    m ~ 1 + a + c gives delta_y_hat (the a coefficient).

    interaction: the outcome regression gains an a*m column;
    delta_x_hat = theta_m + theta_am * a_prime with the matching
    linear-combination SE, and delta_y_hat = beta_a * (a_prime - a_dblprime).
    """
    if model not in ("main_effects", "interaction"):
        raise ValueError(f"model must be main_effects or interaction, got {model!r}")
    interaction = model == "interaction"
    a_prime, a_dblprime = float(a_prime), float(a_dblprime)
    if interaction and a_prime == a_dblprime:
        raise ValueError(
            "interaction model needs distinct exposure levels a_prime != a_dblprime")
    # [1, c, a, m, (a*m), y]: columns :im are the mediator design and im its
    # response; each model's effect column ends its design, so every number
    # below is a ratio of entries of R. The data are finite; only a*m can overflow.
    n = data.n
    ia = 1 + data.c.shape[1]
    im, p = ia + 1, ia + 2 + interaction
    xy = np.empty((n, p + 1), order="F")
    xy[:, 0], xy[:, 1:ia], xy[:, ia], xy[:, im], xy[:, p] = 1.0, data.c, data.a, data.m, data.y
    if interaction:
        with np.errstate(over="ignore"):
            np.multiply(data.a, data.m, out=xy[:, p - 1])
        if not np.isfinite(xy[:, p - 1]).all():
            raise DataError("column 'a:m' is not finite: a*m overflows")
    r = _r_factor(xy, ("intercept", *data.covariate_names, "a", "m", "a:m"))
    r_aa, r_mm, r_yy = r.item(ia, ia), r.item(im, im), r.item(p, p)
    beta_a = r.item(ia, im) / r_aa
    se_beta_a = math.sqrt(n / (n - im)) * abs(r_mm / r_aa)
    if interaction:
        # delta_x = w'theta for w = e_m + a_prime*e_am is v'R[:p, y] with
        # R[:p, :p]'v = w: v is zero but on the trailing [m, a:m] block
        v_m = 1.0 / r_mm
        v_am = (a_prime - r.item(im, p - 1) * v_m) / r.item(p - 1, p - 1)
        dx = v_m * r.item(im, p) + v_am * r.item(p - 1, p)
        se_x = math.sqrt(n / (n - p)) * abs(r_yy) * math.hypot(v_m, v_am)
    else:
        dx = r.item(im, p) / r_mm
        se_x = math.sqrt(n / (n - p)) * abs(r_yy / r_mm)
    scale = a_prime - a_dblprime if interaction else 1.0
    levels = (a_prime, a_dblprime) if interaction else ()
    result = FitResult(dx, beta_a * scale, se_x, abs(scale) * se_beta_a, n, model, *levels)
    return result, _pair(dx, result.delta_y_hat, se_x, result.se_y, n)


def standardize_pair(delta_x_hat: float, delta_y_hat: float, sigma, n: int,
                     ) -> TestStatisticPair:
    """Standardize a precomputed estimate pair given its asymptotic covariance.

    ``sigma`` is the 2x2 covariance of sqrt(n)*(estimates - truth) and must
    be diagonal: correlated coordinates are rejected, not silently whitened.
    The estimates must be finite, the variances positive and finite, and n
    an integer.
    """
    (dx,), (dy,) = _finite("delta_x_hat", (delta_x_hat,)), _finite("delta_y_hat", (delta_y_hat,))
    s = np.asarray(sigma, dtype=float)
    if s.shape != (2, 2):
        raise ValueError(f"sigma must be 2x2, got shape {s.shape}")
    if s[0, 1] != 0.0 or s[1, 0] != 0.0:
        raise ValueError(
            "sigma must be diagonal; refusing to whiten correlated estimates")
    var_x, var_y = _positive("sigma[0][0]", s[0, 0]), _positive("sigma[1][1]", s[1, 1])
    return _pair(dx, dy, math.sqrt(var_x), math.sqrt(var_y), _count("n", n, 1))


def load_csv(path, y: str, a: str, m: str, covariates=()) -> MediationDataset:
    """Read a mediation dataset, reporting bad cells by row and column.

    Row numbers in errors count data rows from 1 (the header is row 0).
    """
    covariates = list(covariates)
    wanted = [y, a, m, *covariates]
    if len(set(wanted)) != len(wanted):
        raise DataError(f"column roles overlap: {wanted}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        missing = [c for c in wanted if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}; header has {header}")
        idx = {c: header.index(c) for c in wanted}
        rows = []
        for rownum, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise DataError(
                    f"{path}: row {rownum} has {len(rec)} fields, expected {len(header)}")
            vals = []
            for c in wanted:
                cell = rec[idx[c]].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {rownum}, column {c!r}: "
                        f"non-numeric value {cell!r}") from None
                if not math.isfinite(v):
                    raise DataError(
                        f"{path}: row {rownum}, column {c!r}: "
                        f"missing or non-finite value {cell!r}")
                vals.append(v)
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows after the header")
    arr = np.asarray(rows, dtype=float)
    return MediationDataset(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3:], tuple(covariates))
