"""From raw mediation data to a standardized statistic pair.

Fits the mediator and outcome regressions by least squares, extracts the two
product-method coefficients with their standard errors, and standardizes.
SEs are carried on the sqrt(n) scale throughout (the standard deviation of
sqrt(n) times the estimation error), so zx = sqrt(n)*delta_x_hat/se_x is the
usual finite-sample Wald ratio.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dnrm2 as _dnrm2
from scipy.linalg.lapack import dgeqrf as _dgeqrf, dtrtrs as _dtrtrs

from .regions import EstimateProvenance, TestStatisticPair

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


class DataError(ValueError):
    """Malformed input data (bad CSV cell, rank deficiency, degenerate fit)."""


# eq=False: ndarray fields have no truth value, so compare and hash by identity
@dataclass(frozen=True, eq=False)
class MediationDataset:
    """Columns y (outcome), a (exposure), m (mediator), c (n x k covariates)."""

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
        if c.ndim == 1:
            c = c.reshape(len(c), -1) if c.size else c.reshape(0, 0)
        n = len(y)
        if a.shape != (n,) or m.shape != (n,) or c.shape[0] != n:
            raise DataError("columns must have equal length")
        if c.shape[1] != len(self.covariate_names):
            object.__setattr__(
                self, "covariate_names",
                tuple(f"c{i + 1}" for i in range(c.shape[1])))
        for name, col in (("y", y), ("a", a), ("m", m)):
            if not np.all(np.isfinite(col)):
                raise DataError(f"column {name!r} contains non-finite values")
        if c.size and not np.all(np.isfinite(c)):
            raise DataError("covariate columns contain non-finite values")
        width = 3 + c.shape[1]
        if n <= width + 2:
            raise DataError(
                f"need more than {width + 2} rows for {width} columns, got {n}")
        for field, val in (("y", y), ("a", a), ("m", m), ("c", c)):
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


def _r_factor(xy: np.ndarray, names, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R (upper triangle only) of one in-place Householder QR of ``xy = [X | y]``,
    and R[:p, :p]^-T rhs, whose column for rhs = e_j is row j of R^-1.

    Every leading block is a regression: column j on columns :j has
    coefficients R[:j, :j]^-1 R[:j, j] and RSS R[j, j]^2. Design columns with
    |R[j, j]| <= max(n, p)*eps*||x_j|| depend on earlier ones and are named;
    BLAS norms are scaled, so they do not overflow as squares would past 1e154.
    """
    if not np.isfinite(xy).all():
        raise DataError("design and response must be finite")
    n, q = xy.shape
    p = q - 1
    norms = np.array([_dnrm2(xy[:, j]) for j in range(p)])
    r = _dgeqrf(xy, overwrite_a=True)[0][:q]
    dependent = np.abs(r.diagonal()[:p]) <= max(n, p) * _EPS * norms
    if dependent.any():
        raise DataError("design is rank deficient; collinear columns: "
                        + ", ".join(names[j] for j in np.flatnonzero(dependent)))
    return r, _dtrtrs(r[:p, :p], rhs, trans=1)[0]


def fit_ols(design, response, column_names=None) -> OlsFit:
    """Least squares from one QR of [X | y]; no normal-equations inversion.

    Returns coefficients and their covariance sigma2*(X'X)^-1 with
    sigma2 = RSS/(n-p). Non-finite input, rank deficiency and a coefficient
    variance past the float range raise DataError, the latter two naming
    the columns.
    """
    x = np.asarray(design, dtype=float)
    y = np.asarray(response, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DataError("design must be n x p and response length n")
    n, p = x.shape
    if n <= p:
        raise DataError(f"need n > p, got n={n}, p={p}")
    names = list(column_names) if column_names is not None else [
        f"x{i}" for i in range(p)]
    if len(names) != p:
        raise DataError("column_names length must match design width")

    xy = np.empty((n, p + 1), order="F")
    xy[:, :p], xy[:, p] = x, y
    r, rinv_t = _r_factor(xy, names, np.eye(p))
    sigma2 = float(r[p, p] ** 2) / (n - p)
    # a column scaled near the underflow limit has a variance past the
    # overflow limit; name it instead of returning inf
    with np.errstate(over="ignore", invalid="ignore"):
        cov = sigma2 * (rinv_t.T @ rinv_t)
    overflow = ~np.isfinite(cov.diagonal())
    if overflow.any():
        raise DataError("coefficient variance overflows; columns: "
                        + ", ".join(names[j] for j in np.flatnonzero(overflow)))
    return OlsFit(r[:p, p] @ rinv_t, cov, sigma2, n)


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
    # [1, a, c, m, (a*m), y]: the leading k columns are the mediator design
    # and column k its response, so one R holds both regressions.
    n = data.n
    k = 2 + data.c.shape[1]
    p = k + 1 + interaction
    xy = np.empty((n, p + 1), order="F")
    xy[:, 0], xy[:, 1], xy[:, 2:k] = 1.0, data.a, data.c
    xy[:, k], xy[:, p] = data.m, data.y
    if interaction:
        xy[:, k + 1] = data.a * data.m
    names = ["intercept", "a", *data.covariate_names, "m", "a:m"]
    # Row 1 of R[:k, :k]^-1 gives the mediator model's beta_a and its
    # variance (sigma2 times the row's squared norm); w = e_m (+ a_prime *
    # e_am) applied to R^-1 gives the outcome model's delta_x likewise.
    rows = np.eye(p)[:, [1, k]]
    if interaction:
        rows[k + 1, 1] = a_prime
    r, sol = _r_factor(xy, names, rows)
    u, w = sol[:k, 0], sol[:, 1]
    beta_a = float(u @ r[:k, k])
    se_beta_a = abs(float(r[k, k])) * math.sqrt(n * float(u @ u) / (n - k))
    dx = float(w @ r[:p, p])
    se_x = abs(float(r[p, p])) * math.sqrt(n * float(w @ w) / (n - p))
    scale = a_prime - a_dblprime if interaction else 1.0
    levels = (a_prime, a_dblprime) if interaction else ()
    result = FitResult(dx, beta_a * scale, se_x, abs(scale) * se_beta_a, n, model, *levels)
    return result, _pair(dx, result.delta_y_hat, se_x, result.se_y, n)


def standardize_pair(delta_x_hat: float, delta_y_hat: float, sigma, n: int,
                     ) -> TestStatisticPair:
    """Standardize a precomputed estimate pair given its asymptotic covariance.

    ``sigma`` is the 2x2 covariance of sqrt(n)*(estimates - truth) and must
    be diagonal: correlated coordinates are rejected, not silently whitened.
    """
    s = np.asarray(sigma, dtype=float)
    if s.shape != (2, 2):
        raise ValueError(f"sigma must be 2x2, got shape {s.shape}")
    if s[0, 1] != 0.0 or s[1, 0] != 0.0:
        raise ValueError(
            "sigma must be diagonal; refusing to whiten correlated estimates")
    if s[0, 0] <= 0.0 or s[1, 1] <= 0.0:
        raise ValueError("sigma diagonal entries must be positive")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    return _pair(delta_x_hat, delta_y_hat, math.sqrt(s[0, 0]), math.sqrt(s[1, 1]), n)


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
            raise DataError(
                f"{path}: missing columns {missing}; header has {header}")
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
    k = len(covariates)
    c = arr[:, 3:3 + k] if k else np.empty((len(rows), 0))
    return MediationDataset(arr[:, 0], arr[:, 1], arr[:, 2], c, tuple(covariates))
