"""Monte Carlo harness: power curves, p-value ECDFs, and product-statistic
density samples, all reproducible and CSV-oriented.

Replicates are drawn in O(1) from the sufficient statistics of normal data:
sqrt(n)*mean ~ N(sqrt(n)*delta, 1), independent of s**2 ~ chi2(n-1)/(n-1).

Reproducibility scheme: replicates are split into fixed-size blocks; block
(point_index, block_index) draws from a counter-based generator seeded by
SeedSequence(seed, spawn_key=(point_index, block_index)). Blocks are merged
by exact integer counts, so results are identical for any worker count,
including serial runs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .closed_form import build_extended_region, build_minimax_region
from .pvalues import DEFAULT_RESOLUTION, minimax_pvalue_batch
from .regions import RejectionRegion2D, rejection_prob_at_points, _cdf_array
from .statmath import _alpha, _count, std_normal_quantile

__all__ = [
    "SimSpec",
    "SimRow",
    "SimResult",
    "EcdfTable",
    "DensityTable",
    "simulate_power",
    "simulate_pvalue_ecdf",
    "sample_sobel_density",
    "sample_product_statistic",
    "worker_count",
]

_METHODS = ("minimax", "extended", "bayes", "js", "sobel")
_BLOCK = 4096
_DEGENERATE = 1.0 - 1e-9


def worker_count() -> int:
    """Worker cap: COMPOSITE_NULL_THREADS if set, else up to 8 cores."""
    env = os.environ.get("COMPOSITE_NULL_THREADS")
    if env is not None:
        try:
            v = int(env)
        except ValueError:
            raise ValueError(
                f"COMPOSITE_NULL_THREADS must be an integer, got {env!r}") from None
        if v < 1:
            raise ValueError(f"COMPOSITE_NULL_THREADS must be >= 1, got {v}")
        return v
    return min(os.cpu_count() or 1, 8)


def _seed(value) -> int:
    """``value`` as SeedSequence entropy: an integer in [0, 2**64)."""
    if _count("seed", value, 0) >= 2 ** 64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {value!r}")
    return int(value)


def _finite(name: str, values) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class SimSpec:
    """Power-simulation request.

    A replicate stands for ``n`` i.i.d. normal pairs with mean delta and
    identity covariance. The methods read only ``sqrt(n)*mean``, which is drawn
    from its exact law ``N(sqrt(n)*delta, I)``, and all share the same draws.
    Shifts must be finite, ``n`` and ``reps`` positive integers and ``seed``
    an integer in [0, 2**64).
    """

    methods: tuple[str, ...]
    delta_grid: tuple[tuple[float, float], ...]
    n: int
    reps: int
    seed: int
    alpha: float = 0.05
    bayes_region: RejectionRegion2D | None = None
    bayes_randomized: bool = True

    def __post_init__(self):
        methods = tuple(self.methods)
        object.__setattr__(self, "methods", methods)
        if not methods:
            raise ValueError("methods must be non-empty")
        for m in methods:
            if m not in _METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {_METHODS}")
        grid = tuple(_finite(f"delta_grid[{i}]", (dx, dy))
                     for i, (dx, dy) in enumerate(self.delta_grid))
        if not grid:
            raise ValueError("delta_grid must be non-empty")
        object.__setattr__(self, "delta_grid", grid)
        object.__setattr__(self, "n", _count("n", self.n, 1))
        object.__setattr__(self, "reps", _count("reps", self.reps, 1))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "alpha", _alpha(self.alpha))
        if "bayes" in methods and self.bayes_region is None:
            raise ValueError("the bayes method needs a solved region (bayes_region)")


@dataclass(frozen=True)
class SimRow:
    delta_x: float
    delta_y: float
    method: str
    alpha: float
    n: int
    reps: int
    reject_rate: float
    mc_se: float
    seed: int


_POWER_HEADER = "delta_x,delta_y,method,alpha,n,reps,reject_rate,mc_se,seed"


@dataclass(frozen=True)
class SimResult:
    rows: tuple[SimRow, ...]

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write(_POWER_HEADER + "\n")
        for r in self.rows:
            buf.write(f"{r.delta_x!r},{r.delta_y!r},{r.method},{r.alpha!r},"
                      f"{r.n},{r.reps},{r.reject_rate!r},{r.mc_se!r},{r.seed}\n")
        return buf.getvalue()


def _method_evaluators(spec: SimSpec):
    """One vectorized decision function per method, built once per run."""
    evals = {}
    for name in spec.methods:
        if name == "minimax":
            region = build_minimax_region(spec.alpha)
            evals[name] = ("region", region, True)
        elif name == "extended":
            region = build_extended_region(spec.alpha)
            evals[name] = ("region", region, True)
        elif name == "bayes":
            evals[name] = ("region", spec.bayes_region, spec.bayes_randomized)
        elif name == "js":
            evals[name] = ("js", std_normal_quantile(1.0 - spec.alpha / 2.0), None)
        else:
            evals[name] = ("sobel", std_normal_quantile(1.0 - spec.alpha / 2.0), None)
    return evals


def _sobel(zx: np.ndarray, zy: np.ndarray) -> np.ndarray:
    """Product-ratio statistic zx*zy/hypot(zx, zy) of z- or t-statistics; 0 at (0, 0)."""
    denom = np.hypot(zx, zy)
    return np.divide(zx * zy, denom, out=np.zeros_like(denom), where=denom > 0.0)


def _power_block(spec: SimSpec, evals, point_index: int, block_index: int,
                 size: int) -> dict[str, int]:
    dx, dy = spec.delta_grid[point_index]
    ss = np.random.SeedSequence(spec.seed, spawn_key=(point_index, block_index))
    gen = np.random.Generator(np.random.Philox(ss))
    root_n = math.sqrt(spec.n)
    z = gen.standard_normal((2, size))
    zx, zy = z[0] + root_n * dx, z[1] + root_n * dy
    aux = None
    counts = {}
    for name, (kind, obj, randomized) in evals.items():
        if kind == "region":
            probs = rejection_prob_at_points(obj, zx, zy)
            if randomized:
                if aux is None:
                    aux = gen.uniform(size=size)
                rej = aux < probs
            else:
                rej = probs >= _DEGENERATE
        elif kind == "js":
            rej = (np.abs(zx) > obj) & (np.abs(zy) > obj)
        else:
            rej = np.abs(_sobel(zx, zy)) > obj
        counts[name] = int(rej.sum())
    return counts


def simulate_power(spec: SimSpec) -> SimResult:
    """Monte Carlo rejection rates per delta point and method."""
    evals = _method_evaluators(spec)
    n_blocks = (spec.reps + _BLOCK - 1) // _BLOCK
    tasks = []
    for pi in range(len(spec.delta_grid)):
        for bi in range(n_blocks):
            size = min(_BLOCK, spec.reps - bi * _BLOCK)
            tasks.append((pi, bi, size))

    totals = [dict.fromkeys(spec.methods, 0) for _ in spec.delta_grid]
    workers = worker_count()
    if workers == 1 or len(tasks) == 1:
        results = [_power_block(spec, evals, *t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: _power_block(spec, evals, *t), tasks))
    for (pi, _, _), counts in zip(tasks, results):
        for name, c in counts.items():
            totals[pi][name] += c

    rows = []
    for pi, (dx, dy) in enumerate(spec.delta_grid):
        for name in spec.methods:
            rate = totals[pi][name] / spec.reps
            se = math.sqrt(rate * (1.0 - rate) / spec.reps)
            rows.append(SimRow(dx, dy, name, spec.alpha, spec.n, spec.reps,
                               rate, se, spec.seed))
    return SimResult(tuple(rows))


# eq=False: ndarray fields have no truth value, so compare and hash by identity
@dataclass(frozen=True, eq=False)
class EcdfTable:
    """Sorted p-values with ECDF levels per method."""

    entries: tuple[tuple[str, np.ndarray], ...]

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write("method,p_value,ecdf\n")
        for method, sorted_p in self.entries:
            reps = len(sorted_p)
            for i, p in enumerate(sorted_p, start=1):
                buf.write(f"{method},{float(p)!r},{i / reps!r}\n")
        return buf.getvalue()

    def pvalues(self, method: str) -> np.ndarray:
        for name, arr in self.entries:
            if name == method:
                return arr
        raise KeyError(method)


def simulate_pvalue_ecdf(reps: int, delta_star=(0.0, 0.0),
                         resolution: int = DEFAULT_RESOLUTION,
                         seed: int = 0) -> EcdfTable:
    """Draw statistic pairs at delta_star and tabulate both p-value ECDFs.

    The pair is drawn directly from the bivariate normal around delta_star
    (the statistic's own law), then scored by the generalized p-value and
    the joint-significance p-value.
    """
    reps = _count("reps", reps, 1)
    dx, dy = _finite("delta_star", delta_star)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(_seed(seed))))
    z = gen.standard_normal((reps, 2))
    zx = z[:, 0] + dx
    zy = z[:, 1] + dy
    phat = minimax_pvalue_batch(zx, zy, resolution)
    pjs = np.minimum(1.0, np.maximum(2.0 * _cdf_array(-np.abs(zx)),
                                     2.0 * _cdf_array(-np.abs(zy))))
    return EcdfTable((("extended_minimax", np.sort(phat)), ("js", np.sort(pjs))))


@dataclass(frozen=True, eq=False)
class DensityTable:
    """Long-format samples keyed by the exposure-coordinate mean."""

    entries: tuple[tuple[float, np.ndarray], ...]

    def to_csv(self) -> str:
        buf = StringIO()
        buf.write("delta_x,sample\n")
        for dx, samples in self.entries:
            for s in samples:
                buf.write(f"{dx!r},{float(s)!r}\n")
        return buf.getvalue()

    def samples(self, delta_x: float) -> np.ndarray:
        for dx, arr in self.entries:
            if dx == delta_x:
                return arr
        raise KeyError(delta_x)


def _t_statistics(delta_x: float, n: int, reps: int, seed: int, point: int) -> tuple:
    """t-statistics sqrt(n)*mean/sd of both coordinates for reps samples of
    n pairs with means (delta_x, 0), drawn from the sufficient statistics."""
    ss = np.random.SeedSequence(seed, spawn_key=(point,))
    gen = np.random.Generator(np.random.Philox(ss))
    z = gen.standard_normal((2, reps))
    z[0] += math.sqrt(n) * delta_x
    z /= np.sqrt(gen.chisquare(n - 1, size=(2, reps)) / (n - 1))
    return z[0], z[1]


def sample_sobel_density(delta_x_list, n: int, reps: int, seed: int = 0) -> DensityTable:
    """Replicated product-ratio statistics under a zero second coordinate.

    For each delta_x: reps samples of n pairs with means (delta_x, 0), and
    the standardized product statistic of their sample means and SDs.
    """
    n, reps, seed = _count("n", n, 2), _count("reps", reps, 1), _seed(seed)
    return DensityTable(tuple(
        (dx, _sobel(*_t_statistics(dx, n, reps, seed, pi)))
        for pi, dx in enumerate(_finite("delta_x_list", delta_x_list))))


def sample_product_statistic(delta_x: float, n: int, reps: int, seed: int = 0,
                             ) -> np.ndarray:
    """Rescaled product estimates n*dx_hat*dy_hat/(s_x*s_y), same design as
    sample_sobel_density; near the double null this approaches the law of a
    product of two independent standard normals."""
    n, reps, seed = _count("n", n, 2), _count("reps", reps, 1), _seed(seed)
    tx, ty = _t_statistics(_finite("delta_x", (delta_x,))[0], n, reps, seed, 0)
    return tx * ty
