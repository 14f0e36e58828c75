"""Monte Carlo harness: power curves, p-value ECDFs, and product-statistic
density samples, all reproducible and CSV-oriented.

Replicates are drawn in O(1) from the sufficient statistics of normal data:
sqrt(n)*mean ~ N(sqrt(n)*delta, 1), independent of s**2 ~ chi2(n-1)/(n-1).

Reproducibility scheme: replicates are split into fixed-size blocks; block
(point_index, block_index) draws from a counter-based generator seeded by
SeedSequence(seed, spawn_key=(point_index, block_index)). A task takes up to
_TASK_BLOCKS consecutive blocks of one point and looks their draws up
together; tasks run on one thread pool and are merged by exact integer counts, so
results are identical for any worker count, one included.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closed_form import _BUILDERS, _js_rejects, _sobel, _sobel_magnitude
from .pvalues import minimax_pvalue_batch
from .regions import _DEGENERATE, RejectionRegion2D, _unpack, rejection_prob_at_points
from .statmath import _alpha, _count, _finite, _sample_size, _two_sided_cutoff, _two_sided_p

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
# blocks per task: enough draws per numpy call that threads do not queue on the GIL
_TASK_BLOCKS = 8


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


def _generator(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of SeedSequence(seed, spawn_key=key); no key is SeedSequence(seed)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class SimSpec:
    """Power-simulation request.

    A replicate stands for ``n`` i.i.d. normal pairs with mean delta and
    identity covariance. The methods read only ``sqrt(n)*mean``, which is drawn
    from its exact law ``N(sqrt(n)*delta, I)``, and all share the same draws.
    Shifts must be finite, ``n`` and ``reps`` positive integers (``n`` at
    most the largest float) and ``seed`` an integer in [0, 2**64).
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
        grid = tuple(_finite(f"delta_grid[{i}]", _unpack(d, 2, f"delta_grid[{i}]"))
                     for i, d in enumerate(self.delta_grid))
        if not grid:
            raise ValueError("delta_grid must be non-empty")
        object.__setattr__(self, "delta_grid", grid)
        object.__setattr__(self, "n", _sample_size(self.n, 1))
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


def _csv(header: str, lines) -> str:
    """A CSV document: the header, then each of ``lines``, every one ending in a newline."""
    return "\n".join((header, *lines, ""))


def _first(entries, key) -> np.ndarray:
    """The array of the first entry keyed ``key`` (keys may repeat); KeyError if none."""
    return dict(reversed(entries))[key]


@dataclass(frozen=True)
class SimResult:
    rows: tuple[SimRow, ...]

    def to_csv(self) -> str:
        return _csv("delta_x,delta_y,method,alpha,n,reps,reject_rate,mc_se,seed",
                    (f"{r.delta_x!r},{r.delta_y!r},{r.method},{r.alpha!r},"
                     f"{r.n},{r.reps},{r.reject_rate!r},{r.mc_se!r},{r.seed}" for r in self.rows))


def _method_evaluators(spec: SimSpec):
    """One vectorized decision function per method, built once per run.

    A region whose grid equals an earlier method's is replaced by that
    region, so the two share one lookup (minimax and extended at 1/K).
    """
    evals = {}
    regions = {}  # by grid alone: == would also compare kind and alpha
    for name in spec.methods:
        if name in ("js", "sobel"):  # a statistic against the two-sided cutoff
            evals[name] = (name, _two_sided_cutoff(spec.alpha), None)
            continue
        if name == "bayes":
            region, randomized = spec.bayes_region, spec.bayes_randomized
        else:
            region, randomized = _BUILDERS[name](spec.alpha), True
        evals[name] = ("region", regions.setdefault(region._grid_key(), region), randomized)
    return evals


def _power_task(spec: SimSpec, evals, point_index: int, blocks: range) -> dict[str, int]:
    """Rejection counts over consecutive blocks of one point.

    Each block draws from its own generator, its normals and then, when a
    region method is randomized, its uniforms, into its slice of the task's
    arrays; every method then runs once over the whole task.
    """
    dx, dy = spec.delta_grid[point_index]
    first = blocks.start * _BLOCK
    size = min(blocks.stop * _BLOCK, spec.reps) - first
    z = np.empty((2, size))
    uniforms = any(kind == "region" and randomized for kind, _, randomized in evals.values())
    aux = np.empty(size) if uniforms else None
    for bi in blocks:
        lo = bi * _BLOCK - first
        part = slice(lo, min(lo + _BLOCK, size))
        gen = _generator(spec.seed, point_index, bi)
        gen.standard_normal(out=z[0, part])
        gen.standard_normal(out=z[1, part])
        if aux is not None:
            gen.random(out=aux[part])
    root_n = math.sqrt(spec.n)
    zx, zy = z
    zx += root_n * dx
    zy += root_n * dy
    lookups = {}
    counts = {}
    for name, (kind, obj, randomized) in evals.items():
        if kind == "region":
            if id(obj) not in lookups:
                lookups[id(obj)] = rejection_prob_at_points(obj, zx, zy)
            probs = lookups[id(obj)]
            rej = aux < probs if randomized else probs >= _DEGENERATE
        elif kind == "js":
            rej = _js_rejects(zx, zy, obj)
        else:
            rej = _sobel_magnitude(zx, zy) > obj
        counts[name] = int(np.count_nonzero(rej))
    return counts


def simulate_power(spec: SimSpec) -> SimResult:
    """Monte Carlo rejection rates per delta point and method."""
    evals = _method_evaluators(spec)
    n_blocks = (spec.reps + _BLOCK - 1) // _BLOCK
    tasks = [(pi, range(b, min(b + _TASK_BLOCKS, n_blocks)))
             for pi in range(len(spec.delta_grid))
             for b in range(0, n_blocks, _TASK_BLOCKS)]

    totals = [dict.fromkeys(spec.methods, 0) for _ in spec.delta_grid]
    with ThreadPoolExecutor(max_workers=min(worker_count(), len(tasks))) as pool:
        for (pi, _), counts in zip(tasks, pool.map(lambda t: _power_task(spec, evals, *t), tasks)):
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
        return _csv("method,p_value,ecdf",
                    (f"{method},{float(p)!r},{i / len(sorted_p)!r}"
                     for method, sorted_p in self.entries
                     for i, p in enumerate(sorted_p, start=1)))

    def pvalues(self, method: str) -> np.ndarray:
        return _first(self.entries, method)


def simulate_pvalue_ecdf(reps: int, delta_star=(0.0, 0.0), *, seed: int = 0) -> EcdfTable:
    """Draw statistic pairs at delta_star and tabulate both p-value ECDFs.

    The pair is drawn directly from the bivariate normal around delta_star
    (the statistic's own law), then scored by the generalized p-value and
    the joint-significance p-value.
    """
    reps = _count("reps", reps, 1)
    dx, dy = _finite("delta_star", _unpack(delta_star, 2, "delta_star"))
    gen = _generator(_seed(seed))
    z = gen.standard_normal((reps, 2))
    zx = z[:, 0] + dx
    zy = z[:, 1] + dy
    phat = minimax_pvalue_batch(zx, zy)
    pjs = np.maximum(_two_sided_p(zx), _two_sided_p(zy))
    return EcdfTable((("extended_minimax", np.sort(phat)), ("js", np.sort(pjs))))


@dataclass(frozen=True, eq=False)
class DensityTable:
    """Long-format samples keyed by the exposure-coordinate mean."""

    entries: tuple[tuple[float, np.ndarray], ...]

    def to_csv(self) -> str:
        return _csv("delta_x,sample", (f"{dx!r},{float(s)!r}"
                                       for dx, samples in self.entries for s in samples))

    def samples(self, delta_x: float) -> np.ndarray:
        return _first(self.entries, delta_x)


def _t_statistics(delta_x: float, n: int, reps: int, seed: int, point: int) -> tuple:
    """t-statistics sqrt(n)*mean/sd of both coordinates for reps samples of
    n pairs with means (delta_x, 0), drawn from the sufficient statistics."""
    gen = _generator(seed, point)
    z = gen.standard_normal((2, reps))
    z[0] += math.sqrt(n) * delta_x
    with np.errstate(over="ignore"):  # a t-statistic past the float range is inf
        z /= np.sqrt(gen.chisquare(n - 1, size=(2, reps)) / (n - 1))
    return z[0], z[1]


def sample_sobel_density(delta_x_list, n: int, reps: int, seed: int = 0) -> DensityTable:
    """Replicated product-ratio statistics under a zero second coordinate.

    For each delta_x: reps samples of n pairs with means (delta_x, 0), and
    the standardized product statistic of their sample means and SDs.
    """
    n, reps, seed = _sample_size(n, 2), _count("reps", reps, 1), _seed(seed)
    return DensityTable(tuple(
        (dx, _sobel(*_t_statistics(dx, n, reps, seed, pi)))
        for pi, dx in enumerate(_finite("delta_x_list", delta_x_list))))


def sample_product_statistic(delta_x: float, n: int, reps: int, seed: int = 0,
                             ) -> np.ndarray:
    """Rescaled product estimates n*dx_hat*dy_hat/(s_x*s_y), same design as
    sample_sobel_density; near the double null this approaches the law of a
    product of two independent standard normals."""
    n, reps, seed = _sample_size(n, 2), _count("reps", reps, 1), _seed(seed)
    tx, ty = _t_statistics(_finite("delta_x", (delta_x,))[0], n, reps, seed, 0)
    return tx * ty
