"""Discretized constrained-Bayes-risk linear program.

The box B = [-b, b]^2 with b twice the two-sided critical value is tiled
into 4m^2 congruent open cells, 2m bands per axis. Each cell gets an unknown
rejection probability m_r; the LP maximizes the prior-weighted rejection
mass subject to one type-1 constraint per null-axis grid point, with the
region outside B fixed to the joint-significance rule. Every objective
coefficient and row is a product of per-band vectors, stored as such.
Solving once and persisting the region document is the intended workflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize
import scipy.sparse

from .regions import (Interval, OutsideRule, RejectionRegion2D, WeightedRect, _cdf_array,
                      _in_tail, analytic_power_batch)
from .statmath import _alpha, _count, std_normal_quantile

__all__ = [
    "LpProblem",
    "LpSolution",
    "ConstraintRow",
    "DEFAULT_PRIOR_SD",
    "build_lp",
    "solve_lp",
    "js_restricted_candidate",
    "candidate_objective",
    "assemble_bayes_region",
]

DEFAULT_PRIOR_SD = 2.0

# constraint coefficients below this are numerically zero and dropped
_COEFF_DROP = 1e-17
_CELL_DROP = 1e-9
_DEGENERATE = 1.0 - 1e-9


# eq=False: ndarray fields have no truth value, so compare and hash by identity
@dataclass(frozen=True, eq=False)
class ConstraintRow:
    """One type-1 row: sum over listed cells of value*m_r <= rhs."""

    indices: np.ndarray
    values: np.ndarray
    rhs: float
    sense: str = "<="


@dataclass(frozen=True, eq=False)
class LpProblem:
    """The LP as per-band factors: minimize objective @ m_r subject to the rows.

    Cell i*2m + j is x-band i times y-band j, band i being (edges[i],
    edges[i+1]), with prior mass band_weights[i]*band_weights[j]. Row s of
    ``band_masses`` is the N(d_s, 1) mass of each band at the axis shift
    d_s = (s - 2m)*b/m, s = 0..4m, so the type-1 row at null point (d_s, 0)
    has coefficient band_masses[s, i]*band_masses[2m, j] on cell (i, j), and
    the row at (0, d_s) the transpose. ``rhs`` is alpha minus the fixed
    outside-rule mass, in ``null_grid`` order. Bounds 0 <= m_r <= 1 are
    implicit. ``objective``, ``cell_weights``, ``cells`` and ``constraints``
    are the unfolded per-cell views, derived on first access, then cached.
    """

    edges: np.ndarray
    band_weights: np.ndarray
    band_masses: np.ndarray
    rhs: np.ndarray
    null_grid: tuple[tuple[float, float], ...]
    alpha: float
    m: int
    b: float
    prior_sd: float

    @cached_property
    def cell_weights(self) -> np.ndarray:
        """Prior probability that the statistic pair lands in each cell."""
        return np.outer(self.band_weights, self.band_weights).ravel()

    @cached_property
    def objective(self) -> np.ndarray:
        """Per-cell minimization coefficients -c_r: the Bayes risk is
        sum_r (1 - m_r)*c_r + const."""
        return -self.cell_weights

    @cached_property
    def cells(self) -> tuple[WeightedRect, ...]:
        """Cell geometry shells in cell order; their p field is a placeholder."""
        bands = _bands(self.edges)
        return tuple(WeightedRect(bx, by) for bx in bands for by in bands)

    @cached_property
    def constraints(self) -> tuple[ConstraintRow, ...]:
        """One row per null point, coefficients below 1e-17 dropped."""
        m, g = self.m, self.band_masses
        shifts = [(s, 2 * m) for s in range(4 * m + 1)]
        shifts += [(2 * m, s) for s in range(4 * m + 1) if s != 2 * m]
        rows = []
        for (sx, sy), rhs in zip(shifts, self.rhs.tolist()):
            vals = np.outer(g[sx], g[sy]).ravel()
            keep = np.nonzero(vals > _COEFF_DROP)[0]
            rows.append(ConstraintRow(keep, vals[keep], rhs))
        return tuple(rows)


@dataclass(frozen=True, eq=False)
class LpSolution:
    m_r: np.ndarray
    objective_value: float
    solver_status: str

    def __post_init__(self):
        if self.solver_status not in ("optimal", "infeasible", "iteration_limit"):
            raise ValueError(f"unknown solver status {self.solver_status!r}")


def _bands(edges: np.ndarray) -> list[Interval]:
    return [Interval(lo, hi) for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())]


def _outside_stub(alpha: float, threshold: float, b: float) -> RejectionRegion2D:
    return RejectionRegion2D(alpha, "joint_significance", [],
                             OutsideRule(threshold, (-b, b, -b, b)))


def build_lp(alpha: float, m: int, prior_sd: float = DEFAULT_PRIOR_SD) -> LpProblem:
    """Band edges, prior band weights, null-shift band masses and row bounds.

    The prior mix of a unit-variance coordinate over N(0, prior_sd^2) is
    N(0, 1 + prior_sd^2), so band weights are exact normal-cdf differences.
    The null grid holds the axis points (i*b/m, 0) and (0, i*b/m) for
    i = -2m..2m (origin listed once): 8m+1 rows reaching twice the box
    half-width. Each row demands the in-box rejection mass at that point
    stay within alpha minus the fixed outside-rule mass; a negative
    remainder is diagnosed here as infeasibility, naming the point.
    """
    alpha = _alpha(alpha)
    m = _count("m", m, 4)
    prior_sd = float(prior_sd)
    if not (math.isfinite(prior_sd) and prior_sd > 0.0):
        raise ValueError(f"prior_sd must be positive and finite, got {prior_sd!r}")

    threshold = std_normal_quantile(1.0 - alpha / 2.0)
    b = 2.0 * threshold
    h = b / m
    # band edges (i - m)*h, i = 0..2m: exactly negation-symmetric
    edges = (np.arange(2 * m + 1, dtype=float) - m) * h
    band_weights = np.diff(_cdf_array(edges / math.hypot(1.0, prior_sd)))
    offsets = np.arange(-2 * m, 2 * m + 1, dtype=float) * h
    band_masses = np.diff(_cdf_array(edges[None, :] - offsets[:, None]), axis=1)

    null_grid = [(float(d), 0.0) for d in offsets]
    null_grid += [(0.0, float(d)) for d in offsets if d != 0.0]
    rhs = alpha - analytic_power_batch(_outside_stub(alpha, threshold, b), np.array(null_grid))
    k = int(np.argmin(rhs))
    if rhs[k] < 0.0:
        raise ValueError(
            f"infeasible at null point {null_grid[k]}: the outside rule "
            f"already spends {alpha - rhs[k]:.6g} > alpha={alpha}")

    return LpProblem(edges, band_weights, band_masses, rhs, tuple(null_grid),
                     alpha, m, b, prior_sd)


_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible"}


def _cell_orbits(m: int) -> np.ndarray:
    """D4 orbit number, 0 .. m(m+1)/2 - 1, of each of the 4m^2 cells.

    Negation maps band i to band 2m-1-i, so min(i, 2m-1-i) names the band
    up to sign; the x<->y swap makes the cell's pair of folded bands
    unordered. Orbits are numbered row by row over the upper triangle.
    """
    band = np.arange(2 * m)
    fold = np.minimum(band, 2 * m - 1 - band)
    lo = np.minimum.outer(fold, fold)
    hi = np.maximum.outer(fold, fold)
    return (lo * (2 * m + 1 - lo) // 2 + hi - lo).ravel()


def _orbit_sums(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of the cell coefficients u[i]*v[j] over each D4 orbit.

    ``u`` and ``v`` hold 2m band values on their last axis. Folding band i
    onto band 2m-1-i gives U and V; orbit (lo, hi), numbered as in
    :func:`_cell_orbits`, sums U[lo]*V[hi] + U[hi]*V[lo], once if lo == hi.
    """
    m = u.shape[-1] // 2
    fu = u[..., :m] + u[..., :m - 1:-1]
    fv = v[..., :m] + v[..., :m - 1:-1]
    lo, hi = np.triu_indices(m)
    return fu[..., lo] * fv[..., hi] + np.where(lo == hi, 0.0, fu[..., hi] * fv[..., lo])


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve by sparse dual simplex on the D4 cell orbits; deterministic.

    The prior, the null grid and the type-1 rows of a :func:`build_lp`
    problem are invariant under sign flips and the x<->y swap, so the orbit
    average of any optimum is again feasible and optimal. The solve
    therefore runs over m(m+1)/2 orbit variables and the 2m+1 rows at the
    null points (d, 0) with d >= 0, one per null-point orbit; each kept
    row's coefficients and the objective are summed over every orbit
    straight from the band factors, and the orbit values are broadcast back
    to all 4m^2 cells.

    Each folded row is pre-scaled so its largest coefficient is 1 (an exact
    reformulation) because the raw rows are uniformly tiny and the solver's
    own equilibration then leaves ~1e-7 feasibility slop in original units.
    HiGHS also drops matrix entries below 1e-9; on the unfolded rows that
    loses their tails and breaks the full rows by ~1e-10, while the folded
    solution holds every full row to ~1e-15 at m=65. Infeasibility and
    iteration limits are reported in the status, never masked.
    """
    m = problem.m
    shapes = (problem.edges.shape, problem.band_weights.shape, problem.band_masses.shape,
              problem.rhs.shape, len(problem.null_grid))
    if shapes != ((2 * m + 1,), (2 * m,), (4 * m + 1, 2 * m), (8 * m + 1,), 8 * m + 1):
        raise ValueError("problem does not have the band factors and null grid of build_lp")
    # null points (d, 0) with d >= 0 are shifts 2m..4m, the first of them d = 0
    at_zero = problem.band_masses[2 * m:]
    folded = _orbit_sums(at_zero, at_zero[0])
    scales = folded.max(axis=1)
    scales[scales == 0.0] = 1.0
    a_ub = scipy.sparse.csr_matrix(folded / scales[:, None])
    del folded  # the dense rows would otherwise sit through the solve's memory peak
    b_ub = problem.rhs[2 * m:4 * m + 1] / scales

    res = scipy.optimize.linprog(
        -_orbit_sums(problem.band_weights, problem.band_weights), A_ub=a_ub, b_ub=b_ub,
        bounds=(0.0, 1.0), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    status = _STATUS.get(res.status)
    if status is None:
        raise RuntimeError(f"solver failed: {res.message}")
    if status != "optimal":
        return LpSolution(np.zeros(4 * m * m), math.nan, status)
    m_r = np.asarray(res.x)[_cell_orbits(m)]
    return LpSolution(m_r, candidate_objective(problem, m_r), "optimal")


def js_restricted_candidate(problem: LpProblem) -> np.ndarray:
    """m_r = 1 exactly on cells contained in the JS region within the box.

    A cell lies in the JS region when both of its bands lie in |z| >= b/2.
    Feasible by construction (the candidate's in-box mass plus the outside
    mass is at most the full JS rejection probability, which is at most
    alpha on the null axes), so its objective upper-bounds the optimum.
    """
    tail = _in_tail(problem.edges, problem.b / 2.0)
    return np.outer(tail, tail).ravel().astype(float)


def candidate_objective(problem: LpProblem, m_r) -> float:
    """Bayes objective sum_r (1 - m_r)*c_r of any candidate assignment."""
    m_r = np.asarray(m_r, dtype=float)
    total = float(np.sum(problem.cell_weights))
    return total + float(problem.objective @ m_r)


def assemble_bayes_region(problem: LpProblem, solution: LpSolution,
                          derandomize: bool = False) -> RejectionRegion2D:
    """Region document for a solved problem.

    Cells with negligible probability are dropped; the outside rule pins
    the joint-significance behaviour beyond the box explicitly so dropped
    cells cannot shrink its extent. With ``derandomize`` every fractional
    cell is removed and near-one cells keep their solved probability, so
    the derandomized region never rejects more than the randomized one.
    """
    if solution.solver_status != "optimal":
        raise ValueError(f"cannot assemble from a {solution.solver_status} solution")
    n_bands = 2 * problem.m
    if len(solution.m_r) != n_bands * n_bands:
        raise ValueError("solution length does not match the cell grid")
    p = np.minimum(np.asarray(solution.m_r, dtype=float), 1.0)
    # NaN is kept, so the cell refuses it
    keep = np.flatnonzero(~(p < (_DEGENERATE if derandomize else _CELL_DROP)))
    bands = _bands(problem.edges)
    i, j = np.divmod(keep, n_bands)
    cells = [WeightedRect(bands[a], bands[c], q)
             for a, c, q in zip(i.tolist(), j.tolist(), p[keep].tolist())]
    rule = OutsideRule(problem.b / 2.0, (-problem.b, problem.b, -problem.b, problem.b))
    return RejectionRegion2D(problem.alpha, "bayes", cells, rule)
