"""Discretized constrained-Bayes-risk linear program.

The box B = [-b, b]^2 with b twice the two-sided critical value is tiled
into 4m^2 congruent open cells, 2m bands per axis. Each cell gets an unknown
rejection probability m_r; the LP maximizes the prior-weighted rejection
mass subject to one type-1 constraint per null-axis grid point, with the
region outside B fixed to the joint-significance rule as tail bands on the
grid. Every objective coefficient and row is a product of per-band vectors,
stored as such. The LP is folded onto the D4 orbits of the cells and solved
in-library by a bounded dual simplex in numpy, with a feasibility and
optimality check on its final basis. Solving once and persisting the region
document is the intended workflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .regions import (Interval, RejectionRegion2D, WeightedRect, _js_outside,
                      analytic_power_batch)
from .statmath import _alpha, _cdf_array, _count, _positive, _two_sided_cutoff

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
    """One type-1 row: sum over listed cells of value*m_r <= rhs.

    The row is held as its two band factors: cell i*len(y_masses) + j has
    coefficient x_masses[i]*y_masses[j]. ``indices`` and ``values`` list the
    cells whose coefficient exceeds 1e-17, in row-major order; they are
    derived on each access and not kept.
    """

    x_masses: np.ndarray
    y_masses: np.ndarray
    rhs: float
    sense: str = "<="

    def _coefficients(self) -> np.ndarray:
        return np.outer(self.x_masses, self.y_masses).ravel()

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self._coefficients() > _COEFF_DROP)

    @property
    def values(self) -> np.ndarray:
        vals = self._coefficients()
        return vals[vals > _COEFF_DROP]


@dataclass(frozen=True, eq=False)
class LpProblem:
    """The LP as per-band factors: maximize the in-box prior mass rejected.

    Cell i*2m + j is x-band i times y-band j, band i being (edges[i],
    edges[i+1]), with prior mass band_weights[i]*band_weights[j]. Row s of
    ``band_masses`` is the N(d_s, 1) mass of each band at the axis shift
    d_s = (s - 2m)*b/m, s = 0..4m, so the type-1 row at null point (d_s, 0)
    has coefficient band_masses[s, i]*band_masses[2m, j] on cell (i, j), and
    the row at (0, d_s) the transpose. ``rhs`` is alpha minus the mass of
    the fixed tail bands, in ``null_grid`` order. Bounds 0 <= m_r <= 1 are
    implicit. ``cells`` and ``constraints``, the per-cell views kept for
    counting, are derived on first access, then cached; each constraint row
    holds two rows of ``band_masses`` (views, not copies), so the cached
    rows cost no per-cell memory.
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
    def cells(self) -> tuple[WeightedRect, ...]:
        """Cell geometry shells in cell order; their p field is a placeholder."""
        edges = self.edges.tolist()
        bands = [Interval(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        return tuple(WeightedRect(bx, by) for bx in bands for by in bands)

    @cached_property
    def constraints(self) -> tuple[ConstraintRow, ...]:
        """One row per null point, in ``null_grid`` order."""
        m, g = self.m, self.band_masses
        shifts = [(s, 2 * m) for s in range(4 * m + 1)]
        shifts += [(2 * m, s) for s in range(4 * m + 1) if s != 2 * m]
        return tuple(ConstraintRow(g[sx], g[sy], rhs)
                     for (sx, sy), rhs in zip(shifts, self.rhs.tolist()))


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Cell probabilities, objective and status of a solve, with the number
    of simplex pivots it took."""

    m_r: np.ndarray
    objective_value: float
    solver_status: str
    iterations: int = 0

    def __post_init__(self):
        if self.solver_status not in ("optimal", "infeasible", "iteration_limit"):
            raise ValueError(f"unknown solver status {self.solver_status!r}")


def _ladder(b: float, m: int) -> np.ndarray:
    """Band edges (i - m)*(b/m), i = 0..2m: exactly negation-symmetric, with
    the ends pinned to -b and b, which m*(b/m) can miss by an ulp, and for
    even m the middle points pinned to the JS cutoffs -b/2 and b/2 likewise,
    so the region's grid gets no sliver band beside them."""
    edges = (np.arange(2 * m + 1, dtype=float) - m) * (b / m)
    edges[0], edges[-1] = -b, b
    if m % 2 == 0:
        edges[m // 2], edges[3 * m // 2] = -b / 2.0, b / 2.0
    return edges


def _bayes_region(alpha: float, ladder: np.ndarray, p: np.ndarray, b: float) -> RejectionRegion2D:
    """p[i, j] on ladder cell (i, j) in the box [-b, b]^2, and outside it the
    joint-significance rule at b/2 as tail bands. As the cell compiler does,
    the grid keeps an inner ladder edge only where it bounds a cell with
    p != 0, and adds +-b, +-b/2 and +-inf."""
    t = b / 2.0
    kept = p != 0.0
    # ladder edge e bounds a kept band when band e-1 or band e is kept
    x_edges, y_edges = (
        np.unique(np.concatenate((ladder[np.convolve(k, [1, 1]) > 0],
                                  [-math.inf, -b, -t, t, b, math.inf])))
        for k in (kept.any(axis=1), kept.any(axis=0)))
    # grid band -> ladder band + 1; 0 and 2m + 1 index the zero pad outside the box
    ix, iy = (np.searchsorted(ladder, e[:-1], side="right") for e in (x_edges, y_edges))
    probs = np.pad(p, 1)[np.ix_(ix, iy)]
    probs += _js_outside(x_edges, y_edges, t, (-b, b, -b, b))
    return RejectionRegion2D.from_grid(alpha, "bayes", x_edges, y_edges, probs)


def build_lp(alpha: float, m: int, prior_sd: float = DEFAULT_PRIOR_SD) -> LpProblem:
    """Band edges, prior band weights, null-shift band masses and row bounds.

    The prior mix of a unit-variance coordinate over N(0, prior_sd^2) is
    N(0, 1 + prior_sd^2), so band weights are exact normal-cdf differences.
    The null grid holds the axis points (i*b/m, 0) and (0, i*b/m) for
    i = -2m..2m (origin listed once): 8m+1 rows reaching twice the box
    half-width. Each row demands the in-box rejection mass at that point
    stay within alpha minus the mass of the fixed tail bands; a negative
    remainder is diagnosed here as infeasibility, naming the point.
    """
    alpha = _alpha(alpha)
    m = _count("m", m, 4)
    prior_sd = _positive("prior_sd", prior_sd)

    b = 2.0 * _two_sided_cutoff(alpha)
    edges = _ladder(b, m)
    band_weights = np.diff(_cdf_array(edges / math.hypot(1.0, prior_sd)))
    offsets = np.arange(-2 * m, 2 * m + 1, dtype=float) * (b / m)
    band_masses = np.diff(_cdf_array(edges[None, :] - offsets[:, None]), axis=1)

    null_grid = [(float(d), 0.0) for d in offsets]
    null_grid += [(0.0, float(d)) for d in offsets if d != 0.0]
    # the fixed mass is the power of the region with no cell in the box
    empty = _bayes_region(alpha, edges, np.zeros((2 * m, 2 * m)), b)
    rhs = alpha - analytic_power_batch(empty, np.array(null_grid))
    k = int(np.argmin(rhs))
    if rhs[k] < 0.0:
        raise ValueError(
            f"infeasible at null point {null_grid[k]}: the tail bands outside the box "
            f"already spend {alpha - rhs[k]:.6g} > alpha={alpha}")

    return LpProblem(edges, band_weights, band_masses, rhs, tuple(null_grid),
                     alpha, m, b, prior_sd)


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
    out = fu[..., lo]
    out *= fv[..., hi]
    cross = fu[..., hi]
    cross *= fv[..., lo]
    cross[..., lo == hi] = 0.0
    out += cross
    return out


_MAX_ITERATIONS = 5000
# pivots between fresh inverses of the basis
_REFACTOR = 50
# primal and dual feasibility in scaled units; the loop aims lower than the
# certificate so that rounding in the updated inverse cannot fail it
_LOOP_TOL = 1e-14
_CERT_TOL = 1e-12
# a skipped ratio-test entry moves its reduced cost by at most this per unit
# of dual step, well inside the certificate
_PIVOT_TOL = 1e-13


def _dual_simplex(a: np.ndarray, rhs: np.ndarray, gain: np.ndarray):
    """Maximize gain @ x subject to a @ x <= rhs and 0 <= x <= 1, gain > 0.

    Bounded dual simplex on [a | I], the slack columns s >= 0 unbounded
    above. Every x starts at its upper bound 1 with the slacks basic: with a
    positive gain that basis is dual feasible, so no phase 1 is needed. Each
    step the most infeasible basic row leaves for its violated bound, and a
    bound-flipping ratio test flips every boxed column whose breakpoint it
    passes before the column that enters. The basis inverse takes rank-1
    updates and is rebuilt every ``_REFACTOR`` pivots; basic values and
    reduced costs are recomputed from it each step. Returns (x, status,
    iterations), x None unless the status is "optimal".
    """
    k, n = a.shape
    full = np.hstack((a, np.eye(k)))
    cost = np.concatenate((-gain / gain.max(), np.zeros(k)))
    upper = np.concatenate((np.ones(n), np.full(k, np.inf)))
    # each nonbasic column's value, 0 or its upper bound; 0 on basic columns
    value = np.concatenate((np.ones(n), np.zeros(k)))
    basis = np.arange(n, n + k)
    binv = np.eye(k)
    iterations = 0
    while True:
        x_b = binv @ (rhs - a @ value[:n])
        infeas = np.maximum(-x_b, x_b - upper[basis])
        r = int(np.argmax(infeas))
        if infeas[r] <= _LOOP_TOL:
            break
        if iterations == _MAX_ITERATIONS:
            return None, "iteration_limit", iterations
        iterations += 1
        # the leaving variable moves to its violated bound, and each reduced
        # cost moves by step * alpha_r[j] for a dual step >= 0
        sign = 1.0 if x_b[r] < 0.0 else -1.0
        alpha_r = sign * (binv[r] @ full)
        reduced = cost - (cost[basis] @ binv) @ full
        at_upper = value > 0.0
        nonbasic = np.ones(n + k, dtype=bool)
        nonbasic[basis] = False
        cand = np.flatnonzero(nonbasic & np.where(at_upper, alpha_r > _PIVOT_TOL,
                                                    alpha_r < -_PIVOT_TOL))
        ratio = np.maximum(np.where(at_upper[cand], -reduced[cand], reduced[cand]), 0.0)
        cand = cand[np.argsort(ratio / np.abs(alpha_r[cand]), kind="stable")]
        # the dual objective keeps rising while this slope stays positive
        slope = infeas[r] - np.cumsum(np.abs(alpha_r[cand]) * upper[cand])
        passed = np.flatnonzero(slope <= 0.0)
        if len(passed) == 0:
            return None, "infeasible", iterations
        flipped, q = cand[:passed[0]], cand[passed[0]]
        value[flipped] = upper[flipped] - value[flipped]
        value[q] = 0.0
        value[basis[r]] = 0.0 if sign > 0.0 else upper[basis[r]]
        column = binv @ full[:, q]
        pivot_row = binv[r] / column[r]
        binv -= np.outer(column, pivot_row)
        binv[r] = pivot_row
        basis[r] = q
        if iterations % _REFACTOR == 0:
            binv = np.linalg.inv(full[:, basis])

    # certificate: fresh basic values within their bounds, and each reduced
    # cost signed for its column's bound
    basic_matrix = full[:, basis]
    x_b = np.linalg.solve(basic_matrix, rhs - a @ value[:n])
    reduced = cost - np.linalg.solve(basic_matrix.T, cost[basis]) @ full
    reduced[basis] = 0.0
    if (np.max(np.maximum(-x_b, x_b - upper[basis])) > _CERT_TOL
            or np.max(np.where(value > 0.0, reduced, -reduced)) > _CERT_TOL):
        raise RuntimeError("solver failed: the final basis is not certified optimal")
    value[basis] = x_b
    return value[:n], "optimal", iterations


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve by bounded dual simplex on the D4 cell orbits; deterministic.

    The prior, the null grid and the type-1 rows of a :func:`build_lp`
    problem are invariant under sign flips and the x<->y swap, so the orbit
    average of any optimum is again feasible and optimal. The solve
    therefore runs over m(m+1)/2 orbit variables and the 2m+1 rows at the
    null points (d, 0) with d >= 0, one per null-point orbit; each kept
    row's coefficients and the objective are summed over every orbit
    straight from the band factors, and the orbit values are broadcast back
    to all 4m^2 cells.

    Each folded row is pre-scaled so its largest coefficient is 1 (an exact
    reformulation): the raw rows are uniformly tiny, and in scaled units one
    absolute feasibility tolerance (1e-12, checked on the final basis) means
    the same for every row. A final basis that fails that check raises
    ``RuntimeError``; infeasibility and the iteration cap are reported in
    the status, never masked.
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
    folded /= scales[:, None]
    x, status, iterations = _dual_simplex(
        folded, problem.rhs[2 * m:4 * m + 1] / scales,
        _orbit_sums(problem.band_weights, problem.band_weights))
    if status != "optimal":
        return LpSolution(np.zeros(4 * m * m), math.nan, status, iterations)
    m_r = x[_cell_orbits(m)]
    return LpSolution(m_r, candidate_objective(problem, m_r), "optimal", iterations)


def js_restricted_candidate(problem: LpProblem) -> np.ndarray:
    """m_r = 1 exactly on cells contained in the JS region within the box.

    A cell lies in the JS region when both of its bands lie in |z| >= b/2.
    Feasible by construction (the candidate's in-box mass plus the outside
    mass is at most the full JS rejection probability, which is at most
    alpha on the null axes), so its objective upper-bounds the optimum.
    """
    return _js_outside(problem.edges, problem.edges, problem.b / 2.0, None).ravel().astype(float)


def candidate_objective(problem: LpProblem, m_r) -> float:
    """Bayes objective sum_r (1 - m_r)*c_r of any candidate assignment, c_r
    the cell's prior mass: the in-box prior mass not rejected."""
    w = problem.band_weights
    grid = np.asarray(m_r, dtype=float).reshape(len(w), len(w))
    return float(w.sum() ** 2 - w @ grid @ w)


def assemble_bayes_region(problem: LpProblem, solution: LpSolution,
                          derandomize: bool = False) -> RejectionRegion2D:
    """Region document for a solved problem, written straight onto its grid.

    Cells with negligible probability are zeroed; the grid's tail bands pin
    the joint-significance behaviour beyond the box explicitly, so zeroed
    cells cannot shrink its extent. With ``derandomize`` every fractional
    cell is zeroed and near-one cells keep their solved probability, so the
    derandomized region never rejects more than the randomized one.
    """
    if solution.solver_status != "optimal":
        raise ValueError(f"cannot assemble from a {solution.solver_status} solution")
    n_bands = 2 * problem.m
    if len(solution.m_r) != n_bands * n_bands:
        raise ValueError("solution length does not match the cell grid")
    p = np.minimum(np.asarray(solution.m_r, dtype=float), 1.0).reshape(n_bands, n_bands)
    # NaN is kept, so from_grid refuses it
    p[p < (_DEGENERATE if derandomize else _CELL_DROP)] = 0.0
    return _bayes_region(problem.alpha, problem.edges, p, problem.b)
