"""Discretized constrained-Bayes-risk linear program.

The box B = [-b, b]^2 with b twice the two-sided critical value is tiled
into 4m^2 congruent open cells. Each cell gets an unknown rejection
probability m_r; the LP maximizes the prior-weighted rejection mass subject
to one type-1 constraint per null-axis grid point, with the region outside
B fixed to the joint-significance rule. Solving once and persisting the
region document is the intended workflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse

from .regions import (Interval, OutsideRule, RejectionRegion2D, WeightedRect, _cdf_array,
                      analytic_power_batch)
from .statmath import std_normal_quantile

__all__ = [
    "LpProblem",
    "LpSolution",
    "ConstraintRow",
    "DEFAULT_PRIOR_SD",
    "DEFAULT_GRID_POINTS",
    "build_lp",
    "solve_lp",
    "js_restricted_candidate",
    "candidate_objective",
    "assemble_bayes_region",
]

DEFAULT_PRIOR_SD = 2.0
DEFAULT_GRID_POINTS = 64

# constraint coefficients below this are numerically zero and dropped
_COEFF_DROP = 1e-17
_CELL_DROP = 1e-9
_DEGENERATE = 1.0 - 1e-9


@dataclass(frozen=True)
class ConstraintRow:
    """One type-1 row: sum over listed cells of value*m_r <= rhs."""

    indices: np.ndarray
    values: np.ndarray
    rhs: float
    sense: str = "<="


@dataclass(frozen=True)
class LpProblem:
    """Minimization data: minimize objective @ m_r subject to the rows.

    ``objective`` holds the rewritten coefficients: the Bayes risk is
    sum_r (1 - m_r)*c_r + const, so the solver minimizes -c_r per cell.
    ``cells`` are geometry shells; their p field is a placeholder until a
    solution is assembled. Variable bounds 0 <= m_r <= 1 are implicit.
    """

    objective: np.ndarray
    constraints: tuple[ConstraintRow, ...]
    cells: tuple[WeightedRect, ...]
    null_grid: tuple[tuple[float, float], ...]
    alpha: float
    m: int
    b: float
    prior_sd: float

    @property
    def cell_weights(self) -> np.ndarray:
        """Prior probability that the statistic pair lands in each cell."""
        return -self.objective


@dataclass(frozen=True)
class LpSolution:
    m_r: np.ndarray
    objective_value: float
    solver_status: str

    def __post_init__(self):
        if self.solver_status not in ("optimal", "infeasible", "iteration_limit"):
            raise ValueError(f"unknown solver status {self.solver_status!r}")


def _prior_interval_weights(edges: np.ndarray, prior_sd: float,
                            grid_points: int) -> np.ndarray:
    """Per-band prior-mixed probabilities: integral over the prior of the
    chance that a unit-variance coordinate lands in each band.

    Gauss-Legendre tensor factor on [-8 sd, 8 sd]; the discarded prior tail
    is below 1e-15.
    """
    nodes, weights = np.polynomial.legendre.leggauss(grid_points)
    half = 8.0 * prior_sd
    t = nodes * half
    w = weights * half * np.exp(-0.5 * (t / prior_sd) ** 2) / (
        prior_sd * math.sqrt(2.0 * math.pi))
    # band x node matrix of P{N(t,1) in band}
    g = _cdf_array(edges[1:, None] - t[None, :]) - _cdf_array(edges[:-1, None] - t[None, :])
    return g @ w


def _outside_stub(alpha: float, threshold: float, b: float) -> RejectionRegion2D:
    return RejectionRegion2D(alpha, "joint_significance", [],
                             OutsideRule(threshold, (-b, b, -b, b)))


def build_lp(alpha: float, m: int, prior_sd: float = DEFAULT_PRIOR_SD,
             grid_points: int = DEFAULT_GRID_POINTS) -> LpProblem:
    """Assemble the cell grid, prior objective, and type-1 rows.

    The null grid holds the axis points (i*b/m, 0) and (0, i*b/m) for
    i = -2m..2m (origin listed once): 8m+1 rows reaching twice the box
    half-width. Each row demands the in-box rejection mass at that point
    stay within alpha minus the fixed outside-rule mass; a negative
    remainder is diagnosed here as infeasibility, naming the point.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    m = int(m)
    if m < 4:
        raise ValueError(f"m must be >= 4, got {m}")
    prior_sd = float(prior_sd)
    if prior_sd <= 0.0:
        raise ValueError(f"prior_sd must be positive, got {prior_sd!r}")
    grid_points = int(grid_points)
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")

    threshold = std_normal_quantile(1.0 - alpha / 2.0)
    b = 2.0 * threshold
    h = b / m
    # band edges (i - m)*h, i = 0..2m: exactly negation-symmetric
    edges = (np.arange(2 * m + 1, dtype=float) - m) * h
    bands = [Interval(edges[i], edges[i + 1]) for i in range(2 * m)]
    cells = tuple(WeightedRect(bx, by) for bx in bands for by in bands)

    w_band = _prior_interval_weights(edges, prior_sd, grid_points)
    weights = np.outer(w_band, w_band).ravel()
    objective = -weights

    stub = _outside_stub(alpha, threshold, b)
    offsets = np.arange(-2 * m, 2 * m + 1, dtype=float) * h
    null_grid = [(float(d), 0.0) for d in offsets]
    null_grid += [(0.0, float(d)) for d in offsets if d != 0.0]

    # per-axis-shift band probabilities, one row per unique shift
    g_at = {}
    for d in offsets:
        g_at[float(d)] = _cdf_array(edges[1:] - d) - _cdf_array(edges[:-1] - d)
    g0 = g_at[0.0]

    rule_mass = analytic_power_batch(stub, np.array(null_grid))
    rows = []
    for (dx, dy), mass in zip(null_grid, rule_mass):
        rhs = alpha - mass
        if rhs < 0.0:
            raise ValueError(
                f"infeasible at null point ({dx}, {dy}): the outside rule "
                f"already spends {alpha - rhs:.6g} > alpha={alpha}")
        gx = g_at[dx] if dy == 0.0 else g0
        gy = g_at[dy] if dx == 0.0 else g0
        vals = np.outer(gx, gy).ravel()
        keep = np.nonzero(vals > _COEFF_DROP)[0]
        rows.append(ConstraintRow(keep, vals[keep], float(rhs)))
    assert len(rows) == 8 * m + 1 and len(cells) == 4 * m * m

    return LpProblem(objective, tuple(rows), cells, tuple(null_grid),
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


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve by sparse dual simplex on the D4 cell orbits; deterministic.

    The prior, the null grid and the type-1 rows of a :func:`build_lp`
    problem are invariant under sign flips and the x<->y swap, so the orbit
    average of any optimum is again feasible and optimal. The solve
    therefore runs over m(m+1)/2 orbit variables and the 2m+1 rows at the
    null points (d, 0) with d >= 0, one per null-point orbit; each kept
    row's coefficients and the objective are summed over every orbit, and
    the orbit values are broadcast back to all 4m^2 cells.

    Each folded row is pre-scaled so its largest coefficient is 1 (an exact
    reformulation) because the raw rows are uniformly tiny and the solver's
    own equilibration then leaves ~1e-7 feasibility slop in original units.
    HiGHS also drops matrix entries below 1e-9; on the unfolded rows that
    loses their tails and breaks the full rows by ~1e-10, while the folded
    solution holds every full row to ~1e-15 at m=65. Infeasibility and
    iteration limits are reported in the status, never masked.
    """
    m = problem.m
    n = len(problem.cells)
    if n != 4 * m * m or len(problem.constraints) != 8 * m + 1:
        raise ValueError("problem does not have the cell grid and null grid of build_lp")
    orbit = _cell_orbits(m)
    n_orbits = m * (m + 1) // 2
    kept = [row for row, (dx, dy) in zip(problem.constraints, problem.null_grid)
            if dy == 0.0 and dx >= 0.0]
    folded = np.array([np.bincount(orbit[row.indices], row.values, n_orbits)
                       for row in kept])
    scales = folded.max(axis=1)
    scales[scales == 0.0] = 1.0
    a_ub = scipy.sparse.csr_matrix(folded / scales[:, None])
    b_ub = np.array([row.rhs for row in kept]) / scales

    res = scipy.optimize.linprog(
        np.bincount(orbit, problem.objective, n_orbits), A_ub=a_ub, b_ub=b_ub,
        bounds=(0.0, 1.0), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    status = _STATUS.get(res.status)
    if status is None:
        raise RuntimeError(f"solver failed: {res.message}")
    if status != "optimal":
        return LpSolution(np.zeros(n), math.nan, status)
    m_r = np.asarray(res.x)[orbit]
    return LpSolution(m_r, candidate_objective(problem, m_r), "optimal")


def js_restricted_candidate(problem: LpProblem) -> np.ndarray:
    """m_r = 1 exactly on cells contained in the JS region within the box.

    Feasible by construction (the candidate's in-box mass plus the outside
    mass is at most the full JS rejection probability, which is at most
    alpha on the null axes), so its objective upper-bounds the optimum.
    """
    threshold = problem.b / 2.0
    out = np.zeros(len(problem.cells))
    for i, cell in enumerate(problem.cells):
        if min(abs(cell.x.lo), abs(cell.x.hi)) >= threshold \
                and max(abs(cell.x.lo), abs(cell.x.hi)) > threshold \
                and min(abs(cell.y.lo), abs(cell.y.hi)) >= threshold \
                and max(abs(cell.y.lo), abs(cell.y.hi)) > threshold \
                and cell.x.lo * cell.x.hi >= 0.0 and cell.y.lo * cell.y.hi >= 0.0:
            out[i] = 1.0
    return out


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
    if len(solution.m_r) != len(problem.cells):
        raise ValueError("solution length does not match the cell grid")
    threshold = problem.b / 2.0
    kept = []
    for cell, p in zip(problem.cells, solution.m_r):
        p = float(min(p, 1.0))
        if p < _CELL_DROP:
            continue
        if derandomize and p < _DEGENERATE:
            continue
        kept.append(WeightedRect(cell.x, cell.y, p))
    rule = OutsideRule(threshold, (-problem.b, problem.b, -problem.b, problem.b))
    return RejectionRegion2D(problem.alpha, "bayes", kept, rule)
