"""Discretized constrained-Bayes-risk linear program.

The box B = [-b, b]^2 with b twice the two-sided critical value is tiled
into 4m^2 congruent open cells, 2m bands per axis. Each cell gets an unknown
rejection probability m_r; the LP maximizes the prior-weighted rejection
mass subject to one type-1 constraint per null-axis grid point, with the
region outside B fixed to the joint-significance rule as tail bands on the
grid. Every objective coefficient and row is a product of per-band vectors,
stored as such. The LP is folded onto the D4 orbits of the cells and solved
in-library by a bounded dual simplex in numpy, with a feasibility and
optimality check on its final basis. The simplex reads the folded rows
through their band factors and never forms the rows-by-orbits matrix, so a
solve's memory grows as m^2. Solving once and persisting the region document
is the intended workflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .regions import (_DEGENERATE, RejectionRegion2D, _CellView, _js_outside, _sorted_unique,
                      analytic_power_batch)
from .statmath import _alpha, _band_masses, _count, _positive, _two_sided_cutoff

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
_CELL_DROP = 1e-9  # cells below this are dropped; m_r may stray this far outside [0, 1]
# a solve's time grows as m^3 (the row scales read every coefficient): 0.26 s
# at m = 256, and its memory as m^2
_MAX_ORDER = 256


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
    counting, are made on first access, then cached: ``cells`` is a read-only
    sequence whose cells are built when read, and each constraint row holds
    two rows of ``band_masses`` (views, not copies), so neither costs
    per-cell memory.
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
    def cells(self) -> _CellView:
        """Cell geometry shells in cell order; their p field is a placeholder."""
        return _CellView(self.edges, self.edges)

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
        _sorted_unique(np.concatenate((ladder[np.convolve(k, [1, 1]) > 0],
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
    remainder is diagnosed here as infeasibility, naming the point. The
    order m runs from 4 to 256.
    """
    alpha = _alpha(alpha)
    m = _count("m", m, 4)
    if m > _MAX_ORDER:
        raise ValueError(f"order m={m} exceeds the limit of {_MAX_ORDER}")
    prior_sd = _positive("prior_sd", prior_sd)

    b = 2.0 * _two_sided_cutoff(alpha)
    edges = _ladder(b, m)
    band_weights = _band_masses(edges / math.hypot(1.0, prior_sd), 0.0)
    offsets = np.arange(-2 * m, 2 * m + 1, dtype=float) * (b / m)
    band_masses = _band_masses(edges, offsets)

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


def _row_scales(fold: np.ndarray) -> np.ndarray:
    """Largest orbit coefficient of each row of ``_orbit_sums(u, u[0])``, given
    the folded ``fold`` of ``u``, bit for bit; 1 for an all-zero row.

    Taken one band lo at a time over the orbits (lo, hi >= lo), so only a
    rows-by-m array exists at once; each coefficient is the same two
    products and one sum as in :func:`_orbit_sums`.
    """
    f0 = fold[0]
    scales = (fold * f0).max(axis=1)  # the diagonal orbits (i, i)
    for i in range(len(f0) - 1):
        t = fold[:, i + 1:] * f0[i]
        t += fold[:, i, None] * f0[i + 1:]
        np.maximum(scales, t.max(axis=1), out=scales)
    scales[scales == 0.0] = 1.0
    return scales


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
# candidates the ratio test sorts first; most pivots enter within them
_RATIO_TOP = 64


def _ratio_test(step, weight, slope):
    """Bound-flipping ratio test over candidates listed in column order.

    ``step`` holds each candidate's breakpoint and ``weight`` how much the
    dual slope falls once it is passed; ``slope`` is the slope at step 0.
    Taken in stable order of their steps, candidates are passed until the
    slope reaches 0 or below. Only a prefix of that order is sorted: every
    candidate whose step is at most the ``top``-th smallest, ties at that
    bound included, so the prefix is exactly that of the full stable sort.
    ``top`` starts at ``_RATIO_TOP`` and grows fourfold until the slope
    crosses 0 within it. Returns the positions of the passed candidates, in
    order, and of the entering one, or None when the slope stays positive
    past every candidate.
    """
    top = _RATIO_TOP
    while True:
        if top >= len(step):
            order = np.argsort(step, kind="stable")
        else:
            prefix = np.flatnonzero(step <= np.partition(step, top - 1)[top - 1])
            order = prefix[np.argsort(step[prefix], kind="stable")]
        passed = np.flatnonzero(slope - np.cumsum(weight[order]) <= 0.0)
        if len(passed):
            return order[:passed[0]], int(order[passed[0]])
        if len(order) == len(step):
            return None
        top *= 4


class _FoldedRows:
    """The scaled folded type-1 rows of :func:`solve_lp`, held as band factors.

    ``fold`` holds the sign-folded band masses at each kept row's null shift,
    the first row being the shift 0, and ``scales`` each row's scale. With
    F = fold / scales[:, None] and f0 = fold[0], row r's coefficient on orbit
    (lo, hi) is F[r, lo]*f0[hi] + [lo != hi]*F[r, hi]*f0[lo], so every product
    with the rows-by-orbits matrix ``a`` is taken through an m-vector and the
    matrix itself is never formed.
    """

    def __init__(self, fold: np.ndarray, scales: np.ndarray):
        m = fold.shape[1]
        self.f = fold / scales[:, None]
        self.lo, self.hi = np.triu_indices(m)
        # f0 at each orbit's other band; the lo-side term is 0 on the diagonal
        self.f0_hi = fold[0, self.hi]
        self.f0_lo = np.where(self.lo != self.hi, fold[0, self.lo], 0.0)
        self.shape = (fold.shape[0], len(self.lo))

    def row(self, w: np.ndarray) -> np.ndarray:
        """``w @ a``: g = w @ F, then g[lo]*f0[hi] + [lo != hi]*g[hi]*f0[lo]."""
        g = w @ self.f
        out = g[self.lo]
        out *= self.f0_hi
        out += g[self.hi] * self.f0_lo
        return out

    def times(self, x: np.ndarray) -> np.ndarray:
        """``a @ x``: F @ (X @ f0), X the symmetric m x m array of x by orbit;
        X @ f0 is summed band by band from the orbit entries."""
        m = self.f.shape[1]
        v = np.bincount(self.lo, x * self.f0_hi, m)
        v += np.bincount(self.hi, x * self.f0_lo, m)
        return self.f @ v

    def columns(self, q) -> np.ndarray:
        """``a[:, q]`` for an orbit number or an array of them."""
        out = self.f[:, self.lo[q]] * self.f0_hi[q]
        out += self.f[:, self.hi[q]] * self.f0_lo[q]
        return out


def _basic_matrix(a: _FoldedRows, basis: np.ndarray) -> np.ndarray:
    """Columns ``basis`` of [a | I]: column j < n of a, taken from its band
    factors, else unit vector j - n."""
    k, n = a.shape
    out = np.zeros((k, len(basis)))
    slack = basis >= n
    out[:, ~slack] = a.columns(basis[~slack])
    out[basis[slack] - n, np.flatnonzero(slack)] = 1.0
    return out


def _dual_simplex(a: _FoldedRows, rhs: np.ndarray, gain: np.ndarray):
    """Maximize gain @ x subject to a @ x <= rhs and 0 <= x <= 1, gain > 0.

    Bounded dual simplex on [a | I], the slack columns s >= 0 unbounded
    above; the identity block is never built, since a slack column is a unit
    vector and a nonbasic slack is always 0, and ``a`` is read only through
    its factored products (:class:`_FoldedRows`), so no pivot costs more than
    O(k*m + m^2) beyond the basis update. Every x starts at its upper
    bound 1 with the slacks basic: with a positive gain that basis is dual
    feasible, so no phase 1 is needed. Each step the most infeasible basic
    row leaves for its violated bound, and a bound-flipping ratio test
    (:func:`_ratio_test`) flips every boxed column whose breakpoint it
    passes before the column that enters. The basis inverse takes rank-1
    updates and is rebuilt every ``_REFACTOR`` pivots. The rhs residual of
    the nonbasic columns and the reduced costs are updated per pivot, from
    the columns that move and the pivot row, and recomputed from scratch at
    each rebuild. Once no row is infeasible the basis is certified from
    fresh solves; a basis that fails after pivots since its last fresh
    factorization is rebuilt from that factorization and the loop goes on,
    and one that fails right after it raises ``RuntimeError``. Returns
    (x, status, iterations), x None unless the status is "optimal".
    """
    k, n = a.shape
    cost = np.concatenate((-gain / gain.max(), np.zeros(k)))
    upper = np.concatenate((np.ones(n), np.full(k, np.inf)))
    # each nonbasic column's value, 0 or its upper bound; 0 on basic columns
    value = np.concatenate((np.ones(n), np.zeros(k)))
    basis = np.arange(n, n + k)
    nonbasic = np.concatenate((np.ones(n, dtype=bool), np.zeros(k, dtype=bool)))
    binv = np.eye(k)
    # rhs less the nonbasic columns at their values, so x_b = binv @ resid;
    # the all-slack basis has zero duals, so the reduced costs start at cost
    resid = rhs - a.times(value[:n])
    reduced = cost.copy()
    iterations = fresh = 0
    while True:
        x_b = binv @ resid
        infeas = np.maximum(-x_b, x_b - upper[basis])
        r = int(np.argmax(infeas))
        if infeas[r] <= _LOOP_TOL:
            # certificate: fresh basic values within their bounds, and each
            # reduced cost signed for its column's bound
            basic_matrix = _basic_matrix(a, basis)
            resid = rhs - a.times(value[:n])
            x_b = np.linalg.solve(basic_matrix, resid)
            duals = np.linalg.solve(basic_matrix.T, cost[basis])
            reduced = cost - np.concatenate((a.row(duals), duals))
            reduced[basis] = 0.0
            if (np.max(np.maximum(-x_b, x_b - upper[basis])) <= _CERT_TOL
                    and np.max(np.where(value > 0.0, reduced, -reduced)) <= _CERT_TOL):
                break
            if iterations == fresh:
                raise RuntimeError("solver failed: the final basis is not certified optimal")
            binv, fresh = np.linalg.inv(basic_matrix), iterations
            continue
        if iterations == _MAX_ITERATIONS:
            return None, "iteration_limit", iterations
        iterations += 1
        # the leaving variable moves to its violated bound, and each reduced
        # cost moves by step * alpha_r[j] for a dual step >= 0
        sign = 1.0 if x_b[r] < 0.0 else -1.0
        alpha_r = np.concatenate((a.row(binv[r]), binv[r]))
        alpha_r *= sign
        at_upper = value > 0.0
        cand = np.flatnonzero(nonbasic & np.where(at_upper, alpha_r > _PIVOT_TOL,
                                                    alpha_r < -_PIVOT_TOL))
        scale = np.abs(alpha_r[cand])
        step = np.maximum(np.where(at_upper[cand], -reduced[cand], reduced[cand]), 0.0)
        step /= scale
        # the dual objective keeps rising while its slope stays positive
        found = _ratio_test(step, scale * upper[cand], infeas[r])
        if found is None:
            return None, "infeasible", iterations
        flipped, q = cand[found[0]], int(cand[found[1]])
        reduced += step[found[1]] * alpha_r
        if len(flipped):
            # flipped columns are boxed, so structural
            change = np.zeros(n)
            change[flipped] = upper[flipped] - 2.0 * value[flipped]
            resid -= a.times(change)
            value[flipped] += change[flipped]
        # a nonbasic slack is 0, so only structural columns move the residual
        leaving = int(basis[r])
        if q < n:
            a_q = a.columns(q)
            resid += a_q * value[q]
            column = binv @ a_q
        else:
            column = binv[:, q - n].copy()
        value[q] = 0.0
        value[leaving] = 0.0 if sign > 0.0 else upper[leaving]
        if leaving < n:
            resid -= a.columns(leaving) * value[leaving]
        pivot_row = binv[r] / column[r]
        binv -= column[:, None] * pivot_row
        binv[r] = pivot_row
        basis[r] = q
        nonbasic[q], nonbasic[leaving] = False, True
        reduced[basis] = 0.0
        if iterations % _REFACTOR == 0:
            binv, fresh = np.linalg.inv(_basic_matrix(a, basis)), iterations
            resid = rhs - a.times(value[:n])
            duals = cost[basis] @ binv
            reduced = cost - np.concatenate((a.row(duals), duals))
            reduced[basis] = 0.0

    value[basis] = x_b
    return value[:n], "optimal", iterations


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve by bounded dual simplex on the D4 cell orbits; deterministic.

    The prior, the null grid and the type-1 rows of a :func:`build_lp`
    problem are invariant under sign flips and the x<->y swap, so the orbit
    average of any optimum is again feasible and optimal. The solve
    therefore runs over m(m+1)/2 orbit variables and the 2m+1 rows at the
    null points (d, 0) with d >= 0, one per null-point orbit, and the orbit
    values are broadcast back to all 4m^2 cells. The objective is summed
    over every orbit straight from the band factors; the rows are held as
    their sign-folded band masses and scales (:class:`_FoldedRows`), so a
    row is one m-vector and a scale, and no rows-by-orbits array is formed.

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
    fold = at_zero[:, :m] + at_zero[:, :m - 1:-1]
    scales = _row_scales(fold)
    x, status, iterations = _dual_simplex(
        _FoldedRows(fold, scales),
        problem.rhs[2 * m:4 * m + 1] / scales,
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
    the cell's prior mass: the in-box prior mass not rejected. ``m_r`` is
    checked as by :func:`assemble_bayes_region`."""
    w = problem.band_weights
    return float(w.sum() ** 2 - w @ _cell_grid(problem, m_r) @ w)


def _cell_grid(problem: LpProblem, m_r) -> np.ndarray:
    """A copy of ``m_r`` as the (2m, 2m) cell grid; a wrong length, NaN or an entry
    more than _CELL_DROP outside [0, 1] raises ValueError naming the first bad cell."""
    n = 2 * problem.m
    p = np.array(m_r, dtype=float).reshape(-1)
    if len(p) != n * n:
        raise ValueError(f"m_r length {len(p)} does not match the {n * n} cells of the grid")
    bad = np.flatnonzero(~((p >= -_CELL_DROP) & (p <= 1.0 + _CELL_DROP)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"m_r[{k}] = {float(p[k])!r}: each cell probability must lie in "
                         "[0, 1] (NaN is not allowed)")
    return p.reshape(n, n)


def assemble_bayes_region(problem: LpProblem, solution: LpSolution,
                          derandomize: bool = False) -> RejectionRegion2D:
    """Region document for a solved problem, written straight onto its grid.

    Cells with negligible probability are zeroed; the grid's tail bands pin
    the joint-significance behaviour beyond the box explicitly, so zeroed
    cells cannot shrink its extent. With ``derandomize`` every fractional
    cell is zeroed and near-one cells keep their solved probability, so the
    derandomized region never rejects more than the randomized one. An
    ``m_r`` of the wrong length, with NaN or with an entry more than 1e-9
    outside [0, 1] raises ValueError naming the first bad cell.
    """
    if solution.solver_status != "optimal":
        raise ValueError(f"cannot assemble from a {solution.solver_status} solution")
    p = np.minimum(_cell_grid(problem, solution.m_r), 1.0)
    p[p < (_DEGENERATE if derandomize else _CELL_DROP)] = 0.0
    return _bayes_region(problem.alpha, problem.edges, p, problem.b)
