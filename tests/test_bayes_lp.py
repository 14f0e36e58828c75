"""LP assembly, solving, and region extraction for the Bayes-risk test."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from scipy.special import ndtri

from compnull import bayes_lp
from compnull.bayes_lp import (
    LpSolution,
    _cell_orbits,
    _ladder,
    _orbit_sums,
    assemble_bayes_region,
    build_lp,
    candidate_objective,
    js_restricted_candidate,
    solve_lp,
)
from compnull.regions import (OutsideRule, RejectionRegion2D, WeightedRect, analytic_power,
                              analytic_power_batch, serialize)
from compnull.statmath import Interval, _cdf_array, std_normal_cdf

# mpmath, 50 digits
B_AT_005 = 3.9199279690801085          # twice the 0.025 upper-tail cutoff
PRIOR_W_HALF_15 = 0.1603641596988097   # band (0.5, 1.5) mixed over sd-2 prior
# _unfolded_objective(build_lp(0.05, 65)); the unfolded solve takes ~18 s
UNFOLDED_OPTIMUM_M65 = 0.7312595167020794


@pytest.fixture(scope="module")
def solved12():
    problem = build_lp(0.05, 12)
    return problem, solve_lp(problem)


def _unfolded_objective(problem):
    """Reference solve over all 4m^2 cells and all 8m+1 rows.

    Each row is scaled so its smallest coefficient is 1e-8. HiGHS drops
    matrix entries below 1e-9; scaled by its largest coefficient instead,
    a row loses its tail and the solver returns the optimum of a perturbed
    LP that breaks the true rows by ~1e-10.
    """
    rows = problem.constraints
    scales = np.array([row.values.min() / 1e-8 for row in rows])
    indptr = np.cumsum([0] + [len(row.indices) for row in rows])
    a_ub = scipy.sparse.csr_matrix(
        (np.concatenate([row.values / s for row, s in zip(rows, scales)]),
         np.concatenate([row.indices for row in rows]), indptr),
        shape=(len(rows), len(problem.cells)))
    b_ub = np.array([row.rhs for row in rows]) / scales
    w = problem.band_weights
    res = scipy.optimize.linprog(
        -np.outer(w, w).ravel(), A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return candidate_objective(problem, res.x)


def _folded_highs_objective(problem):
    """Reference HiGHS solve of the folded LP that solve_lp runs: the 2m+1
    orbit rows, each scaled so its largest coefficient is 1."""
    m = problem.m
    at_zero = problem.band_masses[2 * m:]
    folded = _orbit_sums(at_zero, at_zero[0])
    scales = folded.max(axis=1)
    res = scipy.optimize.linprog(
        -_orbit_sums(problem.band_weights, problem.band_weights), A_ub=folded / scales[:, None],
        b_ub=problem.rhs[2 * m:4 * m + 1] / scales, bounds=(0.0, 1.0), method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return candidate_objective(problem, res.x[_cell_orbits(m)])


def _prior_interval_weights(edges, prior_sd, grid_points):
    """Per-band prior-mixed probabilities by a Gauss-Legendre tensor factor on
    [-8 sd, 8 sd] (the discarded prior tail is below 1e-15): the oracle of the
    closed-form band weights."""
    nodes, weights = np.polynomial.legendre.leggauss(grid_points)
    half = 8.0 * prior_sd
    t = nodes * half
    w = weights * half * np.exp(-0.5 * (t / prior_sd) ** 2) / (
        prior_sd * math.sqrt(2.0 * math.pi))
    # band x node matrix of P{N(t,1) in band}
    g = _cdf_array(edges[1:, None] - t[None, :]) - _cdf_array(edges[:-1, None] - t[None, :])
    return g @ w


def _outside_stub(alpha, b):
    """The JS rule outside the box [-b, b]^2, painted by the cell compiler."""
    return RejectionRegion2D(alpha, "joint_significance", [],
                             OutsideRule(b / 2.0, (-b, b, -b, b)))


def _cell_list_region(problem, solution, derandomize=False):
    """The Bayes region compiled from kept cells plus the outside rule: the
    oracle of the grid that assemble_bayes_region writes."""
    p = np.minimum(np.asarray(solution.m_r, dtype=float), 1.0)
    keep = np.flatnonzero(~(p < (1.0 - 1e-9 if derandomize else 1e-9)))
    edges = problem.edges.tolist()
    bands = [Interval(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    i, j = np.divmod(keep, 2 * problem.m)
    cells = [WeightedRect(bands[a], bands[c], q)
             for a, c, q in zip(i.tolist(), j.tolist(), p[keep].tolist())]
    b = problem.b
    return RejectionRegion2D(problem.alpha, "bayes", cells,
                             OutsideRule(b / 2.0, (-b, b, -b, b)))


def _per_cell_rows(alpha, m):
    """The type-1 rows built point by point over the 4m^2 cells: the oracle of
    the rows derived from the band factors."""
    b = 2.0 * -ndtri(alpha / 2.0)
    h = b / m
    edges = (np.arange(2 * m + 1, dtype=float) - m) * h
    edges[0], edges[-1] = -b, b
    if m % 2 == 0:
        edges[m // 2], edges[3 * m // 2] = -b / 2.0, b / 2.0
    offsets = np.arange(-2 * m, 2 * m + 1, dtype=float) * h
    null_grid = [(float(d), 0.0) for d in offsets]
    null_grid += [(0.0, float(d)) for d in offsets if d != 0.0]
    g_at = {}
    for d in offsets:
        g_at[float(d)] = _cdf_array(edges[1:] - d) - _cdf_array(edges[:-1] - d)
    g0 = g_at[0.0]
    rule_mass = analytic_power_batch(_outside_stub(alpha, b), np.array(null_grid))
    rows = []
    for (dx, dy), mass in zip(null_grid, rule_mass):
        gx = g_at[dx] if dy == 0.0 else g0
        gy = g_at[dy] if dx == 0.0 else g0
        vals = np.outer(gx, gy).ravel()
        keep = np.nonzero(vals > 1e-17)[0]
        rows.append((keep, vals[keep], float(alpha - mass)))
    bands = [Interval(edges[i], edges[i + 1]) for i in range(2 * m)]
    cells = [(bx, by) for bx in bands for by in bands]
    return rows, cells, null_grid


def _per_cell_js_candidate(problem):
    """The JS candidate decided cell by cell from its interval endpoints."""
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


def _worst_row_excess(problem, m_r):
    return max(float(r.values @ m_r[r.indices] - r.rhs) for r in problem.constraints)


def test_build_validation():
    with pytest.raises(ValueError, match="alpha"):
        build_lp(0.0, 12)
    with pytest.raises(ValueError, match="m must be"):
        build_lp(0.05, 3)
    for m in (6.5, 8.0, "8", True):
        with pytest.raises(ValueError, match="m must be an integer"):
            build_lp(0.05, m)
    assert build_lp(0.05, np.int64(6)).m == 6
    for sd in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="prior_sd"):
            build_lp(0.05, 12, prior_sd=sd)
    with pytest.raises(ValueError, match="status"):
        LpSolution(np.zeros(1), 0.0, "bogus")


def test_box_half_width():
    problem = build_lp(0.05, 4)
    assert abs(problem.b - B_AT_005) < 1e-14
    assert problem.b == 2.0 * -ndtri(0.025)
    assert problem.prior_sd == 2.0


def test_prior_weights_match_closed_form():
    # the prior mix of a unit-variance coordinate is exactly normal with
    # scale sqrt(1 + sd^2); the problem's band weights are that closed form,
    # and quadrature agrees with it band by band
    # wide priors stretch the panel past the unit-width band features, so
    # they need more nodes
    for sd, nodes in ((0.7, 64), (2.0, 64), (3.5, 128)):
        sig = math.sqrt(1.0 + sd * sd)
        edges = np.array([-2.5, -1.0, -0.25, 0.5, 1.5, 4.0])
        got = _prior_interval_weights(edges, sd, nodes)
        want = [std_normal_cdf(hi / sig) - std_normal_cdf(lo / sig)
                for lo, hi in zip(edges[:-1], edges[1:])]
        assert np.max(np.abs(got - want)) < 1e-10

        problem = build_lp(0.05, 8, sd)
        want = [std_normal_cdf(hi / sig) - std_normal_cdf(lo / sig)
                for lo, hi in zip(problem.edges[:-1], problem.edges[1:])]
        assert np.max(np.abs(problem.band_weights - want)) < 1e-15
        got = _prior_interval_weights(problem.edges, sd, nodes)
        assert np.max(np.abs(problem.band_weights - got)) < 1e-10
    single = _prior_interval_weights(np.array([0.5, 1.5]), 2.0, 64)
    assert abs(float(single[0]) - PRIOR_W_HALF_15) < 1e-10
    sig = math.sqrt(5.0)
    assert abs(std_normal_cdf(1.5 / sig) - std_normal_cdf(0.5 / sig) - PRIOR_W_HALF_15) < 1e-15


def test_build_lp_structure():
    problem = build_lp(0.1, 6)
    assert len(problem.constraints) == 8 * 6 + 1
    assert len(problem.cells) == 4 * 6 * 6
    assert len(problem.null_grid) == 8 * 6 + 1
    assert max(abs(x) for x, _ in problem.null_grid) == pytest.approx(2 * problem.b)

    # exact negation symmetry of the cell edges
    edges = sorted({c.x.lo for c in problem.cells} | {c.x.hi for c in problem.cells})
    assert len(edges) == 13
    for lo, hi in zip(edges, reversed(edges)):
        assert lo == -hi

    n = len(problem.cells)
    for row in problem.constraints:
        assert 0.0 <= row.rhs <= problem.alpha
        assert row.sense == "<="
        assert np.all(row.values > 0.0)
        assert np.all((row.indices >= 0) & (row.indices < n))
        assert len(np.unique(row.indices)) == len(row.indices)

    assert 0.0 < float(np.outer(problem.band_weights, problem.band_weights).sum()) < 1.0
    # the per-cell views are derived once
    assert problem.constraints is problem.constraints and problem.cells is problem.cells


@pytest.mark.parametrize("alpha", [0.05, 0.1, 1.0 / 3.0])
@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10, 11, 12, 65])
def test_views_match_per_cell_construction(m, alpha):
    problem = build_lp(alpha, m)
    rows, cells, null_grid = _per_cell_rows(alpha, m)
    assert problem.null_grid == tuple(null_grid)
    assert [(c.x, c.y) for c in problem.cells] == cells
    assert len(problem.constraints) == len(rows)
    for row, (indices, values, rhs) in zip(problem.constraints, rows):
        assert np.array_equal(row.indices, indices)
        assert np.array_equal(row.values, values)
        assert row.rhs == rhs
    assert np.array_equal(js_restricted_candidate(problem), _per_cell_js_candidate(problem))


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10, 11, 12, 65])
def test_orbit_rows_match_bincount_fold(m):
    # the solve's folded rows (null points (d, 0), d >= 0) and objective,
    # against the unfolded views summed over each cell's D4 orbit; the views
    # drop coefficients below 1e-17, up to 8 per orbit, which the far rows
    # of a coarse grid (largest entry ~3e-5 at m=4) can resolve
    problem = build_lp(0.05, m)
    orbit, n_orbits = _cell_orbits(m), m * (m + 1) // 2
    masses = problem.band_masses
    for s in range(2 * m, 4 * m + 1):
        row = problem.constraints[s]
        want = np.bincount(orbit[row.indices], row.values, n_orbits)
        got = _orbit_sums(masses[s], masses[2 * m])
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max() + 8e-17
    w = problem.band_weights
    want = np.bincount(orbit, np.outer(w, w).ravel(), n_orbits)
    got = _orbit_sums(problem.band_weights, problem.band_weights)
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


@pytest.mark.parametrize("m", [4, 7, 65])
def test_orbit_sums_keep_the_bits_of_the_out_of_place_fold(m):
    # the in-place accumulation does the same IEEE operations, in the same
    # order, as this out-of-place expression
    rng = np.random.default_rng(m)
    lo, hi = np.triu_indices(m)
    for shape in ((2 * m,), (9, 2 * m)):
        u, v = rng.standard_normal(shape) * 1e-3, rng.standard_normal(shape)
        fu = u[..., :m] + u[..., :m - 1:-1]
        fv = v[..., :m] + v[..., :m - 1:-1]
        want = fu[..., lo] * fv[..., hi] + np.where(lo == hi, 0.0, fu[..., hi] * fv[..., lo])
        got = _orbit_sums(u, v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_solve_small_problem(solved12):
    problem, sol = solved12
    assert sol.solver_status == "optimal"
    assert sol.m_r.min() >= -1e-9 and sol.m_r.max() <= 1.0 + 1e-9
    worst = max(float(r.values @ sol.m_r[r.indices] - r.rhs)
                for r in problem.constraints)
    assert worst <= 1e-8
    assert sol.objective_value == pytest.approx(
        candidate_objective(problem, sol.m_r), rel=1e-12)


@pytest.mark.parametrize("m", [6, 8, 12])
def test_orbit_solve_matches_unfolded_lp(m):
    problem = build_lp(0.05, m)
    sol = solve_lp(problem)
    assert sol.solver_status == "optimal"
    assert abs(sol.objective_value - _unfolded_objective(problem)) <= 1e-12
    assert _worst_row_excess(problem, sol.m_r) <= 1e-12

    # cell (i, j) sits at row i, column j; D4 acts by flipping and transposing
    grid = sol.m_r.reshape(2 * m, 2 * m)
    for image in (grid[::-1], grid[:, ::-1], grid.T):
        assert np.array_equal(image, grid)


def test_orbit_solve_at_shipped_order():
    problem = build_lp(0.05, 65)
    # the rows hold band-factor views, so counting their nonzeros keeps no per-cell arrays
    tracemalloc.start()
    try:
        nnz = sum(len(r.indices) for r in problem.constraints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nnz == 7560104 and peak < 8e6
    for r in problem.constraints:
        assert np.shares_memory(r.x_masses, problem.band_masses)
        assert np.shares_memory(r.y_masses, problem.band_masses)
    sol = solve_lp(problem)
    assert (len(problem.cells), len(problem.constraints)) == (16900, 521)
    assert abs(sol.objective_value - UNFOLDED_OPTIMUM_M65) <= 1e-9
    assert _worst_row_excess(problem, sol.m_r) <= 1e-12
    # a count, not a timing: 42 pivots when written
    assert 0 < sol.iterations <= 100


@pytest.mark.parametrize("alpha", [0.2, 0.1, 0.05, 0.025, 0.01, 0.005, 0.001])
@pytest.mark.parametrize("m", [*range(4, 13), 16, 24, 40])
def test_solve_holds_every_row(alpha, m):
    # at alpha <= 0.01 a HiGHS solve of the folded LP breaks the unfolded
    # rows by up to 4.5e-10 (alpha = 0.001, m = 10) within its 1e-10 scaled
    # tolerance; solve_lp holds them, and its objective stays that close
    problem = build_lp(alpha, m)
    sol = solve_lp(problem)
    assert sol.solver_status == "optimal"
    assert _worst_row_excess(problem, sol.m_r) <= 1e-12
    assert abs(sol.objective_value - _folded_highs_objective(problem)) <= 1e-9


def test_solve_status_paths(solved12, monkeypatch):
    problem, _ = solved12
    rhs = problem.rhs.copy()
    rhs[2 * problem.m + 3] = -1e-6
    sol = solve_lp(dataclasses.replace(problem, rhs=rhs))
    assert sol.solver_status == "infeasible" and math.isnan(sol.objective_value)
    assert sol.iterations > 0
    with pytest.raises(ValueError, match="infeasible"):
        assemble_bayes_region(problem, sol)

    monkeypatch.setattr(bayes_lp, "_MAX_ITERATIONS", 1)
    sol = solve_lp(problem)
    assert (sol.solver_status, sol.iterations) == ("iteration_limit", 1)
    assert math.isnan(sol.objective_value)
    monkeypatch.undo()

    # a final basis outside the certificate's tolerance is a failure, not a status
    monkeypatch.setattr(bayes_lp, "_CERT_TOL", -1.0)
    with pytest.raises(RuntimeError, match="solver failed"):
        solve_lp(problem)


def test_solve_rejects_foreign_layout(solved12):
    problem, _ = solved12
    short = dataclasses.replace(problem, rhs=problem.rhs[:-1])
    with pytest.raises(ValueError, match="build_lp"):
        solve_lp(short)


def test_js_candidate_bounds_the_optimum(solved12):
    problem, sol = solved12
    cand = js_restricted_candidate(problem)
    assert set(np.unique(cand)) <= {0.0, 1.0}
    worst = max(float(r.values @ cand[r.indices] - r.rhs)
                for r in problem.constraints)
    assert worst <= 1e-9
    assert sol.objective_value <= candidate_objective(problem, cand) + 1e-9


def test_solver_is_deterministic(solved12):
    problem, sol = solved12
    again = solve_lp(problem)
    assert np.array_equal(again.m_r, sol.m_r)
    assert again.objective_value == sol.objective_value


def test_assembled_region(solved12):
    problem, sol = solved12
    region = assemble_bayes_region(problem, sol)
    assert region.kind == "bayes"
    assert region.alpha == problem.alpha
    assert region.outside_rule is None
    for cell in region.cells:
        assert 0.0 < cell.p <= 1.0
    # beyond the box the JS rule is tail bands on the grid: a cell outside
    # [-b, b]^2 rejects exactly when both of its bands lie in |z| >= b/2
    b, t = problem.b, problem.b / 2.0
    xs = list(zip(region.x_edges[:-1].tolist(), region.x_edges[1:].tolist()))
    ys = list(zip(region.y_edges[:-1].tolist(), region.y_edges[1:].tolist()))
    for i, (xlo, xhi) in enumerate(xs):
        for j, (ylo, yhi) in enumerate(ys):
            if -b <= xlo and xhi <= b and -b <= ylo and yhi <= b:
                continue
            in_tail = (xlo >= t or xhi <= -t) and (ylo >= t or yhi <= -t)
            assert region.probs[i, j] == (1.0 if in_tail else 0.0)

    # level condition on every constraint grid point, then on a 10x finer
    # axis grid (discretization leakage stays tiny)
    pw = analytic_power_batch(region, np.array(problem.null_grid))
    assert float(pw.max()) <= problem.alpha + 1e-6
    fine = np.arange(-20 * problem.m, 20 * problem.m + 1) * (problem.b / (10 * problem.m))
    pts = np.concatenate([np.stack([fine, np.zeros_like(fine)], 1),
                          np.stack([np.zeros_like(fine), fine], 1)])
    assert float(analytic_power_batch(region, pts).max()) <= problem.alpha + 2e-3

    assert analytic_power(region, (0.0, 0.0)) >= 0.04


def test_objective_matches_independent_bayes_risk(solved12):
    # closed-form prior-mixed cell masses give the in-box rejection mass;
    # the LP objective is the in-box prior mass minus that
    problem, sol = solved12
    region = assemble_bayes_region(problem, sol)
    sig = math.sqrt(1.0 + problem.prior_sd ** 2)

    def band(lo, hi):
        return std_normal_cdf(hi / sig) - std_normal_cdf(lo / sig)

    b = problem.b
    reject_in_box = sum(c.p * band(c.x.lo, c.x.hi) * band(c.y.lo, c.y.hi)
                        for c in region.cells
                        if -b <= c.x.lo and c.x.hi <= b and -b <= c.y.lo and c.y.hi <= b)
    p_box = (band(-problem.b, problem.b)) ** 2
    assert abs(sol.objective_value - (p_box - reject_in_box)) < 1e-6


def test_derandomized_region_is_dominated(solved12):
    problem, sol = solved12
    full = assemble_bayes_region(problem, sol)
    lean = assemble_bayes_region(problem, sol, derandomize=True)
    assert all(c.p >= 1.0 - 1e-9 for c in lean.cells)
    assert len(lean.cells) < len(full.cells)
    keys = {(c.x.lo, c.x.hi, c.y.lo, c.y.hi) for c in full.cells}
    assert all((c.x.lo, c.x.hi, c.y.lo, c.y.hi) in keys for c in lean.cells)
    for d in ((0.0, 0.0), (1.0, 1.0), (2.5, 1.5), (4.0, 4.0)):
        assert analytic_power(lean, d) <= analytic_power(full, d) + 1e-15


def test_assemble_rejects_bad_solutions(solved12):
    problem, sol = solved12
    bad = LpSolution(np.zeros(len(problem.cells)), math.nan, "infeasible")
    with pytest.raises(ValueError, match="infeasible"):
        assemble_bayes_region(problem, bad)
    short = LpSolution(sol.m_r[:5], sol.objective_value, "optimal")
    with pytest.raises(ValueError, match="length"):
        assemble_bayes_region(problem, short)
    # NaN counts as kept: at m = 12 no other cell keeps the edge between
    # bands 7 and 8, so a dropped edge would merge NaN's band into band 7
    m_r = sol.m_r.copy()
    m_r[8 * 24 + 8] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        assemble_bayes_region(problem, LpSolution(m_r, sol.objective_value, "optimal"))


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
def test_assembly_matches_cell_list_oracle(alpha):
    # the grid written from the band factors, against the kept cells plus the
    # outside rule compiled by the cell painter
    for m in [*range(4, 17), 39, 65]:
        problem = build_lp(alpha, m)
        sol = solve_lp(problem)
        for derandomize in (False, True):
            region = assemble_bayes_region(problem, sol, derandomize)
            want = _cell_list_region(problem, sol, derandomize)
            assert region == want, (m, derandomize)
            assert serialize(region) == serialize(want), (m, derandomize)
            assert region.outside_rule is None


def test_ladder_ends_are_exact():
    # m*(b/m) can miss b by an ulp (at 0.05 for m = 25 and 59, among 86 of
    # these 784 pairs); the pinned ladder ends exactly on the box
    for alpha in (0.05, 0.1, 0.2, 0.01):
        b = 2.0 * -ndtri(alpha / 2.0)
        for m in range(4, 200):
            edges = _ladder(b, m)
            assert (edges[0], edges[-1]) == (-b, b), (alpha, m)
            assert np.array_equal(edges, -edges[::-1]), (alpha, m)
            interior = (np.arange(1, 2 * m, dtype=float) - m) * (b / m)
            if m % 2 == 0:  # the middle points are pinned too
                interior[[m // 2 - 1, 3 * m // 2 - 1]] = -b / 2.0, b / 2.0
            assert np.array_equal(edges[1:-1], interior), (alpha, m)
        for m in (25, 59, 65):
            assert np.array_equal(build_lp(alpha, m).edges, _ladder(b, m))
    # an unpinned ladder leaves a 1-ulp sliver band at each box edge
    for m in (25, 59):
        problem = build_lp(0.05, m)
        region = assemble_bayes_region(problem, solve_lp(problem))
        assert np.diff(region.x_edges).min() > 1e-12
        assert np.diff(region.y_edges).min() > 1e-12


def test_even_ladders_meet_the_js_cutoff():
    # (m/2)*(b/m) can miss b/2 by an ulp (at 0.05 for m = 50, 100, 118, ...;
    # at 0.01 for m = 10, 20, ...); the grid then kept both points, a
    # 2.2e-16-wide band beside the JS cutoff
    for alpha in (0.05, 0.1, 0.2, 0.01):
        b = 2.0 * -ndtri(alpha / 2.0)
        for m in range(4, 200, 2):
            edges = _ladder(b, m)
            assert (edges[m // 2], edges[3 * m // 2]) == (-b / 2.0, b / 2.0), (alpha, m)
            region = bayes_lp._bayes_region(alpha, edges, np.ones((2 * m, 2 * m)), b)
            assert len(region.x_edges) == 2 * m + 3, (alpha, m)
            assert np.diff(region.x_edges).min() > 1e-3, (alpha, m)
    for alpha, m in ((0.05, 50), (0.01, 10)):
        problem = build_lp(alpha, m)
        region = assemble_bayes_region(problem, solve_lp(problem))
        assert np.diff(region.x_edges).min() > 1e-12
        assert np.diff(region.y_edges).min() > 1e-12


def test_odd_ladders_are_unpinned_inside():
    # odd m has no middle point, so the ladder at the shipped order is the
    # plain product with the ends pinned, bit for bit
    for alpha in (0.05, 0.01):
        b = 2.0 * -ndtri(alpha / 2.0)
        for m in range(5, 200, 2):
            want = (np.arange(2 * m + 1, dtype=float) - m) * (b / m)
            want[0], want[-1] = -b, b
            assert _ladder(b, m).tobytes() == want.tobytes(), (alpha, m)


def test_candidate_objective_matches_per_cell_sum():
    rng = np.random.default_rng(7)
    for m in (4, 12, 65):
        problem = build_lp(0.05, m)
        cell_weights = np.outer(problem.band_weights, problem.band_weights).ravel()
        for _ in range(5):
            m_r = rng.uniform(0.0, 1.0, 4 * m * m)
            want = float(np.sum(cell_weights * (1.0 - m_r)))
            assert abs(candidate_objective(problem, m_r) - want) <= 1e-15
