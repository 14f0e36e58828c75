"""design: reproduce the shipped Bayes region from scratch.

Build, solve and assemble the alpha=0.05, m=65 LP (the configuration
behind the shipped fixture), score the JS candidate, round-trip the region
document, and certify exact size on a fine grid of both null axes.
"""

from __future__ import annotations

import numpy as np

import compnull as cn
from common import check

WHY = ("the LP build and solve and the region write path (serialize, certify) dominate; "
       "power only reads regions")
BYPASSES = ("pvalues", "latin3", "mediation", "simulate", "cli")
SIZES = {"m": 65, "certify_points": 1201}
TINY = {"m": 8, "certify_points": 61}

ALPHA = 0.05
CERTIFY_HALF_WIDTH = 12.0


def setup(seed: int, sizes: dict, tr) -> dict:
    rng = np.random.default_rng(seed)
    k = sizes["certify_points"]
    step = 2.0 * CERTIFY_HALF_WIDTH / (k - 1)
    axis = np.linspace(-CERTIFY_HALF_WIDTH, CERTIFY_HALF_WIDTH, k) + rng.uniform(-0.5, 0.5) * step
    zero = np.zeros(k)
    certify = np.vstack([np.column_stack([axis, zero]), np.column_stack([zero, axis])])
    return {"sizes": sizes, "seed": seed, "certify": certify}


def body(state: dict, tr) -> dict:
    problem = tr.call("bayes_lp.build", cn.build_lp, ALPHA, state["sizes"]["m"])
    tr.add("bayes_lp.vars", len(problem.cells))
    tr.add("bayes_lp.rows", len(problem.constraints))
    tr.add("bayes_lp.nnz", sum(len(row.indices) for row in problem.constraints))
    solution = tr.call("bayes_lp.solve", cn.solve_lp, problem)
    region = tr.call("bayes_lp.assemble", cn.assemble_bayes_region, problem, solution)
    with tr.span("bayes_lp.candidate"):
        candidate = cn.candidate_objective(problem, cn.js_restricted_candidate(problem))

    doc = tr.call("regions.serialize", cn.serialize, region)
    tr.add("regions.doc_bytes", len(doc.encode()))
    reloaded = tr.call("regions.deserialize", cn.deserialize, doc)
    certified = tr.call("regions.certify", cn.analytic_power_batch, reloaded, state["certify"])
    tr.add("regions.certify_shifts", len(state["certify"]))
    return {"problem": problem, "solution": solution, "candidate": candidate,
            "region": region, "reloaded": reloaded, "certified": certified}


def operations(state: dict, out: dict) -> int:
    # build, solve, assemble, candidate, serialize, deserialize, then one per
    # certified shift
    return 6 + len(out["certified"])


def sup_null_excess(out) -> float:
    """Largest exact type-1 error on the certification grid, minus alpha.

    A readout of a known defect (the LP enforces size only on its own grid);
    it is reported, never gated.
    """
    return float(np.max(out["certified"]) - ALPHA)


def traced_only(state: dict, out: dict, tr) -> None:
    """Nothing beyond the traced body."""


# -- output checks ------------------------------------------------------------

def checks(state: dict, out: dict) -> list[dict]:
    return [check_status(out), check_objective(out), check_round_trip(out),
            check_null_grid(out)]


def check_status(out):
    status = out["solution"].solver_status
    return check("lp_optimal", status == "optimal", f"status {status}")


def check_objective(out):
    obj, cand = out["solution"].objective_value, out["candidate"]
    return check("beats_js_candidate", obj <= cand + 1e-12,
                 f"LP objective {obj!r}, JS candidate {cand!r}")


def check_round_trip(out):
    return check("round_trip", out["reloaded"] == out["region"],
                 f"{len(out['region'].cells)} cells")


def check_null_grid(out):
    problem = out["problem"]
    size = cn.analytic_power_batch(out["reloaded"], np.array(problem.null_grid))
    worst = float(np.max(size) - problem.alpha)
    return check("null_grid_size", worst <= 1e-9,
                 f"{len(size)} LP null-grid points, max size - alpha = {worst:.3g}")


def _status_corrupted(out):
    solution = cn.LpSolution(out["solution"].m_r, out["solution"].objective_value, "infeasible")
    return dict(out, solution=solution)


def _objective_corrupted(out):
    s = out["solution"]
    return dict(out, solution=cn.LpSolution(s.m_r, out["candidate"] * 1.01, s.solver_status))


def _round_trip_corrupted(out):
    cells = list(out["reloaded"].cells)
    cells[0] = cn.WeightedRect(cells[0].x, cells[0].y, 0.5 if cells[0].p != 0.5 else 1.0)
    r = out["reloaded"]
    return dict(out, reloaded=cn.RejectionRegion2D(r.alpha, r.kind, cells, r.outside_rule))


def _null_grid_corrupted(out):
    s = out["solution"]
    scaled = cn.LpSolution(np.minimum(1.0, s.m_r * 1.5), s.objective_value, s.solver_status)
    return dict(out, reloaded=cn.assemble_bayes_region(out["problem"], scaled))


CORRUPTIONS = {
    "lp_optimal": _status_corrupted,
    "beats_js_candidate": _objective_corrupted,
    "round_trip": _round_trip_corrupted,
    "null_grid_size": _null_grid_corrupted,
}
