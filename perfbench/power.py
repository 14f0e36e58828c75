"""power: a methods-paper power study.

Monte Carlo power of all five methods on shared draws, exact power curves
of the 2-D regions and of the K=20 Latin region, and the Sobel statistic's
sampling distribution.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

import compnull as cn
from common import check, load_fixture

WHY = ("Monte Carlo draws with region lookups inside simulate, plus exact region power, "
       "dominate; pvalues, bayes_lp, mediation and cli do no work")
BYPASSES = ("pvalues", "bayes_lp", "mediation", "cli")
SIZES = {"sim_shifts": 8, "reps": 100_000, "n": 50, "curve_shifts": 10_000,
         "bayes_shifts": 2_000, "latin_shifts": 200, "sobel_reps": 20_000}
TINY = {"sim_shifts": 4, "reps": 5_000, "n": 50, "curve_shifts": 300,
        "bayes_shifts": 60, "latin_shifts": 12, "sobel_reps": 500}

ALPHA = 0.05
LATIN_K = 20
SOBEL_N = 100
MC_SE = 4.0
EXACT = ("minimax", "extended", "js", "bayes")


def setup(seed: int, sizes: dict, tr) -> dict:
    rng = np.random.default_rng(seed)
    # z-scale shifts: the first half on the null axes, the rest alternatives
    # with |shift| in [1, 3] so no exact power sits near 0 or 1.
    h = sizes["sim_shifts"] // 2
    mag = rng.uniform(1.0, 3.0, size=(sizes["sim_shifts"], 2))
    sign = rng.choice([-1.0, 1.0], size=mag.shape)
    sim_z = mag * sign
    sim_z[0] = 0.0
    sim_z[1:h:2, 1] = 0.0
    sim_z[2:h:2, 0] = 0.0

    m = sizes["curve_shifts"]
    axis = rng.uniform(-8.0, 8.0, size=m // 10)
    null_rows = np.zeros((len(axis), 2))
    null_rows[::2, 0] = axis[::2]
    null_rows[1::2, 1] = axis[1::2]
    curve = np.vstack([sim_z, null_rows,
                       rng.uniform(-6.0, 6.0, size=(m - len(sim_z) - len(axis), 2))])

    latin = rng.uniform(0.0, 4.0, size=(sizes["latin_shifts"], 3))
    null3 = np.arange(len(latin)) < len(latin) // 5
    latin[null3, np.arange(len(latin))[null3] % 3] = 0.0

    with tr.span("closed_form.build"):
        regions = {"minimax": cn.build_minimax_region(ALPHA),
                   "extended": cn.build_extended_region(ALPHA),
                   "js": cn.build_js_region(ALPHA)}
    regions["bayes"] = load_fixture(tr)
    with tr.span("latin3.setup_build"):
        square = cn.normalize_corner(cn.cyclic_latin(LATIN_K)).square
        region3 = cn.build_latin_region(square, 1.0 / LATIN_K)

    n = sizes["n"]
    spec = cn.SimSpec(("minimax", "extended", "bayes", "js", "sobel"),
                      tuple(map(tuple, sim_z / math.sqrt(n))), n, sizes["reps"], seed,
                      ALPHA, regions["bayes"])
    sobel_dx = [0.0, *rng.uniform(0.1, 0.5, size=2).tolist()]
    return {"sizes": sizes, "seed": seed, "spec": spec, "sim_z": sim_z, "curve": curve,
            "latin": latin, "null3": null3, "regions": regions, "region3": region3,
            "sobel_dx": sobel_dx}


def body(state: dict, tr) -> dict:
    sizes, spec = state["sizes"], state["spec"]
    sim = tr.call("simulate.power", cn.simulate_power, spec)
    tr.add("simulate.draws", len(spec.delta_grid) * spec.reps)

    exact = {}
    for name, region in state["regions"].items():
        shifts = state["curve"][:sizes["bayes_shifts"] if name == "bayes" else None]
        exact[name] = tr.call(f"regions.power.{name}", cn.analytic_power_batch, region, shifts)
        tr.add("regions.power_shifts", len(shifts))
        tr.add("regions.power_cell_shifts", len(shifts) * len(region.cells))

    region3 = state["region3"]
    power3 = np.array([tr.call("latin3.power3", cn.analytic_power3, region3, d)
                       for d in state["latin"]])
    tr.add("latin3.power3_shifts", len(power3))

    sobel = tr.call("simulate.sobel", cn.sample_sobel_density, state["sobel_dx"],
                    SOBEL_N, sizes["sobel_reps"], state["seed"])
    tr.add("simulate.sobel_draws", len(state["sobel_dx"]) * sizes["sobel_reps"])

    return {"sim": sim, "exact": exact, "power3": power3, "sobel": sobel}


def operations(state: dict, out: dict) -> int:
    return (len(out["sim"].rows) + sum(len(v) for v in out["exact"].values())
            + len(out["power3"]) + len(out["sobel"].entries))


def traced_only(state: dict, out: dict, tr) -> None:
    """Single-threaded baseline for the simulation thread pool."""
    saved = os.environ.get("COMPOSITE_NULL_THREADS")
    os.environ["COMPOSITE_NULL_THREADS"] = "1"
    try:
        tr.call("simulate.power_serial", cn.simulate_power, state["spec"])
    finally:
        if saved is None:
            del os.environ["COMPOSITE_NULL_THREADS"]
        else:
            os.environ["COMPOSITE_NULL_THREADS"] = saved


# -- output checks ------------------------------------------------------------

def checks(state: dict, out: dict) -> list[dict]:
    return [check_minimax_null(state, out), check_mc(state, out),
            check_power3_null(state, out)]


def check_minimax_null(state, out):
    curve = state["curve"]
    null = (curve[:, 0] == 0.0) | (curve[:, 1] == 0.0)
    worst = float(np.max(np.abs(out["exact"]["minimax"][null] - ALPHA)))
    return check("minimax_null_size", worst <= 1e-12,
                 f"{int(null.sum())} null-axis shifts, max |power - alpha| = {worst:.3g}")


def check_mc(state, out):
    """Each Monte Carlo rate within 4 MC standard errors of its exact power."""
    worst, compared = 0.0, 0
    for row in out["sim"].rows:
        if row.method not in EXACT:
            continue
        i = _nearest(state["sim_z"], row)
        p = float(out["exact"][row.method][i])
        se = math.sqrt(p * (1.0 - p) / row.reps)
        worst = max(worst, abs(row.reject_rate - p) / se)
        compared += 1
    return check("mc_within_4se", worst <= MC_SE,
                 f"{compared} rates, max |rate - exact| = {worst:.2f} MC-SE")


def _nearest(sim_z, row):
    """Index of the z-scale shift a row was simulated at."""
    z = np.array([row.delta_x, row.delta_y]) * math.sqrt(row.n)
    return int(np.argmin(np.sum((sim_z - z) ** 2, axis=1)))


def check_power3_null(state, out):
    worst = float(np.max(np.abs(out["power3"][state["null3"]] - 1.0 / LATIN_K)))
    return check("power3_null", worst <= 1e-12,
                 f"{int(state['null3'].sum())} null shifts, max |power - 1/K| = {worst:.3g}")


def _minimax_corrupted(out):
    exact = dict(out["exact"], minimax=out["exact"]["minimax"] + 1e-9)
    return dict(out, exact=exact)


def _mc_corrupted(out):
    rows = list(out["sim"].rows)
    r = rows[0]
    se = math.sqrt(max(r.reject_rate * (1.0 - r.reject_rate), 1e-4) / r.reps)
    rows[0] = dataclasses.replace(r, reject_rate=r.reject_rate + 10.0 * se)
    return dict(out, sim=cn.SimResult(tuple(rows)))


def _power3_corrupted(out):
    return dict(out, power3=out["power3"] * (1.0 + 1e-6))


CORRUPTIONS = {
    "minimax_null_size": _minimax_corrupted,
    "mc_within_4se": _mc_corrupted,
    "power3_null": _power3_corrupted,
}
