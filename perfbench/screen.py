"""screen: a genome-wide-style mediation screen over one seeded cohort.

Every mediator is fitted, every pair gets the generalized and the JS
p-value with BH and Bonferroni adjustment, fixed-level decisions are looked
up in three regions, triples go through the Latin-square test, and a
single client sends one-shot CLI queries in a closed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
from time import perf_counter

import numpy as np
from scipy import special

import compnull as cn
from common import FIXTURE, check, load_fixture

WHY = ("OLS fits, p-values, scalar 3-factor tests and one-shot CLI queries do the work; "
       "regions only answer lookups")
BYPASSES = ("bayes_lp", "simulate")
SIZES = {"n": 400, "mediators": 3000, "triples": 2000, "queries": 200}
TINY = {"n": 80, "mediators": 40, "triples": 60, "queries": 12}

Q_LEVEL = 0.1
JS_ALPHA = 0.05
LATIN_K = 20
WORKED = (2.5, 1.0)  # README's worked example: minimax_pvalue((2.5, 1.0)).p == 0.3173
# Query mix, as shares of the loop, ordered by latency: the cheap `test`
# queries cover ranks 0-37%, `pvalue` 37-77% (so p50 lands inside it), the
# fixture-loading `test --region` 77-92% and the K=20 `test3`, which rebuilds
# its region per call, the top 8% (so p95 lands inside it).
MIX = (("test3", 0.08), ("region", 0.15), ("pvalue", 0.40))


def setup(seed: int, sizes: dict, tr) -> dict:
    rng = np.random.default_rng(seed)
    n, k = sizes["n"], sizes["mediators"]
    c = rng.standard_normal((n, 2))
    a = rng.standard_normal(n)
    # 1% of mediators carry both paths, 1% only a->m, 1% only m->y.
    idx = rng.permutation(k)
    s = max(1, k // 100)
    a_to_m = np.zeros(k)
    m_to_y = np.zeros(k)
    a_to_m[idx[:2 * s]] = 0.4
    m_to_y[idx[:s]] = 0.5
    m_to_y[idx[2 * s:3 * s]] = 0.5
    med = a_to_m[:, None] * a[None, :] + 0.3 * (c @ [0.5, -0.5])[None, :] \
        + rng.standard_normal((k, n))
    y = 0.3 * a + c @ [0.4, -0.2] + m_to_y @ med + rng.standard_normal(n)

    triples = rng.normal(0.0, 1.5, size=(sizes["triples"], 3))
    with tr.span("closed_form.build"):
        regions = {"minimax": cn.build_minimax_region(0.05),
                   "extended": cn.build_extended_region(0.07)}
    regions["bayes"] = load_fixture(tr)
    with tr.span("latin3.setup_build"):
        square = cn.normalize_corner(cn.cyclic_latin(LATIN_K)).square
        region3 = cn.build_latin_region(square, 1.0 / LATIN_K)
    return {"sizes": sizes, "seed": seed, "y": y, "a": a, "m": med, "c": c,
            "triples": triples, "regions": regions, "region3": region3,
            "queries": _queries(rng, sizes["queries"])}


def _queries(rng, count: int) -> list[dict]:
    z = rng.normal(0.0, 2.0, size=(count, 3))
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * max(1, round(share * count))
    kinds += ["test"] * (count - len(kinds))
    out = []
    for i, kind in enumerate(kinds):
        zx, zy = float(z[i, 0]), float(z[i, 1])
        if kind == "test3":
            out.append({"cmd": "test3", "z": tuple(map(float, z[i])), "alpha": 1.0 / LATIN_K})
        elif kind == "region":
            out.append({"cmd": "test", "z": (zx, zy), "region": str(FIXTURE)})
        elif kind == "test":
            method = ("minimax", 0.05) if i % 2 else ("extended", 0.07)
            out.append({"cmd": "test", "z": (zx, zy), "method": method})
        else:
            out.append({"cmd": "pvalue", "z": (zx, zy)})
    out = [out[i] for i in rng.permutation(count)]
    first = next(i for i, q in enumerate(out) if q["cmd"] == "pvalue")
    out[first] = {"cmd": "pvalue", "z": WORKED}
    return out


def _argv(q: dict) -> list[str]:
    if q["cmd"] == "test3":
        return ["test3", "--z=" + ",".join(map(repr, q["z"])), f"--alpha={q['alpha']!r}"]
    argv = [q["cmd"], f"--zx={q['z'][0]!r}", f"--zy={q['z'][1]!r}"]
    if "region" in q:
        argv += ["--region", q["region"]]
    elif "method" in q:
        argv += ["--method", q["method"][0], f"--alpha={q['method'][1]!r}"]
    return argv


class QueryLoop:
    """One client's closed loop of one-shot CLI calls: each starts after the last returns.

    The host's speed drifts over tens of seconds, so the loop is sent in
    equal slices between the screen's phases; its latency percentiles then
    sample the same stretch of time as the body's wall time.
    """

    def __init__(self, tr, queries, slices: int):
        self.tr = tr
        self.slices = [list(enumerate(queries))[i::slices] for i in range(slices)]
        self.results = [None] * len(queries)  # (exit code, stdout, seconds) per query

    def send(self) -> None:
        part = self.slices.pop(0)
        for i, argv in part:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = perf_counter()
                rc = self.tr.call("cli.query", cn.cli_dispatch, list(argv))
                seconds = perf_counter() - t0
            self.results[i] = (rc, buf.getvalue(), seconds)
        self.tr.add("cli.queries", len(part))

    def finish(self) -> dict:
        while self.slices:
            self.send()
        codes, outputs, latencies = (list(col) for col in zip(*self.results))
        return {"codes": codes, "outputs": outputs, "latencies": latencies}


def body(state: dict, tr) -> dict:
    y, a, med, c = state["y"], state["a"], state["m"], state["c"]
    k = len(med)
    # Query slices follow the p-value phase, so the ladder memo that the first
    # p-value call fills is filled inside pvalues.batch, as in a fresh process.
    queries = QueryLoop(tr, [_argv(q) for q in state["queries"]], 3)
    zx, zy = np.empty(k), np.empty(k)
    for i in range(k):
        model = "interaction" if i % 4 == 0 else "main_effects"
        with tr.span("mediation.fit"):
            _, z = cn.product_method_stats(cn.MediationDataset(y, a, med[i], c), model)
        zx[i], zy[i] = z.zx, z.zy
    tr.add("mediation.fits", k)

    p_gen = tr.call("pvalues.batch", cn.minimax_pvalue_batch, zx, zy)
    tr.add("pvalues.batch_pairs", k)
    p_js = np.array([tr.call("closed_form.js_test", cn.js_test, (u, v), JS_ALPHA).p_value
                     for u, v in zip(zx, zy)])
    adjusted = {name: tr.call("pvalues.adjust", rule, p, Q_LEVEL)
                for name, rule, p in (("bh_gen", cn.benjamini_hochberg, p_gen),
                                      ("bh_js", cn.benjamini_hochberg, p_js),
                                      ("bonf_gen", cn.bonferroni, p_gen),
                                      ("bonf_js", cn.bonferroni, p_js))}
    queries.send()

    region3 = state["region3"]
    rejects3 = np.array([tr.call("latin3.rejects3", cn.rejects3, region3, t)
                         for t in state["triples"]])
    tr.add("latin3.triples", len(rejects3))
    queries.send()

    lookups = {name: tr.call("regions.lookup", cn.rejection_prob_at_points, region, zx, zy)
               for name, region in state["regions"].items()}
    tr.add("regions.lookup_points", k * len(lookups))

    return {"zx": zx, "zy": zy, "p_gen": p_gen, "p_js": p_js, "adjusted": adjusted,
            "lookups": lookups, "rejects3": rejects3, **queries.finish()}


def operations(state: dict, out: dict) -> int:
    k = len(out["zx"])
    return (3 * k + len(out["adjusted"]) + k * len(out["lookups"])
            + len(out["rejects3"]) + len(out["codes"]))


def traced_only(state: dict, out: dict, tr) -> None:
    """Send the CLI loop's queries straight to the library, without the CLI."""
    builders = {"minimax": cn.build_minimax_region, "extended": cn.build_extended_region}
    for q in state["queries"]:
        if q["cmd"] == "pvalue":
            tr.call("pvalues.scalar", cn.minimax_pvalue, q["z"])
        elif q["cmd"] == "test3":
            with tr.span("latin3.build"):
                square = cn.normalize_corner(cn.cyclic_latin(LATIN_K)).square
                region = cn.build_latin_region(square, q["alpha"])
            tr.call("latin3.query_rejects3", cn.rejects3, region, q["z"])
        else:
            if "region" in q:
                with tr.span("regions.load"):
                    with open(q["region"]) as fh:
                        region = cn.deserialize(fh.read())
            else:
                method, alpha = q["method"]
                region = tr.call("closed_form.query_build", builders[method], alpha)
            tr.call("regions.point", cn.rejection_prob_at_point, region, q["z"])


# -- output checks ------------------------------------------------------------

def checks(state: dict, out: dict) -> list[dict]:
    return [check_dominance(out), check_bh_superset(out), check_worked_example(state, out),
            check_fits(state, out), check_rejects3(state, out), check_lookups(out),
            check_cli(out)]


def check_dominance(out):
    worst = float(np.max(out["p_gen"] - out["p_js"]))
    return check("pvalue_dominance", worst <= 1e-12,
                 f"max(p_generalized - p_js) = {worst:.3g}")


def check_bh_superset(out):
    gen = np.asarray(out["adjusted"]["bh_gen"])
    js = np.asarray(out["adjusted"]["bh_js"])
    missing = int(np.sum(js & ~gen))
    return check("bh_superset", missing == 0,
                 f"{int(js.sum())} JS and {int(gen.sum())} generalized BH rejections; "
                 f"{missing} JS rejections missing")


def check_worked_example(state, out):
    text = out["outputs"][state["queries"].index({"cmd": "pvalue", "z": WORKED})]
    try:
        p = float(json.loads(text)["p"])
    except (ValueError, KeyError, TypeError):
        return check("worked_example", False, f"unparseable output {text!r}")
    return check("worked_example", abs(p - 0.3173) <= 1e-3, f"p = {p!r}")


def _oracle_z(y, a, m, c, interaction):
    """(zx, zy) from numpy.linalg.lstsq with textbook OLS standard errors."""
    def ols(x, r):
        beta = np.linalg.lstsq(x, r, rcond=None)[0]
        resid = r - x @ beta
        cov = resid @ resid / (len(r) - x.shape[1]) * np.linalg.inv(x.T @ x)
        return beta, cov

    ones = np.ones(len(y))
    beta_m, cov_m = ols(np.column_stack([ones, a, c]), m)
    zy = beta_m[1] / np.sqrt(cov_m[1, 1])
    if interaction:
        beta, cov = ols(np.column_stack([ones, a, m, a * m, c]), y)
        est = beta[2] + beta[3]
        var = cov[2, 2] + cov[3, 3] + 2.0 * cov[2, 3]
    else:
        beta, cov = ols(np.column_stack([ones, a, m, c]), y)
        est, var = beta[2], cov[2, 2]
    return est / np.sqrt(var), zy


def check_fits(state, out, sample: int = 24):
    k = len(out["zx"])
    rng = np.random.default_rng(state["seed"] + 1)
    idx = sorted({0, 1, *rng.choice(k, size=min(sample, k), replace=False).tolist()})
    worst = 0.0
    for i in idx:
        ox, oy = _oracle_z(state["y"], state["a"], state["m"][i], state["c"], i % 4 == 0)
        worst = max(worst, abs(out["zx"][i] - ox) / max(1.0, abs(ox)),
                    abs(out["zy"][i] - oy) / max(1.0, abs(oy)))
    return check("fit_oracle", worst <= 1e-8,
                 f"{len(idx)} fits, max relative z error {worst:.3g}")


def check_rejects3(state, out):
    # Band c_j = Phi^-1((1 + j/K)/2); cyclic symbol (i + j) mod K with the corner
    # normalization swapping the two largest symbols.
    edges = special.ndtri((1.0 + np.arange(LATIN_K + 1) / LATIN_K) / 2.0)
    edges[0], edges[-1] = 0.0, np.inf
    u = np.abs(state["triples"])
    band = np.searchsorted(edges, u, side="right") - 1
    near = np.min(np.abs(u[..., None] - edges[None, None, :-1]), axis=(1, 2)) < 1e-9
    symbol = (band[:, 0] + band[:, 1]) % LATIN_K
    symbol = np.where(symbol == LATIN_K - 1, LATIN_K - 2,
                      np.where(symbol == LATIN_K - 2, LATIN_K - 1, symbol))
    want = symbol == band[:, 2]
    bad = int(np.sum((want != out["rejects3"]) & ~near))
    return check("rejects3_oracle", bad == 0,
                 f"{bad} of {len(want)} triples disagree ({int(want.sum())} rejected)")


def check_lookups(out):
    """Minimax and extended decisions against the p-value band rule.

    The extended region at level alpha rejects iff the two-sided p-values of
    both coordinates fall in the same band [j*alpha, (j+1)*alpha).
    """
    bad = []
    for name, alpha in (("minimax", 0.05), ("extended", 0.07)):
        r = [2.0 * special.ndtr(-np.abs(out[z])) / alpha for z in ("zx", "zy")]
        edge = np.minimum(*(np.abs(v - np.round(v)) for v in r)) < 1e-9
        want = (np.floor(r[0]) == np.floor(r[1])).astype(float)
        bad.append(int(np.sum((want != out["lookups"][name]) & ~edge)))
    probs = out["lookups"]["bayes"]
    bad.append(int(np.sum((probs < 0.0) | (probs > 1.0))))
    return check("lookup_oracle", not any(bad),
                 f"disagreements minimax/extended/bayes-range: {bad}")


def check_cli(out):
    """Every query exited 0 and printed a JSON document."""
    bad = 0
    for rc, text in zip(out["codes"], out["outputs"]):
        try:
            json.loads(text)
        except ValueError:
            rc = rc or -1
        bad += rc != 0
    return check("cli_ok", bad == 0, f"{bad} of {len(out['codes'])} queries failed")


def _p_corrupted(out):
    p = out["p_gen"].copy()
    p[0] = min(1.0, out["p_js"][0] + 0.01)
    return dict(out, p_gen=p)


def _bh_corrupted(out):
    gen = [False] * len(out["zx"])
    js = [True] + list(out["adjusted"]["bh_js"][1:])
    return dict(out, adjusted=dict(out["adjusted"], bh_gen=gen, bh_js=js))


def _worked_corrupted(out):
    outputs = [json.dumps({"p": 0.5}) if o.startswith('{"method": "extended_minimax"')
               else o for o in out["outputs"]]
    return dict(out, outputs=outputs)


def _fit_corrupted(out):
    zx = out["zx"].copy()
    zx[0] += 1e-3
    return dict(out, zx=zx)


def _rejects3_corrupted(out):
    r = out["rejects3"].copy()
    r[0] = not r[0]
    return dict(out, rejects3=r)


def _lookup_corrupted(out):
    flipped = out["lookups"]["minimax"].copy()
    flipped[0] = 1.0 - flipped[0]
    return dict(out, lookups=dict(out["lookups"], minimax=flipped))


def _cli_corrupted(out):
    return dict(out, codes=[2] + list(out["codes"][1:]))


# check name -> corruption that check must catch
CORRUPTIONS = {
    "pvalue_dominance": _p_corrupted,
    "bh_superset": _bh_corrupted,
    "worked_example": _worked_corrupted,
    "fit_oracle": _fit_corrupted,
    "rejects3_oracle": _rejects3_corrupted,
    "lookup_oracle": _lookup_corrupted,
    "cli_ok": _cli_corrupted,
}
