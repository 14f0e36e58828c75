"""One repetition of a workload in a fresh process; prints one JSON line.

A fresh process pays what a fresh ``compnull`` user pays: the import, and
the lazy library caches (such as the p-value ladder memo) filled inside the
timed body. Set-up time runs from the first statement of this file to the
first timed operation.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from spans import Tracer  # noqa: E402

# per-layer metric -> the span name whose summed duration it reports
SPAN_METRICS = {
    "pvalues.batch_s": "pvalues.batch",
    "pvalues.adjust_s": "pvalues.adjust",
    "pvalues.scalar_s": "pvalues.scalar",
    "mediation.fit_s": "mediation.fit",
    "closed_form.js_test_s": "closed_form.js_test",
    "closed_form.build_s": "closed_form.build",
    "regions.lookup_s": "regions.lookup",
    "regions.point_s": "regions.point",
    "regions.load_s": "regions.load",
    "regions.deserialize_s": "regions.deserialize",
    "regions.power_s.minimax": "regions.power.minimax",
    "regions.power_s.extended": "regions.power.extended",
    "regions.power_s.js": "regions.power.js",
    "regions.power_s.bayes": "regions.power.bayes",
    "regions.serialize_s": "regions.serialize",
    "regions.certify_s": "regions.certify",
    "latin3.rejects3_s": "latin3.rejects3",
    "latin3.build_s": "latin3.build",
    "latin3.power3_s": "latin3.power3",
    "cli.query_s": "cli.query",
    "simulate.power_s": "simulate.power",
    "simulate.power_serial_s": "simulate.power_serial",
    "simulate.sobel_s": "simulate.sobel",
    "bayes_lp.build_s": "bayes_lp.build",
    "bayes_lp.solve_s": "bayes_lp.solve",
    "bayes_lp.assemble_s": "bayes_lp.assemble",
    "bayes_lp.candidate_s": "bayes_lp.candidate",
}
COUNT_METRICS = (
    "pvalues.batch_pairs", "mediation.fits", "regions.lookup_points", "latin3.triples",
    "cli.queries", "simulate.draws", "simulate.sobel_draws", "regions.power_shifts",
    "regions.power_cell_shifts", "latin3.power3_shifts", "regions.fixture_bytes",
    "regions.fixture_cells", "bayes_lp.vars", "bayes_lp.rows", "bayes_lp.nnz",
    "regions.doc_bytes", "regions.certify_shifts",
)
# Spans of the traced-only replay that sends the CLI queries straight to the
# library; cli.query_s minus their sum is the cost the CLI adds.
REPLAY_SPANS = ("pvalues.scalar", "regions.point", "regions.load", "latin3.build",
                "latin3.query_rejects3", "closed_form.query_build")
PROBE_CALLS = 20_000


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    run_id = f"{args.workload}-seed{args.seed}-rep{args.rep}"
    tr = Tracer(run_id, bool(args.trace))
    with tr.span("setup"):
        mod = importlib.import_module(args.workload)
        state = mod.setup(args.seed, mod.SIZES, tr)
    body_t0 = perf_counter()
    setup_s = body_t0 - T_START
    import compnull as cn
    if not Path(cn.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"compnull was imported from {cn.__file__}, not from {SRC}\n")
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_t0": T_START, "body_t0": body_t0}))
        return 0

    t0 = perf_counter()
    with tr.span("body"):
        out = mod.body(state, tr)
    run_s = perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload, "why": mod.WHY, "bypasses": list(mod.BYPASSES),
        "sizes": mod.SIZES, "setup_s": setup_s, "run_s": run_s,
        "setup_t0": T_START, "body_t0": t0, "body_t1": t0 + run_s,
        "peak_rss_mb": peak_rss_mb, "latencies": out.get("latencies", []),
    }
    # Zero where the workload designs no region.
    excess = mod.sup_null_excess(out) if hasattr(mod, "sup_null_excess") else 0.0
    result["readouts"] = {"bayes_lp.sup_null_excess": excess}
    if args.trace:
        with tr.span("traced_only"):
            mod.traced_only(state, out, tr)
        result["layers"] = layer_metrics(tr, cn, args.seed)
        result["layers"]["bayes_lp.sup_null_excess"] = excess
        from common import OUT_DIR
        OUT_DIR.mkdir(exist_ok=True)
        tr.write(OUT_DIR / f"spans-{run_id}.jsonl")

    checks = mod.checks(state, out)
    result.update(
        checks=checks, attempted=mod.operations(state, out) + len(checks),
        failed=sum(not c["ok"] for c in checks), provenance=provenance(cn, args.seed))
    print(json.dumps(result))
    return 0


def layer_metrics(tr, cn, seed: int) -> dict:
    totals = tr.totals()
    m = {name: totals.get(span, 0.0) for name, span in SPAN_METRICS.items()}
    m.update((name, tr.counts.get(name, 0)) for name in COUNT_METRICS)
    m.update((f"{layer}.self_s", t) for layer, t in tr.self_times("body").items()
             if layer != "statmath")
    m["cli.added_s"] = m["cli.query_s"] - sum(totals.get(s, 0.0) for s in REPLAY_SPANS)
    m["simulate.workers"] = cn.worker_count()
    m["trace.run_s"] = totals["body"]
    m["trace.coverage"] = tr.coverage("body")
    m["statmath.cdf_ns"], m["statmath.quantile_ns"] = probe_statmath(cn, seed)
    return m


def probe_statmath(cn, seed: int) -> tuple[float, float]:
    """ns per scalar cdf and quantile call, median of five passes over fixed inputs."""
    import numpy as np
    rng = np.random.default_rng(seed)
    xs = rng.normal(0.0, 3.0, PROBE_CALLS).tolist()
    ps = rng.uniform(1e-9, 1.0 - 1e-9, PROBE_CALLS).tolist()

    def per_call(fn, args):
        passes = []
        for _ in range(5):
            t0 = perf_counter()
            for v in args:
                fn(v)
            passes.append((perf_counter() - t0) / len(args) * 1e9)
        return statistics.median(passes)

    return per_call(cn.std_normal_cdf, xs), per_call(cn.std_normal_quantile, ps)


def provenance(cn, seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "compnull").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "compnull": cn.__version__, "commit": git_commit(), "source_sha256": digest.hexdigest(),
        "seed": seed, "worker_count": cn.worker_count(),
        "COMPOSITE_NULL_THREADS": os.environ.get("COMPOSITE_NULL_THREADS"),
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
