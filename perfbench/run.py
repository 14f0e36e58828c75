"""compnull benchmark.

    python3 perfbench/run.py --workload screen|power|design --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each repetition is a fresh
``perfbench/worker.py`` process, so every one pays the import and fills the
library's lazy caches as a new user would. Repetitions of the same seed run
until ``--seconds`` have passed, with at least two; one that would end
more than half its length past ``--seconds`` is not started.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
set-up time (over at least ``MIN_SETUPS`` set-ups), timed-body time and
peak memory. The speed of each vCPU of the shared host drifts by up to 2x,
so every set-up and body time is rescaled to a fixed host speed by a probe
timed on the worker's own vCPU while it runs (see ``hostclock.py``); the
unscaled wall-time medians and the probe's median time are printed too.
Workloads with a closed loop of one-shot CLI queries (screen) also print
the 50th/95th percentile of their pooled, unscaled latencies.

``--trace 1`` alternates an untraced and a traced repetition and reports
the per-layer metrics of the traced ones, unscaled; their difference in
body time is the tracing overhead, and the query percentiles come from the
untraced ones. Spans are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list each metric with its unit, then a JSON report with provenance, sizes
and every output check. The exit code is 1 when an output check fails and
2 when the checkout holds no compnull source.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2  # untraced repetitions; traced runs need one untraced/traced pair
MIN_SETUPS = 8
DEADLINE_S = 150.0  # stop starting repetitions that would end after this


class WorkerError(RuntimeError):
    pass


def worker(args, rep: int, trace: int = 0, setup_only: bool = False,
           timeout: float = DEADLINE_S, clock: HostClock | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        if clock is not None:
            clock.pid = proc.pid
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        finally:
            if clock is not None:
                clock.pid = None
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def repeat(args, run_one, start: float, at_least: int) -> list:
    """Call ``run_one(i, seconds_left)`` ``at_least`` times, then while the next call
    is expected to end by --seconds plus half its length."""
    done, last = [], 0.0
    while True:
        elapsed = perf_counter() - start
        if len(done) >= at_least and (elapsed + last / 2 > args.seconds
                                      or elapsed + last > DEADLINE_S):
            return done
        t0 = perf_counter()
        done.append(run_one(len(done), DEADLINE_S + 20.0 - elapsed))
        last = perf_counter() - t0


def end_to_end(args, start: float) -> tuple[dict, list, dict]:
    clock = HostClock()
    clock.start()
    try:
        reps = repeat(args, lambda i, left: worker(args, i, timeout=left, clock=clock),
                      start, MIN_REPS)
        setups = list(reps)
        while len(setups) < MIN_SETUPS:
            setups.append(worker(args, len(setups), setup_only=True, clock=clock))
    finally:
        clock.stop()
    values = {
        "setup_s": statistics.median(clock.scaled(r["setup_s"], r["setup_t0"], r["body_t0"])
                                     for r in setups),
        "run_s": statistics.median(clock.scaled(r["run_s"], r["body_t0"], r["body_t1"])
                                   for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    unscaled = {
        "setup_wall_s": statistics.median(r["setup_s"] for r in setups),
        "run_wall_s": statistics.median(r["run_s"] for r in reps),
        "probe_ms": 1e3 * statistics.median(d for _, d in clock.samples),
    }
    for r in reps:
        r["probe_ms"] = 1e3 * clock.probe_s(r["body_t0"], r["body_t1"])
    return values, reps, unscaled


def query_percentiles(reps) -> dict:
    """p50 and p95 in ms of the CLI query latencies pooled over repetitions."""
    latencies = [t for r in reps for t in r["latencies"]]
    if not latencies:
        return {}
    pct = statistics.quantiles(latencies, n=100, method="inclusive")
    return {"query_p50_ms": pct[49] * 1e3, "query_p95_ms": pct[94] * 1e3}


def per_layer(args, start: float, names: list) -> tuple[dict, list]:
    def pair(i, left):
        t0 = perf_counter()
        plain = worker(args, 2 * i, timeout=left)
        return plain, worker(args, 2 * i + 1, trace=1, timeout=left - (perf_counter() - t0))

    pairs = repeat(args, pair, start, 1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    queries = query_percentiles(plain)
    derived = {
        "trace.overhead_s": (statistics.median(t["run_s"] for t in traced)
                             - statistics.median(p["run_s"] for p in plain)),
        "cli.query_p50_ms": queries.get("query_p50_ms", 0.0),
        "cli.query_p95_ms": queries.get("query_p95_ms", 0.0),
    }
    values = {name: derived[name] if name in derived
              else statistics.median(t["layers"][name] for t in traced) for name in names}
    return values, [r for p in pairs for r in p]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "compnull" / "__init__.py").is_file():
        sys.stderr.write(f"no compnull source under {ROOT / 'src'}; run from a checkout\n")
        return 2

    # Compile bytecode up front so no repetition's set-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, capture_output=True)
    start = perf_counter()
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        if args.trace:
            values, reps = per_layer(args, start, [m["name"] for m in specs])
            unscaled = {}
        else:
            values, reps, unscaled = end_to_end(args, start)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    queries = {} if args.trace else query_percentiles(reps)
    shown = {**metrics, **{k: {"value": v, "unit": "ms"} for k, v in queries.items()},
             **{k: {"value": v, "unit": k.rsplit("_", 1)[1]} for k, v in unscaled.items()}}
    for name, m in shown.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    failed = sum(r["failed"] for r in reps)
    last = reps[-1]
    print(json.dumps({"report": {
        "workload": args.workload, "why": last["why"], "bypasses": last["bypasses"],
        "seed": args.seed, "trace": args.trace, "sizes": last["sizes"],
        "repetitions": len(reps), "run_wall_per_rep_s": [r["run_s"] for r in reps],
        "probe_ms_per_rep": [r.get("probe_ms") for r in reps], **unscaled,
        "queries_per_repetition": len(last["latencies"]), **queries,
        "readouts": last["readouts"], "provenance": last["provenance"],
        "checks": [c for r in reps for c in r["checks"] if not c["ok"]] or last["checks"],
    }}))
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
