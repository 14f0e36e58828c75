"""Prove that every output check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs each workload once at tiny sizes, requires every check to pass on the
real outputs, then feeds each check a corrupted copy of the outputs (a
p-value above its JS p-value, a flipped decision, a Monte Carlo rate moved
by ten standard errors, an LP solution scaled past alpha, ...) and requires
that check to fail. Prints one line per case and a summary JSON line with
the failed operations each corrupted run reported; exits 1 if a check
passed corrupted outputs or failed clean ones.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spans import Tracer  # noqa: E402

SEED = 7


def main() -> int:
    problems, detected = 0, {}
    for workload in ("screen", "power", "design"):
        mod = importlib.import_module(workload)
        tr = Tracer(f"selftest-{workload}", enabled=False)
        state = mod.setup(SEED, mod.TINY, tr)
        out = mod.body(state, tr)
        for c in mod.checks(state, out):
            print(f"{workload:7s} clean     {c['name']:20s} {'pass' if c['ok'] else 'FAIL'}"
                  f"  {c['detail']}")
            problems += not c["ok"]
        for name, corrupt in mod.CORRUPTIONS.items():
            results = mod.checks(state, corrupt(out))
            target = next(c for c in results if c["name"] == name)
            failed_ops = sum(not c["ok"] for c in results)
            detected[f"{workload}.{name}"] = failed_ops
            print(f"{workload:7s} corrupted {name:20s} "
                  f"{'caught' if not target['ok'] else 'MISSED'}  "
                  f"failed operations: {failed_ops}; {target['detail']}")
            problems += target["ok"]
    print(json.dumps({"problems": problems, "failed_operations": detected}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
