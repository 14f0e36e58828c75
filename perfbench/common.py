"""Helpers shared by the workloads: paths, the shipped fixture, check records."""

from __future__ import annotations

from pathlib import Path

import compnull as cn

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
FIXTURE = Path(cn.__file__).parent / "fixtures" / "bayes_alpha0.05_m65.region.json"


def load_fixture(tr):
    """Read and parse the shipped Bayes region, counting its bytes and cells."""
    text = FIXTURE.read_text()
    region = tr.call("regions.deserialize", cn.deserialize, text)
    tr.add("regions.fixture_bytes", len(text.encode()))
    tr.add("regions.fixture_cells", len(region.cells))
    return region


def check(name: str, ok, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}
