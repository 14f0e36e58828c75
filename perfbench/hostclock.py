"""A sampler of the host's speed on the vCPU a benchmark worker runs on.

The benchmark's host is a few vCPUs of a shared machine. The speed of each
vCPU drifts by up to 2x over seconds to minutes, and the vCPUs drift
separately, so a probe on another vCPU than the worker's says nothing about
the worker's speed. ``HostClock`` keeps one thread pinned to each vCPU of
this process. Every ``PROBE_EVERY_S`` each thread looks up, under /proc,
the vCPU the worker's main thread last ran on; if that is its own vCPU it
times a fixed probe (interpreter arithmetic and small-matrix calls) in
thread CPU time. The probes take about 4% of the worker's vCPU, the same
share in every run.

``scaled`` rescales a wall time of the worker by the probe's nominal time
over its mean time within the same interval: seconds at the host speed at
which the probe takes ``PROBE_NOMINAL_S``. The probe is the benchmark's own
code, so a change to the program moves the workers' times and not the
probe's.
"""

from __future__ import annotations

import os
import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

PROBE_EVERY_S = 0.05
PROBE_NOMINAL_S = 0.002  # about one probe's CPU time on a 2-vCPU Xeon host
PROBE_LOOPS = 5_000
PROBE_MATMULS = 150


def last_cpu(pid: int) -> int | None:
    """The vCPU the process's main thread last ran on, None once it has gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class HostClock:
    def __init__(self):
        self.pid: int | None = None  # the running worker
        self.samples: list[tuple[float, float]] = []  # (start, CPU seconds)
        self._stopped = threading.Event()
        self._small = np.random.default_rng(0).standard_normal((30, 30)) / 30.0
        self._threads = [threading.Thread(target=self._run, args=(cpu,), daemon=True)
                         for cpu in sorted(os.sched_getaffinity(0))]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def stop(self) -> None:
        self._stopped.set()
        for t in self._threads:
            t.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stopped.wait(PROBE_EVERY_S):
            pid = self.pid
            if pid is not None and last_cpu(pid) == cpu:
                self.samples.append((perf_counter(), self.probe()))

    def probe(self) -> float:
        c0 = thread_time()
        acc = {}
        for i in range(PROBE_LOOPS):
            acc[i & 255] = acc.get(i & 255, 0) + (i * i) % 7
        small = self._small
        for _ in range(PROBE_MATMULS):
            small = np.tanh(small @ small + 0.1)
        return thread_time() - c0

    def probe_s(self, t0: float, t1: float) -> float:
        """Mean probe time of the probes started in [t0, t1], else of the nearest one."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if inside:
            return statistics.fmean(inside)
        return min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        return seconds * PROBE_NOMINAL_S / self.probe_s(t0, t1)
