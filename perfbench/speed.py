"""Machine-speed correction of measured times.

On a shared host, contention from other tenants' work slows the same code
by up to 1.7x for seconds at a time (see README.md, "Noise, speed correction and bounds").
A ``Speedometer`` times a fixed numpy probe every 0.05 s from a SIGALRM
handler, so it needs no hook in the program.  A measured interval is then
rescaled piece by piece to a fixed reference speed:
``scaled = sum(dt * REFERENCE_PROBE_S / probe)``.  The result is in
reference seconds: the time on a machine where the probe takes
REFERENCE_PROBE_S.  On the machine type the benchmark was built on
(Intel Xeon, 2 vCPUs) the probe takes about 90 to 110 us uncontended, so
there a reference second is within about 10% of an uncontended second.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 100e-6

_A = np.random.default_rng(0).random((300, 2, 2))
_V = np.random.default_rng(1).random((300, 2))


def _probe_once():
    t0 = time.perf_counter()
    for _ in range(12):
        y = np.einsum("eij,ej->ei", _A, _V)
        float((y * y).sum())
    return time.perf_counter() - t0


def scaled(samples, t0, t1):
    """Rescale [t0, t1] with piecewise-constant probe times.

    ``samples`` is a time-ordered list of ``(t, probe_s)``; each probe
    holds from its time to the next one, and the first also covers any
    part of the interval before it.
    """
    total = 0.0
    for i, (t, probe) in enumerate(samples):
        start = t0 if i == 0 else max(t, t0)
        end = min(samples[i + 1][0], t1) if i + 1 < len(samples) else t1
        if end > start:
            total += (end - start) * REFERENCE_PROBE_S / probe
    return total


class Speedometer:
    """Probe samples of one process; ``running`` probes in the background."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def probe(self):
        c = min(_probe_once(), _probe_once())
        self.samples.append((time.perf_counter(), c))

    @contextmanager
    def running(self):
        self.probe()
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()

    def scaled(self, t0, t1):
        return scaled(self.samples, t0, t1)

    def summary(self):
        probes = sorted(c for _, c in self.samples)
        return {"probes": len(probes), "best_us": 1e6 * probes[0],
                "median_us": 1e6 * probes[len(probes) // 2],
                "worst_us": 1e6 * probes[-1]}
