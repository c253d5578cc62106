"""Host-speed probe: reference-host seconds from a noisy shared host.

The reference host is a VM with 2 vCPUs on a machine shared with other
tenants. The speed of a vCPU swings by up to 2x within seconds and
drifts over minutes; CPU time moves with wall time, so neither can be
compared across runs as measured. The probe measures the host's speed
*while* a program call runs: a thread of the benchmark process, pinned
to the CPU the call runs on (or cycling over the CPUs of a multi-process
call), wakes every ``PERIOD_S`` and times one fixed unit of work in
thread CPU time. The unit mixes random row gathers from a 25 MB table
(memory and last-level cache, which the program's kernels stress), a
small matrix product and dict lookups (interpreter speed). Over a call,
``REF_UNIT_S / mean(unit time)`` is the host's speed relative to the
reference, and a call's time times that factor reads in reference-host
seconds. The unit's inputs are fixed and it never imports the program,
so only the host changes its time.

The probe takes about 5% of the CPU it shares with a call, on every run
alike. Changing the unit or the period changes every timing metric:
results from before such a change must not be compared with results
after it.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

# Thread CPU seconds of one unit that define reference speed: about its
# typical time on the reference host (2 vCPUs, Python 3.11, numpy 2.4).
# Only ratios between runs matter, so this is a fixed definition.
REF_UNIT_S = 0.0016
PERIOD_S = 0.04
_TABLE_ROWS = 400_000


class SpeedProbe:
    """Background thread sampling the host's speed; see the module doc."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240601)
        self._table = rng.random((_TABLE_ROWS, 8))
        self._rows = rng.integers(0, _TABLE_ROWS, 2000)
        self._square = rng.random((40, 40))
        self._lookup = {i: i for i in range(5000)}
        self._cpus = sorted(os.sched_getaffinity(0))
        # (perf_counter when the unit ended, thread CPU seconds it took)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def follow(self, cpus) -> None:
        """Sample on these CPUs from now on, one after the other."""
        self._cpus = sorted(cpus)

    def unit(self) -> float:
        start = time.thread_time()
        for _ in range(10):
            self._table[self._rows].sum(axis=0)
            self._square @ self._square
            sum(self._lookup[i] for i in range(0, 5000, 17))
        return time.thread_time() - start

    def _loop(self) -> None:
        turn = 0
        while not self._stop.wait(PERIOD_S):
            cpus = self._cpus
            # pid 0 is the calling thread: only the probe moves.
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            self.samples.append((time.perf_counter(), self.unit()))

    def start(self) -> None:
        self._thread.start()
        while not self.samples and self._thread.is_alive():
            time.sleep(PERIOD_S / 4)
        if not self.samples:
            raise RuntimeError("the host-speed probe stopped before its first sample")

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Reference-host seconds per measured second over [start, end]."""
        window = [u for t, u in self.samples if start <= t <= end]
        if not window:  # a call shorter than one period
            window = [u for _, u in self.samples[-2:]]
        return REF_UNIT_S / statistics.fmean(window)
