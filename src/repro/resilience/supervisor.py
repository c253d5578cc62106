"""Worker supervision policy and the in-worker heartbeat accessor.

A worker that hangs (deadlocked I/O, livelocked loop, paused cgroup)
never dies, so death detection alone would stall its map forever.
Passing a :class:`SupervisorConfig` to
:func:`repro.parallel.pool.parallel_map` adds a heartbeat deadline to the
one process pool:

- **Heartbeats** — each supervised map creates a
  :class:`repro.obs.slab.MetricsSlab` with one row per pool worker and
  destroys it before returning. A worker writes ``time.monotonic()``
  into its row around every item, lock-free (single writer per row),
  and instrumented work functions beat *inside* long items (the Hogwild
  batch loop and the walk stepping loops call :func:`current_heartbeat`
  — a no-op outside supervision).
- **Deadline** — the map loop checks heartbeat ages on every poll. A
  worker with an item whose row went silent for longer than
  ``worker_deadline`` seconds is SIGKILLed, respawned in place, and its
  item requeued — the same path as a worker that died.
- **Ladder** — ``max_respawns`` bounds respawns per worker-count rung;
  the pool then halves its workers and finally finishes in-process.

Clock note: heartbeats are ``time.monotonic()`` values compared across
processes, which is valid on the platforms with POSIX shared memory
(Linux ``CLOCK_MONOTONIC`` is system-wide).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the slab imports repro.parallel, which imports this
    from repro.obs.slab import MetricsSlab

__all__ = [
    "SupervisorConfig",
    "Heartbeat",
    "NULL_HEARTBEAT",
    "current_heartbeat",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Liveness policy for a supervised parallel stage.

    Parameters
    ----------
    worker_deadline:
        Seconds of heartbeat silence after which a worker *with an
        assigned item* is declared hung and killed. Work functions that
        can legitimately run longer than this between beats should call
        ``current_heartbeat().beat()`` inside their loop (the built-in
        walk and Hogwild tasks do).
    max_respawns:
        Respawn budget per worker-count rung. Exhausting it halves the
        worker count (ultimately: serial in-process execution).
    poll_interval:
        Map loop polling period in seconds.
    """

    worker_deadline: float = 30.0
    max_respawns: int = 3
    poll_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.worker_deadline <= 0:
            raise ValueError("worker_deadline must be positive")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")


class Heartbeat:
    """Liveness beacon: one slab row, one writer, lock-free stores."""

    def __init__(self, slab: MetricsSlab, row: int) -> None:
        self._slab = slab
        self._row = row

    def beat(self) -> None:
        self._slab.put(self._row, "heartbeat", time.monotonic())
        self._slab.add(self._row, "beats", 1)


class _NullHeartbeat:
    """The no-op beacon outside supervised workers."""

    def beat(self) -> None:
        return None


NULL_HEARTBEAT = _NullHeartbeat()

_current_heartbeat: Heartbeat | _NullHeartbeat = NULL_HEARTBEAT


def current_heartbeat() -> Heartbeat | _NullHeartbeat:
    """The supervised worker's beacon, or the no-op anywhere else.

    Instrumented hot loops call ``current_heartbeat().beat()`` — two
    float stores under supervision, a no-op method call otherwise.
    """
    return _current_heartbeat


def _install_heartbeat(hb: Heartbeat | _NullHeartbeat) -> None:
    global _current_heartbeat
    _current_heartbeat = hb
