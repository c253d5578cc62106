"""One process pool: fork-once workers, one owner thread, one ladder.

Every parallel stage (walk chunks, shard rounds, Hogwild epochs) maps
through :func:`parallel_map`, which runs on a process-wide
:class:`PersistentPool` per worker count. Workers are forked once and
reused across maps, so only the first map of a run pays the fork cost.
Work functions must be module-level (picklable); items must pickle.

Ownership. Each worker is a daemon process with one duplex pipe:
``(fn, item, beacon)`` in, ``(ok, payload)`` out. Exactly one thread
touches those pipes and processes: the thread inside :meth:`map`, or,
for an idle pool, whoever holds the pool lock. :meth:`shutdown` from any
other thread only sets a flag and writes one byte to a wake-up pipe that
sits in the map loop's ``wait()`` set; the owner then reaps every worker
and ``shutdown()`` returns once it has. Reaping is sentinel, join, SIGKILL,
join — it never relies on pipe EOF, because later forks inherit copies
of earlier workers' pipe ends.

Failure semantics (see docs/resilience.md). :meth:`PersistentPool.map`
raises only the work function's exception (the smallest failing index,
after in-flight items settle) or :class:`PersistentPoolBroken`, which
carries every completed result. A dead worker — or, under a
:class:`~repro.resilience.supervisor.SupervisorConfig`, one whose
heartbeat went silent for ``worker_deadline`` seconds — is SIGKILLed,
respawned in place and its item requeued. More than ``max_respawns``
respawns break the map once in-flight items settle; :func:`parallel_map`
then halves the worker count and finally runs what is left in-process,
so infrastructure alone never fails a map. Cancellation (signal,
deadline) stops dispatching; the pool is reaped — in-flight items get
the reap grace to finish — and the map raises
:class:`~repro.resilience.lifecycle.RunInterrupted`. Any exception that
leaves the loop unsettled (cancellation, shutdown, a failed respawn)
closes the pool; the registry forks a fresh one for the next map.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.obs.recorder import current_recorder
from repro.parallel.shm import SharedArray
from repro.resilience.guard import pool_allowed
from repro.resilience.lifecycle import current_cancel_scope
from repro.resilience.supervisor import (
    NULL_HEARTBEAT,
    Heartbeat,
    SupervisorConfig,
    _install_heartbeat,
)

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "PersistentPool",
    "PersistentPoolBroken",
    "chunk_bounds",
    "default_workers",
    "get_pool",
    "parallel_map",
    "resolve_workers",
    "shutdown_pools",
]

# Budget and poll period of unsupervised maps: the same ladder as a
# supervised map, without the heartbeat deadline.
_UNSUPERVISED = SupervisorConfig()
# Seconds a worker gets to finish its item and read the stop sentinel
# before it is SIGKILLed.
_REAP_GRACE = 1.0
# Seconds an idle worker waits for work between checks that its parent
# is still alive.
_ORPHAN_POLL = 0.25


def default_workers() -> int:
    """A conservative worker count: physical-ish parallelism, at least 1.

    Prefers the CPU-affinity mask (``os.sched_getaffinity``) over the
    raw core count so containers pinned to a CPU subset don't
    oversubscribe.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux or restricted platform
        return max(1, (os.cpu_count() or 1))


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request to a concrete positive count.

    ``None`` and any value < 1 mean "auto": use :func:`default_workers`.
    Every stage (walk engine, trainer, CLI) routes through this one
    function so affinity-restricted containers are respected everywhere.
    """
    if workers is None or workers < 1:
        return default_workers()
    return int(workers)


def chunk_bounds(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``chunks`` contiguous, balanced slices.

    The first ``total % chunks`` slices get one extra element. Empty
    slices are dropped, so the result may be shorter than ``chunks``.
    """
    if total < 0 or chunks <= 0:
        raise ValueError("total must be >= 0 and chunks >= 1")
    base, extra = divmod(total, chunks)
    bounds: list[tuple[int, int]] = []
    start = 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        if size == 0:
            continue
        bounds.append((start, start + size))
        start += size
    return bounds


class PersistentPoolBroken(RuntimeError):
    """The pool cannot finish this map: closed, or respawn budget spent.

    ``partial`` maps item index -> completed result; the caller resumes
    from there instead of recomputing.
    """

    def __init__(self, message: str, partial: dict[int, object]) -> None:
        super().__init__(message)
        self.partial = partial


def _worker_main(conn, parent: int | None) -> None:  # pragma: no cover - child
    """Worker loop: one item in, one result out, until the stop sentinel.

    The worker also exits once its parent is gone. It holds owner-side
    ends of its own and earlier siblings' pipes, so an owner killed
    without a shutdown never reads as EOF; instead the idle loop checks
    the parent pid every ``_ORPHAN_POLL`` seconds, and once before each
    result is sent. ``parent`` is the owner's pid under fork (so an
    owner that died before this line ran is caught too), else ``None``
    and the worker's own parent at start-up counts.
    """
    parent = parent or os.getppid()
    # The fork inherits the CLI's cooperative signal_guard handlers, which
    # swallow the first SIGTERM. Restore default dispositions: SIGTERM
    # kills, SIGINT is ignored (the owner winds the pool down itself).
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    # Env-armed sampling profiler (REPRO_PROFILE_DIR/_HZ, exported by a
    # profiled obs session before this process forked). The cumulative
    # profile is dumped after every item — pooled workers outlive the
    # session, so an exit-time dump would never be collected.
    try:
        from repro.obs.profiler import dump_worker_profile, maybe_profile_worker

        profiler = maybe_profile_worker()
    except Exception:
        profiler = None
    from repro.obs.slab import MetricsSlab

    while True:
        try:
            while not conn.poll(_ORPHAN_POLL):
                if os.getppid() != parent:
                    os._exit(0)
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        fn, item, beacon = message
        slab = None
        if beacon is not None:  # supervised: beat on this map's slab row
            slab_spec, row = beacon
            slab = MetricsSlab.attach(slab_spec)
            heartbeat = Heartbeat(slab, row)
            _install_heartbeat(heartbeat)
            heartbeat.beat()
        try:
            payload = (True, fn(item))
        except BaseException as exc:  # noqa: BLE001 - shipped to the owner
            payload = (False, exc)
        if slab is not None:
            heartbeat.beat()
            _install_heartbeat(NULL_HEARTBEAT)
            slab.close()
        if profiler is not None:
            dump_worker_profile(profiler)
        if os.getppid() != parent:
            break  # nobody left to read the result
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # an unpicklable result or exception
            what = type(payload[1]).__name__ if payload[0] else repr(payload[1])
            conn.send((False, RuntimeError(f"worker could not send {what}: {exc}")))
    os._exit(0)


class _Worker:
    """One pooled process plus the owner's end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, mp_ctx) -> None:
        self.conn, child_conn = mp_ctx.Pipe(duplex=True)
        parent = os.getpid() if mp_ctx.get_start_method() == "fork" else None
        self.process = mp_ctx.Process(
            target=_worker_main, args=(child_conn, parent), daemon=True
        )
        self.process.start()
        child_conn.close()  # the child owns its copy now

    def kill(self) -> None:
        """SIGKILL and reap; safe on an already-dead process."""
        self.process.kill()
        self.process.join()
        self.conn.close()


class PersistentPool:
    """A fixed-size pool of long-lived fork workers with dynamic dispatch."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._mp_ctx = multiprocessing.get_context()
        self._parent_pid = os.getpid()
        self._lock = threading.Lock()  # held by the owning thread
        self._owner: int | None = None  # thread ident inside map()
        self._closing = False
        self._wake_r, self._wake_w = os.pipe()
        # Workers must share the parent's resource tracker, or a worker's
        # attach to a later segment starts a private tracker that unlinks
        # the segment when the worker exits.
        resource_tracker.ensure_running()
        self._workers: list[_Worker] = []
        try:
            for _ in range(workers):
                self._workers.append(_Worker(self._mp_ctx))
        except BaseException:
            self._reap()
            raise

    def __del__(self) -> None:
        # Closed only here, once no thread can still write a wake-up byte.
        for name in ("_wake_r", "_wake_w"):
            try:
                os.close(getattr(self, name))
            except (AttributeError, OSError, TypeError):
                pass

    @property
    def alive(self) -> bool:
        return not self._closing and os.getpid() == self._parent_pid

    def shutdown(self) -> None:
        """Stop every worker; returns once all of them have been reaped."""
        if os.getpid() != self._parent_pid:
            return  # a forked child must not reap its parent's workers
        if not self._closing:
            self._closing = True
            os.write(self._wake_w, b"\0")
        if self._owner == threading.get_ident():
            return  # re-entered on the owner thread; its loop reaps next
        with self._lock:
            self._reap()

    def _reap(self) -> None:
        """Owner only: sentinel, join, SIGKILL, join — every worker."""
        self._closing = True
        workers, self._workers = self._workers, []
        for w in workers:
            try:
                w.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _REAP_GRACE
        for w in workers:
            w.process.join(timeout=max(0.0, deadline - time.monotonic()))
            w.kill()

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        *,
        supervisor: SupervisorConfig | None = None,
    ) -> list[R]:
        """Run ``fn`` over ``items``; results in input order.

        ``supervisor`` adds the heartbeat deadline and sets the respawn
        budget and poll period (unsupervised maps use the defaults).
        """
        if os.getpid() != self._parent_pid:
            raise PersistentPoolBroken("pool belongs to another process", {})
        with self._lock:
            if self._closing:
                raise PersistentPoolBroken("pool is closed", {})
            self._owner = threading.get_ident()
            try:
                results, failure = self._run(fn, items, supervisor)
            except BaseException:
                self._reap()
                raise
            finally:
                self._owner = None
        if failure is not None:
            raise failure
        return results

    def _run(self, fn, items, supervisor):
        """The owner loop. Returns ``(results, exception to raise)``.

        A work failure or a spent respawn budget stops dispatching; the
        loop lets in-flight items settle, so the pool stays usable and
        the returned exception is raised with no item in flight.
        """
        config = supervisor or _UNSUPERVISED
        rec = current_recorder()
        scope = current_cancel_scope()
        results: list = [None] * len(items)
        done: set[int] = set()
        failures: dict[int, BaseException] = {}
        pending = deque(range(len(items)))
        busy: dict[int, tuple[int, float]] = {}  # slot -> (item, dispatched at)
        respawns = 0
        slab = owner = None
        if supervisor is not None:
            from repro.obs.slab import SUPERVISOR_SLOTS, MetricsSlab

            owner = SharedArray.create(
                (self.workers, len(SUPERVISOR_SLOTS)), np.float64
            )
            slab = MetricsSlab.over(owner, SUPERVISOR_SLOTS)
            rec.set("supervisor.workers", self.workers)
        try:
            while True:
                if self._closing:
                    raise PersistentPoolBroken(
                        "pool shut down during map",
                        {i: results[i] for i in done},
                    )
                if scope.cancelled():
                    rec.inc("supervisor.cancelled")
                    rec.event(
                        "supervisor.cancelled",
                        level="warning",
                        workers=len(busy),
                    )
                    scope.check()
                stopped = failures or respawns > config.max_respawns
                for slot, worker in enumerate(self._workers):
                    if stopped or not pending:
                        break
                    if slot in busy:
                        continue
                    idx = pending.popleft()
                    now = time.monotonic()
                    if slab is not None:
                        slab.put(slot, "heartbeat", now)
                    busy[slot] = (idx, now)
                    beacon = None if slab is None else (slab.spec, slot)
                    try:
                        worker.conn.send((fn, items[idx], beacon))
                    except (BrokenPipeError, ConnectionResetError):
                        pass  # dead worker: its sentinel requeues the item
                if not busy:
                    break
                conns = {self._workers[s].conn: s for s in busy}
                sentinels = {
                    w.process.sentinel: s for s, w in enumerate(self._workers)
                }
                ready = wait(
                    [*conns, *sentinels, self._wake_r],
                    timeout=config.poll_interval,
                )
                lost: dict[int, str] = {}
                for handle in ready:
                    if handle in sentinels:
                        lost[sentinels[handle]] = "died"
                    if handle not in conns:
                        continue
                    slot = conns[handle]
                    try:
                        ok, payload = handle.recv()
                    except (EOFError, OSError):
                        lost[slot] = "died"
                        continue
                    idx, started = busy.pop(slot)
                    if slab is not None:
                        rec.observe(
                            "supervisor.item_seconds",
                            time.monotonic() - started,
                        )
                    if ok:
                        results[idx] = payload
                        done.add(idx)
                    else:
                        failures[idx] = payload
                if slab is not None:
                    now = time.monotonic()
                    for slot in busy:
                        beat = slab.get(slot, "heartbeat")
                        if now - beat > config.worker_deadline:
                            lost.setdefault(slot, "hung")
                for slot, reason in sorted(lost.items()):
                    respawns += 1
                    idx = busy.pop(slot, (None,))[0]
                    if idx is not None:
                        pending.appendleft(idx)
                        rec.inc("supervisor.items_reassigned")
                    rec.inc("supervisor.respawns")
                    rec.event(
                        "supervisor.respawn",
                        level="warning",
                        worker=slot,
                        reason=reason,
                        item=idx,
                        respawns=respawns,
                        budget=config.max_respawns,
                    )
                    self._workers[slot].kill()
                    try:
                        self._workers[slot] = _Worker(self._mp_ctx)
                    except OSError as exc:
                        raise PersistentPoolBroken(
                            f"respawn failed: {exc}",
                            {i: results[i] for i in done},
                        ) from exc
        finally:
            if owner is not None:
                owner.destroy()
        if failures:
            return results, failures[min(failures)]
        if respawns > config.max_respawns:
            return results, PersistentPoolBroken(
                f"respawn budget ({config.max_respawns}) spent",
                {i: results[i] for i in done},
            )
        return results, None


# ----------------------------------------------------------------------
# Process-wide registry: one pool per worker count, created lazily on
# first use and shut down at exit (or explicitly between pipeline runs).
# ----------------------------------------------------------------------
_POOLS: dict[int, PersistentPool] = {}


def get_pool(workers: int) -> PersistentPool | None:
    """The shared pool for ``workers``, or ``None`` when unavailable.

    ``None`` means "run in-process": called from a forked child (a child
    must never talk to its parent's pipes), or worker processes cannot
    be spawned at all.
    """
    pool = _POOLS.get(workers)
    if pool is not None and pool.alive:
        return pool
    if pool is not None and os.getpid() != pool._parent_pid:
        return None  # inherited registry inside a forked child
    try:
        pool = PersistentPool(workers)
    except (OSError, ValueError):
        return None
    _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down every pooled worker (idempotent; used at run/exit)."""
    for workers in list(_POOLS):
        _POOLS.pop(workers).shutdown()


atexit.register(shutdown_pools)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int = 1,
    supervisor: SupervisorConfig | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, in-process if ``workers == 1``.

    Results preserve input order and the work function's exceptions
    propagate, exactly as in the serial loop. Multi-worker maps run on
    the shared pool for their rung: a broken map keeps its completed
    items, halves the worker count (``supervisor.degrades``) and at one
    worker finishes in-process (``supervisor.serial_fallbacks``).
    ``supervisor`` adds per-worker heartbeats and the hung-worker
    deadline. Under the pressure guard's pool rung, each map's pool is
    shut down as soon as the map ends.

    Items may run more than once (a killed worker's item is requeued),
    so work functions must tolerate re-execution — true of every
    built-in stage task.
    """
    n = len(items)
    results: list = [None] * n
    remaining = list(range(n))
    rung = min(workers, n)
    rec = current_recorder()
    while rung > 1 and remaining:
        pool = get_pool(rung)
        if pool is None:
            break
        try:
            subset = [items[i] for i in remaining]
            for i, value in zip(
                remaining, pool.map(fn, subset, supervisor=supervisor)
            ):
                results[i] = value
            remaining = []
        except PersistentPoolBroken as broken:
            for j, value in broken.partial.items():
                results[remaining[j]] = value
            remaining = [
                i for j, i in enumerate(remaining) if j not in broken.partial
            ]
            rec.inc("supervisor.degrades")
            rec.event(
                "supervisor.degrade",
                level="warning",
                reason=str(broken),
                from_workers=rung,
                to_workers=rung // 2,
            )
            rung //= 2
        finally:
            if not pool_allowed():
                pool.shutdown()
    scope = current_cancel_scope()
    if remaining and min(workers, n) > 1:
        rec.inc("supervisor.serial_fallbacks")
        rec.event(
            "supervisor.serial_fallback", level="warning", pending=len(remaining)
        )
    for i in remaining:
        scope.check()  # cooperative cancel between in-process items
        results[i] = fn(items[i])
    return results
