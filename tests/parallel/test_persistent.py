"""Tests for the fork-once worker pool and its one-owner contract."""

import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.parallel.pool import (
    PersistentPool,
    PersistentPoolBroken,
    get_pool,
    parallel_map,
    shutdown_pools,
)
from repro.resilience.supervisor import SupervisorConfig

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="pool requires fork"
)


def _double(x):
    return 2 * x


def _pid(_):
    return os.getpid()


def _raise_if_marked(item):
    value, bad = item
    if value in bad:
        raise ValueError(f"item {value} rejected")
    return value


def _exit_unless_marker(item):
    """Hard-exit (like an OOM kill) once; the marker makes retries pass."""
    value, marker = item
    if value == "die" and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return value


def _exit_always(item):
    if item == "die":
        os._exit(1)
    return item


def _sleep_then_double(x):
    time.sleep(0.05)
    return 2 * x


def _pid_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _pid_running(pid):
    """Alive and not a zombie waiting for an absent reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:
        return _pid_exists(pid)
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


# Builds a 2-worker pool whose first map loses one worker (so the pool
# holds a respawned worker too), prints the live worker pids, then idles.
_ORPHAN_SCRIPT = """
import os, sys, time
from repro.parallel.pool import get_pool, parallel_map

marker = sys.argv[1]

def task(x):
    if x == 0 and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return x

assert parallel_map(task, list(range(6)), workers=2) == list(range(6))
assert os.path.exists(marker)
print(" ".join(str(w.process.pid) for w in get_pool(2)._workers), flush=True)
time.sleep(120)
"""


@pytest.fixture()
def pool():
    p = PersistentPool(2)
    yield p
    p.shutdown()


class TestMap:
    def test_results_in_input_order(self, pool):
        items = list(range(20))
        assert pool.map(_double, items) == [2 * x for x in items]

    def test_reuses_the_same_processes_across_maps(self, pool):
        first = set(pool.map(_pid, range(8)))
        second = set(pool.map(_pid, range(8)))
        assert first == second
        assert os.getpid() not in first
        assert len(first) <= 2

    def test_smallest_index_exception_wins(self, pool):
        items = [(i, (3, 7)) for i in range(10)]
        with pytest.raises(ValueError, match="item 3 rejected"):
            pool.map(_raise_if_marked, items)

    def test_map_survives_a_raised_map(self, pool):
        with pytest.raises(ValueError):
            pool.map(_raise_if_marked, [(i, (0,)) for i in range(4)])
        assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]


class TestWorkerDeath:
    def test_killed_worker_is_respawned_and_item_retried(self, pool, tmp_path):
        marker = str(tmp_path / "fired")
        items = [(x, marker) for x in [0, 1, "die", 2, 3]]
        got = pool.map(_exit_unless_marker, items)
        assert got == [0, 1, "die", 2, 3]
        assert os.path.exists(marker), "fault never fired"
        # The pool is healthy again afterwards.
        assert pool.map(_double, [5]) == [10]

    def test_repeated_deaths_break_the_pool_with_partials(self, pool):
        items = [0, 1, 2, "die"]
        with pytest.raises(PersistentPoolBroken) as exc_info:
            pool.map(
                _exit_always, items, supervisor=SupervisorConfig(max_respawns=1)
            )
        partial = exc_info.value.partial
        assert partial, "expected completed items to be preserved"
        for idx, value in partial.items():
            assert value == items[idx]
        assert pool.map(_double, [5]) == [10]


class TestLifecycle:
    def test_shutdown_is_idempotent_and_closes_maps(self):
        p = PersistentPool(2)
        assert p.map(_double, [1]) == [2]
        p.shutdown()
        p.shutdown()
        assert not p.alive
        with pytest.raises(PersistentPoolBroken):
            p.map(_double, [1])

    @pytest.mark.parametrize("delay", [0, 0.02, 0.1, 0.3])
    def test_shutdown_from_another_thread_mid_map(self, delay):
        """The pressure watchdog shuts pools down while a map is live.

        The map must surface ``PersistentPoolBroken`` and nothing else
        (so ``parallel_map`` degrades instead of crashing), and
        ``shutdown()`` must not return while any worker is alive — no
        grace period: the pids are checked the moment it returns.
        """
        p = PersistentPool(2)
        pids = [w.process.pid for w in p._workers]
        survivors: list[int] = []

        def shut_down():
            p.shutdown()
            survivors.extend(pid for pid in pids if _pid_exists(pid))

        killer = threading.Timer(delay, shut_down)
        killer.start()
        try:
            # Enough slow items that the shutdown lands mid-map.
            p.map(_sleep_then_double, list(range(200)))
        except BaseException as exc:  # noqa: BLE001 - the type is the check
            raised = exc
        else:
            raised = None
        finally:
            killer.join()
        assert type(raised) is PersistentPoolBroken, repr(raised)
        assert survivors == [], f"workers alive after shutdown(): {survivors}"
        assert not p.alive

    def test_parallel_map_completes_across_a_concurrent_shutdown(self):
        """A pool shut down mid-map costs workers, never items."""
        get_pool(2)  # fork before the timer starts counting
        killer = threading.Timer(0.1, shutdown_pools)
        killer.start()
        try:
            out = parallel_map(_sleep_then_double, range(200), workers=2)
        finally:
            killer.join()
            shutdown_pools()
        assert out == [2 * x for x in range(200)]

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """SIGKILL skips shutdown(); the workers must still go away."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        owner = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, str(tmp_path / "fired")],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60.0)
            line = owner.stdout.readline() if ready else ""
            pids = [int(pid) for pid in line.split()]
        finally:
            owner.send_signal(signal.SIGKILL)
            owner.wait()
            owner.stdout.close()
        assert len(pids) == 2, "owner never reported its workers"
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(map(_pid_running, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if _pid_running(pid)]
        for pid in survivors:  # leave no strays behind a failing run
            os.kill(pid, signal.SIGKILL)
        assert survivors == [], f"workers outlived their parent: {survivors}"

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            PersistentPool(0)

    def test_registry_returns_live_pool_then_replaces_dead_one(self):
        try:
            p = get_pool(2)
            assert p is not None and p.alive
            assert get_pool(2) is p
            p.shutdown()
            replacement = get_pool(2)
            assert replacement is not None and replacement is not p
            assert replacement.map(_double, [4]) == [8]
        finally:
            shutdown_pools()

    def test_shutdown_pools_clears_registry(self):
        p = get_pool(2)
        assert p is not None
        shutdown_pools()
        assert not p.alive
