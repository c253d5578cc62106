"""Tests for chunking and parallel map (including failure recovery)."""

import os
import warnings

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder, use
from repro.parallel.pool import (
    chunk_bounds,
    default_workers,
    parallel_map,
    resolve_workers,
)
from repro.resilience.chaos import FaultInjector, InjectedFault


def square(x):
    return x * x


class TestChunkBounds:
    def test_even_split(self):
        assert chunk_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split(self):
        bounds = chunk_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        bounds = chunk_bounds(2, 5)
        assert bounds == [(0, 1), (1, 2)]

    def test_zero_total(self):
        assert chunk_bounds(0, 3) == []

    def test_covers_range_exactly(self):
        for total, chunks in [(17, 4), (100, 7), (3, 3)]:
            bounds = chunk_bounds(total, chunks)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == total
            for (a, b), (c, d) in zip(bounds, bounds[1:]):
                assert b == c

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)
        with pytest.raises(ValueError):
            chunk_bounds(5, 0)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_parallel_path(self):
        out = parallel_map(square, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]

    def test_single_item_stays_serial(self):
        assert parallel_map(square, [5], workers=4) == [25]

    def test_order_preserved(self):
        out = parallel_map(square, list(range(20)), workers=3)
        assert out == [x * x for x in range(20)]

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError("no")

        with pytest.raises(RuntimeError):
            parallel_map(boom, [1, 2], workers=1)


class TestWorkerCrashRecovery:
    """Regression: a worker dying mid-map used to break the whole pool
    and lose every completed chunk."""

    def test_killed_worker_is_retried_and_results_stay_ordered(self, tmp_path):
        # Item 3 hard-kills its worker (os._exit — same as OOM/SIGKILL)
        # exactly once; the retry pass must recompute only what's missing
        # and return complete, ordered results.
        chaotic = FaultInjector(
            square, exit_items=(3,), once_marker=tmp_path / "fired"
        )
        out = parallel_map(chaotic, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]
        assert (tmp_path / "fired").exists()  # the fault really fired

    def test_persistently_broken_pool_degrades_to_serial(self):
        # Every worker process dies on its first call; after the respawn
        # budget the map must fall back to in-process execution, counted
        # in the manifest, instead of crashing.
        chaotic = FaultInjector(
            square, exit_on_calls=range(1, 1000), only_in_subprocess=True
        )
        registry = MetricsRegistry()
        with use(Recorder(registry)):
            out = parallel_map(chaotic, list(range(6)), workers=2)
        assert out == [x * x for x in range(6)]
        assert registry.snapshot()["counters"]["supervisor.serial_fallbacks"] == 1

    def test_work_function_exception_still_propagates(self, tmp_path):
        chaotic = FaultInjector(square, fail_items=(2,))
        with pytest.raises(InjectedFault):
            parallel_map(chaotic, list(range(5)), workers=2)

    def test_no_warning_on_healthy_pool(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = parallel_map(square, list(range(8)), workers=2)
        assert out == [x * x for x in range(8)]


class TestDefaultWorkers:
    def test_positive(self):
        assert default_workers() >= 1

    def test_respects_cpu_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert default_workers() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def broken(pid):
            raise OSError("no affinity")

        monkeypatch.setattr(os, "sched_getaffinity", broken, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert default_workers() == 7


class TestResolveWorkers:
    """``resolve_workers`` is the single auto-detect entry point: every
    worker-count knob (CLI flags, engine defaults) routes through it."""

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1

    def test_none_means_auto(self):
        assert resolve_workers(None) == default_workers()

    def test_zero_and_negative_mean_auto(self):
        assert resolve_workers(0) == default_workers()
        assert resolve_workers(-1) == default_workers()

    def test_returns_int(self):
        assert isinstance(resolve_workers(np.int64(2)), int)
