#!/usr/bin/env python
"""Pipeline bench report: throughput read from run manifests.

Each measurement runs inside an observability session
(:func:`repro.obs.session`) and writes a run manifest; the report then
reads walks/sec, per-epoch timings, and the host description *from the
manifests* instead of re-measuring with its own stopwatch — the bench
and the telemetry can no longer disagree. The summary is written as a
schema-versioned JSON (default ``BENCH_PR7.json``); CI runs this on a
tiny corpus as a smoke step and uploads the JSON plus the manifests,
and ``scripts/perf_guard.py`` compares a fresh run against the
committed baseline.

The host block always carries ``cpu_affinity`` (container CPU pinning
is the usual reason parallel numbers look wrong), and every row records
``effective_workers`` — the count the run actually used after
:func:`repro.parallel.pool.resolve_workers` — next to the requested
one. Training rows also record the batch kernel the trainer built for the
config (``fused`` float32 for every CBOW negative-sampling run,
``reference`` for the float64 kernels).

Since PR 6 the report also records ``lifecycle_overhead``: the measured
cost of the per-batch cooperative cancel poll (``scope.check()`` against
a fully-armed token + deadline) relative to a serial training epoch —
the run-lifecycle counterpart of the disabled-telemetry guard, budgeted
at < 1% (``benchmarks/test_perf_lifecycle_overhead.py`` enforces it).

Since PR 10 it also records ``shard_walks``: out-of-core walk
throughput over a memory-mapped :class:`~repro.graph.store.GraphStore`
at each shard × worker combination, with a hard bitwise-identity check
against the single-shard corpus (shard layout is runtime policy, never
model identity) and the frontier-exchange shape (rounds, boundary
crossings) alongside the timings.

Since PR 9 it also records ``guard_overhead``: one watchdog
``poll_once()`` tick (a /proc RSS read plus two ``statvfs`` calls)
relative to its sample interval, plus the one-shot preflight footprint
estimate charged to a single epoch — the resource-guard counterpart,
same < 1% budget (``benchmarks/test_perf_guard_overhead.py``).

Throughput depends on the host — single-core containers used to show
parallel *slowdown* (documented in docs/PERFORMANCE.md) — so the report
records the manifest's host block alongside the numbers and never fails
on a regression, only on a crash or an invalid manifest (regression
policy lives in ``scripts/perf_guard.py``).

Run:  PYTHONPATH=src python scripts/bench_report.py [--workers 1 2 4]
          [--n 1200] [--epochs 10] [--output BENCH_PR7.json]
          [--manifest-dir bench_manifests]
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import ExperimentRecord, format_table
from repro.core.fused import FusedCBOWNegativeSampling
from repro.core.trainer import TrainConfig, _build_objective, train_embeddings
from repro.core.vocab import VertexVocab
from repro.datasets.synthetic import community_benchmark
from repro.obs.manifest import SCHEMA_VERSION, host_info, load_manifest
from repro.obs.recorder import ObsConfig, session
from repro.obs.resources import ResourceSnapshot, resource_delta
from repro.parallel.pool import resolve_workers
from repro.walks.engine import RandomWalkConfig, generate_walks

# Still v2: PR 10's `shard_walks` section is purely additive, and
# scripts/perf_guard.py refuses to compare reports across schema
# versions — a bump would orphan the committed BENCH_PR7.json baseline.
BENCH_SCHEMA_VERSION = 2


def _kernel(config: TrainConfig, corpus) -> str:
    """The batch kernel the trainer builds for ``config``."""
    vocab = VertexVocab.from_corpus(corpus)
    objective = _build_objective(config, vocab, np.random.default_rng(0))
    return "fused" if isinstance(objective, FusedCBOWNegativeSampling) else "reference"


def _observed(manifest_path: Path, run_config: dict):
    """A quiet observability session writing ``manifest_path``."""
    return session(
        ObsConfig(log_level="error", metrics_out=str(manifest_path)),
        run_config=run_config,
    )


def measure(
    worker_counts: list[int],
    *,
    n: int,
    groups: int,
    walks_per_vertex: int,
    walk_length: int,
    dim: int,
    epochs: int,
    seed: int,
    manifest_dir: Path,
    warmup: int = 1,
    repeats: int = 3,
    bench_name: str = "pr7_parallel_payoff",
) -> dict:
    graph = community_benchmark(
        0.5, n=n, groups=groups, inter_edges=n // 5, seed=seed
    )
    walk_cfg = RandomWalkConfig(
        walks_per_vertex=walks_per_vertex, walk_length=walk_length, seed=seed
    )

    walk_rows = []
    for workers in worker_counts:
        # Unmeasured warm-up: the persistent pool forks its workers on
        # the first map of a run; the bench reports steady-state
        # throughput, which is what every map after the first one sees.
        for _ in range(warmup):
            generate_walks(graph, walk_cfg, workers=workers)
        mpath = manifest_dir / f"walks_w{workers}.manifest.json"
        with _observed(mpath, {"stage": "walks", "workers": workers, "n": n}):
            for _ in range(max(repeats, 1)):
                walks = generate_walks(graph, walk_cfg, workers=workers)
        manifest = load_manifest(mpath)  # validates REQUIRED_KEYS
        metrics = manifest["metrics"]
        hist = metrics["histograms"]["walks.generate_seconds"]
        # Best-of-N: a walk wave is milliseconds-long, so on a shared
        # (and often single-CPU) host the min is the honest signal.
        best = hist["min"]
        walk_rows.append(
            {
                "workers": workers,
                "effective_workers": resolve_workers(workers),
                "seconds": round(best, 4),
                "walks_per_sec": round(walks.num_walks / max(best, 1e-9), 1),
                "repeats": int(hist["count"]),
                "manifest": mpath.name,
            }
        )

    shard_rows = _shard_walks(
        graph, walk_cfg, worker_counts, manifest_dir,
        seed=seed, warmup=warmup, repeats=repeats,
    )

    corpus = generate_walks(graph, walk_cfg)
    train_rows = []
    serial_seconds = None
    # host_info() (not just the manifest copy) so cpu_affinity is always
    # present even if a future manifest schema trims its host block.
    host = host_info()
    for workers in worker_counts:
        cfg = TrainConfig(
            dim=dim, epochs=epochs, seed=seed, early_stop=False, workers=workers
        )
        mpath = manifest_dir / f"train_w{workers}.manifest.json"
        before = ResourceSnapshot.capture()
        with _observed(mpath, {"stage": "train", "workers": workers, "n": n}):
            result = train_embeddings(corpus, cfg)
        resources = resource_delta(before, ResourceSnapshot.capture())
        if not np.all(np.isfinite(result.vectors)):
            raise RuntimeError(f"non-finite vectors at workers={workers}")
        manifest = load_manifest(mpath)
        host = {**host, **manifest["host"]}
        metrics = manifest["metrics"]
        epoch_hist = metrics["histograms"]["train.epoch_seconds"]
        epochs_run = int(metrics["counters"]["train.epochs_run"])
        seconds = epoch_hist["sum"]
        if serial_seconds is None:
            serial_seconds = seconds
        train_rows.append(
            {
                "workers": workers,
                "effective_workers": resolve_workers(workers),
                "kernel": _kernel(cfg, corpus),
                "seconds": round(seconds, 4),
                "epochs_per_sec": round(epochs_run / max(seconds, 1e-9), 3),
                "words_per_sec": round(
                    metrics["gauges"]["train.words_per_sec"], 1
                ),
                "speedup_vs_serial": round(
                    serial_seconds / max(seconds, 1e-9), 3
                ),
                "final_loss": round(result.loss_history[-1], 6),
                # Parent-process resource ledger for the whole measured
                # run (repro.obs.resources): effective parallelism and
                # the memory high-water mark ride along with throughput.
                "cpu_utilization": resources["cpu_utilization"],
                "peak_rss_kb": resources["peak_rss_kb"],
                "manifest": mpath.name,
            }
        )

    serial_cfg = TrainConfig(
        dim=dim, epochs=epochs, seed=seed, early_stop=False, workers=1
    )
    serial_epoch_seconds = serial_seconds / max(epochs, 1)
    lifecycle = _lifecycle_overhead(
        corpus, serial_cfg, serial_epoch_seconds=serial_epoch_seconds
    )
    guard = _guard_overhead(
        graph, walk_cfg, serial_cfg, manifest_dir,
        serial_epoch_seconds=serial_epoch_seconds,
    )

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "manifest_schema_version": SCHEMA_VERSION,
        "bench": bench_name,
        "host": host,
        "corpus": {
            "n": n,
            "groups": groups,
            "walks": corpus.num_walks,
            "tokens": corpus.num_tokens,
            "walk_length": walk_length,
            "warmup_runs": warmup,
        },
        "train_config": {"dim": dim, "epochs": epochs, "seed": seed},
        "walk_generation": walk_rows,
        "shard_walks": shard_rows,
        "training": train_rows,
        "lifecycle_overhead": lifecycle,
        "guard_overhead": guard,
    }


def _shard_walks(
    graph, walk_cfg, worker_counts: list[int], manifest_dir: Path, *,
    seed: int, warmup: int, repeats: int, shard_counts: tuple[int, ...] = (1, 4),
) -> list[dict]:
    """Out-of-core walk throughput (PR 10): mmap'd store, per-shard tasks.

    Measures :func:`repro.walks.sharded.generate_walks_sharded` over the
    same graph and walk config as the in-memory rows, at each shard ×
    worker combination, and asserts every corpus is bitwise-identical to
    the single-shard one — a bench run that silently broke shard
    invariance would poison every number after it. Each row carries the
    exchange-loop shape (``rounds``, boundary crossings ``exchanged``)
    so throughput regressions can be told apart from partition-quality
    regressions.
    """
    from repro.graph.store import GraphStore
    from repro.pipeline import ExecutionContext
    from repro.walks.sharded import generate_walks_sharded

    rows = []
    reference = None
    with tempfile.TemporaryDirectory(prefix="bench_stores_") as tmp:
        for shards in shard_counts:
            store = GraphStore.build(
                graph, Path(tmp) / f"s{shards}", shards=shards, seed=seed
            )
            for workers in worker_counts:
                ctx = ExecutionContext(workers=workers)
                for _ in range(warmup):
                    generate_walks_sharded(store, walk_cfg, context=ctx)
                mpath = (
                    manifest_dir / f"shard_s{shards}_w{workers}.manifest.json"
                )
                run_config = {
                    "stage": "shard_walks", "shards": shards, "workers": workers
                }
                with _observed(mpath, run_config):
                    for _ in range(max(repeats, 1)):
                        walks = generate_walks_sharded(
                            store, walk_cfg, context=ctx
                        )
                if reference is None:
                    reference = walks.walks
                identical = bool(np.array_equal(reference, walks.walks))
                if not identical:
                    raise RuntimeError(
                        f"shard invariance broken at shards={shards} "
                        f"workers={workers}"
                    )
                manifest = load_manifest(mpath)
                metrics = manifest["metrics"]
                hist = metrics["histograms"]["walks.generate_seconds"]
                best = hist["min"]
                reps = max(repeats, 1)
                rows.append(
                    {
                        "shards": shards,
                        "workers": workers,
                        "effective_workers": resolve_workers(workers),
                        "seconds": round(best, 4),
                        "walks_per_sec": round(
                            walks.num_walks / max(best, 1e-9), 1
                        ),
                        "rounds": int(
                            metrics["counters"]["shard.rounds"] // reps
                        ),
                        "exchanged": int(
                            metrics["counters"].get("shard.exchanged", 0)
                            // reps
                        ),
                        "identical_to_single_shard": identical,
                        "repeats": int(hist["count"]),
                        "manifest": mpath.name,
                    }
                )
    return rows


def _lifecycle_overhead(
    corpus, config: TrainConfig, *, serial_epoch_seconds: float
) -> dict:
    """Cancel-poll cost per batch vs one serial epoch (< 1% budget).

    Microbenches the exact ``scope.check()`` the dense batch loop runs,
    against the worst-case scope (live token *and* deadline), and scales
    it by the loop's batches per epoch. The measured serial epoch time
    already contains the real polls, so the fraction is an upper bound.
    """
    from repro.resilience.lifecycle import (
        CancellationToken,
        Deadline,
        cancel_scope,
        current_cancel_scope,
    )

    iters = 200_000
    with cancel_scope(CancellationToken(), Deadline(3600.0)):
        scope = current_cancel_scope()
        start = time.perf_counter()
        for _ in range(iters):
            scope.check()
        check_seconds = (time.perf_counter() - start) / iters
    batches_per_epoch = max(
        1,
        int(np.ceil(corpus.num_examples(config.window) / config.batch_size)),
    )
    fraction = check_seconds * batches_per_epoch / max(serial_epoch_seconds, 1e-12)
    return {
        "check_seconds": check_seconds,
        "batches_per_epoch": batches_per_epoch,
        "serial_epoch_seconds": round(serial_epoch_seconds, 6),
        "overhead_fraction": fraction,
        "budget_fraction": 0.01,
        "within_budget": fraction < 0.01,
    }


def _guard_overhead(
    graph, walk_cfg, train_cfg, manifest_dir: Path, *,
    serial_epoch_seconds: float,
) -> dict:
    """Resource-guard cost: watchdog tick vs interval + one-shot preflight.

    Microbenches the exact watchdog ``poll_once()`` the daemon thread
    runs (a /proc RSS read plus ``statvfs`` on /dev/shm and the
    checkpoint dir) against a never-breaching budget, and the
    :func:`~repro.resilience.guard.preflight` footprint estimate over
    the real stage configs. ``poll_cost / interval`` is the fraction of
    one core the sampler can steal; preflight is charged in full to a
    single epoch — both upper bounds.
    """
    from types import SimpleNamespace

    from repro.obs.recorder import Recorder, use
    from repro.pipeline import ExecutionContext
    from repro.resilience.guard import (
        PressureWatchdog,
        ResourceBudget,
        preflight,
        reset_guard,
    )

    iters = 2_000
    budget = ResourceBudget(memory_bytes=1 << 50, disk_bytes=1 << 50)
    reset_guard()
    try:
        dog = PressureWatchdog(budget, checkpoint_dir=manifest_dir)
        with use(Recorder()):
            start = time.perf_counter()
            for _ in range(iters):
                dog.poll_once()
            poll_seconds = (time.perf_counter() - start) / iters
    finally:
        reset_guard()
    ctx = ExecutionContext(workers=1, budget=budget)
    stages = [
        SimpleNamespace(config=walk_cfg), SimpleNamespace(config=train_cfg)
    ]
    with use(Recorder()):
        start = time.perf_counter()
        for _ in range(iters):
            preflight(ctx, stages, graph)
        preflight_seconds = (time.perf_counter() - start) / iters
    poll_fraction = poll_seconds / budget.interval
    preflight_fraction = preflight_seconds / max(serial_epoch_seconds, 1e-12)
    fraction = poll_fraction + preflight_fraction
    return {
        "poll_seconds": poll_seconds,
        "interval_seconds": budget.interval,
        "preflight_seconds": preflight_seconds,
        "serial_epoch_seconds": round(serial_epoch_seconds, 6),
        "overhead_fraction": fraction,
        "budget_fraction": 0.01,
        "within_budget": fraction < 0.01,
    }


def render(report: dict) -> str:
    records = [
        ExperimentRecord(
            params={"stage": "walks", "workers": row["workers"]},
            values={
                k: v for k, v in row.items() if k not in ("workers", "manifest")
            },
        )
        for row in report["walk_generation"]
    ] + [
        ExperimentRecord(
            params={
                "stage": f"shard[{row['shards']}]", "workers": row["workers"]
            },
            values={
                k: v
                for k, v in row.items()
                if k not in ("shards", "workers", "manifest")
            },
        )
        for row in report.get("shard_walks", [])
    ] + [
        ExperimentRecord(
            params={"stage": "train", "workers": row["workers"]},
            values={
                k: v for k, v in row.items() if k not in ("workers", "manifest")
            },
        )
        for row in report["training"]
    ]
    lifecycle = report.get("lifecycle_overhead")
    if lifecycle:
        records.append(
            ExperimentRecord(
                params={"stage": "lifecycle", "workers": 1},
                values={
                    "check_us": round(lifecycle["check_seconds"] * 1e6, 3),
                    "batches_per_epoch": lifecycle["batches_per_epoch"],
                    "overhead_fraction": round(
                        lifecycle["overhead_fraction"], 6
                    ),
                    "within_budget": lifecycle["within_budget"],
                },
            )
        )
    guard = report.get("guard_overhead")
    if guard:
        records.append(
            ExperimentRecord(
                params={"stage": "guard", "workers": 1},
                values={
                    "poll_us": round(guard["poll_seconds"] * 1e6, 3),
                    "preflight_us": round(guard["preflight_seconds"] * 1e6, 3),
                    "overhead_fraction": round(guard["overhead_fraction"], 6),
                    "within_budget": guard["within_budget"],
                },
            )
        )
    host = report["host"]
    return format_table(
        records,
        title=(
            f"{report.get('bench', 'pipeline')} bench "
            f"(cpus={host['cpu_count']}, affinity={host['cpu_affinity']}, "
            f"python={host['python']})"
        ),
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", nargs="*", type=int, default=[1, 2, 4])
    parser.add_argument("--n", type=int, default=1200, help="graph vertices")
    parser.add_argument("--groups", type=int, default=8)
    parser.add_argument("--walks", type=int, default=12, help="walks per vertex")
    parser.add_argument("--length", type=int, default=40, help="walk length")
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="unmeasured walk runs per worker count (pool fork amortization)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="measured walk runs per worker count; the best is reported",
    )
    parser.add_argument("--output", default="BENCH_PR7.json")
    parser.add_argument(
        "--bench-name",
        default="pr7_parallel_payoff",
        help="the report's `bench` identity; scripts/perf_guard.py only "
        "compares reports whose names match",
    )
    parser.add_argument(
        "--manifest-dir",
        default=None,
        help="keep per-run manifests here (default: a temp dir, discarded)",
    )
    args = parser.parse_args()

    if args.manifest_dir is not None:
        manifest_dir = Path(args.manifest_dir)
        manifest_dir.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="bench_manifests_")
        manifest_dir = Path(cleanup.name)

    try:
        report = measure(
            args.workers,
            n=args.n,
            groups=args.groups,
            walks_per_vertex=args.walks,
            walk_length=args.length,
            dim=args.dim,
            epochs=args.epochs,
            seed=args.seed,
            manifest_dir=manifest_dir,
            warmup=args.warmup,
            repeats=args.repeats,
            bench_name=args.bench_name,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    print(render(report))
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
