"""PR 2 perf bench: Hogwild training and shared-memory walk transfer.

Measures end-to-end training throughput (epochs/sec) across trainer
worker counts on one fixed walk corpus, plus walk-generation throughput
(walks/sec), where pooled chunks write straight into shared memory. The point of
record is the measured numbers, not a pass/fail speedup gate: on
multicore hardware 2 workers land ≥ the serial rate, but CI runners and
single-core containers legitimately show parallel slowdown (process
startup + interleaving), so the assertions check correctness invariants
— completeness, finite vectors, workers=1 bitwise identity — and leave
throughput to the emitted table / BENCH_PR2.json.

``scripts/bench_report.py`` runs the same measurement standalone and
writes the JSON artifact CI uploads.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.bench.harness import ExperimentRecord, Timer, format_table
from repro.context import ExecutionContext
from repro.core.trainer import TrainConfig, train_embeddings
from repro.datasets.synthetic import community_benchmark
from repro.walks.engine import RandomWalkConfig, generate_walks

WORKER_COUNTS = (1, 2, 4)


def run(scale) -> list[ExperimentRecord]:
    graph = community_benchmark(
        0.5,
        n=scale.n,
        groups=scale.groups,
        inter_edges=scale.inter_edges,
        seed=scale.seed,
    )
    walk_cfg = RandomWalkConfig(
        walks_per_vertex=scale.walks_per_vertex,
        walk_length=scale.walk_length,
        seed=scale.seed,
    )
    records = []

    # Walk stage: serial vs shared-memory parallel transfer.
    for workers in WORKER_COUNTS:
        with Timer() as t:
            corpus = generate_walks(
                graph, walk_cfg, context=ExecutionContext(workers=workers)
            )
        records.append(
            ExperimentRecord(
                params={"stage": "walks", "workers": workers},
                values={
                    "seconds": t.seconds,
                    "walks_per_sec": corpus.num_walks / max(t.seconds, 1e-9),
                },
            )
        )

    # Train stage: one corpus, same config, varying Hogwild worker count.
    corpus = generate_walks(graph, walk_cfg)
    serial_vectors = None
    serial_seconds = None
    for workers in WORKER_COUNTS:
        cfg = TrainConfig(
            dim=scale.table1_dim,
            epochs=scale.epochs,
            seed=scale.seed,
            early_stop=False,
            workers=workers,
        )
        with Timer() as t:
            result = train_embeddings(corpus, cfg)
        assert result.epochs_run == cfg.epochs
        assert np.all(np.isfinite(result.vectors))
        if workers == 1:
            serial_vectors = result.vectors
            serial_seconds = t.seconds
        records.append(
            ExperimentRecord(
                params={"stage": "train", "workers": workers},
                values={
                    "seconds": t.seconds,
                    "epochs_per_sec": result.epochs_run / max(t.seconds, 1e-9),
                    "speedup_vs_serial": serial_seconds / max(t.seconds, 1e-9),
                    "final_loss": result.loss_history[-1],
                },
            )
        )

    # Determinism invariant rides along: dispatching through the
    # workers=1 Hogwild path must reproduce the serial trainer bitwise.
    check = train_embeddings(
        corpus,
        TrainConfig(
            dim=scale.table1_dim,
            epochs=scale.epochs,
            seed=scale.seed,
            early_stop=False,
            workers=1,
        ),
    )
    np.testing.assert_array_equal(check.vectors, serial_vectors)
    return records


def test_perf_parallel_training(benchmark, scale, results_dir):
    records = benchmark.pedantic(run, args=(scale,), rounds=1, iterations=1)
    rendered = format_table(
        records,
        title=f"PR 2 — Hogwild training / shm walk transfer [scale={scale.name}]",
    )
    emit("perf_parallel_training", records, rendered, results_dir)

    train = [r for r in records if r.params["stage"] == "train"]
    assert {r.params["workers"] for r in train} == set(WORKER_COUNTS)
    # Hogwild must stay in the serial loss regime at every worker count.
    losses = {r.params["workers"]: r.values["final_loss"] for r in train}
    for workers in WORKER_COUNTS[1:]:
        assert losses[workers] <= losses[1] * 1.5
