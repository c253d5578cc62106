"""Extension: multi-process walk generation (the IPDPSW angle).

Measures walk-corpus generation across worker counts. The point is
correctness-at-scale and the measured overhead/throughput trade — at
small graph sizes process startup dominates, so the assertion only
requires that parallel output is complete and equivalent in
distributional terms, with timings reported for the record."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.bench.harness import ExperimentRecord, Timer, format_table
from repro.context import ExecutionContext
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
    cfg = RandomWalkConfig(
        walks_per_vertex=max(scale.walks_per_vertex, 10),
        walk_length=max(scale.walk_length, 60),
        seed=scale.seed,
    )
    records = []
    reference_counts = None
    for workers in WORKER_COUNTS:
        with Timer() as t:
            corpus = generate_walks(
                graph, cfg, context=ExecutionContext(workers=workers)
            )
        counts = corpus.token_counts()
        if reference_counts is None:
            reference_counts = counts
        # Distributional equivalence: token-frequency correlation with
        # the serial corpus (same walk statistics, different streams).
        corr = float(np.corrcoef(reference_counts, counts)[0, 1])
        records.append(
            ExperimentRecord(
                params={"workers": workers},
                values={
                    "seconds": t.seconds,
                    "walks": float(corpus.num_walks),
                    "tokens": float(corpus.num_tokens),
                    "freq_corr_vs_serial": corr,
                },
            )
        )
    return records


def test_ext_parallel_walks(benchmark, scale, results_dir):
    records = benchmark.pedantic(run, args=(scale,), rounds=1, iterations=1)
    rendered = format_table(
        records,
        title=f"Extension — parallel walk generation [scale={scale.name}]",
    )
    emit("ext_parallel_walks", records, rendered, results_dir)

    walks = {r.params["workers"]: r.values["walks"] for r in records}
    # Every worker count produces the complete corpus.
    assert len(set(walks.values())) == 1
    for r in records:
        # High but not perfect: different seed streams sample different
        # walks; the visit-frequency profile must still agree.
        assert r.values["freq_corr_vs_serial"] > 0.8
