"""Microbenchmarks of the hot kernels.

Unlike the experiment benches (one-shot pedantic runs), these use
pytest-benchmark's repeated timing to track the per-call cost of the
kernels that dominate end-to-end runtime: the CBOW SGD step, the
vectorized walk step, context extraction, k-means assignment, and the
scatter-add primitive. Regressions here are regressions everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core._math import scatter_add_rows
from repro.core.cbow import CBOWNegativeSampling
from repro.core.negative import NegativeSampler
from repro.datasets.synthetic import community_benchmark
from repro.ml.kmeans import KMeans
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import RandomWalkConfig, generate_walks

V, D, B, C, K = 1000, 64, 512, 10, 5


@pytest.fixture(scope="module")
def graph():
    return community_benchmark(0.5, n=500, groups=10, inter_edges=100, seed=0)


@pytest.fixture(scope="module")
def cbow_batch():
    rng = np.random.default_rng(0)
    model = CBOWNegativeSampling(
        V, D, NegativeSampler(np.full(V, 1.0 / V)), negatives=K, rng=rng
    )
    centers = rng.integers(0, V, B)
    contexts = rng.integers(0, V, (B, C))
    contexts[rng.random((B, C)) < 0.2] = -1
    contexts[:, 0] = np.abs(contexts[:, 0])  # at least one real context
    return model, centers, contexts, rng


def test_cbow_batch_step(benchmark, cbow_batch):
    model, centers, contexts, rng = cbow_batch
    benchmark(model.batch_step, centers, contexts, 0.01, rng)


def test_scatter_add_rows(benchmark):
    rng = np.random.default_rng(0)
    target = np.zeros((V, D))
    idx = rng.integers(0, V, B * (K + 1))
    rows = rng.random((B * (K + 1), D))
    benchmark(scatter_add_rows, target, idx, rows)


def test_scatter_add_rows_unique_fast_path(benchmark):
    # Duplicate-free index batch: PR 2's bincount check short-circuits to
    # plain fancy-index addition instead of building the sparse selector.
    # Compare against test_scatter_add_rows to see the fast-path margin,
    # and against test_scatter_add_rows_add_at for the np.add.at baseline.
    rng = np.random.default_rng(0)
    target = np.zeros((4 * B * (K + 1), D))
    idx = rng.permutation(target.shape[0])[: B * (K + 1)]
    rows = rng.random((B * (K + 1), D))
    result = benchmark(scatter_add_rows, target, idx, rows)
    assert result is None

    # Parity gate: the fast path must agree with the ufunc reference.
    check = np.zeros_like(target)
    expect = np.zeros_like(target)
    scatter_add_rows(check, idx, rows)
    np.add.at(expect, idx, rows)
    np.testing.assert_array_equal(check, expect)


def test_scatter_add_rows_add_at(benchmark):
    # The np.add.at reference the selector formulation replaced — kept as a
    # baseline so the selector's advantage stays visible in bench output.
    rng = np.random.default_rng(0)
    target = np.zeros((V, D))
    idx = rng.integers(0, V, B * (K + 1))
    rows = rng.random((B * (K + 1), D))
    benchmark(np.add.at, target, idx, rows)


def test_walk_generation(benchmark, graph):
    cfg = RandomWalkConfig(walks_per_vertex=2, walk_length=40, seed=0)
    corpus = benchmark(generate_walks, graph, cfg)
    assert corpus.num_walks == 2 * graph.n


def test_context_extraction(benchmark, graph):
    corpus = generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=2, walk_length=40, seed=0)
    )
    centers, _ = benchmark(corpus.context_arrays, 5)
    assert centers.shape[0] == corpus.num_examples(5)


def test_kmeans_fit(benchmark):
    rng = np.random.default_rng(0)
    x = rng.random((1000, 32))
    km = KMeans(10, n_init=1, seed=0)
    result = benchmark(km.fit, x)
    assert result.labels.shape == (1000,)


def test_negative_sampling(benchmark):
    rng = np.random.default_rng(0)
    sampler = NegativeSampler(np.random.default_rng(1).random(V))
    draws = benchmark(sampler.sample, (B, K), rng)
    assert draws.shape == (B, K)
