"""Tests for multi-process walk generation."""

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.graph.generators import planted_partition
from repro.walks.engine import RandomWalkConfig, WalkMode, generate_walks


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=60, groups=3, alpha=0.5, inter_edges=10, seed=0)


class TestParallelWalks:
    def test_same_shape_as_serial(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=4, walk_length=12, seed=0)
        serial = generate_walks(graph, cfg, context=ExecutionContext(workers=1))
        par = generate_walks(graph, cfg, context=ExecutionContext(workers=3))
        assert par.walks.shape == serial.walks.shape
        assert par.num_vertices == serial.num_vertices

    def test_walks_valid(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=10, seed=0)
        corpus = generate_walks(graph, cfg, context=ExecutionContext(workers=4))
        arcs = set(graph.arcs())
        for walk in corpus.sentences():
            for u, v in zip(walk[:-1], walk[1:]):
                assert (int(u), int(v)) in arcs

    def test_reproducible_same_workers(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=10, seed=42)
        a = generate_walks(graph, cfg, context=ExecutionContext(workers=2))
        b = generate_walks(graph, cfg, context=ExecutionContext(workers=2))
        np.testing.assert_array_equal(a.walks, b.walks)

    def test_start_vertices_respected(self, graph):
        cfg = RandomWalkConfig(
            walks_per_vertex=5,
            walk_length=6,
            seed=0,
            start_vertices=np.asarray([0, 1]),
        )
        corpus = generate_walks(graph, cfg, context=ExecutionContext(workers=2))
        assert corpus.num_walks == 10
        assert set(corpus.walks[:, 0].tolist()) == {0, 1}

    def test_weighted_mode_parallel(self):
        from repro.graph.core import Graph

        g = Graph(4, [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 1.0)])
        cfg = RandomWalkConfig(
            walks_per_vertex=3, walk_length=8, seed=0, mode=WalkMode.WEIGHTED
        )
        corpus = generate_walks(g, cfg, context=ExecutionContext(workers=2))
        assert corpus.num_walks == 12

    def test_coverage_comparable(self, graph):
        cfg = RandomWalkConfig(walks_per_vertex=4, walk_length=15, seed=0)
        par = generate_walks(graph, cfg, context=ExecutionContext(workers=3))
        assert par.coverage() == 1.0
