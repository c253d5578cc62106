"""Frontier-batched walk stepping must be bitwise-identical to the
masked reference loop (on dead-end-free graphs), and the engine's
chunked path bitwise-identical to the masked loop run over the same
chunk plan and seeds — the contracts the frontier batching rests on."""

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.graph.core import EdgeList, Graph
from repro.parallel.pool import chunk_bounds
from repro.parallel.seeding import spawn_seeds
from repro.walks.engine import (
    PAD,
    RandomWalkConfig,
    WalkMode,
    _make_stepper,
    _step_walks_dense,
    _step_walks_masked,
    _walk_arrays,
    generate_walks,
)


def _dense_graph(n=120, out_deg=5, seed=0, weights=False, vweights=False):
    """Every vertex has out-arcs, so no walk can ever die."""
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n, dtype=np.int64), out_deg)
    dst = rng.integers(0, n, src.size).astype(np.int64)
    edges = EdgeList(
        src=src,
        dst=dst,
        weights=(rng.random(src.size) + 0.05) if weights else None,
    )
    return Graph(
        n,
        edges,
        directed=True,
        vertex_weights=(rng.random(n) + 0.05) if vweights else None,
    )


def _run_both(g, mode, **cfg_kwargs):
    """(masked, dense) walk matrices from identically seeded streams."""
    config = RandomWalkConfig(mode=mode, **cfg_kwargs)
    arrays, _dense = _walk_arrays(g, mode)
    stepper = _make_stepper(config, arrays)
    starts = np.tile(np.arange(g.n, dtype=np.int64), 3)
    length = 25

    masked = np.full((starts.shape[0], length), PAD, dtype=np.int64)
    masked[:, 0] = starts
    _step_walks_masked(stepper, starts, masked, np.random.default_rng(11))

    stepper2 = _make_stepper(config, arrays)
    dense = _step_walks_dense(stepper2, starts, length, np.random.default_rng(11))
    return masked, dense


class TestDenseMatchesMasked:
    """Satellite (c): frontier-batched == pre-batching serial reference."""

    def test_uniform(self):
        masked, dense = _run_both(_dense_graph(), WalkMode.UNIFORM)
        np.testing.assert_array_equal(dense, masked)

    def test_weighted_alias(self):
        g = _dense_graph(weights=True)
        masked, dense = _run_both(g, WalkMode.WEIGHTED)
        np.testing.assert_array_equal(dense, masked)

    def test_vertex_weighted_alias(self):
        g = _dense_graph(vweights=True)
        masked, dense = _run_both(g, WalkMode.VERTEX_WEIGHTED)
        np.testing.assert_array_equal(dense, masked)

    def test_node2vec(self):
        masked, dense = _run_both(
            _dense_graph(), WalkMode.NODE2VEC, p=0.5, q=2.0
        )
        np.testing.assert_array_equal(dense, masked)

    def test_node2vec_extreme_bias(self):
        # Heavy rejection pressure (many rounds) must not desync streams.
        masked, dense = _run_both(
            _dense_graph(out_deg=3), WalkMode.NODE2VEC, p=8.0, q=0.125
        )
        np.testing.assert_array_equal(dense, masked)


class TestExportDecidesDense:
    def test_dense_ok_for_full_out_degree(self):
        _arrays, dense = _walk_arrays(_dense_graph(), WalkMode.UNIFORM)
        assert dense

    def test_dead_ends_disable_dense(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)], directed=True)  # 3 is a sink
        _arrays, dense = _walk_arrays(g, WalkMode.UNIFORM)
        assert not dense

    def test_temporal_never_dense(self):
        rng = np.random.default_rng(0)
        src = np.repeat(np.arange(20, dtype=np.int64), 4)
        dst = rng.integers(0, 20, src.size).astype(np.int64)
        g = Graph(
            20,
            EdgeList(src=src, dst=dst, times=rng.random(src.size)),
            directed=True,
        )
        _arrays, dense = _walk_arrays(g, WalkMode.TEMPORAL)
        assert not dense


def _masked_reference(g, cfg, chunks):
    """The masked reference loop over the engine's chunk plan and seeds."""
    arrays, _dense = _walk_arrays(g, WalkMode(cfg.mode))
    starts = np.tile(np.arange(g.n, dtype=np.int64), cfg.walks_per_vertex)
    walks = np.full((starts.shape[0], cfg.walk_length), PAD, dtype=np.int64)
    walks[:, 0] = starts
    bounds = chunk_bounds(starts.shape[0], chunks)
    for (lo, hi), seed in zip(bounds, spawn_seeds(cfg.seed, len(bounds))):
        _step_walks_masked(
            _make_stepper(cfg, arrays),
            starts[lo:hi],
            walks[lo:hi],
            np.random.default_rng(seed),
        )
    return walks


def _pooled(g, cfg):
    return generate_walks(g, cfg, context=ExecutionContext(workers=2)).walks


class TestParallelMatchesLegacyChunks:
    """The pooled chunk path must reproduce the masked reference loop
    run chunk by chunk, bit for bit, for a fixed (seed, chunk count) —
    shared memory and frontier batching are implementation details, not
    output changes."""

    @pytest.mark.parametrize(
        "mode,kwargs,weights,vweights",
        [
            (WalkMode.UNIFORM, {}, False, False),
            (WalkMode.WEIGHTED, {}, True, False),
            (WalkMode.VERTEX_WEIGHTED, {}, False, True),
            (WalkMode.NODE2VEC, {"p": 0.5, "q": 2.0}, False, False),
        ],
    )
    def test_modes_bitwise(self, mode, kwargs, weights, vweights):
        g = _dense_graph(n=80, weights=weights, vweights=vweights)
        cfg = RandomWalkConfig(
            walks_per_vertex=3, walk_length=15, mode=mode, seed=7, **kwargs
        )
        np.testing.assert_array_equal(_pooled(g, cfg), _masked_reference(g, cfg, 2))

    def test_dead_end_fallback_bitwise(self):
        # Some vertices have no out-arcs: workers must take the masked
        # loop and still match the reference exactly.
        rng = np.random.default_rng(3)
        src = np.repeat(np.arange(40, dtype=np.int64), 3)
        dst = rng.integers(0, 80, src.size).astype(np.int64)  # 40..79 are sinks
        g = Graph(80, EdgeList(src=src, dst=dst), directed=True)
        cfg = RandomWalkConfig(walks_per_vertex=3, walk_length=15, seed=7)
        np.testing.assert_array_equal(_pooled(g, cfg), _masked_reference(g, cfg, 2))

    def test_temporal_bitwise(self):
        rng = np.random.default_rng(5)
        src = np.repeat(np.arange(50, dtype=np.int64), 5)
        dst = rng.integers(0, 50, src.size).astype(np.int64)
        g = Graph(
            50,
            EdgeList(src=src, dst=dst, times=rng.random(src.size) * 10),
            directed=True,
        )
        cfg = RandomWalkConfig(
            walks_per_vertex=3,
            walk_length=15,
            mode=WalkMode.TEMPORAL,
            time_window=4.0,
            seed=7,
        )
        np.testing.assert_array_equal(_pooled(g, cfg), _masked_reference(g, cfg, 2))

    def test_out_of_range_start_raises_in_parent(self):
        g = _dense_graph(n=10)
        cfg = RandomWalkConfig(
            walks_per_vertex=2,
            walk_length=5,
            seed=0,
            start_vertices=np.asarray([0, 99]),
        )
        with pytest.raises(ValueError, match="start vertex out of range"):
            generate_walks(g, cfg, context=ExecutionContext(workers=2))
