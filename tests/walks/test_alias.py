"""Tests for the alias-method sampler."""

import numpy as np
import pytest

from repro.graph.core import Graph
from repro.walks.alias import build_alias, build_arc_alias


class TestBuildAlias:
    def test_uniform_weights(self):
        prob, alias = build_alias(np.ones(4))
        assert np.allclose(prob, 1.0)
        assert prob.shape == (4,)

    def test_empty(self):
        prob, alias = build_alias(np.empty(0))
        assert prob.shape == (0,)

    def test_single_element(self):
        prob, alias = build_alias(np.asarray([3.0]))
        assert prob.tolist() == [1.0]
        assert alias.tolist() == [0]

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            build_alias(np.asarray([1.0, -1.0]))
        with pytest.raises(ValueError):
            build_alias(np.zeros(3))

    def test_distribution_preserved(self):
        """Alias sampling must reproduce the target distribution exactly
        in expectation: check via the analytic slot probabilities."""
        w = np.asarray([1.0, 2.0, 3.0, 4.0])
        prob, alias = build_alias(w)
        k = w.shape[0]
        # P(i) = (prob[i] + sum_{j: alias[j]==i} (1-prob[j])) / k
        p = prob.copy()
        for j in range(k):
            p[alias[j]] += 1.0 - prob[j]
        np.testing.assert_allclose(p / k, w / w.sum(), atol=1e-12)

    def test_extreme_skew(self):
        w = np.asarray([1e-8, 1.0, 1e-8])
        prob, alias = build_alias(w)
        p = prob.copy()
        for j in range(3):
            p[alias[j]] += 1.0 - prob[j]
        np.testing.assert_allclose(p / 3, w / w.sum(), atol=1e-12)


class TestArcAlias:
    def test_flat_tables_align_with_rows(self, weighted_star):
        table = build_arc_alias(weighted_star.indptr, weighted_star.edge_weights)
        assert table.prob.shape == (weighted_star.num_arcs,)
        assert table.alias.shape == (weighted_star.num_arcs,)

    def test_sampling_respects_weights(self, rng):
        # Vertex 0 has neighbors 1,2,3 with weights 1,2,3.
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)], directed=True)
        table = build_arc_alias(g.indptr, g.edge_weights)
        starts = np.zeros(60000, dtype=np.int64)
        degrees = np.full(60000, 3, dtype=np.int64)
        arcs = table.sample(starts, degrees, rng)
        picks = g.indices[arcs]
        freq = np.bincount(picks, minlength=4)[1:] / 60000
        np.testing.assert_allclose(freq, [1 / 6, 2 / 6, 3 / 6], atol=0.02)

    def test_zero_weight_row_degenerates_uniform(self, rng):
        g = Graph(3, [(0, 1, 0.0), (0, 2, 0.0)], directed=True)
        table = build_arc_alias(g.indptr, g.edge_weights)
        starts = np.zeros(10000, dtype=np.int64)
        degrees = np.full(10000, 2, dtype=np.int64)
        picks = g.indices[table.sample(starts, degrees, rng)]
        freq = np.bincount(picks, minlength=3)[1:] / 10000
        np.testing.assert_allclose(freq, [0.5, 0.5], atol=0.03)

    def test_misaligned_weights_rejected(self, weighted_star):
        with pytest.raises(ValueError):
            build_arc_alias(weighted_star.indptr, np.ones(2))

    def test_negative_weights_rejected(self, weighted_star):
        with pytest.raises(ValueError):
            build_arc_alias(
                weighted_star.indptr, -np.ones(weighted_star.num_arcs)
            )

    def test_empty_rows_ok(self):
        g = Graph(3, [(0, 1, 1.0)], directed=True)  # vertices 1,2 have no arcs
        table = build_arc_alias(g.indptr, g.edge_weights)
        assert table.prob.shape == (1,)


class TestBatchedSample:
    """PR7: array-shaped draws must be a pure reshape of the scalar
    contract — same per-draw math, same distribution, and bitwise
    equality with the historic 1-D call at a fixed seed."""

    def test_1d_call_bitwise_unchanged(self, weighted_star):
        table = build_arc_alias(weighted_star.indptr, weighted_star.edge_weights)
        starts = np.zeros(500, dtype=np.int64)
        degrees = np.full(500, weighted_star.out_degrees()[0], dtype=np.int64)
        a = table.sample(starts, degrees, np.random.default_rng(42))
        # Reference re-implementation of the pre-PR7 1-D body.
        rng = np.random.default_rng(42)
        u = rng.random(500)
        slots = (u * degrees).astype(np.int64)
        np.minimum(slots, degrees - 1, out=slots)
        arc = starts + slots
        accept = rng.random(500) < table.prob[arc]
        b = np.where(accept, arc, starts + table.alias[arc])
        np.testing.assert_array_equal(a, b)

    def test_shaped_draw_matches_flat_draw(self):
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)], directed=True)
        table = build_arc_alias(g.indptr, g.edge_weights)
        shaped = table.sample(
            np.zeros((32, 5), dtype=np.int64), 3, np.random.default_rng(9)
        )
        flat = table.sample(
            np.zeros(160, dtype=np.int64),
            np.full(160, 3, dtype=np.int64),
            np.random.default_rng(9),
        )
        assert shaped.shape == (32, 5)
        np.testing.assert_array_equal(shaped.ravel(), flat)

    def test_batched_distribution_matches_scalar(self, rng):
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)], directed=True)
        table = build_arc_alias(g.indptr, g.edge_weights)
        starts = np.zeros((300, 200), dtype=np.int64)
        picks = g.indices[table.sample(starts, 3, rng)]
        freq = np.bincount(picks.ravel(), minlength=4)[1:] / 60000
        np.testing.assert_allclose(freq, [1 / 6, 2 / 6, 3 / 6], atol=0.02)

    def test_scalar_broadcast_against_array(self):
        g = Graph(4, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0)], directed=True)
        table = build_arc_alias(g.indptr, g.edge_weights)
        out = table.sample(
            0, np.full((2, 7), 3, dtype=np.int64), np.random.default_rng(1)
        )
        assert out.shape == (2, 7)
        assert np.all((out >= 0) & (out < 3))
