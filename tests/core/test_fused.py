"""Tests for the fused float32 CBOW negative-sampling kernel."""

import numpy as np
import pytest

from repro.core.cbow import CBOWHierarchicalSoftmax, CBOWNegativeSampling
from repro.core.fused import FusedCBOWNegativeSampling
from repro.core.negative import NegativeSampler
from repro.core.skipgram import SkipGramNegativeSampling
from repro.core.trainer import TrainConfig, _build_objective, train_embeddings
from repro.core.vocab import VertexVocab
from repro.walks.corpus import WalkCorpus


def _uniform_dist(v):
    return np.full(v, 1.0 / v)


def _batch(rng, vocab, batch=64, width=4):
    centers = rng.integers(0, vocab, batch).astype(np.int64)
    contexts = rng.integers(0, vocab, (batch, width)).astype(np.int64)
    # Punch PAD holes into some rows (but never empty a row).
    holes = rng.random((batch, width)) < 0.3
    holes[:, 0] = False
    contexts[holes] = -1
    return centers, contexts


def _corpus(rng, num_vertices=12, walks=80, length=10):
    rows = rng.integers(0, num_vertices, (walks, length)).astype(np.int64)
    return WalkCorpus(rows, num_vertices=num_vertices)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(0, 5, np.empty(0))
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(4, 0, _uniform_dist(4))
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(4, 5, _uniform_dist(4), negatives=0)
        with pytest.raises(ValueError):
            FusedCBOWNegativeSampling(4, 5, _uniform_dist(3))

    def test_shapes_and_dtypes(self):
        m = FusedCBOWNegativeSampling(10, 6, _uniform_dist(10))
        assert m.w_in.shape == (10, 6) and m.w_in.dtype == np.float32
        assert m.w_out.shape == (10, 6) and m.w_out.dtype == np.float32

    def test_vectors_property_is_float64(self):
        m = FusedCBOWNegativeSampling(10, 6, _uniform_dist(10))
        v = m.vectors
        assert v.dtype == np.float64
        np.testing.assert_allclose(v, m.w_in, rtol=1e-6)

    def test_init_matches_reference_draws(self):
        """Same rng → same init as the reference kernel, cast to f32."""
        ref = CBOWNegativeSampling(
            10,
            6,
            NegativeSampler(_uniform_dist(10)),
            rng=np.random.default_rng(3),
        )
        fused = FusedCBOWNegativeSampling(
            10, 6, _uniform_dist(10), rng=np.random.default_rng(3)
        )
        np.testing.assert_array_equal(
            fused.w_in, ref.w_in.astype(np.float32)
        )


class TestBatchStep:
    def test_deterministic_at_fixed_seed(self):
        vocab, dim = 30, 8
        runs = []
        for _ in range(2):
            m = FusedCBOWNegativeSampling(
                vocab, dim, _uniform_dist(vocab), rng=np.random.default_rng(0)
            )
            rng = np.random.default_rng(7)
            data_rng = np.random.default_rng(1)
            losses = [
                m.batch_step(*_batch(data_rng, vocab), 0.05, rng)
                for _ in range(5)
            ]
            runs.append((losses, m.w_in.copy(), m.w_out.copy()))
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    def test_loss_decreases_under_training(self):
        vocab, dim = 10, 8
        m = FusedCBOWNegativeSampling(
            vocab, dim, _uniform_dist(vocab), rng=np.random.default_rng(0)
        )
        rng = np.random.default_rng(5)
        # A fixed, structured batch: centers predictable from contexts.
        centers = np.arange(vocab, dtype=np.int64).repeat(6)
        contexts = np.stack(
            [(centers + k) % vocab for k in (1, 2, 3)], axis=1
        )
        first = m.batch_step(centers, contexts, 0.1, rng)
        for _ in range(200):
            last = m.batch_step(centers, contexts, 0.1, rng)
        assert last < first

    def test_empty_context_row_rejected(self):
        m = FusedCBOWNegativeSampling(8, 4, _uniform_dist(8))
        centers = np.zeros(2, dtype=np.int64)
        contexts = np.asarray([[1, 2], [-1, -1]], dtype=np.int64)
        with pytest.raises(ValueError):
            m.batch_step(centers, contexts, 0.1, np.random.default_rng(0))

    def test_loss_tracks_reference_kernel(self):
        """Same data, independent draws: the two kernels should land in
        the same loss ballpark after identical training schedules."""
        vocab, dim = 16, 8
        dist = _uniform_dist(vocab)
        ref = CBOWNegativeSampling(
            vocab, dim, NegativeSampler(dist), rng=np.random.default_rng(0)
        )
        fused = FusedCBOWNegativeSampling(
            vocab, dim, dist, rng=np.random.default_rng(0)
        )
        data_rng = np.random.default_rng(2)
        batches = [_batch(data_rng, vocab, batch=128) for _ in range(40)]
        r1 = np.random.default_rng(1)
        r2 = np.random.default_rng(1)
        ref_loss = [ref.batch_step(c, x, 0.05, r1) for c, x in batches][-1]
        fused_loss = [fused.batch_step(c, x, 0.05, r2) for c, x in batches][-1]
        assert abs(ref_loss - fused_loss) < 0.35 * max(ref_loss, fused_loss)


class TestKernelSelection:
    """The trainer builds one CBOW negative-sampling kernel everywhere."""

    @staticmethod
    def _built(config, rng):
        vocab = VertexVocab.from_corpus(_corpus(rng))
        return _build_objective(config, vocab, np.random.default_rng(0))

    def test_cbow_negative_is_float32_at_every_worker_count(self, rng):
        for config in (
            TrainConfig(workers=1),
            TrainConfig(workers=4),
            TrainConfig(streaming=True),
        ):
            objective = self._built(config, rng)
            assert isinstance(objective, FusedCBOWNegativeSampling)
            assert objective.w_in.dtype == np.float32
            assert objective.w_out.dtype == np.float32

    def test_skipgram_and_hierarchical_stay_float64(self, rng):
        for workers in (1, 4):
            for field, value, kind in (
                ("objective", "skipgram", SkipGramNegativeSampling),
                ("output_layer", "hierarchical", CBOWHierarchicalSoftmax),
            ):
                config = TrainConfig(workers=workers, **{field: value})
                objective = self._built(config, rng)
                assert isinstance(objective, kind)
                assert objective.w_in.dtype == np.float64
                assert objective.w_out.dtype == np.float64


class TestTrainerIntegration:
    def test_serial_fused_run_trains(self, rng):
        corpus = _corpus(rng)
        res = train_embeddings(corpus, TrainConfig(dim=7, epochs=3, seed=0))
        assert res.vectors.shape == (12, 7)
        assert res.vectors.dtype == np.float64
        assert np.all(np.isfinite(res.vectors))
        assert len(res.loss_history) == res.epochs_run

    def test_warm_start_cast_to_kernel_dtype(self, rng):
        corpus = _corpus(rng)
        init = np.random.default_rng(9).random((12, 7))
        res = train_embeddings(
            corpus,
            TrainConfig(dim=7, epochs=1, seed=0),
            init_vectors=init,
        )
        assert np.all(np.isfinite(res.vectors))
