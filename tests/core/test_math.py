"""Tests for the shared numerics."""

import numpy as np
import pytest
from scipy import sparse

from repro.core._math import (
    log_sigmoid,
    masked_context_mean,
    scatter_add_rows,
    sigmoid,
)


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.asarray([0.0]))[0] == 0.5

    def test_saturation_no_overflow(self):
        out = sigmoid(np.asarray([-1e6, 1e6]))
        assert 0.0 < out[0] < 1e-4
        assert 1.0 - 1e-4 < out[1] <= 1.0

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


class TestLogSigmoid:
    def test_matches_log_of_sigmoid(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-9)

    def test_no_minus_inf(self):
        assert np.isfinite(log_sigmoid(np.asarray([-1e9]))[0])


class TestScatterAddRows:
    def test_matches_add_at(self, rng):
        target = rng.random((20, 4))
        expect = target.copy()
        idx = rng.integers(0, 20, 100)
        rows = rng.random((100, 4))
        np.add.at(expect, idx, rows)
        scatter_add_rows(target, idx, rows)
        np.testing.assert_allclose(target, expect, atol=1e-12)

    def test_empty_noop(self):
        target = np.ones((3, 2))
        scatter_add_rows(target, np.empty(0, dtype=np.int64), np.empty((0, 2)))
        np.testing.assert_array_equal(target, np.ones((3, 2)))

    def test_all_same_index(self):
        target = np.zeros((2, 3))
        idx = np.zeros(5, dtype=np.int64)
        rows = np.ones((5, 3))
        scatter_add_rows(target, idx, rows)
        np.testing.assert_array_equal(target[0], [5, 5, 5])
        np.testing.assert_array_equal(target[1], [0, 0, 0])

    def test_unique_index_fast_path_is_exact(self, rng):
        # No duplicate indices: the bincount check routes through plain
        # fancy-index addition, which must match ufunc.at bitwise.
        target = rng.random((50, 6))
        expect = target.copy()
        idx = rng.permutation(50)[:30].astype(np.int64)
        rows = rng.random((30, 6))
        np.add.at(expect, idx, rows)
        scatter_add_rows(target, idx, rows)
        np.testing.assert_array_equal(target, expect)

    def test_duplicate_heavy_after_unique_batch(self, rng):
        # Alternating unique / duplicate batches exercise both branches
        # (and the shared buffer cache) back to back.
        target = rng.random((30, 4))
        expect = target.copy()
        for size in (10, 200, 8, 500):
            idx = rng.integers(0, 30, size)
            rows = rng.random((size, 4))
            np.add.at(expect, idx, rows)
            scatter_add_rows(target, idx, rows)
        np.testing.assert_allclose(target, expect, atol=1e-12)

    def test_cache_grows_across_batch_sizes(self, rng):
        # A big batch after a small one must not reuse an undersized
        # ones/arange buffer.
        target = np.zeros((10, 2))
        expect = np.zeros((10, 2))
        small_idx = np.asarray([3, 3, 3], dtype=np.int64)
        scatter_add_rows(target, small_idx, np.ones((3, 2)))
        np.add.at(expect, small_idx, np.ones((3, 2)))
        big_idx = rng.integers(0, 10, 400)
        big_rows = rng.random((400, 2))
        scatter_add_rows(target, big_idx, big_rows)
        np.add.at(expect, big_idx, big_rows)
        np.testing.assert_allclose(target, expect, atol=1e-12)

    def test_out_of_range_index_rejected(self):
        target = np.zeros((4, 2))
        with pytest.raises(IndexError):
            scatter_add_rows(target, np.asarray([1, 1, 4]), np.ones((3, 2)))
        with pytest.raises(ValueError):
            scatter_add_rows(target, np.asarray([1, 1, -1]), np.ones((3, 2)))
        np.testing.assert_array_equal(target, np.zeros((4, 2)))


def _csr_scatter(target, idx, rows):
    """The scatter formula before the primitive became dtype-preserving:
    a CSR selector whose ones match the row dtype."""
    selector = sparse.csr_matrix(
        (np.ones(idx.shape[0], dtype=rows.dtype), (idx, np.arange(idx.shape[0]))),
        shape=(target.shape[0], idx.shape[0]),
    )
    target += selector @ rows


def _masked_mean(w_in, contexts):
    """The context mean before padded rows got their own pass."""
    mask = contexts >= 0
    vecs = w_in[np.where(mask, contexts, 0)] * mask[:, :, None]
    return vecs.sum(axis=1) / mask.sum(axis=1)[:, None]


def _padded_contexts(rng, vocab, batch=512, width=10):
    contexts = rng.integers(0, vocab, (batch, width))
    # Walk-edge style padding: leading or trailing runs, plus a few holes.
    for row in rng.choice(batch, batch // 8, replace=False):
        cut = rng.integers(1, width)
        if rng.random() < 0.5:
            contexts[row, :cut] = -1
        else:
            contexts[row, cut:] = -1
    return contexts


class TestDtypePreservingPrimitives:
    """float64 callers keep their bits; float32 callers stay float32."""

    @pytest.mark.parametrize("dim", [1, 2, 10, 50])
    def test_scatter_float64_bits_unchanged(self, rng, dim):
        for size in (8, 3072):
            target = rng.standard_normal((300, dim))
            expect = target.copy()
            idx = rng.integers(0, 300, size)
            rows = rng.standard_normal((size, dim))
            scatter_add_rows(target, idx, rows)
            _csr_scatter(expect, idx, rows)
            assert target.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("dim", [1, 10, 50])
    def test_scatter_float32_stays_float32(self, rng, dim):
        target = rng.standard_normal((300, dim)).astype(np.float32)
        expect = target.copy()
        idx = rng.integers(0, 300, 3072)
        rows = rng.standard_normal((3072, dim)).astype(np.float32)
        wide = target.astype(np.float64)
        scatter_add_rows(target, idx, rows)
        _csr_scatter(expect, idx, rows)
        assert target.dtype == np.float32
        assert target.tobytes() == expect.tobytes()
        np.add.at(wide, idx, rows.astype(np.float64))
        np.testing.assert_allclose(target, wide, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("dim", [1, 2, 10, 50])
    def test_context_mean_float64_bits_unchanged(self, rng, dim):
        w_in = rng.standard_normal((1000, dim))
        for _ in range(5):
            contexts = _padded_contexts(rng, 1000)
            h, mask, counts = masked_context_mean(w_in, contexts)
            assert h.tobytes() == _masked_mean(w_in, contexts).tobytes()
            assert mask.tolist() == (contexts >= 0).tolist()
            assert counts.tolist() == (contexts >= 0).sum(axis=1).tolist()

    def test_context_mean_unpadded_batch(self, rng):
        w_in = rng.standard_normal((100, 6))
        contexts = rng.integers(0, 100, (64, 4))
        h, _mask, _counts = masked_context_mean(w_in, contexts)
        assert h.tobytes() == _masked_mean(w_in, contexts).tobytes()

    def test_context_mean_float32_stays_float32(self, rng):
        w_in = rng.standard_normal((1000, 10)).astype(np.float32)
        contexts = _padded_contexts(rng, 1000)
        h, _mask, _counts = masked_context_mean(w_in, contexts)
        assert h.dtype == np.float32
        np.testing.assert_allclose(
            h, _masked_mean(w_in.astype(np.float64), contexts), rtol=1e-5, atol=1e-6
        )


class TestMaskedContextMean:
    def test_mean_over_real_slots(self):
        w_in = np.asarray([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        contexts = np.asarray([[0, 1, -1], [2, -1, -1]])
        h, mask, counts = masked_context_mean(w_in, contexts)
        np.testing.assert_allclose(h[0], [0.5, 0.5])
        np.testing.assert_allclose(h[1], [2.0, 2.0])
        assert counts.tolist() == [2, 1]
        assert mask.tolist() == [[True, True, False], [True, False, False]]

    def test_all_pad_row_rejected(self):
        w_in = np.ones((2, 2))
        with pytest.raises(ValueError):
            masked_context_mean(w_in, np.asarray([[-1, -1]]))
