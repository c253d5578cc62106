"""Numerics shared by the embedding objectives."""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = [
    "sigmoid",
    "log_sigmoid",
    "masked_context_mean",
    "scatter_add_rows",
    "MAX_EXP",
]

# word2vec clips scores to [-6, 6]; we use a slightly wider, still-safe clip.
MAX_EXP = 12.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically clipped logistic function."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -MAX_EXP, MAX_EXP)))


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) computed stably via softplus."""
    x = np.clip(x, -MAX_EXP, MAX_EXP)
    return -np.log1p(np.exp(-x))


# Reused across calls: the selector's data/pointer buffers depend only on
# the batch size (and, for the ones, the row dtype), and the scatter runs
# hundreds of times per epoch with a fixed batch shape — rebuilding them
# per call showed up in profiles.
_ones_cache: dict[np.dtype, np.ndarray] = {}
_arange_cache = np.empty(0, dtype=np.int64)


def scatter_add_rows(target: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``target[idx] += rows`` with duplicate indices accumulated.

    Equivalent to ``np.add.at(target, idx, rows)`` but expressed as a
    sparse-matrix product: a (V × N) one-hot selector times the (N × d)
    row block. Profiling (see DESIGN.md §6) puts this ~6× ahead of
    ``ufunc.at`` and ~8× ahead of sort+``reduceat`` on minibatch-SGD
    index patterns — the scatter is the training hot spot.

    The selector is built in CSC form, which needs no sorting: column
    ``j`` holds its single one at row ``idx[j]``, so ``idx`` is the index
    array and ``arange(N + 1)`` the pointer array. scipy's column-major
    product then adds each row block into its target row in batch order —
    the same terms in the same order as a CSR selector, hence the same
    bits, without the COO→CSR conversion that dominated small-``d``
    calls. Dtype-preserving: the selector takes the row block's dtype,
    so float32 stays float32 end to end (scipy would otherwise promote
    the product to float64). A duplicate-free index batch (checked with
    one ``bincount``) skips the selector entirely — plain fancy-index add
    is exact when no index repeats.
    """
    global _arange_cache
    n = idx.shape[0]
    if n == 0:
        return
    hits = np.bincount(idx)
    if hits.shape[0] > target.shape[0]:
        # The CSC product does not bounds-check its row indices.
        raise IndexError("scatter index out of range for the target rows")
    if int(hits.max()) <= 1:
        target[idx] += rows
        return
    ones = _ones_cache.get(rows.dtype)
    if ones is None or ones.shape[0] < n:
        ones = _ones_cache[rows.dtype] = np.ones(n, dtype=rows.dtype)
    if _arange_cache.shape[0] <= n:
        _arange_cache = np.arange(n + 1, dtype=np.int64)
    selector = sparse.csc_matrix(
        (ones[:n], idx, _arange_cache[: n + 1]), shape=(target.shape[0], n)
    )
    target += selector @ rows


def masked_context_mean(
    w_in: np.ndarray, contexts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean input vector over the real (non ``-1``) context slots.

    Returns ``(h, mask, counts)`` where ``h`` is (B × d) in ``w_in``'s
    dtype, ``mask`` is the boolean validity matrix (B × C) and ``counts``
    the per-row number of real contexts (always >= 1 for rows produced by
    the corpus).

    Only the rows that hold padding need the mask: every row takes one
    plain gather-sum, and the padded rows (a walk's first and last
    ``window`` positions, a few percent of slots) are re-summed with
    their pad slots zeroed. For float64 this is bit-identical to masking
    the whole ``(B, C, d)`` gather, since each row is the same sum of
    the same terms in the same order.
    """
    mask = contexts >= 0
    counts = mask.sum(axis=1)
    padded = np.flatnonzero(counts < contexts.shape[1])
    # Pad slots gather the last row here; their rows are redone below.
    h = w_in.take(contexts, axis=0).sum(axis=1)
    if padded.size:
        if not counts[padded].all():
            raise ValueError("every example must have at least one context token")
        pad_mask = mask[padded]
        vecs = w_in[np.where(pad_mask, contexts[padded], 0)]
        h[padded] = (vecs * pad_mask[:, :, None]).sum(axis=1)
    h /= counts[:, None].astype(h.dtype)
    return h, mask, counts
