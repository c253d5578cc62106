"""CBOW objectives: negative sampling and hierarchical softmax.

The paper trains V2V with the Continuous Bag-of-Words model (Section
II-B): the mean of the context vertex vectors predicts the center vertex.
Both output layers are provided:

- :class:`CBOWNegativeSampling` — the word2vec default: the center vertex
  is scored against itself plus K noise vertices with logistic loss.
  This float64 kernel is the test oracle; the trainer runs its float32
  twin :class:`repro.core.fused.FusedCBOWNegativeSampling` at every
  worker count.
- :class:`CBOWHierarchicalSoftmax` — Huffman-tree output layer with
  O(log V) decisions per example.

Each objective owns its parameter matrices and exposes ``batch_step``,
a single vectorized SGD update over a minibatch of (center, contexts)
examples (contexts padded with ``-1``). Gradient scatter-adds go through
:func:`repro.core._math.scatter_add_rows` so repeated ids within a batch
accumulate correctly.
"""

from __future__ import annotations

import numpy as np

from repro.core._math import (
    log_sigmoid,
    masked_context_mean,
    scatter_add_rows,
    sigmoid,
)
from repro.core.huffman import HuffmanCoding
from repro.core.negative import NegativeSampler

__all__ = ["CBOWNegativeSampling", "CBOWHierarchicalSoftmax"]


def _init_matrix(rows: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """word2vec-style input init: uniform in [-0.5/dim, 0.5/dim)."""
    return (rng.random((rows, dim)) - 0.5) / dim


class CBOWNegativeSampling:
    """CBOW with a sampled logistic output layer.

    Parameters
    ----------
    vocab_size, dim:
        Embedding matrix shape.
    sampler:
        Noise distribution over output ids.
    negatives:
        Number of noise samples per example (word2vec's ``negative``).
    rng:
        Used only for parameter initialization.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        sampler: NegativeSampler,
        *,
        negatives: int = 5,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be positive")
        if negatives < 1:
            raise ValueError("negatives must be >= 1")
        if sampler.vocab_size != vocab_size:
            raise ValueError("sampler vocabulary does not match vocab_size")
        rng = rng or np.random.default_rng()
        self.vocab_size = vocab_size
        self.dim = dim
        self.negatives = negatives
        self.sampler = sampler
        self.w_in = _init_matrix(vocab_size, dim, rng)
        self.w_out = np.zeros((vocab_size, dim))

    @property
    def vectors(self) -> np.ndarray:
        """The learned input embeddings (the V2V vectors)."""
        return self.w_in

    def batch_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """One SGD step over a minibatch; returns the mean example loss."""
        h, mask, counts = masked_context_mean(self.w_in, contexts)
        batch = centers.shape[0]
        negs = self.sampler.sample(
            (batch, self.negatives), rng, avoid=centers[:, None]
        )
        targets = np.concatenate([centers[:, None], negs], axis=1)  # (B, 1+K)
        labels = np.zeros((batch, 1 + self.negatives))
        labels[:, 0] = 1.0

        out_vecs = self.w_out[targets]  # (B, 1+K, d)
        scores = np.einsum("bd,bkd->bk", h, out_vecs)
        preds = sigmoid(scores)
        # loss = -log σ(s⁺) - Σ log σ(-s⁻)
        loss = -(log_sigmoid(scores[:, 0]).sum() + log_sigmoid(-scores[:, 1:]).sum())

        g = (labels - preds) * lr  # (B, 1+K)
        grad_h = np.einsum("bk,bkd->bd", g, out_vecs)  # before w_out update
        scatter_add_rows(
            self.w_out,
            targets.ravel(),
            (g[:, :, None] * h[:, None, :]).reshape(-1, self.dim),
        )

        # Each context token receives grad_h / (#contexts in its example).
        per_ctx = grad_h / counts[:, None]  # (B, d)
        example_of, _slot = np.nonzero(mask)
        scatter_add_rows(self.w_in, contexts[mask], per_ctx[example_of])
        return float(loss / batch)


class CBOWHierarchicalSoftmax:
    """CBOW with a Huffman-tree output layer (hierarchical softmax)."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        coding: HuffmanCoding,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be positive")
        if coding.codes.shape[0] != vocab_size:
            raise ValueError("Huffman coding does not match vocab_size")
        rng = rng or np.random.default_rng()
        self.vocab_size = vocab_size
        self.dim = dim
        self.coding = coding
        self.w_in = _init_matrix(vocab_size, dim, rng)
        self.w_out = np.zeros((coding.num_inner, dim))

    @property
    def vectors(self) -> np.ndarray:
        return self.w_in

    def batch_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """One SGD step; ``rng`` is unused (HS is deterministic given data)."""
        h, mask, counts = masked_context_mean(self.w_in, contexts)
        codes = self.coding.codes[centers]  # (B, D) int8, -1 pad
        points = self.coding.points[centers]  # (B, D)
        path_mask = codes >= 0
        if not np.any(path_mask):
            return 0.0

        node_vecs = self.w_out[points]  # (B, D, d)
        scores = np.einsum("bd,bkd->bk", h, node_vecs)
        preds = sigmoid(scores)
        # Convention: label at a node is 1 - code (code 0 = "predict 1").
        labels = np.where(path_mask, 1.0 - codes, 0.0)
        g = (labels - preds) * path_mask * lr  # (B, D)

        with np.errstate(divide="ignore"):
            ll = np.where(
                codes == 0, log_sigmoid(scores), log_sigmoid(-scores)
            )
        loss = -float((ll * path_mask).sum())

        grad_h = np.einsum("bk,bkd->bd", g, node_vecs)
        scatter_add_rows(
            self.w_out,
            points.ravel(),
            (g[:, :, None] * h[:, None, :]).reshape(-1, self.dim),
        )

        per_ctx = grad_h / counts[:, None]
        example_of, _slot = np.nonzero(mask)
        scatter_add_rows(self.w_in, contexts[mask], per_ctx[example_of])
        return loss / centers.shape[0]
