"""Fused batched CBOW negative-sampling kernel (float32).

The trainer's one CBOW negative-sampling kernel: serial, streaming and
Hogwild runs all build it. The float64
:class:`repro.core.cbow.CBOWNegativeSampling` stays as the test oracle
(einsum scoring, collision-avoiding negative draws) and is no longer
dispatched. The kernel shares its three hot primitives with every other
objective — :func:`~repro.core._math.masked_context_mean`,
:func:`~repro.core._math.scatter_add_rows` and
:meth:`~repro.core.negative.NegativeSampler.sample` — which are
dtype-preserving, so float32 stays float32 end to end. What is its own
(see docs/PERFORMANCE.md):

- **float32 weights** — halves the bytes every gather/scatter moves.
- **plain negative draws** — one sampler draw per batch with no
  collision-avoidance redraw loop (word2vec's C implementation also
  keeps accidental positives; they are harmless noise).
- **matmul scoring** — ``(B, 1+K, d) @ (B, d, 1)`` batched matmul in
  place of ``einsum``, plus in-place clip/sigmoid/gradient arithmetic on
  one ``(B, 1+K)`` buffer.
- **preallocated target/label buffers** — reused across batches of the
  same size, so the steady-state loop allocates only the gathers.

The public surface matches the oracle exactly —
``batch_step(centers, contexts, lr, rng)``, ``w_in``/``w_out``
attributes, a ``vectors`` property — so the serial epoch loop and the
Hogwild worker task drive either kernel unchanged.
:attr:`vectors` returns float64 to keep the downstream contract
(similarity queries, checkpoints compare) dtype-stable.
"""

from __future__ import annotations

import numpy as np

from repro.core._math import MAX_EXP, masked_context_mean, scatter_add_rows
from repro.core.negative import NegativeSampler

__all__ = ["FusedCBOWNegativeSampling"]


class FusedCBOWNegativeSampling:
    """CBOW + negative sampling with the fused float32 batch kernel.

    Construction takes the noise *distribution* and builds the
    :class:`~repro.core.negative.NegativeSampler` it draws from once here.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        noise_distribution: np.ndarray,
        *,
        negatives: int = 5,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be positive")
        if negatives < 1:
            raise ValueError("negatives must be >= 1")
        dist = np.asarray(noise_distribution, dtype=np.float64)
        if dist.shape != (vocab_size,):
            raise ValueError("noise distribution must have one entry per vocab id")
        rng = rng or np.random.default_rng()
        self.vocab_size = vocab_size
        self.dim = dim
        self.negatives = negatives
        self.sampler = NegativeSampler(dist)
        # Same init draw count/order as the reference kernel, cast down.
        self.w_in = (
            ((rng.random((vocab_size, dim)) - 0.5) / dim).astype(np.float32)
        )
        self.w_out = np.zeros((vocab_size, dim), dtype=np.float32)
        self._targets = np.empty((0, 1 + negatives), dtype=np.int64)
        self._labels = np.empty((0, 1 + negatives), dtype=np.float32)

    @property
    def vectors(self) -> np.ndarray:
        """The learned input embeddings, upcast to the float64 contract."""
        return self.w_in.astype(np.float64)

    def batch_step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> float:
        """One SGD step over a minibatch; returns the mean example loss."""
        w_out = self.w_out
        batch = centers.shape[0]
        h, mask, counts = masked_context_mean(self.w_in, contexts)
        negs = self.sampler.sample((batch, self.negatives), rng)
        if self._targets.shape[0] != batch:
            self._targets = np.empty((batch, 1 + self.negatives), dtype=np.int64)
            self._labels = np.zeros((batch, 1 + self.negatives), dtype=np.float32)
            self._labels[:, 0] = 1.0
        targets = self._targets
        targets[:, 0] = centers
        targets[:, 1:] = negs

        out_vecs = w_out[targets]  # (B, 1+K, d)
        scores = (out_vecs @ h[:, :, None])[:, :, 0]  # (B, 1+K)
        np.clip(scores, -MAX_EXP, MAX_EXP, out=scores)
        # loss = -log σ(s⁺) - Σ log σ(-s⁻), read off before `scores` is
        # transformed in place into predictions and then gradients.
        loss = float(
            np.log1p(np.exp(-scores[:, 0])).sum()
            + np.log1p(np.exp(scores[:, 1:])).sum()
        )
        np.negative(scores, out=scores)
        np.exp(scores, out=scores)
        scores += np.float32(1.0)
        np.reciprocal(scores, out=scores)  # scores := σ(scores)
        np.subtract(self._labels, scores, out=scores)
        scores *= np.float32(lr)  # scores := (labels - preds) * lr
        g = scores

        grad_h = (g[:, None, :] @ out_vecs)[:, 0, :]  # before w_out update
        scatter_add_rows(
            w_out,
            targets.ravel(),
            (g[:, :, None] * h[:, None, :]).reshape(-1, self.dim),
        )
        # Each context token receives grad_h / (#contexts in its example).
        per_ctx = grad_h / counts[:, None].astype(np.float32)
        scatter_add_rows(
            self.w_in, contexts[mask], np.repeat(per_ctx, counts, axis=0)
        )
        return loss / batch
