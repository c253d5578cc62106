"""Vectorized negative sampling from the unigram^0.75 noise distribution.

Draws are inverse-CDF samples: uniform ``u`` maps to the id
``searchsorted(cdf, u, side="right")``, which — unlike word2vec's
100M-slot table — is exact for any distribution. The lookup itself goes
through a guide table instead of a binary search over the whole CDF:
``u`` picks one of ``G`` equal-width buckets (``G`` a power of two, so
the bucket index ``floor(u * G)`` and its bounds ``j / G`` are exact),
the guide holds the answer's range for that bucket, and a short
bisection inside the range finishes it. Same uniforms, same ids as
``searchsorted``; a handful of gathers instead of ~log2 V cache-missing
probes per draw.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NegativeSampler"]


class NegativeSampler:
    """Sample negative target ids, optionally avoiding given positives."""

    def __init__(self, distribution: np.ndarray) -> None:
        dist = np.asarray(distribution, dtype=np.float64)
        if dist.ndim != 1 or dist.size == 0:
            raise ValueError("distribution must be a non-empty 1-D array")
        if np.any(dist < 0):
            raise ValueError("distribution must be non-negative")
        total = dist.sum()
        if not np.isclose(total, 1.0):
            if total <= 0:
                raise ValueError("distribution must have positive mass")
            dist = dist / total
        cdf = np.cumsum(dist)
        cdf[-1] = 1.0  # guard float drift so every u < 1 lands in range
        self._cdf = cdf
        self._support = int(np.count_nonzero(dist))
        # Twice as many buckets as ids keeps most buckets 0–1 ids wide.
        self._buckets = 2 << int(np.ceil(np.log2(cdf.shape[0])))
        edges = np.arange(self._buckets + 1) / self._buckets
        self._guide = np.searchsorted(cdf, edges, side="right")
        # Bucket j's answer lies in guide[j] .. guide[j + 1]: bisect that
        # range with power-of-two steps, widest bucket first. CDF entries
        # past the end read as 2.0 (> any u) so no step needs a bound.
        widest = int(np.diff(self._guide).max())
        depth = widest.bit_length()
        self._steps = [1 << k for k in range(depth - 1, -1, -1)]
        self._probe = np.concatenate([cdf, np.full(1 << depth, 2.0)])

    @property
    def vocab_size(self) -> int:
        return int(self._cdf.shape[0])

    @property
    def support_size(self) -> int:
        """Number of ids with non-zero probability."""
        return self._support

    def _lookup(self, u: np.ndarray) -> np.ndarray:
        """Ids for uniforms ``u`` in [0, 1): ``searchsorted(cdf, u, "right")``."""
        bucket = np.minimum((u * self._buckets).astype(np.int64), self._buckets - 1)
        ids = self._guide[bucket]
        probe = self._probe
        for step in self._steps:
            # Advance by `step` wherever the step-th id still has cdf <= u.
            ids += (probe[ids + (step - 1)] <= u) * step
        return ids

    def sample(
        self,
        shape: tuple[int, ...] | int,
        rng: np.random.Generator,
        *,
        avoid: np.ndarray | None = None,
        max_retries: int = 4,
    ) -> np.ndarray:
        """Draw ids with the noise distribution.

        ``avoid`` (broadcastable to ``shape``) marks per-slot forbidden
        ids (the positive target); collisions are re-drawn up to
        ``max_retries`` rounds. Any survivors are left in place — exactly
        word2vec's behaviour, where an occasional positive drawn as a
        negative is harmless noise.
        """
        if isinstance(shape, int):
            shape = (shape,)
        draws = self._lookup(rng.random(shape))
        if avoid is not None and self._support > 1:
            avoid_arr = np.broadcast_to(np.asarray(avoid, dtype=np.int64), shape)
            for _ in range(max_retries):
                clash = draws == avoid_arr
                if not np.any(clash):
                    break
                draws[clash] = self._lookup(rng.random(int(clash.sum())))
        return draws
