"""Vose alias-method sampling for weighted walk steps.

For weighted graphs every vertex needs O(1) sampling of an out-arc with
probability proportional to arc weight. We build one alias table per
vertex but store all of them *flat*, aligned with the graph's CSR arc
arrays: ``prob[a]`` and ``alias[a]`` describe the alias slot of arc ``a``
within its own row. Sampling for a whole frontier of walks is then a
handful of vectorized gathers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AliasTable", "build_alias", "build_arc_alias"]


@dataclass(frozen=True)
class AliasTable:
    """Flat alias tables for all vertices, aligned with CSR arcs.

    Attributes
    ----------
    prob:
        float64 array, length = num arcs; acceptance probability of the
        slot's own arc.
    alias:
        int64 array, length = num arcs; row-local index of the alternative
        arc for each slot.
    """

    prob: np.ndarray
    alias: np.ndarray

    def sample(
        self,
        starts: np.ndarray,
        degrees: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample one arc index per draw, for draws of any shape.

        Parameters
        ----------
        starts:
            CSR row start for each sample (``indptr[v]``). Scalars and
            arrays of any shape are accepted; ``starts`` and ``degrees``
            broadcast against each other.
        degrees:
            Row lengths; must be positive for every entry.
        rng:
            Source of randomness.

        Returns
        -------
        Global arc indices with the broadcast shape. For the historic
        1-D call signature the draws (and therefore the results at a
        fixed seed) are unchanged.
        """
        starts = np.asarray(starts, dtype=np.int64)
        degrees = np.asarray(degrees, dtype=np.int64)
        out_shape = np.broadcast_shapes(starts.shape, degrees.shape)
        u = rng.random(out_shape)
        slots = (u * degrees).astype(np.int64)
        # Guard the (measure-zero, float-rounding) case slot == degree.
        np.minimum(slots, degrees - 1, out=slots)
        arc = starts + slots
        accept = rng.random(out_shape) < self.prob[arc]
        out = np.where(accept, arc, starts + self.alias[arc])
        return out


def build_alias(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build a single alias table over ``weights`` (classic Vose algorithm).

    Returns ``(prob, alias)`` arrays of the same length as ``weights``.
    """
    w = np.asarray(weights, dtype=np.float64)
    k = w.shape[0]
    if k == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    total = w.sum()
    if total <= 0 or np.any(w < 0):
        raise ValueError("weights must be non-negative with positive sum")
    scaled = w * (k / total)
    prob = np.ones(k, dtype=np.float64)
    alias = np.arange(k, dtype=np.int64)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        prob[s] = scaled[s]
        alias[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    # Remaining entries keep prob 1 (numerical leftovers).
    return prob, alias


def build_arc_alias(indptr: np.ndarray, arc_weights: np.ndarray) -> AliasTable:
    """Alias tables for every CSR row, stored flat and arc-aligned.

    Rows whose weights sum to zero are left as uniform tables over the row
    (prob = 1 everywhere), matching the convention that a zero-weight
    neighborhood degenerates to a uniform step.
    """
    num_arcs = int(indptr[-1])
    arc_weights = np.asarray(arc_weights, dtype=np.float64)
    if arc_weights.shape != (num_arcs,):
        raise ValueError("arc_weights must align with CSR arcs")
    if np.any(arc_weights < 0):
        raise ValueError("arc weights must be non-negative")
    prob = np.ones(num_arcs, dtype=np.float64)
    alias = np.zeros(num_arcs, dtype=np.int64)
    n = indptr.shape[0] - 1
    for v in range(n):
        s, e = int(indptr[v]), int(indptr[v + 1])
        if e - s == 0:
            continue
        row = arc_weights[s:e]
        if row.sum() <= 0:
            alias[s:e] = np.arange(e - s)
            continue
        p, a = build_alias(row)
        prob[s:e] = p
        alias[s:e] = a
    return AliasTable(prob=prob, alias=alias)
