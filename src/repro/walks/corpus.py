"""Walk corpus: the "sentences" consumed by the CBOW/SkipGram trainers.

A corpus is a dense int64 matrix (walks × walk_length) padded with ``-1``
after a walk terminates. Context extraction produces the padded
(center, contexts, mask) batches the vectorized trainers consume, without
ever materializing Python lists of tokens.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

__all__ = ["WalkCorpus"]

PAD = -1


class WalkCorpus:
    """A set of vertex sequences produced by the walk engine.

    Parameters
    ----------
    walks:
        2-D int64 array; row = walk; ``-1`` marks padding. Padding may
        only appear as a suffix of a row.
    num_vertices:
        Size of the vertex universe (vocabulary size upper bound).
    """

    def __init__(self, walks: np.ndarray, *, num_vertices: int) -> None:
        walks = np.asarray(walks, dtype=np.int64)
        if walks.ndim != 2:
            raise ValueError("walks must be a 2-D array")
        if walks.size and walks.max() >= num_vertices:
            raise ValueError("walk token exceeds num_vertices")
        self._walks = np.ascontiguousarray(walks)
        self._num_vertices = int(num_vertices)
        valid = self._walks != PAD
        # Padding must be a suffix: a valid token may not follow a pad.
        if walks.shape[1] > 1 and np.any(~valid[:, :-1] & valid[:, 1:]):
            raise ValueError("padding (-1) must only appear as a row suffix")
        self._lengths = valid.sum(axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    @property
    def walks(self) -> np.ndarray:
        return self._walks

    @property
    def lengths(self) -> np.ndarray:
        """Number of real (non-pad) tokens per walk."""
        return self._lengths

    @property
    def num_walks(self) -> int:
        return int(self._walks.shape[0])

    @property
    def max_length(self) -> int:
        return int(self._walks.shape[1])

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_tokens(self) -> int:
        """Total real tokens across all walks."""
        return int(self._lengths.sum())

    def __len__(self) -> int:
        return self.num_walks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalkCorpus(walks={self.num_walks}, max_len={self.max_length}, "
            f"tokens={self.num_tokens}, vertices={self._num_vertices})"
        )

    # ------------------------------------------------------------------
    def sentences(self) -> Iterator[np.ndarray]:
        """Iterate walks as variable-length arrays (pads stripped)."""
        for row, ln in zip(self._walks, self._lengths):
            yield row[: int(ln)]

    def token_counts(self) -> np.ndarray:
        """Occurrence count of each vertex across the corpus."""
        flat = self._walks[self._walks != PAD]
        return np.bincount(flat, minlength=self._num_vertices).astype(np.int64)

    def coverage(self) -> float:
        """Fraction of vertices that appear at least once."""
        if self._num_vertices == 0:
            return 1.0
        return float((self.token_counts() > 0).mean())

    # ------------------------------------------------------------------
    def context_arrays(self, window: int) -> tuple[np.ndarray, np.ndarray]:
        """All (center, padded-context) training examples.

        Returns
        -------
        centers:
            int64 array of shape (num_examples,).
        contexts:
            int64 array of shape (num_examples, 2 * window); ``-1`` where
            the window ran off the walk (mask it in the trainer).

        The paper's window is symmetric: ``n`` vertices before and after
        the center within the same walk. Construction is fully
        vectorized: we build a (walks × len × 2*window) gather-index cube
        with offsets [-window..-1, 1..window] and clamp/mask the edges.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        walks, lengths = self._walks, self._lengths
        num_walks, max_len = walks.shape
        if num_walks == 0 or max_len == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, 2 * window), dtype=np.int64),
            )
        offsets = np.concatenate(
            [np.arange(-window, 0), np.arange(1, window + 1)]
        )  # (2w,)
        pos = np.arange(max_len)
        gather = pos[None, :, None] + offsets[None, None, :]  # (1, L, 2w)
        in_bounds = (gather >= 0) & (gather < max_len)
        safe = np.clip(gather, 0, max_len - 1)
        ctx = walks[np.arange(num_walks)[:, None, None], safe]  # (W, L, 2w)
        valid_ctx = in_bounds & (ctx != PAD)
        ctx = np.where(valid_ctx, ctx, PAD)
        center_valid = walks != PAD  # (W, L)
        # An example needs a real center and at least one real context.
        keep = center_valid & valid_ctx.any(axis=2)
        centers = walks[keep]
        contexts = ctx[keep]
        return centers.astype(np.int64), contexts.astype(np.int64)

    def context_batches(
        self, window: int, *, rows_per_batch: int = 1024
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream (centers, contexts) example blocks, one walk-row chunk
        at a time.

        Memory stays O(rows_per_batch × walk_length × window) regardless
        of corpus size — the path that makes the paper's t = ℓ = 1000
        corpora (10⁹ tokens) trainable without materializing ~10¹⁰
        context slots. Semantics match :meth:`context_arrays`: the
        concatenation of all batches equals the full example set.
        """
        if rows_per_batch < 1:
            raise ValueError("rows_per_batch must be >= 1")
        for lo in range(0, self.num_walks, rows_per_batch):
            chunk = WalkCorpus(
                self._walks[lo : lo + rows_per_batch],
                num_vertices=self._num_vertices,
            )
            centers, contexts = chunk.context_arrays(window)
            if centers.shape[0]:
                yield centers, contexts

    def num_examples(self, window: int) -> int:
        """Number of (center, context) training examples at this window,
        without materializing them: every token in a walk of length >= 2
        is one example."""
        if window < 1:
            raise ValueError("window must be >= 1")
        multi = self._lengths >= 2
        return int(self._lengths[multi].sum())

    def merge(self, other: "WalkCorpus") -> "WalkCorpus":
        """Concatenate two corpora over the same vertex universe."""
        if other.num_vertices != self._num_vertices:
            raise ValueError("cannot merge corpora over different universes")
        width = max(self.max_length, other.max_length)

        def _pad(mat: np.ndarray) -> np.ndarray:
            if mat.shape[1] == width:
                return mat
            out = np.full((mat.shape[0], width), PAD, dtype=np.int64)
            out[:, : mat.shape[1]] = mat
            return out

        return WalkCorpus(
            np.vstack([_pad(self._walks), _pad(other._walks)]),
            num_vertices=self._num_vertices,
        )

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            Path(path), walks=self._walks, num_vertices=self._num_vertices
        )

    @classmethod
    def load(cls, path: str | Path) -> "WalkCorpus":
        with np.load(Path(path), allow_pickle=False) as data:
            return cls(data["walks"], num_vertices=int(data["num_vertices"]))

    def to_text(self, path: str | Path) -> None:
        """Write walks as whitespace-separated token lines.

        The format gensim's ``LineSentence`` (and the original word2vec
        tool) consume — the interop path for training V2V walks with an
        external word2vec implementation.
        """
        with Path(path).open("w") as fh:
            for walk in self.sentences():
                fh.write(" ".join(str(int(v)) for v in walk) + "\n")

    @classmethod
    def from_text(
        cls, path: str | Path, *, num_vertices: int | None = None
    ) -> "WalkCorpus":
        """Read a text corpus written by :meth:`to_text` (or any
        line-per-sentence integer-token file). ``num_vertices`` defaults
        to max token + 1."""
        rows: list[list[int]] = []
        with Path(path).open() as fh:
            for line in fh:
                tokens = line.split()
                if tokens:
                    rows.append([int(t) for t in tokens])
        if not rows:
            return cls(
                np.empty((0, 1), dtype=np.int64),
                num_vertices=num_vertices or 0,
            )
        width = max(len(r) for r in rows)
        walks = np.full((len(rows), width), PAD, dtype=np.int64)
        for i, r in enumerate(rows):
            walks[i, : len(r)] = r
        if num_vertices is None:
            num_vertices = int(walks.max()) + 1
        return cls(walks, num_vertices=num_vertices)
