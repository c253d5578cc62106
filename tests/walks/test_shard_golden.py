"""Golden determinism for the sharded walk engine.

The committed checksum pins the exact bytes of the walk corpus the
shard-parallel engine produces at a fixed seed on the same
planted-partition graph the pipeline golden test uses. Because the
engine draws counter-based per-(walk, step) hashes, the digest must be
identical for EVERY shard count and worker count — the parametrized
cases prove the invariance, the constant pins the stream itself against
drift (a changed mixer, key derivation, or exchange rule all fail
here, even if they remain self-consistent).

To regenerate after an *intentional* change to the sharded draw stream::

    REPRO_GOLDEN_PRINT=1 PYTHONPATH=src python -m pytest \
        tests/walks/test_shard_golden.py -s

and paste the printed digest into ``SHARD_GOLDEN_SHA256``.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.graph.generators import planted_partition
from repro.graph.store import GraphStore
from repro.walks.engine import RandomWalkConfig
from repro.walks.sharded import generate_walks_sharded

SHARD_GOLDEN_SHA256 = (
    "6cdc340b7a2889f9e005c2aeeca8bcba003a99d43282c2421622e75736d0c926"
)


def _corpus_digest(tmp_path, shards: int, workers: int) -> str:
    graph = planted_partition(n=120, groups=4, alpha=0.7, inter_edges=60, seed=11)
    store = GraphStore.build(
        graph, tmp_path / f"store-{shards}-{workers}", shards=shards, seed=3
    )
    config = RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=42)
    corpus = generate_walks_sharded(
        store, config, context=ExecutionContext(workers=workers)
    )
    walks = np.ascontiguousarray(corpus.walks, dtype=np.int64)
    return hashlib.sha256(walks.tobytes()).hexdigest()


@pytest.mark.parametrize(
    "shards,workers", [(1, 1), (2, 1), (4, 1), (4, 2)]
)
def test_sharded_corpus_matches_golden_checksum(tmp_path, shards, workers):
    digest = _corpus_digest(tmp_path, shards, workers)
    if os.environ.get("REPRO_GOLDEN_PRINT"):
        print(f"\nshard golden digest ({shards} shards, {workers} workers): {digest}")
    assert digest == SHARD_GOLDEN_SHA256, (
        "sharded walk corpus drifted from the committed golden checksum; "
        "if the change to the draw stream is intentional, regenerate with "
        "REPRO_GOLDEN_PRINT=1 (see module docstring)"
    )
