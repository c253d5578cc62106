"""Golden determinism: a fixed-seed run must never drift.

The committed checksum below pins the exact bytes of the embedding a
fixed-seed ``V2V.fit`` produces on a planted-partition graph. Any change
to walk generation, training order, seeding, or the pipeline plumbing
that alters the numbers — even in the last bit — fails this test. CI
runs it in the bench-smoke job as the release gate for refactors that
claim to be behavior-preserving.

If a change *intentionally* alters the numerics (a new objective, a
fixed bug in the sampler), regenerate the checksum and commit it with
the change::

    REPRO_GOLDEN_PRINT=1 PYTHONPATH=src python -m pytest \
        tests/pipeline/test_golden.py -s

and paste the printed digest into ``GOLDEN_SHA256``.

``REFERENCE_GOLDEN_SHA256`` pins the float64 reference CBOW kernel
(:class:`repro.core.cbow.CBOWNegativeSampling`), the trainer's default
before the float32 kernel took over every worker count. It is driven
through the same epoch loop with the same RNG sequence, so it catches
any drift in the shared primitives (context mean, scatter-add, negative
draws) that the float64 callers rely on bit for bit.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro import V2V, V2VConfig
from repro.core.cbow import CBOWNegativeSampling
from repro.core.negative import NegativeSampler
from repro.core.trainer import _run_dense_epochs, _TrainState
from repro.core.vocab import VertexVocab
from repro.graph.generators import planted_partition

GOLDEN_SHA256 = "2c2ccc5ab97f074ac5780150c47327418abdcc118b44f1094856ccd1fb30b000"
REFERENCE_GOLDEN_SHA256 = (
    "8b35c774f41ad36f41ef5183890fd7c129c809d7fec69e50f123b7a253d69f62"
)

CONFIG = V2VConfig(
    dim=16, window=4, walks_per_vertex=4, walk_length=20, epochs=3, seed=42
)


def _fit() -> V2V:
    graph = planted_partition(n=120, groups=4, alpha=0.7, inter_edges=60, seed=11)
    return V2V(CONFIG).fit(graph)


def _digest(vectors: np.ndarray) -> str:
    vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    return hashlib.sha256(vectors.tobytes()).hexdigest()


def _golden_digest() -> str:
    return _digest(_fit().vectors)


def _reference_digest() -> str:
    """The golden run's training, with the float64 reference kernel.

    Mirrors the trainer's serial path on the golden corpus: one RNG
    seeded from the config feeds the weight init, then the epoch loop.
    """
    corpus = _fit().corpus
    config = CONFIG.train_config()
    rng = np.random.default_rng(config.seed)
    vocab = VertexVocab.from_corpus(corpus)
    centers, contexts = corpus.context_arrays(config.window)
    objective = CBOWNegativeSampling(
        vocab.size,
        config.dim,
        NegativeSampler(vocab.noise_distribution()),
        negatives=config.negatives,
        rng=rng,
    )
    _run_dense_epochs(objective, centers, contexts, config, rng, _TrainState())
    return _digest(objective.vectors)


def test_fixed_seed_embedding_is_bitwise_stable():
    digest = _golden_digest()
    if os.environ.get("REPRO_GOLDEN_PRINT"):
        print(f"\ngolden digest: {digest}")
    assert digest == GOLDEN_SHA256, (
        "fixed-seed embedding drifted from the committed golden checksum; "
        "if the numeric change is intentional, regenerate with "
        "REPRO_GOLDEN_PRINT=1 (see module docstring)"
    )


def test_reference_kernel_embedding_is_bitwise_stable():
    assert _reference_digest() == REFERENCE_GOLDEN_SHA256, (
        "the float64 reference kernel drifted from its committed checksum; "
        "the shared primitives must keep float64 results bit-identical"
    )


def test_two_runs_in_one_process_are_identical():
    assert _golden_digest() == _golden_digest()
