"""Runtime settings never change the walk corpus.

The corpus is a function of ``(config, chunk count)`` alone: worker
count, wave size and checkpointing only schedule the chunks.
"""

import numpy as np
import pytest

from repro import V2V, ExecutionContext, V2VConfig
from repro.graph.generators import planted_partition
from repro.pipeline import FingerprintedCheckpoints, FingerprintMismatch
from repro.resilience.checkpoint import CheckpointManager
from repro.walks.engine import RandomWalkConfig, generate_walks

CFG = RandomWalkConfig(walks_per_vertex=4, walk_length=12, seed=3)


@pytest.fixture(scope="module")
def graph():
    return planted_partition(n=60, groups=3, alpha=0.5, inter_edges=10, seed=0)


class TestCheckpointingIsScheduling:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_generate_walks(self, graph, workers, tmp_path):
        plain = generate_walks(graph, CFG, context=ExecutionContext(workers=workers))
        durable = ExecutionContext(workers=workers, checkpoint_dir=tmp_path)
        written = generate_walks(graph, CFG, context=durable)
        resumed = generate_walks(
            graph, CFG, context=ExecutionContext(
                workers=workers, checkpoint_dir=tmp_path, resume=True
            )
        )
        np.testing.assert_array_equal(written.walks, plain.walks)
        np.testing.assert_array_equal(resumed.walks, plain.walks)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_v2v_fit(self, graph, workers, tmp_path):
        cfg = V2VConfig(
            dim=8, epochs=2, walks_per_vertex=4, walk_length=12, seed=3
        )
        plain = V2V(cfg).fit(graph, workers=workers)
        durable = V2V(cfg).fit(graph, workers=workers, checkpoint_dir=tmp_path)
        np.testing.assert_array_equal(durable.corpus.walks, plain.corpus.walks)
        np.testing.assert_array_equal(durable.vectors, plain.vectors)


class TestWorkersAreScheduling:
    def test_two_workers_equal_two_chunks_on_one(self, graph):
        pooled = generate_walks(graph, CFG, context=ExecutionContext(workers=2))
        serial = generate_walks(
            graph, CFG, context=ExecutionContext(workers=1), checkpoint_chunks=2
        )
        np.testing.assert_array_equal(pooled.walks, serial.walks)


class TestOlderCheckpointsAreRefused:
    def test_checkpoint_without_chunk_stream_field(self, graph, tmp_path):
        # The fingerprint walk checkpoints carried before chunk streams
        # were spawned straight from the seed: resuming over one must
        # refuse rather than mix differently-seeded chunks.
        old = {
            "n": int(graph.n),
            "num_edges": int(graph.num_edges),
            "directed": bool(graph.directed),
            "walks_per_vertex": CFG.walks_per_vertex,
            "walk_length": CFG.walk_length,
            "mode": "uniform",
            "time_window": None,
            "p": 1.0,
            "q": 1.0,
            "seed": CFG.seed,
            "chunks": 1,
            "start_vertices": None,
        }
        store = FingerprintedCheckpoints(
            CheckpointManager(tmp_path),
            old,
            what="walk checkpoint",
            described="walk configuration",
        )
        rows = np.zeros((graph.n * CFG.walks_per_vertex, CFG.walk_length), np.int64)
        store.save("walks-0000", {"walks": rows}, {"chunk": 0})
        with pytest.raises(FingerprintMismatch):
            generate_walks(
                graph,
                CFG,
                context=ExecutionContext(checkpoint_dir=tmp_path, resume=True),
            )
