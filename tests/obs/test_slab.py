"""Cross-process metrics slab: single-writer rows over shared memory."""

import pickle

import numpy as np
import pytest

from repro.obs.slab import HOGWILD_SLOTS, MetricsSlab, MetricsSlabSpec
from repro.parallel.pool import parallel_map
from repro.parallel.shm import SharedArray

from tests.parallel.test_shm import shm_entries

SLOTS = ("batches", "examples", "loss_sum")


@pytest.fixture()
def no_leaks():
    before = shm_entries()
    yield
    leaked = shm_entries() - before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def _worker_writes_row(item):
    """Pool task: attach to the slab and fill this worker's row."""
    worker, spec = item
    slab = MetricsSlab.attach(spec)
    try:
        slab.put(worker, "batches", float(worker + 1))
        slab.add(worker, "examples", 10.0 * (worker + 1))
        slab.add(worker, "examples", 1.0)
        slab.add(worker, "loss_sum", 0.5)
    finally:
        slab.close()
    return worker


class TestParentSide:
    def test_over_zeroes_and_reads_back(self, no_leaks):
        with SharedArray.from_array(np.full((2, 3), 7.0)) as shared:
            slab = MetricsSlab.over(shared, SLOTS)
            assert slab.totals() == {"batches": 0.0, "examples": 0.0, "loss_sum": 0.0}
            slab.add(0, "batches", 2)
            slab.put(1, "batches", 5)
            assert slab.get(0, "batches") == 2.0
            assert slab.row(1) == {"batches": 5.0, "examples": 0.0, "loss_sum": 0.0}
            assert slab.totals()["batches"] == 7.0
            assert len(slab.rows()) == 2

    def test_reset_clears_every_row(self, no_leaks):
        with SharedArray.from_array(np.zeros((2, 3))) as shared:
            slab = MetricsSlab.over(shared, SLOTS)
            slab.add(0, "examples", 4)
            slab.reset()
            assert slab.totals()["examples"] == 0.0

    def test_shape_must_match_slots(self, no_leaks):
        with SharedArray.from_array(np.zeros((2, 4))) as shared:
            with pytest.raises(ValueError, match="does not match"):
                MetricsSlab.over(shared, SLOTS)

    def test_unknown_slot_is_a_key_error(self, no_leaks):
        with SharedArray.from_array(np.zeros((1, 3))) as shared:
            slab = MetricsSlab.over(shared, SLOTS)
            with pytest.raises(KeyError):
                slab.add(0, "nonexistent", 1.0)


class TestSpec:
    def test_picklable_with_workers_property(self, no_leaks):
        with SharedArray.from_array(np.zeros((3, len(HOGWILD_SLOTS)))) as shared:
            slab = MetricsSlab.over(shared, HOGWILD_SLOTS)
            spec = pickle.loads(pickle.dumps(slab.spec))
            assert isinstance(spec, MetricsSlabSpec)
            assert spec.workers == 3
            assert spec.slots == HOGWILD_SLOTS


class TestCrossProcess:
    def test_workers_fill_their_own_rows(self, no_leaks):
        with SharedArray.from_array(np.zeros((2, 3))) as shared:
            slab = MetricsSlab.over(shared, SLOTS)
            items = [(w, slab.spec) for w in range(2)]
            assert parallel_map(_worker_writes_row, items, workers=2) == [0, 1]
            assert slab.row(0) == {"batches": 1.0, "examples": 11.0, "loss_sum": 0.5}
            assert slab.row(1) == {"batches": 2.0, "examples": 21.0, "loss_sum": 0.5}
            assert slab.totals() == {
                "batches": 3.0,
                "examples": 32.0,
                "loss_sum": 1.0,
            }

    def test_attach_is_a_context_manager(self, no_leaks):
        with SharedArray.from_array(np.zeros((1, 3))) as shared:
            slab = MetricsSlab.over(shared, SLOTS)
            with MetricsSlab.attach(slab.spec) as attached:
                attached.add(0, "batches", 1.0)
            assert slab.get(0, "batches") == 1.0
