"""Shard-parallel walk generation over a memory-mapped graph store.

The in-memory engine (:mod:`repro.walks.engine`) advances every walk in
lock step over heap CSR arrays. This engine instead processes walks
*shard-major* over a :class:`repro.graph.store.GraphStore`: each shard's
frontier-batched stepper touches only its own mmap'd CSR row range, so
peak residency is one shard's working set, not the graph. Walks that
hop across a shard boundary are **parked** and handed to the owning
shard at the next **exchange round** (a BSP-style barrier); the loop
ends when every walk has finished or died.

**Determinism.** The corpus must be bitwise-identical for any shard
count, worker count, and scheduling order — shard layout is a runtime
concern, never model identity. Sequential RNG streams cannot deliver
that (the interleaving of draws would depend on which walks share a
shard), so every draw here is *counter-based*: step ``s`` of walk ``w``
consumes ``u = mix64(key, w, s)`` — a SplitMix64-style hash of the walk
id and step index under a key derived from ``config.seed``. The draw
depends only on (seed, walk, step); park/resume and exchange order
cannot perturb it. The merged corpus therefore equals the single-shard
corpus byte for byte (the acceptance test of this subsystem), and a
killed-and-respawned shard task rewrites exactly the rows it would have
written (the chaos test).

Draws differ from the in-memory engine's ``Generator``-stream draws, so
the sharded corpus is its own reproducibility anchor
(``tests/walks/test_shard_golden.py``) rather than a byte-twin of
``generate_walks`` on the equivalent in-memory graph.

Modes: uniform, weighted (binary search over the store's per-row
cumulative weights — no in-RAM alias tables), vertex-weighted (same,
over target-vertex weights), temporal (rows are time-sorted at build;
eligibility is a segment binary search). ``node2vec`` is not supported
out-of-core: its rejection sampler consumes an unbounded number of
draws per step, which breaks the fixed (walk, step) counter addressing.

Walk tokens are mapped back to **original** vertex ids through the
store's persisted permutation before the corpus is returned, so
downstream stages (training, detection, labels) see the same id space
as the in-memory path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.context import ExecutionContext
from repro.obs.recorder import current_recorder
from repro.walks.corpus import WalkCorpus
from repro.walks.engine import (
    PAD,
    RandomWalkConfig,
    WalkMode,
    _segment_searchsorted,
)

__all__ = ["generate_walks_sharded", "hash_uniform"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LANE_SALT = 0xD1B54A32D192ED03


def _mix64_int(x: int) -> int:
    """SplitMix64 finalizer on a Python int (key derivation only)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64(z: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (uint64 in, uint64 out)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_key(seed: int | None) -> int:
    """64-bit hash key from a walk config seed (entropy-random for None)."""
    entropy = np.random.SeedSequence(seed).entropy
    folded = (entropy ^ (entropy >> 64) ^ (entropy >> 128)) & _MASK64
    return _mix64_int(folded ^ _GOLDEN)


def hash_uniform(
    key: int, walk_ids: np.ndarray, steps: np.ndarray, lane: int = 0
) -> np.ndarray:
    """Counter-based uniforms in [0, 1): one per (walk, step) pair.

    ``u[i] = f(key, walk_ids[i], steps[i], lane)`` with no sequential
    state — the property the whole sharded engine's determinism rests
    on. 53-bit mantissa draws, matching ``Generator.random`` precision.
    """
    w = np.asarray(walk_ids, dtype=np.uint64)
    s = np.asarray(steps, dtype=np.uint64)
    k = np.uint64((key ^ _mix64_int(lane * _LANE_SALT + _GOLDEN)) & _MASK64)
    z = _mix64(w * np.uint64(_GOLDEN) ^ k)
    z = _mix64(z + s * np.uint64(0xBF58476D1CE4E5B9))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


# ---------------------------------------------------------------------------
# In-shard batch advance


@dataclass
class _Batch:
    """Walks currently resident in one shard, mid-flight."""

    wid: np.ndarray  # walk id == output row
    cur: np.ndarray  # current vertex (store id space)
    step: np.ndarray  # next column to write (1 <= step < walk_length)
    tprev: np.ndarray  # temporal state: time of last traversed arc

    @property
    def size(self) -> int:
        return int(self.wid.shape[0])

    def take(self, mask: np.ndarray, cur: np.ndarray) -> "_Batch":
        return _Batch(self.wid[mask], cur[mask], self.step[mask], self.tprev[mask])


def _empty_batch() -> _Batch:
    e = np.empty(0, dtype=np.int64)
    return _Batch(e, e.copy(), e.copy(), np.empty(0, dtype=np.float64))


def _concat_batches(batches: list[_Batch]) -> _Batch:
    real = [b for b in batches if b.size]
    if not real:
        return _empty_batch()
    if len(real) == 1:
        return real[0]
    return _Batch(
        np.concatenate([b.wid for b in real]),
        np.concatenate([b.cur for b in real]),
        np.concatenate([b.step for b in real]),
        np.concatenate([b.tprev for b in real]),
    )


def _advance_batch(
    arrays: dict,
    lo: int,
    hi: int,
    walk_length: int,
    key: int,
    mode: WalkMode,
    time_window: float | None,
    batch: _Batch,
    out: np.ndarray,
) -> _Batch:
    """Advance ``batch`` until every walk finishes, dies, or leaves [lo, hi).

    Writes completed positions into ``out`` rows (by walk id) and
    returns the parked walks (those whose next vertex lives in another
    shard). All indexing goes through the store's mmap'd arrays, so the
    pages touched are exactly the rows visited.
    """
    from repro.resilience.lifecycle import current_cancel_scope
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    indptr = arrays["indptr"]
    indices = arrays["indices"]
    parked: list[_Batch] = []
    while batch.size:
        heartbeat.beat()
        scope.check()
        row_start = indptr[batch.cur]
        row_stop = indptr[batch.cur + 1]
        u = hash_uniform(key, batch.wid, batch.step)
        if mode is WalkMode.TEMPORAL:
            times = arrays["times"]
            elig_lo = _segment_searchsorted(
                times, row_start, row_stop, batch.tprev, side="right"
            )
            if time_window is not None:
                cap = np.where(
                    np.isinf(batch.tprev), np.inf, batch.tprev + time_window
                )
                elig_hi = _segment_searchsorted(
                    times, row_start, row_stop, cap, side="right"
                )
            else:
                elig_hi = row_stop
            count = elig_hi - elig_lo
            ok = count > 0
            pick = elig_lo + (u * np.maximum(count, 1)).astype(np.int64)
            np.minimum(pick, np.maximum(elig_hi - 1, 0), out=pick)
            nxt = np.where(ok, indices[np.minimum(pick, indices.shape[0] - 1)], PAD)
            tnew = np.where(
                ok, times[np.minimum(pick, times.shape[0] - 1)], batch.tprev
            )
        else:
            deg = row_stop - row_start
            ok = deg > 0
            safe_deg = np.maximum(deg, 1)
            offs = (u * safe_deg).astype(np.int64)
            np.minimum(offs, safe_deg - 1, out=offs)
            pick = row_start + offs
            if mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
                cum = (
                    arrays["cum_weights"]
                    if mode is WalkMode.WEIGHTED
                    else arrays["cum_vertex_weights"]
                )
                total = cum[np.maximum(row_stop - 1, 0)] * ok
                positive = total > 0
                if np.any(positive):
                    target = u * total
                    wpick = _segment_searchsorted(
                        cum, row_start, row_stop, target, side="left"
                    )
                    np.minimum(wpick, np.maximum(row_stop - 1, 0), out=wpick)
                    # All-zero rows keep the uniform fallback pick, the
                    # same degeneration convention as build_arc_alias.
                    pick = np.where(positive, wpick, pick)
            nxt = np.where(ok, indices[np.minimum(pick, indices.shape[0] - 1)], PAD)
            tnew = batch.tprev
        # Dead walks (no eligible arc) write nothing further; their rows
        # stay PAD from this column on.
        alive = np.asarray(ok)
        wid_a = batch.wid[alive]
        nxt_a = np.asarray(nxt)[alive]
        step_a = batch.step[alive]
        out[wid_a, step_a] = nxt_a
        step_a = step_a + 1
        tprev_a = np.asarray(tnew)[alive]
        unfinished = step_a < walk_length
        wid_a, nxt_a, step_a, tprev_a = (
            wid_a[unfinished],
            nxt_a[unfinished],
            step_a[unfinished],
            tprev_a[unfinished],
        )
        resident = (nxt_a >= lo) & (nxt_a < hi)
        if not np.all(resident):
            parked.append(
                _Batch(
                    wid_a[~resident],
                    nxt_a[~resident],
                    step_a[~resident],
                    tprev_a[~resident],
                )
            )
        batch = _Batch(
            wid_a[resident], nxt_a[resident], step_a[resident], tprev_a[resident]
        )
    return _concat_batches(parked)


# ---------------------------------------------------------------------------
# Worker-side shard task (parallel rounds)


@dataclass(frozen=True)
class _ShardTask:
    """One shard's work for one exchange round, picklable in O(batch).

    Carries the store *path* — workers mmap the shard's row range
    themselves (cached per process) — so no CSR bytes ever cross the
    pool pipe, unlike the in-memory engine's shm export.
    """

    store_path: str
    array_names: tuple
    lo: int
    hi: int
    walk_length: int
    key: int
    mode: WalkMode
    time_window: float | None
    wid: np.ndarray
    cur: np.ndarray
    step: np.ndarray
    tprev: np.ndarray
    out: "object"  # SharedArraySpec of the (num_walks, walk_length) matrix


_WORKER_ARRAYS: dict = {}


def _store_arrays(path: str, names: tuple) -> dict:
    """Open (and cache) a store's arrays as read-only mmaps, per process."""
    cached = _WORKER_ARRAYS.get(path)
    if cached is None or any(name not in cached for name in names):
        from pathlib import Path

        cached = {
            name: np.load(
                Path(path) / f"{name}.npy", mmap_mode="r", allow_pickle=False
            )
            for name in names
        }
        _WORKER_ARRAYS[path] = cached
    return cached


def _shard_task(task: _ShardTask) -> tuple[_Batch, int, float]:
    """Advance one shard's resident walks; returns (parked, advanced, secs).

    Idempotent by construction: draws are counter-based and the walks a
    task writes are exactly the rows of the walk ids it carries, so a
    killed-and-respawned task (supervisor ladder) rewrites identical
    bytes.
    """
    from repro.parallel.shm import SharedArray

    started = time.perf_counter()
    arrays = _store_arrays(task.store_path, task.array_names)
    batch = _Batch(task.wid, task.cur, task.step, task.tprev)
    advanced = batch.size
    out = SharedArray.attach(task.out)
    try:
        parked = _advance_batch(
            arrays,
            task.lo,
            task.hi,
            task.walk_length,
            task.key,
            task.mode,
            task.time_window,
            batch,
            out.array,
        )
    finally:
        out.close()
    return parked, advanced, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Public engine


def generate_walks_sharded(
    store,
    config: RandomWalkConfig | None = None,
    *,
    context: ExecutionContext | None = None,
) -> WalkCorpus:
    """Generate the walk corpus from a :class:`GraphStore`, shard by shard.

    The result is bitwise-identical for any shard count and worker
    count at a fixed ``config.seed`` (see module docstring), with walk
    tokens in **original** vertex ids. Runtime policy (workers,
    supervision, cancellation, chaos hooks) comes from ``context``
    exactly as for :func:`repro.walks.engine.generate_walks`; the
    ``context.shards`` field, when set, caps how many shard tasks run
    concurrently per exchange round.

    Durable chunk checkpointing is not implemented for the sharded path
    (see docs/scaling.md): shard tasks are idempotent and cheap to
    recompute, so resilience comes from the supervisor respawn ladder
    instead.
    """
    ctx = context or ExecutionContext()
    config = config or RandomWalkConfig()
    mode = WalkMode(config.mode)
    _validate_store_mode(store, mode)

    n = int(store.n)
    perm = np.asarray(store.permutation())
    starts_orig = _resolve_starts(config, n)
    num_walks = starts_orig.shape[0] * config.walks_per_vertex
    walk_length = int(config.walk_length)
    rec = current_recorder()
    workers = ctx.resolve_workers()
    num_shards = int(store.num_shards)
    concurrency = min(workers, num_shards)
    shards_cap = ctx.shards
    if shards_cap:
        concurrency = max(1, min(concurrency, int(shards_cap)))

    with ctx.lifecycle(), rec.span(
        "walks.generate",
        n=n,
        mode=str(mode.value),
        walks_per_vertex=config.walks_per_vertex,
        walk_length=walk_length,
        workers=workers,
        shards=num_shards,
    ) as span:
        with rec.time("walks.generate_seconds") as timer:
            walks = _run_exchange_loop(
                store,
                config,
                ctx,
                perm,
                starts_orig,
                num_walks,
                concurrency,
            )
        corpus = WalkCorpus(walks, num_vertices=n)
        if rec.enabled:
            walks_per_sec = corpus.num_walks / max(timer.seconds, 1e-9)
            rec.inc("walks.total", corpus.num_walks)
            rec.inc("walks.tokens", corpus.num_tokens)
            rec.set("walks.walks_per_sec", walks_per_sec)
            rec.inc("shard.walks", corpus.num_walks)
            rec.set("shard.shards", float(num_shards))
            span.annotate(
                walks=corpus.num_walks,
                tokens=corpus.num_tokens,
                walks_per_sec=round(walks_per_sec, 1),
            )
        return corpus


def _resolve_starts(config: RandomWalkConfig, n: int) -> np.ndarray:
    """Start vertices in *original* id space (the public API's space)."""
    if config.start_vertices is not None:
        starts = np.asarray(config.start_vertices, dtype=np.int64)
        if starts.size and (starts.min() < 0 or starts.max() >= n):
            raise ValueError("start vertex out of range")
        return starts
    return np.arange(n, dtype=np.int64)


def _validate_store_mode(store, mode: WalkMode) -> None:
    if mode is WalkMode.NODE2VEC:
        raise ValueError(
            "node2vec walks are not supported on a graph store: the "
            "rejection sampler draws an unbounded stream per step, which "
            "breaks counter-based shard determinism — use the in-memory "
            "engine for node2vec"
        )
    if mode is WalkMode.WEIGHTED and store.edge_weights is None:
        raise ValueError("WEIGHTED walk requires edge weights")
    if mode is WalkMode.VERTEX_WEIGHTED and store.vertex_weights is None:
        raise ValueError("VERTEX_WEIGHTED walk requires vertex weights")
    if mode is WalkMode.TEMPORAL and store.edge_times is None:
        raise ValueError("TEMPORAL walk requires edge timestamps")


def _mode_arrays(mode: WalkMode) -> tuple:
    names = ["indptr", "indices"]
    if mode is WalkMode.WEIGHTED:
        names.append("cum_weights")
    elif mode is WalkMode.VERTEX_WEIGHTED:
        names.append("cum_vertex_weights")
    elif mode is WalkMode.TEMPORAL:
        names.append("times")
    return tuple(names)


def _run_exchange_loop(
    store,
    config: RandomWalkConfig,
    ctx,
    perm: np.ndarray,
    starts_orig: np.ndarray,
    num_walks: int,
    concurrency: int,
) -> np.ndarray:
    """The deterministic frontier-exchange loop; returns original-id walks."""
    mode = WalkMode(config.mode)
    walk_length = int(config.walk_length)
    n = int(store.n)
    key = derive_key(config.seed)
    bounds = np.asarray(store.shard_bounds)
    num_shards = int(store.num_shards)
    rec = current_recorder()

    # Map starts into the store's (shard-contiguous) id space; walk row
    # i starts at original vertex starts_orig[i % len(starts_orig)],
    # matching the in-memory engine's row layout.
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n, dtype=np.int64)
    starts_new = np.tile(inverse[starts_orig], config.walks_per_vertex)

    walks = np.full((num_walks, walk_length), PAD, dtype=np.int64)
    if num_walks == 0 or n == 0:
        return walks
    walks[:, 0] = starts_new
    if walk_length == 1:
        return _to_original_ids(walks, perm)

    array_names = _mode_arrays(mode)
    parent_arrays = {name: getattr_store_array(store, name) for name in array_names}

    pending = _Batch(
        np.arange(num_walks, dtype=np.int64),
        starts_new.copy(),
        np.ones(num_walks, dtype=np.int64),
        np.full(num_walks, -np.inf),
    )
    queues: list[_Batch] = _route(pending, bounds, num_shards)

    use_pool = concurrency > 1
    shared = None
    out = walks
    if use_pool:
        from repro.parallel.shm import SharedArray

        shared = SharedArray.create((num_walks, walk_length), np.int64)
        shared.array[:] = walks
        out = shared.array

    rounds = 0
    exchanged = 0
    try:
        while True:
            occupied = [s for s in range(num_shards) if queues[s].size]
            if not occupied:
                break
            ctx.check_cancelled()
            round_started = time.perf_counter()
            if use_pool:
                from repro.parallel.pool import parallel_map

                tasks = [
                    _ShardTask(
                        store_path=str(store.path),
                        array_names=array_names,
                        lo=int(bounds[s]),
                        hi=int(bounds[s + 1]),
                        walk_length=walk_length,
                        key=key,
                        mode=mode,
                        time_window=config.time_window,
                        wid=queues[s].wid,
                        cur=queues[s].cur,
                        step=queues[s].step,
                        tprev=queues[s].tprev,
                        out=shared.spec,
                    )
                    for s in occupied
                ]
                results = parallel_map(
                    ctx.wrap_task(_shard_task),
                    tasks,
                    workers=concurrency,
                    supervisor=ctx.supervisor,
                )
                parked_all = [r[0] for r in results]
                if rec.enabled:
                    for (_parked, advanced, seconds) in results:
                        rec.observe("shard.task_seconds", seconds)
                        rec.event(
                            "shard.task",
                            level="debug",
                            walks=int(advanced),
                            seconds=round(seconds, 6),
                        )
            else:
                parked_all = []
                for s in occupied:
                    parked_all.append(
                        _advance_batch(
                            parent_arrays,
                            int(bounds[s]),
                            int(bounds[s + 1]),
                            walk_length,
                            key,
                            mode,
                            config.time_window,
                            queues[s],
                            out,
                        )
                    )
            parked = _concat_batches(parked_all)
            queues = _route(parked, bounds, num_shards)
            rounds += 1
            exchanged += parked.size
            if rec.enabled:
                rec.inc("shard.rounds")
                rec.observe(
                    "shard.round_seconds", time.perf_counter() - round_started
                )
                rec.event(
                    "shard.round",
                    level="debug",
                    round=rounds,
                    shards_active=len(occupied),
                    parked=int(parked.size),
                )
        if shared is not None:
            walks = shared.copy()
    finally:
        if shared is not None:
            shared.destroy()
    if rec.enabled:
        rec.inc("shard.exchanged", exchanged)
        rec.event(
            "shard.exchange_done",
            rounds=rounds,
            exchanged=exchanged,
            walks=num_walks,
        )
    return _to_original_ids(walks, perm)


def getattr_store_array(store, name: str) -> np.ndarray:
    """A store array by its file name (parent-process serial path)."""
    lookup = {
        "indptr": store.indptr,
        "indices": store.indices,
        "times": store.edge_times,
    }
    if name in lookup and lookup[name] is not None:
        return lookup[name]
    return store._arrays[name]


def _route(batch: _Batch, bounds: np.ndarray, num_shards: int) -> list[_Batch]:
    """Bucket walks by the shard owning their current vertex."""
    queues = [_empty_batch() for _ in range(num_shards)]
    if not batch.size:
        return queues
    shard_ids = np.searchsorted(bounds, batch.cur, side="right") - 1
    for s in np.unique(shard_ids):
        mask = shard_ids == s
        queues[int(s)] = _Batch(
            batch.wid[mask], batch.cur[mask], batch.step[mask], batch.tprev[mask]
        )
    return queues


def _to_original_ids(walks: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Map store-space tokens back to original vertex ids (PAD preserved)."""
    safe = np.maximum(walks, 0)
    return np.where(walks == PAD, PAD, perm[safe])
