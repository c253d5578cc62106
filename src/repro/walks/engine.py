"""Vectorized constrained random walks (paper Section II-A).

All walk variants share one stepping loop that advances *every* active
walk by one hop per iteration:

- ``UNIFORM``          — uniform random neighbor (the basic walk).
- ``WEIGHTED``         — P(arc) proportional to edge weight (alias tables).
- ``VERTEX_WEIGHTED``  — P(arc) proportional to the *target vertex* weight.
- ``TEMPORAL``         — arcs must be strictly increasing in timestamp;
  optionally two consecutive arcs must be within ``time_window`` of each
  other. Implemented with a vectorized per-row binary search over
  time-sorted arcs.

Directed graphs simply follow out-arcs; a walk that reaches a vertex with
no (eligible) out-arc terminates, exactly as the paper specifies, and its
remaining positions are padded with ``-1``.

There is one in-memory execution path. The walk set is cut into chunks;
chunk ``i`` of ``k`` draws from ``spawn_seeds(config.seed, k)[i]`` and
writes its rows of the corpus in place. Chunks run through
:func:`repro.parallel.pool.parallel_map` — in-process at one worker, on
the process pool otherwise — in waves, and each finished chunk is
checkpointed when the context names a checkpoint directory. Worker
count, wave size and checkpointing are scheduling only: the corpus is a
function of ``(config, chunk count)``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.context import ExecutionContext
from repro.graph.core import Graph
from repro.obs.recorder import current_recorder
from repro.parallel.pool import chunk_bounds, parallel_map
from repro.parallel.seeding import spawn_seeds
from repro.parallel.shm import (
    SharedArray,
    SharedArraySpec,
    attach_cached,
    release_cached,
    shared_arrays,
)
from repro.resilience.guard import clamp_wave
from repro.resilience.lifecycle import current_cancel_scope
from repro.resilience.supervisor import current_heartbeat
from repro.walks.alias import AliasTable, build_arc_alias
from repro.walks.corpus import WalkCorpus

__all__ = ["WalkMode", "RandomWalkConfig", "generate_walks"]

PAD = -1


class WalkMode(str, enum.Enum):
    """Which constrained-walk variant to run."""

    UNIFORM = "uniform"
    WEIGHTED = "weighted"
    VERTEX_WEIGHTED = "vertex_weighted"
    TEMPORAL = "temporal"
    NODE2VEC = "node2vec"


@dataclass(frozen=True)
class RandomWalkConfig:
    """Parameters of the walk corpus.

    ``walks_per_vertex`` is the paper's ``t`` and ``walk_length`` its
    ``ℓ`` (paper default 1000 each; our benches default smaller — see
    DESIGN.md substitutions). ``walk_length`` counts *vertices* in the
    sequence, so a walk takes ``walk_length - 1`` hops.
    """

    walks_per_vertex: int = 10
    walk_length: int = 80
    mode: WalkMode = WalkMode.UNIFORM
    time_window: float | None = None
    p: float = 1.0
    q: float = 1.0
    seed: int | None = None
    start_vertices: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.walks_per_vertex < 1:
            raise ValueError("walks_per_vertex must be >= 1")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.time_window is not None and self.time_window < 0:
            raise ValueError("time_window must be non-negative")
        if self.time_window is not None and self.mode is not WalkMode.TEMPORAL:
            raise ValueError("time_window only applies to temporal walks")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("node2vec p and q must be positive")
        if (self.p != 1.0 or self.q != 1.0) and self.mode is not WalkMode.NODE2VEC:
            raise ValueError("p/q only apply to node2vec walks")


def generate_walks(
    g: Graph,
    config: RandomWalkConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    checkpoint_chunks: int | None = None,
) -> WalkCorpus:
    """Generate ``t`` walks from every vertex (or from ``start_vertices``).

    Returns a :class:`WalkCorpus` whose ``walks`` matrix has one row per
    walk, padded with ``-1`` after termination.

    The walk set is split into ``checkpoint_chunks`` chunks (default:
    the context's worker count), each with its own spawned seed stream,
    so the corpus depends only on ``(config.seed, chunk count)``:
    ``workers=2`` gives the same corpus as ``workers=1`` with
    ``checkpoint_chunks=2``. Runtime concerns travel in ``context``
    (default ``ExecutionContext()``), none of which changes the corpus:

    * ``context.workers`` is how many chunks run at once, on the process
      pool when > 1 (``None``/< 1 means auto via
      :func:`repro.parallel.pool.resolve_workers`). Pool workers read the
      stepping arrays from shared memory and write their rows straight
      into one shared walk block; nothing heavyweight is pickled.
    * ``context.checkpoint_dir`` saves each finished chunk atomically.
      With ``context.resume`` true, chunks already on disk (with a
      matching configuration fingerprint) are reused, so a killed run
      restarts where it stopped and ends bitwise-identical to an
      uninterrupted one. A fingerprint mismatch raises
      :class:`repro.resilience.checkpoint.FingerprintMismatch` (a
      ``ValueError``) rather than silently mixing corpora.
    * ``context.supervisor`` runs pooled chunks under worker supervision
      (heartbeats, kill/respawn, degrade ladder). A chunk rerun rewrites
      the same rows from the same seed, so a respawn is bitwise-harmless.
    """
    config = config or RandomWalkConfig()
    ctx = context or ExecutionContext()
    if getattr(g, "mmap_backed", False) and hasattr(g, "shard"):
        # Out-of-core store: shard-parallel engine with counter-based
        # draws (bitwise-stable across shard/worker counts). Durable
        # chunk checkpoints don't apply there — shard rounds are
        # idempotent (see repro.walks.sharded).
        from repro.walks.sharded import generate_walks_sharded

        return generate_walks_sharded(g, config, context=ctx)
    workers = ctx.resolve_workers()
    rec = current_recorder()
    with ctx.lifecycle(), rec.span(
        "walks.generate",
        n=int(g.n),
        mode=str(WalkMode(config.mode).value),
        walks_per_vertex=config.walks_per_vertex,
        walk_length=config.walk_length,
        workers=workers,
    ) as span:
        with rec.time("walks.generate_seconds") as timer:
            walks = _walk_chunks(g, config, ctx, workers, checkpoint_chunks or workers)
        corpus = WalkCorpus(walks, num_vertices=g.n)
        if rec.enabled:
            walks_per_sec = corpus.num_walks / max(timer.seconds, 1e-9)
            rec.inc("walks.total", corpus.num_walks)
            rec.inc("walks.tokens", corpus.num_tokens)
            rec.set("walks.walks_per_sec", walks_per_sec)
            span.annotate(
                walks=corpus.num_walks,
                tokens=corpus.num_tokens,
                walks_per_sec=round(walks_per_sec, 1),
            )
        return corpus


def _walk_start_vertices(g: Graph, config: RandomWalkConfig) -> np.ndarray:
    """Every walk's start vertex, in corpus row order."""
    if config.start_vertices is not None:
        starts = np.asarray(config.start_vertices, dtype=np.int64)
        if starts.size and (starts.min() < 0 or starts.max() >= g.n):
            raise ValueError("start vertex out of range")
    else:
        starts = np.arange(g.n, dtype=np.int64)
    return np.tile(starts, config.walks_per_vertex)


def _walk_fingerprint(g: Graph, config: RandomWalkConfig, chunks: int) -> dict:
    """Identity of a checkpointed walk job; mismatches refuse to resume."""
    starts = config.start_vertices
    return {
        "n": int(g.n),
        "num_edges": int(g.num_edges),
        "directed": bool(g.directed),
        "walks_per_vertex": config.walks_per_vertex,
        "walk_length": config.walk_length,
        "mode": str(WalkMode(config.mode).value),
        "time_window": config.time_window,
        "p": config.p,
        "q": config.q,
        "seed": config.seed,
        "chunks": int(chunks),
        # How chunk streams derive from the seed: a checkpoint written
        # under an older scheme must be refused, not mixed in.
        "chunk_stream": "spawn_seeds(seed, chunks)[i]",
        "start_vertices": None if starts is None else [int(v) for v in starts],
    }


@dataclass(frozen=True)
class _WalkChunk:
    """Rows ``lo:lo + len(starts)`` of the corpus: one chunk's whole job.

    ``arrays`` (the stepping arrays) and ``out`` (the walk matrix) are
    the arrays themselves for an in-process map, and
    :class:`~repro.parallel.shm.SharedArraySpec` handles of shared copies
    for a pooled one, so a task crosses a pipe in a few hundred bytes.
    """

    config: RandomWalkConfig  # start_vertices stripped; see ``starts``
    dense: bool
    arrays: dict
    out: "np.ndarray | SharedArraySpec"
    lo: int
    starts: np.ndarray
    seed: np.random.SeedSequence


def _walk_chunk(task: _WalkChunk) -> float:
    """The chunk task: step the chunk's walks into its corpus rows.

    Returns the chunk's wall-clock seconds. Idempotent: a rerun (after a
    worker death) rewrites the same rows from the same seed. Pool
    workers attach the stepping arrays through the per-process cache
    (:func:`repro.parallel.shm.attach_cached`), once per run rather than
    once per chunk.
    """
    started = time.perf_counter()
    arrays = {
        name: a if isinstance(a, np.ndarray) else attach_cached(a).array
        for name, a in task.arrays.items()
    }
    stepper = _make_stepper(task.config, arrays)
    rng = np.random.default_rng(task.seed)
    hi = task.lo + task.starts.shape[0]
    # The walk block changes every run and can be large: attach and close
    # it per chunk instead of pinning it in the process-level cache.
    shared = None if isinstance(task.out, np.ndarray) else SharedArray.attach(task.out)
    try:
        rows = (task.out if shared is None else shared.array)[task.lo : hi]
        if task.dense:
            rows[:] = _step_walks_dense(stepper, task.starts, rows.shape[1], rng)
        else:
            rows.fill(PAD)
            rows[:, 0] = task.starts
            _step_walks_masked(stepper, task.starts, rows, rng)
    finally:
        if shared is not None:
            shared.close()
    return time.perf_counter() - started


def _walk_chunks(
    g: Graph,
    config: RandomWalkConfig,
    ctx: ExecutionContext,
    workers: int,
    chunks: int,
) -> np.ndarray:
    """Load the finished chunks, run the rest in waves, save each one."""
    mode = WalkMode(config.mode)
    _validate_mode(g, mode)
    starts = _walk_start_vertices(g, config)
    shape = (starts.shape[0], config.walk_length)
    bounds = chunk_bounds(shape[0], chunks)
    if not bounds:
        return np.empty(shape, dtype=np.int64)
    store = ctx.fingerprinted(
        _walk_fingerprint(g, config, len(bounds)),
        what="walk checkpoint",
        described="walk configuration",
    )
    rec = current_recorder()
    done: dict[int, np.ndarray] = {}
    if store is not None and ctx.resume:
        for i in range(len(bounds)):
            ckpt = store.load(f"walks-{i:04d}")
            if ckpt is not None:
                done[i] = ckpt.arrays["walks"]
        if done:
            rec.inc("walks.chunks_resumed", len(done))
            rec.event("walks.resume", chunks=len(done), of=len(bounds))
    missing = [i for i in range(len(bounds)) if i not in done]
    arrays, dense = _walk_arrays(g, mode) if missing else ({}, False)
    seeds = spawn_seeds(config.seed, len(bounds))
    task_config = replace(config, start_vertices=None)
    cancel = current_cancel_scope()
    run_chunk = ctx.wrap_task(_walk_chunk)
    pooled = workers > 1 and len(missing) > 1
    with shared_arrays() as scope:
        if pooled:
            arrays = {name: scope.from_array(a).spec for name, a in arrays.items()}
            shared = scope.create(shape, np.int64)
            walks, out = shared.array, shared.spec
        else:
            walks = out = np.empty(shape, dtype=np.int64)
        for i, rows in done.items():
            lo, hi = bounds[i]
            walks[lo:hi] = rows
        # Waves of `workers` chunks; a kill mid-job loses at most the
        # wave in flight. Under memory pressure the guard ladder clamps
        # the wave to one chunk, re-read per wave so a mid-run breach
        # takes effect at once. Waves are pure scheduling.
        pos, wave_index = 0, 0
        while pos < len(missing):
            cancel.check()
            batch = missing[pos : pos + clamp_wave(workers)]
            pos += len(batch)
            wave_started = time.perf_counter()
            tasks = [
                _WalkChunk(
                    config=task_config,
                    dense=dense,
                    arrays=arrays,
                    out=out,
                    lo=bounds[i][0],
                    starts=starts[bounds[i][0] : bounds[i][1]],
                    seed=seeds[i],
                )
                for i in batch
            ]
            seconds = parallel_map(
                run_chunk, tasks, workers=workers, supervisor=ctx.supervisor
            )
            if store is not None:
                for i in batch:
                    lo, hi = bounds[i]
                    store.save(f"walks-{i:04d}", {"walks": walks[lo:hi]}, {"chunk": i})
            if rec.enabled:
                for i, chunk_seconds in zip(batch, seconds):
                    lo, hi = bounds[i]
                    rec.observe("walks.chunk_seconds", chunk_seconds)
                    rec.event(
                        "walks.chunk",
                        level="debug",
                        rows=hi - lo,
                        seconds=round(chunk_seconds, 6),
                    )
                wave_seconds = time.perf_counter() - wave_started
                rec.observe("walks.wave_seconds", wave_seconds)
                rec.inc("walks.chunks_computed", len(batch))
                rec.event(
                    "walks.wave",
                    wave=wave_index,
                    chunks=len(batch),
                    seconds=round(wave_seconds, 6),
                )
            wave_index += 1
        if pooled:
            walks = walks.copy()  # escape the shared block before unlink
            # An in-process fallback leaves attachments in this process's
            # cache; drop them now that the segments are going away.
            for spec in arrays.values():
                release_cached(spec.name)
    return walks


def _step_walks_masked(stepper, starts, walks, rng) -> None:
    """The reference stepping loop: masked advance of the live walk set.

    Runs whenever a walk can die (a sink vertex, or a temporal walk);
    otherwise it is the reproducibility anchor that the batched frontier
    loop below (:func:`_step_walks_dense`) must stay bitwise-identical
    to (``tests/walks/test_frontier.py``).
    """
    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    num_walks, walk_length = walks.shape
    cur = starts.copy()
    active = np.ones(num_walks, dtype=bool)
    state = stepper.initial_state(num_walks)
    for step in range(1, walk_length):
        heartbeat.beat()  # liveness signal for the supervisor watchdog
        scope.check()  # cooperative cancel: one poll per vectorized hop
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        nxt, ok, state = stepper.step(cur[idx], idx, state, rng)
        landed = idx[ok]
        walks[landed, step] = nxt[ok]
        cur[landed] = nxt[ok]
        active[idx[~ok]] = False


def _step_walks_dense(stepper, starts, walk_length, rng) -> np.ndarray:
    """Frontier-batched stepping for graphs where no walk can die.

    When every vertex has an out-arc (and the mode is not temporal), the
    masked loop's bookkeeping — ``flatnonzero`` over the always-full
    active set, per-step fancy scatter writes, the ``ok`` re-masking
    inside every stepper — is pure overhead: the frontier is the whole
    walk set at every step. This loop advances that full frontier with
    one vectorized draw per wave via ``stepper.step_dense`` and writes
    whole columns contiguously (the walk matrix is built transposed,
    ``(length, walks)``, and returned as its transpose).

    Draw-equivalence: ``step_dense`` consumes the RNG stream in exactly
    the order the masked stepper does when all walks are alive, so for a
    fixed seed the result is bitwise-identical to the reference loop.
    """
    heartbeat = current_heartbeat()
    scope = current_cancel_scope()
    num_walks = starts.shape[0]
    walks = np.empty((walk_length, num_walks), dtype=np.int64)
    walks[0] = starts
    cur = starts
    state = stepper.initial_state(num_walks)
    for step in range(1, walk_length):
        heartbeat.beat()
        scope.check()
        cur, state = stepper.step_dense(cur, state, rng)
        walks[step] = cur
    return walks.T


def _validate_mode(g: Graph, mode: WalkMode) -> None:
    if mode is WalkMode.WEIGHTED and g.edge_weights is None:
        raise ValueError("WEIGHTED walk requires edge weights")
    if mode is WalkMode.VERTEX_WEIGHTED and g.vertex_weights is None:
        raise ValueError("VERTEX_WEIGHTED walk requires vertex weights")
    if mode is WalkMode.TEMPORAL and g.edge_times is None:
        raise ValueError("TEMPORAL walk requires edge timestamps")


def _walk_arrays(g: Graph, mode: WalkMode) -> tuple[dict, bool]:
    """The stepping arrays for ``mode``, and whether the dense loop applies.

    Returns ``(arrays, dense)``: ``arrays`` maps name to the CSR arrays
    plus any mode-specific precomputation (alias tables, row-sorted
    adjacency), built once per job; ``dense`` says every vertex has an
    out-arc, so no walk can die and the frontier-batched loop is
    bitwise-identical to the masked one (temporal walks are excluded:
    their eligible arc set shrinks over time).
    """
    arrays: dict[str, np.ndarray] = {"indptr": g.indptr}
    if mode in (WalkMode.UNIFORM, WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        arrays["indices"] = g.indices
    if mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        weights = (
            g.edge_weights
            if mode is WalkMode.WEIGHTED
            else g.vertex_weights[g.indices]
        )
        table = build_arc_alias(g.indptr, weights)
        arrays["prob"] = table.prob
        arrays["alias"] = table.alias
    elif mode is WalkMode.NODE2VEC:
        order = _sort_rows_by_value(g.indptr, g.indices)
        arrays["sorted_indices"] = np.ascontiguousarray(g.indices[order])
    elif mode is WalkMode.TEMPORAL:
        order = _sort_rows_by_time(g.indptr, g.edge_times)
        arrays["sorted_indices"] = np.ascontiguousarray(g.indices[order])
        arrays["sorted_times"] = np.ascontiguousarray(g.edge_times[order])
    degrees = np.diff(g.indptr)
    dense = (
        mode is not WalkMode.TEMPORAL
        and degrees.size > 0
        and int(degrees.min()) > 0
    )
    return arrays, dense


def _make_stepper(config: RandomWalkConfig, arrays: dict):
    """The stepper for ``config.mode`` over :func:`_walk_arrays` output."""
    mode = WalkMode(config.mode)
    if mode is WalkMode.UNIFORM:
        return _UniformStepper(arrays["indptr"], arrays["indices"])
    if mode in (WalkMode.WEIGHTED, WalkMode.VERTEX_WEIGHTED):
        table = AliasTable(prob=arrays["prob"], alias=arrays["alias"])
        return _AliasStepper(arrays["indptr"], arrays["indices"], table)
    if mode is WalkMode.NODE2VEC:
        return _Node2VecStepper(
            arrays["indptr"], arrays["sorted_indices"], config.p, config.q
        )
    return _TemporalStepper(
        arrays["indptr"],
        arrays["sorted_indices"],
        arrays["sorted_times"],
        config.time_window,
    )


class _UniformStepper:
    """Uniform neighbor choice: next = indices[indptr[v] + floor(u * deg)].

    Steppers take raw CSR arrays (not a :class:`Graph`) so chunk workers
    can rebuild them over shared-memory views without reassembling — or
    pickling — the graph object (see :func:`_make_stepper`).
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr)

    def initial_state(self, num_walks: int) -> None:
        return None

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, None]:
        deg = self.degrees[cur]
        ok = deg > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            u = rng.random(int(ok.sum()))
            offs = (u * deg[ok]).astype(np.int64)
            np.minimum(offs, deg[ok] - 1, out=offs)
            nxt[ok] = self.indices[self.indptr[cur[ok]] + offs]
        return nxt, ok, None

    def step_dense(
        self, cur: np.ndarray, state: None, rng: np.random.Generator
    ) -> tuple[np.ndarray, None]:
        """Full-frontier hop; draw-for-draw identical to :meth:`step`
        when every walk is alive (no masking, no scatter)."""
        deg = self.degrees[cur]
        u = rng.random(cur.shape[0])
        offs = (u * deg).astype(np.int64)
        np.minimum(offs, deg - 1, out=offs)
        return self.indices[self.indptr[cur] + offs], None


class _AliasStepper:
    """Weighted neighbor choice via flat per-vertex alias tables.

    The table is built once per job (by :func:`_walk_arrays`, a
    Python-loop Vose construction) and shared with chunk workers as two
    flat arrays — workers must never rebuild it per chunk.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, table: AliasTable
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr)
        self.table = table
        # Vertices whose arc weights are all zero cannot move (a zero-weight
        # neighborhood has no valid draw under the proportional rule... but
        # we follow the uniform-degeneration convention from build_arc_alias
        # only when *some* weight is positive elsewhere; an all-zero row is
        # treated as uniform too, which keeps walks alive on such rows).

    def initial_state(self, num_walks: int) -> None:
        return None

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, None]:
        deg = self.degrees[cur]
        ok = deg > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            arcs = self.table.sample(self.indptr[cur[ok]], deg[ok], rng)
            nxt[ok] = self.indices[arcs]
        return nxt, ok, None

    def step_dense(
        self, cur: np.ndarray, state: None, rng: np.random.Generator
    ) -> tuple[np.ndarray, None]:
        arcs = self.table.sample(self.indptr[cur], self.degrees[cur], rng)
        return self.indices[arcs], None


class _TemporalStepper:
    """Time-increasing walks with optional window constraint.

    Arcs inside each CSR row are pre-sorted by timestamp. Each step finds,
    per walk, the eligible arc range ``(first time > t_cur,
    last time <= t_cur + window]`` with a vectorized segment binary search
    and samples uniformly inside it. Walk state is the timestamp of the
    last traversed arc (-inf at the start, so the first hop is free).

    Temporal walks can die at any vertex (the eligible range empties), so
    there is no ``step_dense``: this mode always runs the masked loop.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        sorted_indices: np.ndarray,
        sorted_times: np.ndarray,
        time_window: float | None,
    ) -> None:
        self.indptr = indptr
        self.window = time_window
        self.sorted_indices = sorted_indices
        self.sorted_times = sorted_times

    def initial_state(self, num_walks: int) -> np.ndarray:
        return np.full(num_walks, -np.inf)

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t_cur = state[walk_ids]
        row_start = self.indptr[cur]
        row_stop = self.indptr[cur + 1]
        lo = _segment_searchsorted(self.sorted_times, row_start, row_stop, t_cur, side="right")
        if self.window is not None:
            # A fresh walk (t = -inf) has no previous arc, so no window cap.
            cap = np.where(np.isinf(t_cur), np.inf, t_cur + self.window)
            hi = _segment_searchsorted(self.sorted_times, row_start, row_stop, cap, side="right")
        else:
            hi = row_stop
        count = hi - lo
        ok = count > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            u = rng.random(int(ok.sum()))
            pick = lo[ok] + (u * count[ok]).astype(np.int64)
            np.minimum(pick, hi[ok] - 1, out=pick)
            nxt[ok] = self.sorted_indices[pick]
            state[walk_ids[ok]] = self.sorted_times[pick]
        return nxt, ok, state


class _Node2VecStepper:
    """Second-order biased walks (Grover & Leskovec 2016).

    From current vertex v with previous vertex u, a neighbor x is chosen
    with unnormalized weight 1/p if x == u (return), 1 if x is adjacent
    to u (triangle step), 1/q otherwise (exploration). Implemented with
    the node2vec authors' rejection-sampling trick: draw a uniform
    neighbor, accept with weight/max_weight — fully vectorized across
    walks, with adjacency tests done as a batched segment binary search
    over row-sorted CSR. The first hop (no previous vertex) is uniform.
    """

    MAX_REJECTION_ROUNDS = 64

    def __init__(
        self, indptr: np.ndarray, sorted_indices: np.ndarray, p: float, q: float
    ) -> None:
        self.indptr = indptr
        self.degrees = np.diff(indptr)
        self.p = p
        self.q = q
        # Row-sorted adjacency for O(log deg) membership tests; the sort
        # happens once per job in _walk_arrays, never in chunk workers.
        self.sorted_indices = sorted_indices
        self.w_return = 1.0 / p
        self.w_triangle = 1.0
        self.w_explore = 1.0 / q
        self.w_max = max(self.w_return, self.w_triangle, self.w_explore)

    def initial_state(self, num_walks: int) -> np.ndarray:
        return np.full(num_walks, -1, dtype=np.int64)  # previous vertex

    def _uniform_pick(
        self, cur: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        deg = self.degrees[cur]
        u = rng.random(cur.shape[0])
        offs = (u * deg).astype(np.int64)
        np.minimum(offs, deg - 1, out=offs)
        return self.sorted_indices[self.indptr[cur] + offs]

    def _is_adjacent(self, u: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Vectorized: is x a neighbor of u? (both arrays, per element)."""
        starts = self.indptr[u]
        stops = self.indptr[u + 1]
        pos = _segment_searchsorted(
            self.sorted_indices, starts, stops, x, side="left"
        )
        in_range = pos < stops
        found = np.zeros(u.shape[0], dtype=bool)
        safe = np.minimum(pos, self.sorted_indices.shape[0] - 1)
        found[in_range] = self.sorted_indices[safe[in_range]] == x[in_range]
        return found

    def _biased_pick(
        self, cur: np.ndarray, prev: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """One rejection-sampled hop for every (cur, prev) pair."""
        result = np.full(cur.shape[0], PAD, dtype=np.int64)
        pending = np.ones(cur.shape[0], dtype=bool)
        # First hops (prev == -1) are plain uniform draws.
        fresh = prev < 0
        if np.any(fresh):
            result[fresh] = self._uniform_pick(cur[fresh], rng)
            pending[fresh] = False
        for _ in range(self.MAX_REJECTION_ROUNDS):
            idx = np.flatnonzero(pending)
            if idx.size == 0:
                break
            cand = self._uniform_pick(cur[idx], rng)
            w = np.where(
                cand == prev[idx],
                self.w_return,
                np.where(
                    self._is_adjacent(prev[idx], cand),
                    self.w_triangle,
                    self.w_explore,
                ),
            )
            accept = rng.random(idx.size) < w / self.w_max
            result[idx[accept]] = cand[accept]
            pending[idx[accept]] = False
        still = np.flatnonzero(pending)
        if still.size:  # pathological p/q: fall back to uniform
            result[still] = self._uniform_pick(cur[still], rng)
        return result

    def step(
        self,
        cur: np.ndarray,
        walk_ids: np.ndarray,
        state: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        deg = self.degrees[cur]
        ok = deg > 0
        nxt = np.full(cur.shape[0], PAD, dtype=np.int64)
        if np.any(ok):
            nxt[ok] = self._biased_pick(cur[ok], state[walk_ids[ok]], rng)
            state[walk_ids[ok]] = cur[ok]
        return nxt, ok, state

    def step_dense(
        self, cur: np.ndarray, state: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # The new state (previous vertex) is exactly the frontier we just
        # left; the caller never mutates it, so no copy is needed.
        return self._biased_pick(cur, state, rng), cur


def _sort_rows_by_value(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Permutation sorting each CSR row's arcs by target id."""
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.lexsort((values, rows))


def _sort_rows_by_time(indptr: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Permutation sorting each CSR row's arcs by timestamp.

    Implemented as one global stable argsort of (row, time) pairs, which
    keeps the row blocks contiguous — no Python-level per-row loop.
    """
    n = indptr.shape[0] - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return np.lexsort((times, rows))


def _segment_searchsorted(
    sorted_values: np.ndarray,
    seg_start: np.ndarray,
    seg_stop: np.ndarray,
    needles: np.ndarray,
    *,
    side: str = "right",
) -> np.ndarray:
    """Vectorized ``searchsorted`` restricted to per-query segments.

    For each query ``i``, returns the insertion point of ``needles[i]``
    within ``sorted_values[seg_start[i]:seg_stop[i]]`` (plus the offset
    ``seg_start[i]``), i.e. a batched binary search over CSR rows.
    """
    lo = seg_start.astype(np.int64).copy()
    hi = seg_stop.astype(np.int64).copy()
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    # Classic branch-free bisection: ~log2(max segment length) passes.
    while True:
        unfinished = lo < hi
        if not np.any(unfinished):
            break
        mid = (lo + hi) // 2
        vals = sorted_values[np.minimum(mid, sorted_values.shape[0] - 1)]
        if side == "right":
            go_right = unfinished & (vals <= needles)
        else:
            go_right = unfinished & (vals < needles)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(unfinished & ~go_right, mid, hi)
    return lo
