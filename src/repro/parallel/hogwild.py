"""Hogwild-style shared-memory parallel CBOW/SkipGram training.

The paper's pitch (Fig 7, Table 1) is that V2V is *fast*; DeepWalk-family
systems get there with lock-free asynchronous SGD (Hogwild, Niu et al.
2011): N workers update one shared weight matrix without locks, relying
on sparse, mostly-disjoint touches per minibatch. This module is that
training mode for the reproduction:

- ``w_in``/``w_out`` live in :mod:`repro.parallel.shm` segments; workers
  attach and run the *unchanged* vectorized ``batch_step`` kernels
  directly against the shared views — updates race benignly, exactly as
  Hogwild prescribes.
- The (centers, contexts) example set is materialized once in the parent,
  moved into shared memory, and sharded contiguously across workers —
  nothing heavyweight is ever pickled through the pool; per-epoch task
  payloads are a few hundred bytes of names and scalars (plus the noise
  distribution, O(V) floats).
- Per-worker RNG streams are addressed by ``(epoch, worker)`` via
  :func:`repro.parallel.seeding.worker_seed_sequence`, so checkpoint
  resume replays the exact seeds of the epochs it re-runs.
- ``workers=1`` executes the serial epoch loop in-process against the
  shared matrices — the same RNG draws and float ops as the default
  trainer, hence bitwise-identical embeddings (tested).

Determinism caveat: with ``workers > 1`` the final weights depend on OS
scheduling (update interleaving), so multi-worker runs are *not* bitwise
reproducible — only statistically so. See docs/PERFORMANCE.md.

Fault tolerance: epochs run through
:func:`repro.parallel.pool.parallel_map`, so a worker killed mid-epoch is
retried in a fresh pool (its shard is partially re-applied — benign for
Hogwild, same class of race as normal operation) and ultimately degrades
to in-process execution. Shared segments are owned by a
:func:`repro.parallel.shm.shared_arrays` scope and are unlinked on every
exit path, including exceptions and injected worker death.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs.recorder import current_recorder
from repro.obs.slab import HOGWILD_SLOTS, MetricsSlab, MetricsSlabSpec
from repro.parallel.pool import chunk_bounds, parallel_map
from repro.resilience.guard import effective_workers
from repro.parallel.seeding import worker_seed_sequence
from repro.resilience.lifecycle import current_cancel_scope
from repro.parallel.shm import SHM_AVAILABLE, SharedArraySpec, shared_arrays

__all__ = ["train_hogwild", "hogwild_supported", "hogwild_epoch_task"]


def hogwild_supported() -> bool:
    """Whether this platform can run the shared-memory trainer."""
    return SHM_AVAILABLE


@dataclass(frozen=True)
class _EpochTask:
    """One worker's share of one epoch (picklable, tiny).

    Shared state travels as :class:`SharedArraySpec` handles; the only
    array-valued field is ``vocab_counts`` (O(V) int64), from which the
    worker rebuilds its objective (noise distribution / Huffman coding).
    """

    w_in: SharedArraySpec
    w_out: SharedArraySpec
    centers: SharedArraySpec
    contexts: SharedArraySpec
    lo: int
    hi: int
    epoch: int
    worker: int
    entropy: int
    batch_offset: int
    total_batches: int
    config: "object"  # TrainConfig (imported lazily to avoid a cycle)
    vocab_counts: np.ndarray
    # Optional shared-memory metrics row set; workers report live progress
    # through it because the parent's Recorder is inert across fork.
    slab: MetricsSlabSpec | None = None


# Per-process cache of one run's attachments + rebuilt objective, keyed
# by the four segment names. Persistent-pool workers serve *every* epoch
# of a run (repro.parallel.persistent), so re-attaching the segments and
# rebuilding the objective — noise guide table, Huffman coding, a
# throwaway init matrix — once per epoch per worker was pure overhead.
# A new run allocates fresh segment names, which misses the cache and
# evicts the stale entry; the underlying attachments are owned by
# :func:`repro.parallel.shm.attach_cached` and are closed by its FIFO
# eviction, never here.
_WORKER_STATE: dict[tuple, tuple] = {}


def _task_state(task: _EpochTask) -> tuple:
    """(objective, centers, contexts) for this task's run, cached."""
    from repro.core.trainer import _build_objective
    from repro.core.vocab import VertexVocab
    from repro.parallel.shm import attach_cached

    key = (
        task.w_in.name,
        task.w_out.name,
        task.centers.name,
        task.contexts.name,
    )
    cached = _WORKER_STATE.get(key)
    if cached is not None:
        return cached
    sh = [
        attach_cached(s)
        for s in (task.w_in, task.w_out, task.centers, task.contexts)
    ]
    # Rebuild the objective shell, then point it at the shared views.
    # The throwaway init matrices are freed immediately.
    vocab = VertexVocab(task.vocab_counts)
    objective = _build_objective(task.config, vocab, np.random.default_rng(0))
    objective.w_in = sh[0].array
    objective.w_out = sh[1].array
    state = (objective, sh[2].array, sh[3].array)
    _WORKER_STATE.clear()  # one run at a time; drop stale handles
    _WORKER_STATE[key] = state
    return state


def hogwild_epoch_task(task: _EpochTask) -> tuple[float, int]:
    """Run one worker's epoch shard against the shared weights.

    Returns ``(loss_sum, batches_run)``. Module-level and picklable so it
    crosses a process pool; also runnable in-process (the ``workers=1``
    fallback inside :func:`parallel_map` and the chaos tests rely on
    that). Attachments and the rebuilt objective are cached per process
    (see :data:`_WORKER_STATE`), so on a persistent pool only the first
    epoch of a run pays the setup cost.
    """
    from repro.resilience.supervisor import current_heartbeat

    heartbeat = current_heartbeat()
    objective, all_centers, all_contexts = _task_state(task)
    slab = MetricsSlab.attach(task.slab) if task.slab is not None else None
    try:
        rng = np.random.default_rng(
            worker_seed_sequence(task.entropy, task.epoch, task.worker)
        )
        order = np.arange(task.lo, task.hi)
        if task.config.shuffle:
            rng.shuffle(order)

        config = task.config
        loss_sum = 0.0
        batches = 0
        denom = max(task.total_batches - 1, 1)
        if slab is not None:
            slab.put(task.worker, "epoch", task.epoch)
        for lo in range(0, order.shape[0], config.batch_size):
            # Lifecycle flag word: the parent broadcasts 1.0 here when
            # cancellation is requested (signal or deadline). Returning
            # early hands back a partial shard; the parent detects the
            # short epoch and discards it rather than recording it.
            if slab is not None and slab.get(task.worker, "cancel"):
                break
            sel = order[lo : lo + config.batch_size]
            frac = min(task.batch_offset + batches, denom) / denom
            lr = config.lr + (config.lr_min - config.lr) * frac
            loss = objective.batch_step(
                all_centers[sel], all_contexts[sel], lr, rng
            )
            loss_sum += loss
            batches += 1
            heartbeat.beat()  # liveness signal for the supervisor watchdog
            if slab is not None:
                slab.add(task.worker, "batches", 1)
                slab.add(task.worker, "examples", sel.shape[0])
                slab.add(task.worker, "loss_sum", loss)
                # Heartbeat for external monitors (repro top): one store,
                # same benign single-writer regime as the other slots.
                slab.put(task.worker, "updated", time.time())
        return loss_sum, batches
    finally:
        if slab is not None:
            slab.close()


# Local "not passed" sentinel for the legacy keyword shims (the pipeline
# layer has its own; this module must not import it at module level).
_UNSET = object()


def train_hogwild(
    corpus,
    config=None,
    *,
    context=None,
    init_vectors: np.ndarray | None = None,
    checkpoint_dir: "str | Path | None" = _UNSET,  # type: ignore[assignment]
    resume: bool = _UNSET,  # type: ignore[assignment]
    checkpoint_every: int = 1,
    epoch_callback: Callable[[int, float], None] | None = None,
    task_fn: Callable[[_EpochTask], tuple[float, int]] | None = None,
):
    """Train embeddings with shared weights and ``config.workers`` processes.

    Same contract as :func:`repro.core.trainer.train_embeddings` (which
    dispatches here for ``workers > 1``): runtime concerns ride in
    ``context`` (:class:`repro.pipeline.ExecutionContext`), with the
    individual ``checkpoint_dir=``/``resume=`` keywords kept as
    deprecated compatibility shims. Additionally accepts ``task_fn`` so
    the chaos tests can wrap the per-epoch worker task in a
    :class:`repro.resilience.chaos.FaultInjector` (``context``'s own
    ``fault_injector`` hook does the same for pipeline-driven runs).

    ``workers=1`` is the deterministic path: it runs the serial epoch
    loop in-process against the shared matrices and produces embeddings
    bitwise-identical to the serial trainer.
    """
    from repro.core.trainer import (
        EmbeddingResult,
        TrainConfig,
        _build_objective,
        _trainer_snapshots,
        _TrainState,
        _run_dense_epochs,
    )
    from repro.core.vocab import VertexVocab
    from repro.pipeline.context import UNSET, context_from_legacy

    ctx = context_from_legacy(
        context,
        checkpoint_dir=UNSET if checkpoint_dir is _UNSET else checkpoint_dir,
        resume=UNSET if resume is _UNSET else resume,
    )
    config = config or TrainConfig()
    ctx = ctx.with_supervisor(config.supervisor)
    if config.streaming:
        raise ValueError("the Hogwild trainer has no streaming mode")
    if not hogwild_supported():  # pragma: no cover - exotic platforms
        raise RuntimeError("shared memory is unavailable on this platform")

    # Mirror the serial trainer's setup *exactly* (same RNG call order)
    # so the workers=1 path stays bitwise-identical.
    rng = np.random.default_rng(config.seed)
    vocab = VertexVocab.from_corpus(corpus)
    if vocab.total_tokens == 0:
        raise ValueError("corpus is empty; nothing to train on")

    checkpointer = _trainer_snapshots(
        corpus, config, ctx, init_vectors, checkpoint_every
    )

    centers, contexts = corpus.context_arrays(config.window)
    if centers.size == 0:
        raise ValueError("corpus has no (center, context) examples")

    if config.subsample > 0:
        keep_p = vocab.keep_probabilities(config.subsample)
        keep = rng.random(centers.shape[0]) < keep_p[centers]
        if np.any(keep):  # never subsample away the whole corpus
            centers, contexts = centers[keep], contexts[keep]

    objective = _build_objective(config, vocab, rng, init_vectors)
    state = _TrainState()
    if checkpointer is not None and ctx.resume:
        state = checkpointer.restore(objective, rng) or state

    rec = current_recorder()
    with ctx.lifecycle(), rec.span(
        "train.run",
        objective=config.objective,
        output_layer=config.output_layer,
        dim=config.dim,
        epochs=config.epochs,
        workers=config.workers,
    ) as span, shared_arrays() as scope:
        # Weights move into shared memory; the parent-side objective now
        # *views* the segments, so checkpoint snapshots read live state.
        sh_in = scope.from_array(objective.w_in)
        sh_out = scope.from_array(objective.w_out)
        objective.w_in = sh_in.array
        objective.w_out = sh_out.array

        if config.workers == 1:
            elapsed = _run_dense_epochs(
                objective,
                centers,
                contexts,
                config,
                rng,
                state,
                checkpointer=checkpointer,
                epoch_callback=epoch_callback,
            )
        else:
            elapsed = _run_hogwild_epochs(
                objective,
                scope,
                sh_in.spec,
                sh_out.spec,
                centers,
                contexts,
                vocab,
                config,
                ctx,
                rng,
                state,
                checkpointer=checkpointer,
                epoch_callback=epoch_callback,
                task_fn=task_fn,
            )
        vectors = objective.vectors.copy()  # escape the scope before unlink
        if rec.enabled:
            span.annotate(
                epochs_run=len(state.loss_history), converged=state.converged
            )

    return EmbeddingResult(
        vectors=vectors,
        loss_history=state.loss_history,
        epochs_run=len(state.loss_history),
        train_seconds=elapsed,
        converged=state.converged,
        config=config,
    )


def _run_hogwild_epochs(
    objective,
    scope,
    w_in_spec: SharedArraySpec,
    w_out_spec: SharedArraySpec,
    centers: np.ndarray,
    contexts: np.ndarray,
    vocab,
    config,
    ctx,
    rng: np.random.Generator,
    state,
    *,
    checkpointer,
    epoch_callback,
    task_fn,
) -> float:
    """Epoch loop for ``workers > 1``: fan shards out, barrier per epoch."""
    sh_centers = scope.from_array(np.ascontiguousarray(centers, dtype=np.int64))
    sh_contexts = scope.from_array(np.ascontiguousarray(contexts, dtype=np.int64))

    rec = current_recorder()
    # Per-worker progress rows live in the same shared scope as the
    # weights, so crash cleanup (unlink) is covered by the scope. The
    # slab is created unconditionally (not just when telemetry is on)
    # because its "cancel" column is the lifecycle channel by which the
    # parent's cancellation reaches worker processes lock-free.
    sh_slab = scope.from_array(
        np.zeros((config.workers, len(HOGWILD_SLOTS)), dtype=np.float64)
    )
    slab = MetricsSlab.over(sh_slab, HOGWILD_SLOTS)
    slab_spec = slab.spec
    lifecycle = current_cancel_scope()
    unsubscribe = None
    if lifecycle.token is not None:
        unsubscribe = lifecycle.token.on_cancel(
            lambda: slab.broadcast("cancel", 1.0)
        )

    num_examples = centers.shape[0]
    shards = chunk_bounds(num_examples, config.workers)
    shard_batches = [
        int(np.ceil((hi - lo) / config.batch_size)) for lo, hi in shards
    ]
    offsets = np.concatenate([[0], np.cumsum(shard_batches)[:-1]])
    batches_per_epoch = int(sum(shard_batches))
    total_batches = batches_per_epoch * config.epochs
    # One picklable entropy for the whole run; workers re-derive their
    # streams from (entropy, epoch, worker) — stable across resume.
    entropy = np.random.SeedSequence(config.seed).entropy
    task = task_fn or ctx.wrap_task(hogwild_epoch_task)
    counts = vocab.counts

    if rec.live is not None:
        # Publish the training fan-out plus the slab's picklable identity
        # so `repro top` in another process can attach the live rows.
        from repro.obs.live import slab_spec_to_json

        rec.live.update(
            slab=slab_spec_to_json(slab_spec),
            train={
                "workers": config.workers,
                "epochs": config.epochs,
                "epoch": state.epoch,
                "total_batches": total_batches,
                "batches_done": state.batch_index,
                "started_unix": round(time.time(), 3),
            },
        )

    start = time.perf_counter()
    try:
        for epoch in range(state.epoch, config.epochs):
            if state.converged:
                break
            if lifecycle.cancelled():
                # Clean epoch boundary (or deadline noticed here):
                # snapshot then raise. check() also cancels the token on
                # deadline expiry so the slab broadcast fires for it.
                if checkpointer is not None:
                    checkpointer.save(objective, rng, state, final=True)
                lifecycle.check()
            mean_loss = _hogwild_epoch(
                epoch,
                objective,
                sh_centers,
                sh_contexts,
                w_in_spec,
                w_out_spec,
                slab,
                slab_spec,
                shards,
                offsets,
                batches_per_epoch,
                total_batches,
                entropy,
                counts,
                task,
                config,
                ctx,
                state,
                lifecycle,
                rec,
            )
            if checkpointer is not None:
                checkpointer.save(
                    objective,
                    rng,
                    state,
                    final=state.converged or state.epoch == config.epochs,
                )
            if epoch_callback is not None:
                epoch_callback(state.epoch - 1, mean_loss)
            if rec.live is not None:
                rec.live.update(
                    train={
                        "epoch": state.epoch,
                        "batches_done": state.batch_index,
                    }
                )
    finally:
        if unsubscribe is not None:
            unsubscribe()
        if rec.live is not None:
            # The slab segment unlinks with the shared scope; drop the
            # published handle so the monitor stops trying to attach it.
            rec.live.update(slab=None)
    return time.perf_counter() - start


def _hogwild_epoch(
    epoch: int,
    objective,
    sh_centers,
    sh_contexts,
    w_in_spec,
    w_out_spec,
    slab,
    slab_spec,
    shards,
    offsets,
    batches_per_epoch,
    total_batches,
    entropy,
    counts,
    task,
    config,
    ctx,
    state,
    lifecycle,
    rec,
) -> float:
    """One fan-out/barrier epoch; returns the recorded mean loss.

    A partial epoch (workers bailed out via the slab's cancel flag) is
    *discarded*: the shared weights then hold an incomplete update pass,
    which is not a valid resume point, so the epoch is neither recorded
    nor checkpointed — resume replays it from the last boundary.
    """
    from repro.core.trainer import _record_epoch_telemetry

    num_examples = int(sh_centers.array.shape[0])
    with rec.span(
        "train.epoch", epoch=epoch, workers=config.workers
    ) as span:
        epoch_start = time.perf_counter()
        tasks = [
            _EpochTask(
                w_in=w_in_spec,
                w_out=w_out_spec,
                centers=sh_centers.spec,
                contexts=sh_contexts.spec,
                lo=lo,
                hi=hi,
                epoch=epoch,
                worker=w,
                entropy=entropy,
                batch_offset=epoch * batches_per_epoch + int(offsets[w]),
                total_batches=total_batches,
                config=config,
                vocab_counts=counts,
                slab=slab_spec,
            )
            for w, (lo, hi) in enumerate(shards)
        ]
        # Pressure degradation shrinks only the *map concurrency*: task
        # structure (shards, per-(epoch, worker) seeds) stays pinned to
        # config.workers, so the trained model is the one the config
        # names — it just arrives on fewer live processes.
        results = parallel_map(
            task,
            tasks,
            workers=effective_workers(config.workers),
            supervisor=ctx.supervisor,
        )
        loss_sum = sum(loss for loss, _ in results)
        batches_run = sum(n for _, n in results)
        if lifecycle.cancelled() and batches_run < batches_per_epoch:
            lifecycle.check()
        state.batch_index += batches_run
        mean_loss = loss_sum / max(batches_run, 1)
        state.record_epoch(mean_loss, config)
        if rec.enabled:
            epoch_seconds = time.perf_counter() - epoch_start
            for w, row in enumerate(slab.rows()):
                rec.observe("hogwild.worker_batches", row["batches"])
                rec.observe("hogwild.worker_examples", row["examples"])
                rec.event(
                    "hogwild.worker",
                    level="debug",
                    worker=w,
                    epoch=epoch,
                    batches=int(row["batches"]),
                    examples=int(row["examples"]),
                    loss_sum=round(row["loss_sum"], 6),
                )
            slab.reset()
            # End-of-epoch position on the linear LR schedule.
            frac = min(
                (epoch + 1) * batches_per_epoch - 1, total_batches - 1
            ) / max(total_batches - 1, 1)
            _record_epoch_telemetry(
                rec,
                span,
                state,
                mean_loss,
                config.lr + (config.lr_min - config.lr) * frac,
                num_examples,
                epoch_seconds,
            )
    return mean_loss
