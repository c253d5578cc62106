"""Minibatch SGD training loop with linear LR decay and convergence stop.

The paper (Fig 7) observes that V2V training time *decreases* as
community structure strengthens: strong structure makes walk contexts
predictable, the loss plateaus sooner, and training halts early. The
trainer implements that behaviour explicitly: per-epoch mean loss is
tracked, and training stops once the relative improvement stays below
``tol`` for ``patience`` consecutive epochs.

Durability: with ``checkpoint_dir`` set, the full trainer state (weight
matrices, RNG state, loss history, early-stop counters, LR-schedule
position) is snapshotted atomically after each epoch; ``resume=True``
restores the latest snapshot and continues, producing final embeddings
bitwise-identical to an uninterrupted run with the same seed (see
docs/resilience.md).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.cbow import CBOWHierarchicalSoftmax
from repro.core.fused import FusedCBOWNegativeSampling
from repro.core.huffman import build_huffman
from repro.core.negative import NegativeSampler
from repro.core.skipgram import SkipGramNegativeSampling
from repro.core.vocab import VertexVocab
from repro.obs.recorder import current_recorder
from repro.resilience.lifecycle import current_cancel_scope
from repro.walks.corpus import WalkCorpus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.supervisor import SupervisorConfig

__all__ = ["TrainConfig", "EmbeddingResult", "train_embeddings"]

OBJECTIVES = ("cbow", "skipgram")
OUTPUT_LAYERS = ("negative", "hierarchical")

TRAINER_CHECKPOINT = "trainer"


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the embedding trainer.

    Defaults follow the paper: CBOW, window ``n = 5``; dimension is
    experiment-specific so it has no privileged default beyond a sane 50.
    """

    dim: int = 50
    window: int = 5
    objective: str = "cbow"
    output_layer: str = "negative"
    negatives: int = 5
    epochs: int = 5
    batch_size: int = 512
    lr: float = 0.025
    lr_min: float = 1e-4
    subsample: float = 0.0
    tol: float = 1e-3
    patience: int = 2
    early_stop: bool = True
    streaming: bool = False
    stream_rows: int = 1024
    workers: int = 1
    seed: int | None = None
    shuffle: bool = field(default=True, compare=False)
    # Liveness policy for the Hogwild worker pool, not model identity:
    # excluded from equality and from the resume fingerprint.
    supervisor: "SupervisorConfig | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.output_layer not in OUTPUT_LAYERS:
            raise ValueError(f"output_layer must be one of {OUTPUT_LAYERS}")
        if self.objective == "skipgram" and self.output_layer == "hierarchical":
            raise ValueError("hierarchical softmax is implemented for CBOW only")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.lr:
            raise ValueError("lr must be positive")
        if self.lr_min < 0 or self.lr_min > self.lr:
            raise ValueError("need 0 <= lr_min <= lr")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.stream_rows < 1:
            raise ValueError("stream_rows must be >= 1")
        if self.workers < 1:
            raise ValueError(
                "workers must be >= 1 (resolve 'auto' before building the "
                "config, e.g. with repro.parallel.pool.resolve_workers)"
            )
        if self.workers > 1 and self.streaming:
            raise ValueError(
                "the streaming trainer is single-process; use workers=1 or "
                "the in-memory (non-streaming) Hogwild path"
            )


@dataclass(frozen=True)
class EmbeddingResult:
    """Outcome of a training run.

    ``vectors`` is the (V × dim) input-embedding matrix — the V2V vectors.
    """

    vectors: np.ndarray
    loss_history: list[float]
    epochs_run: int
    train_seconds: float
    converged: bool
    config: TrainConfig

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def _build_objective(
    config: TrainConfig,
    vocab: VertexVocab,
    rng: np.random.Generator,
    init_vectors: np.ndarray | None = None,
):
    if config.output_layer == "hierarchical":
        coding = build_huffman(vocab.counts)
        objective = CBOWHierarchicalSoftmax(vocab.size, config.dim, coding, rng=rng)
    elif config.objective == "cbow":
        objective = FusedCBOWNegativeSampling(
            vocab.size,
            config.dim,
            vocab.noise_distribution(),
            negatives=config.negatives,
            rng=rng,
        )
    else:
        objective = SkipGramNegativeSampling(
            vocab.size,
            config.dim,
            NegativeSampler(vocab.noise_distribution()),
            negatives=config.negatives,
            rng=rng,
        )
    if init_vectors is not None:
        init_vectors = np.asarray(init_vectors, dtype=np.float64)
        if init_vectors.shape != (vocab.size, config.dim):
            raise ValueError(
                f"init_vectors must be ({vocab.size}, {config.dim}), "
                f"got {init_vectors.shape}"
            )
        # Cast the warm start to the objective's weight dtype (float32
        # for CBOW negative sampling); np.array always copies.
        objective.w_in = np.array(init_vectors, dtype=objective.w_in.dtype)
    return objective


# ----------------------------------------------------------------------
# Epoch-level state (shared by the in-memory and streaming loops) and
# its checkpoint plumbing.
# ----------------------------------------------------------------------
@dataclass
class _TrainState:
    """Everything that survives an epoch boundary."""

    epoch: int = 0  # completed epochs
    loss_history: list[float] = field(default_factory=list)
    best_loss: float = np.inf
    stall: int = 0
    batch_index: int = 0
    converged: bool = False

    def record_epoch(self, mean_loss: float, config: TrainConfig) -> None:
        self.loss_history.append(mean_loss)
        self.epoch += 1
        if config.early_stop:
            improvement = (self.best_loss - mean_loss) / max(
                abs(self.best_loss), 1e-12
            )
            if np.isfinite(self.best_loss) and improvement < config.tol:
                self.stall += 1
                if self.stall >= config.patience:
                    self.converged = True
            else:
                self.stall = 0
            self.best_loss = min(self.best_loss, mean_loss)


class _TrainerSnapshots:
    """Per-epoch atomic snapshots of a training run.

    A thin policy layer (what to store, how often) over the shared
    fingerprinted-slot machinery in
    :class:`repro.pipeline.checkpointing.FingerprintedCheckpoints` —
    the fingerprint stamping/verification itself lives there now,
    shared with the walk engine.
    """

    def __init__(self, store, every: int) -> None:
        if every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.store = store  # a FingerprintedCheckpoints
        self.every = every

    def restore(
        self, objective, rng: np.random.Generator
    ) -> _TrainState | None:
        """Load the trainer snapshot, if any, into objective/rng/state."""
        ckpt = self.store.load(TRAINER_CHECKPOINT)
        if ckpt is None:
            return None
        # Preserve the objective's weight dtype (float32 for CBOW
        # negative sampling, float64 for the other objectives).
        objective.w_in = np.ascontiguousarray(
            ckpt.arrays["w_in"], dtype=objective.w_in.dtype
        )
        objective.w_out = np.ascontiguousarray(
            ckpt.arrays["w_out"], dtype=objective.w_out.dtype
        )
        rng.bit_generator.state = ckpt.meta["rng_state"]
        return _TrainState(
            epoch=int(ckpt.meta["epoch"]),
            loss_history=[float(x) for x in ckpt.meta["loss_history"]],
            best_loss=float(ckpt.meta["best_loss"]),
            stall=int(ckpt.meta["stall"]),
            batch_index=int(ckpt.meta["batch_index"]),
            converged=bool(ckpt.meta["converged"]),
        )

    def save(
        self, objective, rng: np.random.Generator, state: _TrainState, *, final: bool
    ) -> None:
        if not final and state.epoch % self.every != 0:
            return
        self.store.save(
            TRAINER_CHECKPOINT,
            {"w_in": objective.w_in, "w_out": objective.w_out},
            {
                "rng_state": rng.bit_generator.state,
                "epoch": state.epoch,
                "loss_history": state.loss_history,
                "best_loss": state.best_loss,
                "stall": state.stall,
                "batch_index": state.batch_index,
                "converged": state.converged,
            },
        )


def _trainer_snapshots(
    corpus: WalkCorpus,
    config: TrainConfig,
    ctx,
    init_vectors: np.ndarray | None,
    every: int,
) -> _TrainerSnapshots | None:
    """The run's snapshot slot, or None when checkpointing is off."""
    store = ctx.fingerprinted(
        _train_fingerprint(corpus, config, init_vectors),
        what="trainer checkpoint",
        described="configuration or corpus",
    )
    if store is None:
        return None
    return _TrainerSnapshots(store, every)


def _train_fingerprint(
    corpus: WalkCorpus, config: TrainConfig, init_vectors: np.ndarray | None
) -> dict:
    """Identity of a training job: config + corpus shape + warm start."""
    config_dict = asdict(config)
    config_dict.pop("supervisor", None)  # liveness policy, not identity
    return {
        "config": config_dict,
        "corpus": {
            "num_walks": corpus.num_walks,
            "max_length": corpus.max_length,
            "num_tokens": corpus.num_tokens,
            "num_vertices": corpus.num_vertices,
        },
        "has_init_vectors": init_vectors is not None,
    }


# Local "not passed" sentinel for the legacy keyword shims (the pipeline
# layer has its own; this module must not import it at module level).
_UNSET = object()


def train_embeddings(
    corpus: WalkCorpus,
    config: TrainConfig | None = None,
    *,
    context=None,
    init_vectors: np.ndarray | None = None,
    checkpoint_dir: "str | Path | None" = _UNSET,  # type: ignore[assignment]
    resume: bool = _UNSET,  # type: ignore[assignment]
    checkpoint_every: int = 1,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> EmbeddingResult:
    """Train vertex embeddings on a walk corpus.

    Returns an :class:`EmbeddingResult`; ``vectors`` rows for vertices
    that never appear in the corpus keep their random initialization
    (they carry no information, matching word2vec's treatment of
    out-of-corpus words).

    ``init_vectors`` warm-starts the input embedding matrix — used by
    :meth:`repro.core.model.V2V.refit` to retrain after small graph
    changes without re-learning from scratch.

    Runtime concerns travel in ``context``
    (:class:`repro.pipeline.ExecutionContext`): with
    ``context.checkpoint_dir`` set the trainer snapshots atomically
    every ``checkpoint_every`` epochs, and with ``context.resume`` an
    existing snapshot (written by the same config and corpus — anything
    else raises ``ValueError``) is restored and training continues from
    the epoch after it, replaying the exact RNG stream of an
    uninterrupted run. ``epoch_callback(epoch_index, mean_loss)`` fires
    after each completed epoch (after the snapshot, so a crash inside
    the callback is itself resumable). The individual
    ``checkpoint_dir=``/``resume=`` keyword arguments remain accepted
    for compatibility with a ``DeprecationWarning`` and cannot be
    combined with ``context``.

    ``config.workers > 1`` dispatches to the shared-memory Hogwild
    trainer (:func:`repro.parallel.hogwild.train_hogwild`): the weight
    matrices move into ``multiprocessing.shared_memory`` and the example
    set is sharded across lock-free SGD worker processes. ``workers=1``
    always takes this serial path and is bitwise-reproducible. CBOW with
    negative sampling trains with the float32
    :class:`~repro.core.fused.FusedCBOWNegativeSampling` kernel at every
    worker count, streaming included; skip-gram and hierarchical softmax
    train in float64.
    """
    from repro.pipeline.context import UNSET, context_from_legacy

    ctx = context_from_legacy(
        context,
        checkpoint_dir=UNSET if checkpoint_dir is _UNSET else checkpoint_dir,
        resume=UNSET if resume is _UNSET else resume,
    )
    return _train_embeddings(
        corpus,
        config,
        ctx,
        init_vectors=init_vectors,
        checkpoint_every=checkpoint_every,
        epoch_callback=epoch_callback,
    )


def _train_embeddings(
    corpus: WalkCorpus,
    config: TrainConfig | None,
    ctx,
    *,
    init_vectors: np.ndarray | None = None,
    checkpoint_every: int = 1,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> EmbeddingResult:
    """Context-based trainer entry (``ctx`` is an ExecutionContext)."""
    config = config or TrainConfig()
    # TrainConfig.supervisor predates the context; honor it when the
    # context does not name its own supervision policy.
    ctx = ctx.with_supervisor(config.supervisor)
    if config.workers > 1:
        from repro.parallel.hogwild import hogwild_supported, train_hogwild

        if hogwild_supported():
            return train_hogwild(
                corpus,
                config,
                context=ctx,
                init_vectors=init_vectors,
                checkpoint_every=checkpoint_every,
                epoch_callback=epoch_callback,
            )
        warnings.warn(
            "shared memory is unavailable on this platform; training "
            f"serially instead of with {config.workers} workers",
            RuntimeWarning,
            stacklevel=2,
        )
        current_recorder().event(
            "train.serial_fallback", level="warning", workers=config.workers
        )
        config = replace(config, workers=1)
    rec = current_recorder()
    with ctx.lifecycle(), rec.span(
        "train.run",
        objective=config.objective,
        output_layer=config.output_layer,
        dim=config.dim,
        epochs=config.epochs,
        streaming=config.streaming,
    ) as span:
        rng = np.random.default_rng(config.seed)
        vocab = VertexVocab.from_corpus(corpus)
        if vocab.total_tokens == 0:
            raise ValueError("corpus is empty; nothing to train on")

        checkpointer = _trainer_snapshots(
            corpus, config, ctx, init_vectors, checkpoint_every
        )

        if config.streaming:
            return _train_streaming(
                corpus,
                config,
                vocab,
                rng,
                init_vectors,
                checkpointer=checkpointer,
                resume=ctx.resume,
                epoch_callback=epoch_callback,
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

        if rec.enabled:
            span.annotate(
                epochs_run=len(state.loss_history), converged=state.converged
            )
        return EmbeddingResult(
            vectors=objective.vectors.copy(),
            loss_history=state.loss_history,
            epochs_run=len(state.loss_history),
            train_seconds=elapsed,
            converged=state.converged,
            config=config,
        )


def _record_epoch_telemetry(
    rec,
    span,
    state: _TrainState,
    mean_loss: float,
    lr: float,
    examples: int,
    seconds: float,
) -> None:
    """Per-epoch metrics + span attributes (dense and streaming loops)."""
    words_per_sec = examples / max(seconds, 1e-9)
    rec.observe("train.epoch_seconds", seconds)
    rec.inc("train.epochs_run")
    rec.inc("train.examples", examples)
    rec.set("train.last_loss", mean_loss)
    rec.set("train.lr", lr)
    rec.set("train.words_per_sec", words_per_sec)
    span.annotate(
        loss=round(mean_loss, 6),
        lr=round(lr, 6),
        examples=examples,
        words_per_sec=round(words_per_sec, 1),
    )
    if state.converged:
        rec.event(
            "train.early_stop",
            epoch=state.epoch,
            loss=round(mean_loss, 6),
            stall=state.stall,
        )


def _run_dense_epochs(
    objective,
    centers: np.ndarray,
    contexts: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    state: _TrainState,
    *,
    checkpointer: _TrainerSnapshots | None = None,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> float:
    """The serial in-memory epoch loop; returns elapsed seconds.

    Shared verbatim by the default trainer and the ``workers=1``
    shared-memory path (:func:`repro.parallel.hogwild.train_hogwild`):
    both drive exactly this sequence of RNG draws and float ops, which
    is what makes the two bitwise-identical.
    """
    num_examples = centers.shape[0]
    batches_per_epoch = max(1, int(np.ceil(num_examples / config.batch_size)))
    total_batches = batches_per_epoch * config.epochs
    rec = current_recorder()
    scope = current_cancel_scope()

    start = time.perf_counter()
    for _epoch in range(state.epoch, config.epochs):
        if state.converged:
            break
        if scope.cancelled():
            # Clean epoch boundary: weights/RNG match the last completed
            # epoch exactly, so this final snapshot is resume-safe.
            if checkpointer is not None:
                checkpointer.save(objective, rng, state, final=True)
            scope.check()
        with rec.span("train.epoch", epoch=state.epoch) as span:
            epoch_start = time.perf_counter()
            order = rng.permutation(num_examples) if config.shuffle else np.arange(num_examples)
            epoch_loss = 0.0
            lr = config.lr
            for lo in range(0, num_examples, config.batch_size):
                # Mid-epoch cancel raises *without* saving: the weights
                # already hold partial-epoch updates, so only the last
                # epoch-boundary snapshot is a valid resume point.
                scope.check()
                sel = order[lo : lo + config.batch_size]
                # Linear LR decay over the scheduled (not early-stopped) run.
                frac = state.batch_index / max(total_batches - 1, 1)
                lr = config.lr + (config.lr_min - config.lr) * frac
                epoch_loss += objective.batch_step(centers[sel], contexts[sel], lr, rng)
                state.batch_index += 1
            mean_loss = epoch_loss / batches_per_epoch
            state.record_epoch(mean_loss, config)
            if rec.enabled:
                _record_epoch_telemetry(
                    rec,
                    span,
                    state,
                    mean_loss,
                    lr,
                    num_examples,
                    time.perf_counter() - epoch_start,
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
    return time.perf_counter() - start


def _train_streaming(
    corpus: WalkCorpus,
    config: TrainConfig,
    vocab: VertexVocab,
    rng: np.random.Generator,
    init_vectors: np.ndarray | None,
    *,
    checkpointer: _TrainerSnapshots | None = None,
    resume: bool = False,
    epoch_callback: Callable[[int, float], None] | None = None,
) -> EmbeddingResult:
    """Memory-bounded training: context examples are extracted one walk
    chunk at a time instead of materialized for the whole corpus.

    Peak memory is O(stream_rows × walk_length × window + buffer) — the
    path that makes the paper's t = ℓ = 1000 corpora (10⁹ tokens →
    ~10¹⁰ context slots) trainable. Shuffling is hierarchical: walk rows
    are permuted globally, then examples pass through a shuffle buffer
    of several batches before being consumed — without the buffer, a
    small chunk feeds whole batches from a handful of walks, whose
    heavily repeated vertices over-step the SGD update.
    """
    num_examples = corpus.num_examples(config.window)
    if num_examples == 0:
        raise ValueError("corpus has no (center, context) examples")
    objective = _build_objective(config, vocab, rng, init_vectors)
    state = _TrainState()
    if checkpointer is not None and resume:
        state = checkpointer.restore(objective, rng) or state

    keep_p = (
        vocab.keep_probabilities(config.subsample)
        if config.subsample > 0
        else None
    )
    batches_per_epoch = max(1, int(np.ceil(num_examples / config.batch_size)))
    total_batches = batches_per_epoch * config.epochs
    rec = current_recorder()
    scope = current_cancel_scope()

    start = time.perf_counter()
    for _epoch in range(state.epoch, config.epochs):
        if state.converged:
            break
        if scope.cancelled():
            if checkpointer is not None:
                checkpointer.save(objective, rng, state, final=True)
            scope.check()
        with rec.span("train.epoch", epoch=state.epoch, streaming=True) as span:
            epoch_start = time.perf_counter()
            if config.shuffle:
                row_order = rng.permutation(corpus.num_walks)
                shuffled = WalkCorpus(
                    corpus.walks[row_order], num_vertices=corpus.num_vertices
                )
            else:
                shuffled = corpus
            epoch_loss = 0.0
            epoch_batches = 0
            buffer_target = 8 * config.batch_size
            buf_centers: list[np.ndarray] = []
            buf_contexts: list[np.ndarray] = []
            buffered = 0

            def drain(final: bool) -> tuple[float, int]:
                nonlocal buf_centers, buf_contexts, buffered
                centers = np.concatenate(buf_centers)
                contexts = np.vstack(buf_contexts)
                if config.shuffle:
                    perm = rng.permutation(centers.shape[0])
                    centers, contexts = centers[perm], contexts[perm]
                # Keep a partial batch in the buffer unless this is the
                # final drain of the epoch.
                full = centers.shape[0] - (
                    0 if final else centers.shape[0] % config.batch_size
                )
                loss = 0.0
                steps = 0
                for lo in range(0, full, config.batch_size):
                    scope.check()
                    frac = min(state.batch_index, total_batches - 1) / max(
                        total_batches - 1, 1
                    )
                    lr = config.lr + (config.lr_min - config.lr) * frac
                    loss += objective.batch_step(
                        centers[lo : lo + config.batch_size],
                        contexts[lo : lo + config.batch_size],
                        lr,
                        rng,
                    )
                    state.batch_index += 1
                    steps += 1
                if full < centers.shape[0]:
                    buf_centers = [centers[full:]]
                    buf_contexts = [contexts[full:]]
                    buffered = centers.shape[0] - full
                else:
                    buf_centers, buf_contexts, buffered = [], [], 0
                return loss, steps

            for centers, contexts in shuffled.context_batches(
                config.window, rows_per_batch=config.stream_rows
            ):
                if keep_p is not None:
                    keep = rng.random(centers.shape[0]) < keep_p[centers]
                    if np.any(keep):
                        centers, contexts = centers[keep], contexts[keep]
                buf_centers.append(centers)
                buf_contexts.append(contexts)
                buffered += centers.shape[0]
                if buffered >= buffer_target:
                    loss, steps = drain(final=False)
                    epoch_loss += loss
                    epoch_batches += steps
            if buffered:
                loss, steps = drain(final=True)
                epoch_loss += loss
                epoch_batches += steps
            mean_loss = epoch_loss / max(epoch_batches, 1)
            state.record_epoch(mean_loss, config)
            if rec.enabled:
                frac = min(max(state.batch_index - 1, 0), total_batches - 1) / max(
                    total_batches - 1, 1
                )
                _record_epoch_telemetry(
                    rec,
                    span,
                    state,
                    mean_loss,
                    config.lr + (config.lr_min - config.lr) * frac,
                    num_examples,
                    time.perf_counter() - epoch_start,
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
    elapsed = time.perf_counter() - start

    return EmbeddingResult(
        vectors=objective.vectors.copy(),
        loss_history=state.loss_history,
        epochs_run=len(state.loss_history),
        train_seconds=elapsed,
        converged=state.converged,
        config=config,
    )
