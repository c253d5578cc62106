"""The Stage contract: one pipeline step, runtime-agnostic.

A stage is a named unit of work with three obligations:

* ``name`` — a stable identifier used for checkpoint scoping, span
  labels, and progress reports;
* ``fingerprint(ctx, value)`` — an optional JSON-able identity of the
  work about to run, letting the :class:`~repro.pipeline.runner.Pipeline`
  skip a stage on resume when a cached output with the same fingerprint
  exists (return ``None`` to opt out of output caching);
* ``run(ctx, value)`` — the work itself, taking the previous stage's
  output and the shared :class:`~repro.context.ExecutionContext`.

Stages never receive ``checkpoint_dir``/``resume``/``workers``/
``supervisor`` as individual arguments — those live on the context,
exactly once.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.context import ExecutionContext

__all__ = ["Stage", "PipelineStage", "StageError"]


class StageError(RuntimeError):
    """A pipeline wiring problem (duplicate names, bad cache contract).

    Distinct from errors *inside* a stage's work — those propagate
    unchanged so callers keep seeing the engines' typed exceptions
    (``FingerprintMismatch``, ``CheckpointCorrupt``, ...).
    """


@runtime_checkable
class Stage(Protocol):
    """Structural type for pipeline steps — any object with this shape runs."""

    name: str

    def fingerprint(
        self, ctx: ExecutionContext, value: Any
    ) -> dict[str, Any] | None: ...

    def run(self, ctx: ExecutionContext, value: Any) -> Any: ...


class PipelineStage:
    """Convenience base class implementing the :class:`Stage` protocol.

    Subclasses set ``name``, implement :meth:`run`, and may opt into
    pipeline-level output caching by setting ``cache_output = True`` and
    returning a fingerprint. Cached outputs are stored as single-array
    checkpoints, so caching stages must return something
    :meth:`dump`/:meth:`restore` can round-trip (a numpy array or scalar
    by default; override both for richer payloads).
    """

    name: str = "stage"

    #: When True (and :meth:`fingerprint` returns a dict), the Pipeline
    #: checkpoints this stage's output and skips re-running it on resume.
    #: Heavy stages that manage their own incremental checkpoints (walks,
    #: train) leave this False and get resume from their engines instead.
    cache_output: bool = False

    def fingerprint(
        self, ctx: ExecutionContext, value: Any
    ) -> dict[str, Any] | None:
        return None

    def run(self, ctx: ExecutionContext, value: Any) -> Any:
        raise NotImplementedError

    # -- output caching hooks ------------------------------------------
    def dump(self, output: Any) -> dict[str, np.ndarray]:
        """Encode ``output`` as named arrays for the stage cache."""
        return {"output": np.asarray(output)}

    def restore(self, arrays: dict[str, np.ndarray]) -> Any:
        """Inverse of :meth:`dump`."""
        return arrays["output"]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
