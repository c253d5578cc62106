"""The Pipeline runner: chain stages under one ExecutionContext.

``Pipeline([WalkStage(...), TrainStage(...)])`` is the executable form
of the paper's flow diagram — each stage's output feeds the next stage's
input, while the runner supplies the cross-cutting runtime behaviour
every stage used to reimplement:

* a tracing span per stage (``pipeline.stage`` with the stage name), so
  any run's timeline decomposes by stage in the event stream;
* per-stage durable caching: a stage that opts in (``cache_output``)
  has its output checkpointed under ``<checkpoint_dir>/stages/`` and is
  *skipped* on resume when a cached output with a matching fingerprint
  exists. Heavy stages (walks, train) instead resume incrementally
  inside their engines — mid-stage, not just at stage boundaries;
* typed error transparency: exceptions raised by a stage propagate
  unchanged (annotated with the stage name via ``add_note``), so
  callers keep catching the engines' own error types;
* run lifecycle control: the context's cancellation token / deadline
  become the ambient :class:`~repro.resilience.lifecycle.CancelScope`
  for the whole chain, a cooperative cancel check runs between stages,
  and a :class:`~repro.resilience.lifecycle.RunInterrupted` escaping a
  stage is recorded as a ``pipeline.interrupted`` event before it
  propagates (the engines have already written their final
  checkpoints by then — interruption is durable, not lossy).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.context import ExecutionContext
from repro.obs.profiler import SamplingProfiler
from repro.obs.recorder import current_recorder
from repro.obs.resources import ResourceSnapshot, resource_delta
from repro.pipeline.stage import Stage, StageError
from repro.resilience.guard import PressureWatchdog, preflight
from repro.resilience.lifecycle import RunInterrupted, current_cancel_scope

__all__ = ["Pipeline", "PipelineResult", "StageReport"]

#: Subdirectory of the context's checkpoint_dir holding cached stage
#: outputs. Separate from the stages' own incremental artifacts
#: (``walks/``, ``trainer.ckpt.npz``) so the two never collide.
STAGE_CACHE_SCOPE = "stages"


@dataclass(frozen=True)
class StageReport:
    """What one stage did during :meth:`Pipeline.execute`."""

    name: str
    seconds: float
    #: True when the stage never ran because a fingerprint-matched cached
    #: output was restored (pipeline-level resume).
    skipped: bool = False
    #: Per-stage resource deltas (:func:`repro.obs.resources.resource_delta`)
    #: when a recorder was active; None on the disabled path.
    resources: dict | None = None


@dataclass(frozen=True)
class PipelineResult:
    """Final value plus every intermediate output and per-stage report."""

    value: Any
    outputs: dict[str, Any] = field(default_factory=dict)
    reports: list[StageReport] = field(default_factory=list)

    def report_for(self, name: str) -> StageReport:
        for report in self.reports:
            if report.name == name:
                return report
        raise KeyError(name)

    def seconds_for(self, *names: str) -> float:
        """Total wall-clock of the named stages (CLI timing summaries)."""
        return sum(self.report_for(n).seconds for n in names)


class Pipeline:
    """An ordered chain of :class:`~repro.pipeline.stage.Stage` objects."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        stages = list(stages)
        if not stages:
            raise StageError("a Pipeline needs at least one stage")
        seen: set[str] = set()
        for stage in stages:
            name = getattr(stage, "name", None)
            if not name or not isinstance(name, str):
                raise StageError(f"stage {stage!r} has no usable name")
            if name in seen:
                raise StageError(f"duplicate stage name {name!r} in pipeline")
            seen.add(name)
        self.stages = stages

    @property
    def names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def extended(self, *stages: Stage) -> "Pipeline":
        """A new pipeline with ``stages`` appended (composition helper)."""
        return Pipeline([*self.stages, *stages])

    # ------------------------------------------------------------------
    def execute(
        self, value: Any = None, context: ExecutionContext | None = None
    ) -> PipelineResult:
        """Run every stage in order, feeding each the previous output.

        With an armed :class:`~repro.resilience.guard.ResourceBudget` on
        the context, a preflight footprint check runs first (raising
        :class:`~repro.resilience.guard.BudgetExceeded`, or degrading
        workers under ``auto_degrade``) and a
        :class:`~repro.resilience.guard.PressureWatchdog` samples
        RSS/shm/disk for the duration, driving the degradation ladder on
        breach — whose last rung cancels the run through the same
        cooperative machinery as a SIGTERM.
        """
        ctx = context or ExecutionContext()
        ctx = preflight(ctx, self.stages, value)
        rec = current_recorder()
        outputs: dict[str, Any] = {}
        reports: list[StageReport] = []
        with ctx.lifecycle(), self._guarded(ctx):
            scope = current_cancel_scope()
            for stage in self.stages:
                # Between-stage boundary: never start a stage the run no
                # longer wants. In-stage checks are the engines' job.
                scope.check()
                started = time.perf_counter()
                before, profiler = self._stage_obs_begin(rec, stage.name)
                with rec.span("pipeline.stage", stage=stage.name) as span:
                    try:
                        value, skipped = self._run_stage(stage, ctx, value)
                    except RunInterrupted as exc:
                        rec.inc("pipeline.interrupted")
                        rec.event(
                            "pipeline.interrupted",
                            level="warning",
                            stage=stage.name,
                            reason=exc.reason,
                        )
                        raise
                    finally:
                        if profiler is not None:
                            rec.add_profile(
                                f"stage.{stage.name}", profiler.stop()
                            )
                    if rec.enabled:
                        span.annotate(skipped=skipped)
                outputs[stage.name] = value
                report = StageReport(
                    name=stage.name,
                    seconds=time.perf_counter() - started,
                    skipped=skipped,
                    resources=(
                        resource_delta(before, ResourceSnapshot.capture())
                        if before is not None
                        else None
                    ),
                )
                reports.append(report)
                if before is not None:
                    rec.add_stage_report(
                        {
                            "stage": report.name,
                            "seconds": report.seconds,
                            "skipped": report.skipped,
                            "resources": report.resources,
                        }
                    )
        if rec.live is not None:
            rec.live.update(stage=None)
        return PipelineResult(value=value, outputs=outputs, reports=reports)

    @contextlib.contextmanager
    def _guarded(self, ctx: ExecutionContext):
        """Run the block under a pressure watchdog when a budget is armed.

        Entered inside ``ctx.lifecycle()`` so the ladder's cancel rung
        can reach the run's ambient cancellation token; without a token
        (pure library call, no CLI lifecycle) the ladder still applies
        every non-terminal mitigation. The ladder is reset on entry —
        degradation is per-run state, not process history.
        """
        budget = ctx.budget
        if budget is None or not budget.armed:
            yield
            return
        token = current_cancel_scope().token
        cancel = (
            (lambda: token.cancel("resource_pressure", detail="guard ladder"))
            if token is not None
            else None
        )
        watchdog = PressureWatchdog(
            budget, checkpoint_dir=ctx.checkpoint_dir, cancel=cancel
        )
        with watchdog:
            yield

    def _stage_obs_begin(self, rec, name: str):
        """Arm per-stage observability; (None, None) on the disabled path.

        Returns the before-:class:`ResourceSnapshot` and, when the run is
        profiled, a started :class:`SamplingProfiler` whose collapsed
        stacks land in the recorder under ``stage.<name>``.
        """
        if not rec.enabled:
            return None, None
        if rec.live is not None:
            rec.live.update(stage=name, stages=self.names)
        profiler = None
        if rec.profile_hz is not None:
            profiler = SamplingProfiler(rec.profile_hz, all_threads=True)
            profiler.start()
        return ResourceSnapshot.capture(), profiler

    def run(
        self, value: Any = None, context: ExecutionContext | None = None
    ) -> Any:
        """:meth:`execute`, returning only the final stage's output."""
        return self.execute(value, context).value

    # ------------------------------------------------------------------
    def _run_stage(
        self, stage: Stage, ctx: ExecutionContext, value: Any
    ) -> tuple[Any, bool]:
        cache = self._stage_cache(stage, ctx, value)
        if cache is not None and ctx.resume:
            cached = cache.load(stage.name)
            if cached is not None:
                return stage.restore(dict(cached.arrays)), True
        try:
            output = stage.run(ctx, value)
        except Exception as exc:
            # Typed errors must reach the caller unchanged; the note only
            # adds where in the pipeline they happened.
            if hasattr(exc, "add_note"):  # pragma: no branch - 3.11+
                exc.add_note(f"raised by pipeline stage {stage.name!r}")
            raise
        if cache is not None:
            cache.save(stage.name, stage.dump(output))
        return output, False

    def _stage_cache(self, stage: Stage, ctx: ExecutionContext, value: Any):
        """The stage's fingerprinted output cache, or None when inapplicable."""
        if not getattr(stage, "cache_output", False):
            return None
        fingerprint = stage.fingerprint(ctx, value)
        if fingerprint is None:
            return None
        return ctx.fingerprinted(
            fingerprint,
            scope=STAGE_CACHE_SCOPE,
            what="stage checkpoint",
            described="configuration",
        )
