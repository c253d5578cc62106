"""Staged pipeline runtime: Stage / Pipeline / ExecutionContext.

The composable execution layer the ROADMAP's production north star needs:
the walks → train → tasks flow is a :class:`Pipeline` of
:class:`~repro.pipeline.stage.Stage` objects, and every runtime concern
(checkpoint/resume, workers, supervision, chaos, telemetry, seeds)
travels in one :class:`~repro.context.ExecutionContext` instead of
per-function keyword arguments. See docs/architecture.md.
"""

from repro.context import ExecutionContext
from repro.pipeline.runner import Pipeline, PipelineResult, StageReport
from repro.pipeline.stage import PipelineStage, Stage, StageError
from repro.pipeline.stages import (
    DetectStage,
    LayoutStage,
    PredictStage,
    TrainStage,
    WalkStage,
)
from repro.resilience.checkpoint import (
    FingerprintedCheckpoints,
    FingerprintMismatch,
)

__all__ = [
    "ExecutionContext",
    "FingerprintMismatch",
    "FingerprintedCheckpoints",
    "Pipeline",
    "PipelineResult",
    "PipelineStage",
    "Stage",
    "StageError",
    "StageReport",
    "DetectStage",
    "LayoutStage",
    "PredictStage",
    "TrainStage",
    "WalkStage",
]
