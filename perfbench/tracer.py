"""In-memory layer tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers from the
outside: no program file changes. Each call records one span (layer,
parent span, start, end); a layer's self time is its spans' durations
minus the parts covered by child spans. Spans stay in memory and are
summarised once, when the traced process ends.

Many functions are imported by name (``from repro.walks.engine import
generate_walks``), so patching only the defining module would miss
those callers. :func:`install` therefore imports every ``repro`` module
first and replaces *every* ``repro.*`` binding of each traced function;
:func:`stale_bindings` re-checks that nothing still points at an
original afterwards. Wrappers record only in the process that installed
them: forked pool and Hogwild workers inherit the patched functions but
call straight through.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable

# A count probe maps (args, kwargs, result) of one call to
# (counter name, amount) pairs.
CountProbe = Callable[[tuple, dict, object], list]


@dataclass(frozen=True)
class Probe:
    """One traced function: where it is defined and what it counts."""

    layer: str
    module: str
    attr: str  # "func" or "Class.method"
    count: CountProbe | None = None


def _tokens(args, kwargs, corpus):
    return [("walks.tokens", int(corpus.num_tokens))]


def _examples(args, kwargs, arrays):
    return [("corpus.examples", int(arrays[0].shape[0]))]


def _epochs(args, kwargs, result):
    return [("core.epochs_run", int(result.epochs_run))]


def _batch_bytes(args, kwargs, result):
    # Output-row gather: (batch, 1 + negatives, dim) rows of w_out.
    objective, centers = args[0], args[1]
    rows = centers.shape[0] * (1 + objective.negatives)
    return [("core.kernel_bytes", rows * objective.dim * objective.w_out.itemsize)]


def _context_bytes(args, kwargs, result):
    # Gather of every context slot, padding included: (batch, 2w, dim).
    w_in, contexts = args[0], args[1]
    return [("core.kernel_bytes", contexts.size * w_in.shape[1] * w_in.itemsize)]


def _scatter(args, kwargs, result):
    import numpy as np

    target, idx, rows = args[0], args[1], args[2]
    duplicated = idx.size > 0 and int(np.bincount(idx).max()) > 1
    # Rows read, plus a read-modify-write of each addressed target row.
    moved = rows.nbytes + 2 * idx.size * target.shape[1] * target.itemsize
    return [
        ("core.scatter_add_csr_calls", int(duplicated)),
        ("core.kernel_bytes", int(moved)),
    ]


def _restarts(args, kwargs, result):
    return [("ml.kmeans_restarts", int(result.restarts))]


def _queries(args, kwargs, result):
    return [("ml.knn_queries", int(args[1].shape[0]))]


PROBES = (
    Probe("graph.read", "repro.graph.io", "read_edge_list"),
    Probe("walks.generate", "repro.walks.engine", "generate_walks", _tokens),
    Probe("corpus.context", "repro.walks.corpus", "WalkCorpus.context_arrays", _examples),
    Probe("core.train", "repro.core.trainer", "train_embeddings", _epochs),
    Probe("core.batch_step", "repro.core.cbow", "CBOWNegativeSampling.batch_step", _batch_bytes),
    Probe("core.batch_step", "repro.core.fused", "FusedCBOWNegativeSampling.batch_step"),
    Probe("core.scatter_add", "repro.core._math", "scatter_add_rows", _scatter),
    Probe("core.context_mean", "repro.core._math", "masked_context_mean", _context_bytes),
    Probe("core.negative_draws", "repro.core.negative", "NegativeSampler.sample"),
    Probe("parallel.hogwild", "repro.parallel.hogwild", "train_hogwild"),
    Probe("parallel.map", "repro.parallel.pool", "parallel_map"),
    Probe("ml.kmeans", "repro.ml.kmeans", "KMeans.fit", _restarts),
    Probe("ml.knn_predict", "repro.ml.knn", "KNNClassifier.predict", _queries),
    Probe("ml.logreg_fit", "repro.ml.logreg", "LogisticRegression.fit"),
    Probe("tasks.edge_split", "repro.tasks.link_prediction", "train_test_edge_split"),
)

LAYERS = tuple(dict.fromkeys(p.layer for p in PROBES))


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.layers: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        # Seconds spent in count probes, charged to the span that was
        # open while they ran so they never inflate its self time.
        self.probe_s: dict[int, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        # (probe, original function) of every wrapped function
        self.bindings: list[tuple[Probe, object]] = []

    def wrap(self, layer: str, fn: Callable, count: CountProbe | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.layers)
            tracer.layers.append(layer)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
            if count is not None:
                t0 = time.perf_counter()
                for name, amount in count(args, kwargs, result):
                    tracer.counts[name] = tracer.counts.get(name, 0) + amount
                if stack:
                    tracer.probe_s[stack[-1]] = (
                        tracer.probe_s.get(stack[-1], 0.0) + time.perf_counter() - t0
                    )
            return result

        return traced

    def summary(self) -> dict:
        """Self seconds, inclusive seconds and calls per layer, plus the
        top-level spans' total and the first span's start."""
        n = len(self.layers)
        covered_by_children = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                covered_by_children[parent] += self.ends[i] - self.starts[i]
        layers = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for name in LAYERS}
        top_level_s = 0.0
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            entry = layers[self.layers[i]]
            entry["calls"] += 1
            entry["self_s"] += duration - covered_by_children[i] - self.probe_s.get(i, 0.0)
            # Recursion would count nested spans twice; no traced
            # function calls another binding of its own layer.
            entry["total_s"] += duration
            if self.parents[i] < 0:
                top_level_s += duration
        return {
            "layers": layers,
            "counts": dict(self.counts),
            "top_level_s": top_level_s,
            "first_start": self.starts[0] if n else None,
        }


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> None:
    """Import every ``repro`` module, then wrap every binding of each probe."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # __main__ would run the CLI
            importlib.import_module(info.name)
    modules = _repro_modules()
    for probe in PROBES:
        owner = importlib.import_module(probe.module)
        if "." in probe.attr:
            cls_name, method = probe.attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(probe.layer, original, probe.count))
        else:
            original = getattr(owner, probe.attr)
            wrapper = tracer.wrap(probe.layer, original, probe.count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
        tracer.bindings.append((probe, original))


def stale_bindings(tracer: Tracer) -> list[str]:
    """``repro.*`` names that still point at an unwrapped original."""
    originals = {id(original) for _probe, original in tracer.bindings}
    stale = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if id(value) in originals:
                stale.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for member_name, member in vars(value).items():
                    if id(member) in originals:
                        stale.append(f"{module.__name__}.{name}.{member_name}")
    return sorted(set(stale))
