"""The four paper workloads: their inputs, their calls and their checks.

Each workload makes its inputs in ``setup`` (from the seed only) and
runs one closed-loop operation in ``operate``: the program calls of one
job, one after the other, each in a fresh interpreter. ``operate``
checks the outputs and returns an :class:`Op`; any error it lists makes
the operation count as failed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Op:
    """One operation: its program calls, checked outputs and digest."""

    calls: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    digest: str | None = None
    errors: list = field(default_factory=list)
    # Layer record of a traced operation (run.check_trace).
    record: dict = field(default_factory=dict)

    def add(self, call) -> bool:
        self.calls.append(call)
        if call.rc != 0:
            self.errors.append(f"{call.label} exited {call.rc}: {call.stderr_tail}")
        return call.rc == 0

    # Times in reference-host seconds (run.Bench); the raw_ ones as measured.
    @property
    def wall_s(self) -> float:
        return sum(c.wall_s * c.scale for c in self.calls)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s * c.scale for c in self.calls)

    @property
    def raw_wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def raw_cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.calls)

    @property
    def peak_rss_mb(self) -> float:
        return max((c.rss_mb for c in self.calls), default=0.0)


def _sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _parse(pattern: str, text: str, what: str, op: Op) -> float | None:
    match = re.search(pattern, text)
    if match is None:
        op.errors.append(f"no {what} in output: {text.strip()[-200:]!r}")
        return None
    return float(match.group(1))


def _pairwise_f1(truth: np.ndarray, pred: np.ndarray) -> float:
    """Harmonic mean of the paper's pairwise precision and recall."""
    _, t = np.unique(truth, return_inverse=True)
    _, p = np.unique(pred, return_inverse=True)
    table = np.zeros((t.max() + 1, p.max() + 1), dtype=np.int64)
    np.add.at(table, (t, p), 1)

    def pairs(x):
        return float((x * (x - 1) // 2).sum())

    together = pairs(table)
    precision = together / pairs(table.sum(axis=0))
    recall = together / pairs(table.sum(axis=1))
    return 2 * precision * recall / (precision + recall)


class Workload:
    """One workload; ``FULL`` and ``TOY`` hold its parameters at the
    benchmark's scale and at smoke-test scale."""

    name = ""
    # One process, bitwise reproducible: its digest is compared, and
    # its calls run pinned to one CPU.
    serial = True
    expected_layers: tuple = ()
    FULL: dict = {}
    TOY: dict = {}

    def __init__(self, toy: bool) -> None:
        self.p = self.TOY if toy else self.FULL

    def setup(self, bench) -> list[Path]:
        """Make the inputs; returns the files whose bytes define them."""
        raise NotImplementedError

    def operate(self, bench, trace: bool) -> Op:
        raise NotImplementedError

    def _generate(self, bench, kind: str, n: int, extra: list, labels: bool) -> list[Path]:
        graph = bench.path("graph.txt")
        args = ["generate", "-o", str(graph), "--kind", kind, "--n", str(n), *extra]
        out = [graph]
        if labels:
            args += ["--labels", str(bench.path("labels.txt"))]
            out.append(bench.path("labels.txt"))
        call = bench.call("cli", [*args, "--seed", str(bench.seed)], label="generate")
        if call.rc != 0:
            raise RuntimeError(f"setup failed ({call.rc}): {call.stderr_tail}")
        return out


class _CommunityInput(Workload):
    """Inputs from ``repro generate --kind communities`` (α = 0.5)."""

    labels = True

    def setup(self, bench) -> list[Path]:
        p = self.p
        return self._generate(
            bench,
            "communities",
            p["n"],
            ["--groups", str(p["groups"]), "--alpha", "0.5", "--inter-edges", str(p["inter"])],
            labels=self.labels,
        )

    def _walk_flags(self, bench) -> list[str]:
        p = self.p
        return [
            "--dim", str(p["dim"]), "--walks", str(p["walks"]),
            "--length", str(p["length"]), "--epochs", str(p["epochs"]),
            "--seed", str(bench.seed),
        ]


class Table1Detect(_CommunityInput):
    name = "table1-detect"
    FULL = dict(n=1000, groups=10, inter=200, dim=10, walks=10, length=80, epochs=1,
                restarts=100, f1_floor=0.8)
    TOY = dict(n=200, groups=4, inter=20, dim=8, walks=8, length=40, epochs=3,
               restarts=5, f1_floor=0.5)
    expected_layers = ("graph.read", "walks.generate", "corpus.context", "core.train",
                       "core.batch_step", "core.scatter_add", "core.context_mean",
                       "core.negative_draws", "ml.kmeans")

    def operate(self, bench, trace: bool) -> Op:
        p, op = self.p, Op()
        out = bench.path("communities.tsv")
        args = ["detect", str(bench.path("graph.txt")), "-k", str(p["groups"]),
                "-o", str(out), "--restarts", str(p["restarts"]), *self._walk_flags(bench)]
        if not op.add(bench.call("cli", args, trace=trace, label="detect")):
            return op
        table = np.loadtxt(out, skiprows=1, dtype=np.int64, ndmin=2)
        truth = np.loadtxt(bench.path("labels.txt"), dtype=np.int64)
        if table.shape != (p["n"], 2) or not np.array_equal(table[:, 0], np.arange(p["n"])):
            op.errors.append(f"detect wrote {table.shape[0]} rows, expected {p['n']}")
            return op
        if set(np.unique(table[:, 1])) != set(range(p["groups"])):
            op.errors.append(f"detect labels are not 0..{p['groups'] - 1}")
            return op
        f1 = _pairwise_f1(truth, table[:, 1])
        op.quality["f1_pairwise"] = f1
        if f1 < p["f1_floor"]:
            op.errors.append(f"f1_pairwise {f1:.4f} below floor {p['f1_floor']}")
        op.digest = _sha256(out)
        return op


class LinkPred(_CommunityInput):
    name = "linkpred"
    FULL = dict(n=1000, groups=10, inter=200, dim=50, walks=10, length=80, epochs=1,
                auc_floor=0.85)
    TOY = dict(n=200, groups=4, inter=20, dim=8, walks=8, length=40, epochs=3,
               auc_floor=0.6)
    expected_layers = ("graph.read", "tasks.edge_split", "walks.generate",
                       "corpus.context", "core.train", "core.batch_step",
                       "core.scatter_add", "core.context_mean", "core.negative_draws",
                       "ml.logreg_fit")

    def operate(self, bench, trace: bool) -> Op:
        op = Op()
        args = ["linkpred", str(bench.path("graph.txt")), *self._walk_flags(bench)]
        call = bench.call("cli", args, trace=trace, label="linkpred")
        if not op.add(call):
            return op
        auc = _parse(r"ROC AUC ([0-9.]+)", call.stdout, "ROC AUC", op)
        if auc is not None:
            op.quality["auc"] = auc
            if auc < self.p["auc_floor"]:
                op.errors.append(f"auc {auc:.4f} below floor {self.p['auc_floor']}")
        # The result line carries no timings, so it is the output digest.
        op.digest = hashlib.sha256(call.stdout.encode()).hexdigest()
        return op


class FlightsHogwild(Workload):
    name = "flights-hogwild"
    serial = False  # Hogwild races: outputs differ run to run
    FULL = dict(n=1500, dim=50, epochs=2, workers=2, k=3, folds=10, repeats=10,
                knn_floor=0.3)
    TOY = dict(n=200, dim=8, epochs=1, workers=2, k=3, folds=3, repeats=2,
               knn_floor=0.05)
    expected_layers = ("graph.read", "walks.generate", "parallel.map", "corpus.context",
                       "core.train", "parallel.hogwild", "ml.knn_predict")

    def setup(self, bench) -> list[Path]:
        return self._generate(bench, "flights", self.p["n"], [], labels=True)

    def operate(self, bench, trace: bool) -> Op:
        p, op = self.p, Op()
        vectors = bench.path("vectors.npz")
        seed = ["--seed", str(bench.seed)]
        embed = ["embed", str(bench.path("graph.txt")), "-o", str(vectors), "--directed",
                 "--dim", str(p["dim"]), "--epochs", str(p["epochs"]),
                 "--train-workers", str(p["workers"]), "--walk-workers", str(p["workers"]),
                 *seed]
        if not op.add(bench.call("cli", embed, trace=trace, label="embed")):
            return op
        with np.load(vectors) as data:
            vec = data["vectors"]
        if vec.shape != (p["n"], p["dim"]) or not np.isfinite(vec).all():
            op.errors.append(f"vectors {vec.shape} not ({p['n']}, {p['dim']}) and finite")
            return op
        predict = ["predict", str(vectors), str(bench.path("labels.txt")),
                   "-k", str(p["k"]), "--folds", str(p["folds"]),
                   "--repeats", str(p["repeats"]), *seed]
        call = bench.call("cli", predict, trace=trace, label="predict")
        if not op.add(call):
            return op
        acc = _parse(r"accuracy: ([0-9.]+)", call.stdout, "k-NN accuracy", op)
        if acc is not None:
            op.quality["knn_accuracy"] = acc
            if acc < p["knn_floor"]:
                op.errors.append(f"knn_accuracy {acc:.4f} below floor {p['knn_floor']}")
        return op


class WalkCorpusWorkload(_CommunityInput):
    name = "walk-corpus"
    labels = False
    FULL = dict(n=5000, groups=50, inter=1000, walks=10, length=80, window=5)
    TOY = dict(n=200, groups=4, inter=20, walks=3, length=10, window=5)
    expected_layers = ("graph.read", "walks.generate", "corpus.context")

    def operate(self, bench, trace: bool) -> Op:
        p, op = self.p, Op()
        result = bench.path("walk-corpus.json")
        args = [str(bench.path("graph.txt")), str(bench.seed),
                str(p["walks"]), str(p["length"]), str(p["window"])]
        call = bench.call("walk-corpus", args, trace=trace, result=result, label="walk-corpus")
        if not op.add(call):
            return op
        out = json.loads(result.read_text())
        # The child's check of its own output is not part of the timed phase.
        call.wall_s -= out["verify_s"]
        call.cpu_s -= out["verify_cpu_s"]
        op.errors.extend(out["errors"])
        tokens = p["n"] * p["walks"] * p["length"]
        if out["tokens"] != tokens or out["examples"] != tokens:
            op.errors.append(
                f"{out['tokens']} tokens / {out['examples']} examples, expected {tokens}"
            )
        op.digest = out["digest"]
        return op


WORKLOADS = {w.name: w for w in (Table1Detect, FlightsHogwild, LinkPred, WalkCorpusWorkload)}
