"""Paper-workload benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload table1-detect --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout: the program is ``src/repro``,
run from source. Set-up makes the workload's inputs from the seed
(three times; ``setup_s`` is the median). The timed phase then repeats
the workload's operation, closed loop, until ``--seconds`` have passed
and at least two operations ran. Every operation is checked; a failed
check counts it as failed.

``--trace 0`` reports the end-to-end metrics, medians over operations,
with times in reference-host seconds (``hostspeed.py``).
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of the traced ones (``tracer.py``), with
``trace.overhead_frac`` from the pairs. The last stdout line is the
result JSON; the line before it is the host and thread fingerprint.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hostspeed import SpeedProbe
from tracer import LAYERS
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench-work")
SETUP_REPEATS = 3
MIN_OPS = 2
# A run must end within 180 s: calls still running at this point after
# the run started are killed, and fail their operation.
RUN_LIMIT_S = 170.0
COVERAGE_FLOOR = 0.9
QUALITY = ("f1_pairwise", "knn_accuracy", "auc")
# Each program process runs one BLAS thread, so two Hogwild workers
# never oversubscribe two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Call:
    label: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr_tail: str
    trace: dict | None
    # Reference-host seconds per measured second while the call ran
    # (hostspeed.py); 1.0 when the host's speed was not probed.
    scale: float = 1.0


class Bench:
    """Spawns program calls for one workload run and measures each.

    With a ``probe``, each call's time is also read in reference-host
    seconds. ``pin_cpu`` pins every call (a single-process program) to
    that CPU, and the probe samples the same CPU; otherwise the probe
    cycles over all CPUs the benchmark may use.
    """

    def __init__(self, workdir: Path, seed: int, probe: SpeedProbe | None,
                 pin_cpu: int | None) -> None:
        self.dir = workdir
        self.seed = seed
        self.probe = probe
        self.pin_cpu = pin_cpu
        if probe is not None and pin_cpu is not None:
            probe.follow([pin_cpu])
        self.log: list[Call] = []  # every program call, in order
        self.kill_at = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p
        )
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["TMPDIR"] = str(workdir.resolve())
        self._calls = 0

    def path(self, name: str) -> Path:
        return self.dir / name

    def call(self, mode: str, args: list, *, trace: bool = False,
             result: Path | None = None, label: str = "") -> Call:
        self._calls += 1
        stem = self.path(f"call{self._calls}")
        argv = [sys.executable, str(HERE / "child.py")]
        trace_out = stem.with_suffix(".trace.json")
        if result is not None:
            argv += ["--result", str(result)]
        spawn = time.perf_counter()
        if trace:
            argv += ["--trace-out", str(trace_out), "--spawn", repr(spawn)]
        argv += [mode, *args]
        with open(stem.with_suffix(".out"), "w+") as out, open(stem.with_suffix(".err"), "w+") as err:
            # A session of its own, so pool workers the call leaves behind
            # can be killed as a group.
            proc = subprocess.Popen(argv, env=self.env, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, start_new_session=True)
            if self.pin_cpu is not None:
                _pin(proc.pid, self.pin_cpu)
            rc, rusage = _wait(proc, max(self.kill_at - spawn, 1.0))
            end = time.perf_counter()
            wall = end - spawn
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        trace_data = json.loads(trace_out.read_text()) if trace and trace_out.exists() else None
        call = Call(
            label=label,
            rc=rc,
            wall_s=wall,
            cpu_s=rusage.ru_utime + rusage.ru_stime,
            rss_mb=rusage.ru_maxrss / 1024.0,  # KiB on Linux
            stdout=stdout,
            stderr_tail=stderr.strip()[-400:],
            trace=trace_data,
            scale=self.probe.scale(spawn, end) if self.probe else 1.0,
        )
        self.log.append(call)
        return call


def _pin(pid: int, cpu: int) -> None:
    # Right after the spawn, before the program imports anything; the
    # processes it starts inherit the mask.
    try:
        os.sched_setaffinity(pid, {cpu})
    except ProcessLookupError:
        pass


def _wait(proc, timeout_s: float):
    """Wait for ``proc``; return its exit code and the rusage of its tree."""
    timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
    timer.start()
    try:
        _pid, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    _reap_orphans()
    return proc.returncode, rusage


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so they can be waited for."""
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    # Only adopted orphans remain as children here; each was SIGKILLed
    # with its group, so this wait is short.
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def fingerprint() -> dict:
    import scipy

    def blas(config) -> str:
        try:
            deps = config(mode="dicts")["Build Dependencies"]
            return str(deps["blas"].get("version"))
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config),
        "scipy_openblas": blas(scipy.show_config),
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src/repro").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class DigestLedger:
    """Output digests of serial workloads, per source tree, host and seed.

    Runs of one commit at one seed must produce identical bytes: a
    mismatch, within a run or against an earlier run in this checkout,
    fails the operation.
    """

    def __init__(self, path: Path, key: str) -> None:
        self.path = path
        self.key = key
        self.first: str | None = None

    def check(self, digest: str | None) -> str | None:
        if digest is None:
            return "no output digest"
        if self.first is None:
            self.first = digest
            stored = self._load().get(self.key)
            if stored is None:
                self._store(digest)
            elif stored != digest:
                return f"output digest {digest[:12]} differs from earlier run's {stored[:12]}"
        elif digest != self.first:
            return f"output digest {digest[:12]} differs from this run's {self.first[:12]}"
        return None

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def _store(self, digest: str) -> None:
        data = self._load()
        data[self.key] = digest
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def check_trace(workload, op: Op, coverage_floor: float) -> dict:
    """Check the traced calls of ``op``; return its layer record."""
    merged = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for name in LAYERS}
    counts: dict[str, int] = {}
    covered = startup = tracer_s = 0.0
    for call in op.calls:
        trace = call.trace
        if trace is None:
            op.errors.append(f"{call.label}: no trace written")
            return {}
        for name, entry in trace["layers"].items():
            for key in entry:
                merged[name][key] += entry[key]
        for name, amount in trace["counts"].items():
            counts[name] = counts.get(name, 0) + amount
        tracer_s += trace["tracer_s"]
        startup += trace["startup_s"] or 0.0
        covered += (trace["startup_s"] or 0.0) + trace["top_level_s"]
        if trace["stale_bindings"]:
            op.errors.append(f"untraced bindings: {trace['stale_bindings']}")
    for layer in workload.expected_layers:
        if merged[layer]["calls"] == 0:
            op.errors.append(f"expected layer {layer} recorded no calls")
    wall = op.wall_s - tracer_s
    coverage = covered / wall
    if coverage < coverage_floor:
        op.errors.append(f"top-level spans cover {coverage:.3f} of wall time")
    return {"layers": merged, "counts": counts, "startup_s": startup,
            "coverage": coverage, "unaccounted_s": wall - covered}


def layer_metrics(record: dict) -> dict:
    """Per-layer metric values of one traced operation."""
    layers, counts = record["layers"], record["counts"]

    def self_s(layer):
        return layers[layer]["self_s"]

    def rate(amount, layer):
        total = layers[layer]["total_s"]
        return amount / total if total > 0 else 0.0

    examples = counts.get("corpus.examples", 0)
    epochs = counts.get("core.epochs_run", 0)
    tokens = counts.get("walks.tokens", 0)
    return {
        "walks.generate_s": self_s("walks.generate"),
        "walks.tokens": tokens,
        "walks.tokens_per_s": rate(tokens, "walks.generate"),
        "corpus.context_s": self_s("corpus.context"),
        "corpus.examples": examples,
        "core.train_s": self_s("core.train"),
        "core.epochs_run": epochs,
        "core.examples_per_s": rate(examples * epochs, "core.train"),
        "core.batch_step_s": self_s("core.batch_step"),
        "core.batch_steps": layers["core.batch_step"]["calls"],
        "core.scatter_add_s": self_s("core.scatter_add"),
        "core.scatter_add_calls": layers["core.scatter_add"]["calls"],
        "core.scatter_add_csr_calls": counts.get("core.scatter_add_csr_calls", 0),
        "core.context_mean_s": self_s("core.context_mean"),
        "core.negative_draws_s": self_s("core.negative_draws"),
        "core.kernel_bytes": counts.get("core.kernel_bytes", 0),
        "parallel.hogwild_s": self_s("parallel.hogwild"),
        "parallel.map_s": self_s("parallel.map"),
        "ml.kmeans_s": self_s("ml.kmeans"),
        "ml.kmeans_restarts": counts.get("ml.kmeans_restarts", 0),
        "ml.knn_predict_s": self_s("ml.knn_predict"),
        "ml.knn_queries": counts.get("ml.knn_queries", 0),
        "ml.logreg_fit_s": self_s("ml.logreg_fit"),
        "tasks.edge_split_s": self_s("tasks.edge_split"),
        "graph.read_s": self_s("graph.read"),
        "cli.startup_s": record["startup_s"],
        "trace.coverage": record["coverage"],
        "trace.unaccounted_s": record["unaccounted_s"],
    }


def load_metric_spec() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def run(args) -> dict:
    workload = WORKLOADS[args.workload](toy=args.toy)
    spec = load_metric_spec()
    host = fingerprint()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    # End-to-end (untraced) runs read in reference-host seconds.
    probe = None if args.trace else SpeedProbe()
    try:
        if probe is not None:
            probe.start()
        pin_cpu = max(os.sched_getaffinity(0)) if workload.serial else None
        bench = Bench(workdir, args.seed, probe, pin_cpu)
        setup_times, raw_setup_times, inputs = [], [], set()
        for _ in range(SETUP_REPEATS):
            first = len(bench.log)
            files = workload.setup(bench)
            setup_times.append(sum(c.wall_s * c.scale for c in bench.log[first:]))
            raw_setup_times.append(sum(c.wall_s for c in bench.log[first:]))
            inputs.add(hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest())
        if len(inputs) != 1:
            raise RuntimeError("set-up made different inputs from one seed")

        host_key = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()
        ledger = DigestLedger(
            WORK / "digests.json",
            f"{workload.name}|{json.dumps(workload.p, sort_keys=True)}|seed={args.seed}"
            f"|src={source_digest()[:16]}|host={host_key[:16]}",
        )
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while len(plain) + len(traced) < MIN_OPS or time.perf_counter() < deadline:
            op = workload.operate(bench, trace=False)
            plain.append(op)
            if args.trace:
                op = workload.operate(bench, trace=True)
                # Toy runs are mostly interpreter start and exit, which
                # no layer covers, so only full-scale runs gate coverage.
                floor = 0.0 if args.toy else COVERAGE_FLOOR
                op.record = check_trace(workload, op, floor) if not op.errors else {}
                traced.append(op)
        ops = plain + traced
        for op in ops:
            if workload.serial and not op.errors:
                problem = ledger.check(op.digest)
                if problem:
                    op.errors.append(problem)
        for kind, group in (("untraced", plain), ("traced", traced)):
            for i, op in enumerate(group):
                print(f"perfbench: {kind} operation {i}: wall {op.wall_s:.3f}s "
                      f"cpu {op.cpu_s:.3f}s (measured: wall {op.raw_wall_s:.3f}s "
                      f"cpu {op.raw_cpu_s:.3f}s)"
                      + "".join(f" {name} {value:.4f}" for name, value in op.quality.items())
                      + (f" FAILED: {'; '.join(op.errors)}" if op.errors else ""),
                      file=sys.stderr)
        failed = [op for op in ops if op.errors]

        if args.trace:
            per_op = [layer_metrics(op.record) for op in traced if op.record]
            metrics = {
                name: median(m[name] for m in per_op) for name in spec["per_layer"]
                if name != "trace.overhead_frac"
            }
            metrics["trace.overhead_frac"] = (
                median(op.wall_s for op in traced) / median(op.wall_s for op in plain) - 1.0
            )
            units = spec["per_layer"]
        else:
            scales = [c.scale for c in bench.log]
            print(f"perfbench: host speed {min(scales):.3f}–{max(scales):.3f} of the "
                  f"reference over {len(probe.samples)} probes; measured setup "
                  f"{median(raw_setup_times):.3f}s", file=sys.stderr)
            metrics = {
                "wall_s": median(op.wall_s for op in plain),
                "setup_s": median(setup_times),
                "cpu_s": median(op.cpu_s for op in plain),
                "peak_rss_mb": median(op.peak_rss_mb for op in plain),
            }
            for name in QUALITY:
                values = [op.quality[name] for op in plain if name in op.quality]
                # 1.0 marks a quality metric this workload has no output for.
                metrics[name] = median(values) if values else 1.0
            units = spec["end_to_end"]
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        print("perfbench fingerprint: " + json.dumps(host, sort_keys=True))
        return {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-scale inputs (smoke test only; not comparable)")
    args = parser.parse_args(argv)
    if not Path("src/repro/cli.py").is_file():
        print("perfbench: run from the root of a source checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    _become_subreaper()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
