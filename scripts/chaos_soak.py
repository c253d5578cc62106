#!/usr/bin/env python
"""Randomized chaos soak: every fault kind, every seed, one invariant.

For each ``--seeds`` seed a fresh graph/config is drawn and seven fault
scenarios run against it. The single invariant: **every run either
completes, or is interrupted and resumes to a result bitwise-identical
to an uninterrupted reference run** — and no scenario may leak a
``/dev/shm`` segment or a ``*.tmp.*`` file.

Subprocess scenarios (a real ``python -m repro embed`` per run):

- **kill** — SIGKILL mid-training (OOM-killer analog: no handler, no
  atexit). ``repro runs list`` must fold the dead run to ``orphaned``
  and sweep its debris; ``repro runs resume --latest`` must finish the
  job bitwise.
- **signal** — SIGTERM mid-training → exit 130 + ``interrupted``
  manifest; ``repro runs resume --latest`` finishes bitwise.
- **deadline** — ``--deadline 0`` → exit 124 with
  ``interrupt_reason: deadline``; an explicit ``--resume`` run (without
  the deadline) finishes bitwise.
- **mem_pressure** — the run is given a memory budget *below its own
  baseline RSS*: the pressure watchdog hard-breaches, walks the
  degradation ladder to the cancel rung, and the run exits 130 with
  ``interrupt_reason: resource_pressure``. ``repro runs resume --latest
  --memory-budget <bigger>`` — the raised-ceiling override — recovers
  it bitwise.

In-process scenarios (fault injection inside this interpreter):

- **hang** — a supervised Hogwild worker sleeps forever; the watchdog
  respawns it and all epochs complete.
- **corrupt** — a finished trainer checkpoint is torn on disk; resume
  quarantines it and reproduces the clean result bitwise.
- **enospc** — the first checkpoint fsync raises ``OSError(ENOSPC)``;
  the reclaim-and-retry path must finish the run bitwise with
  ``checkpoint.enospc`` recorded.

Manifests and event streams land in ``--output-dir`` for CI upload and
``repro report`` validation.

Usage:
    PYTHONPATH=src python scripts/chaos_soak.py --seeds 3 --output-dir soak_artifacts
"""

import argparse
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.trainer import TrainConfig, train_embeddings
from repro.graph.generators import planted_partition
from repro.graph.io import write_edge_list
from repro.obs.manifest import load_manifest
from repro.obs.recorder import ObsConfig, session
from repro.parallel.hogwild import (
    hogwild_epoch_task,
    train_hogwild,
)
from repro.pipeline import ExecutionContext
from repro.resilience.chaos import FaultInjector
from repro.resilience.supervisor import SupervisorConfig
from repro.walks.engine import RandomWalkConfig, generate_walks

SUPERVISED = SupervisorConfig(
    worker_deadline=2.0, max_respawns=5, poll_interval=0.05
)


def _env():
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    return env


def _shm_names():
    shm = Path("/dev/shm")
    if not shm.is_dir():  # non-Linux
        return set()
    return {p.name for p in shm.iterdir()}


def _tmp_survivors(root):
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(str(p) for p in root.rglob("*") if ".tmp." in p.name)


def _probe_baseline_rss():
    """VmRSS (bytes) of a bare interpreter with the stack imported.

    The mem_pressure scenario budgets *below* this, so the watchdog's
    very first sample is a hard breach regardless of machine or Python
    version — no tuning constant to rot.
    """
    code = (
        "import re, numpy, repro.cli\n"
        "print(re.search(r'VmRSS:\\s+(\\d+)',"
        " open('/proc/self/status').read()).group(1))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True
    )
    return int(out.stdout.strip()) * 1024


def _embed_argv(edges, out, ckpt, seed, manifest=None, extra=()):
    argv = [
        "embed", str(edges),
        "--dim", "12", "--walks", "4", "--length", "20",
        "--epochs", "32", "--seed", str(seed), "--log-level", "error",
        "-o", str(out), "--checkpoint-dir", str(ckpt),
    ]
    if manifest is not None:
        argv += ["--metrics-out", str(manifest)]
    return argv + list(extra)


def _run(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], env=_env(), **kwargs
    )


def _kill_when_checkpointed(proc, ckpt, signum, jitter):
    """Deliver ``signum`` once the first trainer checkpoint is durable."""
    trainer_ckpt = Path(ckpt) / "trainer.ckpt.npz"
    give_up = time.monotonic() + 120
    while (
        not trainer_ckpt.exists()
        and proc.poll() is None
        and time.monotonic() < give_up
    ):
        time.sleep(0.005)
    if proc.poll() is not None:
        return f"run finished (exit {proc.returncode}) before the fault landed"
    time.sleep(jitter)
    if proc.poll() is None:
        proc.send_signal(signum)
    try:
        proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        return "run did not wind down after the signal"
    return None


def _assert_bitwise(ref_out, out, label, failures):
    try:
        with np.load(ref_out) as ref, np.load(out) as res:
            if not np.array_equal(ref["vectors"], res["vectors"]):
                failures.append(f"{label}: result differs from reference")
    except (OSError, KeyError) as exc:
        failures.append(f"{label}: unreadable output ({exc!r})")


def _check_no_debris(label, ckpt, shm_before, failures):
    leaked = _shm_names() - shm_before
    if leaked:
        failures.append(f"{label}: leaked /dev/shm segments {sorted(leaked)}")
    survivors = _tmp_survivors(ckpt)
    if survivors:
        failures.append(f"{label}: tmp files survived: {survivors}")


def _kill_scenario(seed, edges, ref_out, scratch, out_dir, rng):
    """SIGKILL mid-checkpoint → sweep → `runs resume --latest` → bitwise."""
    failures = []
    label = f"seed{seed}.kill"
    ckpt = scratch / f"kill{seed}"
    out = scratch / f"kill{seed}.npz"
    shm_before = _shm_names()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"]
        + _embed_argv(edges, out, ckpt, seed),
        env=_env(),
    )
    err = _kill_when_checkpointed(
        proc, ckpt, signal.SIGKILL, jitter=float(rng.uniform(0, 0.05))
    )
    if err:
        return [f"{label}: {err}"]

    listing = _run(
        ["runs", "list", str(ckpt)], capture_output=True, text=True
    )
    if listing.returncode != 0 or "orphaned" not in listing.stdout:
        failures.append(f"{label}: sweep did not orphan the killed run")
    rc = _run(["runs", "resume", str(ckpt), "--latest"]).returncode
    if rc != 0:
        failures.append(f"{label}: runs resume --latest exited {rc}")
    else:
        _assert_bitwise(ref_out, out, label, failures)
    _check_no_debris(label, ckpt, shm_before, failures)
    print(f"[chaos-soak] {label}: resumed={'ok' if not failures else 'FAIL'}")
    return failures


def _signal_scenario(seed, edges, ref_out, scratch, out_dir, rng):
    """SIGTERM → 130 + interrupted manifest → resume bitwise."""
    failures = []
    label = f"seed{seed}.signal"
    ckpt = scratch / f"signal{seed}"
    out = scratch / f"signal{seed}.npz"
    manifest = out_dir / f"seed{seed}.signal.manifest.json"
    shm_before = _shm_names()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"]
        + _embed_argv(edges, out, ckpt, seed, manifest=manifest),
        env=_env(),
    )
    err = _kill_when_checkpointed(
        proc, ckpt, signal.SIGTERM, jitter=float(rng.uniform(0, 0.05))
    )
    if err:
        return [f"{label}: {err}"]
    if proc.returncode != 130:
        failures.append(f"{label}: expected exit 130, got {proc.returncode}")
    recorded = load_manifest(manifest)
    if recorded["status"] != "interrupted":
        failures.append(f"{label}: manifest status {recorded['status']!r}")
    rc = _run(["runs", "resume", str(ckpt), "--latest"]).returncode
    if rc != 0:
        failures.append(f"{label}: runs resume --latest exited {rc}")
    else:
        _assert_bitwise(ref_out, out, label, failures)
    _check_no_debris(label, ckpt, shm_before, failures)
    print(f"[chaos-soak] {label}: exit=130 resumed={'ok' if not failures else 'FAIL'}")
    return failures


def _deadline_scenario(seed, edges, ref_out, scratch, out_dir, rng):
    """--deadline 0 → 124 → explicit --resume run finishes bitwise."""
    failures = []
    label = f"seed{seed}.deadline"
    ckpt = scratch / f"deadline{seed}"
    out = scratch / f"deadline{seed}.npz"
    manifest = out_dir / f"seed{seed}.deadline.manifest.json"
    shm_before = _shm_names()
    rc = _run(
        _embed_argv(
            edges, out, ckpt, seed, manifest=manifest, extra=["--deadline", "0"]
        )
    ).returncode
    if rc != 124:
        failures.append(f"{label}: expected exit 124, got {rc}")
    recorded = load_manifest(manifest)
    if recorded.get("interrupt_reason") != "deadline":
        failures.append(
            f"{label}: interrupt_reason {recorded.get('interrupt_reason')!r}"
        )
    rc = _run(
        _embed_argv(edges, out, ckpt, seed, extra=["--resume"])
    ).returncode
    if rc != 0:
        failures.append(f"{label}: resume exited {rc}")
    else:
        _assert_bitwise(ref_out, out, label, failures)
    _check_no_debris(label, ckpt, shm_before, failures)
    print(f"[chaos-soak] {label}: exit=124 resumed={'ok' if not failures else 'FAIL'}")
    return failures


def _mem_pressure_scenario(
    seed, edges, ref_out, scratch, out_dir, rng, baseline_rss
):
    """Budget below baseline RSS → watchdog cancels → raised-budget resume."""
    failures = []
    label = f"seed{seed}.mem_pressure"
    ckpt = scratch / f"mem{seed}"
    out = scratch / f"mem{seed}.npz"
    manifest = out_dir / f"seed{seed}.mem_pressure.manifest.json"
    shm_before = _shm_names()
    tight = max(baseline_rss // 2, 16 * 1024 * 1024)
    rc = _run(
        _embed_argv(
            edges, out, ckpt, seed, manifest=manifest,
            extra=["--memory-budget", str(tight), "--budget-interval", "0.02"],
        )
    ).returncode
    if rc != 130:
        failures.append(f"{label}: expected exit 130, got {rc}")
    recorded = load_manifest(manifest)
    if recorded.get("interrupt_reason") != "resource_pressure":
        failures.append(
            f"{label}: interrupt_reason {recorded.get('interrupt_reason')!r}"
        )
    if not recorded.get("pressure"):
        failures.append(f"{label}: no pressure timeline in manifest")
    counters = recorded["metrics"]["counters"]
    if counters.get("guard.breaches", 0) < 1:
        failures.append(f"{label}: guard.breaches never incremented")
    rc = _run(
        [
            "runs", "resume", str(ckpt), "--latest",
            "--memory-budget", str(baseline_rss * 8),
        ]
    ).returncode
    if rc != 0:
        failures.append(f"{label}: raised-budget resume exited {rc}")
    else:
        _assert_bitwise(ref_out, out, label, failures)
    _check_no_debris(label, ckpt, shm_before, failures)
    print(
        f"[chaos-soak] {label}: exit=130 budget={tight >> 20}M "
        f"resumed={'ok' if not failures else 'FAIL'}"
    )
    return failures


def _hang_scenario(seed, corpus, scratch, out_dir):
    """Supervised Hogwild worker hangs; the watchdog respawns it."""
    failures = []
    label = f"seed{seed}.hang"
    manifest = out_dir / f"seed{seed}.hang.manifest.json"
    marker = scratch / f"hang{seed}.fired"
    injector = FaultInjector(
        hogwild_epoch_task,
        only_in_subprocess=True,
        once_marker=marker,
        hang_on_calls={1},
        hang_seconds=3600.0,
    )
    cfg = ObsConfig(log_level="error", metrics_out=str(manifest))
    shm_before = _shm_names()
    with session(cfg, run_config={"chaos": label}, stream=io.StringIO()):
        result = train_hogwild(
            corpus,
            TrainConfig(
                dim=12, epochs=3, batch_size=128, seed=seed,
                early_stop=False, workers=2, supervisor=SUPERVISED,
            ),
            context=ExecutionContext(fault_injector=lambda _fn: injector),
        )
    if not marker.exists():
        failures.append(f"{label}: fault never fired")
    if result.epochs_run != 3:
        failures.append(f"{label}: ran {result.epochs_run}/3 epochs")
    respawns = load_manifest(manifest)["metrics"]["counters"].get(
        "supervisor.respawns", 0
    )
    if respawns < 1:
        failures.append(f"{label}: no respawn recorded")
    _check_no_debris(label, scratch, shm_before, failures)
    print(f"[chaos-soak] {label}: respawns={respawns}")
    return failures


def _corrupt_scenario(seed, corpus, scratch, out_dir):
    """Torn trainer checkpoint → quarantine → bitwise-clean restart."""
    failures = []
    label = f"seed{seed}.corrupt"
    cfg = TrainConfig(dim=8, epochs=2, seed=seed, early_stop=False)
    fresh = train_embeddings(corpus, cfg)
    ckpt_dir = scratch / f"corrupt{seed}"
    train_embeddings(
        corpus, cfg, context=ExecutionContext(checkpoint_dir=ckpt_dir)
    )
    victim = ckpt_dir / "trainer.ckpt.npz"
    FaultInjector(lambda: None, corrupt_on_calls={1}, corrupt_path=victim)()
    resumed = train_embeddings(
        corpus, cfg, context=ExecutionContext(checkpoint_dir=ckpt_dir, resume=True)
    )
    quarantined = [p.name for p in ckpt_dir.iterdir() if ".corrupt." in p.name]
    if not quarantined:
        failures.append(f"{label}: checkpoint was not quarantined")
    if not np.array_equal(resumed.vectors, fresh.vectors):
        failures.append(f"{label}: restarted result differs from fresh run")
    print(f"[chaos-soak] {label}: quarantined={len(quarantined)}")
    return failures


def _enospc_scenario(seed, corpus, scratch, out_dir):
    """First checkpoint fsync hits ENOSPC; reclaim-and-retry finishes."""
    failures = []
    label = f"seed{seed}.enospc"
    manifest = out_dir / f"seed{seed}.enospc.manifest.json"
    cfg = TrainConfig(dim=8, epochs=2, seed=seed, early_stop=False)
    fresh = train_embeddings(corpus, cfg)
    ckpt_dir = scratch / f"enospc{seed}"
    obs = ObsConfig(log_level="error", metrics_out=str(manifest))
    real_fsync = os.fsync
    os.fsync = FaultInjector(real_fsync, enospc_on_calls={1})
    try:
        with session(obs, run_config={"chaos": label}, stream=io.StringIO()):
            result = train_embeddings(
                corpus, cfg, context=ExecutionContext(checkpoint_dir=ckpt_dir)
            )
    finally:
        os.fsync = real_fsync
    if not np.array_equal(result.vectors, fresh.vectors):
        failures.append(f"{label}: result differs after ENOSPC retry")
    counters = load_manifest(manifest)["metrics"]["counters"]
    if counters.get("checkpoint.enospc", 0) < 1:
        failures.append(f"{label}: checkpoint.enospc never incremented")
    survivors = _tmp_survivors(ckpt_dir)
    if survivors:
        failures.append(f"{label}: tmp files survived: {survivors}")
    print(f"[chaos-soak] {label}: enospc_retries={counters.get('checkpoint.enospc')}")
    return failures


def _soak_one_seed(seed, scratch, out_dir, baseline_rss):
    rng = np.random.default_rng(seed)
    graph = planted_partition(
        n=60, groups=3, alpha=0.7, inter_edges=8, seed=100 + seed
    )
    edges = scratch / f"graph{seed}.edges"
    write_edge_list(graph, edges)

    # One uninterrupted reference per seed; every subprocess scenario
    # must reproduce it bitwise after its fault + resume.
    ref_out = scratch / f"ref{seed}.npz"
    rc = _run(
        _embed_argv(edges, ref_out, scratch / f"ref{seed}", seed)
    ).returncode
    if rc != 0:
        return [f"seed{seed}: reference run failed (exit {rc})"]

    corpus = generate_walks(
        graph, RandomWalkConfig(walks_per_vertex=4, walk_length=20, seed=seed)
    )
    failures = []
    failures += _kill_scenario(seed, edges, ref_out, scratch, out_dir, rng)
    failures += _signal_scenario(seed, edges, ref_out, scratch, out_dir, rng)
    failures += _deadline_scenario(seed, edges, ref_out, scratch, out_dir, rng)
    failures += _mem_pressure_scenario(
        seed, edges, ref_out, scratch, out_dir, rng, baseline_rss
    )
    failures += _hang_scenario(seed, corpus, scratch, out_dir)
    failures += _corrupt_scenario(seed, corpus, scratch, out_dir)
    failures += _enospc_scenario(seed, corpus, scratch, out_dir)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3, help="seed count")
    parser.add_argument(
        "--output-dir",
        default="soak_artifacts",
        help="where run manifests land (uploaded as CI artifacts)",
    )
    args = parser.parse_args(argv)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    baseline_rss = _probe_baseline_rss()
    print(f"[chaos-soak] baseline rss ~{baseline_rss >> 20}M")

    failures = []
    with tempfile.TemporaryDirectory() as scratch_str:
        scratch = Path(scratch_str)
        for seed in range(args.seeds):
            failures += _soak_one_seed(seed, scratch, out_dir, baseline_rss)

    elapsed = time.monotonic() - started
    summary = {
        "seeds": args.seeds,
        "elapsed_seconds": round(elapsed, 1),
        "failures": failures,
    }
    (out_dir / "soak_summary.json").write_text(json.dumps(summary, indent=2))
    if failures:
        for failure in failures:
            print(f"[chaos-soak] FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[chaos-soak] all scenarios held the invariant ({elapsed:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
