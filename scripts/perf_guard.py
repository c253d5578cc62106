#!/usr/bin/env python
"""Perf-regression guard: does parallelism still pay?

Compares a freshly measured bench report (``scripts/bench_report.py``
output) against the committed baseline (``BENCH_PR7.json``) and fails
when the *parallel payoff* regresses — the ratio of serial to
multi-worker seconds for walk generation and for training. Ratios, not
absolute times: CI runners differ wildly in raw speed, but "workers=N
is X times faster than workers=1 on the same box" transfers, which is
exactly the property PR 7's fused kernel + persistent pool + frontier
batching exist to provide.

Policy:

- Worker axis. For each stage (``walk_generation``, ``training``), the
  guard takes the speedup of the highest worker count over the serial
  reference, in both the baseline and the current report, and
  requires::

      current_speedup >= baseline_speedup * (1 - tolerance)

  The serial reference is the workers=1 row whose ``loop`` tag is
  ``masked``; rows without a tag (every training row, and the walk rows
  of reports written before the tag existed) count as masked. For walks
  that row times the masked reference stepping loop, which is what the
  baseline's workers=1 row measured, so the walk gate compares pool
  against the same serial loop as its baseline did.
- Loop axis (current report only). The engine's own workers=1 walk row
  (``loop: engine``) must be no slower than the masked reference:
  ``masked_seconds / engine_seconds >= 1.0``. At one worker the engine
  runs the frontier-batched loop whenever no walk can die, so this trips
  when that fast path stops being taken.

- The default ``--tolerance 0.5`` is deliberately loose — walk waves
  are milliseconds long and shared runners are noisy — so the guard
  trips on "parallelism stopped paying" (a serialization bug, a pool
  that re-forks per map, a kernel falling back to the reference path),
  not on jitter.
- Schema/tag mismatches fail loudly: comparing reports produced by
  different bench definitions is meaningless.

Escape hatch: set ``PERF_GUARD_SKIP=1`` to turn the guard into a no-op
(exit 0 with a notice). Use it when landing a change that knowingly
moves the trade-off (e.g. a correctness fix inside the kernel) — and
regenerate the committed baseline in the same PR:

    PYTHONPATH=src python scripts/bench_report.py --output BENCH_PR7.json

Run:  PYTHONPATH=src python scripts/perf_guard.py \
          --baseline BENCH_PR7.json --current bench_current.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

GUARDED_STAGES = ("walk_generation", "training")


class PerfGuardError(SystemExit):
    pass


def _load(path: Path) -> dict:
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PerfGuardError(f"perf-guard: cannot read {path}: {exc}")
    for key in ("schema_version", "bench", *GUARDED_STAGES):
        if key not in report:
            raise PerfGuardError(f"perf-guard: {path} is missing {key!r}")
    return report


def _seconds(report: dict, stage: str, workers: int, loop: str) -> float:
    for row in report[stage]:
        if row["workers"] == workers and row.get("loop", "masked") == loop:
            return float(row["seconds"])
    raise PerfGuardError(
        f"perf-guard: no workers={workers} {loop} row in {stage}"
    )


def _speedup(report: dict, stage: str) -> tuple[float, int]:
    """(masked serial seconds / top-worker seconds, top worker count)."""
    serial = _seconds(report, stage, 1, "masked")
    top = max(row["workers"] for row in report[stage])
    if top == 1:
        raise PerfGuardError(f"perf-guard: no multi-worker row in {stage}")
    top_seconds = min(
        float(row["seconds"]) for row in report[stage] if row["workers"] == top
    )
    return serial / max(top_seconds, 1e-12), top


def _loop_ratio(report: dict) -> float:
    """Masked reference seconds over engine seconds, both at one worker."""
    masked = _seconds(report, "walk_generation", 1, "masked")
    engine = _seconds(report, "walk_generation", 1, "engine")
    return masked / max(engine, 1e-12)


def check(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Human-readable failures (empty means the guard passes)."""
    failures = []
    if baseline["bench"] != current["bench"]:
        failures.append(
            f"bench tag mismatch: baseline {baseline['bench']!r} vs "
            f"current {current['bench']!r}"
        )
        return failures
    if baseline["schema_version"] != current["schema_version"]:
        failures.append(
            f"schema mismatch: baseline v{baseline['schema_version']} vs "
            f"current v{current['schema_version']}"
        )
        return failures
    for stage in GUARDED_STAGES:
        base, base_w = _speedup(baseline, stage)
        cur, cur_w = _speedup(current, stage)
        floor = base * (1.0 - tolerance)
        verdict = "ok" if cur >= floor else "REGRESSED"
        print(
            f"  {stage}: speedup w{cur_w} vs w1 = {cur:.3f} "
            f"(baseline {base:.3f} @ w{base_w}, floor {floor:.3f}) {verdict}"
        )
        if cur < floor:
            failures.append(
                f"{stage}: parallel speedup {cur:.3f} fell below "
                f"{floor:.3f} (baseline {base:.3f} minus {tolerance:.0%})"
            )
    ratio = _loop_ratio(current)
    verdict = "ok" if ratio >= 1.0 else "REGRESSED"
    print(
        f"  walk_generation loop: masked vs engine at w1 = {ratio:.3f} "
        f"(floor 1.000) {verdict}"
    )
    if ratio < 1.0:
        failures.append(
            f"walk_generation: the engine at workers=1 is {ratio:.3f}x the "
            "speed of the masked reference loop (floor 1.000)"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--baseline", default="BENCH_PR7.json")
    parser.add_argument("--current", required=True)
    parser.add_argument("--tolerance", type=float, default=0.5)
    args = parser.parse_args()

    if os.environ.get("PERF_GUARD_SKIP") == "1":
        print(
            "perf-guard: skipped (PERF_GUARD_SKIP=1). If this lands a "
            "deliberate trade-off, regenerate the baseline in the same PR."
        )
        return 0
    if not 0.0 <= args.tolerance < 1.0:
        raise PerfGuardError("perf-guard: tolerance must be in [0, 1)")

    baseline = _load(Path(args.baseline))
    current = _load(Path(args.current))
    print(f"perf-guard: {args.current} vs baseline {args.baseline}")
    failures = check(baseline, current, args.tolerance)
    if failures:
        for failure in failures:
            print(f"perf-guard: FAIL: {failure}", file=sys.stderr)
        print(
            "perf-guard: override with PERF_GUARD_SKIP=1 (see module "
            "docstring) and refresh BENCH_PR7.json if intentional.",
            file=sys.stderr,
        )
        return 1
    print("perf-guard: pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
