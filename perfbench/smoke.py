"""Smoke test: every workload at toy scale, untraced and traced.

    python3 perfbench/smoke.py

Run from the root of a source checkout. It passes when every run exits
0 with a correct result, and its metrics are exactly the ones
``BENCHMARK.json`` names for that mode, with the units named there. It
takes about a minute. Toy numbers are not comparable with real runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "0", "--trace", str(trace), "--toy"]
            proc = subprocess.run(argv, capture_output=True, text=True)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(lines[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics {sorted(units)} != {sorted(expected[trace])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed: {proc.stderr.strip()[-400:]}")
            print(f"{where}: {result['attempted']} operations, "
                  f"{len(units)} metrics, correct={result['correct']}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
