#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and trace neutrality.

    python3 bench/selftest.py [--workload NAME ...] [--seed N] [--seconds S]

For each workload it runs bench/run.py four times with one seed, twice
untraced and twice traced, and checks that

* every run exits 0 and reports correct outputs;
* all four runs saw the same instances (instance digest: sha256 of the
  serialize_graph texts) and reached the same per-instance outcomes
  (outcome digest over kind, source, reason, cover, witness and oracle
  result), so tracing changed no outcome;
* count metrics repeat exactly: decision_rate and verdict_share across
  the untraced runs, every per-layer count (exact.nodes,
  cover.augment_once.*, ...) across the traced runs;
* the metrics printed are exactly those BENCHMARK.json lists.

Exit status 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

from tracer import is_timing          # noqa: E402  (needs the path above)
from workloads import WORKLOADS       # noqa: E402

EXACT_END_TO_END = ("decision_rate", "verdict_share")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def check_workload(workload, seed, seconds, spec) -> list:
    errors = []
    runs = [(trace,) + run(workload, seed, seconds, trace) for trace in (0, 0, 1, 1)]
    for key in ("instance_digest", "outcome_digest"):
        if len({report[key] for _, _, report in runs}) != 1:
            errors.append(f"{workload}: {key} differs between runs")
    for trace, result, _ in runs:
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload} trace={trace}: correct={result['correct']} "
                          f"failed={result['failed']}")
        expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        if sorted(result["metrics"]) != sorted(expected):
            errors.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for trace, names in ((0, EXACT_END_TO_END), (1, None)):
        a, b = (result["metrics"] for t, result, _ in runs if t == trace)
        for name in names or [k for k in a if not is_timing(k)]:
            if a[name]["value"] != b[name]["value"]:
                errors.append(f"{workload}: {name} differs between two runs: "
                              f"{a[name]['value']} vs {b[name]['value']}")
    return errors


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in args.workload or list(WORKLOADS):
        found = check_workload(workload, args.seed, args.seconds, spec)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        errors += found
    for error in errors:
        print(f"  {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
