"""Smoke check of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py        # from the checkout root; about 6 minutes

Runs every workload of BENCHMARK.json on two seeds with ``--seconds 1``,
untraced and traced, and asserts that the last output line is the result
object with exactly the keys correct/attempted/failed/metrics and that it
carries every named end-to-end (untraced) or per-layer (traced) metric with
its unit. cli-session still runs one whole command cycle per pass.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)


def check_run(spec: dict, workload: str, seed: int, trace: int) -> list:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{where}: attempted/failed {result['attempted']}/{result['failed']}")
    if not any(line.startswith("PROVENANCE ") for line in lines[:-1]):
        problems.append(f"{where}: no provenance line")
    named = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in named}:
        problems.append(f"{where}: metric names differ: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in named})}")
    for m in named:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {got}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {m['name']} is {value}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(spec, w["name"], seed, trace)
                print(f"{w['name']} seed={seed} trace={trace}: "
                      f"{'ok' if not found else 'FAILED'}", flush=True)
                problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
