#!/usr/bin/env python3
"""Fast self-check of the benchmark itself.

Runs every workload listed in BENCHMARK.json on a reduced zoo, once with
--trace 0 and once with --trace 1, and asserts that the last line is the
result object run.py documents: exactly the keys correct / attempted /
failed / metrics, a correct run with no failed target, and every metric
name of BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1)
with its unit. Takes about two minutes once tg_perfbench is built.

Usage (from the repository root): python3 perfbench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Smallest zoo on which every layer still runs (the image graph needs more
# models than a GBDT split needs rows).
REDUCED_MODELS = ("12", "8")


def check(condition, message):
    if not condition:
        sys.exit(f"selfcheck failed: {message}")


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0", "--trace", str(trace),
               "--models", *REDUCED_MODELS]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=600)
    check(result.returncode == 0, f"{workload}: exit {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], f"{label}: keys")
            check(result["correct"] is True, f"{label}: not correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{label}: attempted/failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in expected[trace]}
            check(got == want, f"{label}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)), f"{label}: {name}")
            print(f"ok  {label}")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
