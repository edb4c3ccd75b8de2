#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at toy size, both modes.

    python3 perfbench/selftest.py

Runs run.py with --toy (n <= 3, a few records, a few jobs) for each workload
in BENCHMARK.json, with --trace 0 and --trace 1, and checks that the last
line reports a correct run with exactly the metrics and units that
BENCHMARK.json names. Then checks that run.py refuses to run, without
printing a result, from a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def run_toy(command: list[str], workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return last_json(proc.stdout)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = spec["command"]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run_toy(command, w["name"], trace)
            where = f"{w['name']} trace {trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct {result['correct']}, {result['failed']} of {result['attempted']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{where}: metrics {units} differ from BENCHMARK.json {expected[trace]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} is not a number")
            print(f"{where}: {result['attempted']} jobs, {len(units)} metrics")

    bare = ROOT / ".perfbench_runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for rel in spec["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    name = spec["workloads"][0]["name"]
    proc = subprocess.run(
        [*command, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
