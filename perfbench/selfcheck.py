#!/usr/bin/env python3
"""Fast self-check of the benchmark at tiny size (about a minute).

Run from the repository root::

    python3 perfbench/selfcheck.py

It validates ``BENCHMARK.json`` against the benchmark's contract, runs every
workload at a tiny sample budget with ``--trace 0`` and ``--trace 1``, and
checks that each run passes its correctness checks and prints exactly the
declared metrics with their units.  Finally it runs the benchmark in a
directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no program),
where it must fail without printing a result.  Exits non-zero on the first
problem.  (Not named ``test_*.py``: the repository's test suite collects
those.)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Tiny budgets: enough samples to pass the initial design, fit surrogates,
#: promote and (on chaos-fleet) checkpoint a few times.
TINY = {"tuna-mssales": 40, "traditional-redis": 15, "chaos-fleet": 200}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    print(f"selfcheck FAILED: {message}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = []
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 or "\n" in workload["why"]:
            fail(f"bad workload entry {workload}")
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            fail(f"bad end_to_end entry {metric}")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            fail(f"bad per_layer entry {metric}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        names.append(metric["name"])
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("higher", "lower"):
            fail(f"bad unit/direction in {metric}")
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        fail(f"names invalid or repeated: {bad or names}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s (unit s, lower is better) is required")
    if setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    if not (2 <= len(spec["workloads"]) <= 8 and 1 <= spec["run_seconds"] <= 60):
        fail("workload count or run_seconds out of range")


def run(cwd: str, workload: str, trace: int, extra=()) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--setup-probes", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace, ("--samples", str(TINY[workload])))
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['correct']=} {result['failed']=}\n{proc.stdout}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics/units differ from BENCHMARK.json")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], float):
            fail(f"{workload}: {name} is not a number")
    if not any(line.startswith("workload ") and " digest " in line for line in lines):
        fail(f"{workload}: no trajectory digest line")
    if trace:
        m = {name: entry["value"] for name, entry in result["metrics"].items()}
        if m["unattributed.share"] > 0.10:
            fail(f"{workload}: {m['unattributed.share']:.1%} of study time unattributed")
    print(f"ok  {workload:18s} trace={trace}  attempted={result['attempted']}")


def check_without_program() -> None:
    scratch = os.path.join(BENCH_DIR, "out", "bare-checkout")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(scratch, "tuna-mssales", 0)
        printed = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (printed and printed[-1].startswith("{")):
            fail("the benchmark must fail without the program, printing no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("ok  no program -> non-zero exit, no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec)
    print("ok  BENCHMARK.json")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
