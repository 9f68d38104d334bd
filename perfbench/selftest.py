"""Fast self-test of the benchmark: every workload on tiny inputs.

    python3 perfbench/selftest.py

Runs run.py --tiny for each workload with --trace 0 and --trace 1 and
asserts that the result line carries every metric BENCHMARK.json names for
that mode with its unit, that no operation failed (ops_ok_ratio is 1), that
the detail line records host facts and an artifact sha256 per operation,
and that the traced spans nest: each child lies inside its parent and has
its run id.  Finally it checks that run.py refuses, without a result line,
in a directory holding only BENCHMARK.json and perfbench/.  Takes well
under a minute; exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from spans import nesting_errors

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def run_bench(cwd: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int, spec: dict) -> list[str]:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']} {detail['failures']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        errors.append(f"{where}: metrics {sorted(result['metrics'])}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {metric['name']} printed as {got}")
    if not trace and result["metrics"]["ops_ok_ratio"]["value"] != 1.0:
        errors.append(f"{where}: ops_ok_ratio {result['metrics']['ops_ok_ratio']}")
    for key in ("nproc", "python", "numpy", "kernel", "workers"):
        if key not in detail["host"]:
            errors.append(f"{where}: host facts lack {key}")
    for op, artifact in detail["artifacts"].items():
        if not artifact["sha256"]:
            errors.append(f"{where}: no sha256 for {op}")
    if trace:
        with open(detail["trace_file"]) as handle:
            spans = [json.loads(line) for line in handle]
        os.remove(detail["trace_file"])
        if not any(s["name"].startswith("op.") for s in spans):
            errors.append(f"{where}: no operation spans")
        errors += [f"{where}: {e}" for e in nesting_errors(spans)]
    return errors


def check_refuses_without_program() -> list[str]:
    bare = os.path.join(OUT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "--workload", "grid", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(OUT, exist_ok=True)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors += check_workload(workload, trace, spec)
    errors += check_refuses_without_program()
    for error in errors:
        print("FAIL", error)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
