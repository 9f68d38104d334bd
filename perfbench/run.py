"""pecbench benchmark: one workload, one seed, run in fresh processes.

    python3 perfbench/run.py --workload {grid,shots,scale} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run it from anywhere inside a pecbench checkout; the program is taken from
the checkout's src/ tree, with no install step.  Set-up time is measured
here, from spawning a process until it has imported pecbench.cli and
pecbench.simulator, over probe processes that do nothing else: half of them
before the workload and half after it.  The workload itself runs in one
more fresh process (workload.py).  Scratch files go under .perfbench_out/
at the checkout root and the run's work directory is removed at the end;
the span trace and the artifact digests stay there.

Standard output: one line per metric (median, tail percentile, sample
count), one "detail" JSON line (host facts, artifact sha256s, failures),
and as the last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD = os.path.join(HERE, "workload.py")
REQUIRED = ("src/pecbench/cli.py", "configs/reference_instance.cfg", "configs/small_sim.cfg")

# Set-up probes taken before the workload and again after it; one more,
# unmeasured, fills caches first.
SETUP_PROBES = {"full": 12, "tiny": 1}
PROBE = "import pecbench.cli, pecbench.simulator; print('ready', flush=True)"
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "ops_ok_ratio": "ratio"}
# Per-operation latencies: printed for the workloads that run them, not part
# of the result line, whose metrics must exist on every workload.
OP_METRICS = {"grid": ("phase_diagram_s", "centering_s"),
              "shots": ("simulate_s",),
              "scale": ("norm_s", "success_s", "ground_energy_s", "estimate_s")}
PER_LAYER = {
    "config.load_s": "s",
    "hubbard.build_s": "s", "hubbard.terms": "count", "hubbard.qubits": "count",
    "hubbard.ground_s": "s", "hubbard.ground_vector_s": "s",
    "advantage.sweep_s": "s", "advantage.sweep_serial_s": "s",
    "advantage.cells": "count", "advantage.cells_per_s": "1/s",
    "centering.true_proxy_s": "s", "centering.error_map_s": "s", "centering.cells": "count",
    "report.csv_s": "s", "report.json_s": "s", "report.svg_s": "s",
    "report.bytes": "bytes", "report.mb_per_s": "MB/s",
    "simulator.pec_s": "s", "simulator.pec_serial_s": "s", "simulator.raw_s": "s",
    "simulator.shots": "count", "simulator.us_per_shot": "us",
    "simulator.twirl_rate": "ratio", "simulator.p_twirl": "ratio",
    "simulator.checks_s": "s", "simulator.checks_passed": "count",
    "cli.other_s": "s", "trace.coverage": "ratio", "trace.overhead_s": "s",
}


class RunFailed(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str]) -> subprocess.Popen:
    """Start a Python process on the checkout's src/ tree.

    The process leads its own process group, so that stopping it also stops
    any pool workers it started.  Its stdout is unbuffered here, so that a
    probe's ready line can be read as soon as it is printed.
    """
    return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, bufsize=0, start_new_session=True)


def stop(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunFailed("workload process ran past the deadline")
    if proc.returncode != 0:
        raise RunFailed(f"workload process exited {proc.returncode}")
    return out.decode()


def setup_probe(deadline: float) -> float:
    """Seconds from spawning a process until it has imported pecbench."""
    start = time.perf_counter()
    proc = spawn(["-c", PROBE])
    readable, _, _ = select.select([proc.stdout], [], [],
                                   max(0.0, deadline - time.monotonic()))
    ready = proc.stdout.readline() if readable else b""
    elapsed = time.perf_counter() - start
    finish(proc, deadline)
    if ready.strip() != b"ready":
        raise RunFailed("set-up probe did not import pecbench")
    return elapsed


def summarize(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out


def code_id() -> str:
    """Digest of the program and benchmark sources: one id per commit."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def cross_run_mismatches(key: str, artifacts: dict) -> list[str]:
    """Compare artifact digests with earlier runs of this code and seed.

    The store keeps only the current code id, so digests are gated within
    one commit and merely recorded across commits.
    """
    path = os.path.join(OUT, "digests.json")
    ident = code_id()
    try:
        with open(path) as handle:
            store = json.load(handle)
    except (OSError, ValueError):
        store = {}
    known = store.get(ident, {}).get(key, {})
    current = {op: a["sha256"] for op, a in artifacts.items() if a["sha256"]}
    mismatched = [op for op, sha in current.items() if op in known and known[op] != sha]
    store = {ident: dict(store.get(ident, {}), **{key: dict(known, **current)})}
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as handle:
        json.dump(store, handle, sort_keys=True)
    os.replace(tmp, path)
    return mismatched


def line(name: str, unit: str, values: list[float]) -> str:
    if not values:
        return f"{name:<26} no successful sample"
    s = summarize(values)
    tail = (f"p{s['tail_pct']:.0f} {s['tail']:.6g}" if "tail" in s else "no tail (n < 11)")
    return f"{name:<26} {s['median']:<12.6g} {unit:<6} {tail}  n={s['n']}"


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    size = "tiny" if args.tiny else "full"
    probes = 0 if args.trace else SETUP_PROBES[size]
    if probes:
        setup_probe(deadline)
    setup = [setup_probe(deadline) for _ in range(probes)]

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    argv = [WORKLOAD, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    if args.tiny:
        argv.append("--tiny")
    try:
        out = finish(spawn(argv), deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])
    setup += [setup_probe(deadline) for _ in range(probes)]
    result["setup_s"] = setup
    mismatched = cross_run_mismatches(f"{args.workload}/{args.seed}/{size}",
                                      result["artifacts"])
    for op in mismatched:
        result["failed"] += 1
        result["failures"].append(f"{op}: artifact differs from an earlier run "
                                  f"of the same code and seed")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(OP_METRICS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a pecbench checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    samples = result["samples"]

    if args.trace and not result["per_layer"]:
        print("perfbench: no traced pass completed; failures: "
              + "; ".join(result["failures"]), file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(samples['wall_s'])}")
    if args.trace:
        values, units = result["per_layer"], PER_LAYER
    else:
        series = {name: samples.get(name, []) for name in OP_METRICS[args.workload]}
        series.update(setup_s=result["setup_s"], wall_s=samples["wall_s"],
                      cpu_s=samples["cpu_s"])
        for name, timings in series.items():
            print(line(name, "s", timings))
        result["summary"] = {name: summarize(timings) for name, timings in series.items()
                             if timings}
        values = {name: statistics.median(series[name]) for name in ("setup_s", "wall_s", "cpu_s")}
        values["peak_rss_mb"] = result["peak_rss_mb"]
        values["ops_ok_ratio"] = (attempted - failed) / attempted
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        if name not in result.get("summary", {}):
            print(f"{name:<26} {m['value']:<12.6g} {m['unit']}")
    detail = {k: result.get(k) for k in ("host", "artifacts", "failures",
                                         "summary", "simulate_checks_passed",
                                         "spans", "trace_file")}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
