"""One benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workload.py --workload grid --seed 1 --seconds 36 \
        --trace 0 --workdir DIR [--tiny]

It writes the workload's configs from the seed into DIR, runs timed passes
until --seconds have elapsed (the first pass's outputs are fully checked,
later ones must repeat them byte for byte), and prints one JSON line:
timing samples, counters, artifact digests and host facts.  The checkout
is the parent of this file's directory; with --trace 1 the span trace goes
to .perfbench_out/trace-<workload>-s<seed>.jsonl there.

The program is driven only through ``pecbench.cli.main`` and public library
functions.  With --trace 1 every timed iteration is an untraced pass, as a
user would run it, followed by a traced pass that repeats each operation as
a sequence of public calls, each wrapped in a span named after its module.
Extra calls (the same sweep or PEC estimate with workers=1, and the
ground-state vector) run after the traced operations, outside them.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Callable

import numpy as np
from pecbench import advantage, centering, cli, config, hubbard, noise, report, simulator

from spans import Tracer, children, duration, nesting_errors

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-size inputs.  "full" is the benchmark; "tiny" is the self-test's
# variant, which runs every workload in seconds.
SIZES = {
    "full": {
        # Sweep and centering axes, far beyond the 60x60 / 100x100 defaults.
        "grid_axis": 200,
        # simulate keeps 50 batch means of 200 shots (normality_check needs
        # >= 50 batches of >= 100 shots).
        "sim_shots": 10_000, "sim_batch": 200,
        # L x L periodic lattice at the reference couplings for norm/success.
        "lattice": 40,
        # (rows, cols, boundary, t, U, mu): the 10-qubit 1x5 periodic chain,
        # non-degenerate with a dense gap of 0.686.
        "chain": (1, 5, "periodic", 1.0, 4.0, 3.0),
        "chain_layers": 7, "chain_p": 0.2, "chain_shots": 30,
    },
    "tiny": {
        "grid_axis": 12,
        "sim_shots": 5_000, "sim_batch": 100,
        "lattice": 4,
        "chain": (1, 2, "open", 1.0, 4.0, 1.0),
        "chain_layers": 4, "chain_p": 0.05, "chain_shots": 20,
    },
}

# Ground energies from the occupation-basis fermionic matrix (an
# implementation independent of the Jordan-Wigner build), keyed like
# SIZES[...]["chain"].  The 1x2 open chain is also configs/small_sim.cfg.
REFERENCE_E0 = {
    (1, 5, "periodic", 1.0, 4.0, 3.0): -18.286079201451578,
    (1, 2, "open", 1.0, 4.0, 1.0): -2.8284271247461907,
}
E0_RTOL = 1e-9
MEAN_SE = 5.0  # estimator means must lie within this many standard errors
SAMPLED_CELLS = 5  # per axis, for the grid label / value checks
SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One user-visible operation of a workload.

    run is the timed call; artifact turns its result into the bytes that
    are hashed and checked; traced repeats it as spanned public calls and
    may queue extra calls to run after the traced operations.
    """

    name: str
    metric: str
    run: Callable[[], object]
    artifact: Callable[[object], bytes]
    check: Callable[[bytes], dict]
    traced: Callable[[Tracer, list], None]


# --- generated inputs ----------------------------------------------------

def _read_bundled(root: str, name: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    with open(os.path.join(root, "configs", name)) as handle:
        parser.read_file(handle)
    return {section: dict(parser[section]) for section in parser.sections()}


def _write_config(path: str, sections: dict) -> str:
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_dict({s: {k: str(v) for k, v in kv.items()} for s, kv in sections.items()})
    with open(path, "w") as handle:
        parser.write(handle)
    return path


def make_inputs(workload: str, seed: int, size: dict, root: str, workdir: str) -> dict:
    """Write the workload's configs; the seed enters only as [run] seed."""
    paths = {}
    if workload == "grid":
        ref = _read_bundled(root, "reference_instance.cfg")
        ref["run"]["seed"] = seed
        n = size["grid_axis"]
        ref["sweep"] = {"p_min": 1e-5, "p_max": 1e-1, "p_points": n,
                        "shots_min": 1, "shots_max": 1e6, "shots_points": n}
        ref["centering"] = {"shift_points": n, "width_points": n}
        paths["grid"] = _write_config(os.path.join(workdir, "grid.cfg"), ref)
    elif workload == "shots":
        sim = _read_bundled(root, "small_sim.cfg")
        sim["run"]["seed"] = seed
        sim["simulate"] = {"shots": size["sim_shots"], "batch": size["sim_batch"]}
        paths["shots"] = _write_config(os.path.join(workdir, "shots.cfg"), sim)
    else:
        lattice = _read_bundled(root, "reference_instance.cfg")
        lattice["model"].update(rows=size["lattice"], cols=size["lattice"])
        del lattice["circuit"]  # D = L and n = 2L, as in the reference instance
        lattice["run"]["seed"] = seed
        paths["lattice"] = _write_config(os.path.join(workdir, "lattice.cfg"), lattice)
        rows, cols, boundary, t, u, mu = size["chain"]
        e0 = REFERENCE_E0[size["chain"]]  # only to place the (unused) bounds
        chain = {
            "model": {"rows": rows, "cols": cols, "boundary": boundary,
                      "t": t, "U": u, "mu": mu},
            "bounds": {"e_minus": round(e0 - 0.75, 3), "e_plus": round(e0 + 0.75, 3)},
            "circuit": {"layers": size["chain_layers"], "qubits": 2 * rows * cols},
            "noise": {"p_layer": size["chain_p"]},
            "run": {"seed": seed},
            "simulate": {"shots": size["chain_shots"]},
        }
        paths["chain"] = _write_config(os.path.join(workdir, "chain.cfg"), chain)
    return paths


# --- operations ----------------------------------------------------------

def _sample(n: int) -> list[int]:
    return sorted({round(k * (n - 1) / (SAMPLED_CELLS - 1)) for k in range(SAMPLED_CELLS)})


def _svg_metadata(text: str) -> tuple[dict, int]:
    root = ET.fromstring(text)
    meta = root.find(f"{SVG_NS}metadata")
    _require(meta is not None and bool(meta.text), "svg has no metadata")
    fields = dict(token.split("=", 1) for token in meta.text.split())
    return fields, len(root.findall(f"{SVG_NS}rect"))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def _reference_means(spec, noise_spec) -> tuple[float, float]:
    """The reference ground energy and the analytic mean of the raw estimator."""
    e0 = REFERENCE_E0[(spec.rows, spec.cols, spec.boundary, spec.t, spec.U, spec.mu)]
    e_noisy = noise.noisy_mean(noise_spec, noise.HamiltonianSummary(
        norm2=1.0, trace_over_d=hubbard.identity_coefficient_closed_form(spec),
        e0_proxy=e0))
    return e0, e_noisy


def _check_estimates(shots: int, e0: float, e_noisy: float, pec_mean: float,
                     pec_var: float, raw_mean: float, raw_var: float) -> None:
    """PEC must be unbiased for e0, raw for the noisy mean, within MEAN_SE."""
    for name, mean, var, want in (("PEC", pec_mean, pec_var, e0),
                                  ("raw", raw_mean, raw_var, e_noisy)):
        se = math.sqrt(var / shots)
        _require(abs(mean - want) <= MEAN_SE * se,
                 f"{name} mean {mean} is more than {MEAN_SE} SE ({se}) from {want}")


def build_ops(workload: str, paths: dict, workdir: str) -> list[Op]:
    """The workload's operations, with their checks and traced variants."""
    emitters = {"csv": report.grid_to_csv, "json": report.grid_to_json,
                "svg": report.grid_to_svg}

    def read(path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def cli_run(command: str, cfg_path: str, fmt: str, out: str):
        def run():
            code = cli.main([command, "--config", cfg_path, "--format", fmt,
                             "--output", out])
            _require(code == 0, f"pecbench {command} exited {code}")
        return run

    def parse_grid(data: bytes, fmt: str, expect_hash: str, rows: int, cols: int):
        text = data.decode()
        if fmt == "svg":
            fields, rects = _svg_metadata(text)
            _require(fields.get("config_hash") == expect_hash,
                     f"svg config_hash {fields.get('config_hash')} != {expect_hash}")
            _require(rects == 1 + 3 * rows * cols, f"svg has {rects} rects")
            return None
        art = (report.parse_grid_csv if fmt == "csv" else report.parse_grid_json)(text)
        _require(art.provenance.get("config_hash") == expect_hash,
                 f"{fmt} config_hash {art.provenance.get('config_hash')} != {expect_hash}")
        _require((len(art.row_values), len(art.col_values)) == (rows, cols),
                 f"{fmt} grid is {len(art.row_values)}x{len(art.col_values)}")
        return art

    def pec_call(tr: Tracer, name: str, spec, noise_spec, shots: int, seed: int,
                 workers: int):
        with tr.span(name, shots=shots, layers=noise_spec.layers) as counters:
            mean, var, records = simulator.run_pec_estimate(
                spec, noise_spec, shots, seed, workers=workers)
        qpd = simulator.build_qpd(noise_spec)
        counters["twirls"] = sum(1 for r in records for op in r.sampled_ops if op != 0)
        counters["p_twirl"] = abs(qpd.q[1]) / qpd.gamma
        return mean, var, records

    def ground_vector(tr: Tracer, spec) -> None:
        with tr.span("hubbard.ground_vector"):
            simulator.prepare_ground_state(spec)

    ops: list[Op] = []

    if workload == "grid":
        cfg_path = paths["grid"]
        cfg = config.load_config(cfg_path)
        expect_hash = config.config_hash(cfg)
        prob = cfg.advantage_problem()
        p_axis, shot_axis = cfg.p_axis(), cfg.shot_axis()
        n_shift, n_width = cfg.centering_axes()
        shift_axis = centering.default_shift_axis(n_shift)
        width_axis = centering.default_width_axis(n_width)

        def phase_check(fmt):
            def check(data: bytes) -> dict:
                art = parse_grid(data, fmt, expect_hash, len(p_axis), len(shot_axis))
                if art is not None:
                    labels = art.columns["label"]
                    for i in _sample(len(p_axis)):
                        for j in _sample(len(shot_axis)):
                            want = advantage.classify(prob, p_axis[i], shot_axis[j])
                            _require(labels[i][j] == want,
                                     f"label at ({i}, {j}) is {labels[i][j]}, "
                                     f"classify gives {want}")
                return {}
            return check

        def phase_traced(fmt):
            def traced(tr: Tracer, later: list) -> None:
                with tr.span("config.load"):
                    cfg = config.load_config(cfg_path)
                    prob = cfg.advantage_problem()
                    p_ax, n_ax = cfg.p_axis(), cfg.shot_axis()
                workers = advantage.worker_count()
                with tr.span("advantage.sweep", cells=len(p_ax) * len(n_ax)):
                    grid = advantage.sweep(prob, p_ax, n_ax, workers=workers)
                with tr.span(f"report.{fmt}") as counters:
                    prov = report.make_provenance(config.config_hash(cfg), cfg.seed())
                    text = emitters[fmt](report.phase_artifact(grid, prov))
                    counters["bytes"] = len(text)

                def serial():
                    with tr.span("advantage.sweep_serial", cells=len(p_ax) * len(n_ax)):
                        advantage.sweep(prob, p_ax, n_ax, workers=1)
                later.append(serial)
            return traced

        def centering_check(fmt):
            def check(data: bytes) -> dict:
                art = parse_grid(data, fmt, expect_hash, len(shift_axis), len(width_axis))
                if art is not None:
                    for i in _sample(len(shift_axis)):
                        for j in _sample(len(width_axis)):
                            point = centering.CenteringPoint(rel_shift=shift_axis[i],
                                                             rel_width=width_axis[j])
                            want = centering.true_success(point)
                            got = art.columns["true_success"][i][j]
                            _require(_close(got, want, 1e-10),
                                     f"true_success at ({i}, {j}) is {got}, want {want}")
                            want = centering.proxy_success(width_axis[j])
                            got = art.columns["proxy_success"][i][j]
                            _require(_close(got, want, 1e-10),
                                     f"proxy_success at ({i}, {j}) is {got}, want {want}")
                return {}
            return check

        def centering_traced(fmt):
            def traced(tr: Tracer, later: list) -> None:
                with tr.span("config.load"):
                    cfg = config.load_config(cfg_path)
                    n_s, n_w = cfg.centering_axes()
                with tr.span("centering.true_proxy", cells=n_s * n_w):
                    shifts = centering.default_shift_axis(n_s)
                    widths = centering.default_width_axis(n_w)
                    true_grid = [[centering.true_success(
                        centering.CenteringPoint(rel_shift=s, rel_width=w))
                        for w in widths] for s in shifts]
                    proxy_grid = [[centering.proxy_success(w) for w in widths]
                                  for _ in shifts]
                with tr.span("centering.error_map", cells=n_s * n_w):
                    error_grid = centering.relative_error_map(shifts, widths)
                region_max = float(np.nanmax(error_grid[np.ix_(shifts <= 0.8,
                                                               widths < 0.1)]))
                with tr.span(f"report.{fmt}") as counters:
                    prov = report.make_provenance(config.config_hash(cfg), cfg.seed())
                    prov["region_max"] = f"{region_max:.11e}"
                    art = report.centering_artifact(shifts, widths, true_grid,
                                                    proxy_grid, error_grid, prov)
                    text = emitters[fmt](art)
                    counters["bytes"] = len(text)
            return traced

        for command, metric, check, traced in (
                ("phase-diagram", "phase_diagram_s", phase_check, phase_traced),
                ("centering", "centering_s", centering_check, centering_traced)):
            for fmt in ("csv", "json", "svg"):
                out = os.path.join(workdir, f"{command}.{fmt}")
                ops.append(Op(name=f"{command}.{fmt}", metric=metric,
                              run=cli_run(command, cfg_path, fmt, out),
                              artifact=lambda _, out=out: read(out),
                              check=check(fmt), traced=traced(fmt)))

    elif workload == "shots":
        cfg_path = paths["shots"]
        cfg = config.load_config(cfg_path)
        expect_hash = config.config_hash(cfg)
        spec, noise_spec = cfg.hubbard_spec(), cfg.noise_spec()
        shots = cfg.simulate_shots()
        e0, e_noisy = _reference_means(spec, noise_spec)
        out = os.path.join(workdir, "simulate.json")

        def simulate_check(data: bytes) -> dict:
            doc = json.loads(data)
            _require(doc["provenance"]["config_hash"] == expect_hash, "config_hash differs")
            _require(doc["shots"] == shots, f"report has {doc['shots']} shots")
            _require(_close(doc["analytic_noisy_mean"], e_noisy, 1e-9),
                     f"analytic_noisy_mean {doc['analytic_noisy_mean']} != {e_noisy}")
            _check_estimates(shots, e0, e_noisy, doc["mean"], doc["variance"],
                             doc["raw_mean"], doc["raw_variance"])
            return {"checks_passed": sum(bool(v) for v in doc["checks"].values())}

        def simulate_traced(tr: Tracer, later: list) -> None:
            with tr.span("config.load"):
                cfg = config.load_config(cfg_path)
                spec, noise_spec = cfg.hubbard_spec(), cfg.noise_spec()
                shots, batch, seed = cfg.simulate_shots(), cfg.simulate_batch(), cfg.seed()
            with tr.span("hubbard.build") as counters:
                decomp = hubbard.build_hubbard_pauli(spec)
                norm2sq = hubbard.norm2_squared(decomp)
                counters.update(terms=len(decomp.terms), qubits=decomp.n)
            with tr.span("hubbard.ground"):
                e0 = hubbard.exact_ground_energy(spec)
            with tr.span("noise.laws"):
                ham = noise.HamiltonianSummary(
                    norm2=math.sqrt(norm2sq) if norm2sq > 0 else 1.0,
                    trace_over_d=decomp.identity_coefficient, e0_proxy=e0)
                gamma = noise.gamma_total(noise_spec)
                e_noisy = noise.noisy_mean(noise_spec, ham)
            workers = advantage.worker_count()
            mean, var, records = pec_call(tr, "simulator.pec", spec, noise_spec,
                                          shots, seed, workers)
            with tr.span("simulator.raw", shots=shots):
                raw_mean, raw_var = simulator.run_raw_estimate(
                    spec, noise_spec, shots, seed, workers=workers)
            with tr.span("simulator.checks"):
                means = simulator.batch_means([r.outcome for r in records], batch)
                stat = simulator.normality_check(means, batch)
                crit = simulator.lilliefors_critical(len(means), 0.01)
            with tr.span("report.json") as counters:
                text = report.report_to_json({
                    "exact_ground_energy": e0, "analytic_noisy_mean": e_noisy,
                    "gamma_total": gamma, "mean": mean, "variance": var,
                    "raw_mean": raw_mean, "raw_variance": raw_var,
                    "normality_statistic": stat, "normality_critical_1pct": crit})
                counters["bytes"] = len(text)
            later.append(lambda: pec_call(tr, "simulator.pec_serial", spec, noise_spec,
                                          shots, seed, 1))
            later.append(lambda: ground_vector(tr, spec))

        ops.append(Op(name="simulate", metric="simulate_s",
                      run=cli_run("simulate", cfg_path, "json", out),
                      artifact=lambda _: read(out), check=simulate_check,
                      traced=simulate_traced))

    else:  # scale
        lattice_path = paths["lattice"]
        lattice = config.load_config(lattice_path)
        lattice_hash = config.config_hash(lattice)
        lattice_spec = lattice.hubbard_spec()
        norm_out = os.path.join(workdir, "norm.json")
        success_out = os.path.join(workdir, "success.json")

        def norm_check(data: bytes) -> dict:
            doc = json.loads(data)
            _require(doc["config_hash"] == lattice_hash, "config_hash differs")
            closed = hubbard.norm2_squared_closed_form(lattice_spec)
            _require(_close(doc["norm2_squared"], closed, 1e-12),
                     f"norm2_squared {doc['norm2_squared']} != closed form {closed}")
            _require(doc["qubits"] == lattice_spec.qubits, f"qubits {doc['qubits']}")
            return {}

        def norm_traced(tr: Tracer, later: list) -> None:
            with tr.span("config.load"):
                cfg = config.load_config(lattice_path)
                spec = cfg.hubbard_spec()
            with tr.span("hubbard.build") as counters:
                decomp = hubbard.build_hubbard_pauli(spec)
                norm2sq = hubbard.norm2_squared(decomp)
                counters.update(terms=len(decomp.terms), qubits=decomp.n)
            with tr.span("report.json") as counters:
                text = report.report_to_json({
                    "norm2_squared": norm2sq,
                    "trace_over_d": decomp.identity_coefficient,
                    "term_count": len(decomp.terms), "qubits": decomp.n,
                    "source": "model", "config_hash": config.config_hash(cfg)})
                counters["bytes"] = len(text)

        def success_check(data: bytes) -> dict:
            doc = json.loads(data)
            _require(doc["config_hash"] == lattice_hash, "config_hash differs")
            prob = lattice.advantage_problem()
            want = advantage.classify(prob, lattice.p_layer(), lattice.shots())
            _require(doc["label"] == want, f"label {doc['label']}, classify gives {want}")
            _require(0.0 <= doc["pec_success"] <= 1.0 and 0.0 <= doc["raw_success"] <= 1.0,
                     "success probability outside [0, 1]")
            return {}

        def success_traced(tr: Tracer, later: list) -> None:
            with tr.span("config.load"):
                cfg = config.load_config(lattice_path)
                prob = cfg.advantage_problem()
                p, n_shots = cfg.p_layer(), cfg.shots()
            with tr.span("advantage.point"):
                doc = {"p": p, "n_shots": n_shots, "threshold": prob.threshold,
                       "pec_success": advantage.pec_success_proxy(prob, n_shots, p=p),
                       "raw_success": advantage.raw_success(prob, n_shots, p=p),
                       "label": advantage.classify(prob, p, n_shots)}
            with tr.span("report.json") as counters:
                doc["config_hash"] = config.config_hash(cfg)
                text = report.report_to_json(doc)
                counters["bytes"] = len(text)

        chain = config.load_config(paths["chain"])
        spec, noise_spec = chain.hubbard_spec(), chain.noise_spec()
        shots, seed = chain.simulate_shots(), chain.seed()
        e0, e_noisy = _reference_means(spec, noise_spec)

        def ground_check(data: bytes) -> dict:
            got = json.loads(data)["exact_ground_energy"]
            _require(_close(got, e0, E0_RTOL), f"ground energy {got}, reference {e0}")
            return {}

        def ground_traced(tr: Tracer, later: list) -> None:
            with tr.span("hubbard.ground"):
                hubbard.exact_ground_energy(spec)

        def estimate_run():
            workers = advantage.worker_count()
            pec_mean, pec_var, _ = simulator.run_pec_estimate(
                spec, noise_spec, shots, seed, workers=workers)
            raw_mean, raw_var = simulator.run_raw_estimate(
                spec, noise_spec, shots, seed, workers=workers)
            return {"pec_mean": pec_mean, "pec_variance": pec_var,
                    "raw_mean": raw_mean, "raw_variance": raw_var}

        def estimate_check(data: bytes) -> dict:
            doc = json.loads(data)
            _check_estimates(shots, e0, e_noisy, doc["pec_mean"], doc["pec_variance"],
                             doc["raw_mean"], doc["raw_variance"])
            return {}

        def estimate_traced(tr: Tracer, later: list) -> None:
            workers = advantage.worker_count()
            pec_call(tr, "simulator.pec", spec, noise_spec, shots, seed, workers)
            with tr.span("simulator.raw", shots=shots):
                simulator.run_raw_estimate(spec, noise_spec, shots, seed, workers=workers)
            later.append(lambda: pec_call(tr, "simulator.pec_serial", spec, noise_spec,
                                          shots, seed, 1))
            later.append(lambda: ground_vector(tr, spec))

        def as_json(result) -> bytes:
            return json.dumps(result, sort_keys=True).encode()

        ops += [
            Op(name="norm", metric="norm_s",
               run=cli_run("norm", lattice_path, "json", norm_out),
               artifact=lambda _: read(norm_out), check=norm_check, traced=norm_traced),
            Op(name="success", metric="success_s",
               run=cli_run("success", lattice_path, "json", success_out),
               artifact=lambda _: read(success_out), check=success_check,
               traced=success_traced),
            Op(name="ground_energy", metric="ground_energy_s",
               run=lambda: {"exact_ground_energy": hubbard.exact_ground_energy(spec)},
               artifact=as_json, check=ground_check, traced=ground_traced),
            Op(name="estimate", metric="estimate_s", run=estimate_run,
               artifact=as_json, check=estimate_check, traced=estimate_traced),
        ]
    return ops


# --- passes --------------------------------------------------------------

class State:
    """Counts, failures and the reference digest of each operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.info: dict[str, dict] = {}

    def fail(self, op: str, exc: BaseException) -> None:
        self.failed += 1
        message = f"{op}: {type(exc).__name__}: {exc}"
        if len(self.failures) < 20 and message not in self.failures:
            self.failures.append(message)


def _cpu() -> float:
    """CPU seconds of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def untraced_pass(ops: list[Op], state: State) -> dict:
    """Run every op as a user would; verify outputs after the pass.

    An op's first good output is fully checked and its digest kept; later
    outputs must match that digest byte for byte.  Returns the pass's
    timings; "ok" is false if any op failed, and per-metric sums then
    leave the failed ops out.
    """
    results, times, ok = {}, {}, True
    cpu0 = _cpu()
    start = time.perf_counter()
    for op in ops:
        state.attempted += 1
        t0 = time.perf_counter()
        try:
            results[op.name] = op.run()
        except (Exception, SystemExit) as exc:  # the op boundary: record and go on
            state.fail(op.name, exc)
            ok = False
            continue
        times[op.name] = time.perf_counter() - t0
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    for op in ops:
        if op.name not in results:
            continue
        try:
            data = op.artifact(results[op.name])
            digest = hashlib.sha256(data).hexdigest()
            if op.name in state.digests:
                _require(digest == state.digests[op.name],
                         f"output differs from the first pass ({digest[:12]} vs "
                         f"{state.digests[op.name][:12]})")
            else:
                state.info[op.name] = op.check(data)
                state.digests[op.name] = digest
        except Exception as exc:
            state.fail(op.name, exc)
            times.pop(op.name)
            ok = False
    sums: dict[str, float] = {}
    for op in ops:
        if op.name in times:
            sums[op.metric] = sums.get(op.metric, 0.0) + times[op.name]
    return {"ok": ok, "wall": wall, "cpu": cpu, "op_times": times, "sums": sums}


def traced_pass(ops: list[Op], state: State, tr: Tracer) -> int | None:
    """Repeat every op as spanned public calls; returns the pass span id."""
    later: list = []
    ok = True
    root = len(tr.spans)
    with tr.span("pass"):
        for op in ops:
            state.attempted += 1
            try:
                with tr.span(f"op.{op.name}"):
                    op.traced(tr, later)
            except Exception as exc:
                state.fail(f"traced {op.name}", exc)
                ok = False
        for call in later:
            try:
                call()
            except Exception as exc:
                state.fail("traced extra call", exc)
                ok = False
    return root if ok else None


# --- per-layer metrics ---------------------------------------------------

def layer_values(spans: list[dict], root: int, untraced: dict, info: dict) -> dict:
    """Per-layer metrics of one traced pass, paired with an untraced pass."""
    kids = children(spans)
    op_spans = [s for s in kids.get(root, []) if s["name"].startswith("op.")]
    extra_spans = [s for s in kids.get(root, []) if not s["name"].startswith("op.")]
    layer_spans = [c for s in op_spans for c in kids.get(s["id"], [])]

    def total(name: str) -> float:
        return sum(duration(s) for s in layer_spans + extra_spans if s["name"] == name)

    def count(name: str, key: str) -> float:
        return sum(s["counters"].get(key, 0) for s in layer_spans + extra_spans
                   if s["name"] == name)

    layer_sum = sum(duration(s) for s in layer_spans)
    untraced_ops = sum(untraced["op_times"].values())
    traced_wall = (op_spans[-1]["end"] - op_spans[0]["start"]) if op_spans else 0.0
    report_s = sum(total(f"report.{fmt}") for fmt in ("csv", "json", "svg"))
    report_bytes = sum(count(f"report.{fmt}", "bytes") for fmt in ("csv", "json", "svg"))
    sweep_s, cells = total("advantage.sweep"), count("advantage.sweep", "cells")
    pec_s, raw_s = total("simulator.pec"), total("simulator.raw")
    pec_shots, raw_shots = count("simulator.pec", "shots"), count("simulator.raw", "shots")
    pec_spans = [s for s in layer_spans if s["name"] == "simulator.pec"]
    shot_layers = sum(s["counters"]["shots"] * s["counters"]["layers"] for s in pec_spans)
    qubits = [s["counters"]["qubits"] for s in layer_spans if s["name"] == "hubbard.build"]
    return {
        "config.load_s": total("config.load"),
        "hubbard.build_s": total("hubbard.build"),
        "hubbard.terms": count("hubbard.build", "terms"),
        "hubbard.qubits": max(qubits, default=0),
        "hubbard.ground_s": total("hubbard.ground"),
        "hubbard.ground_vector_s": total("hubbard.ground_vector"),
        "advantage.sweep_s": sweep_s,
        "advantage.sweep_serial_s": total("advantage.sweep_serial"),
        "advantage.cells": cells,
        "advantage.cells_per_s": cells / sweep_s if sweep_s else 0.0,
        "centering.true_proxy_s": total("centering.true_proxy"),
        "centering.error_map_s": total("centering.error_map"),
        "centering.cells": count("centering.error_map", "cells"),
        "report.csv_s": total("report.csv"),
        "report.json_s": total("report.json"),
        "report.svg_s": total("report.svg"),
        "report.bytes": report_bytes,
        "report.mb_per_s": report_bytes / 1e6 / report_s if report_s else 0.0,
        "simulator.pec_s": pec_s,
        "simulator.pec_serial_s": total("simulator.pec_serial"),
        "simulator.raw_s": raw_s,
        "simulator.shots": pec_shots,
        "simulator.us_per_shot": ((pec_s + raw_s) / (pec_shots + raw_shots) * 1e6
                                  if pec_shots + raw_shots else 0.0),
        "simulator.twirl_rate": (sum(s["counters"]["twirls"] for s in pec_spans)
                                 / shot_layers if shot_layers else 0.0),
        "simulator.p_twirl": pec_spans[0]["counters"]["p_twirl"] if pec_spans else 0.0,
        "simulator.checks_s": total("simulator.checks"),
        "simulator.checks_passed": sum(v.get("checks_passed", 0) for v in info.values()),
        "cli.other_s": untraced_ops - layer_sum,
        "trace.coverage": layer_sum / untraced_ops if untraced_ops else 0.0,
        "trace.overhead_s": traced_wall - untraced["wall"],
    }


# --- main ----------------------------------------------------------------

def run(args) -> dict:
    size = SIZES["tiny" if args.tiny else "full"]
    paths = make_inputs(args.workload, args.seed, size, ROOT, args.workdir)
    ops = build_ops(args.workload, paths, args.workdir)
    state = State()
    tracer = Tracer(run_id=f"{args.workload}-s{args.seed}-{os.getpid()}") if args.trace else None

    # No separate warm-up: the first pass pays for cold caches and BLAS
    # start-up, and the per-pass median leaves that one slow pass out.
    passes: list[dict] = []
    layers: list[dict] = []
    iteration_s: list[float] = []
    begin = time.perf_counter()
    while True:
        it0 = time.perf_counter()
        result = untraced_pass(ops, state)
        passes.append(result)
        if tracer is not None:
            root = traced_pass(ops, state, tracer)
            if root is not None:
                layers.append(layer_values(tracer.spans, root, result, state.info))
        iteration_s.append(time.perf_counter() - it0)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(iteration_s) > args.seconds:
            break

    samples: dict[str, list[float]] = {"wall_s": [p["wall"] for p in passes],
                                       "cpu_s": [p["cpu"] for p in passes]}
    for p in passes:
        for metric, value in p["sums"].items():
            samples.setdefault(metric, []).append(value)
    out = {
        "attempted": state.attempted,
        "failed": state.failed,
        "failures": state.failures,
        "samples": samples,
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "artifacts": {op.name: {
            "sha256": state.digests.get(op.name),
            "median_s": statistics.median([p["op_times"][op.name] for p in passes
                                           if op.name in p["op_times"]] or [None])}
            for op in ops},
        "simulate_checks_passed": {k: v["checks_passed"] for k, v in state.info.items()
                                   if "checks_passed" in v},
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "kernel": simulator.active_kernel(),
            "workers": advantage.worker_count(),
            "machine": platform.machine(),
        },
    }
    if tracer is not None:
        errors = nesting_errors(tracer.spans)
        for message in errors[:5]:
            state.fail("trace", AssertionError(message))
        out["failed"], out["failures"] = state.failed, state.failures
        out["per_layer"] = {name: statistics.median(layer[name] for layer in layers)
                            for name in (layers[0] if layers else {})}
        out["spans"] = len(tracer.spans)
        out["trace_file"] = os.path.join(
            ROOT, ".perfbench_out", f"trace-{args.workload}-s{args.seed}.jsonl")
        tracer.write(out["trace_file"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("grid", "shots", "scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
