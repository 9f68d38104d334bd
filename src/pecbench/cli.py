"""Command-line front end.

Subcommands: norm, success, phase-diagram, centering, simulate.  Each takes
--config (INI or JSON), optional --output / --format / --seed.  Exit codes:
0 success, 2 config/validation errors, 3 capacity errors, 4 numeric-domain
errors.  When simulate's Pauli-frame kernel is exact: see pecbench.simulator.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import centering
from .advantage import sweep
from .config import RunConfig, check_value, config_hash, load_config
from .errors import CapacityError, ConfigError, NumericDomainError, ValidationError
from .report import (
    centering_artifact,
    grid_to_csv,
    grid_to_json,
    grid_to_svg,
    make_provenance,
    phase_artifact,
    report_to_json,
)
from .simulator import simulate_report

_EMITTERS = {"csv": grid_to_csv, "json": grid_to_json, "svg": grid_to_svg}


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --output {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _seeded(config: RunConfig, override: int | None) -> int:
    return config.seed() if override is None else override


def cmd_norm(config: RunConfig, args) -> str:
    norm2sq, trace_over_d, term_count = config.norm_summary()
    report = {"norm2_squared": norm2sq, "trace_over_d": trace_over_d,
              "term_count": term_count, "config_hash": config_hash(config)}
    if term_count is None:
        report["source"] = "explicit"
    else:
        report.update(qubits=config.hubbard_spec().qubits, source="model")
    return report_to_json(report)


def cmd_success(config: RunConfig, args) -> str:
    prob = config.advantage_problem()
    p = config.p_layer()
    n_shots = config.shots()
    cell = sweep(prob, [p], [n_shots])
    report = {
        "p": p,
        "n_shots": n_shots,
        "threshold": prob.threshold,
        "pec_success": float(cell.pec_success[0, 0]),
        "raw_success": float(cell.raw_success[0, 0]),
        "label": str(cell.label[0, 0]),
        "config_hash": config_hash(config),
    }
    return report_to_json(report)


def cmd_phase_diagram(config: RunConfig, args) -> str:
    prob = config.advantage_problem()
    grid = sweep(prob, config.p_axis(), config.shot_axis())
    artifact = phase_artifact(
        grid, make_provenance(config_hash(config), _seeded(config, args.seed)))
    return _EMITTERS[args.format](artifact)


def cmd_centering(config: RunConfig, args) -> str:
    n_shift, n_width = config.centering_axes()
    shift_axis = centering.default_shift_axis(n_shift)
    width_axis = centering.default_width_axis(n_width)
    true_grid, proxy_grid, error_grid = centering.success_maps(shift_axis, width_axis)

    region = np.ix_(shift_axis <= 0.8, width_axis < 0.1)
    region_max = float(np.nanmax(error_grid[region]))
    provenance = make_provenance(config_hash(config), _seeded(config, args.seed))
    provenance["region_max"] = f"{region_max:.11e}"

    artifact = centering_artifact(shift_axis, width_axis, true_grid, proxy_grid,
                                  error_grid, provenance)
    return _EMITTERS[args.format](artifact)


def cmd_simulate(config: RunConfig, args) -> str:
    spec = config.hubbard_spec()
    if spec is None:
        raise ConfigError("simulate requires a [model] section (an explicit "
                          "[hamiltonian] summary cannot be simulated)")
    if config.qubits() != spec.qubits:
        raise ConfigError(f"[circuit] qubits must be 2 x [model] rows x [model] cols = "
                          f"{spec.qubits}, got {config.qubits()}")
    shots, batch = config.simulate_shots(), config.simulate_batch()
    # the batch-means normality check needs >= 50 batches
    if shots < 50 * batch:
        raise ConfigError(f"[simulate] shots must be >= 50 x [simulate] batch = "
                          f"{50 * batch}, got {shots}")
    config.hamiltonian_summary()  # refuses zero couplings by key
    seed = _seeded(config, args.seed)
    report = simulate_report(spec, config.noise_spec(), n_shots=shots, seed=seed,
                             batch=batch)
    report["provenance"] = make_provenance(config_hash(config), seed)
    return report_to_json(report)


# subcommand -> (handler, its artifact formats, the first being the default)
_COMMANDS = {
    "norm": (cmd_norm, ("json",)),
    "success": (cmd_success, ("json",)),
    "phase-diagram": (cmd_phase_diagram, tuple(_EMITTERS)),
    "centering": (cmd_centering, tuple(_EMITTERS)),
    "simulate": (cmd_simulate, ("json",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pecbench",
        description="Shot-budget-aware quantum-advantage benchmarking with "
                    "probabilistic error cancellation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, formats) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=func.__doc__)
        cmd.add_argument("--config", required=True, help="INI or JSON config file")
        cmd.add_argument("--output", default=None, help="write here instead of stdout")
        cmd.add_argument("--format", default=formats[0], choices=formats,
                         help=f"artifact format (default: {formats[0]})")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_value("run", "seed", args.seed, "--seed")
        config = load_config(args.config)
        text = _COMMANDS[args.command][0](config, args)
        _emit(text, args.output)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericDomainError as exc:
        print(f"numeric-domain error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
