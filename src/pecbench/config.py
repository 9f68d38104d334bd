"""Run configuration: INI-style sections or an equivalent JSON document.

A config describes one benchmarking problem: the lattice model (or an
explicit Hamiltonian summary), certified energy bounds (per-site or
absolute), the layered circuit, the noise level (directly or via a
two-qubit gate error), shot/threshold/seed settings and optional sweep
axes.  Parsing is strict: unknown sections or keys, missing required
fields and mutually exclusive choices all raise ConfigError naming the
offending section and key.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hubbard
from .advantage import AdvantageProblem, default_p_axis, default_shot_axis, per_site_summary
from .errors import ConfigError
from .noise import HamiltonianSummary, NoiseCircuitSpec, p_layer_from_gate_error

_SCHEMA = {
    "model": {"rows": int, "cols": int, "boundary": str, "t": float, "U": float, "mu": float},
    "hamiltonian": {"norm2_squared": float, "trace_over_d": float, "sites": int},
    "bounds": {"e_minus_per_site": float, "e_plus_per_site": float,
               "e_minus": float, "e_plus": float},
    "circuit": {"layers": int, "qubits": int},
    "noise": {"p_layer": float, "p_2q": float, "gates_per_layer": int, "beta": float},
    "run": {"shots": float, "threshold": float, "seed": int},
    "sweep": {"p_min": float, "p_max": float, "p_points": int,
              "shots_min": float, "shots_max": float, "shots_points": int},
    "centering": {"shift_points": int, "width_points": int},
    "simulate": {"shots": int, "batch": int},
}


@dataclass(frozen=True)
class RunConfig:
    """Normalized configuration plus the canonical dict it was parsed from."""

    data: dict = field(repr=False)

    # --- derived objects -----------------------------------------------

    def hubbard_spec(self) -> hubbard.HubbardSpec | None:
        model = self.data.get("model")
        if model is None:
            return None
        return hubbard.HubbardSpec(
            rows=model["rows"], cols=model["cols"], boundary=model["boundary"],
            t=model["t"], U=model["U"], mu=model["mu"])

    def sites(self) -> int:
        spec = self.hubbard_spec()
        if spec is not None:
            return spec.sites
        return self.data["hamiltonian"]["sites"]

    def layers(self) -> int:
        circuit = self.data.get("circuit", {})
        return circuit["layers"] if "layers" in circuit else self.sites()

    def qubits(self) -> int:
        circuit = self.data.get("circuit", {})
        return circuit["qubits"] if "qubits" in circuit else 2 * self.sites()

    def seed(self) -> int:
        return self.data.get("run", {}).get("seed", 0)

    def shots(self) -> float:
        return self.data.get("run", {}).get("shots", 1000.0)

    def threshold(self) -> float:
        return self.data.get("run", {}).get("threshold", 0.95)

    def p_layer(self) -> float:
        noise = self.data.get("noise", {})
        if "p_layer" in noise:
            return noise["p_layer"]
        return p_layer_from_gate_error(noise["p_2q"], noise["gates_per_layer"])

    def noise_spec(self) -> NoiseCircuitSpec:
        beta = self.data.get("noise", {}).get("beta", 1.0)
        return NoiseCircuitSpec(layers=self.layers(), p_layer=self.p_layer(),
                                qubits=self.qubits(), beta=beta)

    def _norm_quantities(self) -> tuple[float, float]:
        """(norm2_squared, trace_over_d), absolute units."""
        explicit = self.data.get("hamiltonian")
        if explicit is not None:
            return explicit["norm2_squared"], explicit["trace_over_d"]
        decomp = hubbard.build_hubbard_pauli(self.hubbard_spec())
        return hubbard.norm2_squared(decomp), decomp.identity_coefficient

    def bounds(self) -> tuple[float, float, bool]:
        """(e_minus, e_plus, per_site) in the units the engine will use."""
        bounds = self.data["bounds"]
        if "e_minus_per_site" in bounds:
            return bounds["e_minus_per_site"], bounds["e_plus_per_site"], True
        return bounds["e_minus"], bounds["e_plus"], False

    def hamiltonian_summary(self) -> HamiltonianSummary:
        norm2sq, trace_over_d = self._norm_quantities()
        e_minus, e_plus, per_site = self.bounds()
        midpoint = 0.5 * (e_minus + e_plus)
        if per_site:
            sites = self.sites()
            return per_site_summary(norm2sq, trace_over_d, midpoint * sites, sites)
        return HamiltonianSummary(norm2=math.sqrt(norm2sq),
                                  trace_over_d=trace_over_d, e0_proxy=midpoint)

    def advantage_problem(self) -> AdvantageProblem:
        e_minus, e_plus, _ = self.bounds()
        return AdvantageProblem(
            e_minus=e_minus, e_plus=e_plus, ham=self.hamiltonian_summary(),
            noise=self.noise_spec(), threshold=self.threshold())

    def p_axis(self) -> np.ndarray:
        sweep = self.data.get("sweep", {})
        if "p_min" in sweep:
            return np.logspace(math.log10(sweep["p_min"]),
                               math.log10(sweep["p_max"]),
                               sweep.get("p_points", 60))
        return default_p_axis()

    def shot_axis(self) -> np.ndarray:
        sweep = self.data.get("sweep", {})
        if "shots_min" in sweep:
            grid = np.logspace(math.log10(sweep["shots_min"]),
                               math.log10(sweep["shots_max"]),
                               sweep.get("shots_points", 60))
            return np.unique(np.round(grid).astype(np.int64))
        return default_shot_axis()

    def centering_axes(self) -> tuple[int, int]:
        cent = self.data.get("centering", {})
        return cent.get("shift_points", 100), cent.get("width_points", 100)

    def simulate_shots(self) -> int:
        return self.data.get("simulate", {}).get("shots", 200_000)

    def simulate_batch(self) -> int:
        return self.data.get("simulate", {}).get("batch", 500)


def config_hash(config: RunConfig) -> str:
    """Stable hash of the normalized config contents."""
    canonical = json.dumps(config.data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _coerce(section: str, key: str, raw, kind):
    try:
        if kind is int:
            value = int(str(raw))
        elif kind is float:
            value = float(str(raw))
        else:
            value = str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from exc
    return value


def _normalize(sections: dict) -> dict:
    data = {}
    for section, entries in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        keys = _SCHEMA[section]
        out = {}
        for key, raw in entries.items():
            if key not in keys:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            out[key] = _coerce(section, key, raw, keys[key])
        data[section] = out
    return data


def _validate(data: dict) -> dict:
    has_model = "model" in data and data["model"]
    has_explicit = "hamiltonian" in data and data["hamiltonian"]
    if has_model == has_explicit:
        raise ConfigError("exactly one of [model] and [hamiltonian] is required")
    required = _SCHEMA["model"] if has_model else _SCHEMA["hamiltonian"]
    section = "model" if has_model else "hamiltonian"
    for key in required:
        if key not in data[section]:
            raise ConfigError(f"[{section}] missing key {key!r}")

    bounds = data.get("bounds")
    if not bounds:
        raise ConfigError("section [bounds] is required")
    per_site = {"e_minus_per_site", "e_plus_per_site"} & set(bounds)
    absolute = {"e_minus", "e_plus"} & set(bounds)
    if bool(per_site) == bool(absolute):
        raise ConfigError(
            "[bounds] needs either e_minus_per_site/e_plus_per_site or e_minus/e_plus")
    pair = sorted(per_site or absolute)
    if len(pair) != 2:
        raise ConfigError(f"[bounds] incomplete pair: only {pair[0]!r} given")
    for key in pair:
        if not math.isfinite(bounds[key]):
            raise ConfigError(f"[bounds] {key} must be finite, got {bounds[key]}")
    lo, hi = (bounds[pair[0]], bounds[pair[1]])
    if not lo < hi:
        raise ConfigError(f"[bounds] out of order: {pair[0]}={lo} >= {pair[1]}={hi}")

    noise = data.get("noise", {})
    direct = "p_layer" in noise
    via_gates = {"p_2q", "gates_per_layer"} & set(noise)
    if direct and via_gates:
        raise ConfigError("[noise] p_layer and p_2q/gates_per_layer are mutually exclusive")
    if not direct:
        if via_gates != {"p_2q", "gates_per_layer"}:
            raise ConfigError("[noise] needs p_layer or both p_2q and gates_per_layer")

    if "beta" in noise and not 0 < noise["beta"] < math.inf:
        raise ConfigError(f"[noise] beta must be finite and > 0, got {noise['beta']}")

    run = data.get("run", {})
    if "threshold" in run and not 0.0 < run["threshold"] < 1.0:
        raise ConfigError(f"[run] threshold must lie in (0, 1), got {run['threshold']}")
    if "shots" in run and not 1 <= run["shots"] < math.inf:
        raise ConfigError(f"[run] shots must be finite and >= 1, got {run['shots']}")

    explicit = data.get("hamiltonian", {})
    if "norm2_squared" in explicit and not 0 < explicit["norm2_squared"] < math.inf:
        raise ConfigError("[hamiltonian] norm2_squared must be finite and > 0, "
                          f"got {explicit['norm2_squared']}")
    if "trace_over_d" in explicit and not math.isfinite(explicit["trace_over_d"]):
        raise ConfigError(
            f"[hamiltonian] trace_over_d must be finite, got {explicit['trace_over_d']}")
    for section, key in (("hamiltonian", "sites"), ("circuit", "layers"),
                         ("circuit", "qubits"), ("simulate", "shots"), ("simulate", "batch"),
                         ("sweep", "p_points"), ("sweep", "shots_points"),
                         ("centering", "shift_points"), ("centering", "width_points")):
        value = data.get(section, {}).get(key)
        if value is not None and value < 1:
            raise ConfigError(f"[{section}] {key} must be >= 1, got {value}")

    sweep = data.get("sweep", {})
    for lo, hi, points, top, rule in (
            ("p_min", "p_max", "p_points", 1.0, "in (0, 1)"),
            ("shots_min", "shots_max", "shots_points", math.inf, "finite and > 0")):
        if (lo in sweep) != (hi in sweep):
            given, missing = (lo, hi) if lo in sweep else (hi, lo)
            raise ConfigError(f"[sweep] {given} given without {missing}")
        if points in sweep and lo not in sweep:
            raise ConfigError(f"[sweep] {points} given without {lo} and {hi}")
        for key in (lo, hi):
            if key in sweep and not 0 < sweep[key] < top:
                raise ConfigError(f"[sweep] {key} must be {rule}, got {sweep[key]}")
    return data


def parse_config_dict(sections: dict) -> RunConfig:
    return RunConfig(data=_validate(_normalize(sections)))


def load_config(path: str) -> RunConfig:
    """Parse an INI config, or a JSON document if the file ends in .json."""
    if path.endswith(".json"):
        try:
            with open(path) as handle:
                sections = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(sections, dict) or not all(
                isinstance(v, dict) for v in sections.values()):
            raise ConfigError(f"{path}: JSON config must map sections to key/value objects")
        return parse_config_dict(sections)

    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (U vs u)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections = {name: dict(parser[name]) for name in parser.sections()}
    return parse_config_dict(sections)
