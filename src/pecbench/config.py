"""Run configuration: INI-style sections or an equivalent JSON document.

A config describes one benchmarking problem: the lattice model (or an
explicit Hamiltonian summary), certified energy bounds (per-site or
absolute), the layered circuit, the noise level (directly or via a
two-qubit gate error), shot/threshold/seed settings and optional sweep
axes.  Parsing is strict: unknown sections or keys, missing required
fields and mutually exclusive choices all raise ConfigError naming the
offending section and key.

_SCHEMA is the single source of each key's type, valid range and default
(the README's key table mirrors it); _validate holds only the rules that span
several keys.  Defaults never enter RunConfig.data, so config_hash covers
only what the file says.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import hubbard
from .advantage import AdvantageProblem
from .errors import CapacityError, ConfigError
from .noise import HamiltonianSummary, NoiseCircuitSpec, p_layer_from_gate_error

# Cells per [sweep] or [centering] grid: the artifacts peak at up to ~1.3 kB
# per cell (centering as svg), so about 1.3 GB at the cap.
MAX_GRID_CELLS = 1_000_000

# rule: the valid range as it reads after "must be"; test: its predicate;
# default None: required, one of a pair, or derived from other keys
_Key = namedtuple("_Key", "kind rule test default", defaults=(None,))

_FINITE = ("finite", math.isfinite)
# keeps the Hamiltonian's sums of squared weights inside float range
_COUPLING = ("in [-1e100, 1e100]", lambda v: -1e100 <= v <= 1e100)
_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
# counts and shot numbers enter float arithmetic, which is exact up to 2^53
_COUNT = (">= 1 and <= 2^53", lambda v: 1 <= v <= 2**53)
_PROBABILITY = ("in [0, 1)", lambda v: 0 <= v < 1)
_OPEN_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)

_SCHEMA = {
    "model": {"rows": _Key(int, *_COUNT), "cols": _Key(int, *_COUNT),
              "boundary": _Key(str, "open or periodic", lambda v: v in ("open", "periodic")),
              "t": _Key(float, *_COUPLING), "U": _Key(float, *_COUPLING),
              "mu": _Key(float, *_COUPLING)},
    "hamiltonian": {"norm2_squared": _Key(float, *_POSITIVE),
                    "trace_over_d": _Key(float, *_FINITE), "sites": _Key(int, *_COUNT)},
    "bounds": {key: _Key(float, *_FINITE)
               for key in ("e_minus_per_site", "e_plus_per_site", "e_minus", "e_plus")},
    # defaults derived from the lattice: layers = L, qubits = 2L
    "circuit": {"layers": _Key(int, *_COUNT), "qubits": _Key(int, *_COUNT)},
    "noise": {"p_layer": _Key(float, *_PROBABILITY), "p_2q": _Key(float, *_PROBABILITY),
              "gates_per_layer": _Key(int, *_COUNT), "beta": _Key(float, *_POSITIVE, 1.0)},
    "run": {"shots": _Key(float, "finite and >= 1", lambda v: 1 <= v < math.inf, 1000.0),
            "threshold": _Key(float, *_OPEN_UNIT, 0.95),
            # seeds key 64-bit Philox streams; others would alias in-range ones
            "seed": _Key(int, "in [0, 2^64)", lambda v: 0 <= v < 2**64, 0)},
    "sweep": {"p_min": _Key(float, *_OPEN_UNIT, 1e-5), "p_max": _Key(float, *_OPEN_UNIT, 1e-1),
              "p_points": _Key(int, *_COUNT, 60),
              "shots_min": _Key(float, *_COUNT, 1.0), "shots_max": _Key(float, *_COUNT, 1e6),
              "shots_points": _Key(int, *_COUNT, 60)},
    "centering": {"shift_points": _Key(int, *_COUNT, 100),
                  "width_points": _Key(int, *_COUNT, 100)},
    # the batch-means normality check needs batches of >= 100 shots
    "simulate": {"shots": _Key(int, *_COUNT, 200_000),
                 "batch": _Key(int, ">= 100", lambda v: v >= 100, 500)},
}


def check_value(section: str, key: str, value, name: str | None = None):
    """value, if in [section] key's range; else a ConfigError naming `name` or the key."""
    spec = _SCHEMA[section][key]
    if not spec.test(value):
        raise ConfigError(f"{name or f'[{section}] {key}'} must be {spec.rule}, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Normalized configuration plus the canonical dict it was parsed from."""

    data: dict = field(repr=False)

    def _get(self, section: str, key: str):
        """The parsed value, else the schema default."""
        return self.data.get(section, {}).get(key, _SCHEMA[section][key].default)

    def _grid_points(self, section: str, rows: str, cols: str) -> tuple[int, int]:
        """A grid's two point counts, refused above MAX_GRID_CELLS cells."""
        n_rows, n_cols = self._get(section, rows), self._get(section, cols)
        if n_rows * n_cols > MAX_GRID_CELLS:
            raise CapacityError(
                f"[{section}] {rows} x [{section}] {cols} = {n_rows * n_cols} cells, "
                f"over the cap of {MAX_GRID_CELLS}")
        return n_rows, n_cols

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
        layers = self._get("circuit", "layers")
        return self.sites() if layers is None else layers

    def qubits(self) -> int:
        qubits = self._get("circuit", "qubits")
        return 2 * self.sites() if qubits is None else qubits

    def seed(self) -> int:
        return self._get("run", "seed")

    def shots(self) -> float:
        return self._get("run", "shots")

    def threshold(self) -> float:
        return self._get("run", "threshold")

    def p_layer(self) -> float:
        noise = self.data.get("noise", {})
        if "p_layer" in noise:
            return noise["p_layer"]
        return p_layer_from_gate_error(noise["p_2q"], noise["gates_per_layer"])

    def noise_spec(self) -> NoiseCircuitSpec:
        return NoiseCircuitSpec(layers=self.layers(), p_layer=self.p_layer(),
                                qubits=self.qubits(), beta=self._get("noise", "beta"))

    def norm_summary(self) -> tuple[float, float, int | None]:
        """(norm2_squared, trace_over_d, term count) in absolute units.

        An explicit [hamiltonian] lists no terms, so its count is None.
        """
        explicit = self.data.get("hamiltonian")
        if explicit is not None:
            return explicit["norm2_squared"], explicit["trace_over_d"], None
        return hubbard.norm_summary(self.hubbard_spec())

    def bounds(self) -> tuple[float, float, bool]:
        """(e_minus, e_plus, per_site) in the units the engine will use."""
        bounds = self.data["bounds"]
        if "e_minus_per_site" in bounds:
            return bounds["e_minus_per_site"], bounds["e_plus_per_site"], True
        return bounds["e_minus"], bounds["e_plus"], False

    def hamiltonian_summary(self) -> HamiltonianSummary:
        """The engine's summary: per-site bounds divide the norm and trace by L.

        e0_proxy is the midpoint of the bounds.  Zero couplings leave no
        non-identity Pauli weight: `norm` reports them, but the analytic laws
        and the simulator need norm2 > 0.  Only a [model] can get here with
        norm2_squared = 0 (the schema wants an explicit norm2_squared > 0).
        """
        norm2sq, trace_over_d, _ = self.norm_summary()
        if norm2sq == 0.0:
            raise ConfigError("[model] t, U and mu give a Hamiltonian whose non-identity "
                              "Pauli weights square to 0 (norm2_squared = 0); there is "
                              "nothing to estimate")
        e_minus, e_plus, per_site = self.bounds()
        sites = self.sites() if per_site else 1
        return HamiltonianSummary(norm2=math.sqrt(norm2sq / sites),
                                  trace_over_d=trace_over_d / sites,
                                  e0_proxy=0.5 * (e_minus + e_plus))

    def advantage_problem(self) -> AdvantageProblem:
        e_minus, e_plus, _ = self.bounds()
        return AdvantageProblem(
            e_minus=e_minus, e_plus=e_plus, ham=self.hamiltonian_summary(),
            noise=self.noise_spec(), threshold=self.threshold())

    def _sweep_axis(self, lo: str, hi: str, axis: int) -> np.ndarray:
        points = self._grid_points("sweep", "p_points", "shots_points")[axis]
        return np.logspace(math.log10(self._get("sweep", lo)),
                           math.log10(self._get("sweep", hi)), points)

    def p_axis(self) -> np.ndarray:
        return self._sweep_axis("p_min", "p_max", 0)

    def shot_axis(self) -> np.ndarray:
        """Log-spaced shot counts, deduplicated after int rounding."""
        grid = self._sweep_axis("shots_min", "shots_max", 1)
        return np.unique(np.round(grid).astype(np.int64))

    def centering_axes(self) -> tuple[int, int]:
        return self._grid_points("centering", "shift_points", "width_points")

    def simulate_shots(self) -> int:
        return self._get("simulate", "shots")

    def simulate_batch(self) -> int:
        return self._get("simulate", "batch")


def config_hash(config: RunConfig) -> str:
    """Stable hash of the normalized config contents."""
    canonical = json.dumps(config.data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _coerce(section: str, key: str, raw):
    kind = _SCHEMA[section][key].kind
    try:
        value = kind(str(raw))
    except ValueError as exc:
        raise ConfigError(
            f"[{section}] {key}: cannot parse {raw!r} as {kind.__name__}") from exc
    return check_value(section, key, value)


def _normalize(sections: dict) -> dict:
    data = {}
    for section, entries in sections.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        out = {}
        for key, raw in entries.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            out[key] = _coerce(section, key, raw)
        data[section] = out
    return data


def _validate(data: dict) -> dict:
    """The rules that span more than one key; single values are checked in _coerce."""
    has_model, has_explicit = "model" in data, "hamiltonian" in data
    if has_model == has_explicit:
        raise ConfigError("exactly one of [model] and [hamiltonian] is required")
    section = "model" if has_model else "hamiltonian"
    for key in _SCHEMA[section]:
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
        p_layer = p_layer_from_gate_error(noise["p_2q"], noise["gates_per_layer"])
        if p_layer >= 1.0:
            raise ConfigError("[noise] p_2q and gates_per_layer give a layer error of "
                              f"{p_layer}, which must be in [0, 1)")

    sweep = data.get("sweep", {})
    for lo, hi, points in (("p_min", "p_max", "p_points"),
                           ("shots_min", "shots_max", "shots_points")):
        if (lo in sweep) != (hi in sweep):
            given, missing = (lo, hi) if lo in sweep else (hi, lo)
            raise ConfigError(f"[sweep] {given} given without {missing}")
        if points in sweep and lo not in sweep:
            raise ConfigError(f"[sweep] {points} given without {lo} and {hi}")
        if lo in sweep and sweep[lo] > sweep[hi]:
            raise ConfigError(f"[sweep] {lo} must be <= [sweep] {hi}, "
                              f"got {sweep[lo]} > {sweep[hi]}")
    # equal p ends give no strictly increasing axis; equal shot ends are fine,
    # because shot_axis deduplicates its rounded counts
    p_points = sweep.get("p_points", _SCHEMA["sweep"]["p_points"].default)
    if "p_min" in sweep and sweep["p_min"] == sweep["p_max"] and p_points != 1:
        raise ConfigError("[sweep] p_points must be 1 when [sweep] p_min = "
                          f"[sweep] p_max, got {p_points}")
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
