import json
import math
from pathlib import Path

import numpy as np
import pytest

from pecbench.advantage import RegimeGrid, sweep
from pecbench.config import config_hash, load_config, parse_config_dict
from pecbench.errors import ConfigError, ValidationError
from pecbench.report import (
    GridArtifact,
    centering_artifact,
    grid_to_csv,
    grid_to_json,
    grid_to_svg,
    make_provenance,
    parse_grid_csv,
    parse_grid_json,
    phase_artifact,
)

from oracles import (
    _ramp_color,
    centering_artifact_reference,
    grid_csv_reference,
    grid_json_reference,
    grid_svg_reference,
)

REFERENCE_CFG = str(Path(__file__).resolve().parent.parent
                    / "configs" / "reference_instance.cfg")


def _reference_sections():
    return {
        "model": {"rows": 8, "cols": 8, "boundary": "periodic",
                  "t": 1.0, "U": 8.0, "mu": 3.75},
        "bounds": {"e_minus_per_site": -4.544, "e_plus_per_site": -3.8365},
        "circuit": {"layers": 64, "qubits": 128},
        "noise": {"p_layer": 4e-3},
        "run": {"shots": 1000, "threshold": 0.95, "seed": 1234},
    }


def test_ini_and_json_configs_are_equivalent(tmp_path):
    ini_config = load_config(REFERENCE_CFG)
    json_path = tmp_path / "reference.json"
    json_path.write_text(json.dumps(_reference_sections()))
    json_config = load_config(str(json_path))
    assert ini_config.data == json_config.data
    assert config_hash(ini_config) == config_hash(json_config)


def test_reference_config_builds_reference_problem():
    # the bundled config is the reference instance's single declaration
    prob = load_config(REFERENCE_CFG).advantage_problem()
    assert (prob.e_minus, prob.e_plus) == (-4.544, -3.8365)
    # per-site units: norm2_squared = 386 and Tr[H]/d = -112 over L = 64 sites
    assert prob.ham.norm2 == math.sqrt(386 / 64)
    assert prob.ham.trace_over_d == -112 / 64
    assert prob.ham.e0_proxy == prob.midpoint
    assert (prob.noise.layers, prob.noise.qubits) == (64, 128)
    assert prob.noise.p_layer == 4e-3
    assert prob.threshold == 0.95


def test_defaults_derived_from_lattice():
    sections = _reference_sections()
    del sections["circuit"]
    config = parse_config_dict(sections)
    assert config.layers() == 64
    assert config.qubits() == 128


def test_gate_error_noise_path():
    sections = _reference_sections()
    sections["noise"] = {"p_2q": 3e-4, "gates_per_layer": 128}
    config = parse_config_dict(sections)
    assert config.p_layer() == pytest.approx(1.0 - (1.0 - 3e-4) ** 128, rel=1e-12)


def test_explicit_hamiltonian_with_absolute_bounds():
    config = parse_config_dict({
        "hamiltonian": {"norm2_squared": 386.0, "trace_over_d": -112.0, "sites": 64},
        "bounds": {"e_minus": -290.8, "e_plus": -245.5},
        "circuit": {"layers": 64, "qubits": 128},
        "noise": {"p_layer": 1e-3},
    })
    summary = config.hamiltonian_summary()
    assert summary.norm2 == pytest.approx(math.sqrt(386.0), rel=1e-14)
    assert summary.trace_over_d == -112.0
    assert summary.e0_proxy == pytest.approx(-268.15, rel=1e-12)


def test_config_error_messages_name_the_field():
    base = _reference_sections()

    bad = {k: dict(v) for k, v in base.items()}
    bad["noise"] = {"p_layer": 1e-3, "p_2q": 1e-4, "gates_per_layer": 10}
    with pytest.raises(ConfigError, match="noise"):
        parse_config_dict(bad)

    bad = {k: dict(v) for k, v in base.items()}
    bad["bounds"] = {"e_minus_per_site": -1.0}
    with pytest.raises(ConfigError, match="bounds"):
        parse_config_dict(bad)

    bad = {k: dict(v) for k, v in base.items()}
    bad["bounds"] = {"e_minus_per_site": -1.0, "e_plus_per_site": -2.0}
    with pytest.raises(ConfigError, match="out of order"):
        parse_config_dict(bad)

    bad = {k: dict(v) for k, v in base.items()}
    bad["model"]["rows"] = "eight"
    with pytest.raises(ConfigError, match="rows"):
        parse_config_dict(bad)

    sweep = {"p_min": 1e-4, "p_max": 1e-2, "shots_min": 10, "shots_max": 1e5}
    for section, entries, field in (
            ("simulate", {"batch": 0}, r"\[simulate\] batch"),
            ("simulate", {"shots": 0}, r"\[simulate\] shots"),
            ("simulate", {"shots": -5}, r"\[simulate\] shots"),
            ("bounds", {"e_minus_per_site": -4.5, "e_plus_per_site": math.inf},
             r"\[bounds\] e_plus_per_site"),
            ("bounds", {"e_minus_per_site": -math.inf, "e_plus_per_site": -3.8},
             r"\[bounds\] e_minus_per_site"),
            ("bounds", {"e_minus": math.nan, "e_plus": -3.8}, r"\[bounds\] e_minus"),
            ("sweep", {**sweep, "p_max": 1.5}, r"\[sweep\] p_max"),
            ("sweep", {**sweep, "p_max": 1.0}, r"\[sweep\] p_max"),
            ("sweep", {**sweep, "p_min": 1.5, "p_max": 2.0}, r"\[sweep\] p_min"),
            ("sweep", {**sweep, "shots_max": math.inf}, r"\[sweep\] shots_max"),
            ("sweep", {**sweep, "shots_min": math.nan}, r"\[sweep\] shots_min"),
            ("sweep", {**sweep, "shots_min": 0}, r"\[sweep\] shots_min"),
            ("sweep", {**sweep, "p_max": -1e-2}, r"\[sweep\] p_max"),
            ("sweep", {"p_min": 1e-4}, r"\[sweep\] p_min given without p_max"),
            ("sweep", {"shots_max": 1e5}, r"\[sweep\] shots_max given without shots_min"),
            ("circuit", {"layers": 0, "qubits": 128}, r"\[circuit\] layers"),
            ("circuit", {"layers": 64, "qubits": 0}, r"\[circuit\] qubits"),
            ("sweep", {**sweep, "p_points": 0}, r"\[sweep\] p_points must be >= 1"),
            ("sweep", {**sweep, "shots_points": 0}, r"\[sweep\] shots_points must be >= 1"),
            ("sweep", {"p_points": 5}, r"\[sweep\] p_points given without p_min"),
            ("sweep", {"shots_points": 5}, r"\[sweep\] shots_points given without"),
            ("centering", {"shift_points": 0}, r"\[centering\] shift_points"),
            ("centering", {"width_points": 0}, r"\[centering\] width_points"),
            ("run", {"shots": math.inf}, r"\[run\] shots"),
            ("run", {"shots": math.nan}, r"\[run\] shots"),
            ("run", {"shots": 0.5}, r"\[run\] shots"),
            ("noise", {"p_layer": 1e-3, "beta": math.nan}, r"\[noise\] beta"),
            ("noise", {"p_layer": 1e-3, "beta": math.inf}, r"\[noise\] beta"),
            ("noise", {"p_layer": 1e-3, "beta": 0.0}, r"\[noise\] beta"),
            ("model", {**base["model"], "rows": 0}, r"\[model\] rows must be >= 1 and <= 2\^53, got 0"),
            ("model", {**base["model"], "cols": -3}, r"\[model\] cols"),
            ("model", {**base["model"], "boundary": "twisted"}, r"\[model\] boundary"),
            ("model", {**base["model"], "t": math.nan}, r"\[model\] t must be in"),
            ("model", {**base["model"], "t": 1e308}, r"\[model\] t"),
            ("model", {**base["model"], "U": math.inf}, r"\[model\] U"),
            ("model", {**base["model"], "mu": -math.inf}, r"\[model\] mu"),
            ("noise", {"p_layer": 1.5}, r"^\[noise\] p_layer must be in \[0, 1\), got 1\.5$"),
            ("noise", {"p_layer": -1e-3}, r"\[noise\] p_layer"),
            ("noise", {"p_2q": 1.0, "gates_per_layer": 10}, r"\[noise\] p_2q"),
            ("noise", {"p_2q": 1e-3, "gates_per_layer": 0}, r"\[noise\] gates_per_layer"),
            ("noise", {"p_2q": 0.5, "gates_per_layer": 5000},
             r"\[noise\] p_2q and gates_per_layer"),
            ("run", {"seed": -5}, r"\[run\] seed must be in \[0, 2\^64\), got -5"),
            ("run", {"seed": 2**64}, r"\[run\] seed"),
            ("run", {"threshold": 1.0}, r"\[run\] threshold"),
            ("circuit", {"layers": 2**53 + 1, "qubits": 128}, r"\[circuit\] layers"),
            ("simulate", {"batch": 50}, r"\[simulate\] batch must be >= 100"),
            ("sweep", {**sweep, "shots_max": 1e20}, r"\[sweep\] shots_max"),
            ("sweep", {**sweep, "p_min": 1e-2, "p_max": 1e-4},
             r"\[sweep\] p_min must be <= \[sweep\] p_max"),
            ("sweep", {**sweep, "shots_min": 1e5, "shots_max": 10},
             r"\[sweep\] shots_min must be <= \[sweep\] shots_max")):
        with pytest.raises(ConfigError, match=field):
            parse_config_dict({**base, section: entries})

    explicit = {"norm2_squared": 386.0, "trace_over_d": -112.0, "sites": 64}
    for key, value, field in (("norm2_squared", -1.0, r"\[hamiltonian\] norm2_squared"),
                              ("norm2_squared", 0.0, r"\[hamiltonian\] norm2_squared"),
                              ("norm2_squared", math.nan, r"\[hamiltonian\] norm2_squared"),
                              ("norm2_squared", math.inf, r"\[hamiltonian\] norm2_squared"),
                              ("trace_over_d", math.nan, r"\[hamiltonian\] trace_over_d"),
                              ("sites", 0, r"\[hamiltonian\] sites")):
        sections = {k: v for k, v in base.items() if k != "model"}
        sections["hamiltonian"] = {**explicit, key: value}
        with pytest.raises(ConfigError, match=field):
            parse_config_dict(sections)

    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_dict({**base, "extras": {"x": 1}})
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config_dict({"bounds": base["bounds"]})
    # both sections, even an empty one, are refused
    for summary in (explicit, {}):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_dict({**base, "hamiltonian": summary})


def test_config_hash_is_content_addressed(tmp_path):
    config = load_config(REFERENCE_CFG)
    sections = _reference_sections()
    sections["run"]["seed"] = 9999
    other = parse_config_dict(sections)
    assert config_hash(config) != config_hash(other)


def _small_artifact():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    grid = sweep(prob, np.array([1e-4, 4e-3]), np.array([10.0, 1000.0, 1e6]),
                 workers=1)
    return phase_artifact(grid, make_provenance("deadbeef00000000", 7))


def test_phase_artifact_round_trips_csv():
    artifact = _small_artifact()
    text = grid_to_csv(artifact)
    parsed = parse_grid_csv(text)
    assert parsed == artifact
    assert grid_to_csv(parsed) == text
    header = [line for line in text.splitlines() if not line.startswith("#")][0]
    assert header == "p,n_shots,pec_success,raw_success,label"


def test_phase_artifact_round_trips_json():
    artifact = _small_artifact()
    text = grid_to_json(artifact)
    assert parse_grid_json(text) == artifact
    assert grid_to_json(parse_grid_json(text)) == text


def test_csv_values_have_12_significant_digits():
    text = grid_to_csv(_small_artifact())
    row = [line for line in text.splitlines() if not line.startswith(("#", "p,"))][0]
    prob_cell = row.split(",")[2]
    mantissa = prob_cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12


def test_provenance_is_mandatory():
    with pytest.raises(ValidationError, match="provenance"):
        GridArtifact(kind="x", row_name="a", row_values=(1.0,), col_name="b",
                     col_values=(1.0,), columns={"v": ((0.5,),)},
                     provenance={"seed": 0})


def test_centering_artifact_and_svg():
    shift = [0.0, 0.5]
    width = [0.01, 0.1]
    ones = [[1.0, 0.9], [0.8, 0.7]]
    artifact = centering_artifact(shift, width, ones, ones, ones,
                                  make_provenance("c0ffee0000000000", 0))
    text = grid_to_csv(artifact)
    assert parse_grid_csv(text) == artifact
    svg = grid_to_svg(artifact)
    assert svg.startswith("<svg")
    assert "c0ffee0000000000" in svg
    assert "rect" in svg


def test_svg_is_pure_function_of_artifact():
    artifact = _small_artifact()
    assert grid_to_svg(artifact) == grid_to_svg(artifact)
    other = _small_artifact()
    assert grid_to_svg(artifact) == grid_to_svg(other)


def test_emitters_match_cellwise_oracle():
    # signed zeros, ramp ends and stops, channels landing on x.5, values
    # outside [0, 1], subnormals and non-finite cells; 1.000000000003e-312
    # formats as 1.00000000000e-312 but pins to a subnormal that prints as
    # 9.99999999998e-313
    edge = [0.0, -0.0, 1.0, 0.25, 0.5,
            0.75, 0.4375, 0.5625, -0.3, 1.7,
            5e-324, 1.00000000000123e-320, 1.000000000003e-312, 2.2250738585e-308, 1.7e-83,
            math.nan, math.inf, -math.inf, 1.0 / 3.0, 0.1]
    grid = np.array(edge).reshape(4, 5)
    args = ([-0.0, 0.5, 1.000000000003e-312, 3.0], [1e-3, 0.0101, 0.25, 0.5, 7.0],
            grid, grid[::-1], grid[:, ::-1].tolist(), make_provenance("0ddba11000000000", 3))
    # red at 0.4375 (184.5 -> b8) and green at 0.5625 (90.5 -> 5a) round half to even
    assert (_ramp_color(0.4375), _ramp_color(0.5625)) == ("#b83684", "#d75a6a")

    artifact = centering_artifact(*args)
    reference = centering_artifact_reference(*args)
    for name, cells in reference.columns.items():
        got = np.array(artifact.columns[name])
        assert np.array_equal(got, np.array(cells), equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(cells))
    elsewhere = GridArtifact(**vars(reference))  # not made by a builder
    for emit, render in ((grid_to_csv, grid_csv_reference),
                         (grid_to_json, grid_json_reference),
                         (grid_to_svg, grid_svg_reference)):
        want = render(reference)
        assert emit(artifact) == want
        assert emit(elsewhere) == want
    assert "9.99999999998e-313" in grid_to_csv(artifact)
