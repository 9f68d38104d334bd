import json
import math
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pecbench.advantage import RegimeGrid, sweep
from pecbench.config import config_hash, load_config, parse_config_dict
from pecbench.errors import ConfigError, ValidationError
from pecbench.report import (
    GridArtifact,
    _cells_of,
    _json_tokens,
    _tokens,
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
    ragged = json.loads(text)
    ragged["columns"]["raw_success"][1].pop()
    with pytest.raises(ValidationError, match=r"'raw_success' has 2 rows of lengths \[2, 3\]"):
        parse_grid_json(json.dumps(ragged))


def test_parse_grid_json_names_a_missing_key():
    doc = json.loads(grid_to_json(_small_artifact()))
    del doc["kind"]
    with pytest.raises(ValidationError, match="JSON grid has no 'kind' key"):
        parse_grid_json(json.dumps(doc))
    del doc["axes"]["row"]["values"]
    with pytest.raises(ValidationError, match="no 'axes.row.values' key"):
        parse_grid_json(json.dumps({**doc, "kind": "phase-diagram"}))


def test_parse_grid_json_refuses_a_top_level_list():
    with pytest.raises(ValidationError, match="JSON grid has no 'kind' key"):
        parse_grid_json(json.dumps([grid_to_json(_small_artifact())]))


def test_parse_grid_json_names_a_column_of_mixed_kinds():
    doc = json.loads(grid_to_json(_small_artifact()))
    doc["columns"]["pec_success"][0][1] = "x"
    with pytest.raises(ValidationError, match="column 'pec_success' mixes kinds"):
        parse_grid_json(json.dumps(doc))


def test_parse_grid_json_names_columns_that_are_a_list():
    doc = json.loads(grid_to_json(_small_artifact()))
    doc["columns"] = list(doc["columns"].values())
    with pytest.raises(ValidationError, match="JSON grid key 'columns' is not a JSON object"):
        parse_grid_json(json.dumps(doc))


def test_parse_grid_json_names_a_column_of_numbers_not_rows():
    doc = json.loads(grid_to_json(_small_artifact()))
    doc["columns"] = {"v": [0.5]}
    with pytest.raises(ValidationError, match="JSON grid key 'columns.v' is not a list of row"):
        parse_grid_json(json.dumps(doc))


def test_parse_grid_json_refuses_text_that_is_not_json():
    text = grid_to_json(_small_artifact())
    with pytest.raises(ValidationError, match="JSON grid is not JSON: Expecting ',' delimiter"):
        parse_grid_json(text[:-3])  # drops the closing brace
    with pytest.raises(ValidationError, match="JSON grid is not JSON"):
        parse_grid_json("kind=phase-diagram\n")


def test_parse_grid_csv_names_a_malformed_seed_line():
    text = grid_to_csv(_small_artifact()).replace("# seed=7", "# seed=abc")
    with pytest.raises(ValidationError, match="line '# seed=abc'"):
        parse_grid_csv(text)


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


def _writer_cells(rng, shape) -> np.ndarray:
    """Seeded cells over every token layout the byte writer has.

    Ordinary values and CSV/JSON layout edges: negatives, -0.0, subnormals,
    three-digit exponents, 1e15 / 1e16 and 1e-4 / 1e-5 (fixed against
    scientific repr), cells within 1e-3 of a half-way decimal (slow), nan and
    infinities.
    """
    cells = rng.random(shape)
    cells[rng.random(shape) < 0.3] *= -1.0
    scaled = rng.random(shape) < 0.2
    cells[scaled] *= 10.0 ** rng.integers(-30, 31, int(scaled.sum()))
    specials = [-0.0, 0.0, 5e-324, -1.000000000003e-312, 2.2250738585e-308, 1.234e-150,
                -5e200, 1e100, 9.999999999995e99, 1e16, -1e15, 123456789012.5, 1e-4, 1e-5,
                0.5, 1.0, 0.12345678901250001,  # within 1e-3 of half-way, then exactly
                123456789013 / 4, -12345678901 / 8, (2 * 10**11 + 1) / 2,
                math.nan, math.inf, -math.inf]
    flat = cells.ravel()
    at = rng.permutation(flat.size)[:3 * len(specials)]
    flat[at] = rng.permutation(np.tile(specials, 3))[:at.size]
    return cells


def _assert_emitters_match_oracles(artifact, reference) -> None:
    elsewhere = GridArtifact(**vars(reference))  # not made by a builder
    for emit, render in ((grid_to_csv, grid_csv_reference),
                         (grid_to_json, grid_json_reference),
                         (grid_to_svg, grid_svg_reference)):
        want = render(reference)
        assert emit(artifact) == want
        assert emit(elsewhere) == want


def test_writer_matches_oracles_on_mixed_cells():
    # 45 x 47 = 2,115 cells, slow ones mixed with fast ones all through each column
    rng = np.random.default_rng(20261019)
    shift, width = _writer_cells(rng, 45), _writer_cells(rng, 47)
    shift[[0, 7, 44]], width[[3, 46]] = [math.nan, 5e-324, -0.0], [math.inf, 1e-300]
    grids = [_writer_cells(rng, (45, 47)) for _ in range(3)]
    for grid in grids:  # slow and sign-flipped cells in the leading 2,048 cells and after
        grid.ravel()[2040:2056:3] = [math.nan, -0.0, -1e-310, 7e123, 0.12345678901250001, -2.5]
        fast = _cells_of(grid)[1].fast
        assert not fast[:2048].all() and not fast[2048:].all() and fast.mean() > 0.9
    args = (shift, width, *grids, make_provenance("b10cb0ed00000000", 11))
    _assert_emitters_match_oracles(centering_artifact(*args),
                                   centering_artifact_reference(*args))


def test_direct_construction_pins_raw_arrays_like_the_builder():
    rng = np.random.default_rng(20261020)
    shift, width = _writer_cells(rng, 9), _writer_cells(rng, 11)
    grids = [_writer_cells(rng, (9, 11)) for _ in range(3)]
    for cells in (shift, width, *grids):  # nan != nan would fail the equality below
        cells[np.isnan(cells)] = 0.12345678901250001
    provenance = make_provenance("d1ec700000000000", 13)
    columns = {"true_success": grids[0], "proxy_success": grids[1].tolist(),
               "relative_error": tuple(map(tuple, grids[2].tolist()))}
    given = dict(columns)
    direct = GridArtifact(kind="centering", row_name="rel_shift", row_values=shift,
                          col_name="rel_width", col_values=width.tolist(),
                          columns=columns, provenance=provenance)
    assert columns.keys() == given.keys()
    assert all(columns[name] is given[name] for name in given)
    assert direct == centering_artifact(shift, width, *grids, provenance)
    reference = centering_artifact_reference(shift, width, *grids, provenance)
    for emit, render in ((grid_to_csv, grid_csv_reference),
                         (grid_to_json, grid_json_reference),
                         (grid_to_svg, grid_svg_reference)):
        assert emit(direct) == render(reference)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 2050), (3, 1)])
def test_writer_matches_oracles_on_thin_grids(rows, cols):
    rng = np.random.default_rng(rows * 10_000 + cols)
    args = (_writer_cells(rng, rows), _writer_cells(rng, cols),
            *(_writer_cells(rng, (rows, cols)) for _ in range(3)),
            make_provenance("7h1n000000000000", rows))
    _assert_emitters_match_oracles(centering_artifact(*args),
                                   centering_artifact_reference(*args))


def test_writer_matches_oracles_on_a_phase_artifact():
    rng = np.random.default_rng(3)
    p_axis = np.array([1e-5, 3.3e-4, 2e-3, 0.05])
    shots = np.array([1, 10, 999, 12_345, 1_000_000])
    pec, raw = rng.random((4, 5)), rng.random((4, 5))
    pec[0, 0], raw[1, 1], raw[2, 2] = 0.0, 1.0, 2.5e-320
    labels = np.array([["PEC", "RAW", "NONE", "RAW", "PEC"]] * 4)
    labels[3] = "NONE"
    artifact = phase_artifact(RegimeGrid(p_axis, shots, pec, raw, labels),
                              make_provenance("9ha5e00000000000", 5))
    assert {cell for row in artifact.columns["label"] for cell in row} == {"PEC", "RAW", "NONE"}
    assert all(isinstance(n, int) for n in artifact.col_values)
    pinned = dict(artifact.columns, label=labels.tolist())
    for name in ("pec_success", "raw_success"):
        pinned[name] = [[float(f"{v:.11e}") for v in row] for row in dict(
            pec_success=pec, raw_success=raw)[name]]
    reference = SimpleNamespace(kind="phase-diagram", row_name="p",
                                row_values=tuple(float(f"{v:.11e}") for v in p_axis),
                                col_name="n_shots", col_values=tuple(map(int, shots)),
                                columns={name: tuple(map(tuple, grid))
                                         for name, grid in pinned.items()},
                                provenance=artifact.provenance)
    _assert_emitters_match_oracles(artifact, reference)


def test_writer_matches_oracles_on_ints_and_strings():
    # table tokens of unequal and zero length, and a non-ASCII one
    artifact = GridArtifact(kind="grid", row_name="r", row_values=(7, -12, 0),
                            col_name="c", col_values=("", "é", "long label"),
                            columns={"note": (("", "a", "bc"), ("é", "", "x"), ("", "", "")),
                                     "count": ((1, 22, 333), (-4, 0, 10**20), (5, 5, 5))},
                            provenance=make_provenance("5757000000000000", 2))
    empty = GridArtifact(kind="grid", row_name="r", row_values=(), col_name="c", col_values=(),
                         columns={"v": ()}, provenance=artifact.provenance)
    for emit, render in ((grid_to_csv, grid_csv_reference), (grid_to_json, grid_json_reference)):
        assert emit(artifact) == render(artifact)
        assert emit(empty) == render(empty)


_CSV_EDGES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300,
              0.9999999999995,  # just under the tie: 9.99999999999e-01
              1e16, 1e100, -1e100, 1e-100, -1e-100,
              0.9999999999996]  # .11e carries into the exponent: 1.00000000000e+00
# JSON's: the longest fixed token (999999999999999.0 carries into it), a
# ".0" tail, the "0.000" prefix's last exponent and the first scientific ones
_JSON_EDGES = [1e15, 999999999999999.0, 123456789012.0, 1e-4, 1e-5, 0.001234, 1.5e16]


def test_csv_writer_matches_the_oracle_on_edge_cells():
    # float cells at every CSV and JSON layout edge; int axes of mixed
    # width; string cells with multi-byte UTF-8 and an embedded U+0000,
    # which the 0xFF padding must keep
    provenance = make_provenance("ed9e000000000000", 17)
    cells = np.array((_CSV_EDGES + _JSON_EDGES) * 3)[:60].reshape(6, 10)
    strings = ["", "é", "日本", "a\x00b", "\U0001f600", "x"]
    labels = [[strings[(i + j) % 6] for j in range(10)] for i in range(6)]
    artifacts = [
        GridArtifact(kind="grid", row_name="n", row_values=(0, 7, -12, 10**20, 123, -1),
                     col_name="v", col_values=_CSV_EDGES[:10],
                     columns={"f": cells, "s": labels, "g": cells[::-1]},
                     provenance=provenance),
        GridArtifact(kind="grid", row_name="f", row_values=_CSV_EDGES + _JSON_EDGES,
                     col_name="n", col_values=(1, -22, 333_333, 0),
                     columns={"i": [[i * j - 5 for j in range(4)] for i in range(20)]},
                     provenance=provenance),
        GridArtifact(kind="grid", row_name="r", row_values=(), col_name="c", col_values=(),
                     columns={"v": ()}, provenance=provenance),
        GridArtifact(kind="grid", row_name="r", row_values=(0.9999999999996,), col_name="c",
                     col_values=("\x00",), columns={"v": [[-0.0]], "w": [["é"]]},
                     provenance=provenance),
    ]
    for artifact in artifacts:
        assert grid_to_csv(artifact) == grid_csv_reference(artifact)
        assert grid_to_json(artifact) == grid_json_reference(artifact)
    first, one = grid_to_csv(artifacts[0]), grid_to_csv(artifacts[-1])
    assert "a\x00b" in first and "\U0001f600" in first
    assert {"1000000000000000.0", "123456789012.0", "0.0001", "1e-05", "0.001234",
            "1.5e+16"} <= set(_json_tokens(artifacts[1]._flat[0]))
    assert one.endswith("\nr,c,v,w\n1.00000000000e+00,\x00,-0.00000000000e+00,é\n")
    assert grid_to_csv(artifacts[2]).endswith("\nr,c,v\n")


def test_views_are_lazy_tuples_with_the_same_equality():
    shift = np.array([-0.0, 0.25, 1e-300, 3.0])
    width = [0.5, 1e16, 5e-324]
    grids = [np.outer(shift + k, width) for k in range(3)]
    provenance = make_provenance("1a2y000000000000", 19)
    artifact = centering_artifact(shift, width, *grids, provenance)
    for emit in (grid_to_csv, grid_to_json, grid_to_svg):
        emit(artifact)
    assert not {"row_values", "col_values", "columns"} & set(vars(artifact))  # never built
    reference = centering_artifact_reference(shift, width, *grids, provenance)
    assert type(artifact.row_values) is tuple and artifact.row_values == reference.row_values
    assert type(artifact.col_values) is tuple and artifact.col_values == reference.col_values
    assert artifact.columns == reference.columns
    assert all(type(grid) is tuple and all(type(row) is tuple for row in grid)
               for grid in artifact.columns.values())
    assert artifact.columns is artifact.columns  # built once
    twin = centering_artifact(shift, width, *grids, provenance)
    assert twin == artifact and artifact == twin  # one side built, the other not yet
    assert centering_artifact(shift, width, grids[0], grids[1], -grids[2],
                              provenance) != artifact
    for emit, parse in ((grid_to_csv, parse_grid_csv), (grid_to_json, parse_grid_json)):
        for axis in (shift, [0.0, -0.0, 0.25, 1e-300]):  # equal floats on one axis
            fresh = centering_artifact(axis, width, *grids, provenance)
            assert parse(emit(fresh)) == fresh
            assert emit(parse(emit(fresh))) == emit(fresh)
    with_nan = centering_artifact(shift, width, grids[0], grids[1], grids[2] * math.nan,
                                  provenance)  # nan != nan, as for any tuple of floats
    assert with_nan != centering_artifact(shift, width, grids[0], grids[1],
                                          grids[2] * math.nan, provenance)
    with pytest.raises(AttributeError, match="no attribute 'rows'"):
        artifact.rows


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _assert_digits_match_oracles(values) -> np.ndarray:
    """Pinning, CSV and JSON tokens of flat cells against format/float/repr, cell by cell.

    Returns the cells' fast-path mask.
    """
    values = np.asarray(values, dtype=float).ravel()
    want_tokens = list(map("{:.11e}".format, values.tolist()))
    want_pinned = list(map(float, want_tokens))
    cells = _cells_of(values)
    assert np.array_equal(cells[0].view(np.int64), np.array(want_pinned).view(np.int64))
    assert _tokens(cells) == list(map("{:.11e}".format, want_pinned))
    reprs = list(map(repr, want_pinned))
    assert _json_tokens(cells) == list(map(_JSON_NONFINITE.get, reprs, reprs))
    return cells[1].fast


def test_pinning_and_tokens_match_oracles_on_a_million_doubles():
    rng = np.random.default_rng(20261018)
    chunk = 100_000
    for _ in range(4):
        fast = _assert_digits_match_oracles(rng.random(chunk))
        assert fast.mean() > 0.99
    for _ in range(4):
        signs = rng.choice([-1.0, 1.0], chunk)
        fast = _assert_digits_match_oracles(signs * 10.0 ** rng.uniform(-120, 120, chunk))
        assert fast.mean() > 0.99
    for _ in range(2):  # every exponent, subnormals, infinities and nans
        _assert_digits_match_oracles(rng.integers(0, 2**64, chunk, dtype=np.uint64,
                                                  endpoint=False).view(np.float64))


def test_pinning_exact_half_way_decimals():
    # n / 2^p with n * 5^p a 13-digit integer is exactly half-way between
    # two 12-digit decimals, as are 13-digit integers ending in 5
    rng = np.random.default_rng(5)
    values = []
    for p in range(1, 18):
        lo, hi = -(-10**12 // 5**p), 10**13 // 5**p
        for n in rng.integers(lo, hi, 200).tolist():
            values.append((n | 1) / 2**p)
    values += [float(n * 10 + 5) for n in rng.integers(10**11, 10**12, 500).tolist()]
    for v in values:  # the exact binary value has 13 significant digits, the last a 5
        digits = Decimal(v).normalize().as_tuple().digits
        assert len(digits) == 13 and digits[-1] == 5
    values = np.array(values)
    _assert_digits_match_oracles(np.concatenate([values, -values]))


def test_pinning_powers_of_ten_and_edges():
    powers = np.array([float(f"1e{m}") for m in range(-323, 309)])
    carries = np.array([float(f"9.999999999995e{m}") for m in range(-300, 308)])
    cells = []
    for base in (powers, carries):
        for way in (-np.inf, np.inf):
            step = base
            for _ in range(3):
                cells.append(step)
                step = np.nextafter(step, way)
    tiny = np.finfo(float).tiny
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
             tiny, np.nextafter(tiny, 0.0), 1e-310, 1.000000000003e-312,
             np.finfo(float).max, -np.finfo(float).max, 1.797693134865e308,
             1e-297, np.nextafter(1e-297, 0.0), 1e307, 9.999999999995e307,
             # three-digit exponents
             1.234e-150, -5e200, 1e100, 9.99999999999e99, 9.999999999995e99, 1.5e-100]
    _assert_digits_match_oracles(np.concatenate(cells + [np.array(edges)]))


def test_parse_grid_csv_200x200_and_ragged_rows():
    shift = np.linspace(0.0, 0.99, 200)
    width = np.logspace(-2, 0, 200)
    grid = np.outer(shift, width) / 3.0
    artifact = centering_artifact(shift, width, grid, grid.T, -grid,
                                  make_provenance("c0ffee0000000000", 1))
    text = grid_to_csv(artifact)
    start = time.perf_counter()
    parsed = parse_grid_csv(text)
    elapsed = time.perf_counter() - start
    assert parsed == artifact and grid_to_csv(parsed) == text
    assert elapsed < 0.5  # a list scan per row took 0.9 s
    # rows are split a chunk at a time: splitting all 200,000 tokens at
    # once peaked at 29 MB here, a 3.6 MB text
    tracemalloc.start()
    try:
        parse_grid_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text)
    lines = text.splitlines()
    swapped = list(lines)
    swapped[-1], swapped[-201] = swapped[-201], swapped[-1]  # two rows trade one line
    with pytest.raises(ValidationError, match="ragged or out of order"):
        parse_grid_csv("\n".join(swapped) + "\n")
    twice = centering_artifact([0.5, 0.5], [0.25, 1.0], *[[[0.0, 1.0]] * 2] * 3,
                               make_provenance("c0ffee0000000000", 1))  # or 1 row of 4
    with pytest.raises(ValidationError, match="axes are ambiguous"):
        parse_grid_csv(grid_to_csv(twice))
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    with pytest.raises(ValidationError, match="must have 5 fields"):
        parse_grid_csv("\n".join(lines) + "\n")
