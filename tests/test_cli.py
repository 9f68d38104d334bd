import configparser
import contextlib
import hashlib
import io
import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pecbench import hubbard
from pecbench.cli import main
from pecbench.config import _SCHEMA, config_hash, load_config
from pecbench.report import parse_grid_csv, parse_grid_json

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CFG = str(ROOT / "configs" / "reference_instance.cfg")
SIM_CFG = str(ROOT / "configs" / "small_sim.cfg")


def _small_sweep_cfg(tmp_path, name="sweep.cfg"):
    path = tmp_path / name
    path.write_text(
        "[model]\nrows = 8\ncols = 8\nboundary = periodic\n"
        "t = 1.0\nU = 8.0\nmu = 3.75\n"
        "[bounds]\ne_minus_per_site = -4.544\ne_plus_per_site = -3.8365\n"
        "[circuit]\nlayers = 64\nqubits = 128\n"
        "[noise]\np_layer = 4e-3\n"
        "[run]\nshots = 1000\nseed = 5\n"
        "[sweep]\np_min = 1e-4\np_max = 1e-2\np_points = 6\n"
        "shots_min = 10\nshots_max = 1e5\nshots_points = 6\n")
    return str(path)


def _fast_sim_cfg(tmp_path):
    path = tmp_path / "sim.cfg"
    path.write_text(
        "[model]\nrows = 1\ncols = 2\nboundary = open\nt = 1.0\nU = 4.0\nmu = 1.0\n"
        "[bounds]\ne_minus = -3.0\ne_plus = -2.6\n"
        "[circuit]\nlayers = 4\nqubits = 4\n"
        "[noise]\np_layer = 0.05\n"
        "[run]\nseed = 7\n"
        "[simulate]\nshots = 20000\nbatch = 200\n")
    return str(path)


def test_norm_reports_reference_values(tmp_path, capsys):
    assert main(["norm", "--config", REFERENCE_CFG]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["norm2_squared"] == 386.0
    assert report["trace_over_d"] == -112.0
    assert report["term_count"] > 0


def test_norm_zero_couplings(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(
        "[model]\nrows = 1\ncols = 2\nboundary = open\nt = 0\nU = 0\nmu = 0\n"
        "[bounds]\ne_minus = -1\ne_plus = 1\n[noise]\np_layer = 0\n")
    assert main(["norm", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["norm2_squared"] == 0.0
    assert report["trace_over_d"] == 0.0


def test_success_labels_reference_point(capsys):
    assert main(["success", "--config", REFERENCE_CFG]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["label"] == "PEC"
    assert report["pec_success"] > 0.95 > report["raw_success"]


def test_success_none_at_low_shots(tmp_path, capsys):
    path = tmp_path / "low.cfg"
    path.write_text(Path(REFERENCE_CFG).read_text().replace(
        "shots = 1000", "shots = 10"))
    assert main(["success", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "NONE"


def test_phase_diagram_csv_shape(tmp_path):
    cfg = _small_sweep_cfg(tmp_path)
    out = tmp_path / "grid.csv"
    assert main(["phase-diagram", "--config", cfg, "--output", str(out)]) == 0
    artifact = parse_grid_csv(out.read_text())
    assert artifact.kind == "phase-diagram"
    assert len(artifact.row_values) == 6 and len(artifact.col_values) == 6
    labels = {cell for row in artifact.columns["label"] for cell in row}
    assert labels <= {"PEC", "RAW", "NONE"}


def test_single_cell_grid_matches_success(tmp_path, capsys):
    path = tmp_path / "cell.cfg"
    path.write_text(
        "[model]\nrows = 8\ncols = 8\nboundary = periodic\n"
        "t = 1.0\nU = 8.0\nmu = 3.75\n"
        "[bounds]\ne_minus_per_site = -4.544\ne_plus_per_site = -3.8365\n"
        "[noise]\np_layer = 4e-3\n"
        "[run]\nshots = 1000\nseed = 5\n"
        "[sweep]\np_min = 4e-3\np_max = 4e-3\np_points = 1\n"
        "shots_min = 1000\nshots_max = 1000\nshots_points = 1\n")
    out = tmp_path / "cell.csv"
    assert main(["phase-diagram", "--config", str(path), "--output", str(out)]) == 0
    artifact = parse_grid_csv(out.read_text())
    assert len(artifact.row_values) == 1 and len(artifact.col_values) == 1
    assert main(["success", "--config", str(path)]) == 0
    point = json.loads(capsys.readouterr().out)
    assert artifact.columns["pec_success"][0][0] == pytest.approx(
        point["pec_success"], rel=1e-9)
    assert artifact.columns["raw_success"][0][0] == pytest.approx(
        point["raw_success"], rel=1e-9)
    assert artifact.columns["label"][0][0] == point["label"]


def test_phase_diagram_json_and_svg(tmp_path):
    cfg = _small_sweep_cfg(tmp_path)
    out_json = tmp_path / "grid.json"
    assert main(["phase-diagram", "--config", cfg, "--format", "json",
                 "--output", str(out_json)]) == 0
    artifact = parse_grid_json(out_json.read_text())
    assert set(artifact.columns) == {"pec_success", "raw_success", "label"}
    assert artifact.provenance["seed"] == 5

    out_svg = tmp_path / "grid.svg"
    assert main(["phase-diagram", "--config", cfg, "--format", "svg",
                 "--output", str(out_svg)]) == 0
    svg = out_svg.read_text()
    assert svg.startswith("<svg") and artifact.provenance["config_hash"] in svg


def test_phase_diagram_reruns_byte_identical(tmp_path):
    cfg = _small_sweep_cfg(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["phase-diagram", "--config", cfg, "--output", str(a)]) == 0
    assert main(["phase-diagram", "--config", cfg, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of the reference instance's grid artifacts; the provenance block
# embeds the package version, so a version bump moves these too
PINNED_ARTIFACTS = {
    ("phase-diagram", "csv"): "25173a2cacf1efacf895b1372b9b8c4ec2df0c6b014cb0c1a9cad051d79600c2",
    ("phase-diagram", "json"): "d27eb5aa38051337d28cd9e46a88f690d5ea74317b07bc4c1acbca5ca3bae915",
    ("centering", "csv"): "87922977076cd42be0ae12f074555f90161ee883d57bb0fe01059071d1800d59",
    ("centering", "json"): "87f962e9a92c3b1a9803c3400c639486861158122fe30cf5ecb1bfff8a13c9e0",
    ("phase-diagram", "svg"): "42c1ac620a8c98fb1325c81226bd14bbccf96a8b47f968f0950afa8a029260a9",
    ("centering", "svg"): "cb28c8069eff4503556983e564992e5eb47fbc8682cf9dc7022e2b85707d588f",
}

# 60x60 axes out to P = 0.999, where success probabilities reach 1e-212
# and 0.0, on the reference instance
WIDE_AXES = ("\n[sweep]\np_min = 1e-4\np_max = 0.999\np_points = 60\n"
             "shots_min = 10\nshots_max = 1e6\nshots_points = 60\n"
             "[centering]\nshift_points = 60\nwidth_points = 60\n")
WIDE_PINNED_ARTIFACTS = {
    ("phase-diagram", "csv"): "e0ed1b12b85ed32d8affca4fd2328b951350ad76446efb4b5bf72b92087e78eb",
    ("phase-diagram", "json"): "b991c69ad1d96791a1ed8ffcb71d077b93cfbfb5be3d801451ac5acb9b9c6871",
    ("phase-diagram", "svg"): "ae122cc6cd851e86b47fbc34279656976309f76f86fdfda59dd46cff69b18d72",
    ("centering", "csv"): "d792b61d79f2834c22e472825e5a270d8f8a2db8868babbd98e9e4bbfa4f575e",
    ("centering", "json"): "b9865f2ee5aa3f9bbe62d2ceaa84d1796adabe8840a3c41508193e35a8aa4b9a",
    ("centering", "svg"): "6fe8cbb7c5f715f87d4e3c7ccf916aeecf6388346bcf456f0dd167ee3f22325d",
}


# The benchmark's grid workload: 200x200 axes, P 1e-5..1e-1 x shots 1..1e6
# and the default centering ranges, on the reference instance
BENCH_AXES = ("\n[sweep]\np_min = 1e-5\np_max = 1e-1\np_points = 200\n"
              "shots_min = 1\nshots_max = 1e6\nshots_points = 200\n"
              "[centering]\nshift_points = 200\nwidth_points = 200\n")
BENCH_PINNED_ARTIFACTS = {
    ("phase-diagram", "csv"): "9f161feff7d36b3918c2ba73c3b33b18b6f66f45be61a8a91f39b0b42102c4da",
    ("phase-diagram", "json"): "c930a46b78b038162f4d6c3c6b29c1dacfd55fd25cc5ab9c7cb42d33ad1ebd78",
    ("phase-diagram", "svg"): "fa20bd5dc94af65050dfd04f92ba1fadfadbb09493452f30dcf05d5f63f328e0",
    ("centering", "csv"): "276651ee263779469e0a73608bfd0b838e88aae4ea7e0e627dbc989e4b745331",
    ("centering", "json"): "b54cf98252ffce4539b5ca83693d4bf1761cb127fd8eb98b6f0062bb0d4edc39",
    ("centering", "svg"): "d4fe2e8e241670525c3bdadbbb3e6a61696b16f8540471f9d86eb044fb669e56",
}


@pytest.mark.parametrize("command, fmt", PINNED_ARTIFACTS.keys(),
                         ids=[f"{c}-{f}" for c, f in PINNED_ARTIFACTS])
def test_reference_artifacts_are_pinned(tmp_path, command, fmt):
    out = tmp_path / f"artifact.{fmt}"
    assert main([command, "--config", REFERENCE_CFG, "--format", fmt,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_ARTIFACTS[command, fmt]


@pytest.mark.parametrize("command, fmt", WIDE_PINNED_ARTIFACTS.keys(),
                         ids=[f"{c}-{f}" for c, f in WIDE_PINNED_ARTIFACTS])
def test_wide_axis_artifacts_are_pinned(tmp_path, command, fmt):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(Path(REFERENCE_CFG).read_text() + WIDE_AXES)
    out = tmp_path / f"artifact.{fmt}"
    assert main([command, "--config", str(cfg), "--format", fmt,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WIDE_PINNED_ARTIFACTS[command, fmt]


@pytest.mark.parametrize("command, fmt", BENCH_PINNED_ARTIFACTS.keys(),
                         ids=[f"{c}-{f}" for c, f in BENCH_PINNED_ARTIFACTS])
def test_benchmark_axis_artifacts_are_pinned(tmp_path, command, fmt):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(Path(REFERENCE_CFG).read_text() + BENCH_AXES)
    out = tmp_path / f"artifact.{fmt}"
    assert main([command, "--config", str(cfg), "--format", fmt,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_PINNED_ARTIFACTS[command, fmt]


# The benchmark's scale workload: the reference instance on a 40x40 periodic
# lattice, with the [circuit] defaults (D = L, n = 2L).  Its couplings are
# dyadic, so norm2_squared is an exact sum on any Python.
SCALE_PINNED_ARTIFACTS = {
    "norm": "692f35a3ee297a38d14751d4c3deb1cb822f688ec3622e06a31458d0fd107b4d",
    "success": "0fefd280bdfa9158d95a0c0ebe1c01ab4e7339b93a8a53b53e18186aac2fc53c",
}


def _lattice_cfg(tmp_path, side):
    """The reference instance on a side x side periodic lattice, no [circuit]."""
    text = Path(REFERENCE_CFG).read_text()
    circuit = "[circuit]\nlayers = 64\nqubits = 128\n\n"
    assert circuit in text
    path = tmp_path / f"lattice{side}.cfg"
    path.write_text(text.replace(circuit, "").replace("rows = 8", f"rows = {side}")
                    .replace("cols = 8", f"cols = {side}"))
    return str(path)


@pytest.mark.parametrize("command", SCALE_PINNED_ARTIFACTS)
def test_scale_lattice_artifacts_are_pinned(tmp_path, command):
    out = tmp_path / "artifact.json"
    assert main([command, "--config", _lattice_cfg(tmp_path, 40), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCALE_PINNED_ARTIFACTS[command]


def test_explicit_hamiltonian_matches_the_reference_lattice(tmp_path, capsys):
    """The reference's summary as [hamiltonian] keys gives the lattice's artifacts."""
    text = Path(REFERENCE_CFG).read_text()
    model = text[text.index("[model]"):text.index("[bounds]")]
    path = tmp_path / "explicit.cfg"
    path.write_text(text.replace(model, "[hamiltonian]\nnorm2_squared = 386.0\n"
                                        "trace_over_d = -112.0\nsites = 64\n\n"))
    explicit, reference = load_config(str(path)), load_config(REFERENCE_CFG)
    summary = explicit.hamiltonian_summary()
    assert summary.norm2 == math.sqrt(386.0 / 64)
    assert summary.trace_over_d == -1.75
    assert summary.e0_proxy == explicit.advantage_problem().midpoint
    assert summary == reference.hamiltonian_summary()

    # every analytic artifact is the lattice's, apart from the config hash
    old_hash, new_hash = config_hash(reference), config_hash(explicit)
    for command, fmt in (("success", "json"), ("phase-diagram", "csv"),
                         ("phase-diagram", "json"), ("phase-diagram", "svg")):
        outputs = []
        for cfg in (REFERENCE_CFG, str(path)):
            assert main([command, "--config", cfg, "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert old_hash in outputs[0]
        assert outputs[1] == outputs[0].replace(old_hash, new_hash)

    assert main(["norm", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "norm2_squared": 386.0, "trace_over_d": -112.0, "term_count": None,
        "source": "explicit", "config_hash": new_hash}
    assert main(["simulate", "--config", str(path)]) == 2
    assert "simulate requires a [model] section" in capsys.readouterr().err


def test_norm_and_success_build_no_decomposition(tmp_path, capsys, monkeypatch):
    """norm and success need three scalars, not the dict or the masks of 100x100."""
    def refuse(self):
        raise AssertionError("a PauliDecomposition was built")

    def no_masks(spec):
        raise AssertionError("Pauli masks were built")

    monkeypatch.setattr(hubbard.PauliDecomposition, "__post_init__", refuse)
    monkeypatch.setattr(hubbard, "hubbard_terms", no_masks)
    cfg = _lattice_cfg(tmp_path, 100)
    assert main(["norm", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    edges = hubbard.lattice_edges(100, 100, "periodic")
    assert report["term_count"] == 4 * len(edges) + 3 * 100 * 100
    assert main(["success", "--config", cfg]) == 0


def test_centering_reports_region_max(tmp_path):
    path = tmp_path / "cent.cfg"
    path.write_text(Path(REFERENCE_CFG).read_text()
                    + "\n[centering]\nshift_points = 40\nwidth_points = 40\n")
    out = tmp_path / "cent.csv"
    assert main(["centering", "--config", str(path), "--output", str(out)]) == 0
    artifact = parse_grid_csv(out.read_text())
    assert artifact.kind == "centering"
    assert float(artifact.provenance["region_max"]) > 0.1
    shifts = artifact.row_values
    zero_row = artifact.columns["relative_error"][shifts.index(0)]
    assert all(v == 0.0 for v in zero_row)


def test_simulate_report_passes_checks(tmp_path, capsys):
    cfg = _fast_sim_cfg(tmp_path)
    assert main(["simulate", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(report["checks"].values())
    assert report["provenance"]["seed"] == 7
    assert report["shots"] == 20000


def test_simulate_seed_override(tmp_path, capsys):
    cfg = _fast_sim_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--seed", "99"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 99 and report["provenance"]["seed"] == 99


def test_simulate_exits_4_when_the_pec_weight_overflows(tmp_path, capsys):
    # gamma = 18.93 at P = 0.9: gamma^2000 overflows, and at 200 layers
    # gamma^200 = 1e255 is finite but the variance law's gamma^400 is not;
    # at 100 layers the law is finite but its standard error's gamma^400 is not
    for layers, power in ((2000, 2000), (200, 400), (100, 400)):
        cfg = tmp_path / f"overflow{layers}.cfg"
        cfg.write_text(Path(SIM_CFG).read_text()
                       .replace("layers = 4", f"layers = {layers}")
                       .replace("p_layer = 0.05", "p_layer = 0.9")
                       .replace("shots = 200000", "shots = 5000")
                       .replace("batch = 500", "batch = 100"))
        assert main(["simulate", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric-domain error: ")
        assert f"gamma^{power} = 18.929687500000004^{power} overflows a float" in err
        assert "[noise] p_layer" in err and "[circuit] layers" in err


def test_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["norm", "--config", missing]) == 2

    malformed = tmp_path / "bad.cfg"
    malformed.write_text("[model]\nrows = eight\n")
    assert main(["norm", "--config", str(malformed)]) == 2
    assert "rows" in capsys.readouterr().err

    # seeds outside [0, 2^64) would alias in-range Philox keys
    cfg = _fast_sim_cfg(tmp_path)
    assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    too_big = tmp_path / "seed.cfg"
    too_big.write_text(Path(cfg).read_text().replace("seed = 7", f"seed = {2**64}"))
    assert main(["simulate", "--config", str(too_big)]) == 2
    assert "seed" in capsys.readouterr().err
    # --seed meets the [run] seed rule on every subcommand, and is named
    for command in ("norm", "success", "phase-diagram", "centering", "simulate"):
        for seed in ("-1", str(2**64)):
            assert main([command, "--config", cfg, "--seed", seed]) == 2
            assert "--seed must be in [0, 2^64)" in capsys.readouterr().err

    # a format the subcommand does not write is refused by the argument parser
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--config", cfg, "--format", "csv"])
    assert exc.value.code == 2 and "--format" in capsys.readouterr().err

    # explicit-Hamiltonian summaries: a negative squared norm or no sites
    explicit = ("[hamiltonian]\nnorm2_squared = {norm2sq}\ntrace_over_d = -112.0\n"
                "sites = {sites}\n[bounds]\ne_minus = -290.8\ne_plus = -245.5\n"
                "[circuit]\nlayers = 64\nqubits = 128\n[noise]\np_layer = 1e-3\n")
    for norm2sq, sites, field in ((-1.0, 64, "[hamiltonian] norm2_squared"),
                                  (0.0, 64, "[hamiltonian] norm2_squared"),
                                  (386.0, 0, "[hamiltonian] sites")):
        summary = tmp_path / "explicit.cfg"
        summary.write_text(explicit.format(norm2sq=norm2sq, sites=sites))
        for command in ("norm", "success", "phase-diagram"):
            assert main([command, "--config", str(summary)]) == 2
            assert field in capsys.readouterr().err

    # non-finite or sub-unit shot counts and non-finite beta name their key
    for old, new, field in (("shots = 1000", "shots = inf", "[run] shots"),
                            ("shots = 1000", "shots = nan", "[run] shots"),
                            ("p_layer = 4e-3", "p_layer = 4e-3\nbeta = nan", "[noise] beta"),
                            ("p_layer = 4e-3", "p_layer = 4e-3\nbeta = inf", "[noise] beta")):
        bad = tmp_path / "run.cfg"
        bad.write_text(Path(REFERENCE_CFG).read_text().replace(old, new))
        for command in ("success", "phase-diagram"):
            assert main([command, "--config", str(bad)]) == 2
            assert field in capsys.readouterr().err

    # sweep and centering point counts name their own key
    for old, new, field in (
            ("p_points = 6\n", "p_points = 0\n", "[sweep] p_points"),
            ("p_min = 1e-4\np_max = 1e-2\n", "", "[sweep] p_points given without")):
        sweep_cfg = tmp_path / "points.cfg"
        sweep_cfg.write_text(Path(_small_sweep_cfg(tmp_path)).read_text().replace(old, new))
        assert main(["phase-diagram", "--config", str(sweep_cfg)]) == 2
        assert field in capsys.readouterr().err
    centering_cfg = tmp_path / "centering.cfg"
    centering_cfg.write_text(Path(REFERENCE_CFG).read_text()
                             + "\n[centering]\nshift_points = 0\n")
    assert main(["centering", "--config", str(centering_cfg)]) == 2
    assert "[centering] shift_points" in capsys.readouterr().err

    # grids over MAX_GRID_CELLS are refused before any axis is built
    sweep_cfg.write_text(Path(_small_sweep_cfg(tmp_path)).read_text()
                         .replace("p_points = 6", "p_points = 100000000"))
    centering_cfg.write_text(Path(REFERENCE_CFG).read_text()
                             + "\n[centering]\nshift_points = 20000\n")
    for command, path, field in (
            ("phase-diagram", sweep_cfg, "[sweep] p_points x [sweep] shots_points"),
            ("centering", centering_cfg, "[centering] shift_points x [centering] width_points")):
        start = time.perf_counter()
        assert main([command, "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert field in capsys.readouterr().err

    # reversed sweep ends name both keys
    for old, new, field in (
            ("shots_min = 10\nshots_max = 1e5", "shots_min = 1e5\nshots_max = 10",
             "[sweep] shots_min must be <= [sweep] shots_max"),
            ("p_min = 1e-4\np_max = 1e-2", "p_min = 1e-2\np_max = 1e-4",
             "[sweep] p_min must be <= [sweep] p_max")):
        sweep_cfg.write_text(Path(_small_sweep_cfg(tmp_path)).read_text().replace(old, new))
        assert main(["phase-diagram", "--config", str(sweep_cfg)]) == 2
        assert field in capsys.readouterr().err
    # equal p ends need a one-point axis; equal shot ends deduplicate to one column
    sweep_cfg.write_text(Path(_small_sweep_cfg(tmp_path)).read_text()
                         .replace("p_max = 1e-2", "p_max = 1e-4"))
    assert main(["phase-diagram", "--config", str(sweep_cfg)]) == 2
    assert ("[sweep] p_points must be 1 when [sweep] p_min = [sweep] p_max"
            in capsys.readouterr().err)
    sweep_cfg.write_text(Path(_small_sweep_cfg(tmp_path)).read_text()
                         .replace("shots_max = 1e5", "shots_max = 10"))
    assert main(["phase-diagram", "--config", str(sweep_cfg), "--format", "json"]) == 0
    assert parse_grid_json(capsys.readouterr().out).col_values == (10,)

    # simulating the 128-qubit instance exceeds simulator capacity
    assert main(["simulate", "--config", REFERENCE_CFG]) == 3

    # a chain one site over MAX_NORM_SITES is refused before its squares are summed
    sites = hubbard.MAX_NORM_SITES + 1
    huge = tmp_path / "huge.cfg"
    huge.write_text(Path(REFERENCE_CFG).read_text()
                    .replace("rows = 8", "rows = 1").replace("cols = 8", f"cols = {sites}")
                    .replace("layers = 64\nqubits = 128", f"layers = 64\nqubits = {2 * sites}"))
    for command in ("norm", "success", "phase-diagram"):
        start = time.perf_counter()
        assert main([command, "--config", str(huge)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "[model] rows x [model] cols" in capsys.readouterr().err

    # [simulate] shots and batch: bad counts name their keys, and a shot
    # count whose draws exceed the memory cap is refused before allocation
    for old, new, code, field in (
            ("shots = 20000", "shots = 0", 2, "[simulate] shots"),
            ("shots = 20000", "shots = -5", 2, "[simulate] shots"),
            ("shots = 20000", "shots = 10", 2, "[simulate] shots must be >= 50 x [simulate] batch"),
            ("batch = 200", "batch = 50", 2, "[simulate] batch"),
            ("qubits = 4", "qubits = 6", 2,
             "[circuit] qubits must be 2 x [model] rows x [model] cols = 4, got 6"),
            ("shots = 20000", "shots = 100000000000", 3, "GiB")):
        bad = tmp_path / "simulate.cfg"
        bad.write_text(Path(cfg).read_text().replace(old, new))
        assert main(["simulate", "--config", str(bad)]) == code
        assert field in capsys.readouterr().err

    # the draw cap names the keys that size it
    layers = tmp_path / "layers.cfg"
    layers.write_text(Path(cfg).read_text().replace("layers = 4", "layers = 1000000"))
    assert main(["simulate", "--config", str(layers)]) == 3
    err = capsys.readouterr().err
    assert "[simulate] shots" in err and "[circuit] layers" in err
    # zero couplings leave nothing to estimate, but norm still reports them
    zero = tmp_path / "zero.cfg"
    zero.write_text(Path(cfg).read_text().replace("t = 1.0\nU = 4.0\nmu = 1.0",
                                                  "t = 0\nU = 0\nmu = 0"))
    for command in ("success", "phase-diagram", "simulate"):
        assert main([command, "--config", str(zero)]) == 2
        assert "[model] t, U and mu" in capsys.readouterr().err
    assert main(["norm", "--config", str(zero)]) == 0
    capsys.readouterr()
    # 8 sites: a largest particle-number block of 4,900 states, over the cap
    sectors = tmp_path / "sectors.cfg"
    sectors.write_text(Path(cfg).read_text().replace("rows = 1\ncols = 2", "rows = 2\ncols = 4")
                       .replace("qubits = 4", "qubits = 16"))
    start = time.perf_counter()
    assert main(["simulate", "--config", str(sectors)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "[model] rows x [model] cols" in capsys.readouterr().err

    # non-finite bounds and out-of-range sweep ends name their key
    for old, new, field in (
            ("e_plus_per_site = -3.8365", "e_plus_per_site = inf", "[bounds] e_plus_per_site"),
            ("e_minus_per_site = -4.544", "e_minus_per_site = -inf",
             "[bounds] e_minus_per_site")):
        bad = tmp_path / "bounds.cfg"
        bad.write_text(Path(REFERENCE_CFG).read_text().replace(old, new))
        for command in ("success", "phase-diagram", "centering"):
            assert main([command, "--config", str(bad)]) == 2
            assert field in capsys.readouterr().err
    for old, new, field in (("p_max = 1e-2", "p_max = 1.5", "[sweep] p_max"),
                            ("shots_max = 1e5", "shots_max = inf", "[sweep] shots_max")):
        bad = tmp_path / "sweep_ends.cfg"
        bad.write_text(Path(_small_sweep_cfg(tmp_path)).read_text().replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["phase-diagram", "--config", str(bad)]) == 2
        assert field in capsys.readouterr().err

    # the inverse channel does not exist at P = 1 (numeric-domain error)
    diverging = tmp_path / "p1.cfg"
    diverging.write_text(Path(REFERENCE_CFG).read_text().replace(
        "p_layer = 4e-3", "p_layer = 1.0"))
    assert main(["success", "--config", str(diverging)]) in (2, 4)


def _sections(path):
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read(path)
    return {name: dict(parser[name]) for name in parser.sections()}


# Edits on small_sim.cfg: each sets (or, with None, deletes) one schema key,
# an unknown key or an unknown section.  Values include the ends of every
# range in the schema.  Counts are at most 100 (the smallest batch) or past
# every cap, so a lattice stays small: only 100x100 would be slow (~10 s).
_FIELDS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
_VALUES = [None, -1, 0, 1, 2, 3, 7, 100, 2**53 + 1, 2**64, 10**400,
           -1e308, -0.5, -0.0, 1e-320, 1e-5, 0.05, 0.5, 0.999, 1.0, 1.5, 1e6, 1e20, 1e308,
           math.nan, math.inf, -math.inf, "", "x", "open", "periodic", "1e400", "0x10"]
_EDITS = st.lists(st.tuples(st.sampled_from(_FIELDS + [("run", "bogus"), ("extra", "x")]),
                            st.sampled_from(_VALUES)), max_size=4)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(command=st.sampled_from(["norm", "success", "phase-diagram", "centering",
                                "simulate"]),
       edits=_EDITS)
def test_fuzzed_configs_exit_cleanly(command, edits):
    sections = _sections(SIM_CFG)
    for (section, key), value in edits:
        if value is None:
            sections.get(section, {}).pop(key, None)
        else:
            sections.setdefault(section, {})[key] = str(value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in sections.items()))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--config", str(path), "--output", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
