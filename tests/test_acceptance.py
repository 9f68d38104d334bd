"""End-to-end acceptance suite: one test (one pass/fail line under -v) per
shipped guarantee, at the stated tolerances and runtime budgets."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from pecbench import hubbard as hb
from pecbench.advantage import (
    LABEL_NONE,
    LABEL_PEC,
    LABEL_RAW,
    classify,
    pec_success_proxy,
    raw_success,
    sweep,
)
from pecbench.centering import default_shift_axis, default_width_axis, relative_error_map
from pecbench.cli import main
from pecbench.config import load_config
from pecbench.noise import (
    NoiseCircuitSpec,
    gamma_total,
    p_layer_from_gate_error,
    threshold_p,
)
from pecbench.simulator import build_qpd, simulate_report
from pecbench.stats import NormalSpec, erf, interval_probability, tail_above, tail_below

from oracles import (
    _annihilator,
    centering_relative_error_reference,
    erf_reference_fast,
    lattice_edges_reference,
    qpd_composition_residual,
    reconstruct_matrix,
    saturated_centering_error_reference,
)

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CFG = str(ROOT / "configs" / "reference_instance.cfg")


def test_criterion_1_threshold_noise_level():
    start = time.perf_counter()
    prob = load_config(REFERENCE_CFG).advantage_problem()
    p_star = threshold_p(prob.ham, prob.e_plus, layers=64)
    elapsed = time.perf_counter() - start
    assert abs(p_star - 2.4e-3) <= 0.05 * 2.4e-3, f"threshold_p = {p_star}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_hardware_landmarks():
    start = time.perf_counter()
    assert 3.5e-2 <= p_layer_from_gate_error(3e-4, 128) <= 4.2e-2
    assert 3.5e-3 <= p_layer_from_gate_error(3e-5, 128) <= 4.2e-3
    assert time.perf_counter() - start < 1.0


def test_criterion_3_phase_diagram_landmarks():
    reference = load_config(REFERENCE_CFG)  # the default 60x60 sweep axes
    prob = reference.advantage_problem()
    start = time.perf_counter()
    p_axis = reference.p_axis()
    grid = sweep(prob, p_axis, reference.shot_axis(), workers=None)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"60x60 sweep took {elapsed:.2f}s"

    # (a) mitigated advantage at moderate noise and a modest shot budget
    assert classify(prob, 4e-3, 1e3) == LABEL_PEC
    # (b) raw wins at very low noise with a large budget
    for p in p_axis:
        if p <= 1e-4:
            assert classify(prob, float(p), 1e6) == LABEL_RAW, f"P={p}"
    # (c) nothing wins at 10 shots, anywhere on the default axis
    for p in p_axis:
        assert classify(prob, float(p), 10) == LABEL_NONE, f"P={p}"
    # (d) the raw success collapses across the threshold noise level
    assert raw_success(prob, 1e6, p=2.0e-3) > 0.9
    assert raw_success(prob, 1e6, p=3.0e-3) < 0.1


def _contour_shots(prob, p, target=0.95):
    """Shot count on the pec_success_proxy = target contour, by bisection."""
    lo, hi = 0.0, 14.0  # log10 N
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pec_success_proxy(prob, 10.0**mid, p=p) < target:
            lo = mid
        else:
            hi = mid
    return 10.0 ** (0.5 * (lo + hi))


def test_criterion_4_contour_scaling_law():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    p_values = np.logspace(-5, -2, 10)
    shots = [_contour_shots(prob, float(p)) for p in p_values]
    gammas = [gamma_total(NoiseCircuitSpec(layers=64, p_layer=float(p), qubits=128))
              for p in p_values]
    for i in range(len(p_values) - 1):
        ratio_n = shots[i] / shots[i + 1]
        ratio_g2 = (gammas[i] / gammas[i + 1]) ** 2
        assert abs(ratio_n / ratio_g2 - 1.0) <= 1e-6, f"pair {i}"

    # log N is affine in P with slope 4(1 - 1/d^2) D = 256 for P <= 1e-3
    p_small = np.linspace(1e-6, 1e-3, 9)
    log_n = [math.log(_contour_shots(prob, float(p))) for p in p_small]
    slope_expected = 4.0 * 64.0  # 1/d^2 underflows at 128 qubits
    for i in range(len(p_small) - 1):
        slope = (log_n[i + 1] - log_n[i]) / (p_small[i + 1] - p_small[i])
        assert abs(slope / slope_expected - 1.0) <= 0.01, f"slope {slope}"


def test_criterion_5_centering_error_bounds():
    start = time.perf_counter()
    shift_axis = default_shift_axis()
    width_axis = default_width_axis()
    error = relative_error_map(shift_axis, width_axis)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"100x100 map took {elapsed:.2f}s"

    assert np.all(np.isfinite(error)), "no cell of the default grid underflows"
    assert np.all(error[0] == 0.0), "zero-shift row must vanish"

    # Nominal region rel_shift <= 0.8, rel_width < 0.1.  Both edges fall
    # exactly on grid points (shift_axis[80] == 0.8, width_axis[66] == 0.1),
    # so the shape pins which row and column the region keeps.
    shifts = shift_axis[shift_axis <= 0.8]
    widths = width_axis[width_axis < 0.1]
    region = error[:len(shifts), :len(widths)]
    assert region.shape == (81, 66)
    want = np.array([[centering_relative_error_reference(float(s), float(w))
                      for w in widths] for s in shifts])
    i, j = np.unravel_index(np.argmax(want), want.shape)
    region_max = float(region.max())
    found = tuple(int(k) for k in np.unravel_index(np.argmax(region), region.shape))
    where = (f"max relative error over rel_width<0.1, rel_shift<=0.8 is "
             f"{region_max:.12f} at cell {found}; oracle {want[i, j]:.12f} at cell "
             f"({i}, {j}) = (rel_shift {shifts[i]:.4f}, rel_width {widths[j]:.6f})")
    assert np.argmax(region) == np.argmax(want), where
    deviation = float(np.max(np.abs(region - want)))
    assert deviation <= 1e-9, f"{where}; largest deviation from the oracle {deviation:.3g}"

    # Corner probe (0.99, 0.01): the mean sits sigma/2 inside the upper
    # edge and the proxy saturates at 1, so the error is 1/Phi(0.5) - 1.
    corner = float(error[np.argmin(np.abs(shift_axis - 0.99)),
                         np.argmin(np.abs(width_axis - 0.01))])
    corner_want = saturated_centering_error_reference(0.5)
    assert abs(corner - corner_want) <= 1e-9, (
        f"corner (0.99, 0.01) = {corner:.12f}; oracle 1/Phi(0.5) - 1 = {corner_want:.12f}")
    assert corner > region_max, f"corner {corner:.5f} <= region max {region_max:.5f}"


def test_criterion_6_hamiltonian_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    lattices = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2)]
    for rows, cols in lattices:
        for boundary in ("open", "periodic"):
            L = rows * cols
            n_modes = 2 * L
            ann = [_annihilator(k, n_modes) for k in range(n_modes)]
            num = [a.T @ a for a in ann]
            hop_part = np.zeros_like(num[0])
            for a, b in lattice_edges_reference(rows, cols, boundary):
                for offset in (0, L):
                    hop = ann[a + offset].T @ ann[b + offset]
                    hop_part -= hop + hop.T
            int_part = sum(num[s] @ num[L + s] for s in range(L))
            den_part = -sum(num)

            for _ in range(20):
                t, U, mu = (float(v) for v in rng.normal(size=3))
                spec = hb.HubbardSpec(rows, cols, boundary, t, U, mu)
                decomp = hb.build_hubbard_pauli(spec)
                ours = reconstruct_matrix(decomp)
                reference = t * hop_part + U * int_part + mu * den_part
                assert np.max(np.abs(ours - reference)) <= 1e-12, (rows, cols, boundary)

                d = ours.shape[0]
                centered = (np.trace(ours @ ours).real / d
                            - (np.trace(ours).real / d) ** 2)
                assert hb.norm2_squared(decomp) == pytest.approx(
                    centered, rel=1e-9, abs=1e-12)

    spec = hb.HubbardSpec(8, 8, "periodic", 1.0, 8.0, 3.75)
    assert hb.norm2_squared_closed_form(spec) == pytest.approx(386.0, abs=1e-9)
    assert hb.identity_coefficient_closed_form(spec) == pytest.approx(-112.0, abs=1e-12)
    assert time.perf_counter() - start < 30.0


def test_criterion_7_simulator_validation():
    start = time.perf_counter()
    spec = hb.HubbardSpec(1, 2, "open", 1.0, 4.0, 1.0)
    noise = NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=4)
    report = simulate_report(spec, noise, n_shots=200_000, seed=7, batch=500)
    checks = report["checks"]
    assert checks["pec_unbiased"], report["mean"]
    assert checks["raw_bias_matches"], report["raw_mean"]
    assert checks["variance_bounded"], (report["single_shot_variance"],
                                        report["single_shot_variance_bound"])
    assert checks["gamma_within_3se"], report["gamma_empirical"]
    assert checks["batch_means_normal"], report["normality_statistic"]
    assert qpd_composition_residual(build_qpd(noise).q, noise.qubits, noise.p_layer) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_8_statistics_kernel():
    start = time.perf_counter()
    xs = np.linspace(-6.0, 6.0, 10_000)
    # the axis is symmetric and both erf and the oracle are exactly odd,
    # so each magnitude is verified once and reused for its negative
    magnitudes = sorted({abs(float(x)) for x in xs})
    reference = {m: erf_reference_fast(m, dps=40) for m in magnitudes}
    worst = 0.0
    for x in xs:
        x = float(x)
        want = math.copysign(reference[abs(x)], x) if x != 0 else 0.0
        worst = max(worst, abs(erf(x) - want))
    assert worst <= 1e-12, f"max erf deviation {worst}"

    rng = np.random.default_rng(8)
    for _ in range(1000):
        dist = NormalSpec(float(rng.normal(scale=3.0)), float(rng.uniform(0.01, 4.0)))
        lo = dist.mean + float(rng.normal()) * dist.sigma
        hi = lo + abs(float(rng.normal())) * dist.sigma
        total = (tail_below(dist, lo) + interval_probability(dist, lo, hi)
                 + tail_above(dist, hi))
        assert abs(total - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_9_cli_determinism(tmp_path):
    sim_cfg = tmp_path / "sim.cfg"
    sim_cfg.write_text(
        "[model]\nrows = 1\ncols = 2\nboundary = open\nt = 1.0\nU = 4.0\nmu = 1.0\n"
        "[bounds]\ne_minus = -3.0\ne_plus = -2.6\n"
        "[circuit]\nlayers = 4\nqubits = 4\n"
        "[noise]\np_layer = 0.05\n"
        "[run]\nseed = 7\n"
        "[simulate]\nshots = 30000\nbatch = 300\n")

    outputs = {}
    for label in ("a", "b"):
        grid_out = tmp_path / f"grid_{label}.csv"
        assert main(["phase-diagram", "--config", REFERENCE_CFG,
                     "--output", str(grid_out)]) == 0
        sim_out = tmp_path / f"sim_{label}.json"
        assert main(["simulate", "--config", str(sim_cfg),
                     "--output", str(sim_out)]) == 0
        outputs[label] = (grid_out.read_bytes(), sim_out.read_bytes())

    assert outputs["a"] == outputs["b"], "rerun with identical config differs"
    report = json.loads(outputs["a"][1])
    assert all(report["checks"].values())
