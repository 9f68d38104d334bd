import math

import numpy as np
import pytest

from pecbench.errors import CapacityError, ValidationError
from pecbench.hubbard import (
    HubbardSpec,
    build_hubbard_pauli,
    exact_ground_energy,
    pauli_string,
)
from pecbench.noise import NoiseCircuitSpec, gamma_layer, noisy_mean
from pecbench.simulator import (
    active_kernel,
    batch_means,
    build_qpd,
    lilliefors_critical,
    normality_check,
    prepare_ground_state,
    run_pec_estimate,
    run_raw_estimate,
    simulate_report,
)
from pecbench.simulator import core as simcore

from oracles import (
    apply_depolarizing,
    dense_ground_state,
    density_matrix_shots_reference,
    purity,
    qpd_composition_residual,
    reconstruct_matrix,
    validate_density_matrix,
)

SPEC = HubbardSpec(1, 2, "open", 1.0, 4.0, 1.0)
NOISE = NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=4)


def test_prepare_ground_state_is_valid_pure_state():
    rho = prepare_ground_state(SPEC)
    validate_density_matrix(rho.entries, rho.n)
    assert purity(rho.entries) == pytest.approx(1.0, abs=1e-10)
    decomp = build_hubbard_pauli(SPEC)
    h_energy = np.real(np.trace(rho.entries @ reconstruct_matrix(decomp)))
    assert h_energy == pytest.approx(dense_ground_state(decomp)[0], abs=1e-10)


def test_prepare_ground_state_capacity():
    with pytest.raises(CapacityError):
        prepare_ground_state(HubbardSpec(8, 8, "periodic", 1.0, 8.0, 3.75))


def test_apply_depolarizing_endpoints():
    rho = prepare_ground_state(SPEC).entries
    assert np.array_equal(apply_depolarizing(rho, 0.0), rho)
    mixed = apply_depolarizing(rho, 1.0)
    assert np.allclose(mixed, np.eye(16) / 16.0, atol=1e-15)
    with pytest.raises(ValueError):
        apply_depolarizing(rho, 1.5)


def test_depolarizing_layers_compose():
    rho = prepare_ground_state(SPEC).entries
    p = 0.07
    layered = rho
    for _ in range(5):
        layered = apply_depolarizing(layered, p)
        validate_density_matrix(layered, SPEC.qubits)
    once = apply_depolarizing(rho, 1.0 - (1.0 - p) ** 5)
    assert np.max(np.abs(layered - once)) <= 1e-12


def test_build_qpd_matches_analytics():
    assert build_qpd(NoiseCircuitSpec(layers=1, p_layer=0.0, qubits=4)).q == (1.0, 0.0)
    one_qubit = NoiseCircuitSpec(layers=1, p_layer=0.1, qubits=1)
    qpd = build_qpd(one_qubit)
    assert qpd.gamma == pytest.approx(gamma_layer(one_qubit), rel=1e-12)
    assert qpd.q[0] + qpd.q[1] == pytest.approx(1.0, abs=1e-12)  # trace preserving
    assert qpd.q[1] < 0


def test_qpd_composition_residual():
    for n in (1, 2):
        qpd = build_qpd(NoiseCircuitSpec(layers=1, p_layer=0.13, qubits=n))
        assert qpd_composition_residual(qpd.q, n, 0.13) <= 1e-9
    with pytest.raises(ValueError):
        qpd_composition_residual((1.0, 0.0), 5, 0.1)


ORACLE_CASES = {
    "1x2-P0.05-D4": (SPEC, 0.05, 4, 800),
    "1x2-P0.2-D7": (SPEC, 0.2, 7, 800),
    "1x2-P0-D4": (SPEC, 0.0, 4, 800),
    "1x3-U8-P0.3-D6": (HubbardSpec(1, 3, "open", 1.0, 8.0, 3.75), 0.3, 6, 800),
    # crosses the first 4,096-shot block boundary into a partial block
    "1x2-P0.05-D4-4200shots": (SPEC, 0.05, 4, 4_200),
}


@pytest.mark.parametrize("spec, p_layer, layers, n_shots", ORACLE_CASES.values(),
                         ids=ORACLE_CASES.keys())
def test_kernels_produce_identical_discrete_outputs(spec, p_layer, layers, n_shots):
    noise = NoiseCircuitSpec(layers=layers, p_layer=p_layer, qubits=spec.qubits)
    strings = sorted(build_hubbard_pauli(spec).terms)
    _, _, term_x, term_z, expect0 = simcore._frame_terms(spec)
    qpd = build_qpd(noise)
    p_twirl = abs(qpd.q[1]) / qpd.gamma
    draws = simcore._shot_draws(21, n_shots, layers, 4**spec.qubits, len(strings))
    frame = simcore.run_shots(expect0, term_x, term_z, (1.0 - p_layer) ** layers,
                              p_twirl, *draws, spec.qubits)
    oracle = density_matrix_shots_reference(
        prepare_ground_state(spec).entries, p_layer, p_twirl, *draws, strings,
        spec.qubits)
    for a, b in zip(frame, oracle):
        assert np.array_equal(a, b)
    # the comparison is not vacuous: twirls are sampled whenever P > 0
    assert (np.count_nonzero(frame[1]) > 0) == (p_layer > 0)


def test_term_order_is_display_string_order():
    # the u_outcome column of each term is its position in this order; the
    # base-4 twirl indices map one to one onto display strings, in order
    for q in (1, 2, 3):
        strings = [pauli_string(simcore.pauli_masks(i, q), q) for i in range(4**q)]
        assert all(a < b for a, b in zip(strings, strings[1:]))
    for spec in (SPEC, HubbardSpec(1, 3, "periodic", 1.0, 8.0, 3.75)):
        decomp = build_hubbard_pauli(spec)
        _, coeffs, term_x, term_z, _ = simcore._frame_terms(spec)
        keys = list(zip(term_x.tolist(), term_z.tolist()))
        strings = [pauli_string(key, decomp.n) for key in keys]
        assert strings == sorted(strings)
        assert coeffs.tolist() == [decomp.terms[key] for key in keys]
        assert sorted(keys) == sorted(decomp.terms)


def test_simulate_report_ground_energy_is_the_exact_one():
    report = simulate_report(SPEC, NOISE, n_shots=5_000, seed=3, batch=100)
    assert report["exact_ground_energy"] == pytest.approx(
        dense_ground_state(build_hubbard_pauli(SPEC))[0], abs=1e-12)


@pytest.mark.parametrize("spec, gap, degeneracy", [
    (SPEC, 2.0 * math.sqrt(2.0) - 2.0, 1),
    (HubbardSpec(1, 3, "open", 1.0, 8.0, 3.75), None, 2),
    (HubbardSpec(1, 3, "periodic", 1.0, 8.0, 3.75), None, 4),
    (HubbardSpec(1, 5, "periodic", 1.0, 4.0, 3.0), 0.686, 1),
], ids=["1x2-open", "1x3-open", "1x3-periodic", "1x5-periodic"])
def test_simulate_report_ground_diagnostics(spec, gap, degeneracy):
    noise = NoiseCircuitSpec(layers=2, p_layer=0.01, qubits=spec.qubits)
    report = simulate_report(spec, noise, n_shots=5_000, seed=1, batch=100)
    spectrum = np.linalg.eigvalsh(reconstruct_matrix(build_hubbard_pauli(spec)))
    ties = spectrum <= spectrum[0] + 1e-8
    assert report["ground_degeneracy"] == np.count_nonzero(ties) == degeneracy
    assert report["ground_gap"] == pytest.approx(spectrum[~ties][0] - spectrum[0], abs=1e-9)
    if gap is not None:
        assert report["ground_gap"] == pytest.approx(gap, abs=1e-3)
    n_up, n_dn = report["ground_sector"]
    assert (n_up, n_dn) == simcore.hubbard.ground_state(build_hubbard_pauli(spec)).sector
    assert report["exact_ground_energy"] == pytest.approx(spectrum[0], abs=1e-10)


def test_estimator_streams_are_pinned():
    # recorded by feeding _shot_draws(2024, 2000, ...) of the (seed, block)
    # keyed streams to density_matrix_shots_reference and forming the mean
    # and variance of its outcomes; a change of stream keying, block size or
    # draw order moves these bits
    mean, variance, _ = run_pec_estimate(SPEC, NOISE, 2_000, seed=2024)
    assert mean == float.fromhex("-0x1.7142703055f83p+1")
    assert variance == float.fromhex("0x1.1629b10b97fa8p+3")
    raw_mean, raw_variance = run_raw_estimate(SPEC, NOISE, 2_000, seed=2024)
    assert raw_mean == float.fromhex("-0x1.29cac083126e9p+1")
    assert raw_variance == float.fromhex("0x1.8134197a42144p+1")


def test_shot_streams_are_blocked_prefixes():
    layers, d2, n_terms = 4, 4**4, 14
    for seed in (0, 2024, 2**64 - 2):
        short = simcore._shot_draws(seed, 5_000, layers, d2, n_terms)
        long = simcore._shot_draws(seed, 9_000, layers, d2, n_terms)
        # 5,000 shots end inside block 1, 9,000 inside block 2
        for a, b in zip(short, long):
            assert np.array_equal(a, b[:5_000])
        # distinct seeds give distinct streams, and so do distinct blocks
        for a, b in zip(long, simcore._shot_draws(seed + 1, 9_000, layers, d2, n_terms)):
            assert not np.array_equal(a, b)
        block = simcore.SHOT_BLOCK
        for a in long:
            assert not np.array_equal(a[:block], a[block:2 * block])
    u_branch, twirl_idx, u_outcome = simcore._shot_draws(2**64 - 1, 5_000, layers, d2,
                                                         n_terms)
    assert u_branch.shape == (5_000, layers) and u_outcome.shape == (5_000, n_terms)
    assert twirl_idx.min() >= 1 and twirl_idx.max() < d2


def test_shot_draw_capacity():
    n_shots = simcore.MAX_DRAW_BYTES // (8 * (2 * 4 + 14)) + 1
    with pytest.raises(CapacityError, match="GiB"):
        simcore._shot_draws(0, n_shots, 4, 4**4, 14)
    with pytest.raises(CapacityError):
        run_raw_estimate(SPEC, NOISE, 10**11, seed=0)


def test_noiseless_pec_is_unbiased():
    clean = NoiseCircuitSpec(layers=4, p_layer=0.0, qubits=4)
    mean, variance, records = run_pec_estimate(SPEC, clean, 20_000, seed=5)
    e0 = exact_ground_energy(SPEC)
    assert abs(mean - e0) <= 3.0 * math.sqrt(variance / 20_000)
    assert all(record.sign == 1 for record in records[:100])


def test_raw_equals_pec_at_zero_noise():
    clean = NoiseCircuitSpec(layers=4, p_layer=0.0, qubits=4)
    pec_mean, pec_var, _ = run_pec_estimate(SPEC, clean, 5_000, seed=3)
    raw_mean, raw_var = run_raw_estimate(SPEC, clean, 5_000, seed=3)
    assert pec_mean == raw_mean
    assert pec_var == raw_var


def test_raw_mean_matches_analytic_bias():
    raw_mean, raw_var = run_raw_estimate(SPEC, NOISE, 40_000, seed=13)
    decomp = build_hubbard_pauli(SPEC)
    ham = simcore.HamiltonianSummary(
        norm2=math.sqrt(simcore.hubbard.norm2_squared(decomp)),
        trace_over_d=decomp.identity_coefficient,
        e0_proxy=exact_ground_energy(SPEC))
    expected = noisy_mean(NOISE, ham)
    assert abs(raw_mean - expected) <= 3.0 * math.sqrt(raw_var / 40_000)


def test_seed_determinism_and_worker_invariance():
    mean_a, var_a, records_a = run_pec_estimate(SPEC, NOISE, 4_000, seed=42, workers=1)
    mean_b, var_b, records_b = run_pec_estimate(SPEC, NOISE, 4_000, seed=42, workers=4)
    assert mean_a == mean_b and var_a == var_b
    assert records_a == records_b
    mean_c, _, _ = run_pec_estimate(SPEC, NOISE, 4_000, seed=43, workers=1)
    assert mean_c != mean_a


def test_shot_records_structure():
    _, _, records = run_pec_estimate(SPEC, NOISE, 500, seed=8)
    assert len(records) == 500
    for record in records[:50]:
        assert record.sign in (-1, 1)
        assert len(record.sampled_ops) == NOISE.layers
        # sign flips once per sampled twirl branch
        flips = sum(1 for op in record.sampled_ops if op != 0)
        assert record.sign == (-1) ** flips


def test_batch_means_and_validation():
    values = np.arange(10.0)
    means = batch_means(values, 2)
    assert np.array_equal(means, [0.5, 2.5, 4.5, 6.5, 8.5])
    with pytest.raises(ValidationError):
        batch_means([1.0], 5)


def test_normality_check_calibration():
    rng = np.random.default_rng(17)
    normal_means = rng.normal(size=400)
    stat = normality_check(normal_means, batch=500)
    assert stat < lilliefors_critical(400, 0.05)
    skewed = rng.exponential(size=400)
    assert normality_check(skewed, batch=500) > lilliefors_critical(400, 0.05)
    with pytest.raises(ValidationError):
        normality_check(normal_means[:10], batch=500)
    with pytest.raises(ValidationError):
        normality_check(normal_means, batch=50)


def test_lilliefors_critical_values():
    assert lilliefors_critical(100, 0.05) == pytest.approx(
        0.895 / (10.0 - 0.01 + 0.085), rel=1e-12)
    assert lilliefors_critical(100, 0.01) > lilliefors_critical(100, 0.05)
    with pytest.raises(ValidationError):
        lilliefors_critical(100, 0.2)


def test_simulate_report_quick_run():
    report = simulate_report(SPEC, NOISE, n_shots=30_000, seed=7, batch=300)
    assert report["kernel"] == active_kernel()
    assert set(report["checks"]) == {
        "pec_unbiased", "raw_bias_matches", "variance_bounded",
        "gamma_within_3se", "batch_means_normal"}
    assert all(report["checks"].values())
    assert report["single_shot_variance"] <= 1.1 * report["single_shot_variance_bound"]


def test_gamma_check_is_three_standard_errors():
    # small_sim at 10k shots: a fixed 2% band on gamma failed 16 of these 200 seeds
    n_shots = 10_000
    gammas, flags = [], []
    for seed in range(200):
        report = simulate_report(SPEC, NOISE, n_shots=n_shots, seed=seed, batch=200)
        gammas.append(report["gamma_empirical"])
        flags.append(report["checks"]["gamma_within_3se"])
    gammas = np.array(gammas)
    gt = report["gamma_total"]
    # delta method on gamma = 1/mean_sign
    se = gammas**2 * np.sqrt((1.0 - gammas**-2) / n_shots)
    assert flags == list(np.abs(gammas - gt) <= 3.0 * se)
    assert flags.count(False) <= 2  # 0.27% of seeds expected outside 3 SE
    # the delta-method standard error matches the spread of gamma over seeds
    assert np.std(gammas, ddof=1) == pytest.approx(np.mean(se), rel=0.15)


def test_simulator_capacity_and_validation():
    with pytest.raises(CapacityError):
        run_pec_estimate(HubbardSpec(8, 8, "periodic"), NOISE, 10, seed=0)
    with pytest.raises(ValidationError):
        run_pec_estimate(SPEC, NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=6),
                         10, seed=0)
    with pytest.raises(ValidationError):
        run_pec_estimate(SPEC, NOISE, 0, seed=0)
    # seeds key the Philox streams as 64-bit words; out-of-range seeds
    # would alias in-range ones
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="seed"):
            run_pec_estimate(SPEC, NOISE, 10, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            simulate_report(SPEC, NOISE, n_shots=10, seed=seed)
    run_raw_estimate(SPEC, NOISE, 10, seed=2**64 - 1)  # the largest seed is accepted
