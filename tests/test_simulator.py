import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from pecbench.errors import CapacityError, ValidationError
from pecbench.hubbard import (
    HubbardSpec,
    build_hubbard_pauli,
    exact_ground_energy,
    pauli_string,
)
from pecbench import noise as noise_model
from pecbench.noise import NoiseCircuitSpec, build_qpd, gamma_layer, noisy_mean
from pecbench.simulator import (
    active_kernel,
    batch_means,
    lilliefors_critical,
    normality_check,
    prepare_ground_state,
    run_pec_estimate,
    run_raw_estimate,
    simulate_report,
)
from pecbench import simulator as simcore

from oracles import (
    apply_depolarizing,
    byte_tables_reference,
    dense_ground_state,
    density_matrix_shots_reference,
    frame_shots_reference,
    pauli_masks,
    pec_variance_reference,
    purity,
    qpd_composition_residual,
    raw_variance_reference,
    reconstruct_matrix,
    shot_draws_reference,
    validate_density_matrix,
)

SPEC = HubbardSpec(1, 2, "open", 1.0, 4.0, 1.0)
NOISE = NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=4)


def _frame_terms(spec):
    """term_data of the instance and its ground vector."""
    decomp = build_hubbard_pauli(spec)
    return simcore.hubbard.term_data(decomp, simcore.hubbard.ground_state(decomp).vector)


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
    # the sampled twirl rate and the D-layer shot weight
    deep = NoiseCircuitSpec(layers=5, p_layer=0.1, qubits=1)
    assert build_qpd(deep).p_twirl == -qpd.q[1] / qpd.gamma
    assert build_qpd(deep).weight == pytest.approx(qpd.gamma**5, rel=1e-15)


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
    _, term_x, term_z, expect0 = _frame_terms(spec)
    qpd = build_qpd(noise)
    p_twirl = abs(qpd.q[1]) / qpd.gamma
    draws = simcore._shot_draws(21, n_shots, layers, 4**spec.qubits, len(strings))
    frame = simcore.run_shots(expect0, simcore.byte_tables(term_x, term_z, spec.qubits),
                              (1.0 - p_layer) ** layers, p_twirl, *draws)
    oracle = density_matrix_shots_reference(
        prepare_ground_state(spec).entries, p_layer, p_twirl, *draws, strings,
        spec.qubits)
    for a, b in zip(frame, oracle):
        assert np.array_equal(a, b)
    # the comparison is not vacuous: twirls are sampled whenever P > 0
    assert (np.count_nonzero(frame[1]) > 0) == (p_layer > 0)


# run_shots reads one byte table per byte of the 2n-bit frame index: 1x5
# periodic is 10 qubits and 3 tables, 2x3 open 12 and 3, 1x7 open 14 and 4
FRAME_LATTICES = {
    "1x5-periodic": HubbardSpec(1, 5, "periodic", 1.0, 4.0, 3.0),
    "2x3-open": HubbardSpec(2, 3, "open", 1.0, 4.0, 1.0),
    "1x7-open": HubbardSpec(1, 7, "open", 1.0, 4.0, 1.0),
}


def _frame_inputs(spec, layers, n_shots):
    """Term masks of the instance, a synthetic <P_j>_0 and the shot draws.

    The expectations need no sector solve.  They include +/-1 and 0, and
    +/-1.25, whose product with keep < 1 can still leave [-1, 1], so both
    clip bounds are reached.
    """
    keys = list(build_hubbard_pauli(spec).terms)
    term_x = np.array([x for x, _ in keys], dtype=np.int64)
    term_z = np.array([z for _, z in keys], dtype=np.int64)
    expect0 = np.random.default_rng(spec.sites).uniform(-1.0, 1.0, len(keys))
    expect0[:5] = (1.0, -1.0, 0.0, 1.25, -1.25)
    draws = simcore._shot_draws(11, n_shots, layers, 4**spec.qubits, len(keys))
    return expect0, term_x, term_z, draws


@pytest.mark.parametrize("n_shots", [1, 4_095, 4_097, 8_193])
@pytest.mark.parametrize("spec", FRAME_LATTICES.values(), ids=FRAME_LATTICES.keys())
def test_table_kernel_matches_the_per_term_kernel(spec, n_shots):
    noise = NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=spec.qubits)
    qpd = build_qpd(noise)
    keep = (1.0 - noise.p_layer) ** noise.layers
    expect0, term_x, term_z, draws = _frame_inputs(spec, noise.layers, n_shots)
    for p_twirl in (0.0, abs(qpd.q[1]) / qpd.gamma, 0.9):
        ours = simcore.run_shots(expect0, simcore.byte_tables(term_x, term_z, spec.qubits),
                                 keep, p_twirl, *draws)
        reference = frame_shots_reference(expect0, term_x, term_z, keep, p_twirl, *draws,
                                          spec.qubits)
        for a, b in zip(ours, reference):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# 1x2 open is 4 qubits and one byte table, 1x5 periodic 10 and 3, 1x7 open 14 and 4
@pytest.mark.parametrize("spec", [SPEC, FRAME_LATTICES["1x5-periodic"],
                                  FRAME_LATTICES["1x7-open"]],
                         ids=["4-qubits", "10-qubits", "14-qubits"])
def test_byte_tables_match_the_symplectic_product(spec):
    # the instance's terms, and random masks that reach every digit pattern
    keys = list(build_hubbard_pauli(spec).terms)
    random_masks = np.random.default_rng(spec.qubits).integers(0, 2**spec.qubits, (2, 64))
    term_x = np.concatenate([[x for x, _ in keys], random_masks[0]]).astype(np.int64)
    term_z = np.concatenate([[z for _, z in keys], random_masks[1]]).astype(np.int64)
    ours = simcore.byte_tables(term_x, term_z, spec.qubits)
    reference = byte_tables_reference(term_x, term_z, spec.qubits)
    assert ours.dtype == reference.dtype and ours.shape == reference.shape
    for k in range(len(reference)):
        for v in range(256):
            assert np.array_equal(ours[k, v], reference[k, v]), (k, v)


@pytest.mark.parametrize("n_shots", [1, 4_097])
@pytest.mark.parametrize("spec", [SPEC, FRAME_LATTICES["1x5-periodic"],
                                  FRAME_LATTICES["2x3-open"]],
                         ids=["1x2-open", "1x5-periodic", "2x3-open"])
def test_raw_shots_are_the_kernel_at_zero_twirl_rate(spec, n_shots):
    # the raw pass is one comparison per term; the reference scans frames,
    # signs and branches at p_twirl = 0 and must give the same outcomes
    expect0, term_x, term_z, draws = _frame_inputs(spec, 4, n_shots)
    keep = noise_model.keep(NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=spec.qubits))
    ours = simcore.raw_shots(expect0, keep, draws[2])
    sign, branch, reference = frame_shots_reference(expect0, term_x, term_z, keep, 0.0,
                                                    *draws, spec.qubits)
    assert ours.dtype == reference.dtype and np.array_equal(ours, reference)
    assert not branch.any() and (sign == 1).all()


def test_run_shots_memory_is_bounded_by_the_shot_block():
    spec, layers, n_shots = FRAME_LATTICES["1x5-periodic"], 7, 20_000
    expect0, term_x, term_z, draws = _frame_inputs(spec, layers, n_shots)
    tracemalloc.start()
    try:
        outputs = simcore.run_shots(expect0, simcore.byte_tables(term_x, term_z, spec.qubits),
                                    0.5, 0.3, *draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # What the kernel holds besides its outputs, as if every temporary were
    # live at once.  Per shot of a block: a float64 threshold and a bool
    # anticommutation flag for each term (9 bytes a term; the XOR of table
    # rows holds 3 bool rows, fewer), a twirl flag and an int64 branch entry
    # for each layer before it is stored (9 bytes a layer), and four int64
    # vectors (frame, shifted frame, byte index, sign).  Once: the byte
    # tables, 256 bool rows per byte of the frame index, and numpy's
    # iterator buffers, np.getbufsize() float64s for each of two operands.
    # The table build's temporaries, at most two uint8 arrays the size of the
    # tables (2 x 256 bytes per table and term), are freed before the first
    # block and are smaller than a block's 9 x 4,096 bytes per term.  A
    # temporary spanning all shots breaks it.
    block, n_terms = simcore.SHOT_BLOCK, len(term_x)
    tables = -(-2 * spec.qubits // 8) * 256 * n_terms
    bound = block * (9 * n_terms + 9 * layers + 4 * 8) + tables + 2 * 8 * np.getbufsize()
    assert peak - sum(a.nbytes for a in outputs) <= bound
    assert n_shots * n_terms * 8 > bound  # a float64 column per term for all shots


def test_term_order_is_display_string_order():
    # the u_outcome column of each term is its position in this order; the
    # base-4 twirl indices map one to one onto display strings, in order
    for q in (1, 2, 3):
        strings = [pauli_string(pauli_masks(i, q), q) for i in range(4**q)]
        assert all(a < b for a, b in zip(strings, strings[1:]))
    for spec in (SPEC, HubbardSpec(1, 3, "periodic", 1.0, 8.0, 3.75)):
        decomp = build_hubbard_pauli(spec)
        coeffs, term_x, term_z, _ = _frame_terms(spec)
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


def test_raw_estimate_builds_no_tables(monkeypatch):
    # raw shots never twirl, so the raw estimator reads no byte tables and
    # must not build them; its bits are test_estimator_streams_are_pinned's
    def refuse(*args):
        raise AssertionError("the raw estimator built byte tables")

    monkeypatch.setattr(simcore, "byte_tables", refuse)
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


# the 4-qubit small_sim instance, the 10-qubit 1x5 chain and the 14-qubit 1x7
# chain, each with its term count
@pytest.mark.parametrize("qubits, n_terms", [(4, 14), (10, 35), (14, 45)])
@pytest.mark.parametrize("layers", [1, 4, 7])
def test_trimmed_draws_equal_full_block_draws(qubits, n_terms, layers):
    # the branch and term uniforms draw only the rows a block keeps, and the
    # twirl indices start from a counter advance; one counter step too many
    # or too few shifts every later draw of the block
    for n_shots in (1, 30, 4_095, 4_096, 4_097, 8_193):
        ours = simcore._shot_draws(7, n_shots, layers, 4**qubits, n_terms)
        reference = shot_draws_reference(7, n_shots, layers, 4**qubits, n_terms)
        for a, b in zip(ours, reference):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_shot_draw_capacity():
    n_shots = simcore.MAX_DRAW_BYTES // (8 * (2 * 4 + 14)) + 1
    with pytest.raises(CapacityError, match="GiB"):
        simcore._shot_draws(0, n_shots, 4, 4**4, 14)
    with pytest.raises(CapacityError):
        run_raw_estimate(SPEC, NOISE, 10**11, seed=0)


def test_shot_draw_capacity_message_exceeds_the_cap():
    # 14,913,081 shots x (2 x 4 + 10) draws x 8 bytes is 2.01 GiB, over the 2 GiB cap
    with pytest.raises(CapacityError) as raised:
        simcore._shot_draws(1, 14_913_081, 4, 16, 10)
    message = str(raised.value)
    figure = float(re.search(r"need ([0-9.]+) GiB", message).group(1))
    cap = simcore.MAX_DRAW_BYTES / 2**30
    assert figure > cap and figure == 2.01
    assert message.startswith("[simulate] shots = 14913081 at [circuit] layers = 4 ")
    assert f"the {cap:.0f} GiB cap" in message


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
    ham = noise_model.HamiltonianSummary(
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


def test_estimators_return_finite_moments_where_the_fourth_moment_overflows():
    # at D = 100, P = 0.9 the PEC shot weight gamma^D is about 1e127: the mean
    # and the ddof=1 variance are finite, the fourth moment of SE(s^2) is not
    noise = NoiseCircuitSpec(layers=100, p_layer=0.9, qubits=SPEC.qubits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, variance, records = run_pec_estimate(SPEC, noise, 200, seed=7)
        raw_mean, raw_var = run_raw_estimate(SPEC, noise, 200, seed=7)
    assert all(map(math.isfinite, (mean, variance, raw_mean, raw_var)))
    outcomes = np.array([record.outcome for record in records])
    assert (mean, variance) == (float(np.mean(outcomes)), float(np.var(outcomes, ddof=1)))
    assert variance > 1e250


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
        "pec_unbiased", "raw_bias_matches", "raw_variance_matches", "variance_bounded",
        "gamma_within_3se", "batch_means_normal"}
    assert all(report["checks"].values())
    assert report["single_shot_variance"] <= 1.1 * report["single_shot_variance_bound"]


@pytest.mark.parametrize("p_layer, layers", [(0.05, 2), (0.3, 3), (0.0, 2)])
def test_variance_law_matches_every_branch_sequence(p_layer, layers):
    # every real 2-qubit Pauli but the identity, with expectations that
    # keep their signs and magnitudes apart
    strings = ["IX", "IZ", "XI", "XX", "XZ", "YY", "ZI", "ZX", "ZZ"]
    term_x = np.array([int(s.replace("Z", "I").translate(str.maketrans("IXY", "011")), 2)
                       for s in strings])
    term_z = np.array([int(s.replace("X", "I").translate(str.maketrans("IYZ", "011")), 2)
                       for s in strings])
    rng = np.random.default_rng(layers)
    coeffs, expect0 = rng.normal(size=len(strings)), rng.uniform(-1.0, 1.0, len(strings))
    noise = NoiseCircuitSpec(layers=layers, p_layer=p_layer, qubits=2)
    qpd = build_qpd(noise)
    reference = pec_variance_reference(
        coeffs.tolist(), expect0.tolist(), term_x.tolist(), term_z.tolist(), 2,
        (1.0 - p_layer) ** layers, abs(qpd.q[1]) / qpd.gamma, qpd.gamma**layers, layers)
    assert noise_model.single_shot_variance_law(coeffs, expect0, noise) == pytest.approx(
        reference, rel=1e-12)


def test_variance_gate_is_the_exact_law():
    # 2x2 open: the single-shot variance exceeds the paper's one-sided
    # norm2^2 gamma_tot^2 by more than 10%, and lies within a fraction of a
    # standard error of the exact law; a law without its kappa m^2 term is
    # over 100 standard errors off
    spec = HubbardSpec(2, 2, "open", 1.0, 4.0, 1.0)
    noise = NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=8)
    report = simulate_report(spec, noise, n_shots=20_000, seed=7, batch=200)
    assert report["checks"]["variance_bounded"]
    assert report["single_shot_variance"] > 1.1 * report["single_shot_variance_bound"]


@pytest.mark.parametrize("p_layer, layers", [(0.05, 2), (0.3, 3), (0.0, 2)])
def test_raw_variance_law_matches_every_outcome(p_layer, layers):
    # 9 terms, as many as the real non-identity 2-qubit Paulis: 2^9 joint outcomes
    rng = np.random.default_rng(layers)
    coeffs, expect0 = rng.normal(size=9), rng.uniform(-1.0, 1.0, 9)
    noise = NoiseCircuitSpec(layers=layers, p_layer=p_layer, qubits=2)
    reference = raw_variance_reference(coeffs.tolist(), expect0.tolist(),
                                       (1.0 - p_layer) ** layers)
    assert noise_model.raw_variance_law(coeffs, expect0, noise) == pytest.approx(
        reference, rel=1e-12)


def test_raw_variance_gate_is_the_exact_law():
    # 2x2 open: the raw single-shot variance lies within a fraction of a
    # standard error of the exact law (z = -0.14); a law that forgets the
    # noise decay keep^2 is 10.9 standard errors off, so the gate sees it
    spec = HubbardSpec(2, 2, "open", 1.0, 4.0, 1.0)
    noise = NoiseCircuitSpec(layers=4, p_layer=0.05, qubits=8)
    report = simulate_report(spec, noise, n_shots=20_000, seed=7, batch=200)
    assert report["checks"]["raw_variance_matches"]
    solved = simcore.hubbard.solve(spec)
    undecayed = float(solved.coeffs**2 @ (1.0 - solved.expect0**2))
    assert abs(report["raw_variance"] - undecayed) > 10.0 * report["raw_variance_se"]


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
