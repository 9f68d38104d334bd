import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from pecbench.advantage import (
    LABEL_NONE,
    LABEL_PEC,
    LABEL_RAW,
    AdvantageProblem,
    _winner,
    classify,
    pec_success_proxy,
    per_site_summary,
    raw_success,
    sweep,
)
from pecbench.config import load_config
from pecbench.errors import ValidationError
from pecbench.noise import HamiltonianSummary, NoiseCircuitSpec, gamma_total, pec_sigma
from pecbench.stats import NormalSpec, interval_probability

REFERENCE_CFG = str(Path(__file__).resolve().parent.parent
                    / "configs" / "reference_instance.cfg")


def _default_axes():
    """The reference config's sweep axes: it sets no [sweep], so the defaults."""
    config = load_config(REFERENCE_CFG)
    return config.p_axis(), config.shot_axis()


def test_per_site_summary_scales_down():
    summary = per_site_summary(386.0, -112.0, -268.0, 64)
    assert summary.norm2 == pytest.approx(np.sqrt(386.0 / 64.0), rel=1e-14)
    assert summary.trace_over_d == pytest.approx(-1.75, rel=1e-14)
    assert summary.e0_proxy == pytest.approx(-268.0 / 64.0, rel=1e-14)
    with pytest.raises(ValidationError):
        per_site_summary(1.0, 0.0, 0.0, 0)


def test_reference_problem_shape():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    assert prob.noise.layers == 64
    assert prob.noise.qubits == 128
    assert prob.e_minus == -4.544
    assert prob.e_plus == -3.8365
    assert prob.midpoint == pytest.approx(-4.19025, rel=1e-12)


def test_proxy_matches_exact_at_midpoint():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    for p, n in [(1e-4, 1e4), (4e-3, 1e3), (1e-2, 1e6)]:
        proxy = pec_success_proxy(prob, n, p=p)
        noise = dataclasses.replace(prob.noise, p_layer=p)
        exact = interval_probability(
            NormalSpec(prob.midpoint, pec_sigma(noise, prob.ham, n)),
            prob.e_minus, prob.e_plus)
        assert proxy == pytest.approx(exact, abs=1e-12)


def test_pec_success_monotone_in_shots_and_noise():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    shots = [10, 100, 1000, 10_000]
    values = [pec_success_proxy(prob, n, p=1e-3) for n in shots]
    assert values == sorted(values)
    levels = [1e-5, 1e-3, 1e-2, 5e-2]
    values = [pec_success_proxy(prob, 1000, p=p) for p in levels]
    assert values == sorted(values, reverse=True)


def test_raw_success_uses_biased_mean():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    n = 1e6
    # at tiny noise the raw estimator is nearly unbiased and wins easily
    assert raw_success(prob, n, p=1e-6) > 0.999
    # past the crossing point the mean leaves the certified interval
    assert raw_success(prob, n, p=1e-2) < 1e-6


def test_raw_success_agrees_with_direct_interval():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    p, n = 1e-3, 1e5
    survival = (1.0 - p) ** prob.noise.layers
    mean = survival * prob.midpoint + (1.0 - survival) * prob.ham.trace_over_d
    sigma = prob.ham.norm2 / np.sqrt(n)
    want = interval_probability(NormalSpec(mean, sigma), prob.e_minus, prob.e_plus)
    assert raw_success(prob, n, p=p) == pytest.approx(want, abs=1e-14)


def test_classify_landmarks():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    assert classify(prob, 4e-3, 1e3) == LABEL_PEC
    assert classify(prob, 1e-4, 1e6) == LABEL_RAW
    assert classify(prob, 1e-3, 10) == LABEL_NONE


def test_classify_tie_prefers_raw():
    ham = HamiltonianSummary(norm2=1.0, trace_over_d=0.0, e0_proxy=0.0)
    noise = NoiseCircuitSpec(layers=1, p_layer=0.0, qubits=2)
    prob = AdvantageProblem(e_minus=-1.0, e_plus=1.0, ham=ham, noise=noise,
                            threshold=0.5)
    # P = 0: both strategies have identical distributions
    assert pec_success_proxy(prob, 100, p=0.0) == pytest.approx(
        raw_success(prob, 100, p=0.0), abs=1e-12)
    assert classify(prob, 0.0, 100) == LABEL_RAW


def test_tie_rule_rounds_like_the_builtin():
    # round(0.9585, 3) == 0.959 ties with PEC's 0.959; np.round gives 0.958
    labels = _winner(np.array([[0.959, 0.959, 0.5]]), np.array([[0.9585, 0.9584, 0.6]]),
                     0.95)
    assert labels.tolist() == [[LABEL_RAW, LABEL_PEC, LABEL_NONE]]


def _odd_erf(x: float) -> float:
    return math.copysign(math.erf(abs(x)), x)


def _cell_reference(prob, p, n):
    """The cell-by-cell laws in plain floats: (pec, raw, label)."""
    noise = dataclasses.replace(prob.noise, p_layer=p)
    scale = gamma_total(noise) * prob.ham.norm2 * math.sqrt(noise.beta)
    half_width = 0.5 * (prob.e_plus - prob.e_minus)
    pec = 0.0 if math.isinf(scale) else min(
        1.0, _odd_erf(half_width * math.sqrt(n / 2.0) / scale))
    survival = (1.0 - p) ** noise.layers
    mean = survival * prob.midpoint + (1.0 - survival) * prob.ham.trace_over_d
    width = prob.ham.norm2 / math.sqrt(n) * math.sqrt(2.0)
    mass = 0.5 * (_odd_erf((prob.e_plus - mean) / width)
                  - _odd_erf((prob.e_minus - mean) / width))
    raw = min(1.0, max(0.0, mass))
    if max(pec, raw) < prob.threshold:
        return pec, raw, LABEL_NONE
    return pec, raw, LABEL_RAW if round(raw, 3) >= round(pec, 3) else LABEL_PEC


def test_sweep_matches_cellwise_reference():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    # the default axes, plus P rows up to 0.99999, where gamma_tot overflows
    default_p, shots = _default_axes()
    for p_axis in (default_p, np.append(np.linspace(0.0, 0.99, 23), 0.99999)):
        grid = sweep(prob, p_axis, shots)
        for i, p in enumerate(p_axis):
            for j, n in enumerate(shots):
                pec, raw, label = _cell_reference(prob, float(p), float(n))
                assert grid.pec_success[i, j] == pec, (p, n)
                assert grid.raw_success[i, j] == raw, (p, n)
                assert grid.label[i, j] == label, (p, n)


def test_default_axes():
    p_axis, shots = _default_axes()
    assert np.array_equal(p_axis, np.logspace(-5, -1, 60))
    assert np.array_equal(shots, np.unique(np.round(np.logspace(0, 6, 60)).astype(np.int64)))
    assert shots[0] == 1 and shots[-1] == 10**6
    assert np.all(np.diff(shots) > 0)


def test_sweep_grid_consistent_with_pointwise():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    p_axis = np.array([1e-4, 4e-3, 2e-2])
    shots = np.array([10.0, 1e3, 1e6])
    grid = sweep(prob, p_axis, shots, workers=1)
    for i, p in enumerate(p_axis):
        for j, n in enumerate(shots):
            assert grid.pec_success[i, j] == pec_success_proxy(prob, n, p=p)
            assert grid.raw_success[i, j] == raw_success(prob, n, p=p)
            assert grid.label[i, j] == classify(prob, p, n)


def test_sweep_worker_invariance():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    p_axis, shots = _default_axes()
    one = sweep(prob, p_axis, shots, workers=1)
    four = sweep(prob, p_axis, shots, workers=4)
    assert np.array_equal(one.pec_success, four.pec_success)
    assert np.array_equal(one.raw_success, four.raw_success)
    assert np.array_equal(one.label, four.label)


def test_axis_validation():
    prob = load_config(REFERENCE_CFG).advantage_problem()
    with pytest.raises(ValidationError):
        sweep(prob, [0.1, 0.1], [10, 100], workers=1)
    with pytest.raises(ValidationError):
        sweep(prob, [0.5, 1.5], [10, 100], workers=1)
    with pytest.raises(ValidationError):
        sweep(prob, [1e-3], [0.5, 10], workers=1)
    with pytest.raises(ValidationError):
        sweep(prob, [1e-3], [10, np.inf])
    with pytest.raises(ValidationError):
        pec_success_proxy(prob, np.nan)
    with pytest.raises(ValidationError):
        AdvantageProblem(e_minus=1.0, e_plus=-1.0,
                         ham=HamiltonianSummary(1.0, 0.0, 0.0),
                         noise=NoiseCircuitSpec(layers=1, p_layer=0.0, qubits=2))
