import math

import pytest

from pecbench.errors import NumericDomainError, ValidationError
from pecbench.noise import (
    HamiltonianSummary,
    NoiseCircuitSpec,
    gamma_layer,
    gamma_total,
    noisy_mean,
    p_layer_from_gate_error,
    raw_sigma,
    threshold_p,
)


def _ham(norm2=2.0, trace_over_d=-1.0, e0=-3.0):
    return HamiltonianSummary(norm2=norm2, trace_over_d=trace_over_d, e0_proxy=e0)


def test_gamma_layer_values():
    assert gamma_layer(NoiseCircuitSpec(layers=1, p_layer=0.0, qubits=3)) == 1.0
    # single qubit at P = 0.1: (1 + 0.5*0.1) / 0.9
    got = gamma_layer(NoiseCircuitSpec(layers=1, p_layer=0.1, qubits=1))
    assert got == pytest.approx(1.05 / 0.9, rel=1e-14)
    # large d: (1 + P) / (1 - P)
    got = gamma_layer(NoiseCircuitSpec(layers=1, p_layer=0.2, qubits=200))
    assert got == pytest.approx(1.2 / 0.8, rel=1e-12)


def test_gamma_total_composes():
    noise = NoiseCircuitSpec(layers=5, p_layer=0.03, qubits=4)
    assert gamma_total(noise) == pytest.approx(gamma_layer(noise) ** 5, rel=1e-12)
    deep = NoiseCircuitSpec(layers=10**6, p_layer=0.5, qubits=4)
    assert gamma_total(deep) == math.inf


def test_sigma_laws():
    ham = _ham()
    assert raw_sigma(ham, 400.0) == pytest.approx(ham.norm2 / 20.0, rel=1e-14)
    with pytest.raises(ValidationError):
        raw_sigma(ham, 0.5)


def test_noisy_mean_endpoints():
    ham = _ham(e0=-3.0, trace_over_d=-1.0)
    clean = NoiseCircuitSpec(layers=4, p_layer=0.0, qubits=4)
    assert noisy_mean(clean, ham) == pytest.approx(-3.0, rel=1e-14)
    # deep-circuit limit: the mean collapses onto the trace point
    fried = NoiseCircuitSpec(layers=10_000, p_layer=0.5, qubits=4)
    assert noisy_mean(fried, ham) == pytest.approx(-1.0, abs=1e-12)
    # one layer at P: linear interpolation toward the trace point
    one = NoiseCircuitSpec(layers=1, p_layer=0.25, qubits=4)
    assert noisy_mean(one, ham) == pytest.approx(0.75 * -3.0 + 0.25 * -1.0, rel=1e-14)


def test_threshold_p_inverts_noisy_mean():
    ham = _ham(e0=-3.0, trace_over_d=-1.0)
    layers = 16
    e_plus = -2.5
    p_star = threshold_p(ham, e_plus, layers)
    noise = NoiseCircuitSpec(layers=layers, p_layer=p_star, qubits=4)
    assert noisy_mean(noise, ham) == pytest.approx(e_plus, rel=1e-12)


def test_threshold_p_domain():
    ham = _ham(e0=-3.0, trace_over_d=-1.0)
    with pytest.raises(NumericDomainError):
        # bound beyond the fully depolarized mean can never be reached
        threshold_p(ham, -0.5, 4)


def test_p_layer_from_gate_error():
    # survival composition: 1 - (1 - p)^g
    assert p_layer_from_gate_error(3e-4, 128) == pytest.approx(
        1.0 - (1.0 - 3e-4) ** 128, rel=1e-12)
    assert p_layer_from_gate_error(0.0, 50) == 0.0
    with pytest.raises(ValidationError):
        p_layer_from_gate_error(-0.1, 10)
    with pytest.raises(ValidationError):
        p_layer_from_gate_error(0.1, 0)


def test_noise_spec_validation():
    with pytest.raises(ValidationError):
        NoiseCircuitSpec(layers=0, p_layer=0.1, qubits=4)
    with pytest.raises(ValidationError):
        NoiseCircuitSpec(layers=1, p_layer=1.5, qubits=4)
    with pytest.raises(ValidationError):
        NoiseCircuitSpec(layers=1, p_layer=0.1, qubits=0)
    with pytest.raises(ValidationError):
        NoiseCircuitSpec(layers=1, p_layer=0.1, qubits=4, beta=0.0)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="beta"):
            NoiseCircuitSpec(layers=1, p_layer=0.1, qubits=4, beta=beta)
