"""Analytic cost model for layered global depolarizing noise.

Covers the optimal per-layer negativity of the inverse channel, the total
sampling overhead of probabilistic error cancellation (PEC), best-case
estimator widths with and without mitigation, the biased mean of the
unmitigated estimator, the noise level at which that mean crosses the upper
energy bound, and the conversion from two-qubit gate error to a layerwise
depolarizing probability.

The beta factor of the shot bound is 1 for depolarizing noise; it is kept
as an explicit field so other channels can plug in their own value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericDomainError, ValidationError


@dataclass(frozen=True)
class NoiseCircuitSpec:
    """D noise layers at layerwise depolarizing probability P on n qubits."""

    layers: int
    p_layer: float
    qubits: int
    beta: float = 1.0  # channel-dependent factor in the shot bound

    def __post_init__(self):
        if self.layers < 1:
            raise ValidationError(f"layers must be >= 1, got {self.layers}")
        if self.qubits < 1:
            raise ValidationError(f"qubits must be >= 1, got {self.qubits}")
        if not 0.0 <= self.p_layer < 1.0:
            raise ValidationError(
                f"p_layer must lie in [0, 1), got {self.p_layer}"
            )
        if not 0 < self.beta < math.inf:
            raise ValidationError(f"beta must be finite and positive, got {self.beta}")


@dataclass(frozen=True)
class HamiltonianSummary:
    """The three scalars the cost model needs about the observable.

    norm2 is the 2-norm of the non-identity Pauli weights, trace_over_d is
    Tr[H]/d, and e0_proxy stands in for the unknown ground energy (by
    default the midpoint of the classical bounds; the exact value can be
    injected on instances where the sector solver provides it).
    """

    norm2: float
    trace_over_d: float
    e0_proxy: float

    def __post_init__(self):
        if not (self.norm2 > 0 and math.isfinite(self.norm2)):
            raise ValidationError(f"norm2 must be positive, got {self.norm2}")
        if not (math.isfinite(self.trace_over_d) and math.isfinite(self.e0_proxy)):
            raise ValidationError("trace_over_d and e0_proxy must be finite")


def gamma_layer(noise: NoiseCircuitSpec) -> float:
    """Optimal negativity of the inverse of one depolarizing layer.

    (1 + (1 - 2/d^2) P) / (1 - P) with d = 2^n.  For n beyond ~30 qubits
    the 2/d^2 correction underflows to zero in double precision; the value
    then equals (1 + P)/(1 - P), which is the documented behaviour.
    """
    if noise.p_layer >= 1.0:
        raise NumericDomainError("gamma diverges at P = 1")
    two_over_d2 = math.ldexp(2.0, -2 * noise.qubits)  # 2 / 4^n, underflows cleanly
    p = noise.p_layer
    return (1.0 + (1.0 - two_over_d2) * p) / (1.0 - p)


def gamma_total(noise: NoiseCircuitSpec) -> float:
    """Total sampling overhead gamma_layer^D; +inf beyond floating range."""
    gl = gamma_layer(noise)
    try:
        return math.exp(noise.layers * math.log(gl))
    except OverflowError:
        return math.inf


def pec_sigma(noise: NoiseCircuitSpec, ham: HamiltonianSummary, n_shots: float) -> float:
    """Best-case standard deviation of the PEC energy estimate."""
    if n_shots < 1:
        raise ValidationError(f"n_shots must be >= 1, got {n_shots}")
    return ham.norm2 * gamma_total(noise) * math.sqrt(noise.beta / n_shots)


def raw_sigma(ham: HamiltonianSummary, n_shots: float) -> float:
    """Best-case standard deviation of the unmitigated energy estimate."""
    if n_shots < 1:
        raise ValidationError(f"n_shots must be >= 1, got {n_shots}")
    return ham.norm2 / math.sqrt(n_shots)


def noisy_mean(noise: NoiseCircuitSpec, ham: HamiltonianSummary) -> float:
    """Mean of the unmitigated estimator after D depolarizing layers.

    (1-P)^D e0 + (1 - (1-P)^D) Tr[H]/d; the D layers compose into a single
    depolarizing channel with probability 1 - (1-P)^D.
    """
    survival = (1.0 - noise.p_layer) ** noise.layers
    return survival * ham.e0_proxy + (1.0 - survival) * ham.trace_over_d


def threshold_p(ham: HamiltonianSummary, e_plus: float, layers: int) -> float:
    """Depolarizing probability at which the noisy mean reaches e_plus.

    1 - ((e_plus - Tr[H]/d) / (e0 - Tr[H]/d))^(1/D).  Raises when the
    bounds are inconsistent with a below-trace ground state.
    """
    if layers < 1:
        raise ValidationError(f"layers must be >= 1, got {layers}")
    denom = ham.e0_proxy - ham.trace_over_d
    if denom == 0.0:
        raise NumericDomainError("e0_proxy equals Tr[H]/d; threshold undefined")
    ratio = (e_plus - ham.trace_over_d) / denom
    if not 0.0 < ratio <= 1.0:
        raise NumericDomainError(
            f"(e_plus - tr/d)/(e0 - tr/d) = {ratio} lies outside (0, 1]"
        )
    return 1.0 - ratio ** (1.0 / layers)


def p_layer_from_gate_error(p_2q: float, gates_per_layer: int) -> float:
    """Layerwise depolarizing probability 1 - (1 - p)^N from gate error p."""
    if not 0.0 <= p_2q < 1.0:
        raise ValidationError(f"p_2q must lie in [0, 1), got {p_2q}")
    if gates_per_layer < 1:
        raise ValidationError(f"gates_per_layer must be >= 1, got {gates_per_layer}")
    return -math.expm1(gates_per_layer * math.log1p(-p_2q))


def shots_required(noise: NoiseCircuitSpec, ham: HamiltonianSummary, target_sigma: float):
    """Minimal shot count for a target_sigma estimate; +inf on overflow."""
    if target_sigma <= 0:
        raise ValidationError(f"target_sigma must be positive, got {target_sigma}")
    gt = gamma_total(noise)
    value = (ham.norm2 * gt / target_sigma) ** 2 * noise.beta
    if math.isinf(value):
        return math.inf
    return max(1, math.ceil(value))
