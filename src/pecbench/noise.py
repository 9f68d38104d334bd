"""Every closed-form law of layered global depolarizing noise.

Each layer maps rho -> (1-P) rho + P I/d, so every non-identity expectation
decays by keep = (1-P)^D.  Covers keep, the biased raw mean and the P at
which it crosses the upper energy bound, P from two-qubit gate error, the
quasi-probability decomposition (QPD) of the inverse layer that PEC samples
(Temme, Bravyi & Gambetta, PRL 119, 180509 (2017)), its overhead, and the
exact single-shot variance laws of the PEC and raw estimators.

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


def raw_sigma(ham: HamiltonianSummary, n_shots: float) -> float:
    """Best-case standard deviation of the unmitigated energy estimate."""
    if n_shots < 1:
        raise ValidationError(f"n_shots must be >= 1, got {n_shots}")
    return ham.norm2 / math.sqrt(n_shots)


def keep(noise: NoiseCircuitSpec) -> float:
    """Decay (1-P)^D of every non-identity expectation after the D layers."""
    return (1.0 - noise.p_layer) ** noise.layers


def noisy_mean(noise: NoiseCircuitSpec, ham: HamiltonianSummary) -> float:
    """Mean of the unmitigated estimator after D depolarizing layers.

    (1-P)^D e0 + (1 - (1-P)^D) Tr[H]/d; the D layers compose into a single
    depolarizing channel with probability 1 - (1-P)^D.
    """
    survival = keep(noise)
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


@dataclass(frozen=True)
class QuasiProbDecomposition:
    """Signed two-branch decomposition of the inverse depolarizing layer.

    q[0] weighs the identity branch, q[1] the uniform average over all
    non-identity Pauli conjugations; gamma = sum |q_i|.  A layer takes the
    twirl with probability p_twirl = |q[1]| / gamma; a shot weighs gamma^D.
    """

    q: tuple
    gamma: float
    p_twirl: float
    weight: float


def build_qpd(noise: NoiseCircuitSpec) -> QuasiProbDecomposition:
    """Optimal-negativity inverse of one global depolarizing layer.

    q_id = (1 - P/d^2)/(1 - P) on the identity, q_twirl = -(P/(1-P)) *
    (d^2 - 1)/d^2 on the uniform non-identity Pauli twirl; the pair
    composes with the noise layer to the exact identity map and gamma
    matches the analytic per-layer negativity.
    """
    p = noise.p_layer
    inv_d2 = math.ldexp(1.0, -2 * noise.qubits)  # 1/d^2, underflows cleanly
    q_id = (1.0 - p * inv_d2) / (1.0 - p)
    q_twirl = -(p / (1.0 - p)) * (1.0 - inv_d2)
    gamma = q_id + abs(q_twirl)
    return QuasiProbDecomposition(q=(q_id, q_twirl), gamma=gamma, p_twirl=abs(q_twirl) / gamma,
                                  weight=_pec_power(gamma, noise.layers))


def _pec_power(gamma: float, exponent: int) -> float:
    """gamma^exponent: a shot's weight (exponent D), its square (2D) or fourth power (4D).

    Raises NumericDomainError when it overflows a float: the PEC estimator's
    outcomes and variance are then out of range.
    """
    try:
        return gamma**exponent
    except OverflowError:
        raise NumericDomainError(
            f"the PEC overhead gamma^{exponent} = {gamma!r}^{exponent} overflows a float; "
            "lower [noise] p_layer or [circuit] layers") from None


def single_shot_variance_law(coeffs, expect0, noise: NoiseCircuitSpec) -> float:
    """Exact single-shot variance of the PEC estimator on terms a_j, <P_j>_0 = e_j.

    A shot is c + s W sum_j a_j o_j with W = gamma_layer^D, s = +/-1 the
    twirl-parity sign and o_j = +/-1.  Given the net twirl Q the o_j are
    independent with mean keep sigma_j(Q) e_j, keep = (1-P)^D and
    sigma_j(Q) = +/-1 the commutation sign.  One layer gives
    E[sigma(Q_l, R)] = lambda = 1 - p_twirl d^2/(d^2 - 1) for every
    non-identity R, and P_j P_k is such an R for every j != k, so with
    kappa = keep^2 lambda^D and m = sum_j a_j e_j

        Var = W^2 [sum_j a_j^2 (1 - kappa e_j^2) + kappa m^2] - m^2.

    The paper's norm2^2 gamma_tot^2 leaves out (W^2 kappa - 1) m^2, the
    variance of the sign on a nonzero traceless mean.
    """
    qpd = build_qpd(noise)
    lam = 1.0 - qpd.p_twirl / (1.0 - math.ldexp(1.0, -2 * noise.qubits))
    kappa = (1.0 - noise.p_layer) ** (2 * noise.layers) * lam**noise.layers
    m = float(coeffs @ expect0)
    second = float(coeffs**2 @ (1.0 - kappa * expect0**2)) + kappa * m * m
    return _pec_power(qpd.gamma, 2 * noise.layers) * second - m * m


def raw_variance_law(coeffs, expect0, noise: NoiseCircuitSpec) -> float:
    """Exact single-shot variance of the raw estimator on terms a_j, <P_j>_0 = e_j.

    A raw shot is c + sum_j a_j o_j with independent o_j = +/-1 of mean
    keep e_j, keep = (1-P)^D, so Var = sum_j a_j^2 (1 - keep^2 e_j^2).
    """
    keep2 = (1.0 - noise.p_layer) ** (2 * noise.layers)
    return float(coeffs**2 @ (1.0 - keep2 * expect0**2))
