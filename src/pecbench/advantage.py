"""Success probabilities and the winning-strategy phase diagram.

Success means the estimated energy lands inside the classically certified
interval (e_minus, e_plus).  Two strategies are compared cellwise over a
(noise level, shot budget) grid: probabilistic error cancellation (PEC,
unbiased, variance inflated by the total negativity) and raw estimation
(biased mean, per-shot variance of the noiseless estimator).

Units convention for the bundled 8x8 reference instance
(configs/reference_instance.cfg; RunConfig.advantage_problem builds it): the
engine is fed energy densities (energies per lattice site) together with the
matching per-site weight norm sqrt(sum_j a_j^2 / L).  This intensive
parameterization is what reproduces the documented phase-diagram landmarks
(no-advantage region below ~1e2 shots, PEC at P = 4e-3 around 1e3 shots,
PEC boundary near P = 4e-2 at 1e6 shots); feeding extensive (absolute)
energies shifts the shot axis by a factor of L and contradicts those
landmarks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .noise import HamiltonianSummary, NoiseCircuitSpec, gamma_total, noisy_mean, raw_sigma
from .stats import NormalSpec, erf, interval_probability

LABEL_PEC = "PEC"
LABEL_RAW = "RAW"
LABEL_NONE = "NONE"


@dataclass(frozen=True)
class AdvantageProblem:
    """Energy bounds, observable summary, noise model and success threshold."""

    e_minus: float
    e_plus: float
    ham: HamiltonianSummary
    noise: NoiseCircuitSpec
    threshold: float = 0.95

    def __post_init__(self):
        if not self.e_minus < self.e_plus:
            raise ValidationError(
                f"bounds out of order: e_minus={self.e_minus} >= e_plus={self.e_plus}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ValidationError(f"threshold must lie in (0, 1), got {self.threshold}")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.e_minus + self.e_plus)


@dataclass(frozen=True)
class RegimeGrid:
    """Cellwise success probabilities and winning-strategy labels.

    Arrays are indexed [p_index, shot_index].
    """

    p_values: np.ndarray
    shot_values: np.ndarray
    pec_success: np.ndarray
    raw_success: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        shape = (len(self.p_values), len(self.shot_values))
        for name in ("pec_success", "raw_success", "label"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValidationError(f"{name} has shape {arr.shape}, expected {shape}")
        for name in ("pec_success", "raw_success"):
            arr = getattr(self, name)
            if np.any((arr < 0) | (arr > 1)):
                raise ValidationError(f"{name} contains values outside [0, 1]")


# Half-way decimal cells within this of a half-milli take the builtin round
_HALF_MILLI_BAND = 1e-6


def _milli(values: np.ndarray) -> np.ndarray:
    """round(v, 3) * 1000 per cell, as integer-valued floats.

    rint(v * 1000) is the builtin round (correctly rounded decimal) except
    near a half-way decimal, where the product's rounding (<= 6e-14 for
    |v| <= 1) can decide it: round(0.9585, 3) == 0.959, but 0.9585 * 1000
    is exactly 958.5 and rints to 958, as np.round does.  Cells within
    _HALF_MILLI_BAND of a half-milli take the builtin.
    """
    values = np.asarray(values, dtype=float)
    scaled = values * 1000.0
    milli = np.rint(scaled)
    with np.errstate(invalid="ignore"):  # inf - inf for infinite cells
        near = np.abs(scaled - np.floor(scaled) - 0.5) < _HALF_MILLI_BAND
    for k in zip(*np.nonzero(near)):
        milli[k] = round(round(float(values[k]), 3) * 1000.0)
    return milli


def _winner(pec: np.ndarray, raw: np.ndarray, threshold: float) -> np.ndarray:
    """Winning strategy per cell: PEC, RAW or NONE.

    Ties are decided on three decimals, as the builtin round gives them, and
    raw wins ties since it is the cheaper strategy to run.
    """
    return np.where(np.maximum(pec, raw) < threshold, LABEL_NONE,
                    np.where(_milli(raw) >= _milli(pec), LABEL_RAW, LABEL_PEC))


def _evaluate(prob: AdvantageProblem, p_values, shot_values: np.ndarray):
    """(pec, raw, label) over a P axis x shot axis, indexed [p, shot].

    The noise laws run once per P row: gamma_tot sets the PEC width and the
    depolarized midpoint the raw mean.  erf and the interval mass then run
    once over the whole grid.  An infinite gamma_tot sends the PEC argument,
    and so its success, to 0.
    """
    ham_mid = dataclasses.replace(prob.ham, e0_proxy=prob.midpoint)
    scale = np.empty((len(p_values), 1))
    mean = np.empty((len(p_values), 1))
    for i, p in enumerate(p_values):
        noise = dataclasses.replace(prob.noise, p_layer=float(p))
        scale[i] = gamma_total(noise) * prob.ham.norm2 * math.sqrt(noise.beta)
        mean[i] = noisy_mean(noise, ham_mid)
    half_width = 0.5 * (prob.e_plus - prob.e_minus)
    pec = np.minimum(1.0, erf(half_width * np.sqrt(shot_values / 2.0) / scale))
    sigma = np.array([raw_sigma(prob.ham, n) for n in shot_values])
    raw = interval_probability(NormalSpec(mean, sigma), prob.e_minus, prob.e_plus)
    return pec, raw, _winner(pec, raw, prob.threshold)


def _cell(prob: AdvantageProblem, n_shots, p: float | None):
    grid = sweep(prob, [prob.noise.p_layer if p is None else p], [n_shots])
    return float(grid.pec_success[0, 0]), float(grid.raw_success[0, 0]), str(grid.label[0, 0])


def pec_success_proxy(prob: AdvantageProblem, n_shots, p: float | None = None) -> float:
    """Actionable success proxy: the true mean replaced by the bound midpoint.

    erf(((e_plus - e_minus)/2) * sqrt(N/2) / (gamma_tot * norm2 * sqrt(beta))).
    """
    return _cell(prob, n_shots, p)[0]


def raw_success(prob: AdvantageProblem, n_shots, p: float | None = None) -> float:
    """Interval mass of the biased unmitigated estimator's distribution.

    The unknown true energy in the bias formula is replaced by the bound
    midpoint, the same substitution the PEC proxy makes.
    """
    return _cell(prob, n_shots, p)[1]


def classify(prob: AdvantageProblem, p: float, n_shots) -> str:
    """Winning strategy at one grid cell: PEC, RAW or NONE (see _winner)."""
    return _cell(prob, n_shots, p)[2]


def _validate_axis(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a non-empty 1-D sequence")
    if np.any(np.diff(arr) <= 0):
        raise ValidationError(f"{name} must be strictly increasing")
    return arr


def worker_count() -> int:
    """Always 1: the sweep runs in one process.

    Kept only while perfbench still calls it.
    """
    return 1


def sweep(prob: AdvantageProblem, p_axis, shot_axis, workers: int | None = None) -> RegimeGrid:
    """Fill the full (P, N_shots) grid in one vectorized pass.

    pec_success_proxy, raw_success and classify read its one cell at a
    single point.  `workers` is accepted and ignored; it is kept only while
    perfbench still passes it.
    """
    p_arr = _validate_axis(p_axis, "p_axis")
    if not np.all((p_arr >= 0) & (p_arr < 1)):
        raise ValidationError("p_axis values must lie in [0, 1)")
    shot_arr = _validate_axis(shot_axis, "shot_axis")
    if not np.all((shot_arr >= 1) & (shot_arr < math.inf)):
        raise ValidationError("shot_axis values must be finite and >= 1")
    pec, raw, label = _evaluate(prob, p_arr, shot_arr)
    return RegimeGrid(p_values=p_arr, shot_values=shot_arr,
                      pec_success=pec, raw_success=raw, label=label)
