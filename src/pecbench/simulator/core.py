"""Desk-scale Pauli-frame Monte Carlo for validating the analytic stack.

The state preparation is taken to be exact: the ground vector comes from
hubbard.ground_state, which diagonalizes each (N_up, N_dn) sector block
instead of the full 2^n x 2^n matrix, so the simulator takes lattices of up
to hubbard.MAX_SECTOR_SITES sites (14 qubits).  The experiment isolates the
interplay of layered depolarizing noise, quasi-probability inversion and
shot noise.  Monte Carlo randomness enters only through the
quasi-probability branch choices and the measurement sampling.  No 2^n x 2^n
matrix is formed on the way to a report; prepare_ground_state, the one
dense d x d object here, is capped at MAX_DENSE_QUBITS and serves only
perfbench.

The shot kernel uses the Pauli-frame identity.  Each noise layer is
*global* depolarizing, rho -> (1-P) rho + P I/d, which commutes with every
Pauli conjugation.  After D layers with sampled twirls whose product is Q,
a shot's state is therefore (1-P)^D Q rho0 Q^dagger + (1-(1-P)^D) I/d, and
each non-identity term reads

    e_j = (1-P)^D (-1)^{anticommute(Q, P_j)} <P_j>_0.

The <P_j>_0 come once from the ground vector; per shot the kernel XORs the
twirls' (x, z) masks and takes one parity per term, with no d x d matrix.
A local (per-qubit or per-gate) noise model does not commute with the
twirls and would break this identity.

Randomness is counter-based (Salmon et al., SC'11): shots are grouped in
fixed blocks of SHOT_BLOCK = 4,096, and each block draws from one Philox
stream keyed by (seed, block index).  Every block is drawn in full, so a
shot's draws depend only on the seed and its index, never on the shot
count: a shorter run is a prefix of a longer one, and results are
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import hubbard
from ..errors import CapacityError, NumericDomainError, ValidationError
from ..noise import HamiltonianSummary, NoiseCircuitSpec, gamma_layer, gamma_total, noisy_mean
from ..stats import erf


SHOT_BLOCK = 4096  # shots per Philox stream; fixed, so streams never depend on n_shots
MAX_DRAW_BYTES = 2 * 2**30  # cap on the three per-shot draw arrays together
MAX_DENSE_QUBITS = 12  # cap on prepare_ground_state's d x d outer product


def active_kernel() -> str:
    """Name of the shot-loop implementation."""
    return "pauli-frame"


@dataclass(frozen=True)
class DensityMatrix:
    n: int
    entries: np.ndarray


@dataclass(frozen=True)
class QuasiProbDecomposition:
    """Signed two-branch decomposition of the inverse depolarizing layer.

    Branch 0 is the identity, branch 1 the uniform average over all
    non-identity Pauli conjugations; gamma = sum |q_i|.
    """

    operations: tuple
    q: tuple
    gamma: float


@dataclass(frozen=True)
class ShotRecord:
    __slots__ = ("sampled_ops", "sign", "outcome")
    sampled_ops: tuple  # per-layer Pauli index, 0 = identity branch
    sign: int
    outcome: float


def prepare_ground_state(spec: hubbard.HubbardSpec) -> DensityMatrix:
    """Pure-state density matrix of the sector solver's ground vector.

    The d x d outer product keeps this under MAX_DENSE_QUBITS qubits.  The
    shot kernel never uses it: it and DensityMatrix are kept only while
    perfbench still calls them.
    """
    if spec.qubits > MAX_DENSE_QUBITS:
        raise CapacityError(f"the dense ground-state density matrix is capped at "
                            f"{MAX_DENSE_QUBITS} qubits, got n={spec.qubits}")
    v = hubbard.ground_state(hubbard.build_hubbard_pauli(spec)).vector
    return DensityMatrix(n=spec.qubits, entries=np.outer(v, v))


def build_qpd(noise: NoiseCircuitSpec) -> QuasiProbDecomposition:
    """Optimal-negativity inverse of one global depolarizing layer.

    q_id = (1 - P/d^2)/(1 - P) on the identity, q_twirl = -(P/(1-P)) *
    (d^2 - 1)/d^2 on the uniform non-identity Pauli twirl; the pair
    composes with the noise layer to the exact identity map and gamma
    matches the analytic per-layer negativity.
    """
    p = noise.p_layer
    if p >= 1.0:
        raise NumericDomainError("the inverse channel diverges at P = 1")
    inv_d2 = math.ldexp(1.0, -2 * noise.qubits)  # 1/d^2, underflows cleanly
    q_id = (1.0 - p * inv_d2) / (1.0 - p)
    q_twirl = -(p / (1.0 - p)) * (1.0 - inv_d2)
    return QuasiProbDecomposition(
        operations=("identity", "pauli_twirl"),
        q=(q_id, q_twirl),
        gamma=q_id + abs(q_twirl),
    )


# --- Monte Carlo estimators -------------------------------------------------

def _frame_terms(spec: hubbard.HubbardSpec):
    """_term_data of the instance and its ground vector."""
    decomp = hubbard.build_hubbard_pauli(spec)
    return _term_data(decomp, hubbard.ground_state(decomp).vector)


def _term_data(decomp: hubbard.PauliDecomposition, v: np.ndarray):
    """(identity coefficient, coeffs, x masks, z masks, <P_j>_0) of the terms.

    The non-identity terms are in the sorted order of their display strings;
    each term's position picks its u_outcome column.
    <P_j>_0 = sum_b s_j(b) v[b] v[b ^ x_j] on the real ground vector v.
    """
    keys = sorted(decomp.terms, key=lambda key: hubbard.pauli_string(key, decomp.n))
    coeffs = np.array([decomp.terms[key] for key in keys])
    term_x = np.array([x for x, _ in keys], dtype=np.int64)
    term_z = np.array([z for _, z in keys], dtype=np.int64)
    basis = np.arange(len(v))
    expect0 = np.array([v[basis ^ key[0]] @ (hubbard.real_pauli_signs(key, basis) * v)
                        for key in keys])
    return decomp.identity_coefficient, coeffs, term_x, term_z, expect0


def _shot_draws(seed: int, n_shots: int, layers: int, d2: int, n_terms: int):
    """(u_branch, twirl_idx, u_outcome) of shots 0 .. n_shots-1.

    Block b covers shots [b*SHOT_BLOCK, (b+1)*SHOT_BLOCK) and draws, from
    Philox(key=(seed, b)), a full block of branch uniforms, then of twirl
    indices in [1, d2), then of term uniforms; a partial last block keeps
    its leading rows.
    """
    size = n_shots * (2 * layers + n_terms) * 8
    if size > MAX_DRAW_BYTES:
        raise CapacityError(
            f"[simulate] shots = {n_shots} at [circuit] layers = {layers} need "
            f"{size / 2**30:.1f} GiB of random draws, over the "
            f"{MAX_DRAW_BYTES / 2**30:.0f} GiB cap")
    u_branch = np.empty((n_shots, layers))
    twirl_idx = np.empty((n_shots, layers), dtype=np.int64)
    u_outcome = np.empty((n_shots, n_terms))
    for block, start in enumerate(range(0, n_shots, SHOT_BLOCK)):
        rows = min(SHOT_BLOCK, n_shots - start)
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
        u_branch[start:start + rows] = gen.random((SHOT_BLOCK, layers))[:rows]
        twirl_idx[start:start + rows] = gen.integers(1, d2, size=(SHOT_BLOCK, layers))[:rows]
        u_outcome[start:start + rows] = gen.random((SHOT_BLOCK, n_terms))[:rows]
    return u_branch, twirl_idx, u_outcome


def pauli_masks(index, n: int):
    """Symplectic (x, z) masks of a base-4 Pauli index, elementwise on arrays.

    The twirl draws name a Pauli by its base-4 index (0=I, 1=X, 2=Y, 3=Z;
    qubit 0 in the most significant digit), which is also the sorted order
    of display strings.  Bit k of each mask belongs to qubit n - 1 - k, the
    bit that the Pauli flips (x) or phases (z).
    """
    x = z = 0
    for bitpos in range(n):
        g = (index >> (2 * bitpos)) & 3
        x |= (((g + 1) >> 1) & 1) << bitpos  # X or Y
        z |= (g >> 1) << bitpos  # Y or Z
    return x, z


def run_shots(expect0, term_x, term_z, keep, p_twirl, u_branch, twirl_idx,
              u_outcome, n_qubits):
    """Sample every shot's twirls, sign and term outcomes in the Pauli frame.

    Per layer the pre-drawn uniform picks the twirl branch with probability
    p_twirl; the branch then conjugates by the pre-drawn non-identity Pauli
    and flips the shot sign.  keep = (1-P)^D scales every expectation, and
    each term is measured once as an independent +/-1 sample with
    P(+1) = (1 + e_j)/2, e_j clipped to [-1, 1].
    Returns (sign, branch, term_outcomes), all discrete.
    """
    twirled = u_branch < p_twirl
    branch = np.where(twirled, twirl_idx, 0)
    sign = np.where(np.count_nonzero(twirled, axis=1) % 2 == 1, -1, 1).astype(np.int8)
    # Up to phase, a product's base-4 digits are the XOR of its factors'
    # digits, and the identity branch is index 0.
    frame_x, frame_z = pauli_masks(np.bitwise_xor.reduce(branch, axis=1), n_qubits)
    term_outcomes = np.empty(u_outcome.shape, dtype=np.int8)
    for j in range(len(expect0)):  # one column at a time keeps memory O(shots)
        anticommutes = hubbard.parity((frame_x & term_z[j]) ^ (frame_z & term_x[j])) == 1
        e = np.clip(keep * np.where(anticommutes, -expect0[j], expect0[j]), -1.0, 1.0)
        term_outcomes[:, j] = np.where(u_outcome[:, j] < 0.5 * (1.0 + e), 1, -1)
    return sign, branch, term_outcomes


def _validate_run(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec, n_shots: int,
                  seed: int):
    hubbard.check_sector_capacity(
        spec.sites, f"a {spec.rows}x{spec.cols} lattice ([model] rows x [model] cols)")
    if noise.qubits != spec.qubits:
        raise ValidationError(
            f"noise spec is for {noise.qubits} qubits, instance has {spec.qubits}")
    if n_shots < 1:
        raise ValidationError(f"n_shots must be >= 1, got {n_shots}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed}")


def _shot_inputs(terms, noise, n_shots, seed):
    """Term data plus the per-shot draws that the estimators consume."""
    draws = _shot_draws(seed, n_shots, noise.layers, 4**noise.qubits, len(terms[1]))
    return (*terms, draws)


def _estimate(inputs, noise, mitigated):
    """Per-shot outcomes, signs and branches of one estimator."""
    identity, coeffs, term_x, term_z, expect0, draws = inputs
    if mitigated:
        qpd = build_qpd(noise)
        p_twirl = abs(qpd.q[1]) / qpd.gamma
        weight = qpd.gamma**noise.layers
    else:
        p_twirl = 0.0
        weight = 1.0

    keep = (1.0 - noise.p_layer) ** noise.layers
    sign, branch, term_outcomes = run_shots(expect0, term_x, term_z, keep, p_twirl,
                                            *draws, noise.qubits)
    outcomes = sign.astype(float) * weight * (term_outcomes @ coeffs) + identity
    return outcomes, sign, branch


def _records(branch, sign, outcomes):
    return [
        ShotRecord(sampled_ops=tuple(int(x) for x in branch[s]),
                   sign=int(sign[s]), outcome=float(outcomes[s]))
        for s in range(len(outcomes))
    ]


def run_pec_estimate(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec,
                     n_shots: int, seed: int, workers: int | None = None):
    """Quasi-probability mitigated estimate: (mean, variance, shot records).

    `workers` is accepted for compatibility and ignored; shots run serially.
    """
    _validate_run(spec, noise, n_shots, seed)
    inputs = _shot_inputs(_frame_terms(spec), noise, n_shots, seed)
    outcomes, sign, branch = _estimate(inputs, noise, mitigated=True)
    variance = float(np.var(outcomes, ddof=1)) if n_shots > 1 else 0.0
    return float(np.mean(outcomes)), variance, _records(branch, sign, outcomes)


def run_raw_estimate(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec,
                     n_shots: int, seed: int, workers: int | None = None):
    """Unmitigated estimate on the noisy state: (mean, variance).

    `workers` is accepted for compatibility and ignored; shots run serially.
    """
    _validate_run(spec, noise, n_shots, seed)
    inputs = _shot_inputs(_frame_terms(spec), noise, n_shots, seed)
    outcomes, _, _ = _estimate(inputs, noise, mitigated=False)
    variance = float(np.var(outcomes, ddof=1)) if n_shots > 1 else 0.0
    return float(np.mean(outcomes)), variance


# --- normality of batch means ----------------------------------------------

def batch_means(values, batch: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    n_batches = len(arr) // batch
    if n_batches < 1:
        raise ValidationError("not enough values for a single batch")
    return arr[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)


def normality_check(samples, batch: int) -> float:
    """Max ECDF deviation from the normal fitted to the batch means.

    Parameters are estimated from the data, so compare against
    lilliefors_critical rather than plain Kolmogorov-Smirnov tables.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if len(x) < 50:
        raise ValidationError(f"need at least 50 batch means, got {len(x)}")
    if batch < 100:
        raise ValidationError(f"need batches of at least 100 shots, got {batch}")
    mean = float(np.mean(x))
    std = float(np.std(x, ddof=1))
    if std == 0.0:
        raise ValidationError("degenerate sample: zero variance")
    z = (x - mean) / (std * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + erf(z))
    n = len(x)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def lilliefors_critical(n: int, alpha: float) -> float:
    """Approximate critical value for the fitted-normal ECDF statistic.

    Dallal-Wilkinson style large-sample approximation
    c(alpha) / (sqrt(n) - 0.01 + 0.85/sqrt(n)), c(0.05)=0.895, c(0.01)=1.035.
    """
    coeffs = {0.05: 0.895, 0.01: 1.035}
    if alpha not in coeffs:
        raise ValidationError(f"alpha must be one of {sorted(coeffs)}, got {alpha}")
    root = math.sqrt(n)
    return coeffs[alpha] / (root - 0.01 + 0.85 / root)


# --- full validation report --------------------------------------------------

def simulate_report(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec,
                    n_shots: int, seed: int, batch: int = 500) -> dict:
    """Run both estimators and package every validation statistic.

    One build and one sector solve give the exact ground energy and the
    vector behind the term expectations; both estimators share those and one
    set of per-shot draws.  The report carries the ground level's
    diagnostics: its (N_up, N_dn) sector, the gap above it and its degeneracy.
    Flags: pec_unbiased / raw_bias_matches (3 standard errors), the
    single-shot variance against norm2^2 gamma_tot^2 with 10% slack,
    empirical gamma within 3 standard errors of the analytic overhead, batch
    normality below the 1% critical value.
    """
    _validate_run(spec, noise, n_shots, seed)
    decomp = hubbard.build_hubbard_pauli(spec)
    norm2sq = hubbard.norm2_squared(decomp)
    ground = hubbard.ground_state(decomp)
    e0 = ground.energy
    inputs = _shot_inputs(_term_data(decomp, ground.vector), noise, n_shots, seed)
    ham_exact = HamiltonianSummary(
        norm2=math.sqrt(norm2sq),
        trace_over_d=decomp.identity_coefficient,
        e0_proxy=e0,
    )
    gt = gamma_total(noise)

    pec_outcomes, sign, _ = _estimate(inputs, noise, mitigated=True)
    raw_outcomes, _, _ = _estimate(inputs, noise, mitigated=False)

    pec_mean = float(np.mean(pec_outcomes))
    pec_var = float(np.var(pec_outcomes, ddof=1))
    raw_mean = float(np.mean(raw_outcomes))
    raw_var = float(np.var(raw_outcomes, ddof=1))
    pec_se = math.sqrt(pec_var / n_shots)
    raw_se = math.sqrt(raw_var / n_shots)

    variance_bound = norm2sq * gt**2

    mean_sign = float(np.mean(sign.astype(float)))
    gamma_empirical = math.inf if mean_sign == 0 else 1.0 / mean_sign
    # delta method: gamma = 1/mean_sign, so SE(gamma) = gamma^2 SE(mean_sign)
    gamma_se = gamma_empirical**2 * math.sqrt((1.0 - mean_sign**2) / n_shots)

    means = batch_means(pec_outcomes, batch)
    stat = normality_check(means, batch)
    crit_1pct = lilliefors_critical(len(means), 0.01)

    e_noisy = noisy_mean(noise, ham_exact)

    report = {
        "instance": {
            "rows": spec.rows, "cols": spec.cols, "boundary": spec.boundary,
            "t": spec.t, "U": spec.U, "mu": spec.mu, "qubits": spec.qubits,
        },
        "noise": {"layers": noise.layers, "p_layer": noise.p_layer,
                  "qubits": noise.qubits, "beta": noise.beta},
        "shots": n_shots,
        "seed": seed,
        "kernel": active_kernel(),
        "exact_ground_energy": e0,
        "ground_sector": list(ground.sector),
        "ground_gap": ground.gap,
        "ground_degeneracy": ground.degeneracy,
        "analytic_noisy_mean": e_noisy,
        "norm2_squared": norm2sq,
        "gamma_layer": gamma_layer(noise),
        "gamma_total": gt,
        "mean": pec_mean,
        "variance": pec_var,
        "raw_mean": raw_mean,
        "raw_variance": raw_var,
        "single_shot_variance": pec_var,
        "single_shot_variance_bound": variance_bound,
        "gamma_empirical": gamma_empirical,
        "normality_statistic": stat,
        "normality_critical_1pct": crit_1pct,
        "batches": len(means),
        "batch_size": batch,
        "checks": {
            "pec_unbiased": abs(pec_mean - e0) <= 3.0 * pec_se,
            "raw_bias_matches": abs(raw_mean - e_noisy) <= 3.0 * raw_se,
            "variance_bounded": pec_var <= 1.1 * variance_bound,
            # an infinite band (mean sign 0) fails
            "gamma_within_3se": abs(gamma_empirical - gt) <= 3.0 * gamma_se < math.inf,
            "batch_means_normal": stat < crit_1pct,
        },
    }
    return report
