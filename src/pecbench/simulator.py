"""Desk-scale Pauli-frame Monte Carlo for validating the analytic stack.

The state preparation is taken to be exact: the ground vector comes from
hubbard.ground_state, which diagonalizes each (N_up, N_dn) sector block
instead of the full 2^n x 2^n matrix, so the simulator takes lattices of up
to hubbard.MAX_SECTOR_SITES sites (14 qubits).  Each estimator call, and
simulate_report for both of its estimators, reads the terms, the ground
level and the <P_j>_0 from one hubbard.solve.  The experiment isolates the
interplay of layered depolarizing noise, quasi-probability inversion and
shot noise.  Monte Carlo randomness enters only through the
quasi-probability branch choices and the measurement sampling.  No 2^n x 2^n
matrix is formed on the way to a report.

The shot kernel uses the Pauli-frame identity, and it is exact only where
that identity holds.  Each noise layer is *global* depolarizing,
rho -> (1-P) rho + P I/d, which commutes with every Pauli conjugation.
After D layers with sampled twirls whose product is Q, a shot's state is
therefore (1-P)^D Q rho0 Q^dagger + (1-(1-P)^D) I/d, and each non-identity
term reads

    e_j = (1-P)^D (-1)^{anticommute(Q, P_j)} <P_j>_0.

Every Pauli channel, per-qubit depolarizing included, commutes with the
twirls too, but a local one changes each term's decay, to (1-p)^{wt(P_j)}
per layer, which this kernel does not model; non-Pauli noise, or gates
between the layers, would break the identity.

The noise formulas come from pecbench.noise, the <P_j>_0 once from the
ground vector (hubbard.term_data).  Per shot the kernel XORs the twirls'
base-4 indices and, only when that frame is not the identity, looks every
term's anticommutation up in byte tables that the mitigated estimator
builds once per call; raw shots never twirl: one comparison a term, no table.

Randomness is counter-based (Salmon et al., SC'11): shots are grouped in
fixed blocks of SHOT_BLOCK = 4,096, and each block draws from one Philox
stream keyed by (seed, block index).  A block's draws sit at fixed stream
positions whatever the shot count: the uniforms are drawn only for the rows
a run keeps, the twirl indices start from a counter advanced past the
block's branch uniforms, and the indices are drawn in full, so the term
uniforms after them start where they would.  A shot's draws therefore
depend only on the seed and its index: a shorter run is a prefix of a
longer one, and results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import hubbard
from .errors import CapacityError, ValidationError, gib
from .noise import (HamiltonianSummary, NoiseCircuitSpec, _pec_power, build_qpd, gamma_layer,
                    gamma_total, keep, noisy_mean, raw_variance_law, single_shot_variance_law)
from .stats import erf


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


@dataclass(frozen=True, slots=True)
class ShotRecord:
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


# --- Monte Carlo estimators -------------------------------------------------

def _shot_draws(seed: int, n_shots: int, layers: int, d2: int, n_terms: int):
    """(u_branch, twirl_idx, u_outcome) of shots 0 .. n_shots-1.

    Block b covers shots [b*SHOT_BLOCK, (b+1)*SHOT_BLOCK) and draws, from
    Philox(key=(seed, b)), a full block of branch uniforms, then of twirl
    indices in [1, d2), then of term uniforms; a partial last block keeps
    its leading rows, so a shorter run is a prefix of a longer one.  Of the
    uniforms only the kept rows are drawn.  The twirl indices start from a
    fresh Philox advanced past the block's SHOT_BLOCK * layers branch
    doubles (one counter step per 4 doubles), and they are drawn in full,
    because bounded sampling consumes a data-dependent count; the term
    uniforms then start where a full block's would.
    """
    size = n_shots * (2 * layers + n_terms) * 8
    if size > MAX_DRAW_BYTES:
        raise CapacityError(
            f"[simulate] shots = {n_shots} at [circuit] layers = {layers} need "
            f"{gib(size)} GiB of random draws, over the "
            f"{MAX_DRAW_BYTES / 2**30:.0f} GiB cap")
    u_branch = np.empty((n_shots, layers))
    twirl_idx = np.empty((n_shots, layers), dtype=np.int64)
    u_outcome = np.empty((n_shots, n_terms))
    for block, start in enumerate(range(0, n_shots, SHOT_BLOCK)):
        rows = min(SHOT_BLOCK, n_shots - start)
        key = np.array([seed, block], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        gen.random(out=u_branch[start:start + rows])
        gen = np.random.Generator(np.random.Philox(key=key).advance(SHOT_BLOCK * layers // 4))
        twirl_idx[start:start + rows] = gen.integers(1, d2, size=(SHOT_BLOCK, layers))[:rows]
        gen.random(out=u_outcome[start:start + rows])
    return u_branch, twirl_idx, u_outcome


def byte_tables(term_x, term_z, n_qubits: int) -> np.ndarray:
    """Anticommutation of every term with every byte of a frame index.

    Row (k, v) holds, per term, whether the Pauli whose base-4 index is
    v << 8k anticommutes with it: one (256, terms) bool table for each byte
    of the 2n-bit index.  A twirl draw names a Pauli by that index (0=I,
    1=X, 2=Y, 3=Z; qubit 0 in the most significant digit), which is also the
    sorted order of display strings, and digit k belongs to mask bit k.  In
    the symplectic form (Aaronson & Gottesman, PRA 70, 052328 (2004)) digit
    k's low bit is x_k ^ z_k and its high bit z_k, so a term's
    anticommutation x.z_j ^ z.x_j is one linear form over the index: z_j in
    each digit's low bit and (x ^ z)_j in its high bit.  A row is the
    parity of that form on one byte, folded in place.
    """
    qubit = np.arange(n_qubits)
    digits = ((term_z[:, None] >> qubit) & 1) | (((term_x ^ term_z)[:, None] >> qubit) & 1) << 1
    form = (digits << 2 * qubit).sum(axis=1)  # the digits' bits are disjoint
    form_bytes = ((form >> np.arange(0, 2 * n_qubits, 8)[:, None]) & 255).astype(np.uint8)
    bits = np.arange(256, dtype=np.uint8)[:, None] & form_bytes[:, None, :]
    for shift in (4, 2, 1):
        bits ^= bits >> shift
    return (bits & 1).astype(bool)


def raw_shots(expect0, keep, u_outcome):
    """+/-1 term outcomes of identity-frame (unmitigated) shots: term j reads +1
    when its uniform lies below (1 + e_j)/2, e_j = keep * expect0_j clipped to [-1, 1].
    """
    term_outcomes = np.less(u_outcome, 0.5 * (1.0 + np.clip(keep * expect0, -1.0, 1.0)),
                            out=np.empty(u_outcome.shape, dtype=np.int8))
    term_outcomes *= 2  # {0, 1} -> {-1, +1}
    term_outcomes -= 1
    return term_outcomes


def run_shots(expect0, tables, keep, p_twirl, u_branch, twirl_idx, u_outcome):
    """Sample every shot's twirls, sign and term outcomes in the Pauli frame.

    Per layer the pre-drawn uniform picks the twirl branch with probability
    p_twirl; the branch then conjugates by the pre-drawn non-identity Pauli
    and flips the shot sign.  keep = (1-P)^D scales every expectation, and
    each term is measured once as an independent +/-1 sample: first as in
    the identity frame (raw_shots).  Only shots whose frame is not the
    identity look up `tables` (byte_tables of the terms): anticommutation is
    linear over GF(2) in the frame index, so each of its bytes picks one row
    of a (256, terms) table and the rows XOR, and an anticommuting term,
    whose expectation flips sign, reads raw_shots of -expect0 on the same
    uniform.  A shot's outputs depend only on its own draws, so on a
    prefix of the draws (see _shot_draws) they are a prefix of the outputs.
    Blocks of SHOT_BLOCK shots keep memory O(SHOT_BLOCK x terms).
    Returns (sign, branch, term_outcomes), all discrete.
    """
    sign = np.empty(len(u_branch), dtype=np.int8)
    branch = np.empty_like(twirl_idx)
    term_outcomes = raw_shots(expect0, keep, u_outcome)
    for start in range(0, len(u_branch), SHOT_BLOCK):
        rows = slice(start, start + SHOT_BLOCK)
        twirled = u_branch[rows] < p_twirl
        branch[rows] = np.where(twirled, twirl_idx[rows], 0)
        sign[rows] = np.where(reduce(np.bitwise_xor, twirled.T), -1, 1)
        # Up to phase, a product's base-4 digits are the XOR of its factors'
        # digits, and the identity branch is index 0.
        frame = reduce(np.bitwise_xor, branch[rows].T)
        moved = np.flatnonzero(frame)
        if moved.size:
            anti = reduce(np.bitwise_xor, (table.take((frame[moved] >> 8 * k) & 255, axis=0)
                                           for k, table in enumerate(tables)))
            block = term_outcomes[rows]
            block[moved] = np.where(anti, raw_shots(-expect0, keep, u_outcome[rows][moved]),
                                    block[moved])
    return sign, branch, term_outcomes


def _prepare(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec, n_shots: int, seed: int):
    """(hubbard.solve's record, shot draws) of one run, once its inputs are checked."""
    hubbard.check_sector_capacity(
        spec.sites, f"a {spec.rows}x{spec.cols} lattice ([model] rows x [model] cols)")
    if noise.qubits != spec.qubits:
        raise ValidationError(
            f"noise spec is for {noise.qubits} qubits, instance has {spec.qubits}")
    if n_shots < 1:
        raise ValidationError(f"n_shots must be >= 1, got {n_shots}")
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed}")
    solved = hubbard.solve(spec)
    draws = _shot_draws(seed, n_shots, noise.layers, 4**noise.qubits, len(solved.coeffs))
    return solved, draws


def _estimate(solved: hubbard.SolvedInstance, noise, draws):
    """Per-shot outcomes, signs and branches of the PEC estimator."""
    qpd = build_qpd(noise)
    tables = byte_tables(solved.term_x, solved.term_z, noise.qubits)
    sign, branch, term_outcomes = run_shots(solved.expect0, tables, keep(noise), qpd.p_twirl,
                                            *draws)
    outcomes = (sign.astype(float) * qpd.weight * (term_outcomes @ solved.coeffs)
                + solved.identity)
    return outcomes, sign, branch


def _raw_outcomes(solved: hubbard.SolvedInstance, noise, draws):
    """Per-shot outcomes of the raw estimator; it reads only the term uniforms."""
    return raw_shots(solved.expect0, keep(noise), draws[2]) @ solved.coeffs + solved.identity


def _mean_variance(outcomes):
    """(mean, ddof=1 variance s^2) of the shot outcomes; one shot: s^2 = 0."""
    variance = float(np.var(outcomes, ddof=1)) if len(outcomes) > 1 else 0.0
    return float(np.mean(outcomes)), variance


def _moments(outcomes):
    """_mean_variance, then SE of the mean and SE(s^2) = sqrt((mu_4 - s^4)/N).

    Squaring twice gives mu_4 without numpy's per-element pow (0.8 ms at 10,000 shots).
    """
    n_shots = len(outcomes)
    mean, variance = _mean_variance(outcomes)
    squares = np.square(outcomes - mean)
    mu4 = float(np.mean(squares * squares))
    return (mean, variance, math.sqrt(variance / n_shots),
            math.sqrt(max(mu4 - variance**2, 0.0) / n_shots))


def run_pec_estimate(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec,
                     n_shots: int, seed: int, workers: int | None = None):
    """Quasi-probability mitigated estimate: (mean, variance, shot records).

    `workers` is accepted for compatibility and ignored; shots run serially.
    """
    solved, draws = _prepare(spec, noise, n_shots, seed)
    outcomes, sign, branch = _estimate(solved, noise, draws)
    mean, variance = _mean_variance(outcomes)
    return mean, variance, [
        ShotRecord(tuple(ops), s, outcome)
        for ops, s, outcome in zip(branch.tolist(), sign.tolist(), outcomes.tolist())]


def run_raw_estimate(spec: hubbard.HubbardSpec, noise: NoiseCircuitSpec,
                     n_shots: int, seed: int, workers: int | None = None):
    """Unmitigated estimate on the noisy state: (mean, variance).

    `workers` is accepted for compatibility and ignored; shots run serially.
    """
    solved, draws = _prepare(spec, noise, n_shots, seed)
    return _mean_variance(_raw_outcomes(solved, noise, draws))


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

    hubbard.solve's record gives the exact ground energy and the term
    expectations; both estimators share it and one set of per-shot draws.
    The report carries the ground level's diagnostics: its (N_up, N_dn)
    sector, the gap above it and its degeneracy.  Flags: pec_unbiased /
    raw_bias_matches (3 standard errors), variance_bounded (the PEC
    single-shot variance within 3 standard errors of
    single_shot_variance_law, two-sided), raw_variance_matches (the raw
    variance within 3 standard errors of raw_variance_law, two-sided),
    empirical gamma within 3 standard errors of the analytic overhead, batch
    normality below the 1% critical value.  single_shot_variance_bound is
    the paper's norm2^2 gamma_tot^2, a one-sided figure that the variance
    may exceed.
    """
    solved, draws = _prepare(spec, noise, n_shots, seed)
    norm2sq, ground = solved.norm2_squared, solved.ground
    e0 = ground.energy
    ham_exact = HamiltonianSummary(norm2=math.sqrt(norm2sq),
                                   trace_over_d=solved.identity, e0_proxy=e0)
    gt = gamma_total(noise)
    # before any shot: NumericDomainError when gamma^2D, the law's, overflows,
    # or gamma^4D, the scale of the PEC variance's standard error
    variance_law = single_shot_variance_law(solved.coeffs, solved.expect0, noise)
    _pec_power(build_qpd(noise).gamma, 4 * noise.layers)

    pec_outcomes, sign, _ = _estimate(solved, noise, draws)
    raw_outcomes = _raw_outcomes(solved, noise, draws)
    pec_mean, pec_var, pec_se, variance_se = _moments(pec_outcomes)
    raw_mean, raw_var, raw_se, raw_variance_se = _moments(raw_outcomes)

    variance_bound = norm2sq * gt**2
    raw_law = raw_variance_law(solved.coeffs, solved.expect0, noise)

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
        "raw_variance_law": raw_law,
        "raw_variance_se": raw_variance_se,
        "single_shot_variance": pec_var,
        "single_shot_variance_bound": variance_bound,
        "single_shot_variance_law": variance_law,
        "single_shot_variance_se": variance_se,
        "gamma_empirical": gamma_empirical,
        "normality_statistic": stat,
        "normality_critical_1pct": crit_1pct,
        "batches": len(means),
        "batch_size": batch,
        "checks": {
            "pec_unbiased": abs(pec_mean - e0) <= 3.0 * pec_se,
            "raw_bias_matches": abs(raw_mean - e_noisy) <= 3.0 * raw_se,
            "raw_variance_matches": abs(raw_var - raw_law) <= 3.0 * raw_variance_se,
            "variance_bounded": abs(pec_var - variance_law) <= 3.0 * variance_se,
            # an infinite band (mean sign 0) fails
            "gamma_within_3se": abs(gamma_empirical - gt) <= 3.0 * gamma_se < math.inf,
            "batch_means_normal": stat < crit_1pct,
        },
    }
    return report
