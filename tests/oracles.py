"""Independent reference implementations used only by the test suite.

Everything here is deliberately built from different primitives than the
package under test: the Hubbard oracle works in second quantization with
explicit fermionic ladder matrices (no Pauli strings), the erf oracle sums
a Taylor/asymptotic series in 60-digit arithmetic, the normal-interval
oracle integrates the density numerically, the centering oracle
evaluates the proxy-error closed form with mpmath in 40-digit arithmetic,
the Pauli-sum oracle adds dense Kronecker-product matrices of display
strings, the shot oracle evolves an explicit density matrix through
every noise layer with the same Kronecker-product Pauli matrices, the
frame-shot oracle takes one anticommutation parity per term from the
frame's (x, z) masks, with no lookup table, the byte-table oracle decodes
each byte's Pauli digit by digit and takes the same symplectic product, both
counting set bits one at a time, the variance oracle sums a PEC shot's
first two moments over every branch sequence, the draw oracle draws every
Philox block in full, with no counter advance, and the superoperator oracles
build the noise layer and the quasi-probability inverse from those
matrices too.  The artifact oracles pin, format and color one cell at a
time with scalar Python and build JSON with json.dumps.
The sector solver has three: the dense ground state (one eigh of the dense
matrix scattered from the package's masks and signs, the solver it
replaced), sector labels counted mode by mode, and H v applied term by term
from an explicit bit table.  decomposition_from_strings builds test
Hamiltonians from display strings.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from types import SimpleNamespace

import numpy as np
from mpmath import mp, mpf


# --- fermionic second-quantized Hubbard oracle --------------------------

def _annihilator(mode: int, n_modes: int) -> np.ndarray:
    """Jordan-Wigner-consistent ladder operator in the occupation basis.

    Basis index bit for mode k sits at position (n_modes - 1 - k), so mode
    0 is the most significant bit (matching the qubit ordering of the
    package's Pauli strings, but constructed without them).
    """
    dim = 1 << n_modes
    out = np.zeros((dim, dim))
    bit = n_modes - 1 - mode
    for b in range(dim):
        if (b >> bit) & 1:
            parity = sum((b >> (n_modes - 1 - m)) & 1 for m in range(mode))
            out[b & ~(1 << bit), b] = (-1.0) ** parity
    return out


def lattice_edges_reference(rows: int, cols: int, boundary: str):
    """Nearest-neighbour pairs via set-of-frozensets deduplication.

    Wrap edges that coincide with an interior edge (periodic dimension of
    size 2) collapse automatically, and size-1 dimensions produce no
    self-loops.
    """
    pairs = set()
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = r + dr, c + dc
                if r2 < rows and c2 < cols:
                    pairs.add(frozenset((r * cols + c, r2 * cols + c2)))
                elif boundary == "periodic":
                    r2, c2 = r2 % rows, c2 % cols
                    if (r2, c2) != (r, c):
                        pairs.add(frozenset((r * cols + c, r2 * cols + c2)))
    return sorted(tuple(sorted(p)) for p in pairs)


def fermionic_hubbard_matrix(rows: int, cols: int, boundary: str,
                             t: float, U: float, mu: float) -> np.ndarray:
    """H = -t sum c+c + U sum n_up n_dn - mu sum n, as a dense matrix."""
    L = rows * cols
    n_modes = 2 * L
    edges = lattice_edges_reference(rows, cols, boundary)
    dim = 1 << n_modes
    ann = [_annihilator(k, n_modes) for k in range(n_modes)]
    num = [a.T @ a for a in ann]

    h = np.zeros((dim, dim))
    for a, b in edges:
        for offset in (0, L):
            p, q = a + offset, b + offset
            hop = ann[p].T @ ann[q]
            h -= t * (hop + hop.T)
    for s in range(L):
        h += U * (num[s] @ num[L + s])
    for k in range(n_modes):
        h -= mu * num[k]
    return h


# --- high-precision erf oracle ------------------------------------------

def erf_reference(x: float, dps: int = 60) -> float:
    """erf via its Taylor series in high-precision arithmetic.

    erf(x) = (2/sqrt(pi)) * sum_k (-1)^k x^(2k+1) / (k! (2k+1)).  For
    |x| <= 8 the series is summed until the term magnitude drops below
    10^-(dps-10); intermediate cancellation is absorbed by the working
    precision.  Uses mpmath only for arbitrary-precision arithmetic, not
    its own erf.
    """
    if x == 0.0:
        return 0.0
    with mp.workdps(dps):
        xm = mpf(repr(x))
        total = mpf(0)
        term = xm  # x^(2k+1) / k!
        k = 0
        while True:
            contrib = term / (2 * k + 1)
            total += contrib if k % 2 == 0 else -contrib
            if abs(contrib) < mpf(10) ** (-(dps - 10)) * max(1, abs(total)):
                break
            k += 1
            term = term * xm * xm / k
        result = total * 2 / mp.sqrt(mp.pi)
        return float(result)


def erf_reference_fast(x: float, dps: int = 40) -> float:
    """erf via mpmath's arbitrary-precision implementation.

    Independent of the double-precision routine under test, and much
    faster than the Taylor oracle; the two references are cross-checked
    against each other in the statistics tests.
    """
    with mp.workdps(dps):
        return float(mp.erf(mpf(repr(x))))


# --- normal interval oracle ---------------------------------------------

def normal_interval_reference(mean: float, sigma: float, lo: float, hi: float) -> float:
    """P(lo <= X <= hi) by adaptive quadrature of the normal density."""
    from scipy.integrate import quad

    def pdf(x):
        z = (x - mean) / sigma
        return np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi))

    # clip to +-12 sigma so quad is not asked to resolve negligible tails
    a = max(lo, mean - 12.0 * sigma)
    b = min(hi, mean + 12.0 * sigma)
    if a >= b:
        return 0.0
    value, _ = quad(pdf, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)
    return float(value)


# --- centering proxy-error oracle ---------------------------------------

def centering_relative_error_reference(rel_shift: float, rel_width: float) -> float:
    """(proxy - true)/true of the centering model, in 40-digit arithmetic.

    The window is [-1/2, 1/2], the mean sits at rel_shift/2 and the width
    is sigma = rel_width.  true = Phi((1/2 - mean)/sigma) -
    Phi((-1/2 - mean)/sigma); proxy = erf(1/(2 sqrt(2) sigma)) is the mass
    of the centered distribution.  The inputs enter as their exact binary
    values, and mpmath's ncdf/erf replace the package's double-precision
    statistics kernel.
    """
    with mp.workdps(40):
        half = mpf(1) / 2
        mean = mpf(rel_shift) / 2
        sigma = mpf(rel_width)
        true = mp.ncdf((half - mean) / sigma) - mp.ncdf((-half - mean) / sigma)
        proxy = mp.erf(half / (sigma * mp.sqrt(2)))
        return float((proxy - true) / true)


def saturated_centering_error_reference(inset_sigmas: float) -> float:
    """1/Phi(k) - 1: the error once the proxy saturates at 1 and the mean
    sits k = `inset_sigmas` standard deviations inside the nearer edge,
    with the far edge out of reach."""
    with mp.workdps(40):
        return float(1 / mp.ncdf(mpf(inset_sigmas)) - 1)


# --- explicit density-matrix shot oracle --------------------------------

_PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
}


def _pauli_dense(letters: str) -> np.ndarray:
    """Kronecker product of the letters' 2x2 matrices, qubit 0 leftmost."""
    out = np.ones((1, 1), dtype=complex)
    for letter in letters:
        out = np.kron(out, _PAULI_2X2[letter])
    return out


def pauli_sum_matrix_reference(n: int, strings: dict,
                               identity_coefficient: float) -> np.ndarray:
    """identity_coefficient * I + sum_j a_j P_j, as a Kronecker-product sum.

    `strings` maps length-n letter strings to coefficients; the terms are
    added in its order.
    """
    out = np.eye(1 << n, dtype=complex) * identity_coefficient
    for letters, coeff in strings.items():
        out += coeff * _pauli_dense(letters)
    return out


def _mask_letters(key, n: int) -> str:
    """Letters of a symplectic (x, z) key; bit n-1-m of each mask is qubit m."""
    x, z = key
    names = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
    return "".join(names[(x >> bit) & 1, (z >> bit) & 1] for bit in range(n - 1, -1, -1))


def _index_letters(index: int, n: int) -> str:
    """Letters of a base-4 Pauli index (0=I, 1=X, 2=Y, 3=Z), qubit 0 most significant."""
    return "".join("IXYZ"[(index >> (2 * bitpos)) & 3] for bitpos in range(n - 1, -1, -1))


def density_matrix_shots_reference(rho0, p_layer, p_twirl, u_branch, twirl_idx,
                                   u_outcome, term_keys, n_qubits):
    """Evolve one density matrix per shot and sample every term outcome.

    Per layer: depolarize globally, rho -> (1-P) rho + P I/d, then (when the
    pre-drawn uniform falls below p_twirl) conjugate by the pre-drawn
    non-identity Pauli and flip the shot sign.  Each term is then measured
    once: +1 when its uniform lies below (1 + e)/2, e = Tr(P_j rho) clipped
    to [-1, 1].  The terms, given as symplectic (x, z) keys, are measured in
    sorted letter order (I < X < Y < Z, qubit 0 leftmost): term j of that
    order owns column j of u_outcome.  Returns (sign, branch, term_outcomes).
    """
    d = rho0.shape[0]
    n_shots, layers = u_branch.shape
    terms = [_pauli_dense(s) for s in sorted(_mask_letters(k, n_qubits) for k in term_keys)]
    sign = np.ones(n_shots, dtype=np.int8)
    branch = np.zeros((n_shots, layers), dtype=np.int64)
    term_outcomes = np.empty((n_shots, len(terms)), dtype=np.int8)
    for s in range(n_shots):
        rho = np.array(rho0, dtype=complex)
        for layer in range(layers):
            rho = (1.0 - p_layer) * rho + (p_layer / d) * np.eye(d)
            if u_branch[s, layer] < p_twirl:
                index = int(twirl_idx[s, layer])
                pauli = _pauli_dense(_index_letters(index, n_qubits))
                rho = pauli @ rho @ pauli.conj().T
                branch[s, layer] = index
                sign[s] = -sign[s]
        for j, term in enumerate(terms):
            e = min(1.0, max(-1.0, float(np.sum(term * rho.T).real)))
            term_outcomes[s, j] = 1 if u_outcome[s, j] < 0.5 * (1.0 + e) else -1
    return sign, branch, term_outcomes


# --- per-term Pauli-frame shot oracle ------------------------------------

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


def _anticommutes(frame_x, frame_z, term_x, term_z, n: int):
    """Whether the frame Paulis anticommute with one term, elementwise.

    The symplectic product's parity is counted one bit at a time.
    """
    product = (frame_x & term_z) ^ (frame_z & term_x)
    return sum((product >> k) & 1 for k in range(n)) % 2 == 1


def byte_tables_reference(term_x, term_z, n_qubits: int) -> np.ndarray:
    """(bytes, 256, terms) bool anticommutation of the Pauli v << 8k with each term.

    Same contract as simulator.byte_tables: every byte value is decoded to
    its Pauli's masks, one term at a time.
    """
    values = np.arange(256)[:, None] << np.arange(0, 2 * n_qubits, 8)  # (256, bytes)
    frame_x, frame_z = pauli_masks(values, n_qubits)
    tables = np.empty((values.shape[1], 256, len(term_x)), dtype=bool)
    for j, (x, z) in enumerate(zip(term_x.tolist(), term_z.tolist())):
        tables[:, :, j] = _anticommutes(frame_x, frame_z, x, z, n_qubits).T
    return tables


def frame_shots_reference(expect0, term_x, term_z, keep, p_twirl, u_branch, twirl_idx,
                          u_outcome, n_qubits):
    """Pauli-frame shots with one anticommutation parity per term.

    Same contract as simulator.run_shots.  Per layer the pre-drawn
    uniform picks the twirl branch with probability p_twirl; the branch
    conjugates by the pre-drawn non-identity Pauli and flips the shot sign.
    The frame's (x, z) masks are built once for all shots, and each term's
    column is then sampled with P(+1) = (1 + e_j)/2, where
    e_j = keep * (-1)^{anticommute} <P_j>_0 is clipped to [-1, 1].
    Returns (sign, branch, term_outcomes).
    """
    twirled = u_branch < p_twirl
    branch = np.where(twirled, twirl_idx, 0)
    sign = np.where(np.count_nonzero(twirled, axis=1) % 2 == 1, -1, 1).astype(np.int8)
    # up to phase, a product's base-4 digits are the XOR of its factors' digits
    frame_x, frame_z = pauli_masks(np.bitwise_xor.reduce(branch, axis=1), n_qubits)
    term_outcomes = np.empty(u_outcome.shape, dtype=np.int8)
    for j in range(len(expect0)):
        anticommutes = _anticommutes(frame_x, frame_z, term_x[j], term_z[j], n_qubits)
        e = np.clip(keep * np.where(anticommutes, -expect0[j], expect0[j]), -1.0, 1.0)
        term_outcomes[:, j] = np.where(u_outcome[:, j] < 0.5 * (1.0 + e), 1, -1)
    return sign, branch, term_outcomes


def pec_variance_reference(coeffs, expect0, term_x, term_z, n_qubits, keep, p_twirl,
                           weight, layers) -> float:
    """Single-shot variance of c + s W sum_j a_j o_j over every branch sequence.

    Each layer takes the identity with probability 1 - p_twirl, else one of
    the 4^n - 1 non-identity Paulis uniformly, and each twirl flips s.
    Given the sequence the o_j = +/-1 are independent with mean
    keep (-1)^{anticommute(Q, P_j)} e_j, Q the net frame; the first and
    second moments are summed over all (4^n)^layers sequences.
    """
    d2 = 4**n_qubits
    first = second = 0.0
    for sequence in itertools.product(range(d2), repeat=layers):
        twirls = sum(1 for index in sequence if index)
        probability = (1.0 - p_twirl) ** (layers - twirls) * (p_twirl / (d2 - 1)) ** twirls
        frame_x, frame_z = pauli_masks(functools.reduce(operator.xor, sequence), n_qubits)
        mu = [keep * e * (-1.0 if _anticommutes(frame_x, frame_z, x, z, n_qubits) else 1.0)
              for e, x, z in zip(expect0, term_x, term_z)]
        mean = sum(a * m for a, m in zip(coeffs, mu))
        first += probability * (-1) ** twirls * weight * mean
        second += probability * weight**2 * (
            sum(a * a for a in coeffs) + mean**2 - sum((a * m) ** 2 for a, m in zip(coeffs, mu)))
    return second - first**2


def raw_variance_reference(coeffs, expect0, keep) -> float:
    """Single-shot variance of c + sum_j a_j o_j over every joint outcome.

    The o_j = +/-1 are independent with P(o_j = +1) = (1 + keep e_j)/2;
    the first and second moments are summed over all 2^terms sign vectors.
    """
    first = second = 0.0
    for outcome in itertools.product((-1, 1), repeat=len(coeffs)):
        probability = math.prod((1.0 + o * keep * e) / 2.0 for o, e in zip(outcome, expect0))
        value = sum(a * o for a, o in zip(coeffs, outcome))
        first += probability * value
        second += probability * value * value
    return second - first**2


# --- full-block Philox draw oracle ----------------------------------------

def shot_draws_reference(seed: int, n_shots: int, layers: int, d2: int, n_terms: int):
    """(u_branch, twirl_idx, u_outcome) with every block drawn in full.

    Same contract as simulator._shot_draws, without its cap: block b
    draws from Philox(key=(seed, b)) a full SHOT_BLOCK rows of branch
    uniforms, of twirl indices in [1, d2) and of term uniforms, in that
    order, one stream position after another, and keeps the leading rows.
    """
    from pecbench.simulator import SHOT_BLOCK

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


# --- density-matrix and superoperator oracles (up to 4 qubits) --------------

def validate_density_matrix(rho, n: int, trace_tol=1e-10, herm_tol=1e-12, psd_tol=1e-10):
    """Raise ValueError unless rho is a 2^n x 2^n unit-trace Hermitian PSD matrix."""
    d = 1 << n
    if rho.shape != (d, d):
        raise ValueError(f"entries shape {rho.shape}, expected {(d, d)}")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > trace_tol or abs(trace.imag) > trace_tol:
        raise ValueError("trace differs from 1")
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("matrix is not Hermitian")
    if np.linalg.eigvalsh(rho)[0] < -psd_tol:
        raise ValueError("matrix is not positive semidefinite")


def purity(rho) -> float:
    return float(np.real(np.trace(rho @ rho)))


def apply_depolarizing(rho, p: float) -> np.ndarray:
    """(1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must lie in [0, 1], got {p}")
    d = rho.shape[0]
    return (1.0 - p) * rho + (p / d) * np.eye(d)


def _conjugation_superoperator(index: int, n: int) -> np.ndarray:
    """rho -> P rho P^dagger on row-major vec(rho): P (x) conj(P)."""
    pauli = _pauli_dense(_index_letters(index, n))
    return np.kron(pauli, pauli.conj())


def depolarizing_superoperator(n: int, p: float) -> np.ndarray:
    d = 1 << n
    vec_id = np.eye(d, dtype=complex).reshape(-1)
    return (1.0 - p) * np.eye(d * d, dtype=complex) + (p / d) * np.outer(vec_id, vec_id)


def twirl_superoperator(n: int) -> np.ndarray:
    """Uniform average of the conjugations by all non-identity Paulis."""
    d = 1 << n
    total = np.zeros((d * d, d * d), dtype=complex)
    for index in range(1, d * d):
        total += _conjugation_superoperator(index, n)
    return total / (d * d - 1)


def qpd_inverse_superoperator(q, n: int) -> np.ndarray:
    """q[0] on the identity plus q[1] on the twirl."""
    d = 1 << n
    return q[0] * np.eye(d * d, dtype=complex) + q[1] * twirl_superoperator(n)


def qpd_composition_residual(q, n: int, p: float) -> float:
    """Operator-norm distance of (QPD inverse) o (noise layer) from identity."""
    if n > 4:
        raise ValueError("superoperator verification is limited to 4 qubits")
    product = qpd_inverse_superoperator(q, n) @ depolarizing_superoperator(n, p)
    return float(np.linalg.norm(product - np.eye(product.shape[0]), ord=2))


# --- cellwise artifact oracles --------------------------------------------

def _pin(value: float) -> float:
    """Round to 12 significant digits (the serialized precision)."""
    if not math.isfinite(value):
        return value
    return float(f"{value:.11e}")


def _format(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return f"{value:.11e}"


# the documented heatmap ramp and regime colors
COLOR_RAMP = (
    (0.00, (13, 8, 135)),
    (0.25, (126, 3, 168)),
    (0.50, (204, 71, 120)),
    (0.75, (248, 149, 64)),
    (1.00, (240, 249, 33)),
)
REGIME_COLORS = {"PEC": "#2a788e", "RAW": "#7ad151", "NONE": "#440154"}


def _ramp_color(value: float) -> str:
    if not math.isfinite(value):
        return "#bbbbbb"
    v = min(1.0, max(0.0, value))
    for (lo, c0), (hi, c1) in zip(COLOR_RAMP, COLOR_RAMP[1:]):
        if v <= hi:
            f = 0.0 if hi == lo else (v - lo) / (hi - lo)
            rgb = [round(a + f * (b - a)) for a, b in zip(c0, c1)]
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*COLOR_RAMP[-1][1])


def _cell_color(name: str, value) -> str:
    if name == "label":
        return REGIME_COLORS.get(str(value), "#bbbbbb")
    return _ramp_color(float(value))


def centering_artifact_reference(shift_axis, width_axis, true_grid, proxy_grid,
                                 error_grid, provenance: dict):
    """The fields of a centering GridArtifact, pinned one cell at a time."""
    def grid(cells):
        return tuple(tuple(_pin(float(v)) for v in row) for row in cells)

    return SimpleNamespace(
        kind="centering",
        row_name="rel_shift", row_values=tuple(_pin(float(v)) for v in shift_axis),
        col_name="rel_width", col_values=tuple(_pin(float(v)) for v in width_axis),
        columns={"true_success": grid(true_grid), "proxy_success": grid(proxy_grid),
                 "relative_error": grid(error_grid)},
        provenance=provenance,
    )


def grid_csv_reference(artifact) -> str:
    lines = [f"# kind={artifact.kind}"]
    for key in sorted(artifact.provenance):
        lines.append(f"# {key}={artifact.provenance[key]}")
    names = list(artifact.columns)
    lines.append(",".join([artifact.row_name, artifact.col_name] + names))
    for i, rv in enumerate(artifact.row_values):
        for j, cv in enumerate(artifact.col_values):
            cells = [_format(rv), _format(cv)]
            cells += [_format(artifact.columns[name][i][j]) for name in names]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def grid_json_reference(artifact) -> str:
    doc = {
        "kind": artifact.kind,
        "axes": {
            "row": {"name": artifact.row_name, "values": list(artifact.row_values)},
            "col": {"name": artifact.col_name, "values": list(artifact.col_values)},
        },
        "columns": {name: [list(row) for row in grid]
                    for name, grid in artifact.columns.items()},
        "provenance": artifact.provenance,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def grid_svg_reference(artifact, cell: int = 8) -> str:
    names = list(artifact.columns)
    n_rows = len(artifact.row_values)
    n_cols = len(artifact.col_values)
    margin, gap, title_h = 40, 30, 18
    panel_w = n_cols * cell
    panel_h = n_rows * cell
    width = margin * 2 + len(names) * panel_w + (len(names) - 1) * gap
    height = margin * 2 + panel_h + title_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        "<metadata>"
        + " ".join(f"{k}={artifact.provenance[k]}" for k in sorted(artifact.provenance))
        + f" kind={artifact.kind}</metadata>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, name in enumerate(names):
        x0 = margin + k * (panel_w + gap)
        y0 = margin + title_h
        parts.append(
            f'<text x="{x0}" y="{margin + 12}" font-family="monospace" '
            f'font-size="12">{name}</text>')
        grid = artifact.columns[name]
        for i in range(n_rows):
            y = y0 + (n_rows - 1 - i) * cell
            for j in range(n_cols):
                color = _cell_color(name, grid[i][j])
                parts.append(
                    f'<rect x="{x0 + j * cell}" y="{y}" width="{cell}" '
                    f'height="{cell}" fill="{color}"/>')
        parts.append(
            f'<text x="{x0}" y="{y0 + panel_h + 14}" font-family="monospace" '
            f'font-size="10">{artifact.col_name}: {_format(artifact.col_values[0])}'
            f' .. {_format(artifact.col_values[-1])}</text>')
    parts.append(
        f'<text x="{margin}" y="{height - 8}" font-family="monospace" '
        f'font-size="10">{artifact.row_name}: {_format(artifact.row_values[0])} .. '
        f'{_format(artifact.row_values[-1])} (bottom to top)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- dense Hamiltonian and ground state ----------------------------------

def decomposition_from_strings(n: int, strings: dict, identity_coefficient: float = 0.0):
    """PauliDecomposition from {length-n letter string: coefficient}."""
    from pecbench.errors import ValidationError
    from pecbench.hubbard import PauliDecomposition

    terms = {}
    for string, coeff in strings.items():
        if len(string) != n or set(string) - set("IXYZ"):
            raise ValidationError(f"{string!r} is not a Pauli string on {n} qubits")
        x = z = 0
        for letter in string:
            x = x << 1 | (letter in "XY")
            z = z << 1 | (letter in "YZ")
        terms[(x, z)] = coeff
    return PauliDecomposition(n=n, terms=terms, identity_coefficient=identity_coefficient)


def reconstruct_matrix(decomp) -> np.ndarray:
    """Dense real symmetric matrix sum_j a_j P_j + identity_coefficient * I.

    Each term is scattered into its d nonzero entries,
    H[b XOR x, b] += a_j s_j(b), with the package's real_pauli_signs; no
    Kronecker product is formed, so pauli_sum_matrix_reference checks it.
    """
    from pecbench.hubbard import real_pauli_signs

    d = 1 << decomp.n
    basis = np.arange(d)
    out = np.eye(d) * decomp.identity_coefficient
    for key, coeff in decomp.terms.items():
        out[basis ^ key[0], basis] += coeff * real_pauli_signs([key], basis)[0]
    return out


def dense_ground_state(decomp):
    """(lowest eigenvalue, its eigenvector) from one dense real eigh (n <= 12).

    The vector is the eigensolver's first column.
    """
    energies, vecs = np.linalg.eigh(reconstruct_matrix(decomp))
    return float(energies[0]), vecs[:, 0]


def sector_of_reference(b: int, n_modes: int) -> tuple[int, int]:
    """(N_up, N_dn) of basis index b, counting occupied modes one by one.

    Modes 0 .. L-1 are spin up and L .. 2L-1 spin down; mode k sits at bit
    n_modes - 1 - k, as in the fermionic oracle above.
    """
    L = n_modes // 2
    occupied = [(b >> (n_modes - 1 - k)) & 1 for k in range(n_modes)]
    return sum(occupied[:L]), sum(occupied[L:])


def pauli_sum_apply_reference(decomp, v) -> np.ndarray:
    """H v without forming H: each term maps v[b] to i^ny (-1)^{|b & z|} v[b] at b ^ x.

    The z parity comes from an explicit bit table, not the package's
    parity helper, and the phase i^ny is taken as a complex power.
    """
    n = decomp.n
    basis = np.arange(1 << n)
    bits = (basis[:, None] >> np.arange(n)) & 1
    out = decomp.identity_coefficient * np.asarray(v, dtype=complex)
    for (x, z), coeff in decomp.terms.items():
        z_bits = [k for k in range(n) if (z >> k) & 1]
        signs = 1.0 - 2.0 * (bits[:, z_bits].sum(axis=1) % 2)
        phase = 1j ** bin(x & z).count("1")
        out[basis ^ x] += coeff * phase * signs * v
    return out
