"""2-D Fermi-Hubbard Hamiltonian and its Jordan-Wigner Pauli decomposition.

Mode ordering: all spin-up modes first, in row-major site order, then all
spin-down modes.  Site (r, c) on a rows x cols lattice has index
s = r * cols + c; its spin-up mode is s and its spin-down mode is L + s.

Pauli terms are stored in symplectic form (Aaronson & Gottesman, "Improved
simulation of stabilizer circuits", PRA 70, 052328 (2004)): an (x, z) pair
of integer bit masks, bit n-1-m belonging to qubit m, the bit of mode m in
a basis-state index.  Qubit m carries X when only its x bit is set, Z when
only its z bit is set and Y when both are.  The term is
P = i^ny X^x Z^z with ny = popcount(x & z), so P|b> = i^ny (-1)^{|b & z|}
|b XOR x>; a Hubbard term has an even Y count, so its matrix is real.
Qubit m's base-4 digit is (x ^ z) | z << 1 of its bits (I0 X1 Y2 Z3): the
digit that twirl draws and display letters (pauli_string) both read.

ground_state is the package's only eigensolver, and it never forms the
2^n x 2^n matrix: H conserves N_up and N_dn, so it diagonalizes the
(N_up, N_dn) sector blocks one by one, up to MAX_SECTOR_SITES sites.
exact_ground_energy is its energy, and solve bundles it with the terms and
their ground-state expectations for the simulator.

The decomposition has O(L) terms, each with two masks of up to n = 2L bits,
so its masks take O(L^2) bytes; a lattice whose masks could exceed
MAX_MASK_BYTES is refused before any mask is built.  norm_summary builds no
mask, and its own cap, MAX_NORM_SITES, bounds the terms it sums.

hubbard_terms yields the terms one by one and build_hubbard_pauli collects
them into a dict.  The dict is super-linear at large n: Python hashes an int
modulo 2^61 - 1, so 2^a and 2^(a+61) hash alike, and a mask with one or two
set bits, or one run of them, has one of a few thousand hashes whatever n is.
The 17,600 keys of a 40x40 lattice have 596 distinct hashes, so each insert
walks a chain of keys and compares n-bit ints.  A caller that wants only the
norm should call norm_summary, which counts the terms from the lattice and
builds no mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError, gib

# The sector solver's cap: 7 sites (14 qubits), whose largest (N_up, N_dn)
# block has C(7, 3)^2 = 1,225 states.  That solve takes 0.9 s and 180 MB; at
# 8 sites the largest block has 4,900 states and all 81 blocks need about
# 1.3 GB of storage and minutes of eigvalsh.  The block size grows with L,
# so capping L caps the block.
MAX_SECTOR_SITES = 7
MAX_SECTOR_DIM = math.comb(MAX_SECTOR_SITES, MAX_SECTOR_SITES // 2) ** 2
# An energy difference below ZERO_RTOL * (|c| + sum_j |a_j|), a bound on
# ||H||, counts as zero: it sets the tie tolerance of the ground level and the
# cancellation test of out-of-sector entries.
ZERO_RTOL = 1e-10
# A sector block is left undiagonalized when it is shown to lie more than
# SKIP_RTOL * (|c| + sum_j |a_j|) above the first excited level found so far.
# The margin covers the backward error of the Cholesky test, at most about
# dim^2 * eps = 3e-10 of the scale at MAX_SECTOR_DIM, and eigvalsh's error.
SKIP_RTOL = 1e-6
MAX_MASK_BYTES = 2**30  # cap on the Pauli masks of one decomposition
# norm_summary's cap: a 3000x3000 lattice, up to 11 terms a site (9.9e7 on a
# periodic one), whose squares one builtin sum adds in about 0.7 s
MAX_NORM_SITES = 3000 * 3000

_LETTERS = "IXYZ"  # display letter of a qubit's base-4 digit (x_bit ^ z_bit) | z_bit << 1


@dataclass(frozen=True)
class HubbardSpec:
    """Lattice geometry plus (t, U, mu) couplings."""

    rows: int
    cols: int
    boundary: str = "open"  # "open" | "periodic"
    t: float = 1.0
    U: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError(
                f"lattice dimensions must be >= 1, got {self.rows}x{self.cols}"
            )
        if self.boundary not in ("open", "periodic"):
            raise ValidationError(f"unknown boundary condition {self.boundary!r}")
        for name in ("t", "U", "mu"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"coupling {name} must be finite")

    @property
    def sites(self) -> int:
        return self.rows * self.cols

    @property
    def qubits(self) -> int:
        return 2 * self.sites


@dataclass(frozen=True)
class PauliDecomposition:
    """Weighted Pauli terms plus the separately-stored identity weight.

    ``terms`` maps symplectic ``(x, z)`` mask pairs (see the module
    docstring) to real coefficients; the identity key ``(0, 0)`` is never
    present, its weight lives in ``identity_coefficient`` (= Tr[H] / 2^n).
    ``pauli_string`` renders a key for display.
    """

    n: int
    terms: dict = field(default_factory=dict)
    identity_coefficient: float = 0.0

    def __post_init__(self):
        limit = 1 << self.n
        for (x, z), coeff in self.terms.items():
            if not (0 <= x < limit and 0 <= z < limit):
                raise ValidationError(
                    f"Pauli masks (x={x:#x}, z={z:#x}) out of range for n={self.n}")
            if not math.isfinite(coeff):
                raise ValidationError(
                    f"non-finite coefficient for {pauli_string((x, z), self.n)}")
        if (0, 0) in self.terms:
            raise ValidationError("identity term must go in identity_coefficient")
        if not math.isfinite(self.identity_coefficient):
            raise ValidationError("identity_coefficient must be finite")


def pauli_string(key: tuple[int, int], n: int) -> str:
    """Display letters of an (x, z) key, qubit 0 leftmost."""
    x, z = key
    return "".join(_LETTERS[((x ^ z) >> bit) & 1 | ((z >> bit) & 1) << 1]
                   for bit in range(n - 1, -1, -1))


def _pauli_index(key: tuple[int, int]) -> int:
    """Base-4 index of an (x, z) key: a mask's bits read in base 4 put bit b at 2b."""
    x, z = key
    return int(format(x ^ z, "b"), 4) | int(format(z, "b"), 4) << 1


def parity(values):
    """Elementwise parity of the set bits of non-negative 64-bit integers.

    numpy 2 counts the bits in one pass, a tenth of the time of the six
    shift-and-XOR folds that older numpy needs.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values) & 1
    for shift in (1, 2, 4, 8, 16, 32):
        values = values ^ (values >> shift)
    return values & 1


def real_pauli_signs(keys, basis: np.ndarray) -> np.ndarray:
    """s_j(b) with P_j|b> = s_j(b) |b XOR x_j>, one row per (x, z) key.

    s_j(b) = (-1)^{ny/2} (-1)^{|b & z_j|} for each basis index b; a term
    with an odd Y count has an imaginary matrix and is rejected.
    """
    for x, z in keys:
        if (x & z).bit_count() % 2:
            raise ValidationError(
                f"Pauli term (x={x:#x}, z={z:#x}) has an odd number of Y factors; "
                "its matrix is not real")
    z_masks = np.array([z for _, z in keys], dtype=np.int64)
    y_phase = np.array([(x & z).bit_count() // 2 % 2 for x, z in keys], dtype=np.int64)
    return 1.0 - 2.0 * (parity(basis & z_masks[:, None]) ^ y_phase[:, None])


def lattice_edges(rows: int, cols: int, boundary: str) -> list[tuple[int, int]]:
    """Nearest-neighbour site pairs, each unordered pair listed once.

    Periodic wrap edges that coincide with an interior edge (a periodic
    dimension of size 2) are not duplicated.
    """
    periodic = boundary == "periodic"
    edges = set()
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            if c + 1 < cols:
                edges.add((s, s + 1))
            elif periodic and cols > 2:
                edges.add((r * cols, s))
            if r + 1 < rows:
                edges.add((s, s + cols))
            elif periodic and rows > 2:
                edges.add((c, s))
    return sorted(edges)


def bond_count(rows: int, cols: int, boundary: str) -> int:
    """len(lattice_edges(rows, cols, boundary)), without listing the edges.

    A periodic side adds one wrap bond per line only when it is longer than
    2: on a side of 2 the wrap is the interior bond, on a side of 1 a loop.
    """
    periodic = boundary == "periodic"
    return (rows * (cols - 1 + (periodic and cols > 2))
            + cols * (rows - 1 + (periodic and rows > 2)))


def _bit(n: int, mode: int) -> int:
    return 1 << (n - 1 - mode)


def hubbard_terms(spec: HubbardSpec):
    """Jordan-Wigner terms of the Hubbard Hamiltonian as ((x, z), coeff) pairs.

    Per edge and spin sector: two hopping terms (XZ..ZX and YZ..ZY) with
    coefficient -t/2.  Per site: a ZZ term with +U/4 on the paired up/down
    modes.  Per mode: a single Z with mu/2 - U/4.  They come in that order,
    and a term whose coefficient is 0.0 is left out.  No two terms share a
    key.  The identity weight is identity_coefficient_closed_form.  A
    lattice whose masks could exceed MAX_MASK_BYTES is refused first.
    """
    L = spec.sites
    n = spec.qubits
    # at most 2L edges of 4 hopping terms each, plus 3L Z-type terms, each
    # term holding two masks of up to n bits
    size = (4 * 2 * L + 3 * L) * 2 * n // 8
    if size > MAX_MASK_BYTES:
        raise CapacityError(
            f"a {spec.rows}x{spec.cols} lattice ([model] rows x [model] cols) needs up to "
            f"{gib(size)} GiB of Pauli masks, over the "
            f"{MAX_MASK_BYTES / 2**30:.0f} GiB cap")
    hop = -spec.t / 2.0
    if hop != 0.0:
        for a, b in lattice_edges(spec.rows, spec.cols, spec.boundary):
            for offset in (0, L):  # spin-up then spin-down sector
                p, q = a + offset, b + offset
                x = _bit(n, p) | _bit(n, q)
                run = ((1 << (q - p - 1)) - 1) << (n - q)  # Z on the modes strictly between
                yield (x, run), hop
                yield (x, x | run), hop
    pair = spec.U / 4.0
    if pair != 0.0:
        for s in range(L):
            yield (0, _bit(n, s) | _bit(n, L + s)), pair
    z_coeff = spec.mu / 2.0 - spec.U / 4.0
    if z_coeff != 0.0:
        for mode in range(n):
            yield (0, _bit(n, mode)), z_coeff


def build_hubbard_pauli(spec: HubbardSpec) -> PauliDecomposition:
    """The Hubbard Hamiltonian as a PauliDecomposition of hubbard_terms."""
    return PauliDecomposition(n=spec.qubits, terms=dict(hubbard_terms(spec)),
                              identity_coefficient=identity_coefficient_closed_form(spec))


def norm_summary(spec: HubbardSpec) -> tuple[float, float, int]:
    """(norm2_squared, identity_coefficient, term count) of build_hubbard_pauli.

    hubbard_terms yields three runs of equal coefficients: 4 per bond at
    -t/2, L at U/4 and 2L at mu/2 - U/4, a run at 0.0 left out.  Their
    squares are summed in that order by the same builtin sum, so the figures
    are bitwise those of the decomposition.  No mask, term or edge list is
    built: the cost is linear in the term count, and a lattice of more than
    MAX_NORM_SITES sites is refused before any sum.
    """
    L = spec.sites
    if L > MAX_NORM_SITES:
        raise CapacityError(
            f"a {spec.rows}x{spec.cols} lattice ([model] rows x [model] cols) has {L} "
            f"sites, over the norm summary's cap of {MAX_NORM_SITES}")
    runs = [(count, coeff) for count, coeff in (
        (4 * bond_count(spec.rows, spec.cols, spec.boundary), -spec.t / 2.0),
        (L, spec.U / 4.0),
        (2 * L, spec.mu / 2.0 - spec.U / 4.0)) if coeff != 0.0]
    squares = chain.from_iterable(repeat(coeff * coeff, count) for count, coeff in runs)
    return (float(sum(squares)), identity_coefficient_closed_form(spec),
            sum(count for count, _ in runs))


def norm2_squared(decomp: PauliDecomposition) -> float:
    """Sum of squared coefficients over the non-identity terms."""
    return float(sum(c * c for c in decomp.terms.values()))


def norm2_squared_closed_form(spec: HubbardSpec) -> float:
    """Edge-count closed form: E*t^2 + 2L*(mu/2 - U/4)^2 + L*(U/4)^2.

    E = 2L for a periodic lattice with both dimensions >= 3.
    """
    L = spec.sites
    n_edges = len(lattice_edges(spec.rows, spec.cols, spec.boundary))
    z = spec.mu / 2.0 - spec.U / 4.0
    return n_edges * spec.t**2 + 2 * L * z**2 + L * (spec.U / 4.0) ** 2


def identity_coefficient_closed_form(spec: HubbardSpec) -> float:
    L = spec.sites
    return spec.U * L / 4.0 - spec.mu * L


class GroundState(NamedTuple):
    """The sector solver's ground level and what it says about the spectrum.

    energy and vector are the chosen sector's lowest eigenpair, the vector
    embedded in the full 2^n basis; sector is that sector's (N_up, N_dn);
    gap is the distance from energy to the lowest eigenvalue above the
    ground level; degeneracy counts the eigenvalues, over all sectors, that
    tie with the minimum.
    """

    energy: float
    vector: np.ndarray
    sector: tuple[int, int]
    gap: float
    degeneracy: int


def _popcounts(bits: int) -> np.ndarray:
    """Set-bit count of every integer in [0, 2^bits); works on any numpy."""
    values = np.arange(1 << bits)
    counts = np.zeros(1 << bits, dtype=np.int64)
    for bit in range(bits):
        counts += (values >> bit) & 1
    return counts


def check_sector_capacity(sites: int, what: str) -> None:
    """Refuse `what`, a lattice of `sites` sites, above MAX_SECTOR_SITES."""
    if sites > MAX_SECTOR_SITES:
        raise CapacityError(
            f"{what} has {sites} sites; the sector solver is capped at "
            f"{MAX_SECTOR_SITES} sites, whose largest (N_up, N_dn) block has "
            f"{MAX_SECTOR_DIM} states")


def ground_state(decomp: PauliDecomposition) -> GroundState:
    """Ground level from the (N_up, N_dn) sector blocks of H.

    A Hubbard Hamiltonian conserves both spin counts, so H is block diagonal
    over the (L+1)^2 sectors.  The up modes are the high L bits of a basis
    index and the down modes the low L bits, so N_up and N_dn are the
    popcounts of the two halves.  The entries H[b XOR x, b] = sum_j a_j s_j(b)
    of the terms that share an x mask are summed in term order before the
    scatter; entries of different x never collide, so the in-sector ones go
    into the flat storage of all blocks with one bincount, and the per-entry
    sums are those of a term-by-term scatter.  The out-of-sector entries of
    each x must cancel, to ZERO_RTOL of the scale |c| + sum_j |a_j|, or the
    decomposition does not conserve N_up and N_dn and is refused.

    The blocks are diagonalized (eigvalsh) in ascending order of their
    Gershgorin lower bounds, then the ground block once more with eigh.  A
    block is skipped when every eigenvalue of it provably exceeds the lowest
    eigenvalue above the tie tolerance found so far by SKIP_RTOL * scale:
    its Gershgorin bound says so, which then holds for every later block
    too, or block - bound * I has a Cholesky factor.  That level can only
    fall as more blocks are diagonalized, so a skipped block holds no value
    that ties with the minimum or lies below the gap level, and the energy,
    gap, degeneracy and vector are bitwise those of diagonalizing every
    block.  Tie rule: the ground sector is the first in (N_up, N_dn) order
    whose lowest eigenvalue lies within the tie tolerance ZERO_RTOL * scale
    of the global minimum, and its vector is the eigensolver's first column.
    """
    n = decomp.n
    if n % 2:
        raise ValidationError(f"sector labels need n = 2L qubits, got n={n}")
    L = n // 2
    check_sector_capacity(L, f"an n={n} decomposition")
    basis = np.arange(1 << n)
    popcount = _popcounts(L)
    sector = popcount[basis >> L] * (L + 1) + popcount[basis & ((1 << L) - 1)]
    dims = np.bincount(sector, minlength=(L + 1) ** 2)
    # a stable sort keeps each sector's states in ascending order: local index
    # = position within the sector
    order = np.argsort(sector, kind="stable")
    starts = np.cumsum(dims) - dims
    local = np.empty_like(basis)
    local[order] = basis - starts[sector[order]]
    offsets = np.cumsum(dims**2) - dims**2

    keys = [(0, 0), *decomp.terms]
    coeffs = np.array([decomp.identity_coefficient, *decomp.terms.values()])
    scale = sum(map(abs, coeffs.tolist()))
    # x mask -> the entries H[b XOR x, b] of its terms, summed in term order
    summed: dict[int, np.ndarray] = {}
    for (x, _), values in zip(keys, coeffs[:, None] * real_pauli_signs(keys, basis)):
        summed[x] = summed.get(x, 0.0) + values
    masks = np.array(list(summed), dtype=np.int64)
    values = np.array(list(summed.values()))
    rows = basis ^ masks[:, None]  # row (x, b) holds the entry H[b XOR x, b]
    inside = sector[rows] == sector
    cols = np.broadcast_to(basis, rows.shape)[inside]
    leak = np.abs(values[~inside]).max(initial=0.0)
    if leak > ZERO_RTOL * scale:
        raise ValidationError("the Pauli terms do not conserve N_up and N_dn: their "
                              "out-of-sector entries do not cancel")
    storage = np.bincount(
        offsets[sector[cols]] + local[rows[inside]] * dims[sector[cols]] + local[cols],
        values[inside], minlength=int(offsets[-1] + dims[-1] ** 2))
    blocks = [storage[off:off + dim * dim].reshape(dim, dim)
              for off, dim in zip(offsets, dims)]
    # Gershgorin: every eigenvalue of a block is at least the least, over its
    # columns, of the diagonal minus the column's off-diagonal |H|
    radius = np.abs(values[masks != 0]).sum(axis=0)
    lower = np.minimum.reduceat((summed[0] - radius)[order], starts)

    spectra = {}
    level = math.inf  # the lowest eigenvalue above the tie tolerance so far
    for k in np.argsort(lower, kind="stable").tolist():
        bound = level + SKIP_RTOL * scale
        if lower[k] > bound:
            break
        if level < math.inf and _exceeds(blocks[k], bound):
            continue
        spectra[k] = np.linalg.eigvalsh(blocks[k])
        everything = np.concatenate(list(spectra.values()))
        tie = everything.min() + ZERO_RTOL * scale
        level = everything[everything > tie].min(initial=math.inf)

    k = min(k for k, spectrum in spectra.items() if spectrum[0] <= tie)
    energies, vecs = np.linalg.eigh(blocks[k])
    vector = np.zeros(1 << n)
    vector[order[starts[k]:starts[k] + dims[k]]] = vecs[:, 0]
    return GroundState(
        energy=float(energies[0]), vector=vector, sector=divmod(k, L + 1),
        gap=float(level - energies[0]),
        degeneracy=int(np.count_nonzero(everything <= tie)))


def _exceeds(block: np.ndarray, bound: float) -> bool:
    """Whether every eigenvalue of the symmetric block exceeds bound.

    It does when block - bound * I is positive definite, that is when the
    shifted block has a Cholesky factor.
    """
    try:
        np.linalg.cholesky(block - bound * np.eye(len(block)))
    except np.linalg.LinAlgError:
        return False
    return True


def term_data(decomp: PauliDecomposition, v: np.ndarray):
    """(coeffs, x masks, z masks, <P_j>_0) of the non-identity terms.

    The terms are in ascending base-4 index (display-string order); each
    term's position picks its u_outcome column in the simulator.
    <P_j>_0 = sum_b s_j(b) v[b] v[b ^ x_j] on the real ground vector v.
    """
    keys = sorted(decomp.terms, key=_pauli_index)
    coeffs = np.array([decomp.terms[key] for key in keys])
    term_x = np.array([x for x, _ in keys], dtype=np.int64)
    term_z = np.array([z for _, z in keys], dtype=np.int64)
    basis = np.arange(len(v))
    expect0 = np.array([v[basis ^ x] @ (signs * v) for x, signs
                        in zip(term_x.tolist(), real_pauli_signs(keys, basis))])
    return coeffs, term_x, term_z, expect0


class SolvedInstance(NamedTuple):
    """One lattice's Hamiltonian and ground level, as solve returns them.

    identity and norm2_squared are the decomposition's identity weight and
    norm2_squared; coeffs, term_x, term_z and expect0 are its term_data on
    the ground vector.
    """

    identity: float
    norm2_squared: float
    coeffs: np.ndarray
    term_x: np.ndarray
    term_z: np.ndarray
    ground: GroundState
    expect0: np.ndarray


def solve(spec: HubbardSpec) -> SolvedInstance:
    """The lattice's terms and ground level: one build and one sector solve.

    A caller that runs several estimators on one lattice can call this once
    and keep the record.
    """
    decomp = build_hubbard_pauli(spec)
    ground = ground_state(decomp)
    coeffs, term_x, term_z, expect0 = term_data(decomp, ground.vector)
    return SolvedInstance(decomp.identity_coefficient, norm2_squared(decomp), coeffs,
                          term_x, term_z, ground, expect0)


def exact_ground_energy(spec: HubbardSpec) -> float:
    """ground_state's energy for the lattice (up to MAX_SECTOR_SITES sites)."""
    return ground_state(build_hubbard_pauli(spec)).energy
