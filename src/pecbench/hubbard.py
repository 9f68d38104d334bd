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
Letter strings over {I, X, Y, Z} exist only for display and for the
simulator's term order (pauli_string).

ground_state is the package's only eigensolver, and it never forms the
2^n x 2^n matrix: H conserves N_up and N_dn, so it diagonalizes the
(N_up, N_dn) sector blocks one by one, up to MAX_SECTOR_SITES sites.
exact_ground_energy is its energy.  The decomposition has O(L) terms,
each with two masks of up to n = 2L bits, so its masks take O(L^2) bytes; a
lattice whose masks could exceed MAX_MASK_BYTES is refused before any mask is
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError

# The sector solver's cap: 7 sites (14 qubits), whose largest (N_up, N_dn)
# block has C(7, 3)^2 = 1,225 states.  That solve takes 1.3 s and 190 MB; at
# 8 sites the largest block has 4,900 states and all 81 blocks need about
# 1.3 GB of storage and minutes of eigvalsh.  The block size grows with L,
# so capping L caps the block.
MAX_SECTOR_SITES = 7
MAX_SECTOR_DIM = math.comb(MAX_SECTOR_SITES, MAX_SECTOR_SITES // 2) ** 2
# An energy difference below ZERO_RTOL * (|c| + sum_j |a_j|), a bound on
# ||H||, counts as zero: it sets the tie tolerance of the ground level and the
# cancellation test of out-of-sector entries.
ZERO_RTOL = 1e-10
MAX_MASK_BYTES = 2**30  # cap on the Pauli masks of one decomposition

_LETTERS = "IXZY"  # display letter of a qubit's x_bit | z_bit << 1


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
    return "".join(_LETTERS[(x >> bit) & 1 | ((z >> bit) & 1) << 1]
                   for bit in range(n - 1, -1, -1))


def parity(values):
    """Elementwise parity of the set bits of non-negative 64-bit integers."""
    for shift in (1, 2, 4, 8, 16, 32):
        values = values ^ (values >> shift)
    return values & 1


def real_pauli_signs(key: tuple[int, int], basis: np.ndarray) -> np.ndarray:
    """s(b) with P|b> = s(b) |b XOR x> for each basis index b.

    s(b) = (-1)^{ny/2} (-1)^{|b & z|}; a term with an odd Y count has an
    imaginary matrix and is rejected.
    """
    x, z = key
    ny = (x & z).bit_count()
    if ny % 2:
        raise ValidationError(
            f"Pauli term (x={x:#x}, z={z:#x}) has an odd number of Y factors; "
            "its matrix is not real")
    signs = np.where(parity(basis & z) == 1, -1.0, 1.0)
    return -signs if ny % 4 == 2 else signs


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


def _bit(n: int, mode: int) -> int:
    return 1 << (n - 1 - mode)


def build_hubbard_pauli(spec: HubbardSpec) -> PauliDecomposition:
    """Jordan-Wigner qubit decomposition of the Hubbard Hamiltonian.

    Per edge and spin sector: two hopping terms (XZ..ZX and YZ..ZY) with
    coefficient -t/2.  Per site: a ZZ term with +U/4 on the paired up/down
    modes.  Per mode: a single Z with mu/2 - U/4.  Identity weight:
    U*L/4 - mu*L.
    """
    L = spec.sites
    n = spec.qubits
    # at most 2L edges of 4 hopping terms each, plus 3L Z-type terms, each
    # term holding two masks of up to n bits
    size = (4 * 2 * L + 3 * L) * 2 * n // 8
    if size > MAX_MASK_BYTES:
        raise CapacityError(
            f"a {spec.rows}x{spec.cols} lattice ([model] rows x [model] cols) needs up to "
            f"{size / 2**30:.1f} GiB of Pauli masks, over the "
            f"{MAX_MASK_BYTES / 2**30:.0f} GiB cap")
    terms: dict[tuple[int, int], float] = {}

    def add(key: tuple[int, int], coeff: float) -> None:
        terms[key] = terms.get(key, 0.0) + coeff

    for a, b in lattice_edges(spec.rows, spec.cols, spec.boundary):
        for offset in (0, L):  # spin-up then spin-down sector
            p, q = a + offset, b + offset
            x = _bit(n, p) | _bit(n, q)
            run = ((1 << (q - p - 1)) - 1) << (n - q)  # Z on the modes strictly between
            add((x, run), -spec.t / 2.0)
            add((x, x | run), -spec.t / 2.0)

    z_coeff = spec.mu / 2.0 - spec.U / 4.0
    for s in range(L):
        add((0, _bit(n, s) | _bit(n, L + s)), spec.U / 4.0)
    for mode in range(n):
        add((0, _bit(n, mode)), z_coeff)

    terms = {key: c for key, c in terms.items() if c != 0.0}
    identity = spec.U * L / 4.0 - spec.mu * L
    return PauliDecomposition(n=n, terms=terms, identity_coefficient=identity)


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
    popcounts of the two halves.  Each term's in-sector entries
    H[b XOR x, b] += a s(b) are scattered into the flat storage of all blocks
    with one bincount; its out-of-sector entries must cancel across the
    terms that share x, to ZERO_RTOL of the scale |c| + sum_j |a_j|, or the
    decomposition does not conserve N_up and N_dn and is refused.

    Every block is diagonalized (eigvalsh), then the ground block once more
    with eigh.  Tie rule: the ground sector is the first in (N_up, N_dn)
    order whose lowest eigenvalue lies within the tie tolerance
    ZERO_RTOL * scale of the global minimum, and its vector is the
    eigensolver's first column.
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

    terms = [((0, 0), decomp.identity_coefficient), *decomp.terms.items()]
    scale = sum(abs(coeff) for _, coeff in terms)
    flat, weights = [], []
    leaks: dict[int, np.ndarray] = {}  # x mask -> summed out-of-sector entries
    for key, coeff in terms:
        rows = basis ^ key[0]
        values = coeff * real_pauli_signs(key, basis)
        inside = sector[rows] == sector
        col_sector = sector[inside]
        flat.append(offsets[col_sector] + local[rows[inside]] * dims[col_sector]
                    + local[inside])
        weights.append(values[inside])
        leaks[key[0]] = leaks.get(key[0], 0.0) + np.where(inside, 0.0, values)
    if max(np.abs(leak).max() for leak in leaks.values()) > ZERO_RTOL * scale:
        raise ValidationError("the Pauli terms do not conserve N_up and N_dn: their "
                              "out-of-sector entries do not cancel")
    storage = np.bincount(np.concatenate(flat), np.concatenate(weights),
                          minlength=int(offsets[-1] + dims[-1] ** 2))
    blocks = [storage[off:off + dim * dim].reshape(dim, dim)
              for off, dim in zip(offsets, dims)]
    spectra = [np.linalg.eigvalsh(block) for block in blocks]

    lowest = min(spectrum[0] for spectrum in spectra)
    tie = lowest + ZERO_RTOL * scale
    k = next(k for k, spectrum in enumerate(spectra) if spectrum[0] <= tie)
    energies, vecs = np.linalg.eigh(blocks[k])
    vector = np.zeros(1 << n)
    vector[order[starts[k]:starts[k] + dims[k]]] = vecs[:, 0]
    everything = np.concatenate(spectra)
    above = everything[everything > tie]
    return GroundState(
        energy=float(energies[0]), vector=vector, sector=divmod(k, L + 1),
        gap=float(above.min() - energies[0]) if above.size else math.inf,
        degeneracy=int(np.count_nonzero(everything <= tie)))


def exact_ground_energy(spec: HubbardSpec) -> float:
    """ground_state's energy for the lattice (up to MAX_SECTOR_SITES sites)."""
    return ground_state(build_hubbard_pauli(spec)).energy
