import hashlib
import math
import re
import time

import numpy as np
import pytest

from pecbench import hubbard as hb
from pecbench.errors import CapacityError, ValidationError, gib

from oracles import (
    decomposition_from_strings,
    dense_ground_state,
    fermionic_hubbard_matrix,
    lattice_edges_reference,
    pauli_masks,
    pauli_sum_apply_reference,
    pauli_sum_matrix_reference,
    reconstruct_matrix,
    sector_of_reference,
)


def _display(decomp):
    """The decomposition's terms keyed by display string, in insertion order."""
    return {hb.pauli_string(key, decomp.n): c for key, c in decomp.terms.items()}


def test_lattice_edges_counts():
    assert len(hb.lattice_edges(2, 2, "open")) == 4
    assert len(hb.lattice_edges(3, 3, "open")) == 12
    assert len(hb.lattice_edges(3, 3, "periodic")) == 18
    assert len(hb.lattice_edges(1, 4, "open")) == 3
    assert len(hb.lattice_edges(1, 4, "periodic")) == 4
    # size-2 periodic dimension: the wrap edge coincides with the interior one
    assert hb.lattice_edges(2, 2, "periodic") == hb.lattice_edges(2, 2, "open")
    assert len(hb.lattice_edges(8, 8, "periodic")) == 128


def test_bond_count_is_the_edge_count():
    sizes = [(rows, cols) for rows in range(1, 8) for cols in range(1, 8)]
    for rows, cols in sizes + [(40, 40), (1, 200), (2, 117), (118, 118)]:
        for boundary in ("open", "periodic"):
            assert hb.bond_count(rows, cols, boundary) == \
                len(hb.lattice_edges(rows, cols, boundary))


def test_lattice_edges_match_reference_convention():
    for rows, cols in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 5)]:
        for boundary in ("open", "periodic"):
            assert hb.lattice_edges(rows, cols, boundary) == \
                lattice_edges_reference(rows, cols, boundary)


def test_single_site_terms():
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(1, 1, "open", t=1.0, U=4.0, mu=1.0))
    # no edges: only ZZ on the up/down pair and single-Z terms
    assert _display(decomp) == {"ZZ": 1.0, "ZI": -0.5, "IZ": -0.5}
    assert decomp.identity_coefficient == 0.0


def test_dimer_hopping_strings():
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(1, 2, "open", t=2.0, U=0.0, mu=0.0))
    terms = _display(decomp)
    assert terms["XXII"] == -1.0
    assert terms["YYII"] == -1.0
    assert terms["IIXX"] == -1.0
    assert terms["IIYY"] == -1.0
    assert "ZIII" not in terms


def test_jordan_wigner_z_string():
    # the periodic wrap edge (0, 2) hops non-adjacent modes, threading Z
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(1, 3, "periodic", t=1.0))
    terms = _display(decomp)
    assert terms["XZXIII"] == -0.5
    assert terms["IIIYZY"] == -0.5


def test_reconstruct_matches_fermionic_oracle():
    rng = np.random.default_rng(11)
    for rows, cols in [(1, 2), (2, 2), (1, 3)]:
        for boundary in ("open", "periodic"):
            t, U, mu = rng.normal(size=3)
            spec = hb.HubbardSpec(rows, cols, boundary, float(t), float(U), float(mu))
            ours = reconstruct_matrix(hb.build_hubbard_pauli(spec))
            reference = fermionic_hubbard_matrix(rows, cols, boundary,
                                                 float(t), float(U), float(mu))
            assert np.max(np.abs(ours - reference)) <= 1e-12


def test_norm2_closed_form_and_trace_identity():
    rng = np.random.default_rng(3)
    for rows, cols, boundary in [(1, 2, "open"), (2, 2, "open"), (1, 3, "periodic"),
                                 (3, 3, "periodic"), (8, 8, "periodic")]:
        t, U, mu = rng.normal(size=3)
        spec = hb.HubbardSpec(rows, cols, boundary, float(t), float(U), float(mu))
        decomp = hb.build_hubbard_pauli(spec)
        assert hb.norm2_squared(decomp) == pytest.approx(
            hb.norm2_squared_closed_form(spec), rel=1e-12)
        assert decomp.identity_coefficient == pytest.approx(
            hb.identity_coefficient_closed_form(spec), rel=1e-12)


def test_norm2_equals_centered_trace_of_h_squared():
    spec = hb.HubbardSpec(1, 3, "open", 0.7, 2.3, -0.4)
    decomp = hb.build_hubbard_pauli(spec)
    h = reconstruct_matrix(decomp)
    d = h.shape[0]
    centered = np.trace(h @ h).real / d - (np.trace(h).real / d) ** 2
    assert hb.norm2_squared(decomp) == pytest.approx(centered, rel=1e-9)


def test_reference_instance_norm_values():
    spec = hb.HubbardSpec(8, 8, "periodic", 1.0, 8.0, 3.75)
    assert hb.norm2_squared_closed_form(spec) == pytest.approx(386.0, abs=1e-9)
    assert hb.identity_coefficient_closed_form(spec) == pytest.approx(-112.0, abs=1e-12)
    decomp = hb.build_hubbard_pauli(spec)
    assert hb.norm2_squared(decomp) == pytest.approx(386.0, abs=1e-9)


def test_exact_ground_energies():
    assert hb.exact_ground_energy(
        hb.HubbardSpec(1, 2, "open", 1.0, 0.0, 0.0)) == pytest.approx(-2.0, abs=1e-10)
    # t = 0: diagonal Hamiltonian, ground energy from filling both modes
    # wherever mu gains beat the U penalty
    assert hb.exact_ground_energy(
        hb.HubbardSpec(1, 2, "open", 0.0, 8.0, 3.75)) == pytest.approx(-7.5, abs=1e-10)


def test_ground_state_vector_is_eigenvector():
    spec = hb.HubbardSpec(1, 2, "open", 1.0, 4.0, 1.0)
    decomp = hb.build_hubbard_pauli(spec)
    h = reconstruct_matrix(decomp)
    e0, v = hb.ground_state(decomp)[:2]
    assert e0 == pytest.approx(dense_ground_state(decomp)[0], abs=1e-12)
    assert np.linalg.norm(h @ v - e0 * v) <= 1e-9
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_validation_errors():
    with pytest.raises(ValidationError):
        hb.HubbardSpec(0, 2, "open")
    with pytest.raises(ValidationError):
        hb.HubbardSpec(2, 2, "twisted")
    with pytest.raises(ValidationError):
        hb.HubbardSpec(1, 1, "open", t=math.inf)
    with pytest.raises(ValidationError):
        decomposition_from_strings(2, {"XYZ": 1.0})
    with pytest.raises(ValidationError):
        decomposition_from_strings(2, {"AB": 1.0})
    with pytest.raises(ValidationError):
        decomposition_from_strings(2, {"II": 1.0})
    # the same checks on the masks themselves
    with pytest.raises(ValidationError, match="out of range"):
        hb.PauliDecomposition(n=2, terms={(0b100, 0): 1.0})
    with pytest.raises(ValidationError, match="identity"):
        hb.PauliDecomposition(n=2, terms={(0, 0): 1.0})
    with pytest.raises(ValidationError, match="non-finite"):
        hb.PauliDecomposition(n=2, terms={(1, 0): math.nan})
    # a single Y has an imaginary matrix, which the real sector solver refuses
    with pytest.raises(ValidationError, match="odd number of Y"):
        hb.ground_state(decomposition_from_strings(2, {"YZ": 1.0}))


def test_dense_capacity_cap():
    big = hb.HubbardSpec(8, 8, "periodic", 1.0, 8.0, 3.75)
    hb.build_hubbard_pauli(big)  # symbolic build is fine at any size
    with pytest.raises(CapacityError):
        hb.exact_ground_energy(big)


@pytest.mark.parametrize("rows, cols, boundary", [
    (1, 2, "open"), (2, 2, "open"), (1, 3, "open"),
    (1, 3, "periodic"),  # the wrap edge threads a Z string
])
def test_reconstruct_matches_kronecker_sum_exactly(rows, cols, boundary):
    rng = np.random.default_rng(rows * 10 + cols)
    for _ in range(3):
        t, U, mu = (float(v) for v in rng.normal(size=3))
        decomp = hb.build_hubbard_pauli(hb.HubbardSpec(rows, cols, boundary, t, U, mu))
        ours = reconstruct_matrix(decomp)
        reference = pauli_sum_matrix_reference(decomp.n, _display(decomp),
                                               decomp.identity_coefficient)
        assert ours.dtype == np.float64
        assert not np.any(reference.imag)
        assert np.array_equal(ours, reference.real)


def test_display_strings_round_trip():
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(2, 3, "periodic", 0.3, 1.7, -0.9))
    again = decomposition_from_strings(decomp.n, _display(decomp),
                                       decomp.identity_coefficient)
    assert again == decomp
    assert list(again.terms) == list(decomp.terms)


def test_pauli_index_is_the_twirl_draw_index():
    # one digit convention: a key's index is the twirl index that names it
    for q in (1, 2, 3, 4):
        assert [hb._pauli_index(pauli_masks(i, q)) for i in range(4**q)] == list(range(4**q))
    # Python ints, so any n: the index order is the display-string order
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(40, 40, "periodic", 1.0, 8.0, 3.75))
    keys = list(decomp.terms)[::50]
    assert sorted(keys, key=hb._pauli_index) == sorted(
        keys, key=lambda key: hb.pauli_string(key, decomp.n))


def test_large_periodic_build():
    spec = hb.HubbardSpec(40, 40, "periodic", 1.0, 8.0, 3.75)
    decomp = hb.build_hubbard_pauli(spec)
    assert decomp.n == 3200
    # 3200 edges x 2 spins x 2 hops, 1600 ZZ and 3200 single Z
    assert len(decomp.terms) == 17_600
    assert hb.norm2_squared(decomp) == pytest.approx(
        hb.norm2_squared_closed_form(spec), rel=1e-12)


@pytest.mark.parametrize("rows, cols, boundary, t, U, mu", [
    (1, 1, "open", 1.0, 8.0, 3.75),
    (1, 2, "periodic", 1.0, 8.0, 3.75),
    (2, 2, "periodic", 0.3, 7.1, 2.9),  # wrap edges coincide with interior ones
    (2, 5, "periodic", 0.3, 7.1, 2.9),
    (7, 9, "open", -1.3, 2.2, 0.7),
    (40, 40, "periodic", 0.3, 7.1, 2.9),
    (3, 4, "periodic", 0.0, 7.1, 2.9),  # no hopping terms
    (3, 4, "periodic", 0.3, 0.0, 2.9),  # no ZZ terms
    (3, 4, "periodic", 0.3, 7.1, 3.55),  # mu = U/2: no single-Z terms
    (3, 4, "periodic", -0.0, -0.0, -0.0),
    (3, 4, "periodic", 0.3, 5e-324, 2.9),  # U/4 underflows to 0.0
    (3, 4, "periodic", 5e-324, 7.1, 2.9),  # -t/2 underflows to -0.0
    # periodic sides of 1 and 2 add no wrap bond, a side of 3 adds one per line
    (1, 1, "periodic", 1.0, 8.0, 3.75),
    (1, 3, "periodic", 0.3, 7.1, 2.9),
    (3, 1, "periodic", 0.3, 7.1, 2.9),
    (2, 3, "periodic", -1.3, 2.2, 0.7),
    (3, 2, "periodic", -1.3, 2.2, 0.7),
])
def test_norm_summary_is_bitwise_the_decomposition(rows, cols, boundary, t, U, mu):
    spec = hb.HubbardSpec(rows, cols, boundary, t, U, mu)
    decomp = hb.build_hubbard_pauli(spec)
    assert hb.norm_summary(spec) == (hb.norm2_squared(decomp), decomp.identity_coefficient,
                                     len(decomp.terms))
    terms = list(hb.hubbard_terms(spec))
    assert len(dict(terms)) == len(terms)  # no key repeats
    assert all(coeff != 0.0 for _, coeff in terms)


# the criterion-6 lattices of test_acceptance, plus a 5-site chain
SECTOR_LATTICES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1), (2, 2), (1, 5)]


def test_sector_solver_matches_dense_oracle():
    rng = np.random.default_rng(909)
    seen = {"degenerate": 0, "non-degenerate": 0}
    for rows, cols in SECTOR_LATTICES:
        for boundary in ("open", "periodic"):
            # the simulator's U = 8, mu = 3.75 point is degenerate on odd chains
            couplings = [(1.0, 8.0, 3.75)] + [
                tuple(float(v) for v in rng.normal(size=3))
                for _ in range(2 if rows * cols == 5 else 4)]
            for t, U, mu in couplings:
                decomp = hb.build_hubbard_pauli(hb.HubbardSpec(rows, cols, boundary, t, U, mu))
                h = reconstruct_matrix(decomp)
                spectrum = np.linalg.eigvalsh(h)
                ground = hb.ground_state(decomp)
                e0, v = ground.energy, ground.vector
                assert e0 == pytest.approx(spectrum[0], abs=1e-10)
                assert np.linalg.norm(h @ v - e0 * v) <= 1e-9
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

                ties = spectrum <= spectrum[0] + 1e-8
                assert ground.degeneracy == np.count_nonzero(ties)
                assert ground.gap == pytest.approx(spectrum[~ties][0] - spectrum[0], abs=1e-9)
                sectors = [sector_of_reference(b, decomp.n) for b in range(len(v))]
                if ground.degeneracy == 1:
                    seen["non-degenerate"] += 1
                    ours = hb.term_data(decomp, v)[3]
                    dense = hb.term_data(decomp, dense_ground_state(decomp)[1])[3]
                    assert np.max(np.abs(ours - dense)) <= 1e-12
                else:
                    seen["degenerate"] += 1
                    # the first sector, in (N_up, N_dn) order, that reaches e0
                    lowest = {}
                    for sector in sorted(set(sectors)):
                        members = [b for b, s in enumerate(sectors) if s == sector]
                        lowest[sector] = np.linalg.eigvalsh(h[np.ix_(members, members)])[0]
                    first = min(s for s, e in lowest.items() if e <= spectrum[0] + 1e-8)
                    assert ground.sector == first
                outside = [b for b, s in enumerate(sectors) if s != ground.sector]
                assert not np.any(v[outside])
    assert min(seen.values()) >= 8, seen


def test_sector_solver_12_qubits():
    spec = hb.HubbardSpec(2, 3, "periodic", 1.0, 8.0, 3.75)
    decomp = hb.build_hubbard_pauli(spec)
    start = time.perf_counter()
    ground = hb.ground_state(decomp)
    assert time.perf_counter() - start < 1.0
    # recorded from one dense 4096 x 4096 eigvalsh
    assert ground.energy == pytest.approx(float.fromhex("-0x1.8cf9275a22636p+4"), abs=1e-10)
    residual = pauli_sum_apply_reference(decomp, ground.vector) - ground.energy * ground.vector
    assert np.linalg.norm(residual) <= 1e-9
    assert ground.sector == (3, 3) and ground.degeneracy == 1


def test_sector_solver_14_qubits_matrix_free():
    # no dense 16384 x 16384 matrix is formed: the residual is applied term by term
    spec = hb.HubbardSpec(1, 7, "periodic", 1.0, 8.0, 3.75)
    decomp = hb.build_hubbard_pauli(spec)
    ground = hb.ground_state(decomp)
    assert hb.exact_ground_energy(spec) == ground.energy
    residual = pauli_sum_apply_reference(decomp, ground.vector) - ground.energy * ground.vector
    assert np.linalg.norm(residual) <= 1e-9
    assert np.linalg.norm(ground.vector) == pytest.approx(1.0, abs=1e-12)


def test_sector_solver_refusals():
    # a hop within the up modes conserves N_up only as XX + YY; either half
    # alone, or their difference (pair creation), leaks out of the sectors
    assert hb.ground_state(decomposition_from_strings(
        4, {"XXII": 1.0, "YYII": 1.0})).energy == pytest.approx(-2.0, abs=1e-12)
    for strings in ({"XXII": 1.0}, {"YYII": 1.0}, {"XXII": 1.0, "YYII": -1.0},
                    {"XIXI": 1.0, "YIYI": 1.0}):  # moves an electron from up to down
        with pytest.raises(ValidationError, match="do not conserve"):
            hb.ground_state(decomposition_from_strings(4, strings))
    with pytest.raises(ValidationError, match="n = 2L"):
        hb.ground_state(decomposition_from_strings(3, {"ZII": 1.0}))
    # 8 sites: refused before any 2^16 array is built
    with pytest.raises(CapacityError, match="capped at 7 sites"):
        hb.ground_state(hb.build_hubbard_pauli(hb.HubbardSpec(2, 4, "open", 1.0, 8.0, 3.75)))


def test_mask_capacity_message_exceeds_the_cap():
    # a 119x119 lattice needs 1.03 GiB of masks, a figure that must read over the 1 GiB cap
    spec = hb.HubbardSpec(119, 119, "periodic")
    with pytest.raises(CapacityError) as raised:
        hb.build_hubbard_pauli(spec)
    message = str(raised.value)
    figure = float(re.search(r"needs up to ([0-9.]+) GiB", message).group(1))
    cap = hb.MAX_MASK_BYTES / 2**30
    assert figure > cap and figure == 1.03
    assert "[model] rows x [model] cols" in message and f"the {cap:.0f} GiB cap" in message
    # norm_summary builds no mask, so only its site cap applies: 4 hopping
    # terms on each of the 2L bonds, U = mu = 0 adding none
    assert hb.norm_summary(spec)[2] == 8 * spec.sites
    # the rule: round up at two decimals, so one byte over a cap reads over it
    assert (gib(2**30), gib(2**30 + 1), gib(2**31 - 1)) == ("1.00", "1.01", "2.00")


# Recorded from the solver at the commit before terms sharing an x mask were
# summed ahead of the sector scatter: float.hex of the energy and the gap, the
# sector and degeneracy, and sha256 of the ground vector's bytes and of the
# simulator's <P_j>_0.  The eigensolver's bits depend on the LAPACK that numpy
# links, so another numpy build may move their last bits.
SOLVER_PINS = {
    (1, 5, "periodic", 1.0, 4.0, 3.0): (
        "-0x1.2493c7c8e4ceap+4", "0x1.5f3b1d1add6a0p-1", (3, 3), 1,
        "3ef2ea0c3490e56fb5cf2b45b10b3dc1edf60d39c133fce04412ed45eb0ac9d6",
        "1a5df20d60bfadfcf868d1ca9415eec54f40a58d64f12a611fc15f84104980c2"),
    (2, 3, "open", 1.0, 4.0, 1.0): (
        "-0x1.33d17af4039e7p+3", "0x1.c8b8047da1d80p-4", (3, 3), 1,
        "7fe4a7e054ce917931c165d360ab6c1836ecc84b4ce29891c3749228c86c869b",
        "768c86e02821f40192e047f99058a4d1c0c51588d08d274fb1ff93eaf06b8462"),
    (1, 7, "open", 1.0, 4.0, 1.0): (
        "-0x1.5697580043facp+3", "0x1.f658a6f448b00p-4", (3, 3), 1,
        "f610bddb17ed9e2751294b74989b514a15182f9981f840ee8adad32d4618fda2",
        "236d761c73f04d827b57c9deb91570873a912814a51cf1ac9615f3af6d284c0b"),
}


@pytest.mark.parametrize("args", SOLVER_PINS, ids=lambda a: f"{a[0]}x{a[1]}-{a[2]}")
def test_sector_solver_bits_are_pinned(args):
    energy, gap, sector, degeneracy, vector_sha, expect_sha = SOLVER_PINS[args]
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(*args))
    ground = hb.ground_state(decomp)
    assert ground.energy.hex() == energy and ground.gap.hex() == gap
    assert ground.sector == sector and ground.degeneracy == degeneracy
    assert hashlib.sha256(ground.vector.tobytes()).hexdigest() == vector_sha
    expect0 = hb.term_data(decomp, ground.vector)[3]
    assert hashlib.sha256(expect0.tobytes()).hexdigest() == expect_sha


def test_skipped_blocks_change_no_bit(monkeypatch):
    # ground_state leaves a sector block undiagonalized when it provably lies
    # above the first excited level; diagonalizing every block must give the
    # same bits, degenerate and zero-coupling lattices included
    rng = np.random.default_rng(31)
    specs = [hb.HubbardSpec(1, 5, "periodic", 1.0, 4.0, 3.0),
             hb.HubbardSpec(2, 3, "open", 1.0, 4.0, 1.0),
             hb.HubbardSpec(1, 3, "periodic", 1.0, 8.0, 3.75),
             hb.HubbardSpec(2, 2, "open", 0.0, 4.0, 1.0),
             hb.HubbardSpec(1, 2, "open", 0.0, 0.0, 0.0)]
    specs += [hb.HubbardSpec(rows, cols, boundary, *(float(v) for v in rng.normal(size=3)))
              for rows, cols in SECTOR_LATTICES for boundary in ("open", "periodic")]
    decomps = [hb.build_hubbard_pauli(spec) for spec in specs]
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(block):
        calls.append(len(block))
        return eigvalsh(block)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    pruned = [hb.ground_state(decomp) for decomp in decomps]
    calls.clear()
    hb.ground_state(decomps[0])
    assert calls == [100, 100, 100]  # of the 1x5 chain's 36 blocks

    monkeypatch.setattr(hb, "SKIP_RTOL", math.inf)
    monkeypatch.setattr(hb, "_exceeds", lambda block, bound: False)
    calls.clear()
    full = [hb.ground_state(decomp) for decomp in decomps]
    assert len(calls) == sum((decomp.n // 2 + 1) ** 2 for decomp in decomps)
    degenerate = 0
    for ours, every in zip(pruned, full):
        assert ours.energy.hex() == every.energy.hex() and ours.gap.hex() == every.gap.hex()
        assert ours.sector == every.sector and ours.degeneracy == every.degeneracy
        assert ours.vector.tobytes() == every.vector.tobytes()
        degenerate += ours.degeneracy > 1
    assert degenerate >= 2
