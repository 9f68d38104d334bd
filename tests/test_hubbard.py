import math

import numpy as np
import pytest

from pecbench import hubbard as hb
from pecbench.errors import CapacityError, ValidationError

from oracles import (
    fermionic_hubbard_matrix,
    lattice_edges_reference,
    pauli_sum_matrix_reference,
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
            ours = hb.reconstruct_matrix(hb.build_hubbard_pauli(spec))
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
    h = hb.reconstruct_matrix(decomp)
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
    h = hb.reconstruct_matrix(decomp)
    e0, v = hb.ground_state(decomp)
    assert e0 == pytest.approx(hb.exact_ground_energy(spec), abs=1e-12)
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
        hb.PauliDecomposition.from_strings(2, {"XYZ": 1.0})
    with pytest.raises(ValidationError):
        hb.PauliDecomposition.from_strings(2, {"AB": 1.0})
    with pytest.raises(ValidationError):
        hb.PauliDecomposition.from_strings(2, {"II": 1.0})
    # the same checks on the masks themselves
    with pytest.raises(ValidationError, match="out of range"):
        hb.PauliDecomposition(n=2, terms={(0b100, 0): 1.0})
    with pytest.raises(ValidationError, match="identity"):
        hb.PauliDecomposition(n=2, terms={(0, 0): 1.0})
    with pytest.raises(ValidationError, match="non-finite"):
        hb.PauliDecomposition(n=2, terms={(1, 0): math.nan})
    # a single Y has an imaginary matrix, which the real reconstruction refuses
    with pytest.raises(ValidationError, match="odd number of Y"):
        hb.reconstruct_matrix(hb.PauliDecomposition.from_strings(2, {"YZ": 1.0}))


def test_dense_capacity_cap():
    big = hb.HubbardSpec(8, 8, "periodic", 1.0, 8.0, 3.75)
    hb.build_hubbard_pauli(big)  # symbolic build is fine at any size
    with pytest.raises(CapacityError):
        hb.exact_ground_energy(big)
    with pytest.raises(CapacityError):
        hb.reconstruct_matrix(hb.PauliDecomposition.from_strings(13, {"Z" * 13: 1.0}))


@pytest.mark.parametrize("rows, cols, boundary", [
    (1, 2, "open"), (2, 2, "open"), (1, 3, "open"),
    (1, 3, "periodic"),  # the wrap edge threads a Z string
])
def test_reconstruct_matches_kronecker_sum_exactly(rows, cols, boundary):
    rng = np.random.default_rng(rows * 10 + cols)
    for _ in range(3):
        t, U, mu = (float(v) for v in rng.normal(size=3))
        decomp = hb.build_hubbard_pauli(hb.HubbardSpec(rows, cols, boundary, t, U, mu))
        ours = hb.reconstruct_matrix(decomp)
        reference = pauli_sum_matrix_reference(decomp.n, _display(decomp),
                                               decomp.identity_coefficient)
        assert ours.dtype == np.float64
        assert not np.any(reference.imag)
        assert np.array_equal(ours, reference.real)


def test_display_strings_round_trip():
    decomp = hb.build_hubbard_pauli(hb.HubbardSpec(2, 3, "periodic", 0.3, 1.7, -0.9))
    again = hb.PauliDecomposition.from_strings(decomp.n, _display(decomp),
                                               decomp.identity_coefficient)
    assert again == decomp
    assert list(again.terms) == list(decomp.terms)


def test_large_periodic_build():
    spec = hb.HubbardSpec(40, 40, "periodic", 1.0, 8.0, 3.75)
    decomp = hb.build_hubbard_pauli(spec)
    assert decomp.n == 3200
    # 3200 edges x 2 spins x 2 hops, 1600 ZZ and 3200 single Z
    assert len(decomp.terms) == 17_600
    assert hb.norm2_squared(decomp) == pytest.approx(
        hb.norm2_squared_closed_form(spec), rel=1e-12)
