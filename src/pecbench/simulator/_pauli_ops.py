"""Bit-mask forms of Pauli strings on computational basis states.

A Pauli string indexed by base-4 digits (0=I, 1=X, 2=Y, 3=Z; qubit 0 in the
most significant digit) maps |b> to phase(b) |b XOR flip>.  Working with the
(flip, phase) pair keeps conjugations and traces at O(d)/O(d^2) instead of
dense matrix products.  The symplectic (x, z) masks drop the phase: two
strings anticommute exactly when parity(x1 & z2) != parity(z1 & x2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_LETTER_DIGIT = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def pauli_index(string: str) -> int:
    """Base-4 integer index of a Pauli letter string."""
    idx = 0
    for letter in string:
        idx = 4 * idx + _LETTER_DIGIT[letter]
    return idx


@lru_cache(maxsize=4096)
def pauli_perm_phase(index: int, n: int) -> tuple[int, np.ndarray]:
    """(flip mask, length-2^n phase vector) for Pauli index on n qubits."""
    d = 1 << n
    b = np.arange(d)
    phase = np.ones(d, dtype=complex)
    flip = 0
    for k in range(n):
        bitpos = n - 1 - k
        g = (index >> (2 * bitpos)) & 3
        if g == 0:
            continue
        bits = (b >> bitpos) & 1
        if g == 1:  # X
            flip |= 1 << bitpos
        elif g == 2:  # Y: |0> -> i|1>, |1> -> -i|0>
            flip |= 1 << bitpos
            phase = phase * np.where(bits == 0, 1j, -1j)
        else:  # Z
            phase = phase * np.where(bits == 0, 1.0, -1.0)
    phase.setflags(write=False)
    return flip, phase


def pauli_masks(index, n: int):
    """Symplectic (x, z) masks of a Pauli index, or elementwise of an index array.

    Bit k of each mask belongs to qubit n - 1 - k, the bit that the string
    flips (x) or phases (z); x equals the flip of pauli_perm_phase.
    """
    x = z = 0
    for bitpos in range(n):
        g = (index >> (2 * bitpos)) & 3
        x |= (((g + 1) >> 1) & 1) << bitpos  # X or Y
        z |= (g >> 1) << bitpos  # Y or Z
    return x, z


def parity(values):
    """Elementwise parity of the set bits of non-negative 64-bit integers."""
    for shift in (1, 2, 4, 8, 16, 32):
        values = values ^ (values >> shift)
    return values & 1
