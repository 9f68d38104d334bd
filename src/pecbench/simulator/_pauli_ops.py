"""Base-4 indices of Pauli operators and their bit-mask forms.

The shot draws name a Pauli by its base-4 index (0=I, 1=X, 2=Y, 3=Z; qubit
0 in the most significant digit), which is also the sorted order of display
strings.  The symplectic (x, z) masks of hubbard's terms drop the phase:
two Paulis anticommute exactly when parity(x1 & z2) != parity(z1 & x2).
"""

from __future__ import annotations


def pauli_masks(index, n: int):
    """Symplectic (x, z) masks of a Pauli index, or elementwise of an index array.

    Bit k of each mask belongs to qubit n - 1 - k, the bit that the Pauli
    flips (x) or phases (z).
    """
    x = z = 0
    for bitpos in range(n):
        g = (index >> (2 * bitpos)) & 3
        x |= (((g + 1) >> 1) & 1) << bitpos  # X or Y
        z |= (g >> 1) << bitpos  # Y or Z
    return x, z


def pauli_index(x: int, z: int) -> int:
    """Base-4 index of the Pauli with masks (x, z); inverse of pauli_masks."""
    index = 0
    for bitpos in range((x | z).bit_length()):
        z_bit = (z >> bitpos) & 1
        digit = (z_bit << 1) | (((x >> bitpos) & 1) ^ z_bit)
        index |= digit << (2 * bitpos)
    return index

