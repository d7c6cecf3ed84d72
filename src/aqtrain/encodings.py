"""Encodings of real-valued variables into qubit operators.

Each variable is represented by a diagonal operator built from the binary
projector ``T_q = (I + Z_q)/2``.  Because ``Z|0> = +|0>``, a qubit in
``|0>`` carries projector eigenvalue 1; human-readable bitstrings in this
package therefore report *projector eigenvalues* (1 means satisfied), not
raw ``|0>/|1>`` labels.

Every variable sits on an affine grid ``Grid(bits, offset, low, step)``,
w = low + step * j with j = sum_l 2**l T_(offset+l): qubit offset+l carries
place value 2**l (little-endian within the variable).  The grids in use are
the spin ``Grid(1, q, -1, 2)`` (values {-1, +1}, operator ``Z_q``), the bit
``Grid(1, q, 0, 1)`` and the fraction ``Grid(N, 0, 0, 2**-N)`` on
{0, 1/2**N, ..., 1 - 1/2**N}; on each, ``low + step * j`` is exact in float64.

Qubit order (fixed package-wide): a register of ``n`` qubits has ``2**n``
computational basis states, and qubit ``q`` holds the bit
``(index >> q) & 1`` of the basis-state index, so qubit 0 is the least
significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import pauli
from .pauli import PauliPolynomial


@dataclass(frozen=True)
class Grid:
    """``2**bits`` values ``low + step * j`` on qubits ``offset, offset + 1, ...``."""

    bits: int
    offset: int
    low: float
    step: float

    @property
    def qubits(self) -> range:
        """Qubits used by the grid, in place-value order."""
        return range(self.offset, self.offset + self.bits)


def encode_variable(grid: Grid, total_qubits: int) -> PauliPolynomial:
    """The diagonal operator whose eigenvalue is the decoded variable value."""
    if grid.offset < 0 or grid.offset + grid.bits > total_qubits:
        raise ValueError("encoding uses qubits outside the register")
    poly = PauliPolynomial.identity(total_qubits, grid.low)
    for place, qubit in enumerate(grid.qubits):
        poly = poly + pauli.binary_projector(total_qubits, qubit) * (grid.step * 2**place)
    return poly


def decode_all(grid: Grid, total_qubits: int) -> np.ndarray:
    """Decoded value for every basis index of the register (vectorized)."""
    indices = np.arange(2**total_qubits, dtype=np.int64)
    ones = 2**grid.bits - 1
    # a projector eigenvalue of 1 is a raw bit of 0, so j is the complement
    j = ones - ((indices >> grid.offset) & ones)
    return grid.low + grid.step * j.astype(np.float64)


#: a raw bit of 1 is a projector eigenvalue of 0, and a raw 0 one of 1
_PROJECTOR_DIGITS = str.maketrans("01", "10")


def report_bitstring(index: int, num_qubits: int) -> str:
    """Projector-eigenvalue bitstring of a basis state, qubit 0 first."""
    if num_qubits == 0:
        return ""
    bits = format(index & ((1 << num_qubits) - 1), f"0{num_qubits}b")
    return bits[::-1].translate(_PROJECTOR_DIGITS)


def index_of_report_bitstring(bits: str) -> int:
    """Inverse of :func:`report_bitstring`."""
    index = 0
    for q, c in enumerate(bits):
        if c == "0":
            index |= 1 << q
    return index


class EncodingTable:
    """Ordered map variable name -> grid over one shared register.

    The qubit ranges of the entries must be pairwise disjoint and together
    cover ``[0, total_qubits)``.
    """

    def __init__(self, entries: Iterable[tuple[str, Grid]]):
        self._entries: dict[str, Grid] = {}
        covered: set[int] = set()
        for name, grid in entries:
            if name in self._entries:
                raise ValueError(f"duplicate variable name {name!r}")
            used = set(grid.qubits)
            if used & covered:
                raise ValueError(f"encoding for {name!r} overlaps earlier qubits")
            covered |= used
            self._entries[name] = grid
        if covered != set(range(len(covered))):
            raise ValueError("encodings must cover the register exactly")
        self.total_qubits = len(covered)

    def __getitem__(self, name: str) -> Grid:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def names(self) -> list[str]:
        return list(self._entries)

    def decode_columns(self) -> dict[str, np.ndarray]:
        """Assignment arrays indexed by basis index, one column per variable."""
        return {name: decode_all(grid, self.total_qubits) for name, grid in self._entries.items()}

    def index_of(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Basis index of each row of on-grid ``columns``; the inverse of
        :meth:`decode_columns`."""
        index = 0
        for name, grid in self._entries.items():
            j = np.rint((np.asarray(columns[name]) - grid.low) / grid.step).astype(np.int64)
            index = index | ((2**grid.bits - 1 - j) << grid.offset)
        return index
