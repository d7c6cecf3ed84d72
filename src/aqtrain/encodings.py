"""Encodings of real-valued variables into qubit operators.

Each variable is represented by a diagonal operator built from the binary
projector ``T_q = (I + Z_q)/2``.  Because ``Z|0> = +|0>``, a qubit in
``|0>`` carries projector eigenvalue 1; human-readable bitstrings in this
package therefore report *projector eigenvalues* (1 means satisfied), not
raw ``|0>/|1>`` labels.

Variants
--------
``FractionalBinary(num_qubits, qubit_offset)``
    w = 2**-N * sum_l 2**l T_(offset+l); values on the grid
    {0, 1/2**N, ..., 1 - 1/2**N}.  Qubit offset+l carries place value
    2**l (little-endian within the variable).
``SpinPM1(qubit)``
    w = Z_qubit with values {-1, +1}.
``Binary01(qubit)``
    w = T_qubit with values {0, 1}.

Qubit order (fixed package-wide): a register of ``n`` qubits has ``2**n``
computational basis states, and qubit ``q`` holds the bit
``(index >> q) & 1`` of the basis-state index, so qubit 0 is the least
significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from . import pauli
from .pauli import PauliPolynomial


def basis_bits(index: int, num_qubits: int) -> tuple[int, ...]:
    """Raw |0>/|1> labels of each qubit for a basis-state index."""
    return tuple((index >> q) & 1 for q in range(num_qubits))


@dataclass(frozen=True)
class FractionalBinary:
    num_qubits: int
    qubit_offset: int = 0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("FractionalBinary needs at least one qubit")


@dataclass(frozen=True)
class SpinPM1:
    qubit: int


@dataclass(frozen=True)
class Binary01:
    qubit: int


VariableEncoding = Union[FractionalBinary, SpinPM1, Binary01]


def qubits_of(encoding: VariableEncoding) -> tuple[int, ...]:
    """Qubits used by the encoding, in place-value order."""
    if isinstance(encoding, FractionalBinary):
        return tuple(range(encoding.qubit_offset, encoding.qubit_offset + encoding.num_qubits))
    return (encoding.qubit,)


def encode_variable(encoding: VariableEncoding, total_qubits: int) -> PauliPolynomial:
    """The diagonal operator whose eigenvalue is the decoded variable value."""
    for q in qubits_of(encoding):
        if not 0 <= q < total_qubits:
            raise ValueError("encoding uses qubits outside the register")
    if isinstance(encoding, FractionalBinary):
        scale = 2.0**-encoding.num_qubits
        poly = PauliPolynomial.zero(total_qubits)
        for place, qubit in enumerate(qubits_of(encoding)):
            poly = poly + pauli.binary_projector(total_qubits, qubit) * (scale * 2**place)
        return poly
    if isinstance(encoding, SpinPM1):
        return pauli.pauli_z(total_qubits, encoding.qubit)
    if isinstance(encoding, Binary01):
        return pauli.binary_projector(total_qubits, encoding.qubit)
    raise TypeError(f"unknown encoding {encoding!r}")


def decode_all(encoding: VariableEncoding, total_qubits: int) -> np.ndarray:
    """Decoded value for every basis index of the register (vectorized)."""
    indices = np.arange(2**total_qubits, dtype=np.int64)
    if isinstance(encoding, FractionalBinary):
        values = np.zeros(indices.shape)
        for place, qubit in enumerate(qubits_of(encoding)):
            values += (1 - ((indices >> qubit) & 1)) * 2.0**place
        return values / 2.0**encoding.num_qubits
    if isinstance(encoding, SpinPM1):
        return 1.0 - 2.0 * ((indices >> encoding.qubit) & 1)
    if isinstance(encoding, Binary01):
        return 1.0 - ((indices >> encoding.qubit) & 1)
    raise TypeError(f"unknown encoding {encoding!r}")


def report_bitstring(index: int, num_qubits: int) -> str:
    """Projector-eigenvalue bitstring of a basis state, qubit 0 first."""
    return "".join("1" if b == 0 else "0" for b in basis_bits(index, num_qubits))


def index_of_report_bitstring(bits: str) -> int:
    """Inverse of :func:`report_bitstring`."""
    index = 0
    for q, c in enumerate(bits):
        if c == "0":
            index |= 1 << q
    return index


class EncodingTable:
    """Ordered map variable name -> encoding over one shared register.

    The qubit ranges of the entries must be pairwise disjoint and together
    cover ``[0, total_qubits)``.
    """

    def __init__(self, entries: Iterable[tuple[str, VariableEncoding]], total_qubits: int):
        self._entries: dict[str, VariableEncoding] = {}
        covered: set[int] = set()
        for name, encoding in entries:
            if name in self._entries:
                raise ValueError(f"duplicate variable name {name!r}")
            used = set(qubits_of(encoding))
            if used & covered:
                raise ValueError(f"encoding for {name!r} overlaps earlier qubits")
            covered |= used
            self._entries[name] = encoding
        if covered != set(range(total_qubits)):
            raise ValueError("encodings must cover the register exactly")
        self.total_qubits = total_qubits

    @classmethod
    def uniform(cls, names: Iterable[str], kind: str) -> "EncodingTable":
        """One single-qubit encoding per name, qubits assigned in order."""
        maker = {"spin-pm1": SpinPM1, "binary01": Binary01}[kind]
        names = list(names)
        return cls([(n, maker(q)) for q, n in enumerate(names)], len(names))

    @classmethod
    def single_fractional(cls, name: str, num_qubits: int) -> "EncodingTable":
        return cls([(name, FractionalBinary(num_qubits, 0))], num_qubits)

    def __getitem__(self, name: str) -> VariableEncoding:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    @property
    def names(self) -> list[str]:
        return list(self._entries)

    def decode_columns(self) -> dict[str, np.ndarray]:
        """Assignment arrays indexed by basis index, one column per variable."""
        return {name: decode_all(enc, self.total_qubits) for name, enc in self._entries.items()}
