"""State vectors over a register of qubits.

Conventions used throughout the package:

* A register of ``n`` qubits has ``2**n`` computational basis states.
* Qubit ``q`` holds the bit ``(index >> q) & 1`` of the basis-state index,
  i.e. qubit 0 is the *least significant* bit of the index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOLERANCE = 1e-9


def basis_bits(index: int, num_qubits: int) -> tuple[int, ...]:
    """Raw |0>/|1> labels of each qubit for a basis-state index."""
    return tuple((index >> q) & 1 for q in range(num_qubits))


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state; treated as immutable after construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude vector length must be a power of two")
        if abs(np.linalg.norm(amps) - 1.0) > NORM_TOLERANCE:
            raise ValueError("state vector is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, raw) -> "StateVector":
        """Build a state from unnormalized amplitudes."""
        raw = np.asarray(raw, dtype=complex)
        norm = np.linalg.norm(raw)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(raw / norm)

    @classmethod
    def basis(cls, num_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(2**num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def uniform(cls, num_qubits: int) -> "StateVector":
        dim = 2**num_qubits
        return cls(np.full(dim, 1 / np.sqrt(dim), dtype=complex))

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2
