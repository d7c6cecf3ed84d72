"""Algebra of real-weighted sums of Z-strings on a fixed register.

A *Z-string* is the tensor product of ``Z`` on some qubits and ``I`` on the
rest, named by its *mask*: bit ``q`` set means ``Z`` on qubit ``q``.  A
*Pauli polynomial* is a real sum of Z-strings over a register of
``num_qubits`` qubits.  Every operator the compiler builds is one: the
encodings are weighted sums of projectors ``(I + Z)/2``, and a real function
of bits has exactly one such expansion, its Walsh expansion (Hadfield, ACM
Trans. Quantum Comput. 2, 18, 2021).  Z-strings commute and square to the
identity, so the product of two is the string on the XOR of their masks,
weighted by the product of their coefficients.

Sign conventions (fixed package-wide):

* ``Z|0> = +|0>`` and ``Z|1> = -|1>``, so the projector ``(I + Z)/2``
  has eigenvalue 1 on ``|0>``.
* In matrices, qubit 0 labels the least significant bit of the basis
  index (see :mod:`aqtrain.encodings`).
"""

from __future__ import annotations

import numpy as np

#: coefficients with magnitude below this are dropped during canonicalization
DROP_TOLERANCE = 1e-12

#: hard cap on dense-matrix rendering, and on the matrix method's momentum
#: register; 2**12 x 2**12 complex = 256 MiB
MATRIX_QUBIT_CAP = 12


class PauliPolynomial:
    """Canonical sum of Z-strings over a fixed register.

    Terms are kept in a dict from Z mask to real coefficient; terms whose
    coefficient magnitude drops below :data:`DROP_TOLERANCE` are removed.
    """

    __slots__ = ("num_qubits", "_terms")

    def __init__(self, num_qubits: int, terms=None):
        if num_qubits < 1:
            raise ValueError("register needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._terms: dict[int, float] = {}
        for mask, coeff in (terms or {}).items():
            if not 0 <= mask < 1 << self.num_qubits:
                raise ValueError("term acts outside the register")
            self._terms[int(mask)] = float(coeff)
        self._prune()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliPolynomial":
        return cls(num_qubits)

    @classmethod
    def identity(cls, num_qubits: int, coefficient: float = 1.0) -> "PauliPolynomial":
        return cls(num_qubits, {0: coefficient})

    @classmethod
    def from_diagonal(cls, values) -> "PauliPolynomial":
        """Z-string expansion of a real diagonal; the inverse of :meth:`diagonal`.

        The Z-string on ``mask`` gets the Walsh-Hadamard transform of
        ``values`` at ``mask``, divided by ``len(values)``.
        """
        values = np.asarray(values, dtype=float)
        dim = values.size
        if values.ndim != 1 or dim < 2 or dim & (dim - 1):
            raise ValueError("diagonal must be a vector whose length is a power of two")
        coeffs = _walsh_hadamard(values) / dim
        poly = cls(dim.bit_length() - 1)
        poly._terms = {
            m: float(coeffs[m]) for m in np.flatnonzero(np.abs(coeffs) >= DROP_TOLERANCE).tolist()
        }
        return poly

    def _prune(self):
        dead = [k for k, v in self._terms.items() if abs(v) < DROP_TOLERANCE]
        for k in dead:
            del self._terms[k]

    # -- views ----------------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, mask: int) -> float:
        return self._terms.get(mask, 0.0)

    # -- arithmetic -----------------------------------------------------------

    def _require_same_register(self, other: "PauliPolynomial"):
        if self.num_qubits != other.num_qubits:
            raise ValueError("polynomials act on different registers")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = PauliPolynomial.identity(self.num_qubits, other)
        if not isinstance(other, PauliPolynomial):
            return NotImplemented
        self._require_same_register(other)
        out = PauliPolynomial(self.num_qubits)
        out._terms = dict(self._terms)
        for mask, coeff in other._terms.items():
            out._terms[mask] = out._terms.get(mask, 0.0) + coeff
        out._prune()
        return out

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = PauliPolynomial.identity(self.num_qubits, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = PauliPolynomial(self.num_qubits)
            out._terms = {m: c * other for m, c in self._terms.items()}
            out._prune()
            return out
        if not isinstance(other, PauliPolynomial):
            return NotImplemented
        self._require_same_register(other)
        out = PauliPolynomial(self.num_qubits)
        terms = out._terms
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                terms[ma ^ mb] = terms.get(ma ^ mb, 0.0) + ca * cb
        out._prune()
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def allclose(self, other: "PauliPolynomial", tol: float = 1e-9) -> bool:
        if self.num_qubits != other.num_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol for k in keys
        )

    # -- numeric rendering ------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense real matrix of the polynomial (qubit 0 = least significant bit)."""
        if self.num_qubits > MATRIX_QUBIT_CAP:
            raise ValueError(
                f"dense matrix for {self.num_qubits} qubits exceeds the {MATRIX_QUBIT_CAP}-qubit cap"
            )
        return np.diag(self.diagonal())

    def diagonal(self) -> np.ndarray:
        """The polynomial's diagonal as a real vector.

        Each Z-string contributes ``coeff * (-1)**parity(index & mask)``:
        the Walsh-Hadamard transform of the coefficients indexed by mask.
        """
        coeffs = np.zeros(2**self.num_qubits)
        coeffs[list(self._terms)] = list(self._terms.values())
        return _walsh_hadamard(coeffs)


# -- Kronecker factors of the register ------------------------------------------

#: widest Kronecker factor of the Walsh-Hadamard transform and of the
#: engine's transverse driver, in qubits
_FACTOR_QUBITS = 6


def _factor_widths(num_qubits: int) -> tuple:
    """Widths in qubits, most significant first, of the fewest Kronecker
    factors of a register that are at most :data:`_FACTOR_QUBITS` wide; the
    widths differ by at most one."""
    count = -(-num_qubits // _FACTOR_QUBITS)
    base, extra = divmod(num_qubits, count)
    return tuple(base + (j < extra) for j in range(count))


def _factor_views(v: np.ndarray, sizes) -> list[np.ndarray]:
    """``v`` reshaped for each factor's product, one view a factor of
    ``sizes`` (most significant first, acting on the last axis of ``v``):
    ``(-1, size)`` for the last factor, ``(-1, size, trailing)`` for the
    others.  Leading axes of ``v`` fold into the first axis."""
    views, trailing = [], 1
    for size in reversed(sizes):
        views.append(v.reshape(-1, size) if trailing == 1 else v.reshape(-1, size, trailing))
        trailing *= size
    return views[::-1]


def _factor_product(matrix: np.ndarray, view: np.ndarray, out: np.ndarray):
    """A symmetric factor ``matrix`` applied along the factor axis of a view
    of :func:`_factor_views`, into the same view of ``out``: one matrix
    product."""
    if view.ndim == 2:
        np.matmul(view, matrix, out=out)
    else:
        np.matmul(matrix, view, out=out)


def _sylvester(qubits: int) -> np.ndarray:
    """The ``2**qubits`` Sylvester matrix ``(-1)**parity(i & k)``."""
    i = np.arange(2**qubits)
    # bitwise_count returns uint8, so pick the sign rather than form 1 - 2 * count
    return np.where(np.bitwise_count(np.bitwise_and.outer(i, i)) & 1, -1.0, 1.0)


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised transform ``out[k] = sum_i (-1)**parity(i & k) * values[i]``
    of a real vector whose length is a power of two.

    ``H^{(x)n} = H^{(x)n_1} (x) ... (x) H^{(x)n_k}``: each factor is a small
    Sylvester matrix, applied by one matrix product along its axis of the
    reshaped vector (Fino & Algazi, IEEE Trans. Comput. C-25, 1976).  No
    ``2**n`` square matrix is formed.
    """
    # the vector ping-pongs between two buffers, one product a factor
    buffers = [np.array(values, dtype=float)]
    buffers.append(np.empty_like(buffers[0]))
    widths = _factor_widths(buffers[0].size.bit_length() - 1)
    views = [_factor_views(b, [2**w for w in widths]) for b in buffers]
    held = 0
    for j, width in enumerate(widths):
        _factor_product(_sylvester(width), views[held][j], views[1 - held][j])
        held = 1 - held
    return buffers[held]


# -- convenience constructors --------------------------------------------------


def pauli_z(num_qubits: int, qubit: int) -> PauliPolynomial:
    return PauliPolynomial(num_qubits, {1 << qubit: 1.0})


def binary_projector(num_qubits: int, qubit: int) -> PauliPolynomial:
    """Projector ``(I + Z_qubit) / 2`` onto ``|0>`` of the qubit (eigenvalue 1
    on ``|0>``)."""
    return PauliPolynomial(num_qubits, {0: 0.5, 1 << qubit: 0.5})
