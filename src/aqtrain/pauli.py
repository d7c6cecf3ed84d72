"""Algebra of complex-weighted sums of Pauli strings on a fixed register.

A *Pauli string* is a tensor product of single-qubit operators drawn from
``{I, X, Y, Z}`` together with a complex coefficient; a *Pauli polynomial*
is a sum of such strings over a register of ``num_qubits`` qubits.

Sign conventions (fixed package-wide):

* ``Z|0> = +|0>`` and ``Z|1> = -|1>``, so the projector ``(I + Z)/2``
  has eigenvalue 1 on ``|0>``.
* In matrices, qubit 0 labels the least significant bit of the basis
  index (see :mod:`aqtrain.encodings`).
"""

from __future__ import annotations

import functools
from typing import Mapping

import numpy as np

AXES = "IXYZ"

#: coefficients with magnitude below this are dropped during canonicalization
DROP_TOLERANCE = 1e-12

#: hard cap on dense-matrix rendering, and on the matrix method's momentum
#: register; 2**12 x 2**12 complex = 256 MiB
MATRIX_QUBIT_CAP = 12

_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-qubit products: (left, right) -> (axis, phase)
_SINGLE_PRODUCT = {}
for _a in AXES:
    _SINGLE_PRODUCT[("I", _a)] = (_a, 1)
    _SINGLE_PRODUCT[(_a, "I")] = (_a, 1)
    _SINGLE_PRODUCT[(_a, _a)] = ("I", 1)
for _a, _b, _c in (("X", "Y", "Z"), ("Y", "Z", "X"), ("Z", "X", "Y")):
    _SINGLE_PRODUCT[(_a, _b)] = (_c, 1j)
    _SINGLE_PRODUCT[(_b, _a)] = (_c, -1j)


def _canonical_factors(factors) -> tuple[tuple[int, str], ...]:
    """Sort factor list by qubit, validate axes, drop identities."""
    if isinstance(factors, Mapping):
        factors = factors.items()
    cleaned = []
    seen = set()
    for qubit, axis in factors:
        qubit = int(qubit)
        if axis == "I":
            continue
        if axis not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli axis {axis!r}")
        if qubit < 0:
            raise ValueError("qubit indices must be non-negative")
        if qubit in seen:
            raise ValueError(f"duplicate qubit {qubit} in Pauli string")
        seen.add(qubit)
        cleaned.append((qubit, axis))
    return tuple(sorted(cleaned))


class PauliString:
    """A single Pauli string ``coefficient * P_{q1} P_{q2} ...``.

    ``factors`` maps qubit index to one of ``"X"``, ``"Y"``, ``"Z"``;
    identity factors are left implicit.
    """

    __slots__ = ("coefficient", "factors")

    def __init__(self, coefficient: complex, factors=()):
        self.coefficient = complex(coefficient)
        self.factors = _canonical_factors(factors)

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        left = dict(self.factors)
        coeff = self.coefficient * other.coefficient
        for qubit, axis in other.factors:
            if qubit in left:
                new_axis, phase = _SINGLE_PRODUCT[(left[qubit], axis)]
                coeff *= phase
                if new_axis == "I":
                    del left[qubit]
                else:
                    left[qubit] = new_axis
            else:
                left[qubit] = axis
        return PauliString(coeff, left)

    def max_qubit(self) -> int:
        return self.factors[-1][0] if self.factors else -1

    def to_matrix(self, num_qubits: int) -> np.ndarray:
        """Dense matrix on ``num_qubits`` qubits (qubit 0 = least significant)."""
        if self.max_qubit() >= num_qubits:
            raise ValueError("string acts outside the register")
        _check_matrix_cap(num_qubits)
        axes = {q: a for q, a in self.factors}
        out = np.array([[self.coefficient]])
        # qubit 0 is least significant, so it sits rightmost in the kron chain
        for q in range(num_qubits - 1, -1, -1):
            out = np.kron(out, _MATRICES[axes.get(q, "I")])
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PauliString)
            and self.coefficient == other.coefficient
            and self.factors == other.factors
        )

    def __repr__(self):
        if not self.factors:
            return f"PauliString({self.coefficient})"
        ops = "*".join(f"{a}{q}" for q, a in self.factors)
        return f"PauliString({self.coefficient}, {ops})"


def _check_matrix_cap(num_qubits: int):
    if num_qubits > MATRIX_QUBIT_CAP:
        raise ValueError(
            f"dense matrix for {num_qubits} qubits exceeds the {MATRIX_QUBIT_CAP}-qubit cap"
        )


class PauliPolynomial:
    """Canonical sum of Pauli strings over a fixed register.

    Terms are kept in a dict keyed by the canonical factor tuple; terms
    whose coefficient magnitude drops below :data:`DROP_TOLERANCE` are
    removed.  Iteration order is lexicographic in the
    ``(qubit, axis)`` pattern.
    """

    __slots__ = ("num_qubits", "_terms")

    def __init__(self, num_qubits: int, terms=None):
        if num_qubits < 1:
            raise ValueError("register needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._terms: dict[tuple[tuple[int, str], ...], complex] = {}
        if terms is None:
            return
        if isinstance(terms, Mapping):
            items = ((k, v) for k, v in terms.items())
            for pattern, coeff in items:
                self._accumulate(_canonical_factors(pattern), complex(coeff))
        else:
            for term in terms:
                self._accumulate_string(term)
        self._prune()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, num_qubits: int) -> "PauliPolynomial":
        return cls(num_qubits)

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliPolynomial":
        poly = cls(num_qubits)
        poly._accumulate((), complex(coefficient))
        poly._prune()
        return poly

    @classmethod
    def from_diagonal(cls, values) -> "PauliPolynomial":
        """Z-string expansion of a real diagonal; the inverse of :meth:`diagonal`.

        The Z-string on ``zmask`` gets the Walsh-Hadamard transform of
        ``values`` at ``zmask``, divided by ``len(values)``.  Those patterns
        are canonical by construction, so the terms are filled in directly.
        """
        values = np.asarray(values, dtype=float)
        dim = values.size
        if values.ndim != 1 or dim < 2 or dim & (dim - 1):
            raise ValueError("diagonal must be a vector whose length is a power of two")
        n = dim.bit_length() - 1
        coeffs = _walsh_hadamard(values) / dim
        poly = cls(n)
        poly._terms = {
            tuple((q, "Z") for q in range(n) if m >> q & 1): complex(coeffs[m])
            for m in np.flatnonzero(np.abs(coeffs) >= DROP_TOLERANCE).tolist()
        }
        return poly

    def _accumulate_string(self, term: PauliString):
        if term.max_qubit() >= self.num_qubits:
            raise ValueError("term acts outside the register")
        self._accumulate(term.factors, term.coefficient)

    def _accumulate(self, pattern, coeff: complex):
        self._terms[pattern] = self._terms.get(pattern, 0.0) + coeff

    def _prune(self):
        dead = [k for k, v in self._terms.items() if abs(v) < DROP_TOLERANCE]
        for k in dead:
            del self._terms[k]

    # -- views ----------------------------------------------------------------

    def terms(self) -> list[PauliString]:
        """Terms as PauliStrings in canonical (lexicographic) order."""
        return [PauliString(c, p) for p, c in sorted(self._terms.items())]

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, pattern) -> complex:
        return self._terms.get(_canonical_factors(pattern), 0.0)

    def is_diagonal(self) -> bool:
        return all(all(a == "Z" for _, a in p) for p in self._terms)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for c in self._terms.values())

    # -- arithmetic -----------------------------------------------------------

    def _require_same_register(self, other: "PauliPolynomial"):
        if self.num_qubits != other.num_qubits:
            raise ValueError("polynomials act on different registers")

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PauliPolynomial.identity(self.num_qubits, other)
        if not isinstance(other, PauliPolynomial):
            return NotImplemented
        self._require_same_register(other)
        out = PauliPolynomial(self.num_qubits)
        out._terms = dict(self._terms)
        for pattern, coeff in other._terms.items():
            out._accumulate(pattern, coeff)
        out._prune()
        return out

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = PauliPolynomial.identity(self.num_qubits, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            out = PauliPolynomial(self.num_qubits)
            out._terms = {p: c * other for p, c in self._terms.items()}
            out._prune()
            return out
        if not isinstance(other, PauliPolynomial):
            return NotImplemented
        self._require_same_register(other)
        out = PauliPolynomial(self.num_qubits)
        for pa, ca in self._terms.items():
            left = PauliString(ca, pa)
            for pb, cb in other._terms.items():
                prod = left * PauliString(cb, pb)
                out._accumulate(prod.factors, prod.coefficient)
        out._prune()
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, PauliPolynomial):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self._terms == other._terms

    def allclose(self, other: "PauliPolynomial", tol: float = 1e-9) -> bool:
        if self.num_qubits != other.num_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol for k in keys
        )

    def __repr__(self):
        if not self._terms:
            return f"PauliPolynomial({self.num_qubits}, 0)"
        parts = []
        for pattern, coeff in sorted(self._terms.items()):
            ops = "*".join(f"{a}{q}" for q, a in pattern) or "1"
            parts.append(f"({coeff})*{ops}")
        return f"PauliPolynomial({self.num_qubits}, {' + '.join(parts)})"

    # -- numeric rendering ------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense matrix of the polynomial (qubit 0 = least significant bit)."""
        _check_matrix_cap(self.num_qubits)
        dim = 2**self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for pattern, coeff in self._terms.items():
            out += PauliString(coeff, pattern).to_matrix(self.num_qubits)
        return out

    def diagonal(self) -> np.ndarray:
        """Diagonal of an I/Z-only polynomial as a real vector.

        Each Z-string contributes ``coeff * (-1)**parity(index & zmask)``:
        the Walsh-Hadamard transform of the coefficients indexed by Z-mask.
        """
        coeffs = np.zeros(2**self.num_qubits, dtype=complex)
        for pattern, coeff in self._terms.items():
            mask = 0
            for qubit, axis in pattern:
                if axis != "Z":
                    raise ValueError("polynomial has X/Y factors and is not diagonal")
                mask |= 1 << qubit
            coeffs[mask] = coeff
        diag = _walsh_hadamard(coeffs)
        residual = np.max(np.abs(diag.imag))
        if residual > 1e-9:
            raise ValueError("diagonal polynomial has non-real spectrum")
        return diag.real


#: widest Kronecker factor of the Walsh-Hadamard transform, in qubits
_FACTOR_QUBITS = 6


def _sylvester(qubits: int, dtype) -> np.ndarray:
    """The read-only ``2**qubits`` Sylvester matrix ``(-1)**parity(i & k)``."""
    out = np.ones((1, 1), dtype=dtype)
    for _ in range(qubits):
        out = np.block([[out, out], [out, -out]])
    out.setflags(write=False)
    return out


@functools.cache
def _kronecker_factors(size: int, dtype: np.dtype) -> tuple:
    """``(trailing size, Sylvester matrix)`` of each factor of the ``size``-point
    transform, most significant first.

    There are two factors from 2 qubits up, and more once one would be wider
    than :data:`_FACTOR_QUBITS`; their widths differ by at most one.
    """
    num_qubits = size.bit_length() - 1
    count = max(min(num_qubits, 2), -(-num_qubits // _FACTOR_QUBITS))
    base, extra = divmod(num_qubits, count)
    dtype = np.result_type(dtype, float)
    factors = []
    for j in range(count):
        qubits = base + (j < extra)
        size >>= qubits
        factors.append((size, _sylvester(qubits, dtype)))
    return tuple(factors)


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalised transform ``out[k] = sum_i (-1)**parity(i & k) * values[i]``
    along the last axis.

    ``H^{(x)n} = H^{(x)n_1} (x) ... (x) H^{(x)n_k}``: each factor is a small
    Sylvester matrix, applied by ``matmul`` along its axis of the reshaped
    vector (Fino & Algazi, IEEE Trans. Comput. C-25, 1976).  No ``2**n``
    square matrix is formed.  Leading axes are a batch: the rows of the real
    ``(2, 2**n)`` pair of a state transform in one call, 1.6-2.5 times faster
    than the complex state itself.
    """
    out = np.asarray(values)
    shape, size = out.shape, out.shape[-1]
    for trailing, sylvester in _kronecker_factors(size, out.dtype):
        if trailing == 1:
            out = out.reshape(-1, sylvester.shape[0]) @ sylvester
        else:
            out = sylvester @ out.reshape(-1, sylvester.shape[0], trailing)
    return out.reshape(shape)


# -- convenience constructors --------------------------------------------------


def single_pauli(num_qubits: int, qubit: int, axis: str, coefficient: complex = 1.0) -> PauliPolynomial:
    return PauliPolynomial(num_qubits, [PauliString(coefficient, [(qubit, axis)])])


def pauli_x(num_qubits: int, qubit: int) -> PauliPolynomial:
    return single_pauli(num_qubits, qubit, "X")


def pauli_z(num_qubits: int, qubit: int) -> PauliPolynomial:
    return single_pauli(num_qubits, qubit, "Z")


def binary_projector(num_qubits: int, qubit: int, sign: int = +1) -> PauliPolynomial:
    """Projector ``(I + sign*Z_qubit) / 2``.

    With ``sign=+1`` this projects onto ``|0>`` (eigenvalue 1 on ``|0>``);
    with ``sign=-1`` onto ``|1>``.  The two projectors are idempotent,
    mutually annihilating, and sum to the identity.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    half = PauliPolynomial.identity(num_qubits, 0.5)
    return half + single_pauli(num_qubits, qubit, "Z", 0.5 * sign)
