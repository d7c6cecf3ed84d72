"""Dense oracle shared by the operator tests: a sum of Pauli strings rendered
by an explicit chain of 2x2 Kronecker products, independent of the package's
Walsh transform and driver factors (qubit 0 = least significant bit, i.e. the
rightmost factor of the chain)."""

import numpy as np

MATRICES = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def dense_reference(num_qubits, terms):
    """The real matrix of ``terms = [(coeff, {qubit: axis}), ...]``."""
    dim = 2**num_qubits
    out = np.zeros((dim, dim))
    for coeff, factors in terms:
        acc = np.ones((1, 1))
        for q in reversed(range(num_qubits)):
            acc = np.kron(acc, MATRICES[factors.get(q, "I")])
        out += coeff * acc
    return out
