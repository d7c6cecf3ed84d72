"""Tests for the Pauli-string algebra.

Expected matrices come from an independent dense reference built with
explicit 2x2 matrices and Kronecker products (qubit 0 = least significant
bit, i.e. rightmost factor in the kron chain).
"""

import numpy as np
import pytest

from aqtrain.engine import basis_state
from aqtrain.pauli import (
    DROP_TOLERANCE,
    PauliPolynomial,
    PauliString,
    _kronecker_factors,
    _walsh_hadamard,
    binary_projector,
    pauli_x,
    pauli_z,
    single_pauli,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MAT = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_reference(num_qubits, terms):
    """Independent dense rendering: terms = [(coeff, {qubit: axis}), ...]."""
    dim = 2**num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, factors in terms:
        acc = np.array([[1.0]], dtype=complex)
        for q in reversed(range(num_qubits)):
            acc = np.kron(acc, MAT[factors.get(q, "I")])
        out += coeff * acc
    return out


def random_polynomial(rng, num_qubits, num_terms):
    terms = []
    for _ in range(num_terms):
        factors = {}
        for q in range(num_qubits):
            axis = rng.choice(["I", "X", "Y", "Z"])
            if axis != "I":
                factors[q] = axis
        coeff = complex(rng.normal(), rng.normal())
        terms.append((coeff, factors))
    poly = PauliPolynomial(
        num_qubits, [PauliString(c, f) for c, f in terms]
    )
    return poly, terms


class TestPauliString:
    @pytest.mark.parametrize(
        "left,right,axis,phase",
        [
            ("X", "Y", "Z", 1j),
            ("Y", "X", "Z", -1j),
            ("Y", "Z", "X", 1j),
            ("Z", "Y", "X", -1j),
            ("Z", "X", "Y", 1j),
            ("X", "Z", "Y", -1j),
            ("X", "X", "I", 1),
            ("Y", "Y", "I", 1),
            ("Z", "Z", "I", 1),
        ],
    )
    def test_single_qubit_products(self, left, right, axis, phase):
        product = PauliString(1.0, {0: left}) * PauliString(1.0, {0: right})
        expected = phase * MAT[axis]
        assert np.allclose(product.to_matrix(1), expected)
        if axis == "I":
            assert product.factors == ()
        else:
            assert product.factors == ((0, axis),)
        assert product.coefficient == pytest.approx(phase)

    def test_x_times_z_is_minus_i_y(self):
        product = PauliString(1.0, {0: "X"}) * PauliString(1.0, {0: "Z"})
        assert product.coefficient == pytest.approx(-1j)
        assert product.factors == ((0, "Y"),)

    def test_two_qubit_product_example(self):
        # (2 X0 Z1) (3 Z0 Z1) = -6i Y0, checked against the 4-dim matrix oracle
        left = PauliString(2.0, {0: "X", 1: "Z"})
        right = PauliString(3.0, {0: "Z", 1: "Z"})
        product = left * right
        assert product.coefficient == pytest.approx(-6j)
        assert product.factors == ((0, "Y"),)
        oracle = dense_reference(2, [(2.0, {0: "X", 1: "Z"})]) @ dense_reference(
            2, [(3.0, {0: "Z", 1: "Z"})]
        )
        assert np.allclose(oracle, dense_reference(2, [(-6j, {0: "Y"})]))

    def test_random_products_match_matrix_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, ta = random_polynomial(rng, 3, 1)
            b, tb = random_polynomial(rng, 3, 1)
            product = a * b
            oracle = dense_reference(3, ta) @ dense_reference(3, tb)
            assert np.allclose(product.to_matrix(), oracle, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="axis"):
            PauliString(1.0, {0: "Q"})
        with pytest.raises(ValueError, match="duplicate"):
            PauliString(1.0, [(0, "X"), (0, "Z")])


class TestPauliPolynomial:
    def test_little_endian_matrix_convention(self):
        # qubit 0 is the least significant bit: Z0 alternates along the diagonal
        assert np.allclose(pauli_z(2, 0).to_matrix(), np.diag([1, -1, 1, -1]))
        assert np.allclose(pauli_z(2, 1).to_matrix(), np.diag([1, 1, -1, -1]))
        assert np.allclose(pauli_x(2, 1).to_matrix(), np.kron(X, I2))

    def test_addition_merges_and_cancels(self):
        p = pauli_x(2, 0) + pauli_z(2, 1)
        q = p - pauli_x(2, 0)
        assert q.num_terms == 1
        zero = q - pauli_z(2, 1)
        assert zero.num_terms == 0
        assert np.allclose(zero.to_matrix(), 0)

    def test_near_zero_coefficients_dropped(self):
        p = pauli_x(1, 0) + (DROP_TOLERANCE / 10) * pauli_z(1, 0)
        assert p.num_terms == 1

    def test_addition_requires_same_register(self):
        with pytest.raises(ValueError, match="registers"):
            pauli_x(2, 0) + pauli_x(3, 0)

    def test_polynomial_product_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, ta = random_polynomial(rng, 3, 4)
            b, tb = random_polynomial(rng, 3, 3)
            assert np.allclose(
                (a * b).to_matrix(),
                dense_reference(3, ta) @ dense_reference(3, tb),
                atol=1e-10,
            )

    def test_scalar_arithmetic(self):
        p = 2.0 * pauli_z(1, 0) + 1.0
        assert np.allclose(p.to_matrix(), np.diag([3.0, -1.0]))
        assert np.allclose((p * 0.5).to_matrix(), np.diag([1.5, -0.5]))
        assert np.allclose((1.0 - p).to_matrix(), np.diag([-2.0, 2.0]))

    def test_diagonal_matches_matrix(self):
        rng = np.random.default_rng(9)
        terms = []
        for _ in range(5):
            factors = {q: "Z" for q in range(4) if rng.random() < 0.5}
            terms.append((complex(rng.normal()), factors))
        poly = PauliPolynomial(4, [PauliString(c, f) for c, f in terms])
        assert np.allclose(poly.diagonal(), np.diag(dense_reference(4, terms)).real)

    def test_diagonal_rejects_off_diagonal_terms(self):
        with pytest.raises(ValueError, match="diagonal"):
            pauli_x(2, 0).diagonal()

    def test_matrix_cap(self):
        with pytest.raises(ValueError, match="cap"):
            pauli_z(13, 0).to_matrix()


class TestFromDiagonal:
    def test_round_trip_both_directions(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=64)
        poly = PauliPolynomial.from_diagonal(values)
        assert poly.num_qubits == 6 and poly.is_diagonal()
        assert np.max(np.abs(poly.diagonal() - values)) <= 1e-12
        terms = [(complex(rng.normal()), {q: "Z" for q in range(6) if rng.random() < 0.5}) for _ in range(8)]
        z_poly = PauliPolynomial(6, [PauliString(c, f) for c, f in terms])
        back = PauliPolynomial.from_diagonal(z_poly.diagonal())
        assert back.allclose(z_poly, 1e-12) and back.num_terms == z_poly.num_terms

    def test_coefficient_is_normalized_trace(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=8)
        poly = PauliPolynomial.from_diagonal(values)
        for factors in ({}, {0: "Z"}, {1: "Z", 2: "Z"}, {0: "Z", 1: "Z", 2: "Z"}):
            z_diag = np.diag(dense_reference(3, [(1.0, factors)])).real
            assert poly.coefficient(factors) == pytest.approx(np.mean(z_diag * values), abs=1e-14)

    def test_rejects_bad_shapes(self):
        for bad in (np.ones(3), np.ones((2, 2))):
            with pytest.raises(ValueError, match="power of two"):
                PauliPolynomial.from_diagonal(bad)


class TestWalshHadamard:
    @staticmethod
    def sylvester(num_qubits):
        """The transform's matrix entry by entry: (-1)**parity(i & k)."""
        index = np.arange(2**num_qubits)
        parity = np.array([[bin(i & k).count("1") % 2 for k in index] for i in index])
        return 1.0 - 2.0 * parity

    @pytest.mark.parametrize("num_qubits", [1, 2, 7, 8])
    def test_matches_explicit_sylvester_matrix(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        values = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        expected = self.sylvester(num_qubits) @ values
        assert np.max(np.abs(_walsh_hadamard(values) - expected)) <= 1e-12
        assert np.max(np.abs(_walsh_hadamard(values.real) - expected.real)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [1, 7])
    def test_transforms_each_row_of_a_batch(self, num_qubits):
        # a real pair, as the exact anneal step transforms the real and
        # imaginary parts of a state
        rows = np.random.default_rng(20 + num_qubits).normal(size=(2, 2**num_qubits))
        batch = _walsh_hadamard(rows)
        assert batch.shape == rows.shape
        expected = rows @ self.sylvester(num_qubits)
        assert np.max(np.abs(batch - expected)) <= 1e-12

    def test_three_factors_square_to_scaled_identity(self):
        size = 2**13
        assert len(_kronecker_factors(size, np.dtype(complex))) == 3
        rng = np.random.default_rng(13)
        values = rng.normal(size=size) + 1j * rng.normal(size=size)
        twice = _walsh_hadamard(_walsh_hadamard(values)) / size
        assert np.max(np.abs(twice - values)) <= 1e-12
        pair = np.stack([values.real, values.imag])
        twice = _walsh_hadamard(_walsh_hadamard(pair)) / size
        assert np.max(np.abs(twice - pair)) <= 1e-12

    def test_leaves_its_input_alone(self):
        values = np.arange(8.0)
        _walsh_hadamard(values)
        assert np.array_equal(values, np.arange(8.0))


class TestBinaryProjector:
    def test_matrix_forms(self):
        t = binary_projector(1, 0, +1)
        tbar = binary_projector(1, 0, -1)
        assert np.allclose(t.to_matrix(), np.diag([1.0, 0.0]))
        assert np.allclose(tbar.to_matrix(), np.diag([0.0, 1.0]))

    def test_projector_algebra(self):
        t = binary_projector(2, 1, +1)
        tbar = binary_projector(2, 1, -1)
        assert (t * t).allclose(t)
        assert (t * tbar).num_terms == 0
        assert (t + tbar).allclose(PauliPolynomial.identity(2))

    def test_eigenvalue_one_on_zero_state(self):
        # Z|0> = +|0>, so (I+Z)/2 keeps |0> and kills |1>
        t = binary_projector(1, 0, +1)
        zero = basis_state(1, 0)
        one = basis_state(1, 1)
        assert np.allclose(t.to_matrix() @ zero, zero)
        assert np.allclose(t.to_matrix() @ one, 0)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="sign"):
            binary_projector(1, 0, 2)


def test_pauli_y_consistency():
    # Y = iXZ as matrices and in the algebra
    product = PauliString(1j, {0: "X"}) * PauliString(1.0, {0: "Z"})
    assert np.allclose(product.to_matrix(1), Y)
    assert np.allclose(single_pauli(1, 0, "Y").to_matrix(), Y)
