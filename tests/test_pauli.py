"""Tests for the Z-string algebra.

Expected matrices come from the independent dense reference of
``kron_reference``, built with explicit 2x2 matrices and Kronecker products
(qubit 0 = least significant bit, i.e. rightmost factor in the kron chain).
"""

import numpy as np
import pytest

from aqtrain.engine import basis_state
from aqtrain.pauli import (
    DROP_TOLERANCE,
    PauliPolynomial,
    _factor_product,
    _factor_views,
    _factor_widths,
    _sylvester,
    _walsh_hadamard,
    binary_projector,
    pauli_z,
)
from kron_reference import dense_reference


def random_polynomial(rng, num_qubits, num_terms):
    """A random real Z-string sum and its terms in the reference's form."""
    terms = []
    for _ in range(num_terms):
        factors = {q: "Z" for q in range(num_qubits) if rng.random() < 0.5}
        terms.append((rng.normal(), factors))
    poly = PauliPolynomial.zero(num_qubits)
    for coeff, factors in terms:
        poly = poly + PauliPolynomial(num_qubits, {sum(1 << q for q in factors): coeff})
    return poly, terms


class TestPauliPolynomial:
    def test_little_endian_matrix_convention(self):
        # qubit 0 is the least significant bit: Z0 alternates along the diagonal
        assert np.allclose(pauli_z(2, 0).to_matrix(), np.diag([1, -1, 1, -1]))
        assert np.allclose(pauli_z(2, 1).to_matrix(), np.diag([1, 1, -1, -1]))
        assert PauliPolynomial(2, {0b10: 1.0}).allclose(pauli_z(2, 1))

    def test_addition_merges_and_cancels(self):
        p = pauli_z(2, 0) + pauli_z(2, 1)
        q = p - pauli_z(2, 0)
        assert q.num_terms == 1
        zero = q - pauli_z(2, 1)
        assert zero.num_terms == 0
        assert np.allclose(zero.to_matrix(), 0)

    def test_near_zero_coefficients_dropped(self):
        p = pauli_z(1, 0) + DROP_TOLERANCE / 10
        assert p.num_terms == 1

    def test_addition_requires_same_register(self):
        with pytest.raises(ValueError, match="registers"):
            pauli_z(2, 0) + pauli_z(3, 0)

    def test_rejects_a_mask_outside_the_register(self):
        with pytest.raises(ValueError, match="outside the register"):
            PauliPolynomial(2, {0b100: 1.0})

    def test_product_is_the_xor_of_masks(self):
        # (2 Z0 Z1) (3 Z1 Z2) = 6 Z0 Z2, and Z-strings square to the identity
        product = PauliPolynomial(3, {0b011: 2.0}) * PauliPolynomial(3, {0b110: 3.0})
        assert product.allclose(PauliPolynomial(3, {0b101: 6.0}), 0.0)
        square = pauli_z(3, 2) * pauli_z(3, 2)
        assert square.allclose(PauliPolynomial.identity(3), 0.0)

    def test_rejects_an_empty_register(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            PauliPolynomial(0)

    def test_product_commutes_and_associates(self):
        rng = np.random.default_rng(15)
        a, b, c = (random_polynomial(rng, 4, 5)[0] for _ in range(3))
        assert (a * b).allclose(b * a, 1e-12)
        assert ((a * b) * c).allclose(a * (b * c), 1e-12)

    def test_product_distributes_over_addition(self):
        rng = np.random.default_rng(16)
        a, b, c = (random_polynomial(rng, 4, 5)[0] for _ in range(3))
        assert (a * (b + c)).allclose(a * b + a * c, 1e-12)
        assert ((b + c) * a).allclose(b * a + c * a, 1e-12)

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
        poly, terms = random_polynomial(np.random.default_rng(9), 4, 5)
        assert np.allclose(poly.diagonal(), np.diag(dense_reference(4, terms)))
        assert np.array_equal(poly.to_matrix(), np.diag(poly.diagonal()))

    def test_matrix_cap(self):
        with pytest.raises(ValueError, match="cap"):
            pauli_z(13, 0).to_matrix()


class TestFromDiagonal:
    def test_round_trip_both_directions(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=64)
        poly = PauliPolynomial.from_diagonal(values)
        assert poly.num_qubits == 6
        assert np.max(np.abs(poly.diagonal() - values)) <= 1e-12
        z_poly, _ = random_polynomial(rng, 6, 8)
        back = PauliPolynomial.from_diagonal(z_poly.diagonal())
        assert back.allclose(z_poly, 1e-12) and back.num_terms == z_poly.num_terms

    def test_coefficient_is_normalized_trace(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=8)
        poly = PauliPolynomial.from_diagonal(values)
        for factors in ({}, {0: "Z"}, {1: "Z", 2: "Z"}, {0: "Z", 1: "Z", 2: "Z"}):
            z_diag = np.diag(dense_reference(3, [(1.0, factors)]))
            mask = sum(1 << q for q in factors)
            assert poly.coefficient(mask) == pytest.approx(np.mean(z_diag * values), abs=1e-14)

    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_terms_equal_the_per_mask_construction(self, num_qubits):
        # keys, values and insertion order of a dict built one mask at a time
        dim = 2**num_qubits
        values = np.random.default_rng(14 + num_qubits).normal(size=dim)
        values[: dim // 2] = values[dim // 2 :]  # a zero coefficient, so one key is dropped
        coeffs = _walsh_hadamard(values) / dim
        expected = {m: float(coeffs[m]) for m in range(dim) if abs(coeffs[m]) >= DROP_TOLERANCE}
        terms = PauliPolynomial.from_diagonal(values)._terms
        assert list(terms.items()) == list(expected.items())

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

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 6, 7, 8])
    def test_matches_explicit_sylvester_matrix(self, num_qubits):
        values = np.random.default_rng(num_qubits).normal(size=2**num_qubits)
        expected = self.sylvester(num_qubits) @ values
        assert np.max(np.abs(_walsh_hadamard(values) - expected)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", range(1, 7))
    def test_factor_matches_the_block_recurrence(self, num_qubits):
        # H_{k+1} = [[H_k, H_k], [H_k, -H_k]] from H_0 = [[1]]
        expected = np.ones((1, 1))
        for _ in range(num_qubits):
            expected = np.block([[expected, expected], [expected, -expected]])
        assert np.array_equal(_sylvester(num_qubits), expected)

    def test_three_factors_square_to_scaled_identity(self):
        size = 2**13
        assert _factor_widths(13) == (5, 4, 4)
        values = np.random.default_rng(13).normal(size=size)
        twice = _walsh_hadamard(_walsh_hadamard(values)) / size
        assert np.max(np.abs(twice - values)) <= 1e-12

    def test_leaves_its_input_alone(self):
        values = np.arange(8.0)
        _walsh_hadamard(values)
        assert np.array_equal(values, np.arange(8.0))


class TestFactorLayout:
    @staticmethod
    def random_factors(rng, widths):
        """One random symmetric matrix a factor, most significant first."""
        factors = []
        for width in widths:
            m = rng.normal(size=(2**width, 2**width))
            factors.append(m + m.T)
        return factors

    @staticmethod
    def apply(factors, v):
        """All factors applied in turn through the register's views."""
        sizes = [f.shape[0] for f in factors]
        out, work = np.array(v, dtype=float), np.empty(np.shape(v))
        for j, factor in enumerate(factors):
            _factor_product(factor, _factor_views(out, sizes)[j], _factor_views(work, sizes)[j])
            out, work = work, out
        return out

    @pytest.mark.parametrize("num_qubits", [1, 5, 6, 7, 12, 13, 18, 19])
    def test_widths_are_the_fewest_balanced_factors(self, num_qubits):
        widths = _factor_widths(num_qubits)
        assert sum(widths) == num_qubits and max(widths) <= 6
        assert len(widths) == -(-num_qubits // 6)
        # the extra qubits go to the most significant factors
        assert list(widths) == sorted(widths, reverse=True)
        assert widths[0] - widths[-1] <= 1

    @pytest.mark.parametrize("num_qubits", [1, 3, 6, 7, 10, 13])
    def test_products_match_the_kronecker_chain(self, num_qubits):
        rng = np.random.default_rng(20 + num_qubits)
        widths = _factor_widths(num_qubits)
        factors = self.random_factors(rng, widths)
        dim = 2**num_qubits
        # column i of M_1 (x) ... (x) M_k is the chain of the factors' columns
        # picked by i's digits, most significant factor first
        for index in rng.integers(dim, size=4):
            column, rest = np.ones(1), int(index)
            digits = []
            for width in reversed(widths):
                digits.append(rest % 2**width)
                rest //= 2**width
            for factor, digit in zip(factors, reversed(digits)):
                column = np.kron(column, factor[:, digit])
            basis = np.zeros(dim)
            basis[index] = 1.0
            assert np.max(np.abs(self.apply(factors, basis) - column)) <= 1e-12
        if num_qubits <= 10:
            chain = np.ones((1, 1))
            for factor in factors:
                chain = np.kron(chain, factor)
            v = rng.normal(size=dim)
            assert np.max(np.abs(self.apply(factors, v) - chain @ v)) <= 1e-10

    @pytest.mark.parametrize("num_qubits", [4, 7, 13])
    def test_leading_axes_fold_into_the_first_view(self, num_qubits):
        rng = np.random.default_rng(30 + num_qubits)
        factors = self.random_factors(rng, _factor_widths(num_qubits))
        rows = rng.normal(size=(3, 2**num_qubits))
        together = self.apply(factors, rows)
        for row, done in zip(rows, together):
            assert np.max(np.abs(self.apply(factors, row) - done)) <= 1e-12


class TestBinaryProjector:
    def test_matrix_forms(self):
        t = binary_projector(1, 0)
        tbar = 1 - t
        assert np.allclose(t.to_matrix(), np.diag([1.0, 0.0]))
        assert np.allclose(tbar.to_matrix(), np.diag([0.0, 1.0]))

    def test_projector_algebra(self):
        t = binary_projector(2, 1)
        tbar = 1 - t
        assert (t * t).allclose(t)
        assert (t * tbar).num_terms == 0
        assert (t + tbar).allclose(PauliPolynomial.identity(2))

    def test_eigenvalue_one_on_zero_state(self):
        # Z|0> = +|0>, so (I+Z)/2 keeps |0> and kills |1>
        t = binary_projector(1, 0)
        zero = basis_state(1, 0)
        one = basis_state(1, 1)
        assert np.allclose(t.to_matrix() @ zero, zero)
        assert np.allclose(t.to_matrix() @ one, 0)
