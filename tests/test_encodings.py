"""Tests for variable encodings.

The decode oracle is the operator spectrum itself: for every basis state,
the decoded value must equal the diagonal entry of the dense encoding
operator on that state.
"""

import numpy as np
import pytest

from aqtrain.encodings import (
    EncodingTable,
    Grid,
    decode_all,
    encode_variable,
    index_of_report_bitstring,
    report_bitstring,
)


def fraction(bits, offset=0):
    """The fraction grid {0, 1/2**bits, ..., 1 - 1/2**bits}."""
    return Grid(bits, offset, 0, 2**-bits)


def spin(qubit):
    return Grid(1, qubit, -1, 2)


def bit(qubit):
    return Grid(1, qubit, 0, 1)


class TestFractionalBinary:
    """The fraction grid Grid(N, offset, 0, 2**-N) on [0, 1)."""

    def test_two_qubit_operator(self):
        # w = (T0 + 2 T1)/4 = 3/8 I + 1/8 Z0 + 1/4 Z1
        op = encode_variable(fraction(2), 2)
        assert op.coefficient(0b00) == pytest.approx(3 / 8)
        assert op.coefficient(0b01) == pytest.approx(1 / 8)
        assert op.coefficient(0b10) == pytest.approx(1 / 4)
        assert op.num_terms == 3

    def test_decode_matches_operator_spectrum(self):
        for n in (1, 2, 3):
            enc = fraction(n)
            diag = encode_variable(enc, n).diagonal()
            assert np.allclose(decode_all(enc, n), diag)

    def test_decode_example(self):
        # projector eigenvalues (t2, t1, t0) = (1, 0, 1) decode to 5/8;
        # eigenvalue 1 corresponds to raw bit 0, so only qubit 1's bit is set
        assert decode_all(fraction(3), 3)[0b010] == pytest.approx(5 / 8)

    def test_all_ones_decode(self):
        # basis index 0: both projector eigenvalues 1
        assert decode_all(fraction(2), 2)[0] == pytest.approx(3 / 4)

    def test_bin_grid(self):
        # every grid value r / 8 once, exactly
        centers = np.sort(decode_all(fraction(3), 3))
        assert np.array_equal(centers, np.arange(8) / 8)

    def test_spectrum_covers_all_bins(self):
        diag = encode_variable(fraction(3), 3).diagonal()
        assert sorted(diag) == pytest.approx(np.arange(8) / 8)

    def test_offset_register(self):
        enc = fraction(2, 1)
        assert tuple(enc.qubits) == (1, 2)
        assert np.allclose(decode_all(enc, 3), encode_variable(enc, 3).diagonal())


class TestSingleQubitEncodings:
    def test_spin_values(self):
        enc = spin(0)
        assert decode_all(enc, 1).tolist() == [1.0, -1.0]
        op = encode_variable(enc, 1)
        assert np.allclose(op.diagonal(), [1.0, -1.0])
        # -1 + 2 (I + Z)/2 is Z alone: the identity coefficients cancel exactly
        assert op.num_terms == 1 and op.coefficient(0b1) == 1.0

    def test_binary01_values(self):
        enc = bit(0)
        assert decode_all(enc, 1).tolist() == [1.0, 0.0]
        assert np.allclose(encode_variable(enc, 1).diagonal(), [1.0, 0.0])

    def test_decode_all_vectorized(self):
        # on a wider register, each value is the operator's eigenvalue there
        for enc in (spin(1), bit(0), fraction(2, 1)):
            assert np.array_equal(decode_all(enc, 3), encode_variable(enc, 3).diagonal())
        # two bits on [-1, 1], {-1, -1/3, 1/3, 1}: a step of 2/3 is not a
        # binary fraction, so the two sides agree to rounding, not bit for bit
        enc = Grid(2, 1, -1, 2 / 3)
        assert np.max(np.abs(decode_all(enc, 3) - encode_variable(enc, 3).diagonal())) <= 1e-15

    def test_rejects_qubits_outside_the_register(self):
        with pytest.raises(ValueError, match="outside the register"):
            encode_variable(fraction(2, 1), 2)


def test_shipped_grids_match_their_closed_forms():
    # low + step * j is exact in float64 on every grid a run uses, so the
    # decoded columns equal the closed forms of the spin, the bit and the
    # 7-qubit fraction bit for bit
    indices = np.arange(2**7, dtype=np.int64)
    raw = (indices[:, None] >> np.arange(7)) & 1
    assert np.array_equal(decode_all(spin(3), 7), 1.0 - 2.0 * raw[:, 3])
    assert np.array_equal(decode_all(bit(3), 7), 1.0 - raw[:, 3])
    fraction_closed_form = ((1 - raw) * 2.0 ** np.arange(7)).sum(axis=1) / 2.0**7
    assert np.array_equal(decode_all(fraction(7), 7), fraction_closed_form)


class TestReportBitstrings:
    def test_projector_convention(self):
        # basis index 0 = all |0> = all projector eigenvalues 1
        assert report_bitstring(0, 4) == "1111"
        assert report_bitstring(0b0001, 4) == "0111"  # qubit 0 first
        assert report_bitstring(0b1000, 4) == "1110"

    def test_round_trip(self):
        for index in range(16):
            assert index_of_report_bitstring(report_bitstring(index, 4)) == index

    def test_matches_bit_by_bit_oracle(self):
        # the reference, qubit by qubit; an index past the register keeps only
        # its low num_qubits bits
        def oracle(index, num_qubits):
            return "".join("0" if (index >> q) & 1 else "1" for q in range(num_qubits))

        for num_qubits in range(13):
            for index in range(2 ** (num_qubits + 1)):
                assert report_bitstring(index, num_qubits) == oracle(index, num_qubits)
        assert report_bitstring(0, 0) == ""


class TestEncodingTable:
    def test_uniform_builders(self):
        table = EncodingTable([("a", spin(0)), ("b", spin(1)), ("c", spin(2))])
        assert table.total_qubits == 3
        assert table.names == ["a", "b", "c"]
        assert table["b"] == Grid(1, 1, -1, 2)

    def test_decode_columns(self):
        table = EncodingTable([("w", fraction(2)), ("s", spin(2)), ("b", bit(3))])
        columns = table.decode_columns()
        assert list(columns) == ["w", "s", "b"]
        # index 0b0110: qubit0=0, qubit1=1, qubit2=1, qubit3=0
        assert columns["w"][0b0110] == pytest.approx(1 / 4)  # t = (1, 0) -> 1/4
        assert columns["s"][0b0110] == -1.0
        assert columns["b"][0b0110] == 1.0

    def test_index_of_inverts_decode_columns(self):
        table = EncodingTable(
            [("s", spin(0)), ("w", fraction(2, 1)), ("b", bit(3)), ("v", Grid(2, 4, -1, 2 / 3))]
        )
        indices = table.index_of(table.decode_columns())
        assert np.array_equal(indices, np.arange(2**6))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            EncodingTable([("a", spin(0)), ("b", fraction(2))])

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            EncodingTable([("a", spin(0)), ("b", spin(2))])

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EncodingTable([("a", spin(0)), ("a", spin(1))])
