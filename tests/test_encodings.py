"""Tests for variable encodings.

The decode oracle is the operator spectrum itself: for every basis state,
the decoded value must equal the diagonal entry of the dense encoding
operator on that state.
"""

import numpy as np
import pytest

from aqtrain.encodings import (
    Binary01,
    EncodingTable,
    FractionalBinary,
    SpinPM1,
    decode_all,
    encode_variable,
    index_of_report_bitstring,
    qubits_of,
    report_bitstring,
)


class TestFractionalBinary:
    def test_two_qubit_operator(self):
        # w = (T0 + 2 T1)/4 = 3/8 I + 1/8 Z0 + 1/4 Z1
        op = encode_variable(FractionalBinary(2, 0), 2)
        assert op.coefficient(0b00) == pytest.approx(3 / 8)
        assert op.coefficient(0b01) == pytest.approx(1 / 8)
        assert op.coefficient(0b10) == pytest.approx(1 / 4)
        assert op.num_terms == 3

    def test_decode_matches_operator_spectrum(self):
        for n in (1, 2, 3):
            enc = FractionalBinary(n, 0)
            diag = encode_variable(enc, n).diagonal()
            assert np.allclose(decode_all(enc, n), diag)

    def test_decode_example(self):
        # projector eigenvalues (t2, t1, t0) = (1, 0, 1) decode to 5/8;
        # eigenvalue 1 corresponds to raw bit 0, so only qubit 1's bit is set
        assert decode_all(FractionalBinary(3, 0), 3)[0b010] == pytest.approx(5 / 8)

    def test_all_ones_decode(self):
        # basis index 0: both projector eigenvalues 1
        assert decode_all(FractionalBinary(2, 0), 2)[0] == pytest.approx(3 / 4)

    def test_bin_grid(self):
        # every grid value r / 8 once, exactly
        centers = np.sort(decode_all(FractionalBinary(3, 0), 3))
        assert np.array_equal(centers, np.arange(8) / 8)

    def test_spectrum_covers_all_bins(self):
        diag = encode_variable(FractionalBinary(3, 0), 3).diagonal()
        assert sorted(diag) == pytest.approx(np.arange(8) / 8)

    def test_offset_register(self):
        enc = FractionalBinary(2, 1)
        assert qubits_of(enc) == (1, 2)
        assert np.allclose(decode_all(enc, 3), encode_variable(enc, 3).diagonal())


class TestSingleQubitEncodings:
    def test_spin_values(self):
        enc = SpinPM1(0)
        assert decode_all(enc, 1).tolist() == [1.0, -1.0]
        assert np.allclose(encode_variable(enc, 1).diagonal(), [1.0, -1.0])

    def test_binary01_values(self):
        enc = Binary01(0)
        assert decode_all(enc, 1).tolist() == [1.0, 0.0]
        assert np.allclose(encode_variable(enc, 1).diagonal(), [1.0, 0.0])

    def test_decode_all_vectorized(self):
        # on a wider register, each value is the operator's eigenvalue there
        for enc in (SpinPM1(1), Binary01(0), FractionalBinary(2, 1)):
            assert np.array_equal(decode_all(enc, 3), encode_variable(enc, 3).diagonal())


class TestReportBitstrings:
    def test_projector_convention(self):
        # basis index 0 = all |0> = all projector eigenvalues 1
        assert report_bitstring(0, 4) == "1111"
        assert report_bitstring(0b0001, 4) == "0111"  # qubit 0 first
        assert report_bitstring(0b1000, 4) == "1110"

    def test_round_trip(self):
        for index in range(16):
            assert index_of_report_bitstring(report_bitstring(index, 4)) == index


class TestEncodingTable:
    def test_uniform_builders(self):
        table = EncodingTable.uniform(["a", "b", "c"], "spin-pm1")
        assert table.total_qubits == 3
        assert table.names == ["a", "b", "c"]
        assert table["b"] == SpinPM1(1)

    def test_decode_columns(self):
        table = EncodingTable(
            [("w", FractionalBinary(2, 0)), ("s", SpinPM1(2)), ("b", Binary01(3))], 4
        )
        columns = table.decode_columns()
        assert list(columns) == ["w", "s", "b"]
        # index 0b0110: qubit0=0, qubit1=1, qubit2=1, qubit3=0
        assert columns["w"][0b0110] == pytest.approx(1 / 4)  # t = (1, 0) -> 1/4
        assert columns["s"][0b0110] == -1.0
        assert columns["b"][0b0110] == 1.0

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlaps"):
            EncodingTable([("a", SpinPM1(0)), ("b", FractionalBinary(2, 0))], 3)

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            EncodingTable([("a", SpinPM1(0)), ("b", SpinPM1(2))], 3)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EncodingTable([("a", SpinPM1(0)), ("a", SpinPM1(1))], 2)
