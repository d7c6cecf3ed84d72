"""Tests for polynomials over named variables."""

import numpy as np
import pytest

from aqtrain.encodings import EncodingTable, Grid
from aqtrain.pauli import PauliPolynomial
from aqtrain.varpoly import VarPolynomial, _canonical_key, parse_polynomial


def random_polynomial(rng, names, max_terms=6, max_power=3):
    poly = VarPolynomial.zero()
    for _ in range(rng.integers(1, max_terms + 1)):
        powers = {n: int(rng.integers(0, max_power + 1)) for n in names}
        poly = poly + VarPolynomial({tuple(powers.items()): float(rng.normal())})
    return poly


def random_assignment(rng, names):
    return {n: float(rng.uniform(-1.5, 1.5)) for n in names}


class TestArithmetic:
    def test_sum_and_product_evaluate_pointwise(self):
        rng = np.random.default_rng(2)
        names = ["x", "y", "z"]
        for _ in range(20):
            p = random_polynomial(rng, names)
            q = random_polynomial(rng, names)
            at = random_assignment(rng, names)
            assert (p + q).evaluate(at) == pytest.approx(p.evaluate(at) + q.evaluate(at))
            assert (p * q).evaluate(at) == pytest.approx(p.evaluate(at) * q.evaluate(at), rel=1e-9)
            assert (p - q).evaluate(at) == pytest.approx(p.evaluate(at) - q.evaluate(at))
            assert (2.5 * p).evaluate(at) == pytest.approx(2.5 * p.evaluate(at))

    def test_square_binomial(self):
        w = VarPolynomial.variable("w")
        p = (1 + w) * (1 + w)
        assert p.term_count == 3
        assert p.degree == 2
        assert p.coefficient({}) == 1.0
        assert p.coefficient({"w": 1}) == 2.0
        assert p.coefficient({"w": 2}) == 1.0

    def test_cancellation(self):
        w = VarPolynomial.variable("w")
        assert (w - w).term_count == 0
        assert (w - w).degree == 0

    def test_missing_variable_raises(self):
        p = VarPolynomial.variable("w") + VarPolynomial.variable("u")
        with pytest.raises(KeyError, match="u"):
            p.evaluate({"w": 1.0})

    def test_product_keys_match_canonical_construction(self):
        # the product merges canonical keys directly; the oracle re-canonicalizes
        # every concatenated key, in the same accumulation order
        rng = np.random.default_rng(5)
        x, y = VarPolynomial.variable("x"), VarPolynomial.variable("y")
        polys = [random_polynomial(rng, ["x", "y", "x_0"]) for _ in range(5)]
        polys += [VarPolynomial.constant(2.5), x * y + 1.0, x * x - y]
        for p in polys:
            for q in polys:
                oracle = VarPolynomial()
                for ka, ca in p._terms.items():
                    for kb, cb in q._terms.items():
                        oracle._accumulate(_canonical_key(ka + kb), ca * cb)
                oracle._prune()
                assert list((p * q)._terms.items()) == list(oracle._terms.items())
        product = (x * y + 1.0) * (x * x - y)
        assert product.coefficient({"x": 3, "y": 1}) == 1.0
        assert product.coefficient({"x": 2}) == 1.0
        assert product.coefficient({}) == 0.0
        assert (VarPolynomial.constant(2.5) * (x * y)).coefficient({"x": 1, "y": 1}) == 2.5

    def test_variables_and_degree(self):
        p = parse_polynomial("2*a^2*b + c - 7")
        assert p.variables == {"a", "b", "c"}
        assert p.degree == 3
        assert p.term_count == 3


class TestParser:
    def test_quartic_well_text(self):
        p = parse_polynomial("18*w^4 - 35*w^3 + 22*w^2 - 5*w + 0.372573")

        def direct(w):
            return 18 * w**4 - 35 * w**3 + 22 * w**2 - 5 * w + 0.372573

        for w in (0.0, 0.1848, 0.42, 0.8, 1.0):
            assert p.evaluate({"w": w}) == pytest.approx(direct(w), abs=1e-12)

    def test_scientific_notation_and_signs(self):
        p = parse_polynomial("-1e-3*x + 2.5E+2 - x^2")
        assert p.coefficient({"x": 1}) == pytest.approx(-1e-3)
        assert p.coefficient({}) == pytest.approx(250.0)
        assert p.coefficient({"x": 2}) == pytest.approx(-1.0)

    def test_coefficientless_and_repeated_factors(self):
        p = parse_polynomial("x*y^2*x")
        assert p.coefficient({"x": 2, "y": 2}) == 1.0

    def test_round_trip_through_str(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_polynomial(rng, ["alpha", "b2"])
            assert parse_polynomial(str(p)).allclose(p)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_polynomial("2 ** x")
        with pytest.raises(ValueError):
            parse_polynomial("")
        with pytest.raises(ValueError):
            parse_polynomial("x +")


class TestSubstituteEncodings:
    def test_spectrum_matches_pointwise_evaluation(self):
        # the diagonal of the compiled operator must equal the polynomial
        # evaluated at the decoded assignment of every basis state
        rng = np.random.default_rng(8)
        table = EncodingTable(
            [("w", Grid(2, 0, 0, 2**-2)), ("s", Grid(1, 2, -1, 2)), ("b", Grid(1, 3, 0, 1))]
        )
        for _ in range(10):
            poly = random_polynomial(rng, ["w", "s", "b"], max_terms=5, max_power=3)
            diag = poly.substitute_encodings(table).diagonal()
            expected = poly.evaluate(table.decode_columns())
            assert diag == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_binary_powers_collapse(self):
        # T^2 = T: on a 0/1 variable, w^2 compiles to the same operator as w
        table = EncodingTable([("w", Grid(1, 0, 0, 1))])
        w = VarPolynomial.variable("w")
        assert (w * w).substitute_encodings(table).allclose(w.substitute_encodings(table))

    def test_spin_squares_to_identity(self):
        table = EncodingTable([("s", Grid(1, 0, -1, 2))])
        s = VarPolynomial.variable("s")
        op = (s * s).substitute_encodings(table)
        assert np.allclose(op.diagonal(), 1.0)

    def test_constant_polynomial(self):
        table = EncodingTable([("w", Grid(1, 0, 0, 1))])
        op = VarPolynomial.constant(2.5).substitute_encodings(table)
        assert np.allclose(op.diagonal(), 2.5)

    def test_missing_encoding_raises(self):
        table = EncodingTable([("w", Grid(1, 0, 0, 1))])
        with pytest.raises(KeyError, match="u"):
            VarPolynomial.variable("u").substitute_encodings(table)

    def test_paulispin_target_matches_enumerated_objective(self):
        # the anneal-paulispin target compiles the objective on every basis
        # state; the symbolic substitution is its oracle
        table = EncodingTable([("w", Grid(7, 0, 0, 2**-7))])
        poly = parse_polynomial("18*w^4 - 35*w^3 + 22*w^2 - 5*w + 0.372573") * 50.0
        compiled = PauliPolynomial.from_diagonal(poly.evaluate(table.decode_columns()))
        oracle = poly.substitute_encodings(table)
        assert compiled.allclose(oracle, 1e-9) and compiled.num_terms == oracle.num_terms
