"""Tests for the symbolic network compiler and its analysis helpers."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from aqtrain.datasets import Dataset, balanced_pixel_split, band_dataset, circle_dataset, pixel_images
from aqtrain.encodings import EncodingTable, Grid, report_bitstring
from aqtrain.nn import (
    PREDICTION_DECIMALS,
    PROBABILITY_DECIMALS,
    DegeneracyClass,
    Identity,
    LayerSpec,
    ModelSpec,
    Square,
    StepMajority,
    accuracy_vs_runs,
    binary_pixel_model,
    build_loss,
    compile_hamiltonian,
    enumerate_weightspace,
    forward_configs,
    grid_probe,
    group_degenerate,
    model_encoding_table,
    per_sample_terms,
    sample_pool,
    symbolic_forward,
    term_stats,
    theta_polynomial,
    toy_two_layer_model,
)
from aqtrain.pauli import PauliPolynomial
from aqtrain.varpoly import VarPolynomial


def _toy_setup(seed=0, n=200):
    model = toy_two_layer_model()
    table = model_encoding_table(model, "spin-pm1")
    data = circle_dataset(n, seed=seed)
    return model, table, data


def _binary_setup(seed=0):
    model = binary_pixel_model()
    table = model_encoding_table(model, "binary01")
    train, test = balanced_pixel_split(seed=seed)
    return model, table, train, test


class TestThetaPolynomial:
    def test_single_input_passes_through(self):
        assert theta_polynomial(1, ["a"]).items() == VarPolynomial.variable("a").items()

    def test_three_input_expansion(self):
        # T1 T2 T3 + T1 T2 (1-T3) + T1 (1-T2) T3 + (1-T1) T2 T3
        a, b, c = (VarPolynomial.variable(n) for n in "abc")
        one = VarPolynomial.constant(1.0)
        expected = a * b * c + a * b * (one - c) + a * (one - b) * c + (one - a) * b * c
        assert theta_polynomial(3, ["a", "b", "c"]).allclose(expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_truth_table(self, n):
        names = [f"t{i}" for i in range(n)]
        poly = theta_polynomial(n, names)
        for bits in itertools.product([0.0, 1.0], repeat=n):
            value = poly.evaluate(dict(zip(names, bits)))
            expected = 1.0 if sum(bits) >= n / 2 else 0.0
            assert value == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _subset_expansion(polys):
        # the definition: one product per set of at most floor(n/2) unset inputs
        n, one = len(polys), VarPolynomial.constant(1.0)
        total = VarPolynomial.zero()
        for m in range(n // 2 + 1):
            for unset in itertools.combinations(range(n), m):
                term = one
                for j, poly in enumerate(polys):
                    term = term * ((one - poly) if j in unset else poly)
                total = total + term
        return total

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_subset_expansion_on_names(self, n):
        names = [f"t{i}" for i in range(n)]
        expected = self._subset_expansion([VarPolynomial.variable(name) for name in names])
        assert theta_polynomial(n, names).items() == expected.items()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_the_subset_expansion_on_products(self, n):
        # weight-times-input products w_j * x_j for every 0/1 input x
        for x in itertools.product([0.0, 1.0], repeat=n):
            polys = [VarPolynomial.variable(f"w{j}") * x_j for j, x_j in enumerate(x)]
            expected = self._subset_expansion(polys)
            assert theta_polynomial(n, polys).items() == expected.items()
            assert all(coeff == round(coeff) for _, coeff in expected.items())

    def test_accepts_product_inputs(self):
        # majority over weight-times-input products, inputs fixed to 1 and 0
        w1, w2 = VarPolynomial.variable("w1"), VarPolynomial.variable("w2")
        poly = theta_polynomial(2, [w1 * 1.0, w2 * 0.0])
        # second contribution is always 0, so the OR reduces to w1
        assert poly.allclose(w1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theta_polynomial(0, [])
        with pytest.raises(ValueError):
            theta_polynomial(3, ["a", "b"])


class TestModelDeclaration:
    def test_variable_order_is_row_major(self):
        model = toy_two_layer_model()
        assert model.variable_names == ["w1_11", "w1_12", "w1_21", "w1_22", "w2_1", "w2_2"]
        binary = binary_pixel_model()
        assert binary.variable_names[:4] == ["w1_11", "w1_12", "w1_13", "w1_14"]
        assert binary.variable_names[-2:] == ["w2_1", "w2_2"]
        assert len(binary.variable_names) == 10

    def test_encoding_table_follows_declaration_order(self):
        model = toy_two_layer_model()
        table = model_encoding_table(model, "spin-pm1")
        assert table.names == model.variable_names
        assert table.total_qubits == 6

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(weights=(("a", "b"), ("c",)), biases=(0.0, 0.0), activation=Identity())

    def test_bias_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(weights=(("a", "b"),), biases=(0.0, 0.0), activation=Identity())

    def test_dimension_chain_enforced(self):
        first = LayerSpec(weights=(("a", "b"),), biases=(0.0,), activation=Identity())
        second = LayerSpec(weights=(("c", "d"),), biases=(0.0,), activation=Identity())
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, layers=(first, second))

    def test_duplicate_variable_rejected(self):
        first = LayerSpec(weights=(("a", "b"),), biases=(0.0,), activation=Identity())
        second = LayerSpec(weights=(("a",),), biases=(0.0,), activation=Identity())
        with pytest.raises(ValueError):
            ModelSpec(input_dim=2, layers=(first, second))


class TestSymbolicForward:
    def test_toy_model_at_unit_x(self):
        model = toy_two_layer_model()
        output = symbolic_forward(model, (1.0, 0.0))[0]
        w1_11, w1_21 = VarPolynomial.variable("w1_11"), VarPolynomial.variable("w1_21")
        expected = (
            VarPolynomial.variable("w2_1") * w1_11 * w1_11
            + VarPolynomial.variable("w2_2") * w1_21 * w1_21
            - 1.0
        )
        assert output.allclose(expected)

    def test_all_constant_weights_give_constant_polynomial(self):
        layer = LayerSpec(weights=((0.5, -0.25),), biases=(1.0,), activation=Square())
        model = ModelSpec(input_dim=2, layers=(layer,))
        output = symbolic_forward(model, (2.0, 4.0))[0]
        assert output.term_count <= 1
        assert output.evaluate({}) == pytest.approx((0.5 * 2 - 0.25 * 4 + 1) ** 2)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_numeric_forward_toy(self, trial):
        rng = np.random.default_rng(100 + trial)
        model = toy_two_layer_model()
        weights = {name: rng.choice([-1.0, 1.0]) for name in model.variable_names}
        x = rng.uniform(-1, 1, size=2)
        symbolic = symbolic_forward(model, x)[0].evaluate(weights)
        numeric = forward_configs(model, {name: [value] for name, value in weights.items()}, x[None, :])
        assert symbolic == pytest.approx(numeric[0, 0], abs=1e-12)

    @pytest.mark.parametrize("trial", range(5))
    def test_matches_numeric_forward_binary(self, trial):
        rng = np.random.default_rng(300 + trial)
        model = binary_pixel_model()
        weights = {name: float(rng.integers(0, 2)) for name in model.variable_names}
        x = rng.integers(0, 2, size=4).astype(float)
        symbolic = symbolic_forward(model, x)[0].evaluate(weights)
        numeric = forward_configs(model, {name: [value] for name, value in weights.items()}, x[None, :])
        assert symbolic == pytest.approx(numeric[0, 0], abs=1e-12)

    def test_input_length_validated(self):
        with pytest.raises(ValueError):
            symbolic_forward(toy_two_layer_model(), (1.0, 2.0, 3.0))


class TestBuildLoss:
    def test_constant_model_mse(self):
        layer = LayerSpec(weights=((0.0,),), biases=(3.0,), activation=Identity())
        model = ModelSpec(input_dim=1, layers=(layer,))
        data_features = np.array([[0.0], [1.0]])
        from aqtrain.datasets import Dataset

        data = Dataset(data_features, np.array([1, 5]))
        loss = build_loss(model, data, "mse")
        # mean of (3-1)^2 and (3-5)^2
        assert loss.evaluate({}) == pytest.approx(4.0)

    def test_mse_is_averaged(self):
        model, table, data = _toy_setup(n=10)
        loss_small = build_loss(model, data, "mse")
        # duplicating every sample must not change the averaged loss
        from aqtrain.datasets import Dataset

        doubled = Dataset(
            np.vstack([data.features, data.features]),
            np.concatenate([data.labels, data.labels]),
        )
        loss_big = build_loss(model, doubled, "mse")
        assert loss_small.allclose(loss_big)

    def test_linear_binary_counts_errors(self):
        # fixed network that always predicts 1
        layer = LayerSpec(weights=((1.0,),), biases=(0.0,), activation=StepMajority())
        model = ModelSpec(input_dim=1, layers=(layer,))
        from aqtrain.datasets import Dataset

        data = Dataset(np.ones((4, 1)), np.array([1, 1, 0, 1]))
        loss = build_loss(model, data, "linear-binary")
        # 3 true positives (-1 each), 1 false positive (+1)
        assert loss.evaluate({}) == pytest.approx(-2.0)

    def test_linear_binary_rejects_signed_labels(self):
        model, table, data = _toy_setup(n=10)
        with pytest.raises(ValueError):
            build_loss(model, data, "linear-binary")

    @pytest.mark.parametrize("labels", [[2, -2] * 5, [0, 1, 2] * 3 + [0]], ids=["pm2", "012"])
    def test_linear_binary_rejects_labels_outside_zero_one(self, labels):
        model, _, data = _toy_setup(n=10)
        relabelled = Dataset(data.features, np.array(labels))
        with pytest.raises(ValueError, match="linear-binary loss requires 0/1 labels"):
            build_loss(model, relabelled, "linear-binary")

    def test_unknown_kind_rejected(self):
        model, table, data = _toy_setup(n=10)
        with pytest.raises(ValueError):
            build_loss(model, data, "hinge")


class TestCompileHamiltonian:
    def test_toy_diagonal_matches_enumeration(self):
        model, table, data = _toy_setup(n=200)
        hamiltonian = compile_hamiltonian(build_loss(model, data, "mse"), table)
        enumerated = enumerate_weightspace(model, table, data, data, "mse")
        assert np.max(np.abs(hamiltonian.diagonal() - enumerated.losses)) <= 1e-9
        # the symbolic compiler is the oracle for the coefficients a run uses
        compiled = PauliPolynomial.from_diagonal(enumerated.losses)
        assert hamiltonian.allclose(compiled, 1e-9)
        assert hamiltonian.num_terms == compiled.num_terms

    def test_binary_diagonal_matches_enumeration(self):
        model, table, train, test = _binary_setup()
        hamiltonian = compile_hamiltonian(build_loss(model, train, "linear-binary"), table)
        enumerated = enumerate_weightspace(model, table, train, test, "linear-binary")
        assert hamiltonian.diagonal().shape == (1024,)
        assert np.max(np.abs(hamiltonian.diagonal() - enumerated.losses)) <= 1e-9
        compiled = PauliPolynomial.from_diagonal(enumerated.losses)
        assert hamiltonian.allclose(compiled, 1e-9)
        assert hamiltonian.num_terms == compiled.num_terms

    def test_constant_loss_is_identity_multiple(self):
        table = EncodingTable([("w", Grid(1, 0, -1, 2))])
        hamiltonian = compile_hamiltonian(VarPolynomial.constant(2.5), table)
        assert hamiltonian.num_terms == 1
        assert hamiltonian.coefficient(0) == pytest.approx(2.5)

    def test_missing_encoding_rejected(self):
        table = EncodingTable([("w", Grid(1, 0, -1, 2))])
        with pytest.raises(ValueError):
            compile_hamiltonian(VarPolynomial.variable("v"), table)

    @pytest.mark.parametrize("flip_mask", [0b000011, 0b001100])
    def test_first_layer_row_sign_flip_symmetry(self, flip_mask):
        # flipping both weights of a first-layer row leaves the loss invariant
        model, table, data = _toy_setup(n=150)
        diag = compile_hamiltonian(build_loss(model, data, "mse"), table).diagonal()
        for index in range(64):
            assert diag[index] == diag[index ^ flip_mask]


class TestPredictAccuracy:
    # weights realizing Y = 2(x1^2 + x2^2) - 1
    CIRCLE_WEIGHTS = {
        "w1_11": 1.0, "w1_12": -1.0, "w1_21": 1.0, "w1_22": 1.0, "w2_1": 1.0, "w2_2": 1.0,
    }
    # first unit watches column 0, second column 1, output is their OR
    COLUMN_WEIGHTS = {
        "w1_11": 1.0, "w1_12": 0.0, "w1_13": 1.0, "w1_14": 0.0,
        "w1_21": 0.0, "w1_22": 1.0, "w1_23": 0.0, "w1_24": 1.0,
        "w2_1": 1.0, "w2_2": 1.0,
    }

    @staticmethod
    def _config_index(table, weights):
        """Basis index whose decoded weights equal ``weights``."""
        columns = table.decode_columns()
        match = np.all([columns[name] == weights[name] for name in table.names], axis=0)
        (index,) = np.flatnonzero(match)
        return int(index)

    def test_toy_predictions_at_reference_points(self):
        model, table, _ = _toy_setup(n=1)
        points = Dataset(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([-1, 1]))
        columns = {name: [value] for name, value in self.CIRCLE_WEIGHTS.items()}
        assert forward_configs(model, columns, points.features)[0] == pytest.approx([-1.0, 1.0])
        # signed labels are scored through the sign of the output
        result = enumerate_weightspace(model, table, points, points, "mse")
        assert result.train_accuracy[self._config_index(table, self.CIRCLE_WEIGHTS)] == 1.0

    def test_toy_circle_weights_are_perfect(self):
        model, table, data = _toy_setup(seed=5, n=500)
        result = enumerate_weightspace(model, table, data, data, "mse")
        assert result.train_accuracy[self._config_index(table, self.CIRCLE_WEIGHTS)] == 1.0

    def test_column_detector_labels_all_images(self):
        model = binary_pixel_model()
        table = model_encoding_table(model, "binary01")
        images = pixel_images()
        result = enumerate_weightspace(model, table, images, images, "linear-binary")
        assert result.train_accuracy[self._config_index(table, self.COLUMN_WEIGHTS)] == 1.0

    def test_missing_weight_raises(self):
        model = toy_two_layer_model()
        with pytest.raises(KeyError):
            forward_configs(model, {"w1_11": [1.0]}, [(0.0, 0.0)])

    def test_forward_batch_shape(self):
        model = toy_two_layer_model()
        data = circle_dataset(17, seed=2)
        columns = {name: [value, -value] for name, value in self.CIRCLE_WEIGHTS.items()}
        outputs = forward_configs(model, columns, data.features)
        assert outputs.shape == (2, 17)


def _loop_forward(model, columns, features):
    """Oracle: each configuration forwarded on its own, one unit at a time,
    each unit summed as 0 + w_0 x_0 + w_1 x_1 + ... + bias."""
    features = np.asarray(features, dtype=float)
    n_configs = len(next(iter(columns.values())))
    outputs = []
    for c in range(n_configs):

        def value(entry):
            return float(columns[entry][c]) if isinstance(entry, str) else float(entry)

        values = [features[:, j] for j in range(model.input_dim)]
        for layer in model.layers:
            units = []
            for row, bias in zip(layer.weights, layer.biases):
                total = np.zeros(len(features))
                for entry, inputs in zip(row, values):
                    total = total + value(entry) * inputs
                total = total + value(bias)
                if isinstance(layer.activation, Square):
                    total = total * total
                elif isinstance(layer.activation, StepMajority):
                    total = np.where(total >= 0.5 * layer.fan_in, 1.0, 0.0)
                units.append(total)
            values = units
        outputs.append(np.stack(values, axis=-1))
    result = np.array(outputs)
    return result[:, :, 0] if model.output_dim == 1 else result


def _continuous_model():
    """8 inputs -> 8 squared units -> identity output, every weight a variable;
    the hidden biases alternate a variable and zero, the output's is zero."""
    hidden = LayerSpec(
        weights=tuple(tuple(f"h{o}_{i}" for i in range(8)) for o in range(8)),
        biases=tuple(f"hb{o}" if o % 2 else 0.0 for o in range(8)),
        activation=Square(),
    )
    output = LayerSpec(weights=(tuple(f"o_{i}" for i in range(8)),), biases=(0.0,), activation=Identity())
    return ModelSpec(input_dim=8, layers=(hidden, output))


def _assert_bit_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too


class TestForwardConfigs:
    def test_toy_model_matches_a_per_configuration_loop(self):
        model, table, data = _toy_setup(seed=3, n=1000)
        columns = table.decode_columns()
        _assert_bit_equal(forward_configs(model, columns, data.features), _loop_forward(model, columns, data.features))

    def test_binary_model_matches_a_per_configuration_loop(self):
        model, table, _, _ = _binary_setup()
        columns = table.decode_columns()
        images = pixel_images().features
        outputs = forward_configs(model, columns, images)
        assert outputs.shape == (1024, 16)
        _assert_bit_equal(outputs, _loop_forward(model, columns, images))

    def test_two_output_model_matches_a_per_configuration_loop(self):
        # constant weights, variable biases and exact zero inputs, two outputs
        hidden = LayerSpec(weights=(("a", 0.5, "b"), ("c", "d", -1.0)), biases=("e", 0.25), activation=Square())
        output = LayerSpec(weights=(("f", "g"), (2.0, "h")), biases=(-1.0, "i"), activation=Identity())
        model = ModelSpec(input_dim=3, layers=(hidden, output))
        columns = model_encoding_table(model, "spin-pm1").decode_columns()
        features = np.vstack([np.random.default_rng(8).normal(size=(12, 3)), np.zeros(3), [0.0, -1.0, 0.0]])
        outputs = forward_configs(model, columns, features)
        assert outputs.shape == (512, 14, 2)
        _assert_bit_equal(outputs, _loop_forward(model, columns, features))

    def test_peak_memory_is_a_few_planes(self):
        # one plane is one unit's (configs, rows) pre-activations
        model, table, data = _toy_setup(n=10_000)
        columns = table.decode_columns()
        plane = 64 * 10_000 * 8
        tracemalloc.start()
        try:
            forward_configs(model, columns, data.features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the first layer's two planes and the output plane take 3, with no
        # scratch plane; a (configs, rows, fan_out) tensor beside its
        # activated copy takes 6
        assert peak < 3.5 * plane

    @pytest.mark.parametrize("n_rows", [1, 3, 1000])
    @pytest.mark.parametrize("n_configs", [1, 2, 64])
    def test_continuous_weights_keep_the_summation_order(self, n_configs, n_rows):
        # real weights make every product and partial sum round, so only the
        # order 0 + w_0 x_0 + w_1 x_1 + ... + bias reproduces the loop bit for
        # bit; a fan-in of 8 is long enough for an unrolled sum to differ
        model = _continuous_model()
        rng = np.random.default_rng(100 * n_configs + n_rows)
        columns = {name: rng.normal(size=n_configs) for name in model.variable_names}
        features = rng.normal(size=(n_rows, model.input_dim))
        outputs = forward_configs(model, columns, features)
        assert outputs.shape == (n_configs, n_rows)
        _assert_bit_equal(outputs, _loop_forward(model, columns, features))

    def test_zero_weights_on_negative_inputs_give_positive_zero(self):
        # each unit's sum starts from +0.0, and 0 + (-0.0) is +0.0
        layer = LayerSpec(weights=(("a", "b"),), biases=(0.0,), activation=Identity())
        model = ModelSpec(input_dim=2, layers=(layer,))
        columns = {"a": [0.0, -0.0], "b": [-0.0, 0.0]}
        features = np.array([[-1.0, -2.0], [-3.0, 0.0]])
        outputs = forward_configs(model, columns, features)
        assert np.all(outputs == 0.0) and not np.any(np.signbit(outputs))
        _assert_bit_equal(outputs, _loop_forward(model, columns, features))


class TestEnumerateWeightspace:
    def test_toy_table_shape_and_optimum(self):
        model, table, data = _toy_setup(n=400)
        result = enumerate_weightspace(model, table, data, data, "mse")
        assert len(result) == 64
        best = result.optimum_index()
        assert result.train_accuracy[best] == 1.0
        # every loss-minimal configuration classifies the train set perfectly
        minima = np.abs(result.losses - result.losses[best]) < 1e-9
        assert np.all(result.train_accuracy[minima] == 1.0)

    def test_binary_perfect_fraction(self):
        model, table, train, test = _binary_setup()
        result = enumerate_weightspace(model, table, train, test, "linear-binary")
        assert len(result) == 1024
        assert result.perfect_fraction() == pytest.approx(2 / 1024)

    def test_linear_binary_loss_is_fp_minus_tp(self):
        model, table, train, _ = _binary_setup()
        result = enumerate_weightspace(model, table, train, train, "linear-binary")
        outputs = forward_configs(model, table.decode_columns(), train.features)
        fp = np.sum((outputs == 1.0) & (train.labels == 0), axis=1)
        tp = np.sum((outputs == 1.0) & (train.labels == 1), axis=1)
        assert np.array_equal(result.losses, (fp - tp).astype(float))

    def test_test_set_that_is_the_train_set_is_forwarded_once(self, monkeypatch):
        import aqtrain.nn as nn_module

        calls = []
        original = nn_module.forward_configs

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(nn_module, "forward_configs", counting)
        model, table, data = _toy_setup(n=40)
        shared = enumerate_weightspace(model, table, data, data, "mse")
        assert len(calls) == 1
        assert shared.test_accuracy is shared.train_accuracy
        copy = circle_dataset(40, seed=0)
        separate = enumerate_weightspace(model, table, data, copy, "mse")
        assert len(calls) == 3
        assert np.array_equal(shared.test_accuracy, separate.test_accuracy)
        assert np.array_equal(shared.losses, separate.losses)

    def test_register_cap(self):
        model = toy_two_layer_model()
        table = EncodingTable((f"v{i}", Grid(1, i, 0, 1)) for i in range(21))
        data = circle_dataset(5, seed=0)
        with pytest.raises(ValueError):
            enumerate_weightspace(model, table, data, data, "mse")


class TestGroupDegenerate:
    def test_uniform_state_probabilities_match_degeneracy(self):
        model, table, data = _toy_setup(n=100)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        probe = np.vstack([data.features, grid_probe()])
        classes = group_degenerate(model, table, np.full(64, 1 / 64), probe, losses)
        assert sum(c.degeneracy for c in classes) == 64
        for cls in classes:
            assert cls.probability == pytest.approx(cls.degeneracy / 64)
        assert sum(c.probability for c in classes) == pytest.approx(1.0)

    def test_training_outputs_reused_for_the_probe(self, monkeypatch):
        import aqtrain.nn as nn_module

        model, table, data = _toy_setup(n=100)
        weightspace = enumerate_weightspace(model, table, data, data, "mse")
        amplitudes = np.random.default_rng(4).normal(size=64)
        probabilities = np.abs(amplitudes / np.linalg.norm(amplitudes)) ** 2
        probe = np.vstack([data.features, grid_probe(side=7)])
        full = group_degenerate(model, table, probabilities, probe, weightspace.losses)

        forwarded = []
        original = nn_module.forward_configs

        def counting(model, columns, features):
            forwarded.append(len(features))
            return original(model, columns, features)

        monkeypatch.setattr(nn_module, "forward_configs", counting)
        reused = group_degenerate(
            model,
            table,
            probabilities,
            grid_probe(side=7),
            weightspace.losses,
            leading_outputs=weightspace.train_outputs,
        )
        assert forwarded == [49]
        assert reused == full

    def test_sign_flip_partners_share_a_class(self):
        model, table, data = _toy_setup(n=100)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        probe = grid_probe(side=11)
        for index in (0, 9, 33):
            partner = index ^ 0b000011  # flip w1_11 and w1_12 together
            one = group_degenerate(model, table, np.eye(64)[index], probe, losses)
            two = group_degenerate(model, table, np.eye(64)[partner], probe, losses)
            top_one = max(one, key=lambda c: c.probability)
            top_two = max(two, key=lambda c: c.probability)
            assert top_one.prediction_hash == top_two.prediction_hash
            assert top_one.energy == top_two.energy

    def test_classes_sorted_by_probability(self):
        model, table, data = _toy_setup(n=100)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        classes = group_degenerate(model, table, np.eye(64)[7], grid_probe(side=5), losses)
        probs = [c.probability for c in classes]
        assert probs == sorted(probs, reverse=True)
        assert isinstance(classes[0], DegeneracyClass)
        # all the probability sits in the class containing index 7
        assert classes[0].probability == pytest.approx(1.0)
        from aqtrain.encodings import report_bitstring

        assert classes[0].bitstring == report_bitstring(classes[0].representative_index, 6)

    def test_near_ties_rank_by_representative_index(self):
        # equal probabilities up to rounding noise must not reorder classes
        model, table, data = _toy_setup(n=20)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        amplitudes = np.zeros(64)
        amplitudes[[0, 1]] = np.sqrt(0.5)
        amplitudes[1] = np.nextafter(amplitudes[1], 1.0)  # index 1 wins by ~1e-16
        classes = group_degenerate(model, table, amplitudes**2, grid_probe(5), losses)
        first, second = classes[:2]
        assert (first.representative_index, second.representative_index) == (0, 1)
        assert 0 < second.probability - first.probability < 1e-15

    def test_register_mismatch_rejected(self):
        model, table, data = _toy_setup(n=20)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        with pytest.raises(ValueError):
            group_degenerate(model, table, np.full(32, 1 / 32), grid_probe(5), losses)

    def test_empty_probe_rejected(self):
        # an empty row has no bytes to key by, so it would silently give no classes
        model, table, data = _toy_setup(n=20)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        with pytest.raises(ValueError, match="at least one probe row"):
            group_degenerate(model, table, np.full(64, 1 / 64), np.empty((0, 2)), losses)

    @staticmethod
    def _dict_grouping(model, table, probabilities, probe, energies):
        """Oracle: a dict keyed by each configuration's tuple of rounded outputs.

        Tuples compare values, so -0.0 and 0.0 fall into one key with no
        canonicalisation.  Probabilities are added in basis order.
        """
        columns = table.decode_columns()
        outputs = forward_configs(model, columns, probe)
        rounded = np.round(outputs, PREDICTION_DECIMALS)
        members = {}
        for index, row in enumerate(rounded):
            members.setdefault(tuple(row.tolist()), []).append(index)
        classes = []
        for indices in members.values():
            representative = indices[0]
            total = 0.0
            for index in indices:
                total += probabilities[index]
            key = rounded[representative] + 0.0
            classes.append(
                DegeneracyClass(
                    representative_index=representative,
                    bitstring=report_bitstring(representative, table.total_qubits),
                    weights={name: float(column[representative]) for name, column in columns.items()},
                    probability=float(total),
                    energy=float(energies[representative]),
                    degeneracy=len(indices),
                    prediction_hash=hashlib.sha256(key.tobytes()).hexdigest()[:16],
                )
            )
        classes.sort(key=lambda c: (-round(c.probability, PROBABILITY_DECIMALS), c.representative_index))
        return classes

    @staticmethod
    def _random_probabilities(num_qubits, seed):
        rng = np.random.default_rng(seed)
        amplitudes = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
        return np.abs(amplitudes / np.linalg.norm(amplitudes)) ** 2

    def test_matches_dict_grouping_on_the_toy_probe(self):
        model, table, data = _toy_setup(n=100)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        probabilities = self._random_probabilities(6, seed=12)
        probe = np.vstack([data.features, grid_probe(side=7)])
        classes = group_degenerate(model, table, probabilities, probe, losses)
        expected = self._dict_grouping(model, table, probabilities, probe, losses)
        assert max(c.degeneracy for c in expected) > 1
        assert len(classes) == len(expected)
        for got, want in zip(classes, expected):
            assert got.representative_index == want.representative_index
            assert got.degeneracy == want.degeneracy
            assert got.bitstring == want.bitstring
            assert got.weights == want.weights
            assert got.probability == want.probability  # exact: same additions, same order
            assert got.energy == want.energy
            assert got.prediction_hash == want.prediction_hash

    @staticmethod
    def _void_key_partition(model, table, probe):
        """Oracle: np.unique over one np.void key per rounded row, a sort of
        the rows as byte strings."""
        outputs = forward_configs(model, table.decode_columns(), probe)
        rounded = np.round(outputs, PREDICTION_DECIMALS) + 0.0
        keys = rounded.view(np.dtype((np.void, rounded.itemsize * rounded.shape[1]))).ravel()
        _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
        return first, inverse, counts

    def test_binary_model_matches_dict_grouping_and_void_key_partition(self):
        model, table, train, test = _binary_setup()
        losses = enumerate_weightspace(model, table, train, test, "linear-binary").losses
        probe = pixel_images().features
        probabilities = self._random_probabilities(10, seed=21)
        classes = group_degenerate(model, table, probabilities, probe, losses)
        assert classes == self._dict_grouping(model, table, probabilities, probe, losses)
        first, inverse, counts = self._void_key_partition(model, table, probe)
        assert max(counts) > 1
        totals = np.bincount(inverse, weights=probabilities)
        expected = {int(i): (int(n), float(t)) for i, n, t in zip(first, counts, totals)}
        assert {c.representative_index: (c.degeneracy, c.probability) for c in classes} == expected

    def test_negative_zero_and_duplicate_rows_share_a_class(self):
        layer = LayerSpec(weights=(("a", "b", "c"),), biases=(0.0,), activation=Identity())
        model = ModelSpec(input_dim=3, layers=(layer,))
        table = model_encoding_table(model, "binary01")
        # the first probe row gives -1e-12 * a, which rounds to -0.0 where a = 1
        # and is 0.0 where a = 0; the second gives b + c, the same for (1, 0)
        # and (0, 1), so those configurations have exactly duplicate rows
        probe = np.array([[-1e-12, 0.0, 0.0], [0.0, 1.0, 1.0]])
        first = np.round(forward_configs(model, table.decode_columns(), probe), PREDICTION_DECIMALS)[:, 0]
        assert np.all(first == 0.0) and 0 < np.count_nonzero(np.signbit(first)) < 8
        probabilities = self._random_probabilities(3, seed=5)
        energies = np.arange(8.0)
        classes = group_degenerate(model, table, probabilities, probe, energies)
        assert sorted(c.degeneracy for c in classes) == [2, 2, 4]
        assert classes == self._dict_grouping(model, table, probabilities, probe, energies)


class TestSamplePool:
    def test_basis_state_sampling_is_constant(self):
        model, table, data = _toy_setup(n=50)
        ws = enumerate_weightspace(model, table, data, data, "mse")
        indices, train_acc, test_acc = sample_pool(np.eye(64)[9], ws, 25, seed=1)
        assert np.all(indices == 9)
        assert np.all(train_acc == ws.train_accuracy[9])

    def test_seeded_reproducibility(self):
        model, table, data = _toy_setup(n=50)
        ws = enumerate_weightspace(model, table, data, data, "mse")
        uniform = np.full(64, 1 / 64)
        first = sample_pool(uniform, ws, 40, seed=7)
        second = sample_pool(uniform, ws, 40, seed=7)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_shot_count_validated(self):
        model, table, data = _toy_setup(n=20)
        ws = enumerate_weightspace(model, table, data, data, "mse")
        with pytest.raises(ValueError):
            sample_pool(np.full(64, 1 / 64), ws, 0, seed=0)


class TestAccuracyVsRuns:
    def test_identical_pool_gives_flat_zero_std_curves(self):
        train = np.full(100, 0.8)
        test = np.full(100, 0.7)
        rows = accuracy_vs_runs(train, test, [1, 2, 4, 8], repetitions=50, seed=3)
        assert np.allclose(rows[:, 1], 0.8) and np.allclose(rows[:, 3], 0.7)
        assert np.allclose(rows[:, 2], 0.0) and np.allclose(rows[:, 4], 0.0)

    def test_single_run_mean_matches_pool_average(self):
        rng = np.random.default_rng(11)
        train = rng.uniform(0.5, 1.0, size=200)
        test = rng.uniform(0.5, 1.0, size=200)
        rows = accuracy_vs_runs(train, test, [1], repetitions=4000, seed=5)
        assert rows[0, 1] == pytest.approx(train.mean(), abs=0.01)
        assert rows[0, 3] == pytest.approx(test.mean(), abs=0.01)

    def test_selection_improves_with_more_runs(self):
        rng = np.random.default_rng(23)
        train = rng.uniform(0.4, 1.0, size=500)
        rows = accuracy_vs_runs(train, train, [1, 4, 16], repetitions=1500, seed=9)
        assert rows[2, 1] > rows[1, 1] > rows[0, 1]

    def test_first_drawn_wins_ties(self):
        # reproduce the documented draw scheme: a PCG64 stream of indices,
        # argmax over the drawn training accuracies picking the first maximum
        train = np.array([1.0, 1.0])
        test = np.array([0.0, 1.0])
        rows = accuracy_vs_runs(train, test, [3], repetitions=400, seed=21)
        rng = np.random.default_rng(21)
        draws = rng.integers(0, 2, size=(400, 3))
        expected = test[draws[:, 0]]
        assert rows[0, 3] == pytest.approx(expected.mean())

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            accuracy_vs_runs([], [], [1], repetitions=5, seed=0)
        with pytest.raises(ValueError):
            accuracy_vs_runs([1.0], [1.0], [0], repetitions=5, seed=0)
        with pytest.raises(ValueError):
            accuracy_vs_runs([1.0], [1.0], [1], repetitions=0, seed=0)


class TestTermStats:
    def test_toy_counts_and_bounds(self):
        model, table, data = _toy_setup(n=50)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        stats = term_stats(model, data, losses)
        assert stats.network_term_count == 7
        assert stats.network_degree == 3
        assert stats.generic_bound == 16  # fan-in 2, degree 2, two layers
        assert stats.diagonal_bound == 64
        assert stats.within_bounds

    def test_binary_counts_and_bounds(self):
        model, table, train, test = _binary_setup()
        losses = enumerate_weightspace(model, table, train, test, "linear-binary").losses
        stats = term_stats(model, train, losses)
        assert stats.network_degree <= 10
        assert stats.hamiltonian_term_count <= 1024
        assert stats.generic_bound == 4**16
        assert stats.diagonal_bound == 1024
        assert stats.within_bounds

    def test_toy_term_count_matches_the_symbolic_compiler(self):
        # the Walsh count of the enumerated losses against the terms the
        # paper's construction compiles
        model, table, data = _toy_setup(n=200)
        losses = enumerate_weightspace(model, table, data, data, "mse").losses
        compiled = compile_hamiltonian(build_loss(model, data, "mse"), table)
        assert term_stats(model, data, losses).hamiltonian_term_count == compiled.num_terms == 11

    def test_binary_term_count_matches_the_z_string_expansion(self):
        model, table, train, test = _binary_setup()
        losses = enumerate_weightspace(model, table, train, test, "linear-binary").losses
        count = term_stats(model, train, losses).hamiltonian_term_count
        assert count == PauliPolynomial.from_diagonal(losses).num_terms == 1024


def _per_sample_oracle(model, features):
    outputs = [symbolic_forward(model, x)[0] for x in features]
    return [o.term_count for o in outputs], [o.degree for o in outputs]


class TestPerSampleTerms:
    """The one-pass evaluation against one symbolic forward pass per row."""

    EDGE_ROWS = ((0.0, 0.0), (0.0, 0.5), (0.3, 0.0), (1.0, -1.0), (1e-7, 1e-7), (1e-13, 0.4))

    def _assert_rows_match(self, model, features):
        counts, degrees = per_sample_terms(model, features)
        expected_counts, expected_degrees = _per_sample_oracle(model, features)
        assert counts.tolist() == expected_counts
        assert degrees.tolist() == expected_degrees

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("make", [circle_dataset, band_dataset], ids=["circle", "band"])
    def test_toy_rows_match_symbolic_forward(self, make, seed):
        self._assert_rows_match(toy_two_layer_model(), make(200, seed).features)

    def test_pixel_images_match_symbolic_forward(self):
        images = pixel_images().features
        assert len(images) == 16
        for image in images:
            self._assert_rows_match(binary_pixel_model(), image[None, :])
        self._assert_rows_match(binary_pixel_model(), images)

    def test_edge_rows_match_symbolic_forward(self):
        features = np.array(self.EDGE_ROWS)
        self._assert_rows_match(toy_two_layer_model(), features)
        counts, degrees = per_sample_terms(toy_two_layer_model(), features)
        # an all-zero input leaves only the constant bias
        assert (counts[0], degrees[0]) == (1, 0)

    def test_fourth_powers_match_symbolic_forward(self):
        # a Square layer over a Square layer raises each input to the 4th
        # power; at 1e-4 that power falls below DROP_TOLERANCE
        first = LayerSpec(weights=(("a", "b"), ("c", 0.5)), biases=(0.0, "e"), activation=Square())
        second = LayerSpec(weights=(("f", "g"),), biases=("h",), activation=Square())
        model = ModelSpec(input_dim=2, layers=(first, second))
        rows = [(0.0, 0.0), (-1.0, 0.5), (2.0, -3.0), (1e-4, 1e-4), (1e-4, 0.0), (0.0, -1e-4), (-0.3, 1e-2)]
        self._assert_rows_match(model, np.array(rows))
        counts, _ = per_sample_terms(model, [(1e-4, 0.0), (1.0, 0.0)])
        assert counts[0] < counts[1]

    def test_zero_polynomial_has_no_terms_and_degree_zero(self):
        layer = LayerSpec(weights=(("a", "b"),), biases=(0.0,), activation=Identity())
        model = ModelSpec(input_dim=2, layers=(layer,))
        counts, degrees = per_sample_terms(model, [(0.0, 0.0), (2.0, 0.0)])
        assert counts.tolist() == [0, 1]
        assert degrees.tolist() == [0, 1]

    def test_multiplications_do_not_grow_with_the_sample_count(self, monkeypatch):
        model, table, _ = _toy_setup(n=10)
        losses = np.ones(2**table.total_qubits)
        original = VarPolynomial.__mul__
        calls = []

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(VarPolynomial, "__mul__", counting)
        counts = []
        for n in (10, 1000):
            calls.clear()
            term_stats(model, circle_dataset(n, seed=0), losses)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("stage,most", [("term_stats", 173), ("build_loss", 305)])
    def test_multiplied_term_pairs_stay_bounded(self, monkeypatch, stage, most):
        # a timing-free cost guard on the binary model and the shipped split:
        # the term pairs every polynomial product multiplies, summed
        model, table, train, _ = _binary_setup()
        original = VarPolynomial.__mul__
        pairs = []

        def counting(self, other):
            if isinstance(other, VarPolynomial):
                pairs.append(self.term_count * other.term_count)
            return original(self, other)

        monkeypatch.setattr(VarPolynomial, "__mul__", counting)
        if stage == "term_stats":
            term_stats(model, train, np.ones(2**table.total_qubits))
        else:
            build_loss(model, train, "linear-binary")
        assert 0 < sum(pairs) <= most

    def test_weight_named_like_an_input_is_rejected(self):
        layer = LayerSpec(weights=(("x_0", "w"),), biases=(0.0,), activation=Square())
        model = ModelSpec(input_dim=2, layers=(layer,))
        data = circle_dataset(5, seed=0)
        with pytest.raises(ValueError, match="x_0"):
            term_stats(model, data, np.ones(4))

    def test_feature_width_validated(self):
        with pytest.raises(ValueError):
            per_sample_terms(toy_two_layer_model(), np.zeros((3, 3)))
