"""Tests for the relaxed classical training baseline."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from aqtrain import classical
from aqtrain.classical import (
    Adam,
    RelaxedModel,
    gradient,
    relaxed_loss,
    train_pool,
)
from aqtrain.datasets import Dataset, balanced_pixel_split
from aqtrain.nn import (
    LayerSpec,
    ModelSpec,
    StepMajority,
    binary_pixel_model,
    forward_configs,
    toy_two_layer_model,
)

# true column-detector weights in declaration order
PERFECT = np.array([1, 0, 1, 0, 0, 1, 0, 1, 1, 1], dtype=float)


def _setup(**kwargs):
    model = binary_pixel_model()
    relaxed = RelaxedModel(model, **kwargs)
    train, test = balanced_pixel_split(seed=0)
    return model, relaxed, train, test


def _empty_dataset():
    return Dataset(np.zeros((0, 4)), np.zeros(0, dtype=int))


def _majority_stack(*widths):
    """Majority layers through ``widths``, the input's first; layers named a, b, c, ..."""
    layers = []
    for name, fan_in, fan_out in zip("abcdefgh", widths, widths[1:]):
        weights = tuple(
            tuple(f"{name}_{i}{j}" for j in range(1, fan_in + 1))
            for i in range(1, fan_out + 1)
        )
        layers.append(LayerSpec(weights=weights, biases=(0.0,) * fan_out, activation=StepMajority()))
    return ModelSpec(input_dim=widths[0], layers=tuple(layers))


def _three_layer_model():
    """4 pixels -> 3 majority units -> 2 majority units -> majority output."""
    return _majority_stack(4, 3, 2, 1)


def _wide_model():
    """4 pixels -> 6 majority units -> 5 majority units -> majority output."""
    return _majority_stack(4, 6, 5, 1)


def _reference_gradient(relaxed, dataset, flat):
    """Gradient of one run, sample by sample, written out from the loss."""
    k = relaxed.steepness
    matrices, offset = [], 0
    for layer in relaxed.model.layers:
        count = layer.fan_out * layer.fan_in
        matrices.append(flat[offset : offset + count].reshape(layer.fan_out, layer.fan_in))
        offset += count
    grads = [np.zeros_like(m) for m in matrices]
    for x, label in zip(dataset.features, dataset.labels):
        outputs = [x]
        for layer, weight in zip(relaxed.model.layers, matrices):
            u = k * (weight @ outputs[-1] - 0.5 * layer.fan_in)
            outputs.append(1.0 / (1.0 + np.exp(-u)))
        upstream = np.array([-1.0 if label == 1 else 1.0])
        for position in reversed(range(len(matrices))):
            z = outputs[position + 1]
            local = upstream * k * z * (1.0 - z)
            grads[position] += np.outer(local, outputs[position])
            upstream = matrices[position].T @ local
    data = np.concatenate([g.ravel() for g in grads])
    return data + relaxed.penalty * (4 * flat**3 - 6 * flat**2 + 2 * flat)


class TestRelaxedModel:
    def test_mirrors_binary_architecture(self):
        model, relaxed, train, _ = _setup()
        assert relaxed.num_parameters == 10
        shapes = [m.shape for m in relaxed.split(np.zeros(10))]
        assert shapes == [(2, 4), (1, 2)]

    def test_rejects_polynomial_activations(self):
        with pytest.raises(ValueError):
            RelaxedModel(toy_two_layer_model())

    def test_rejects_wrong_parameter_count(self):
        _, relaxed, _, _ = _setup()
        with pytest.raises(ValueError):
            relaxed.split(np.zeros(9))

    def test_penalty_vanishes_at_binary_weights(self):
        model, relaxed, train, _ = _setup(penalty=7.0)
        free = RelaxedModel(model, penalty=0.0)
        assert relaxed_loss(relaxed, train, PERFECT) == pytest.approx(
            relaxed_loss(free, train, PERFECT)
        )

    def test_penalty_at_half(self):
        model, relaxed, train, _ = _setup(penalty=3.0)
        free = RelaxedModel(model, penalty=0.0)
        halves = np.full(10, 0.5)
        gap = relaxed_loss(relaxed, train, halves) - relaxed_loss(free, train, halves)
        assert gap == pytest.approx(3.0 * 10 / 16)

    def test_steep_sigmoid_approaches_binary_loss(self):
        # A pre-activation exactly at threshold sits at sigmoid value 1/2 for
        # every steepness, so the binary limit is only reached where all
        # majority sums have a margin: identical all-ones units (layer-two
        # sums 0 or 2, never the threshold 1) on images with pixel counts
        # away from 2.
        model = binary_pixel_model()
        features = np.array(
            [[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=float
        )
        data = Dataset(features, np.array([0, 0, 1, 1]))
        weights = np.concatenate([np.ones(8), np.ones(2)])
        exact = -2.0  # two true positives, no false positives
        losses = {
            k: relaxed_loss(RelaxedModel(model, steepness=k, penalty=0.0), data, weights)
            for k in (10.0, 100.0)
        }
        assert abs(losses[100.0] - exact) < 1e-8
        assert abs(losses[100.0] - exact) < abs(losses[10.0] - exact)


class TestGradient:
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_finite_differences(self, trial):
        _, relaxed, train, _ = _setup()
        rng = np.random.default_rng(50 + trial)
        weights = rng.uniform(-0.2, 1.2, 10)
        grad = gradient(relaxed, train, weights)
        step = 1e-5
        for i in range(10):
            offset = np.zeros(10)
            offset[i] = step
            fd = (
                relaxed_loss(relaxed, train, weights + offset)
                - relaxed_loss(relaxed, train, weights - offset)
            ) / (2 * step)
            scale = max(abs(grad[i]), abs(fd), 1e-8)
            assert abs(grad[i] - fd) / scale <= 1e-4

    @pytest.mark.parametrize("trial", range(3))
    def test_three_layer_matches_finite_differences(self, trial):
        relaxed = RelaxedModel(_three_layer_model())
        train, _ = balanced_pixel_split(seed=0)
        rng = np.random.default_rng(80 + trial)
        size = relaxed.num_parameters
        weights = rng.uniform(-0.2, 1.2, size)
        grad = gradient(relaxed, train, weights)
        step = 1e-5
        for i in range(size):
            offset = np.zeros(size)
            offset[i] = step
            fd = (
                relaxed_loss(relaxed, train, weights + offset)
                - relaxed_loss(relaxed, train, weights - offset)
            ) / (2 * step)
            scale = max(abs(grad[i]), abs(fd), 1e-8)
            assert abs(grad[i] - fd) / scale <= 1e-4

    @pytest.mark.parametrize("penalty", [0.0, 50.0])
    @pytest.mark.parametrize("build", [binary_pixel_model, _three_layer_model, _wide_model])
    def test_batch_matches_per_run_reference(self, build, penalty):
        # five runs through the shared-input GEMM and the stacked products
        # against each run's sample-by-sample backpropagation; the three-layer
        # model also covers the middle layer's delta.  A saturated sigmoid is
        # accurate to ~1e-16 absolute, not relative, in either closed form, so
        # entries below 1 are held to 1e-12 absolute.
        relaxed = RelaxedModel(build(), penalty=penalty)
        train, _ = balanced_pixel_split(seed=0)
        weights = np.random.default_rng(31).uniform(-0.2, 1.2, (5, relaxed.num_parameters))
        batched = gradient(relaxed, train, weights)
        assert batched.shape == weights.shape
        for row, flat in zip(batched, weights):
            reference = _reference_gradient(relaxed, train, flat)
            np.testing.assert_allclose(row, reference, rtol=1e-12, atol=1e-12)

    def test_rejects_labels_other_than_zero_one(self):
        _, relaxed, train, _ = _setup()
        signed = Dataset(train.features, np.where(train.labels == 1, 1, -1))
        with pytest.raises(ValueError, match="0/1 labels"):
            gradient(relaxed, signed, np.full(10, 0.5))
        with pytest.raises(ValueError, match="0/1 labels"):
            relaxed_loss(relaxed, signed, np.full(10, 0.5))

    @pytest.mark.parametrize("labels", [[2, -2] * 5, [0, 1, 2] * 3 + [0]], ids=["pm2", "012"])
    def test_rejects_labels_outside_zero_one(self, labels):
        _, relaxed, train, _ = _setup()
        relabelled = Dataset(train.features, np.array(labels))
        with pytest.raises(ValueError, match="relaxed loss requires 0/1 labels"):
            relaxed_loss(relaxed, relabelled, np.full(10, 0.5))

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_penalty_stationary_points(self, value):
        _, relaxed, _, _ = _setup()
        weights = np.full(10, value)
        grad = gradient(relaxed, _empty_dataset(), weights)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_empty_dataset_leaves_penalty_gradient(self):
        _, relaxed, _, _ = _setup(penalty=2.0)
        rng = np.random.default_rng(9)
        weights = rng.uniform(0, 1, 10)
        grad = gradient(relaxed, _empty_dataset(), weights)
        expected = 2.0 * (4 * weights**3 - 6 * weights**2 + 2 * weights)
        assert np.allclose(grad, expected, atol=1e-12)

    @pytest.mark.parametrize("build", [binary_pixel_model, _three_layer_model])
    def test_saturated_sigmoids_stay_finite(self, build):
        # at |w| = 200 the sigmoid argument reaches thousands, where exp(-a)
        # overflows to inf and the sigmoid is exactly 0 or 1
        relaxed = RelaxedModel(build())
        train, _ = balanced_pixel_split(seed=0)
        signs = np.random.default_rng(4).choice([-1.0, 1.0], (3, relaxed.num_parameters))
        weights = 200.0 * signs
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            losses = relaxed_loss(relaxed, train, weights)
            grads = gradient(relaxed, train, weights)
            steep = RelaxedModel(build(), steepness=1000.0)
            pool = train_pool(steep, train, range(3), n_steps=5)
        assert np.isfinite(losses).all() and np.isfinite(grads).all()
        assert np.isfinite(pool).all()
        for row, flat in zip(grads, weights):
            with np.errstate(over="ignore"):
                reference = _reference_gradient(relaxed, train, flat)
            np.testing.assert_allclose(row, reference, rtol=1e-12, atol=1e-12)

    def test_non_finite_weights_raise(self):
        _, relaxed, train, _ = _setup()
        weights = np.full(10, 0.5)
        weights[3] = np.inf
        with pytest.raises(RuntimeError):
            gradient(relaxed, train, weights)

    @pytest.mark.parametrize("function", [relaxed_loss, gradient])
    def test_infinite_weight_raises_without_a_numpy_warning(self, function):
        # inf times a zero pixel is NaN; the finite check reports it, not numpy
        _, relaxed, train, _ = _setup()
        weights = np.full(10, 0.5)
        weights[3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="^non-finite"):
                function(relaxed, train, weights)

    @pytest.mark.parametrize("function", [relaxed_loss, gradient])
    def test_huge_weight_raises_without_a_numpy_warning(self, function):
        # the binarization penalty w**2 (w - 1)**2 overflows at a finite weight
        _, relaxed, train, _ = _setup()
        weights = np.full(10, 0.5)
        weights[3] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError, match="^non-finite"):
                function(relaxed, train, weights)


class TestAdam:
    def test_zero_gradient_keeps_weights(self):
        state = Adam.initial(4)
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        updated = weights.copy()
        state.update(updated, np.zeros(4))
        assert np.array_equal(updated, weights)
        assert state.step == 1

    def test_first_step_moves_by_learning_rate(self):
        state = Adam.initial(1, learning_rate=0.05)
        grads = np.array([3.7])
        updated = np.array([1.0])
        state.update(updated, grads)
        # bias correction makes the first step lr * g / (|g| + eps)
        assert updated[0] == pytest.approx(1.0 - 0.05, rel=1e-6)

    def test_moment_update_formulas(self):
        state = Adam.initial(1)
        grads = np.array([2.0])
        state.update(np.array([0.0]), grads)
        assert state.first_moment[0] == pytest.approx(0.1 * 2.0)
        assert state.second_moment[0] == pytest.approx(0.001 * 4.0)

    def test_converges_on_quadratic(self):
        # f(w) = (w - 3)^2 has gradient 2 (w - 3)
        weights = np.array([0.0])
        state = Adam.initial(1, learning_rate=0.05)
        for _ in range(2000):
            state.update(weights, 2.0 * (weights - 3.0))
        assert abs(weights[0] - 3.0) <= 1e-4


class TestTrainRun:
    def test_seeded_reproducibility(self):
        _, relaxed, train, _ = _setup()
        one = train_pool(relaxed, train, [11])
        two = train_pool(relaxed, train, [11])
        assert one.shape == (2, 1, 10)
        assert np.array_equal(one, two)

    def test_returns_initial_and_trained_weights(self):
        _, relaxed, train, _ = _setup()
        initial, trained = train_pool(relaxed, train, [4, 5, 6], n_steps=3)
        for row, seed in enumerate((4, 5, 6)):
            drawn = np.random.default_rng(seed).uniform(0.0, 1.0, 10)
            assert np.array_equal(initial[row], drawn)
        assert not np.array_equal(trained, initial)

    def test_pool_slices_equal_single_runs(self):
        _, relaxed, train, _ = _setup()
        pool = train_pool(relaxed, train, [4, 5, 6], n_steps=120)
        for row, seed in enumerate((4, 5, 6)):
            single = train_pool(relaxed, train, [seed], n_steps=120)
            assert np.array_equal(single[:, 0], pool[:, row])

    def test_large_pool_slices_equal_single_runs(self, monkeypatch):
        # 2 * 257 first-layer rows go through BLAS row blocking in one GEMM;
        # a single run is a 2-row GEMM.  One worker, so that no block split
        # keeps the 257 columns out of a single GEMM.
        monkeypatch.setattr(classical, "_usable_cores", lambda: 1)
        _, relaxed, train, _ = _setup()
        pool = train_pool(relaxed, train, range(257), n_steps=30)
        for seed in (0, 128, 256):
            single = train_pool(relaxed, train, [seed], n_steps=30)
            assert np.array_equal(single[:, 0], pool[:, seed])

    @pytest.mark.parametrize("runs", [1, 2, 257])
    def test_wide_model_pool_slices_equal_single_runs(self, runs, monkeypatch):
        # the deeper layers' contractions sum over 6 and 5 units, and over the
        # samples, in the same order for every pool size; one worker, so that
        # the whole pool is one block
        monkeypatch.setattr(classical, "_usable_cores", lambda: 1)
        relaxed = RelaxedModel(_wide_model())
        train, _ = balanced_pixel_split(seed=0)
        pool = train_pool(relaxed, train, range(runs), n_steps=30)
        for seed in sorted({0, runs // 2, runs - 1}):
            single = train_pool(relaxed, train, [seed], n_steps=30)
            assert np.array_equal(single[:, 0], pool[:, seed])

    @pytest.mark.parametrize("build", [binary_pixel_model, _three_layer_model])
    def test_pool_matches_plain_loop_oracle(self, build):
        # each run retrained on its own: the sample-by-sample reference
        # gradient and Adam as written in Kingma & Ba (ICLR 2015)
        relaxed = RelaxedModel(build())
        train, _ = balanced_pixel_split(seed=0)
        n_steps, learning_rate, beta1, beta2, epsilon = 25, 0.05, 0.9, 0.999, 1e-8
        _, pool = train_pool(relaxed, train, range(5), n_steps=n_steps)
        for seed, trained in enumerate(pool):
            weights = np.random.default_rng(seed).uniform(0.0, 1.0, relaxed.num_parameters)
            first = np.zeros_like(weights)
            second = np.zeros_like(weights)
            for step in range(1, n_steps + 1):
                grads = _reference_gradient(relaxed, train, weights)
                first = beta1 * first + (1.0 - beta1) * grads
                second = beta2 * second + (1.0 - beta2) * grads**2
                first_hat = first / (1.0 - beta1**step)
                second_hat = second / (1.0 - beta2**step)
                weights = weights - learning_rate * first_hat / (np.sqrt(second_hat) + epsilon)
            np.testing.assert_allclose(trained, weights, rtol=0.0, atol=1e-12)
            assert np.array_equal(trained >= 0.5, weights >= 0.5)

    def test_rejects_labels_before_any_step(self, monkeypatch):
        _, relaxed, train, _ = _setup()
        signed = Dataset(train.features, np.where(train.labels == 1, 1, -1))
        steps = []

        def counting(*args, **kwargs):
            steps.append(1)
            return batch_gradient(*args, **kwargs)

        batch_gradient = classical._Batch.gradient
        monkeypatch.setattr(classical._Batch, "gradient", counting)
        with pytest.raises(ValueError, match="0/1 labels"):
            train_pool(relaxed, signed, range(3), n_steps=5)
        assert steps == []
        train_pool(relaxed, train, range(3), n_steps=5)
        assert len(steps) == 5

    def test_weights_binarize(self):
        _, relaxed, train, _ = _setup()
        _, weights = train_pool(relaxed, train, range(60))
        near = np.minimum(np.abs(weights), np.abs(weights - 1.0)) <= 0.1
        assert near.mean() >= 0.90

    def test_binarized_accuracy_spread(self):
        model, relaxed, train, test = _setup()
        _, weights = train_pool(relaxed, train, range(40))
        binary = np.where(weights >= 0.5, 1.0, 0.0)
        outputs = forward_configs(model, dict(zip(model.variable_names, binary.T)), train.features)
        train_acc = np.mean(outputs == train.labels, axis=1)
        assert np.all((0.0 <= train_acc) & (train_acc <= 1.0))
        # local minima: decent but imperfect training accuracy overall
        assert 0.4 <= train_acc.mean() <= 0.9
        assert train_acc.max() < 1.0

    def test_non_finite_gradient_raised_in_one_block(self, monkeypatch):
        # one block checks its weights once, after the last step
        monkeypatch.setattr(classical, "_usable_cores", lambda: 1)
        forks = _count_forks(monkeypatch)
        _, relaxed, train, _ = _setup()
        with pytest.raises(RuntimeError, match="non-finite gradient"):
            train_pool(relaxed, train, range(7), n_steps=5, learning_rate=1e200)
        assert forks == []

    def test_rejects_empty_seed_list(self):
        _, relaxed, train, _ = _setup()
        with pytest.raises(ValueError):
            train_pool(relaxed, train, [])
        with pytest.raises(ValueError):
            train_pool(relaxed, train, [0], n_steps=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seeds_outside_uint64(self, seed, monkeypatch):
        _, relaxed, train, _ = _setup()
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            train_pool(relaxed, train, [0, seed, 1], n_steps=2)
        assert forks == []


class TestSeededUniforms:
    """The vectorized draw against numpy's own seeded generators."""

    @staticmethod
    def _oracle(seeds, count):
        return np.stack([np.random.default_rng(s).uniform(0.0, 1.0, count) for s in seeds])

    @pytest.mark.parametrize("count", [1, 10, 17])
    def test_bit_equal_to_seeded_generators(self, count):
        # every 32-bit word boundary of the seed: one word, two, and the top bit
        seeds = list(range(4096)) + [2**32 - 1, 2**32, 2**63, 2**64 - 1]
        drawn = classical.seeded_uniforms(seeds, count)
        assert drawn.shape == (len(seeds), count)
        assert np.array_equal(drawn, self._oracle(seeds, count))

    def test_seeds_out_of_order_and_repeated(self):
        seeds = [2**64 - 1, 7, 3, 7, 2**32, 0, 3, 2**64 - 1]
        drawn = classical.seeded_uniforms(np.array(seeds, dtype=np.uint64), 10)
        assert np.array_equal(drawn, self._oracle(seeds, 10))


def _count_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _OddValueError(ValueError):
    pass


class TestWorkers:
    """The pool split over forked workers, one contiguous block of seeds each."""

    def test_three_workers_equal_one(self, monkeypatch):
        _, relaxed, train, _ = _setup()
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(classical, "_usable_cores", lambda: 1)
        alone = train_pool(relaxed, train, range(7), n_steps=40)
        assert forks == []
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        split = train_pool(relaxed, train, range(7), n_steps=40)
        assert len(forks) == 2
        assert split.shape == (2, 7, 10)
        assert np.array_equal(alone, split)
        _assert_no_child_left()

    def test_at_most_one_worker_per_run(self, monkeypatch):
        _, relaxed, train, _ = _setup()
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        pool = train_pool(relaxed, train, [5, 9], n_steps=10)
        assert len(forks) == 1
        for row, seed in enumerate((5, 9)):
            assert np.array_equal(pool[:, row], train_pool(relaxed, train, [seed], n_steps=10)[:, 0])
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "error, raised",
        [
            (RuntimeError("non-finite gradient in a child"), RuntimeError),
            (_OddValueError("odd value in a child"), ValueError),
        ],
        ids=["same-type", "builtin-base"],
    )
    def test_child_error_reaches_parent(self, error, raised, monkeypatch):
        parent = os.getpid()
        train_block = classical._train_block

        def failing_in_children(*args, **kwargs):
            if os.getpid() != parent:
                raise error
            return train_block(*args, **kwargs)

        monkeypatch.setattr(classical, "_train_block", failing_in_children)
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        _, relaxed, train, _ = _setup()
        with pytest.raises(raised) as caught:
            train_pool(relaxed, train, range(7), n_steps=5)
        assert type(caught.value) is raised
        assert str(caught.value) == str(error)
        _assert_no_child_left()

    def test_parent_error_kills_and_reaps_workers(self, monkeypatch):
        parent = os.getpid()
        train_block = classical._train_block

        def failing_in_parent(*args, **kwargs):
            if os.getpid() == parent:
                raise RuntimeError("parent block failed")
            return train_block(*args, **kwargs)

        monkeypatch.setattr(classical, "_train_block", failing_in_parent)
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        _, relaxed, train, _ = _setup()
        with pytest.raises(RuntimeError, match="^parent block failed$"):
            train_pool(relaxed, train, range(3000), n_steps=500)
        _assert_no_child_left()

    def test_non_finite_gradient_raised_with_workers(self, monkeypatch):
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        _, relaxed, train, _ = _setup()
        with pytest.raises(RuntimeError, match="non-finite gradient"):
            train_pool(relaxed, train, range(7), n_steps=5, learning_rate=1e200)
        _assert_no_child_left()

    def test_rejected_inputs_start_no_fork(self, monkeypatch):
        _, relaxed, train, _ = _setup()
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr(classical, "_usable_cores", lambda: 3)
        signed = Dataset(train.features, np.where(train.labels == 1, 1, -1))
        with pytest.raises(ValueError, match="0/1 labels"):
            train_pool(relaxed, signed, range(7), n_steps=5)
        with pytest.raises(ValueError):
            train_pool(relaxed, train, range(7), n_steps=0)
        assert forks == []
        train_pool(relaxed, train, range(7), n_steps=5)
        assert len(forks) == 2

    def test_workers_never_flush_inherited_stdout(self):
        # stdout to a pipe is block-buffered (PYTHONUNBUFFERED unset): a child
        # that flushed its copy of the buffer would print the line a second time
        script = textwrap.dedent(
            """
            from aqtrain import classical
            from aqtrain.classical import RelaxedModel, train_pool
            from aqtrain.datasets import balanced_pixel_split
            from aqtrain.nn import binary_pixel_model

            classical._usable_cores = lambda: 3
            train, _ = balanced_pixel_split(seed=0)
            print("before the pool")
            train_pool(RelaxedModel(binary_pixel_model()), train, range(7), n_steps=5)
            """
        )
        src = str(Path(classical.__file__).resolve().parents[1])
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before the pool\n"
