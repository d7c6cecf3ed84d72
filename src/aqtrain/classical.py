"""Continuous relaxation of the binary network, trained with Adam.

The step activations are replaced by sigmoids sigma(k * (sum w x - n/2)),
the 0/1 weights by continuous ones, and every weight contributes a
``w^2 (w-1)^2`` penalty that pushes it back to binary values.  The loss
keeps the signed linear form, so the relaxed objective is differentiable
end to end; gradients are hand-derived (the architecture family is fixed,
so no autodiff machinery is warranted).

Runs are vectorized: a pool of trainings is one batched optimization.
Activations are held as (..., units, samples); a layer fed by the feature
matrix every run shares is one 2-D GEMM over the stacked weight rows of all
runs, and deeper layers are stacked matrix products.  Each run's slice is
bit-equal to training that run alone: BLAS does not promise this across
batch sizes, so the tests check it, on pools small enough and large enough
(257 runs) to cross the GEMM's row blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .nn import ModelSpec, StepMajority

DEFAULT_STEEPNESS = 10.0
# The quartic well is weak compared to the data term on this architecture:
# unit strength leaves a quarter of the trained weights far from {0, 1},
# so the default is strong enough to make rounding at 1/2 a no-op in
# practice while leaving the selection curves unchanged.
DEFAULT_PENALTY = 50.0
DEFAULT_STEPS = 500
DEFAULT_LEARNING_RATE = 0.05


@dataclass(frozen=True)
class RelaxedModel:
    """Sigmoid-smoothed mirror of a binary step-activation architecture."""

    model: ModelSpec
    steepness: float = DEFAULT_STEEPNESS
    penalty: float = DEFAULT_PENALTY

    def __post_init__(self):
        if self.steepness <= 0:
            raise ValueError("sigmoid steepness must be positive")
        for layer in self.model.layers:
            if not isinstance(layer.activation, StepMajority):
                raise ValueError("relaxation is defined for step-majority activations only")
            if any(not isinstance(w, str) for row in layer.weights for w in row):
                raise ValueError("all weights must be free variables")
            if any(b != 0.0 for b in layer.biases):
                raise ValueError("biases must be fixed at zero")

    @property
    def num_parameters(self) -> int:
        return sum(layer.fan_out * layer.fan_in for layer in self.model.layers)

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Flat parameter vector(s) -> per-layer (out, in) matrices.

        Accepts shape (..., P); the layer matrices keep the leading axes.
        """
        flat = np.asarray(flat, dtype=float)
        if flat.shape[-1] != self.num_parameters:
            raise ValueError(f"expected {self.num_parameters} parameters")
        matrices = []
        offset = 0
        for layer in self.model.layers:
            count = layer.fan_out * layer.fan_in
            block = flat[..., offset : offset + count]
            matrices.append(block.reshape(flat.shape[:-1] + (layer.fan_out, layer.fan_in)))
            offset += count
        return matrices


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # equals 1 / (1 + exp(-u)) in exact arithmetic; never overflows, needs no mask
    return 0.5 + 0.5 * np.tanh(0.5 * u)


def _signs(labels: np.ndarray) -> np.ndarray:
    if not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("relaxed loss requires 0/1 labels")
    return np.where(labels == 1, -1.0, 1.0)


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right``, where a 2-D ``right`` is shared by every run.

    A shared operand is applied as one 2-D GEMM over the (runs * rows, inner)
    stack of ``left`` instead of one small product per run.
    """
    if right.ndim > 2:
        return left @ right
    # an explicit row count: -1 is ambiguous when the inner size is 0 (no samples)
    rows = left.reshape(math.prod(left.shape[:-1]), left.shape[-1]) @ right
    return rows.reshape(left.shape[:-1] + right.shape[-1:])


def _forward(relaxed: RelaxedModel, matrices, features):
    """Layer activations for batched weights, each shaped (..., units, samples).

    The first entry is the (fan_in, samples) feature matrix every run shares.
    """
    activations = [features.T]
    for layer, weight in zip(relaxed.model.layers, matrices):
        pre = _product(weight, activations[-1])
        activations.append(_sigmoid(relaxed.steepness * (pre - 0.5 * layer.fan_in)))
    return activations


def relaxed_loss(relaxed: RelaxedModel, dataset: Dataset, weights) -> float | np.ndarray:
    """Signed linear loss of the smoothed network plus the binarization penalty.

    ``weights`` may be one flat vector or a batch with shape (runs, P).
    """
    weights = np.asarray(weights, dtype=float)
    matrices = relaxed.split(weights)
    signs = _signs(dataset.labels)
    outputs = _forward(relaxed, matrices, dataset.features)[-1][..., 0, :]
    data_term = outputs @ signs
    penalty = relaxed.penalty * np.sum(weights**2 * (weights - 1.0) ** 2, axis=-1)
    total = data_term + penalty
    return float(total) if total.ndim == 0 else total


def gradient(relaxed: RelaxedModel, dataset: Dataset, weights) -> np.ndarray:
    """Hand-derived gradient of :func:`relaxed_loss` in the flat layout."""
    return _gradient(relaxed, dataset.features, _signs(dataset.labels), weights)


def _gradient(relaxed: RelaxedModel, features, signs: np.ndarray, weights) -> np.ndarray:
    """:func:`gradient` for labels already checked and turned into signs."""
    weights = np.asarray(weights, dtype=float)
    matrices = relaxed.split(weights)
    # non-finite weights are reported by the check below, not by numpy warnings
    with np.errstate(invalid="ignore", over="ignore"):
        activations = _forward(relaxed, matrices, features)
        # d loss / d output is the sign of each sample; walk the layers backwards
        delta = signs
        blocks = [None] * len(matrices)
        for position in range(len(matrices) - 1, -1, -1):
            z = activations[position + 1]
            dz = delta * relaxed.steepness * z * (1.0 - z)
            blocks[position] = _product(dz, activations[position].swapaxes(-1, -2))
            if position > 0:
                delta = matrices[position].swapaxes(-1, -2) @ dz
        flat = np.concatenate([b.reshape(b.shape[:-2] + (-1,)) for b in blocks], axis=-1)
        flat += relaxed.penalty * (4.0 * weights**3 - 6.0 * weights**2 + 2.0 * weights)
    if not np.all(np.isfinite(flat)):
        raise RuntimeError(
            f"non-finite gradient (max |w| = {np.max(np.abs(weights)):.3g}); "
            "lower the learning rate or steepness"
        )
    return flat


@dataclass(frozen=True)
class AdamState:
    """First/second moment estimates plus the hyperparameters."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = DEFAULT_LEARNING_RATE
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def initial(cls, shape, **hyper) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), **hyper)


def adam_step(state: AdamState, weights: np.ndarray, grads: np.ndarray):
    """One standard Adam update; returns (new state, new weights)."""
    step = state.step + 1
    first = state.beta1 * state.first_moment + (1.0 - state.beta1) * grads
    second = state.beta2 * state.second_moment + (1.0 - state.beta2) * grads**2
    first_hat = first / (1.0 - state.beta1**step)
    second_hat = second / (1.0 - state.beta2**step)
    updated = weights - state.learning_rate * first_hat / (np.sqrt(second_hat) + state.epsilon)
    new_state = AdamState(
        first, second, step, state.learning_rate, state.beta1, state.beta2, state.epsilon
    )
    return new_state, updated


@dataclass(frozen=True)
class ClassicalRun:
    """Outcome of one relaxed training run."""

    seed: int
    relaxed_weights: np.ndarray
    binary_weights: np.ndarray


def train_pool(
    relaxed: RelaxedModel,
    dataset: Dataset,
    seeds,
    n_steps: int = DEFAULT_STEPS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> list[ClassicalRun]:
    """Train one run per seed (batched; identical to running them singly).

    Each run starts from uniform [0, 1] weights drawn from its own seeded
    generator, takes a fixed budget of full-batch Adam steps, and binarizes
    by rounding at 1/2.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if n_steps < 1:
        raise ValueError("need at least one step")
    signs = _signs(dataset.labels)
    weights = np.stack(
        [np.random.default_rng(s).uniform(0.0, 1.0, relaxed.num_parameters) for s in seeds]
    )
    state = AdamState.initial(
        weights.shape,
        learning_rate=learning_rate,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
    )
    for _ in range(n_steps):
        grads = _gradient(relaxed, dataset.features, signs, weights)
        state, weights = adam_step(state, weights, grads)
    binary = np.where(weights >= 0.5, 1.0, 0.0)
    return [
        ClassicalRun(seed, weights[row].copy(), binary[row].copy())
        for row, seed in enumerate(seeds)
    ]


def train_run(relaxed: RelaxedModel, dataset: Dataset, seed: int, **options) -> ClassicalRun:
    """Single seeded training run; see :func:`train_pool`."""
    return train_pool(relaxed, dataset, [seed], **options)[0]
