"""Small neural networks as polynomials in their weight variables.

A model is declared layer by layer; each weight or bias entry is either a
named variable or a fixed constant.  For a fixed numeric input the forward
pass is then an exact polynomial in the weight variables — directly for
polynomial activations, and through the majority indicator's multilinear
(Möbius) expansion for step activations on 0/1 data.  Summing per-sample
polynomials over a dataset gives the loss as a single :class:`VarPolynomial`,
ready to encode into a diagonal Hamiltonian whose ground state is the
trained network.

The numeric forward pass is implemented independently of the symbolic one
(vectorized over weight configurations and inputs).  Runs anneal into the
enumerated losses as the Hamiltonian's diagonal; the symbolic path is the
paper's construction and the oracle for it.

The per-sample term counts behind the paper's M**(d**L) bound come from one
symbolic pass with the inputs as variables too: evaluating at a sample is a
ring homomorphism R[w, x] -> R[w], so that polynomial's coefficients,
evaluated with numpy on every sample (each input's powers from a table of
repeated products), give each per-sample polynomial (:func:`per_sample_terms`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from . import pauli
from .datasets import Dataset, zero_one_labels
from .encodings import EncodingTable, Grid, report_bitstring
from .varpoly import VarPolynomial

ENUMERATION_QUBIT_CAP = 20

WeightEntry = Union[str, float]

LOSS_KINDS = ("mse", "linear-binary")


# -- activations ---------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    """Pass the pre-activation through unchanged."""

    def polynomial_degree(self, fan_in: int) -> int:
        return 1

    def apply_symbolic(self, contributions, bias, fan_in):
        total = bias
        for piece in contributions:
            total = total + piece
        return total

    def apply_numeric(self, pre, fan_in):
        """Leave ``pre`` as it is: every activation works on ``pre`` in place."""


@dataclass(frozen=True)
class Square:
    """Element-wise square of the pre-activation."""

    def polynomial_degree(self, fan_in: int) -> int:
        return 2

    def apply_symbolic(self, contributions, bias, fan_in):
        total = bias
        for piece in contributions:
            total = total + piece
        return total * total

    def apply_numeric(self, pre, fan_in):
        np.square(pre, out=pre)


@dataclass(frozen=True)
class StepMajority:
    """1 when at least half of the fan-in contributions are set, else 0.

    Valid only for 0/1-valued weights and inputs; the symbolic form is the
    exact indicator polynomial from :func:`theta_polynomial`, so the bias
    must be zero.
    """

    def polynomial_degree(self, fan_in: int) -> int:
        return fan_in

    def apply_symbolic(self, contributions, bias, fan_in):
        if bias.term_count != 0:
            raise ValueError("step-majority activation requires a zero bias")
        return theta_polynomial(fan_in, contributions)

    def apply_numeric(self, pre, fan_in):
        np.greater_equal(pre, 0.5 * fan_in, out=pre)


Activation = Union[Identity, Square, StepMajority]


def theta_polynomial(n: int, inputs: Sequence) -> VarPolynomial:
    """Indicator polynomial for "at least half of n binary inputs are set".

    With k = ceil(n/2), the threshold's multilinear (Möbius) expansion
    sum_{|S|>=k} (-1)**(|S|-k) C(|S|-1, k-1) prod_{j in S} T_j.  With m inputs
    set it sums to sum_{s=k}^{m} (-1)**(s-k) C(m, s) C(s-1, k-1): 1 if m >= k,
    else 0.  So it equals the subset expansion sum_{|S|<=floor(n/2)}
    prod_{j not in S} T_j prod_{i in S} (1 - T_i), of which one product
    survives each 0/1 assignment: both are multilinear and agree on {0,1}^n.
    Each subset product is built once, from its prefix's; a prefix too short
    to reach k inputs is not extended.  Inputs may be variable names or
    0/1-valued polynomials (e.g. weight-times-input products).
    """
    if n < 1:
        raise ValueError("fan-in must be at least 1")
    polys = [VarPolynomial.variable(p) if isinstance(p, str) else p for p in inputs]
    if len(polys) != n:
        raise ValueError(f"expected {n} inputs, got {len(polys)}")
    k = (n + 1) // 2
    total = VarPolynomial.zero()
    # (prod_{j in S} T_j, |S|, max S) for each subset that can still reach k
    stack = [(polys[j], 1, j) for j in range(n - k + 1)]
    while stack:
        product, size, last = stack.pop()
        if product.term_count == 0:
            continue  # every superset's product is zero too
        if size >= k:
            total = total + product * float((-1) ** (size - k) * math.comb(size - 1, k - 1))
        for j in range(last + 1, min(n, n - k + size + 1)):
            stack.append((product * polys[j], size + 1, j))
    return total


# -- model declaration -----------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer: weight rows, biases and the activation.

    Entries are variable names (strings) or fixed numeric constants.
    """

    weights: tuple[tuple[WeightEntry, ...], ...]
    biases: tuple[WeightEntry, ...]
    activation: Activation

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.weights)
        biases = tuple(self.biases)
        if not rows or not rows[0]:
            raise ValueError("layer needs at least one weight row and column")
        if len({len(row) for row in rows}) != 1:
            raise ValueError("weight rows have inconsistent lengths")
        if len(biases) != len(rows):
            raise ValueError("need exactly one bias per output")
        object.__setattr__(self, "weights", rows)
        object.__setattr__(self, "biases", biases)

    @property
    def fan_in(self) -> int:
        return len(self.weights[0])

    @property
    def fan_out(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ModelSpec:
    """Feed-forward stack of layers with consistent dimensions."""

    input_dim: int
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("model needs at least one layer")
        width = self.input_dim
        for position, layer in enumerate(layers):
            if layer.fan_in != width:
                raise ValueError(
                    f"layer {position} expects {layer.fan_in} inputs, previous width is {width}"
                )
            width = layer.fan_out
        seen: set[str] = set()
        for name in _entry_names(layers):
            if name in seen:
                raise ValueError(f"variable name {name!r} is reused across the model")
            seen.add(name)
        object.__setattr__(self, "layers", layers)

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    @property
    def variable_names(self) -> list[str]:
        """Variables in first-appearance order (row-major weights, then biases)."""
        return list(_entry_names(self.layers))


def _entry_names(layers):
    for layer in layers:
        for row in layer.weights:
            for entry in row:
                if isinstance(entry, str):
                    yield entry
        for entry in layer.biases:
            if isinstance(entry, str):
                yield entry


def toy_two_layer_model() -> ModelSpec:
    """Two inputs -> two squared units -> linear output with bias -1.

    With +-1 weights this realizes quadric decision boundaries in the
    plane; the output is thresholded at zero for classification.
    """
    first = LayerSpec(
        weights=(("w1_11", "w1_12"), ("w1_21", "w1_22")),
        biases=(0.0, 0.0),
        activation=Square(),
    )
    second = LayerSpec(weights=(("w2_1", "w2_2"),), biases=(-1.0,), activation=Identity())
    return ModelSpec(input_dim=2, layers=(first, second))


def binary_pixel_model() -> ModelSpec:
    """Four binary pixels -> two majority units -> majority output (an OR)."""
    first = LayerSpec(
        weights=(
            ("w1_11", "w1_12", "w1_13", "w1_14"),
            ("w1_21", "w1_22", "w1_23", "w1_24"),
        ),
        biases=(0.0, 0.0),
        activation=StepMajority(),
    )
    second = LayerSpec(weights=(("w2_1", "w2_2"),), biases=(0.0,), activation=StepMajority())
    return ModelSpec(input_dim=4, layers=(first, second))


def model_encoding_table(model: ModelSpec, kind: str) -> EncodingTable:
    """One single-qubit grid of ``kind`` per variable, qubits in declaration order."""
    low, step = {"spin-pm1": (-1, 2), "binary01": (0, 1)}[kind]
    names = model.variable_names
    return EncodingTable((name, Grid(1, q, low, step)) for q, name in enumerate(names))


# -- symbolic path ---------------------------------------------------------------


def _entry_poly(entry: WeightEntry) -> VarPolynomial:
    if isinstance(entry, str):
        return VarPolynomial.variable(entry)
    return VarPolynomial.constant(float(entry))


def symbolic_forward(model: ModelSpec, x) -> list[VarPolynomial]:
    """Exact output polynomials in the weight variables for numeric input x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.input_dim,):
        raise ValueError(f"input must have shape ({model.input_dim},), got {x.shape}")
    return _propagate(model, [VarPolynomial.constant(float(v)) for v in x])


def _propagate(model: ModelSpec, values: list[VarPolynomial]) -> list[VarPolynomial]:
    """Output polynomials of the layer stack for input polynomials ``values``."""
    for layer in model.layers:
        outputs = []
        for row, bias in zip(layer.weights, layer.biases):
            contributions = [_entry_poly(w) * v for w, v in zip(row, values)]
            outputs.append(
                layer.activation.apply_symbolic(contributions, _entry_poly(bias), layer.fan_in)
            )
        values = outputs
    return values


def build_loss(model: ModelSpec, dataset: Dataset, kind: str) -> VarPolynomial:
    """Dataset loss as one polynomial in the weight variables.

    ``"mse"`` averages squared errors over the samples; ``"linear-binary"``
    sums (-1)**label * Y(x) and requires 0/1 labels (each signal point then
    contributes -1 when predicted 1, each background point +1, so the loss
    counts false positives minus true positives).
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    if model.output_dim != 1:
        raise ValueError("loss construction needs a single-output model")
    if kind == "linear-binary" and not zero_one_labels(dataset.labels):
        raise ValueError("linear-binary loss requires 0/1 labels")
    total = VarPolynomial.zero()
    for features, label in zip(dataset.features, dataset.labels):
        output = symbolic_forward(model, features)[0]
        if kind == "mse":
            residual = output - float(label)
            total = total + residual * residual
        else:
            total = total + output * (-1.0 if label == 1 else 1.0)
    if kind == "mse":
        total = total * (1.0 / len(dataset))
    return total


def compile_hamiltonian(loss: VarPolynomial, table: EncodingTable) -> pauli.PauliPolynomial:
    """Encode each weight variable, yielding the diagonal target Hamiltonian.

    This is the paper's construction.  Runs compile no operator: they anneal
    into the enumerated loss vector, the diagonal of this one, and this path
    is the oracle for its Z-string coefficients.
    """
    missing = loss.variables - set(table.names)
    if missing:
        raise ValueError(f"no encoding for variables {sorted(missing)}")
    return loss.substitute_encodings(table)


# -- numeric path -----------------------------------------------------------------


def forward_configs(
    model: ModelSpec, columns: Mapping[str, np.ndarray], features
) -> np.ndarray:
    """Numeric outputs for many weight assignments at once.

    ``columns[name][c]`` is the value of a variable in configuration c; the
    result has shape (configs, samples) for a single-output model, and
    (configs, samples, outputs) otherwise.  Each layer fills a fresh
    (fan_out, configs, samples) array, one contiguous plane per unit, by one
    ``np.einsum`` call per unit: its (fan_in, configs) weights, a constant as
    a filled row, against the (fan_in, samples) features every configuration
    shares or the layer below's planes.  One call per layer gives the same
    bits but took 2-2.5x as long at fan_out > 1 (numpy 2.4, 2-core x86-64).
    The summed index is never einsum's innermost loop, so a unit sums
    0 + w_0 x_0 + w_1 x_1 + ... + bias in that order; a lone configuration
    goes through as two, since on one sample the sum would be that loop,
    whose unrolled accumulation rounds differently.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != model.input_dim:
        raise ValueError(f"features must have {model.input_dim} columns")
    per_config = {}
    for name in model.variable_names:
        if name not in columns:
            raise KeyError(f"no column for weight {name!r}")
        per_config[name] = np.asarray(columns[name], dtype=float)
    n_configs = max((column.shape[0] for column in per_config.values()), default=1)
    width = max(n_configs, 2)

    def stack(entries):
        """A (len(entries), configs) array: each variable's column or constant."""
        stacked = np.empty((len(entries), width))
        for row, entry in zip(stacked, entries):
            row[...] = per_config[entry] if isinstance(entry, str) else entry
        return stacked

    values = np.ascontiguousarray(features.T)
    for layer in model.layers:
        pre = np.empty((layer.fan_out, width, features.shape[0]))
        subscripts = "ic,ir->cr" if values.ndim == 2 else "ic,icr->cr"
        for row, bias, plane in zip(layer.weights, layer.biases, pre):
            np.einsum(subscripts, stack(row), values, out=plane)
            if isinstance(bias, str) or bias != 0.0:  # a sum from +0.0 is never -0.0,
                plane += stack([bias]).T  # so adding 0.0 would change no bit
        layer.activation.apply_numeric(pre, layer.fan_in)
        values = pre
    values = values[:, :n_configs]
    return values[0] if model.output_dim == 1 else np.moveaxis(values, 0, -1).copy()


def predict(model: ModelSpec, weights: Mapping[str, float], x) -> float:
    """Scalar network output for one input: :func:`forward_configs` on one-row columns."""
    columns = {name: [value] for name, value in weights.items()}
    return float(forward_configs(model, columns, np.asarray(x, dtype=float)[None, :])[0, 0])


def _accuracy_matrix(outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-config accuracy of an (configs, samples) output matrix."""
    if zero_one_labels(labels):
        correct = outputs == labels
    else:
        correct = (outputs >= 0.0) == (labels > 0)
    return np.mean(correct, axis=-1)


def _numeric_loss(outputs: np.ndarray, labels: np.ndarray, kind: str) -> np.ndarray:
    if kind == "mse":
        return np.mean((outputs - labels) ** 2, axis=-1)
    return np.sum(np.where(labels == 1, -1.0, 1.0) * outputs, axis=-1)


# -- exhaustive enumeration ---------------------------------------------------------


@dataclass(frozen=True)
class WeightspaceTable:
    """Loss and accuracies for every basis-state weight configuration.

    Row i corresponds to basis index i of the encoding register; built by
    purely numeric forward passes, independent of the symbolic compiler.
    ``train_outputs`` keeps those passes' (configs, samples) outputs on the
    training set, so a probe that contains it need not forward it again.
    """

    losses: np.ndarray
    train_accuracy: np.ndarray
    test_accuracy: np.ndarray
    train_outputs: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.losses.size)

    def optimum_index(self) -> int:
        """Basis index of the lowest loss (ties by lowest index)."""
        return int(np.argmin(self.losses))

    def perfect_fraction(self) -> float:
        """Fraction of configurations that are exact on train and test."""
        return float(np.mean((self.train_accuracy == 1.0) & (self.test_accuracy == 1.0)))


def enumerate_weightspace(
    model: ModelSpec,
    table: EncodingTable,
    train: Dataset,
    test: Dataset,
    loss_kind: str,
) -> WeightspaceTable:
    """Evaluate every weight configuration the register can represent."""
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    if table.total_qubits > ENUMERATION_QUBIT_CAP:
        raise ValueError(
            f"enumeration supports at most {ENUMERATION_QUBIT_CAP} qubits, got {table.total_qubits}"
        )
    columns = table.decode_columns()
    train_out = forward_configs(model, columns, train.features)
    test_out = train_out if test is train else forward_configs(model, columns, test.features)
    train_accuracy = _accuracy_matrix(train_out, train.labels)
    test_accuracy = train_accuracy if test is train else _accuracy_matrix(test_out, test.labels)
    return WeightspaceTable(
        losses=_numeric_loss(train_out, train.labels, loss_kind),
        train_accuracy=train_accuracy,
        test_accuracy=test_accuracy,
        train_outputs=train_out,
    )


# -- degeneracy analysis -------------------------------------------------------------

#: Rounding (decimal places) applied to outputs before grouping, so that
#: configurations are merged exactly when they define the same function on
#: the probe up to float noise.
PREDICTION_DECIMALS = 9

#: Rounding of probabilities before ranking, so symmetric partners tie by index.
PROBABILITY_DECIMALS = 12


@dataclass(frozen=True)
class DegeneracyClass:
    """Basis states that induce the same prediction function on a probe set."""

    representative_index: int
    bitstring: str
    weights: dict[str, float]
    probability: float
    energy: float
    degeneracy: int
    prediction_hash: str


def grid_probe(side: int = 21, low: float = -1.0, high: float = 1.0) -> np.ndarray:
    """Regular side x side grid on [low, high]^2, row-major."""
    axis = np.linspace(low, high, side)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def group_degenerate(
    model: ModelSpec,
    table: EncodingTable,
    probabilities: np.ndarray,
    probe_features,
    energies,
    leading_outputs=None,
) -> list[DegeneracyClass]:
    """Group basis states by the prediction function they induce.

    ``probabilities`` are the basis-state probabilities of a final state,
    indexed like the register.  Classes are sorted by total probability at
    PROBABILITY_DECIMALS (ties by representative index); the representative
    is the lowest basis index in the class and the energy is its entry of
    ``energies``, the enumerated loss.
    ``leading_outputs``, when given, are every configuration's outputs on
    probe rows already forwarded (shape (configs, rows), such as
    ``WeightspaceTable.train_outputs``); the probe is those rows followed by
    ``probe_features``, and only ``probe_features`` is forwarded here.

    Each configuration's outputs are rounded to PREDICTION_DECIMALS, and the
    bytes of that rounded row are its class key in a dict that labels the
    classes in order of first appearance, so equal rows are found by hashing
    and nothing is sorted before the final ranking.  Rounding can leave
    -0.0, whose bytes differ from 0.0's though the values are equal, so
    -0.0 is mapped to 0.0 first.
    """
    n = table.total_qubits
    if n > ENUMERATION_QUBIT_CAP:
        raise ValueError(f"degeneracy grouping supports at most {ENUMERATION_QUBIT_CAP} qubits")
    if len(probabilities) != 2**n:
        raise ValueError("probabilities do not match the encoding table register")
    columns = table.decode_columns()
    outputs = forward_configs(model, columns, probe_features)
    if leading_outputs is not None:
        outputs = np.concatenate([leading_outputs, outputs], axis=1)
    rounded = outputs.reshape(2**n, -1)  # this call's own outputs, rounded in place
    if rounded.shape[1] == 0:
        raise ValueError("degeneracy grouping needs at least one probe row")
    np.round(rounded, PREDICTION_DECIMALS, out=rounded)
    rounded += 0.0  # maps -0.0 to 0.0 so byte-level keys are canonical
    # one bytes object per row: the rows viewed as np.void scalars, listed
    keys = rounded.view(np.dtype((np.void, rounded.itemsize * rounded.shape[1]))).ravel().tolist()
    labels: dict[bytes, int] = {}
    inverse = np.array([labels.setdefault(key, len(labels)) for key in keys])
    # labels count up in order of first appearance, so label k first appears
    # where the running maximum of the labels reaches k
    first = np.flatnonzero(np.diff(np.maximum.accumulate(inverse), prepend=-1))
    counts = np.bincount(inverse)
    totals = np.bincount(inverse, weights=probabilities)
    classes = [
        DegeneracyClass(
            representative_index=representative,
            bitstring=report_bitstring(representative, n),
            weights={name: float(column[representative]) for name, column in columns.items()},
            probability=float(total),
            energy=float(energies[representative]),
            degeneracy=count,
            prediction_hash=hashlib.sha256(rounded[representative].tobytes()).hexdigest()[:16],
        )
        for representative, total, count in zip(first.tolist(), totals, counts.tolist())
    ]
    classes.sort(key=lambda c: (-round(c.probability, PROBABILITY_DECIMALS), c.representative_index))
    return classes


# -- pools and run statistics ----------------------------------------------------------


def sample_pool(
    probabilities: np.ndarray, weightspace: WeightspaceTable, shots: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw weight configurations from a final state's basis-state probabilities.

    Returns (basis indices, train accuracies, test accuracies) for ``shots``
    independent measurements.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    probs = np.asarray(probabilities)
    if probs.size != len(weightspace):
        raise ValueError("probabilities and enumeration table use different registers")
    rng = np.random.default_rng(seed)
    indices = rng.choice(probs.size, size=shots, p=probs / probs.sum())
    return indices, weightspace.train_accuracy[indices], weightspace.test_accuracy[indices]


def accuracy_vs_runs(
    train_accuracy,
    test_accuracy,
    n_values: Sequence[int],
    repetitions: int,
    seed: int,
) -> np.ndarray:
    """Best-of-n selection curves over a pool of trained weights.

    For each n, draw n pool entries with replacement, keep the one with the
    highest training accuracy (first drawn wins ties), and record its train
    and test accuracy; repeated ``repetitions`` times.  Returns rows
    (n, train_mean, train_std, test_mean, test_std).
    """
    train = np.asarray(train_accuracy, dtype=float)
    test = np.asarray(test_accuracy, dtype=float)
    if train.size == 0 or train.shape != test.shape:
        raise ValueError("pool accuracies must be non-empty and aligned")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_values:
        if n < 1:
            raise ValueError("run counts must be positive")
        draws = rng.integers(0, train.size, size=(repetitions, int(n)))
        best = np.argmax(train[draws], axis=1)
        chosen = draws[np.arange(repetitions), best]
        rows.append(
            (
                float(n),
                float(train[chosen].mean()),
                float(train[chosen].std()),
                float(test[chosen].mean()),
                float(test[chosen].std()),
            )
        )
    return np.asarray(rows)


# -- size accounting ---------------------------------------------------------------


@dataclass(frozen=True)
class TermStats:
    """Polynomial sizes of a compiled model against their a-priori bounds."""

    network_term_count: int
    network_degree: int
    hamiltonian_term_count: int
    generic_bound: int
    diagonal_bound: int

    @property
    def within_bounds(self) -> bool:
        return (
            self.network_term_count <= self.generic_bound
            and self.hamiltonian_term_count <= self.diagonal_bound
        )


def per_sample_terms(model: ModelSpec, features) -> tuple[np.ndarray, np.ndarray]:
    """Term count and degree of ``symbolic_forward(model, x)[0]`` for each row x.

    One symbolic pass builds the first output as a polynomial P(w, x) in the
    weights and the input variables ``x_0, x_1, ...``.  Evaluating at x0 is a
    ring homomorphism R[w, x] -> R[w], and the forward pass (the step-majority
    expansion included) uses only ring operations, so P(w, x0) is, in exact
    arithmetic, the per-sample polynomial.  Its coefficient on a weight monomial is the sum of
    ``coeff * prod_j x0_j**e_j`` over P's terms with that weight part; a
    monomial counts when that sum reaches ``DROP_TOLERANCE``, the cut
    ``VarPolynomial`` prunes with.  The zero polynomial has degree 0.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    if features.shape[1] != model.input_dim:
        raise ValueError(f"features must have {model.input_dim} columns")
    inputs = [f"x_{j}" for j in range(model.input_dim)]
    clash = sorted(set(inputs) & set(model.variable_names))
    if clash:
        raise ValueError(f"model variables {clash} clash with the reserved input names")
    network = _propagate(model, [VarPolynomial.variable(name) for name in inputs])[0]

    position = {name: j for j, name in enumerate(inputs)}
    monomial_column: dict[tuple, int] = {}
    monomial_degree: list[int] = []
    term_column = np.zeros(network.term_count, dtype=int)
    exponents = np.zeros((network.term_count, len(inputs)), dtype=int)
    coefficients = np.zeros(network.term_count)
    for t, (key, coeff) in enumerate(network.items()):
        weight_part = []
        for name, exponent in key:
            if name in position:
                exponents[t, position[name]] = exponent
            else:
                weight_part.append((name, exponent))
        weight_part = tuple(weight_part)
        if weight_part not in monomial_column:
            monomial_column[weight_part] = len(monomial_degree)
            monomial_degree.append(sum(e for _, e in weight_part))
        term_column[t] = monomial_column[weight_part]
        coefficients[t] = coeff

    # powers[:, j, e] = x_j**e by repeated products; (samples, terms) values
    # of coeff * prod_j x_j**e_j, summed per weight monomial
    powers = [np.ones_like(features)]
    for _ in range(exponents.max(initial=0)):
        powers.append(powers[-1] * features)
    powers = np.stack(powers, axis=2)
    values = coefficients * np.prod(powers[:, np.arange(len(inputs)), exponents], axis=2)
    per_monomial = np.zeros((features.shape[0], len(monomial_degree)))
    np.add.at(per_monomial, (slice(None), term_column), values)
    survives = np.abs(per_monomial) >= pauli.DROP_TOLERANCE
    counts = survives.sum(axis=1)
    degrees = np.max(np.where(survives, monomial_degree, 0), axis=1, initial=0)
    return counts, degrees


def term_stats(model: ModelSpec, dataset: Dataset, losses: np.ndarray) -> TermStats:
    """Measure per-sample network size and the size of the run's Hamiltonian,
    whose diagonal is ``losses``.

    The per-sample output polynomial stays below M**(d**L) monomials (M the
    widest fan-in, d the largest activation degree, L the layer count); the
    compiled diagonal Hamiltonian stays below one term per Z-pattern,
    2**num_qubits.  The network is expanded symbolically once, with the
    inputs as variables, and its coefficients are evaluated on every sample
    (:func:`per_sample_terms`); the reported figures are the largest term
    count and degree over the samples.  The Hamiltonian's terms are the
    Walsh coefficients of ``losses`` that ``PauliPolynomial.from_diagonal``
    keeps.
    """
    counts, degrees = per_sample_terms(model, dataset.features)
    fan_in = max(layer.fan_in for layer in model.layers)
    degree = max(layer.activation.polynomial_degree(layer.fan_in) for layer in model.layers)
    losses = np.asarray(losses, dtype=float)
    walsh = pauli._walsh_hadamard(losses) / losses.size
    return TermStats(
        network_term_count=int(counts.max(initial=0)),
        network_degree=int(degrees.max(initial=0)),
        hamiltonian_term_count=int(np.count_nonzero(np.abs(walsh) >= pauli.DROP_TOLERANCE)),
        generic_bound=fan_in ** (degree ** len(model.layers)),
        diagonal_bound=losses.size,
    )
