"""Continuous relaxation of the binary network, trained with Adam.

The step activations are replaced by sigmoids sigma(k * (sum w x - n/2)),
the 0/1 weights by continuous ones, and every weight contributes a
``w^2 (w-1)^2`` penalty that pushes it back to binary values.  The loss
keeps the signed linear form, so the relaxed objective is differentiable
end to end; gradients are hand-derived (the architecture family is fixed,
so no autodiff machinery is warranted).

Runs are vectorized with the run axis last and contiguous: a batch holds
its weights as one (P, runs) array and each layer's activations as
(units, samples, runs).  Each layer computes the negated sigmoid argument
-k (u - n/2), with -k folded into its weights, and turns it into the
logistic 1 / (1 + exp(-k (u - n/2))) in place by ``exp``, ``+1`` and
``reciprocal``.  Where exp overflows to inf the sigmoid is exactly 0, so
the kernel runs with overflow ignored.  The first layer reads the
(samples, fan_in) feature matrix every run shares, with a column of ones
appended, so its forward pass is one ``matmul`` call, a 2-D GEMM per unit
with the runs as columns against -k W over a constant row k n/2; its
weight gradient is another.  Each deeper layer's forward product, weight
gradient and upstream deltas (which reuse the scaled weights) are one
``np.einsum`` call each, the runs innermost.  The gradient, the penalty
term and the Adam moments live in buffers allocated once per batch, and
:class:`Adam` updates them in place, so the training loop allocates
nothing per step.  :func:`relaxed_loss` and :func:`gradient` run the same
kernel, transposing their flat (..., P) weights at the boundary, and check
each result for non-finite entries; a training block checks its weights
once, after the last step, since a non-finite gradient leaves its weight
NaN for good.

Each run's slice is bit-equal to training that run alone: each einsum
(numpy's own loop at its default ``optimize=False``, not BLAS) is
elementwise in the runs and sums in index order, and the tests check the
GEMM on pools small enough and large enough (257 runs) to cross its blocking.

Every run's initial weights are those its own ``np.random.default_rng(seed)``
draws.  :func:`seeded_uniforms` draws them bit-equal for all seeds at once,
running numpy's SeedSequence and PCG64 on arrays of seeds, so a pool pays no
generator per run.  This process draws them all, once, and then splits the
pool into one contiguous block of runs per usable core
(``os.sched_getaffinity``, at most one per run), trained side by side.  It
trains the first block itself; each other one is trained in a child made
with ``os.fork``, which inherits its block's initial weights and sends only
its (runs, P) trained weights back over a pipe as raw float64 bytes, or its
error as the nearest builtin exception type and the message, and ends
through ``os._exit``.  The trained blocks are joined in seed order under the
initial weights into the one (2, runs, P) array :func:`train_pool` returns,
so the pool is bit-equal to one trained as one block.  On any
error the children are killed and reaped before it is raised.  Without
``os.fork``, or on one core, the pool trains as one block in process.
Python 3.12 and later document a ``DeprecationWarning`` for ``os.fork`` in
a multi-threaded process; OpenBLAS starts worker threads, so it would apply
there (unverified: this module has only been run on Python 3.11).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, zero_one_labels
from .nn import ModelSpec, StepMajority

DEFAULT_STEEPNESS = 10.0
# The quartic well w^2 (w - 1)^2 at this strength puts a barrier of 50/16
# at w = 1/2, which pins the pool: 948 of the 1000 runs of the shipped
# classical_pool end at their initial weights rounded at 1/2.  (At unit
# strength a quarter of the trained weights end far from {0, 1}.)
DEFAULT_PENALTY = 50.0
DEFAULT_STEPS = 500
DEFAULT_LEARNING_RATE = 0.05
#: Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


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

        Accepts shape (..., P); the layer matrices keep the leading axes and
        are views of ``flat`` wherever its layout allows.
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


def _signs(labels: np.ndarray) -> np.ndarray:
    if not zero_one_labels(labels):
        raise ValueError("relaxed loss requires 0/1 labels")
    return np.where(labels == 1, -1.0, 1.0)


class _Batch:
    """Forward and backward passes of a batch of runs, run axis last.

    Weights and gradient are (P, columns) arrays, activations and deltas
    (units, samples, columns); all of them are allocated here, once.  A lone
    run fills two identical columns, so that it takes the GEMM and the
    in-order contractions of any pool, not BLAS's matrix-vector kernel and
    einsum's unrolled inner sums, whose rounding differs.

    Each forward pass refreshes every layer's -k W from ``weights`` (the
    first layer's in the GEMM operand above its constant row k n/2).  The
    upstream deltas then carry -k, and so does the output layer's (samples,
    columns) plane of sample signs, so every delta is (-k upstream) z (z - 1).
    Callers ignore overflow and call :meth:`check_finite` themselves.
    """

    def __init__(self, relaxed: RelaxedModel, features, signs: np.ndarray, runs: int):
        self.relaxed = relaxed
        self.runs = runs
        steepness = relaxed.steepness
        self.features = np.ascontiguousarray(features, dtype=float)
        samples = self.features.shape[0]
        columns = max(runs, 2)
        self.weights = np.empty((relaxed.num_parameters, columns))
        self.grad = np.empty_like(self.weights)
        self.term = np.empty_like(self.weights)
        self.factor = np.empty_like(self.weights)
        self.layer_weights = self._per_layer(self.weights)
        self.layer_grads = self._per_layer(self.grad)
        layers = relaxed.model.layers
        first = layers[0]
        self.inputs = np.hstack([self.features, np.ones((samples, 1))])
        self.operand = np.empty((first.fan_out, first.fan_in + 1, columns))
        self.operand[:, -1] = 0.5 * steepness * first.fan_in
        # -k W of each layer, refreshed from ``weights`` by every forward pass
        self.scaled = [self.operand[:, :-1]]
        self.scaled += [np.empty((layer.fan_out, layer.fan_in, columns)) for layer in layers[1:]]
        self.activations = [np.empty((layer.fan_out, samples, columns)) for layer in layers]
        self.deltas = [np.empty_like(z) for z in self.activations]
        self.signs = signs
        # d loss / d output is the sign of each sample; times -k, see above
        self.output_scale = np.repeat((-steepness * signs)[:, None], columns, axis=1)

    def _per_layer(self, buffer: np.ndarray) -> list[np.ndarray]:
        # (out, in, columns) views: each layer's rows of the buffer are contiguous
        return [block.transpose(1, 2, 0) for block in self.relaxed.split(buffer.T)]

    def load(self, flat: np.ndarray):
        """Set the weights from (runs, P) rows."""
        self.weights[:, : self.runs] = flat.T
        self.weights[:, self.runs :] = self.weights[:, :1]

    def unload(self, buffer: np.ndarray) -> np.ndarray:
        """The runs' (runs, P) rows of a (P, columns) buffer."""
        return buffer[:, : self.runs].T.copy()

    def forward(self):
        """Fill ``activations`` from ``weights``."""
        steepness = self.relaxed.steepness
        for weight, scaled in zip(self.layer_weights, self.scaled):
            np.multiply(weight, -steepness, out=scaled)
        for position, (scaled, z) in enumerate(zip(self.scaled, self.activations)):
            if position == 0:
                # (samples, fan_in + 1) @ (fan_in + 1, columns) for each unit
                np.matmul(self.inputs, self.operand, out=z)
            else:
                # z[o] = sum over i of scaled[o, i] * below[i], accumulated in i
                below = self.activations[position - 1]
                np.einsum("oic,isc->osc", scaled, below, out=z)
                z += 0.5 * steepness * len(below)
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)

    def gradient(self):
        """Fill ``grad`` with the gradient of the relaxed loss at ``weights``.

        Overwrites ``activations`` on the way back.  Checks nothing: a
        non-finite weight or gradient is left for :meth:`check_finite`.
        """
        self.forward()
        self._backward()
        self._add_penalty()

    def check_finite(self, values: np.ndarray, what: str = "gradient"):
        """Raise ``RuntimeError`` unless the batch's ``values``, named ``what``
        in the message, are all finite."""
        if not np.isfinite(values).all():
            weights = np.abs(self.weights[:, : self.runs])
            largest = np.max(weights, where=np.isfinite(weights), initial=0.0)
            raise RuntimeError(
                f"non-finite {what} (largest finite |w| = {largest:.3g}); "
                "lower the learning rate or steepness"
            )

    def _backward(self):
        last = len(self.activations) - 1
        for position in range(last, -1, -1):
            z, delta = self.activations[position], self.deltas[position]
            # delta = upstream * k * z * (1 - z) = (-k upstream) * z * (z - 1);
            # the output plane holds -k times the sample sign, and the layer
            # above left -k upstream in ``delta``
            if position == last:
                np.multiply(z, self.output_scale, out=delta)
            else:
                delta *= z
            np.subtract(z, 1.0, out=z)  # this layer's output is not read again
            delta *= z
            grad = self.layer_grads[position]
            if position == 0:
                # (fan_in, samples) @ (samples, columns) for each unit
                np.matmul(self.features.T, delta, out=grad)
                break
            # grad[o, i] = sum over samples of delta[o] * below[i], accumulated in order
            below = self.activations[position - 1]
            np.einsum("osc,isc->oic", delta, below, out=grad)
            # the layer below's -k upstream: sum over o of scaled[o, i] * delta[o]
            np.einsum("oic,osc->isc", self.scaled[position], delta, out=self.deltas[position - 1])

    def _add_penalty(self):
        # d/dw of penalty * w^2 (w - 1)^2 is penalty * 4 w (w - 1/2) (w - 1)
        w, term, factor = self.weights, self.term, self.factor
        np.subtract(w, 1.0, out=term)
        term *= w
        term *= 4.0 * self.relaxed.penalty
        np.subtract(w, 0.5, out=factor)
        term *= factor
        self.grad += term


def _batch(relaxed: RelaxedModel, dataset: Dataset, weights: np.ndarray) -> _Batch:
    """A batch loaded with flat weights of shape (..., P)."""
    signs = _signs(dataset.labels)
    if weights.shape[-1] != relaxed.num_parameters:
        raise ValueError(f"expected {relaxed.num_parameters} parameters")
    rows = weights.reshape(-1, relaxed.num_parameters)
    batch = _Batch(relaxed, dataset.features, signs, rows.shape[0])
    batch.load(rows)
    return batch


def relaxed_loss(relaxed: RelaxedModel, dataset: Dataset, weights) -> float | np.ndarray:
    """Signed linear loss of the smoothed network plus the binarization penalty.

    ``weights`` may be one flat vector or a batch with shape (..., P).
    """
    weights = np.asarray(weights, dtype=float)
    batch = _batch(relaxed, dataset, weights)
    # non-finite or huge weights are reported by the check below, not by numpy warnings
    with np.errstate(invalid="ignore", over="ignore"):
        batch.forward()
        outputs = batch.activations[-1][0, :, : batch.runs]
        data_term = (batch.signs @ outputs).reshape(weights.shape[:-1])
        penalty = relaxed.penalty * np.sum(weights**2 * (weights - 1.0) ** 2, axis=-1)
        total = data_term + penalty
    batch.check_finite(total, "loss")
    return float(total) if total.ndim == 0 else total


def gradient(relaxed: RelaxedModel, dataset: Dataset, weights) -> np.ndarray:
    """Hand-derived gradient of :func:`relaxed_loss`, in the same (..., P) layout."""
    weights = np.asarray(weights, dtype=float)
    batch = _batch(relaxed, dataset, weights)
    # non-finite weights are reported by the check below, not by numpy warnings
    with np.errstate(invalid="ignore", over="ignore"):
        batch.gradient()
    batch.check_finite(batch.grad)
    return batch.unload(batch.grad).reshape(weights.shape)


@dataclass
class Adam:
    """Standard Adam (Kingma & Ba, ICLR 2015), updating arrays in place.

    The moments and two scratch arrays are allocated once, in
    :meth:`initial`; :meth:`update` allocates nothing.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0
    learning_rate: float = DEFAULT_LEARNING_RATE
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = np.empty((2,) + self.first_moment.shape)

    @classmethod
    def initial(cls, shape, learning_rate: float = DEFAULT_LEARNING_RATE) -> "Adam":
        return cls(np.zeros(shape), np.zeros(shape), learning_rate=learning_rate)

    def update(self, weights: np.ndarray, grads: np.ndarray):
        """One Adam step: advances the moments and overwrites ``weights``."""
        self.step += 1
        first, second = self.first_moment, self.second_moment
        scaled, denominator = self._scratch
        first *= ADAM_BETA1
        np.multiply(grads, 1.0 - ADAM_BETA1, out=scaled)
        first += scaled
        second *= ADAM_BETA2
        np.multiply(grads, grads, out=scaled)
        scaled *= 1.0 - ADAM_BETA2
        second += scaled
        # w -= lr * first_hat / (sqrt(second_hat) + eps) with the bias corrections
        # of first_hat and second_hat folded into the step size and the epsilon
        # (Kingma & Ba, end of section 2)
        root = math.sqrt(1.0 - ADAM_BETA2**self.step)
        step_size = self.learning_rate * root / (1.0 - ADAM_BETA1**self.step)
        np.sqrt(second, out=denominator)
        denominator += ADAM_EPSILON * root
        np.divide(first, denominator, out=scaled)
        scaled *= step_size
        weights -= scaled


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: its hash and mix multipliers, over 32-bit words
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier (O'Neill, "PCG", HMC-CS-2014-0905, 2014)
_PCG_MULT_HIGH, _PCG_MULT_LOW = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _seed_state(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each uint64 seed,
    as four arrays of words."""
    multiplier = _HASH_INIT_A

    def hashmix(value):
        nonlocal multiplier
        value = value ^ multiplier
        multiplier = multiplier * _HASH_MULT_A & _MASK32
        value = value * multiplier
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # the entropy is the seed's 32-bit words, low first, padded with zeros to the pool
    low = (seeds & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, (seeds >> 32).astype(np.uint32), zero, zero)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    multiplier, words = _HASH_INIT_B, []
    for position in range(8):
        value = pool[position % 4] ^ multiplier
        multiplier = multiplier * _HASH_MULT_B & _MASK32
        value = value * multiplier
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(4)]


def _pcg_step(high, low, inc_high, inc_low):
    """PCG64's state step, state * multiplier + increment mod 2**128, on
    (high, low) uint64 halves; the carry out of low * multiplier comes
    from 32-bit halves."""
    low0, low1 = low & _MASK32, low >> 32
    mult0, mult1 = _PCG_MULT_LOW & _MASK32, _PCG_MULT_LOW >> 32
    cross0, cross1 = low0 * mult1, low1 * mult0
    middle = (low0 * mult0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    carry = low1 * mult1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)
    high = carry + low * _PCG_MULT_HIGH + high * _PCG_MULT_LOW + inc_high
    low = low * _PCG_MULT_LOW + inc_low
    return high + (low < inc_low), low


def seeded_uniforms(seeds, count: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(0.0, 1.0, count)`` for every seed
    in [0, 2**64) at once, bit-equal: one (len(seeds), count) array.

    Runs numpy's SeedSequence and PCG64 seeding on arrays of seeds, then
    ``count`` XSL-RR outputs of each stream, each turned into a double as
    (x >> 11) * 2**-53, as the generator's ``uniform`` does over [0, 1).
    """
    seeds = [int(s) for s in seeds]
    if seeds and (min(seeds) < 0 or max(seeds) >= 2**64):
        raise ValueError("seeds must lie in [0, 2**64)")
    draws = np.empty((count, len(seeds)))
    # the uint64 arithmetic wraps, as the generator's does
    with np.errstate(over="ignore"):
        state_high, state_low, seq_high, seq_low = _seed_state(np.array(seeds, dtype=np.uint64))
        # seeding: state 0, increment 2 seq + 1, a step, add the state words, a step
        inc_high, inc_low = seq_high << 1 | seq_low >> 63, seq_low << 1 | 1
        low = state_low + inc_low
        high = inc_high + state_high + (low < inc_low)
        high, low = _pcg_step(high, low, inc_high, inc_low)
        for row in draws:
            high, low = _pcg_step(high, low, inc_high, inc_low)
            rotation = high >> 58
            word = high ^ low
            word = word >> rotation | word << (64 - rotation & 63)
            np.multiply(word >> 11, 2.0**-53, out=row)
    return draws.T


def _usable_cores() -> int:
    """The cores this process may run on: one block of a pool each."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _train_block(relaxed, features, signs, initial, n_steps, learning_rate) -> np.ndarray:
    """The (runs, P) trained weights of one block of runs from their (runs, P) initial weights."""
    batch = _Batch(relaxed, features, signs, len(initial))
    batch.load(initial)
    adam = Adam.initial(batch.weights.shape, learning_rate)
    # a non-finite gradient entry makes Adam divide inf by inf or carry a NaN,
    # and its weight stays NaN from then on, so one check after the last step
    # sees every such step
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(n_steps):
            batch.gradient()
            adam.update(batch.weights, batch.grad)
    batch.check_finite(batch.weights)
    return batch.unload(batch.weights)


class _Worker:
    """A forked child training one block of a pool (see the module docstring)."""

    def __init__(self, train, block):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            os.close(read)
            self._serve(write, train, block)
        os.close(write)
        self.pipe = read

    @staticmethod
    def _serve(pipe, train, block):
        # ends through os._exit: the child never unwinds into the caller and
        # never flushes the stdio buffers it inherited
        status = 1
        try:
            try:
                data = train(block).tobytes()
                status = 0
            except BaseException as exc:
                kind = next(t for t in type(exc).__mro__ if t.__module__ == "builtins")
                data = f"{kind.__name__}\0{exc}".encode()
            with open(pipe, "wb") as writer:
                writer.write(data)
        finally:
            os._exit(status)

    def join(self, shape) -> np.ndarray:
        """The child's weights; reaps it, and raises its error if it had one."""
        with open(self.pipe, "rb") as reader:
            self.pipe = None
            data = reader.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if os.waitstatus_to_exitcode(status) == 0 and len(data) == 8 * math.prod(shape):
            return np.frombuffer(data).reshape(shape)
        import builtins

        name, _, message = data.decode(errors="replace").partition("\0")
        kind = getattr(builtins, name, None)
        if isinstance(kind, type) and issubclass(kind, BaseException):
            raise kind(message)
        raise RuntimeError(f"a classical training worker ended with wait status {status}")

    def kill(self):
        """Close the pipe, kill the child and reap it, unless already joined."""
        if self.pipe is not None:
            os.close(self.pipe)
        if self.pid is not None:
            import signal  # only the error paths import signal and builtins

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def train_pool(
    relaxed: RelaxedModel,
    dataset: Dataset,
    seeds,
    n_steps: int = DEFAULT_STEPS,
    learning_rate: float = DEFAULT_LEARNING_RATE,
) -> np.ndarray:
    """Train one run per seed (batched; identical to running them singly).

    Each run starts from the uniform [0, 1] weights its own seeded generator
    draws, ``np.random.default_rng(seed)``, and takes a fixed budget of
    full-batch Adam steps.  The seeds, in [0, 2**64), are split into one
    contiguous block per usable core, trained side by side (see the module
    docstring).  Returns a (2, runs, P) array in seed order: each run's
    initial weights, then its trained relaxed weights.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    if n_steps < 1:
        raise ValueError("need at least one step")
    signs = _signs(dataset.labels)
    initial = seeded_uniforms(seeds, relaxed.num_parameters)

    def train(block):
        return _train_block(relaxed, dataset.features, signs, block, n_steps, learning_rate)

    count = min(_usable_cores(), len(seeds)) if hasattr(os, "fork") else 1
    bounds = [len(seeds) * i // count for i in range(count + 1)]
    blocks = [initial[start:end] for start, end in zip(bounds, bounds[1:])]
    workers = []
    try:
        for block in blocks[1:]:
            workers.append(_Worker(train, block))
        parts = [train(blocks[0])]
        for worker, block in zip(workers, blocks[1:]):
            parts.append(worker.join(block.shape))
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    return np.stack([initial, np.concatenate(parts)])
