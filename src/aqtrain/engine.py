"""Adiabatic and real-time evolution of qubit-register states.

Two Hamiltonian representations share one interface, and the anneal picks
its propagator from the shapes of its inputs and ``substeps_per_step``:

- A transverse-field driver ``c + sum_q x_q X_q`` as its pair ``(c, x)``
  (:func:`transverse_driver`), with a target given as its real diagonal of
  ``2**n`` values, evolves by default through a first-order split step.
  The driver's X part is a Kronecker sum over any split of the register,
  so the register is cut into the fewest factors of at most six qubits
  (:func:`_driver_factors`) and its exponential is the Kronecker product
  of one small rotation block per factor (Van Loan, J. Comput. Appl. Math.
  123, 85, 2000).  A step is one matrix product per factor, then the
  target's phase pass (a diagonal has no splitting error inside it);
  ``substeps_per_step`` refines the split.
- The same pair with ``substeps_per_step=None`` evolves exactly, without
  splitting: each step applies ``exp(-i H dt)`` as a Chebyshev series
  (:func:`_chebyshev_step`) in a matrix-free ``H``: the target and identity
  diagonals, plus one dense field block per driver factor, each applied by
  one matrix product.  On a register of one factor (at most six qubits)
  the diagonals are folded into the block, so a series term is one matrix
  product and one subtraction.  The terms are summed a table of
  ``CHEBYSHEV_TABLE_TERMS`` at a time, by one matrix-vector product for
  the even terms and one for the odd.  The spectral bounds are exact
  (Weyl's inequality on the two parts), the degree follows from them and
  dt before the step runs (:func:`chebyshev_degree`), and the step keeps
  no basis and decomposes nothing.  No register-sized matrix is formed
  past six qubits.
- A pair of dense Hermitian matrices evolves by piecewise Chebyshev
  interpolation of the step propagator ``U(s) = exp(-i H(s) dt)`` in the
  ramp value s (:func:`_evolve_dense`).  H(s) is linear in s, so U is
  entire and a few ``eigh`` calls at interpolation nodes replace one per
  step: 13 instead of 4000 on the tilted-well anneal.  A panel with no more
  steps than nodes takes its steps' own s values as the nodes, where the
  interpolation weights are the identity.  There is no Trotter error, and
  the interpolation error is below roundoff.

The split and dense stepping loops apply their steps and nothing else:
what depends only on the step index (the split step's rotation blocks and
phase vectors, the interpolated dense propagators, so that a dense step is
one matrix-vector product) is built ahead of the loop, ``CHUNK_BYTES`` at a
time.  That is 512 KB, a quarter of the 2 MB L2 cache of the host it was
measured on, so a chunk is still in cache when its steps read it (the sweep
is at ``CHUNK_BYTES``).  The chunk size moves the time only, never a bit of
a state.

Real-time evolution under a fixed Hamiltonian (:func:`evolve_real_time`,
used by the ``tunnel`` experiment) is dense-only.  It diagonalizes the
matrix once and evaluates each kept state in closed form at its time, so
no step loop runs and a kept state is exact at its time.

A state is a plain array of ``2**n`` complex amplitudes, ordered as in
:mod:`aqtrain.encodings`.  Both evolutions take a normalized initial state,
checked once at entry, and return an :class:`EvolutionResult`: the initial
state, every ``snapshot_stride``-th step and the last step, stacked in one
array of :func:`snapshot_count` rows that is allocated before the first
step.

Step times follow the pre-step convention: step ``k`` of ``n`` applies
``exp(-i H_A(t_k) dt)`` with ``t_k = k * dt``, i.e. the Hamiltonian is
evaluated at the time reached so far, starting from ``t = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .pauli import MATRIX_QUBIT_CAP, _factor_product, _factor_views, _factor_widths

#: largest register evolved through dense eigendecomposition
DENSE_EVOLUTION_CAP = 10

#: largest deviation from unit norm an initial state may have
NORM_TOLERANCE = 1e-9


def transverse_driver(num_qubits: int) -> tuple[float, np.ndarray]:
    """The transverse-field start Hamiltonian (1/2) * sum_q (I - X_q), as the
    pair of its identity constant ``num_qubits / 2`` and its field ``-1/2``
    on each qubit.

    Its ground state is the uniform superposition with eigenvalue 0; the
    top of its spectrum is ``num_qubits`` (every qubit in the X = -1
    state).
    """
    return num_qubits / 2.0, np.full(num_qubits, -0.5)


def uniform_state(num_qubits: int) -> np.ndarray:
    """The transverse driver's ground state: every amplitude ``2**(-n/2)``."""
    dim = 2**num_qubits
    return np.full(dim, 1 / np.sqrt(dim), dtype=complex)


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """The computational basis state ``|index>``."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


def _hamiltonian_qubits(h: np.ndarray) -> int:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("dense Hamiltonian must be a square matrix")
    dim = h.shape[0]
    num_qubits = dim.bit_length() - 1
    if 2**num_qubits != dim:
        raise ValueError("dense Hamiltonian dimension must be a power of two")
    return num_qubits


def _real(values, what: str, ndim: int) -> np.ndarray:
    """``values`` as a float array of ``ndim`` axes; raises unless they are
    real and finite."""
    array = np.asarray(values)
    if array.ndim != ndim or array.dtype.kind not in "biuf" or not np.isfinite(array).all():
        raise ValueError(f"{what} must be real, finite and {ndim}-D")
    return array.astype(float, copy=False)


def _transverse_field(driver) -> tuple[float, np.ndarray]:
    """The checked constant and fields of a ``(constant, fields)`` driver."""
    fields = _real(driver[1], "driver fields", 1)
    if not fields.size:
        raise ValueError("driver fields must cover at least one qubit")
    return float(_real(driver[0], "driver constant", 0)), fields


def _pair_qubits(driver, target) -> int:
    """The register of a ``(constant, fields)`` driver with a 1-D diagonal
    target, or of two dense matrices; raises if the two inputs differ in
    representation or register."""
    pair = isinstance(driver, tuple) and len(driver) == 2
    if pair != (np.ndim(target) == 1):
        raise ValueError("driver and target use different representations")
    if not pair:
        num_qubits = _hamiltonian_qubits(driver)
        if _hamiltonian_qubits(target) != num_qubits:
            raise ValueError("driver and target act on different registers")
        return num_qubits
    fields = _transverse_field(driver)[1]
    size = _real(target, "diagonal target", 1).size
    if size != 2**fields.size:
        raise ValueError(
            f"driver and target act on different registers: {fields.size} driver "
            f"fields need a target of {2**fields.size} values, not {size}"
        )
    return fields.size


@dataclass(frozen=True)
class AnnealSpec:
    """An interpolation H_A(t) = (1 - s(t)) * driver + s(t) * target along
    the linear ramp s(t) = t / t_final.

    Both Hamiltonians must use the same representation, which selects the
    propagator:

    - a transverse field as its ``(constant, fields)`` pair (one field a
      qubit, a Kronecker sum over the register's factors) and the target's
      real diagonal of ``2**n`` values: the split step, ``substeps_per_step``
      times per step, or, with ``substeps_per_step=None``, the exact
      matrix-free Chebyshev step of :func:`_chebyshev_step`;
    - two dense Hermitian matrices: the step propagator interpolated in s
      from eigendecompositions at Chebyshev nodes (:func:`_evolve_dense`),
      exact to roundoff, so ``substeps_per_step`` must be 1 or ``None``.
    """

    driver: Union[tuple[float, np.ndarray], np.ndarray]
    target: np.ndarray
    t_final: float
    n_steps: int = 10
    substeps_per_step: Optional[int] = 1
    snapshot_stride: int = 1

    def __post_init__(self):
        _pair_qubits(self.driver, self.target)
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.substeps_per_step is not None and self.substeps_per_step < 1:
            raise ValueError("substeps_per_step must be at least 1")
        if self.is_dense() and self.substeps_per_step not in (1, None):
            raise ValueError(
                "dense Hamiltonians evolve by an exact step propagator, "
                "which has no substeps; use substeps_per_step=1 or None"
            )
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be at least 1")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError("t_final must be finite and positive")

    @property
    def num_qubits(self) -> int:
        return _hamiltonian_qubits(self.driver) if self.is_dense() else len(self.driver[1])

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def step_fractions(self) -> np.ndarray:
        """Ramp values s(t_k) = t_k / t_final at the pre-step times t_k = k * dt."""
        return np.arange(self.n_steps) * self.dt / self.t_final

    def is_dense(self) -> bool:
        return np.ndim(self.target) == 2


@dataclass(frozen=True)
class EvolutionResult:
    """The states an evolution keeps, and the times it keeps them at.

    ``times`` has shape ``(kept,)`` and ``states`` shape ``(kept, 2**n)``,
    with ``kept = snapshot_count(n_steps, stride)``: the initial state at
    time 0, the state after every stride-th step and the state after the
    last step.  The final state is ``states[-1]``.
    """

    times: np.ndarray
    states: np.ndarray


def snapshot_count(n_steps: int, stride: int) -> int:
    """States an evolution of ``n_steps`` keeps at ``stride``: the initial
    state, every stride-th step and the last step."""
    return 1 + n_steps // stride + (n_steps % stride != 0)


def _start(initial, num_qubits: int, n_steps: int, stride: int, dt: float) -> EvolutionResult:
    """An evolution's result with ``initial`` checked and in row 0, and the
    rows of the other kept states still to be filled."""
    amps = np.asarray(initial, dtype=complex)
    if amps.shape != (2**num_qubits,):
        raise ValueError(
            f"initial state of shape {amps.shape} does not match the register "
            f"of {num_qubits} qubits ({2**num_qubits} amplitudes)"
        )
    if abs(np.linalg.norm(amps) - 1.0) > NORM_TOLERANCE:
        raise ValueError("initial state is not normalized")
    count = snapshot_count(n_steps, stride)
    states = np.empty((count, amps.size), dtype=complex)
    states[0] = amps
    return EvolutionResult(np.minimum(np.arange(count) * stride, n_steps) * dt, states)


def _keep(states: np.ndarray, spec: AnnealSpec, step: int, amps: np.ndarray):
    """Store the state after ``step`` steps in its row, if the anneal keeps it."""
    if step % spec.snapshot_stride == 0 or step == spec.n_steps:
        states[-(-step // spec.snapshot_stride)] = amps


def _driver_factors(fields: np.ndarray) -> list[np.ndarray]:
    """The fields of each Kronecker factor of the driver, most significant
    first (:func:`aqtrain.pauli._factor_widths`: the fewest factors of at
    most six qubits).

    Factor ``f`` acts on axis ``f`` of a state reshaped to
    ``(2**w_0, 2**w_1, ...)``; the last axis holds qubits ``0 .. w - 1``.
    """
    parts, top = [], fields.size
    for width in _factor_widths(fields.size):
        parts.append(fields[top - width : top])
        top -= width
    return parts


def _field_block(fields: np.ndarray) -> np.ndarray:
    """``sum_q x_q X_q`` on one factor's qubits, or on a whole register, as
    a dense real matrix: entry ``x_q`` where two indices differ in bit ``q``
    only, zero elsewhere."""
    index = np.arange(2**fields.size)
    block = np.zeros((index.size, index.size))
    for bit, field in enumerate(fields):
        block[index, index ^ (1 << bit)] = field
    return block


def _rotation_blocks(angles: np.ndarray, fields: np.ndarray) -> np.ndarray:
    """``exp(-i a sum_q x_q X_q)`` on one factor's qubits for each angle
    ``a``, as a ``(len(angles), 2**w, 2**w)`` complex array.

    It is the Kronecker product of ``cos(a x_q) I - i sin(a x_q) X_q``, so
    entry ``(r, r')`` is the product over q of ``cos(a x_q)`` where bits q of
    r and r' agree and ``-i sin(a x_q)`` where they differ: a function of
    ``r ^ r'`` alone.  The ``2**w`` products are built by doubling, one
    qubit at a time, and the blocks are one gather from them.
    """
    turns = np.multiply.outer(angles, fields)
    cosines, sines = np.cos(turns), -1j * np.sin(turns)
    table = np.ones((angles.size, 1), dtype=complex)
    for q in range(fields.size):
        table = np.concatenate([table * cosines[:, q, None], table * sines[:, q, None]], axis=1)
    index = np.arange(table.shape[1])
    return table[:, np.bitwise_xor.outer(index, index)]


def self_adjoint(matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate Hermiticity; return the matrix as a real array when its
    imaginary part is zero (a real symmetric matrix takes the real
    eigensolver), else as a complex one.  A real input is checked in real
    arithmetic and returned as it is."""
    matrix = np.asarray(matrix)
    real = not np.iscomplexobj(matrix)
    matrix = matrix.astype(float if real else complex, copy=False)
    if np.max(np.abs(matrix - (matrix.T if real else matrix.conj().T))) > tol:
        raise ValueError("matrix is not Hermitian")
    return matrix if real or matrix.imag.any() else matrix.real


#: bound on the terms the exact step's Chebyshev series drops, relative to
#: the norm of the state it propagates
CHEBYSHEV_TOL = 1e-14

#: terms of the exact step's series held before they are added into its sums
#: (:func:`_chebyshev_step`): every shipped step keeps 18-25 terms, so each is
#: added in one table, and 32 terms at 10 qubits are ``CHUNK_BYTES``.  A
#: table carries two terms into the next, so the length must be even: then a
#: row's parity is its term's.  Part of the algorithm, not a tunable: another
#: length adds the terms in another order
CHEBYSHEV_TABLE_TERMS = 32


def chebyshev_degree(reach: float, tol: float = CHEBYSHEV_TOL) -> int:
    """Degree ``K`` of the Chebyshev series of ``exp(-i reach y)`` on
    ``-1 <= y <= 1`` that the exact step keeps: the smallest ``K`` with
    ``2 * sum_{k > K} (reach / 2)**k / k! <= tol``.

    The series is ``sum_k (2 - delta_k0) (-i)**k J_k(reach) T_k(y)``, with
    ``|T_k(y)| <= 1`` and ``|J_k(x)| <= (x / 2)**k / k!`` (Abramowitz & Stegun
    9.1.62), so the terms past ``K`` change no state by more than ``tol``
    times its norm.  The rule holds ``K`` at least ``reach / 2 - 1`` (each
    term up to there is at least 1), and costs a few dozen flops per
    bisection step at any reach.
    """
    if not math.isfinite(reach) or reach < 0:
        raise ValueError(f"reach must be finite and non-negative, got {reach}")
    half = reach / 2.0
    if half == 0.0:
        return 0
    log_half, bound = math.log(half), tol / 2.0
    log_bound = math.log(bound)

    def fits(degree: int) -> bool:
        log_term = (degree + 1) * log_half - math.lgamma(degree + 2)
        if log_term > log_bound:
            return False
        # a first term below 1 lies past k = half, so the tail falls geometrically
        term, total, k = math.exp(log_term), 0.0, degree + 1
        while total + term > total:
            total += term
            k += 1
            term *= half / k
        return total <= bound

    low, high = -1, max(1, math.ceil(half))
    while not fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if fits(middle) else (middle, high)
    return high


def _series_weights(reach: float, degree: int) -> np.ndarray:
    """``(-1)**(k // 2) (2 - delta_k0) J_k(reach)`` for ``k <= degree``: the
    series coefficients ``(2 - delta_k0) (-i)**k J_k(reach)``, without the
    factor ``-i`` of the odd ones.

    ``J_k`` comes from Miller's backward recurrence
    ``J_{k-1}(x) = (2k / x) J_k(x) - J_{k+1}(x)``, started 20 indices past
    ``degree``, where J is negligible next to ``J_degree``, and normalized by
    ``J_0 + 2 sum_k J_2k = 1`` (Abramowitz & Stegun 9.1.27, 9.1.46, 9.12).
    It costs O(degree) scalar steps; a cosine sum would cost O(degree**2).
    Degree 0 means ``reach <= tol``, where ``J_0 = 1 - reach**2 / 4`` is 1.
    """
    bessel = np.zeros(degree + 1)
    if degree == 0:
        bessel[0] = 1.0
        return bessel
    later, value, even = 0.0, 1.0, 0.0
    for k in range(degree + 20, 0, -1):
        # value is J_k up to a common factor; step to J_{k-1}
        later, value = value, 2.0 * k / reach * value - later
        if abs(value) > 1e250:  # rescale; what is already stored is tiny
            later, value, even = later * 1e-250, value * 1e-250, even * 1e-250
            bessel[k:] *= 1e-250
        if k - 1 <= degree:
            bessel[k - 1] = value
        if k % 2 == 1 and k > 1:
            even += value
    bessel /= bessel[0] + 2.0 * even
    bessel[1:] *= 2.0
    bessel[2::4] *= -1.0
    bessel[3::4] *= -1.0
    return bessel


def _chebyshev_step(
    amps: np.ndarray,
    local: np.ndarray,
    blocks: list,
    lower: float,
    upper: float,
    dt: float,
) -> np.ndarray:
    """``exp(-i H dt) amps`` for ``H = diag(local) + sum_f D_f``, whose
    spectrum lies in ``[lower, upper]``, by its Chebyshev series.

    ``D_f`` is the symmetric matrix ``blocks[f]`` acting on factor f of the
    register (:func:`_driver_factors`), so the sum is a Kronecker sum.  With
    ``H = c + r Y``, ``Y`` has its spectrum in [-1, 1] and ``exp(-i H dt) =
    exp(-i c dt) sum_k a_k T_k(Y)``, ``a_k = (2 - delta_k0) (-i)**k J_k(r
    dt)`` (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), truncated at
    :func:`chebyshev_degree`.  The terms follow ``T_{k+1}(Y) v = 2 Y T_k(Y) v
    - T_{k-1}(Y) v``.  ``Y`` is real, so the real and imaginary parts of
    ``amps`` recur as the two rows of one real pair.

    A register of one factor is spanned by its one block, so the shifted,
    scaled diagonal is folded into it once a step, ``2 Y = (2 / r) (D_0 +
    diag(local - c))``, and a term is one matrix product and one
    subtraction.  On more factors ``2 Y`` is applied as one matrix product
    per factor and the diagonal's multiply, summed through a work pair.
    The terms are written into a table of ``CHEBYSHEV_TABLE_TERMS`` pairs.
    ``a_k`` is real at even k and imaginary at odd k, so the table's even
    and odd rows are added into two sums by one matrix-vector product each,
    and the sums are joined at the end.  A longer series adds each full
    table in and carries its last two terms into the next.  So the step
    holds the table, the two sums and a work pair at any degree, keeps no
    basis, and its cost is known before it runs.
    """
    center, radius = (upper + lower) / 2.0, (upper - lower) / 2.0
    reach = radius * dt
    degree = chebyshev_degree(reach)
    weights = _series_weights(reach, degree)
    phase = np.exp(-1j * center * dt)
    if degree == 0:
        return (phase * weights[0]) * amps
    size, scale = amps.size, 2.0 / radius
    table = np.empty((min(degree + 1, CHEBYSHEV_TABLE_TERMS), 2, size))
    pairs, rows = list(table), table.reshape(len(table), -1)
    sums = np.empty((2, 2 * size))
    # the work pair is the result's memory until the sums are joined into it
    result = np.empty(size, dtype=complex)
    work = result.view(float).reshape(2, size)
    if len(blocks) == 1:
        twice = scale * blocks[0]
        twice.reshape(-1)[:: size + 1] += scale * (local - center)

        def twice_y(v, out):
            """``pairs[out] = 2 Y pairs[v]``."""
            np.matmul(pairs[v], twice, out=pairs[out])

    else:
        blocks = [scale * block for block in blocks]
        diagonal = np.tile(local - center, (2, 1))
        diagonal *= scale
        sizes = [block.shape[0] for block in blocks]
        views = [_factor_views(pair, sizes) for pair in pairs + [work]]

        def twice_y(v, out):
            """``pairs[out] = 2 Y pairs[v]``, through the work pair."""
            for j, block in enumerate(blocks):
                _factor_product(block, views[v][j], views[-1 if j else out][j])
                if j:
                    pairs[out] += work
            np.multiply(diagonal, pairs[v], out=work)
            pairs[out] += work

    pairs[0][0], pairs[0][1] = amps.real, amps.imag
    twice_y(0, 1)
    pairs[1] *= 0.5
    # row j of the table holds term base + j; the rows below fresh are carried
    base, fresh = 0, 0
    while True:
        stop = min(len(pairs), degree + 1 - base)
        for j in range(2, stop):
            twice_y(j - 1, j)
            pairs[j] -= pairs[j - 2]
        # base is even, so a row's parity is its term's
        for parity, total in enumerate(sums):
            first = fresh + parity
            terms = weights[base + first : base + stop : 2], rows[first:stop:2]
            if fresh:
                total += np.matmul(*terms, out=work.reshape(-1))
            else:
                np.matmul(*terms, out=total)
        if base + stop > degree:
            break
        table[:2] = table[stop - 2 : stop]
        base, fresh = base + stop - 2, 2
    (even_re, even_im), (odd_re, odd_im) = sums.reshape(2, 2, size)
    # even - i * odd, each the complex vector of its pair
    np.add(even_re, odd_im, out=result.real)
    np.subtract(even_im, odd_re, out=result.imag)
    result *= phase
    return result


#: bytes of step-indexed operators (interpolated propagators, split-step
#: phases, real-time phases) built ahead of a stepping loop at a time; also
#: the stacked states of :func:`aqtrain.matrix_method.window_masses`.  A
#: quarter of the 2 MB L2 cache of the Xeon host it was tuned on, so a chunk
#: stays cached between the GEMM that writes it and the steps that read it:
#: the shipped tilted anneal (4000 steps at 5 qubits) took 12.3-13.2 ms at
#: 512 KB (32 propagators a chunk), 13.1 at 256 KB, 13.8-14.3 at 128 KB,
#: 15.5-16.7 at 1 MB and 15.2-16.3 at 2 MB (medians of 9 calls, at 1 and 2
#: BLAS threads).  Every chunk size gives the same bits.  From 8 qubits
#: (dense) and 15 (split) a chunk holds only its floor of 2 propagators or 1
#: step.
CHUNK_BYTES = 1 << 19

#: Chebyshev nodes per panel of the dense anneal; with each panel's reach at
#: most 1 the interpolation error bound 2 (1/4)**13 / 13! is about 5e-18
DENSE_PANEL_NODES = 13


def _chebyshev_points(lower: float, upper: float, count: int) -> np.ndarray:
    """First-kind Chebyshev points of ``[lower, upper]``."""
    angles = (2 * np.arange(count) + 1) * math.pi / (2 * count)
    return lower + (upper - lower) * (np.cos(angles) + 1.0) / 2.0


def _lagrange_weights(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``(len(points), len(nodes))`` values of the Lagrange basis of ``nodes``.

    Barycentric form; a point that coincides with a node gets that node's
    unit row.
    """
    gaps = np.subtract.outer(nodes, nodes)
    np.fill_diagonal(gaps, 1.0)
    barycentric = 1.0 / gaps.prod(axis=1)
    offsets = np.subtract.outer(points, nodes)
    hits = offsets == 0.0
    offsets[hits] = 1.0
    terms = barycentric / offsets
    weights = terms / terms.sum(axis=1, keepdims=True)
    on_node = hits.any(axis=1)
    weights[on_node] = hits[on_node]
    return weights


def _step_propagator(hamiltonian: np.ndarray, dt: float) -> np.ndarray:
    energies, vectors = np.linalg.eigh(hamiltonian)
    return (vectors * np.exp(-1j * energies * dt)) @ vectors.conj().T


def _evolve_dense(spec: AnnealSpec, fractions: np.ndarray, states: np.ndarray):
    """Dense stepping by piecewise Chebyshev interpolation of U(s) in s.

    U(s) = exp(-i H(s) dt) with H(s) = D + s (T - D) is entire in s, and
    ``|d^j U / ds^j| <= (|T - D| dt)**j`` (Duhamel).  So [0, 1] is cut into
    ``ceil(|T - D| dt)`` equal panels (at most one per step), each of reach
    at most 1, and U is interpolated on each panel that holds a step from
    its values at ``DENSE_PANEL_NODES`` Chebyshev points (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013, ch. 7-8),
    one ``eigh`` per node.  The step propagators ``U_k = sum_j w_kj U_j``
    of a chunk of steps come from one real GEMM of the Lagrange weights
    against the node block, so each step is one matrix-vector product.  No
    product has a lone row (numpy would take gemv, which rounds differently),
    so a propagator's bits do not depend on the chunk it is built in.
    A panel with no more steps than nodes takes its steps' own s values as
    the nodes, so its weights are unit rows and no run decomposes more
    matrices than it has steps.  One node block serves every panel, so a
    panel's block is overwritten, never held beside the next.
    """
    driver = self_adjoint(spec.driver)
    target = self_adjoint(spec.target)
    dt = spec.dt
    amps = states[0]
    dim = amps.size
    reach = float(np.max(np.abs(np.linalg.eigvalsh(target - driver)))) * dt
    # with a panel per step every panel takes its steps' own s values as nodes,
    # so more panels change nothing; the cap keeps a huge reach a small integer
    panels = max(1, math.ceil(min(reach, fractions.size)))
    panel_of = np.minimum((fractions * panels).astype(int), panels - 1)
    runs = np.split(np.arange(fractions.size), np.flatnonzero(np.diff(panel_of)) + 1)
    chunk = max(2, CHUNK_BYTES // (16 * dim * dim))
    propagators = np.empty((min(chunk, fractions.size), dim, dim), dtype=complex)
    block = np.empty((min(DENSE_PANEL_NODES, fractions.size), dim, dim), dtype=complex)
    for steps in runs:
        if steps.size <= DENSE_PANEL_NODES:
            # the steps' own s values are the nodes, and the weights the identity
            nodes = fractions[steps]
        else:
            panel = panel_of[steps[0]]
            nodes = _chebyshev_points(panel / panels, (panel + 1) / panels, DENSE_PANEL_NODES)
        for j, s in enumerate(nodes):
            block[j] = _step_propagator((1.0 - s) * driver + s * target, dt)
        # real weights times the (re, im) pairs of every node entry
        flat = block[: nodes.size].reshape(nodes.size, -1).view(float)
        weights = _lagrange_weights(nodes, fractions[steps])
        for first in range(0, steps.size, chunk):
            # numpy hands a one-row product to gemv, which rounds unlike the
            # GEMM, so a lone last row is multiplied along with the row before it
            lead = int(0 < first == steps.size - 1)
            rows = weights[first - lead : first + chunk]
            interpolated = propagators[: rows.shape[0]]
            np.matmul(rows, flat, out=interpolated.reshape(rows.shape[0], -1).view(float))
            # Python-int step numbers: a numpy int64 makes each _keep three times dearer
            for step, propagator in enumerate(interpolated[lead:], int(steps[first]) + 1):
                amps = propagator.dot(amps)  # the same zgemv as @, at less call overhead
                _keep(states, spec, step, amps)


def evolve_adiabatic(spec: AnnealSpec, initial) -> EvolutionResult:
    """Run the interpolation from ``driver`` to ``target`` on ``initial``,
    a normalized array of ``2**n`` amplitudes.

    Keeps the initial state, every ``snapshot_stride``-th step and the
    final step.
    """
    if spec.is_dense() and spec.num_qubits > DENSE_EVOLUTION_CAP:
        raise ValueError(f"dense evolution supports at most {DENSE_EVOLUTION_CAP} qubits")
    fractions = spec.step_fractions()
    dt = spec.dt
    result = _start(initial, spec.num_qubits, spec.n_steps, spec.snapshot_stride, dt)
    states = result.states
    amps = states[0]

    if spec.is_dense():
        _evolve_dense(spec, fractions, states)
        return result

    constant, fields = _transverse_field(spec.driver)
    parts = _driver_factors(fields)
    diagonal = np.asarray(spec.target, dtype=float)

    if spec.substeps_per_step is None:
        blocks = [_field_block(part) for part in parts]
        # Weyl: the spectrum of (1 - s) driver + s target lies within the same
        # mix of the two parts' bounds, and the driver's is c -+ sum_q |x_q|
        spread = np.abs(fields).sum()
        lower = (1.0 - fractions) * (constant - spread) + fractions * diagonal.min()
        upper = (1.0 - fractions) * (constant + spread) + fractions * diagonal.max()
        for k, s in enumerate(fractions):
            local = (1.0 - s) * constant + s * diagonal
            driven = [(1.0 - s) * block for block in blocks]
            amps = _chebyshev_step(amps, local, driven, lower[k], upper[k], dt)
            _keep(states, spec, k + 1, amps)
        return result

    substeps = spec.substeps_per_step
    sub_dt = dt / substeps
    # per step: the target phases and every factor's rotation block
    chunk = max(1, CHUNK_BYTES // (16 * (amps.size + sum(4**part.size for part in parts))))
    # the state ping-pongs between two buffers, one product a factor
    buffers = [amps.copy(), np.empty_like(amps)]
    views = [_factor_views(b, [2**part.size for part in parts]) for b in buffers]
    held = 0
    for first in range(0, fractions.size, chunk):
        s = fractions[first : first + chunk]
        driver_weights = (1.0 - s) * sub_dt
        rotations = [_rotation_blocks(driver_weights, part) for part in parts]
        phases = _unit_phases(np.multiply.outer(-s * sub_dt, diagonal))
        phases *= np.exp(-1j * driver_weights * constant)[:, None]
        for j, k in enumerate(range(first, first + s.size)):
            for _ in range(substeps):
                for f, rotation in enumerate(rotations):
                    _factor_product(rotation[j], views[held][f], views[1 - held][f])
                    held = 1 - held
                buffers[held] *= phases[j]
            _keep(states, spec, k + 1, buffers[held])
    return result


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """``exp(1j * angles)`` from one cos and one sin pass, half the time of a
    complex ``exp``."""
    out = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def evolve_real_time(
    hamiltonian: np.ndarray,
    initial,
    t_total: float,
    dt: float,
    snapshot_stride: int = 1,
) -> EvolutionResult:
    """The state under a fixed Hamiltonian after every ``snapshot_stride``-th
    of ``round(t_total / dt)`` steps of length ``dt``, and after the last.

    ``initial`` is a normalized array of ``2**n`` amplitudes.
    ``hamiltonian`` must be a dense Hermitian matrix.  It is diagonalized once,
    ``H = V diag(E) V^*``, and each kept state is evaluated in closed form,
    ``V (exp(-i E t_k) * V^* psi_0)``, so it is exact at its time ``t_k``
    and the skipped steps cost nothing.  The initial state is kept too.
    """
    if dt <= 0 or t_total <= 0:
        raise ValueError("t_total and dt must be positive")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be at least 1")
    n_steps = max(1, round(t_total / dt))
    num_qubits = _hamiltonian_qubits(hamiltonian)
    if num_qubits > DENSE_EVOLUTION_CAP:
        raise ValueError(f"dense evolution supports at most {DENSE_EVOLUTION_CAP} qubits")
    result = _start(initial, num_qubits, n_steps, snapshot_stride, dt)
    energies, vectors = np.linalg.eigh(self_adjoint(hamiltonian))
    start = vectors.conj().T @ result.states[0]
    times, kept = result.times[1:], result.states[1:]
    chunk = max(1, CHUNK_BYTES // (16 * start.size))
    for first in range(0, times.size, chunk):
        phases = _unit_phases(np.multiply.outer(times[first : first + chunk], -energies))
        np.matmul(phases * start, vectors.T, out=kept[first : first + chunk])
    return result


def _dense_driver(constant: float, fields: np.ndarray) -> np.ndarray:
    """The real matrix of the transverse-field driver ``constant + sum_q
    fields[q] X_q``."""
    return constant * np.eye(2**fields.size) + _field_block(fields)


def instantaneous_spectrum(driver, target, s_values, k_lowest: int = 4) -> np.ndarray:
    """Lowest ``k_lowest`` eigenvalues of (1 - s) * driver + s * target for
    each requested s.

    The two Hamiltonians are a Pauli pair on one register, as in an
    :class:`AnnealSpec`: a ``(constant, fields)`` transverse field with a
    diagonal target vector; two dense matrices are rejected.
    Returns an array of shape ``(len(s_values), k_lowest)`` with each row
    sorted ascending.
    """
    num_qubits = _pair_qubits(driver, target)
    if np.ndim(target) != 1:
        raise ValueError("spectrum takes a (constant, fields) driver and a diagonal target")
    if num_qubits > MATRIX_QUBIT_CAP:
        raise ValueError(f"spectrum supports at most {MATRIX_QUBIT_CAP} qubits")
    driver, target = _dense_driver(*_transverse_field(driver)), np.asarray(target, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    curves = np.empty((s_values.size, min(k_lowest, 2**num_qubits)))
    # H(s) is built in one buffer: the scaled driver, plus s * target on its diagonal
    hamiltonian = np.empty_like(driver)
    diagonal = hamiltonian.reshape(-1)[:: target.size + 1]
    for row, s in zip(curves, s_values):
        np.multiply(driver, 1.0 - s, out=hamiltonian)
        diagonal += s * target
        row[:] = np.linalg.eigvalsh(hamiltonian)[: row.size]
    return curves
