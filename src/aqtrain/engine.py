"""Adiabatic and real-time evolution of qubit-register states.

Two Hamiltonian representations share one interface, and the anneal picks
its propagator from the representation and ``substeps_per_step``:

- A pair of :class:`~aqtrain.pauli.PauliPolynomial` objects, whose driver is
  a transverse field (identity and single-qubit X terms) and whose target is
  diagonal, evolves by default through a first-order split step.  The
  driver's X part is a diagonal in the Hadamard basis, so both factors are
  phase passes: the target's directly (all Z-terms commute, so there is no
  splitting error inside the group), the driver's between two Walsh-Hadamard
  transforms; ``substeps_per_step`` refines the split.
- The same pair with ``substeps_per_step=None`` evolves exactly, without
  splitting: each step applies ``exp(-i H dt)`` through a Lanczos
  (Krylov) expansion, :func:`expm_krylov`, on a matrix-free operator: the
  target and identity diagonals, plus the driver's X diagonal between two
  transforms.  No matrix is formed.
- A pair of dense Hermitian matrices evolves by piecewise Chebyshev
  interpolation of the step propagator ``U(s) = exp(-i H(s) dt)`` in the
  schedule value s (:func:`_evolve_dense`).  H(s) is linear in s, so U is
  entire and a few ``eigh`` calls at interpolation nodes replace one per
  step: 13 instead of 4000 on the tilted-well anneal.  A panel with no more
  steps than nodes takes its steps' own s values as the nodes, where the
  interpolation weights are the identity.  There is no Trotter error, and
  the interpolation error is below roundoff.

The split and dense stepping loops apply their steps and nothing else:
what depends only on the step index (the split step's phase vectors, the
interpolated dense propagators, so that a dense step is one matrix-vector
product) is built ahead of the loop, ``CHUNK_BYTES`` at a time.

Real-time evolution under a fixed Hamiltonian (:func:`evolve_real_time`,
used by the ``tunnel`` experiment) is dense-only and rejects a
PauliPolynomial.  It diagonalizes the matrix once and evaluates each kept
state in closed form at its time, so no step loop runs and a kept state
is exact at its time.

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
from typing import Callable, Optional, Union

import numpy as np

from .pauli import MATRIX_QUBIT_CAP, PauliPolynomial, _walsh_hadamard, pauli_x

#: largest register evolved through dense eigendecomposition
DENSE_EVOLUTION_CAP = 10

#: largest deviation from unit norm an initial state may have
NORM_TOLERANCE = 1e-9

Hamiltonian = Union[PauliPolynomial, np.ndarray]

_NON_DIAGONAL_TARGET = "PauliPolynomial target must be diagonal (identity/Z terms only)"


def transverse_driver(num_qubits: int) -> PauliPolynomial:
    """The transverse-field start Hamiltonian (1/2) * sum_q (I - X_q).

    Its ground state is the uniform superposition with eigenvalue 0; the
    top of its spectrum is ``num_qubits`` (every qubit in the X = -1
    state).
    """
    driver = PauliPolynomial.identity(num_qubits, num_qubits / 2.0)
    for qubit in range(num_qubits):
        driver = driver - 0.5 * pauli_x(num_qubits, qubit)
    return driver


def uniform_state(num_qubits: int) -> np.ndarray:
    """The transverse driver's ground state: every amplitude ``2**(-n/2)``."""
    dim = 2**num_qubits
    return np.full(dim, 1 / np.sqrt(dim), dtype=complex)


def basis_state(num_qubits: int, index: int) -> np.ndarray:
    """The computational basis state ``|index>``."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return amps


@dataclass(frozen=True)
class LinearSchedule:
    """The ramp s(t) = t / t_final."""

    t_final: float

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")

    def __call__(self, t: float) -> float:
        return t / self.t_final


def _hamiltonian_qubits(h: Hamiltonian) -> int:
    if isinstance(h, PauliPolynomial):
        return h.num_qubits
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("dense Hamiltonian must be a square matrix")
    dim = h.shape[0]
    num_qubits = dim.bit_length() - 1
    if 2**num_qubits != dim:
        raise ValueError("dense Hamiltonian dimension must be a power of two")
    return num_qubits


def _pair_qubits(driver: Hamiltonian, target: Hamiltonian) -> int:
    """The register of a driver and target that share one representation
    and one register; raises if they do not."""
    if isinstance(driver, PauliPolynomial) != isinstance(target, PauliPolynomial):
        raise ValueError("driver and target use different representations")
    num_qubits = _hamiltonian_qubits(driver)
    if _hamiltonian_qubits(target) != num_qubits:
        raise ValueError("driver and target act on different registers")
    return num_qubits


@dataclass(frozen=True)
class AnnealSpec:
    """An interpolation H_A(t) = (1 - s(t)) * driver + s(t) * target.

    Both Hamiltonians must use the same representation, which selects the
    propagator:

    - two PauliPolynomials (driver restricted to identity/single-X terms,
      which are diagonal in the Hadamard basis; diagonal target): the split
      step, ``substeps_per_step`` times per step, or, with
      ``substeps_per_step=None``, the exact matrix-free Krylov step of
      :func:`expm_krylov`;
    - two dense Hermitian matrices: the step propagator interpolated in s
      from eigendecompositions at Chebyshev nodes (:func:`_evolve_dense`),
      exact to roundoff, so ``substeps_per_step`` must be 1 or ``None``.
    """

    driver: Hamiltonian
    target: Hamiltonian
    schedule: LinearSchedule
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
        s0 = self.schedule(0.0)
        s1 = self.schedule(self.schedule.t_final)
        if abs(s0) > 1e-12 or abs(s1 - 1.0) > 1e-12:
            raise ValueError("schedule must satisfy s(0) = 0 and s(t_final) = 1")

    @property
    def num_qubits(self) -> int:
        return _hamiltonian_qubits(self.driver)

    @property
    def dt(self) -> float:
        return self.schedule.t_final / self.n_steps

    def step_fractions(self) -> np.ndarray:
        """Schedule values s(t_k) at the pre-step times t_k = k * dt."""
        return np.asarray(self.schedule(np.arange(self.n_steps) * self.dt), dtype=float)

    def is_dense(self) -> bool:
        return not isinstance(self.driver, PauliPolynomial)


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


def _split_driver_parts(driver: PauliPolynomial) -> tuple[float, np.ndarray]:
    """Identity coefficient of a driver, and its X part in the Hadamard basis.

    ``sum_q x_q X_q = W diag(xdiag) W / 2**n`` with ``W`` the Walsh-Hadamard
    transform and ``xdiag[b] = sum_q x_q (1 - 2 b_q)``: the transform of the
    X coefficients indexed by X-mask, as :meth:`PauliPolynomial.diagonal`
    does for Z.  Raises if the driver contains anything beyond identity and
    single-qubit X terms, since only those are diagonal there.
    """
    constant = 0.0
    x_coeffs = np.zeros(2**driver.num_qubits)
    for term in driver.terms():
        if abs(term.coefficient.imag) > 1e-12:
            raise ValueError("driver must be Hermitian")
        if not term.factors:
            constant = term.coefficient.real
        elif len(term.factors) == 1 and term.factors[0][1] == "X":
            x_coeffs[1 << term.factors[0][0]] = term.coefficient.real
        else:
            raise ValueError(
                "PauliPolynomial driver must contain only identity and single-qubit X terms"
            )
    return constant, _walsh_hadamard(x_coeffs)


def self_adjoint(matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate Hermiticity; return the matrix as a real array when its
    imaginary part is zero (a real symmetric matrix takes the real
    eigensolver), else as a complex one."""
    matrix = np.asarray(matrix, dtype=complex)
    if np.max(np.abs(matrix - matrix.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian")
    return matrix if matrix.imag.any() else matrix.real


def expm_krylov(
    matvec: Callable[[np.ndarray], np.ndarray],
    dt: float,
    v: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> np.ndarray:
    """``exp(-i H dt) v`` for a Hermitian ``H`` given only as ``matvec(x) = H x``.

    Lanczos iteration with full reorthogonalisation builds an orthonormal
    Krylov basis V_m and the tridiagonal projection T_m = V_m^* H V_m, then
    returns ``|v| V_m exp(-i T_m dt) e_1`` (Park & Light, J. Chem. Phys. 85,
    1986; Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997).  It stops when
    the a-posteriori error estimate ``beta_{m+1} |[exp(-i T_m dt) e_1]_m|``,
    relative to ``|v|``, is at most ``tol``.  A happy breakdown (``v`` lies
    in an invariant subspace, e.g. is an eigenvector) makes ``beta_{m+1}``
    vanish, so the loop returns there, as it does once the basis spans the
    whole space.  Raises ``RuntimeError`` if ``max_iter`` iterations do not
    converge.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = np.asarray(v, dtype=complex)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return v.copy()
    dim = v.size
    size = min(max_iter, dim)
    # row-stacked basis: (V @ w.conj()).conj() @ V runs as two contiguous gemv
    # calls, and the tridiagonal projection fills in place
    basis = np.empty((size + 1, dim), dtype=complex)
    basis[0] = v / norm
    tridiagonal = np.zeros((size + 1, size + 1))
    for m in range(size):
        w = np.asarray(matvec(basis[m]), dtype=complex)
        alpha = float(np.vdot(basis[m], w).real)
        tridiagonal[m, m] = alpha
        w = w - alpha * basis[m]
        if m:
            w -= tridiagonal[m, m - 1] * basis[m - 1]
        w -= (basis[: m + 1] @ w.conj()).conj() @ basis[: m + 1]
        beta = float(np.linalg.norm(w))
        energies, vectors = np.linalg.eigh(tridiagonal[: m + 1, : m + 1])
        coeffs = vectors @ (np.exp(-1j * dt * energies) * vectors[0])
        if beta * abs(coeffs[-1]) <= tol or m + 1 == dim:
            return norm * (coeffs @ basis[: m + 1])
        tridiagonal[m, m + 1] = tridiagonal[m + 1, m] = beta
        basis[m + 1] = w / beta
    raise RuntimeError(
        f"Krylov propagator did not reach tol={tol:g} in {max_iter} iterations"
    )


#: bytes of step-indexed operators (interpolated propagators, split-step
#: phases, real-time phases) built ahead of a stepping loop at a time; also
#: the stacked states of :func:`aqtrain.matrix_method.window_masses`
CHUNK_BYTES = 1 << 20

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
    against the node block, so each step is one matrix-vector product.
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
            rows = weights[first : first + chunk]
            interpolated = propagators[: rows.shape[0]]
            np.matmul(rows, flat, out=interpolated.reshape(rows.shape[0], -1).view(float))
            for propagator, k in zip(interpolated, steps[first : first + chunk]):
                amps = propagator @ amps
                _keep(states, spec, k + 1, amps)


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

    constant, xdiag = _split_driver_parts(spec.driver)
    diagonal = spec.target.diagonal()
    dim = amps.size

    if spec.substeps_per_step is None:
        for k, s in enumerate(fractions):
            local = (1.0 - s) * constant + s * diagonal
            scaled = (1.0 - s) / dim * xdiag

            def matvec(v, local=local, scaled=scaled):
                return local * v + _walsh_hadamard(scaled * _walsh_hadamard(v))

            amps = expm_krylov(matvec, dt, amps)
            _keep(states, spec, k + 1, amps)
        return result

    sub_dt = dt / spec.substeps_per_step
    chunk = max(1, CHUNK_BYTES // (32 * dim))
    for first in range(0, fractions.size, chunk):
        s = fractions[first : first + chunk]
        driver_weights = (1.0 - s) * sub_dt
        rotations = _unit_phases(np.multiply.outer(-driver_weights, xdiag))
        # the 1 / 2**n of the transform pair rides on the constant phase
        phases = _unit_phases(np.multiply.outer(-s * sub_dt, diagonal))
        phases *= (np.exp(-1j * driver_weights * constant) / dim)[:, None]
        for k, rotation, phase in zip(range(first, first + s.size), rotations, phases):
            for _ in range(spec.substeps_per_step):
                amps = _walsh_hadamard(rotation * _walsh_hadamard(amps))
                amps *= phase
            _keep(states, spec, k + 1, amps)
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
    ``hamiltonian`` must be a dense Hermitian matrix (a PauliPolynomial is
    rejected; pass its ``to_matrix()``).  It is diagonalized once,
    ``H = V diag(E) V^*``, and each kept state is evaluated in closed form,
    ``V (exp(-i E t_k) * V^* psi_0)``, so it is exact at its time ``t_k``
    and the skipped steps cost nothing.  The initial state is kept too.
    """
    if isinstance(hamiltonian, PauliPolynomial):
        raise ValueError("real-time evolution needs a dense matrix, not a PauliPolynomial")
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


def instantaneous_spectrum(
    driver: Hamiltonian, target: Hamiltonian, s_values, k_lowest: int = 4
) -> np.ndarray:
    """Lowest ``k_lowest`` eigenvalues of (1 - s) * driver + s * target for
    each requested s.

    The two Hamiltonians use one representation and one register, as in an
    :class:`AnnealSpec`; a PauliPolynomial target must be diagonal.
    Returns an array of shape ``(len(s_values), k_lowest)`` with each row
    sorted ascending.
    """
    num_qubits = _pair_qubits(driver, target)
    if num_qubits > MATRIX_QUBIT_CAP:
        raise ValueError(f"spectrum supports at most {MATRIX_QUBIT_CAP} qubits")
    if isinstance(target, PauliPolynomial):
        if not target.is_diagonal():
            raise ValueError(_NON_DIAGONAL_TARGET)
        driver, target = driver.to_matrix(), np.diag(target.diagonal())
    driver, target = self_adjoint(driver), self_adjoint(target)
    s_values = np.asarray(s_values, dtype=float)
    curves = np.empty((s_values.size, min(k_lowest, 2**num_qubits)))
    for row, s in zip(curves, s_values):
        row[:] = np.linalg.eigvalsh((1.0 - s) * driver + s * target)[: row.size]
    return curves
