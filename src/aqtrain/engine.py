"""Adiabatic and real-time evolution of qubit-register states.

Two Hamiltonian representations share one interface, and the anneal picks
its propagator from the representation and ``substeps_per_step``:

- A pair of :class:`~aqtrain.pauli.PauliPolynomial` objects, whose driver is
  a transverse field (identity and single-qubit X terms) and whose target is
  diagonal, evolves by default through a first-order split step.  The
  diagonal factor is one phase pass (all Z-terms commute, so there is no
  splitting error inside the group) and the X factor is a product of
  independent single-qubit rotations; ``substeps_per_step`` refines it.
- The same pair with ``substeps_per_step=None`` evolves exactly, without
  splitting: each step applies ``exp(-i H dt)`` through a Lanczos
  (Krylov) expansion, :func:`expm_krylov`, on a matrix-free operator built
  from X flips and the target diagonal.  No matrix is formed.
- A pair of dense Hermitian matrices evolves by per-step
  eigendecomposition.  It has no Trotter error either, and is the
  reference implementation for convergence tests.  On the matrix-method
  anneals (32 x 32, thousands of short steps) ``eigh`` outruns a Krylov
  step on ``M @ v``, so dense pairs keep it.

Step times follow the pre-step convention: step ``k`` of ``n`` applies
``exp(-i H_A(t_k) dt)`` with ``t_k = k * dt``, i.e. the Hamiltonian is
evaluated at the time reached so far, starting from ``t = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .encodings import EncodingTable, report_bitstring
from .pauli import MATRIX_QUBIT_CAP, PauliPolynomial, pauli_x
from .state import StateVector

#: largest register evolved through dense per-step eigendecomposition
DENSE_EVOLUTION_CAP = 10

Hamiltonian = Union[PauliPolynomial, np.ndarray]


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


@dataclass(frozen=True)
class AnnealSpec:
    """An interpolation H_A(t) = (1 - s(t)) * driver + s(t) * target.

    Both Hamiltonians must use the same representation, which selects the
    propagator:

    - two PauliPolynomials (driver restricted to identity/single-X terms,
      diagonal target): the split step, ``substeps_per_step`` times per
      step, or, with ``substeps_per_step=None``, the exact matrix-free
      Krylov step of :func:`expm_krylov`;
    - two dense Hermitian matrices: per-step eigendecomposition, which is
      exact, so ``substeps_per_step`` must be 1 or ``None``.
    """

    driver: Hamiltonian
    target: Hamiltonian
    schedule: LinearSchedule
    n_steps: int = 10
    substeps_per_step: Optional[int] = 1
    snapshot_stride: int = 1

    def __post_init__(self):
        if isinstance(self.driver, PauliPolynomial) != isinstance(
            self.target, PauliPolynomial
        ):
            raise ValueError("driver and target use different representations")
        if _hamiltonian_qubits(self.driver) != _hamiltonian_qubits(self.target):
            raise ValueError("driver and target act on different registers")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.substeps_per_step is not None and self.substeps_per_step < 1:
            raise ValueError("substeps_per_step must be at least 1")
        if self.is_dense() and self.substeps_per_step not in (1, None):
            raise ValueError(
                "dense Hamiltonians evolve by exact per-step eigendecomposition, "
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
        return np.array([self.schedule(k * self.dt) for k in range(self.n_steps)])

    def is_dense(self) -> bool:
        return not isinstance(self.driver, PauliPolynomial)


@dataclass(frozen=True)
class EvolutionResult:
    final: StateVector
    snapshots: list  # of (time, StateVector) pairs


def _split_driver_parts(driver: PauliPolynomial) -> tuple[float, np.ndarray]:
    """Identity coefficient and per-qubit X coefficients of a driver.

    Raises if the driver contains anything beyond identity and single-qubit
    X terms, since only those admit the exact per-qubit rotation factor.
    """
    constant = 0.0
    x_coeffs = np.zeros(driver.num_qubits)
    for term in driver.terms():
        if abs(term.coefficient.imag) > 1e-12:
            raise ValueError("driver must be Hermitian")
        if not term.factors:
            constant = term.coefficient.real
        elif len(term.factors) == 1 and term.factors[0][1] == "X":
            x_coeffs[term.factors[0][0]] = term.coefficient.real
        else:
            raise ValueError(
                "PauliPolynomial driver must contain only identity and single-qubit X terms"
            )
    return constant, x_coeffs


def _qubit_view(amps: np.ndarray, num_qubits: int, qubit: int) -> np.ndarray:
    """A little-endian amplitude array with ``qubit`` as the middle axis."""
    return amps.reshape(2 ** (num_qubits - qubit - 1), 2, 2**qubit)


def _apply_x_rotation(amps: np.ndarray, num_qubits: int, qubit: int, angle: float):
    """In-place exp(-i * angle * X_qubit) on a little-endian amplitude array."""
    view = _qubit_view(amps, num_qubits, qubit)
    lower = view[:, 0, :].copy()
    upper = view[:, 1, :]
    cos, sin = math.cos(angle), math.sin(angle)
    view[:, 0, :] = cos * lower - 1j * sin * upper
    view[:, 1, :] = cos * upper - 1j * sin * lower


def self_adjoint(matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate Hermiticity and return the matrix as a complex array."""
    matrix = np.asarray(matrix, dtype=complex)
    if np.max(np.abs(matrix - matrix.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian")
    return matrix


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
    # row-stacked basis: (V.conj() @ w) @ V runs as two contiguous gemv calls
    basis = np.empty((min(max_iter, dim) + 1, dim), dtype=complex)
    basis[0] = v / norm
    alphas, betas = [], []
    for m in range(min(max_iter, dim)):
        w = np.asarray(matvec(basis[m]), dtype=complex)
        alphas.append(float(np.vdot(basis[m], w).real))
        w = w - alphas[-1] * basis[m]
        if m:
            w -= betas[-1] * basis[m - 1]
        w -= (basis[: m + 1].conj() @ w) @ basis[: m + 1]
        beta = float(np.linalg.norm(w))
        energies, vectors = np.linalg.eigh(
            np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        )
        coeffs = vectors @ (np.exp(-1j * dt * energies) * vectors[0])
        if beta * abs(coeffs[-1]) <= tol or m + 1 == dim:
            return norm * (coeffs @ basis[: m + 1])
        betas.append(beta)
        basis[m + 1] = w / beta
    raise RuntimeError(
        f"Krylov propagator did not reach tol={tol:g} in {max_iter} iterations"
    )


def _apply_x_sum(amps: np.ndarray, num_qubits: int, x_coeffs: np.ndarray) -> np.ndarray:
    """``sum_q x_q X_q amps``, each X_q an axis flip of the qubit view."""
    out = np.zeros_like(amps)
    for qubit in np.nonzero(x_coeffs)[0]:
        _qubit_view(out, num_qubits, qubit)[...] += (
            x_coeffs[qubit] * _qubit_view(amps, num_qubits, qubit)[:, ::-1, :]
        )
    return out


def _dense_step(matrix: np.ndarray, dt: float, amps: np.ndarray) -> np.ndarray:
    energies, vectors = np.linalg.eigh(matrix)
    phases = np.exp(-1j * energies * dt)
    return vectors @ (phases * (vectors.conj().T @ amps))


def evolve_adiabatic(spec: AnnealSpec, initial: StateVector) -> EvolutionResult:
    """Run the interpolation from ``driver`` to ``target`` on ``initial``.

    Returns the final state plus ``(time, state)`` snapshots: the initial
    state, every ``snapshot_stride``-th step and the final step.
    """
    if initial.num_qubits != spec.num_qubits:
        raise ValueError("initial state register does not match the Hamiltonians")
    amps = initial.amplitudes.astype(complex)
    fractions = spec.step_fractions()
    dt = spec.dt
    snapshots = [(0.0, initial)]

    if spec.is_dense():
        if spec.num_qubits > DENSE_EVOLUTION_CAP:
            raise ValueError(
                f"dense evolution supports at most {DENSE_EVOLUTION_CAP} qubits"
            )
        driver = self_adjoint(spec.driver)
        target = self_adjoint(spec.target)
        for k, s in enumerate(fractions):
            amps = _dense_step((1.0 - s) * driver + s * target, dt, amps)
            _maybe_snapshot(snapshots, spec, k, amps)
        return EvolutionResult(snapshots[-1][1], snapshots)

    constant, x_coeffs = _split_driver_parts(spec.driver)
    if not spec.target.is_diagonal():
        raise ValueError("PauliPolynomial target must be diagonal (identity/Z terms only)")
    diagonal = spec.target.diagonal()

    if spec.substeps_per_step is None:
        for k, s in enumerate(fractions):

            def matvec(v, s=s):
                driven = constant * v + _apply_x_sum(v, spec.num_qubits, x_coeffs)
                return (1.0 - s) * driven + s * (diagonal * v)

            amps = expm_krylov(matvec, dt, amps)
            _maybe_snapshot(snapshots, spec, k, amps)
        return EvolutionResult(snapshots[-1][1], snapshots)

    rotated = np.nonzero(x_coeffs)[0]
    sub_dt = dt / spec.substeps_per_step
    for k, s in enumerate(fractions):
        driver_weight = (1.0 - s) * sub_dt
        phase = np.exp(-1j * s * sub_dt * diagonal) * complex(
            np.exp(-1j * driver_weight * constant)
        )
        for _ in range(spec.substeps_per_step):
            for qubit in rotated:
                _apply_x_rotation(amps, spec.num_qubits, qubit, driver_weight * x_coeffs[qubit])
            amps *= phase
        _maybe_snapshot(snapshots, spec, k, amps)
    return EvolutionResult(snapshots[-1][1], snapshots)


def _maybe_snapshot(snapshots, spec: AnnealSpec, step_index: int, amps: np.ndarray):
    step = step_index + 1
    if step % spec.snapshot_stride == 0 or step == spec.n_steps:
        snapshots.append((step * spec.dt, StateVector(amps.copy())))


def evolve_real_time(
    hamiltonian: Hamiltonian,
    initial: StateVector,
    t_total: float,
    dt: float,
    snapshot_stride: int = 1,
) -> list:
    """Fixed-Hamiltonian stepping exp(-i H dt) repeated round(t_total / dt) times.

    Dense matrices are exponentiated once by eigendecomposition; a
    PauliPolynomial is applied term by term in canonical order (exact for a
    diagonal polynomial, first-order Trotter otherwise).  Returns ``(time,
    state)`` snapshots including the initial and final states.
    """
    if dt <= 0 or t_total <= 0:
        raise ValueError("t_total and dt must be positive")
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be at least 1")
    n_steps = max(1, round(t_total / dt))

    amps = initial.amplitudes.astype(complex)
    snapshots = [(0.0, initial)]

    if isinstance(hamiltonian, PauliPolynomial):
        if hamiltonian.num_qubits != initial.num_qubits:
            raise ValueError("state register does not match the Hamiltonian")
        if hamiltonian.is_diagonal():
            step_ops = [("diag", np.exp(-1j * dt * hamiltonian.diagonal()))]
        else:
            step_ops = []
            for term in hamiltonian.terms():
                coeff = term.coefficient.real
                if abs(term.coefficient.imag) > 1e-12:
                    raise ValueError("Hamiltonian must be Hermitian")
                if not term.factors:
                    step_ops.append(("diag", np.exp(-1j * dt * coeff)))
                else:
                    single = PauliPolynomial(hamiltonian.num_qubits, {term.factors: 1.0})
                    step_ops.append(("pauli", (math.cos(coeff * dt), math.sin(coeff * dt), single)))

        def step(a):
            for kind, op in step_ops:
                if kind == "diag":
                    a = a * op
                else:
                    cos, sin, single = op
                    a = cos * a - 1j * sin * single.apply_array(a)
            return a

    else:
        num_qubits = _hamiltonian_qubits(hamiltonian)
        if num_qubits != initial.num_qubits:
            raise ValueError("state register does not match the Hamiltonian")
        if num_qubits > DENSE_EVOLUTION_CAP:
            raise ValueError(
                f"dense evolution supports at most {DENSE_EVOLUTION_CAP} qubits"
            )
        energies, vectors = np.linalg.eigh(self_adjoint(hamiltonian))
        phases = np.exp(-1j * energies * dt)

        def step(a):
            return vectors @ (phases * (vectors.conj().T @ a))

    for k in range(n_steps):
        amps = step(amps)
        if (k + 1) % snapshot_stride == 0 or k + 1 == n_steps:
            snapshots.append(((k + 1) * dt, StateVector(amps.copy())))
    return snapshots


def instantaneous_spectrum(spec: AnnealSpec, s_values, k_lowest: int = 4) -> np.ndarray:
    """Lowest ``k_lowest`` eigenvalues of H_A(s) for each requested s.

    Returns an array of shape ``(len(s_values), k_lowest)`` with each row
    sorted ascending.
    """
    if spec.num_qubits > MATRIX_QUBIT_CAP:
        raise ValueError(f"spectrum supports at most {MATRIX_QUBIT_CAP} qubits")
    if spec.is_dense():
        driver = self_adjoint(spec.driver)
        target = self_adjoint(spec.target)
    else:
        driver = spec.driver.to_matrix()
        target = spec.target.to_matrix()
    k = min(k_lowest, 2**spec.num_qubits)
    rows = []
    for s in np.asarray(s_values, dtype=float):
        energies = np.linalg.eigvalsh((1.0 - s) * driver + s * target)
        rows.append(energies[:k])
    return np.array(rows)


def measure_histogram(state: StateVector, table: EncodingTable) -> dict:
    """Probability of each decoded variable assignment.

    Keys are tuples of decoded values ordered like ``table.names``; values
    sum to 1 within 1e-9 for a normalized state.
    """
    probabilities = state.probabilities()
    columns = table.decode_columns()
    ordered = [columns[name] for name in table.names]
    histogram: dict = {}
    for index, prob in enumerate(probabilities):
        key = tuple(float(column[index]) for column in ordered)
        histogram[key] = histogram.get(key, 0.0) + float(prob)
    return histogram


def sample_outcomes(state: StateVector, shots: int, seed: int) -> list:
    """Seeded basis-state samples reported as T-eigenvalue bitstrings."""
    if shots < 1:
        raise ValueError("shots must be positive")
    probabilities = state.probabilities()
    probabilities = probabilities / probabilities.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(probabilities.size, size=shots, p=probabilities)
    return [report_bitstring(int(index), state.num_qubits) for index in draws]
