"""Tests for Trotterized adiabatic and real-time evolution.

The oracle for every anneal path is ``reference_anneal``, coded here: it
exponentiates the full interpolated Hamiltonian by ``eigh`` at every step,
so it has neither splitting nor interpolation error.  The engine's dense
path interpolates the step propagator in s and is checked against it, not
used as a reference itself.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aqtrain import engine
from aqtrain.encodings import EncodingTable, Grid
from aqtrain.engine import (
    AnnealSpec,
    DENSE_EVOLUTION_CAP,
    DENSE_PANEL_NODES,
    LinearSchedule,
    _chebyshev_step,
    _driver_factors,
    _field_block,
    _rotation_blocks,
    _series_weights,
    _unit_phases,
    basis_state,
    chebyshev_degree,
    evolve_adiabatic,
    evolve_real_time,
    instantaneous_spectrum,
    self_adjoint,
    snapshot_count,
    transverse_driver,
    uniform_state,
)
from aqtrain.matrix_method import (
    MomentumTruncation,
    Potential,
    SchrodingerProblem,
    adaptive_simpson,
    gaussian_packet,
    ground_state,
    momentum_to_position,
)
from aqtrain.pauli import PauliPolynomial, _factor_product, _factor_views, pauli_z
from aqtrain.varpoly import VarPolynomial, parse_polynomial
from kron_reference import dense_reference

QUARTIC_TEXT = "18*w^4 - 35*w^3 + 22*w^2 - 5*w + 0.372573"

#: the cosine well 1 + cos(4 pi w)
COSINE = Potential(VarPolynomial.constant(1.0), 1.0)


def quartic_target(num_qubits, strength=1.0):
    """The quartic double well compiled onto a fractional register."""
    table = EncodingTable([("w", Grid(num_qubits, 0, 0, 2**-num_qubits))])
    poly = strength * parse_polynomial(QUARTIC_TEXT)
    return poly.substitute_encodings(table), table


def reference_anneal(driver_matrix, target_matrix, t_final, n_steps, amps):
    """Exact per-step propagator with the pre-step time convention."""
    dt = t_final / n_steps
    for k in range(n_steps):
        s = k * dt / t_final
        h = (1.0 - s) * driver_matrix + s * target_matrix
        energies, vectors = np.linalg.eigh(h)
        amps = vectors @ (np.exp(-1j * energies * dt) * (vectors.conj().T @ amps))
    return amps


def reference_prefix(driver_matrix, target_matrix, t_final, n_steps, steps, amps):
    """The oracle's state after the first ``steps`` of an ``n_steps`` anneal.

    Those steps see s = k / n_steps for k < steps, the full anneal of the
    pair (driver, driver + (steps / n_steps) (target - driver)) over
    ``steps`` steps of the same length.
    """
    ratio = steps / n_steps
    partial_target = driver_matrix + ratio * (target_matrix - driver_matrix)
    return reference_anneal(driver_matrix, partial_target, t_final * ratio, steps, amps)


def dense_reach(driver, target, dt):
    return float(np.max(np.abs(np.linalg.eigvalsh(target - driver)))) * dt


def panel_steps(n_steps, panels):
    """Steps per occupied panel when [0, 1] is cut into ``panels`` equal panels."""
    panel_of = np.minimum(np.arange(n_steps) * panels // n_steps, panels - 1)
    return np.bincount(panel_of)[np.unique(panel_of)]


def count_eigh(monkeypatch):
    """Record the dtype of every matrix ``np.linalg.eigh`` decomposes."""
    calls = []
    eigh = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        calls.append(np.asarray(matrix).dtype)
        return eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def apply_rotations(rotations, amps):
    """Each factor's rotation block applied along its axis of ``amps``."""
    sizes = [block.shape[0] for block in rotations]
    for f, block in enumerate(rotations):
        out = np.empty_like(amps)
        _factor_product(block, _factor_views(amps, sizes)[f], _factor_views(out, sizes)[f])
        amps = out
    return amps


def per_step_split(spec, amps):
    """Snapshots of the split step as a loop that builds each step's rotation
    blocks and phase vector itself, with the same arithmetic as the engine."""
    constant, fields = spec.driver
    diagonal = spec.target
    sub_dt = spec.dt / spec.substeps_per_step
    snapshots = []
    for k in range(spec.n_steps):
        s = spec.schedule(k * spec.dt)
        driver_weight = np.array([(1.0 - s) * sub_dt])
        rotations = [_rotation_blocks(driver_weight, part)[0] for part in _driver_factors(fields)]
        phase = _unit_phases(-s * sub_dt * diagonal)
        phase *= complex(np.exp(-1j * driver_weight[0] * constant))
        for _ in range(spec.substeps_per_step):
            amps = apply_rotations(rotations, amps)
            amps *= phase
        if (k + 1) % spec.snapshot_stride == 0 or k + 1 == spec.n_steps:
            snapshots.append(amps.copy())
    return snapshots


def driver_matrix(driver):
    """The matrix of ``c + sum_q x_q X_q`` for a ``(c, x)`` driver pair, from
    the explicit Kronecker chain: the independent side of the engine's field
    form."""
    constant, fields = driver
    terms = [(constant, {})] + [(field, {q: "X"}) for q, field in enumerate(fields)]
    return dense_reference(len(fields), terms)


def transverse_matrix(num_qubits):
    """The transverse driver (1/2) sum_q (I - X_q), built term by term."""
    terms = []
    for qubit in range(num_qubits):
        terms += [(0.5, {}), (-0.5, {qubit: "X"})]
    return dense_reference(num_qubits, terms)


def separable_diagonal(fields):
    """The diagonal of ``sum_q h_q Z_q``: each qubit adds ``h_q`` where its bit
    is 0 and ``-h_q`` where it is 1, and qubit q is bit q of the index."""
    diagonal = np.zeros(1)
    for field in fields:
        diagonal = np.add.outer([field, -field], diagonal).ravel()
    return diagonal


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw + raw.conj().T


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return raw / np.linalg.norm(raw)


class TestTransverseDriver:
    def test_single_qubit_matrix(self):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(engine._dense_driver(*transverse_driver(1)), expected)

    @pytest.mark.parametrize("num_qubits", [1, 4, 7])
    def test_pair_is_the_pauli_sum(self, num_qubits):
        # the constant n / 2 and a field of -1/2 on every qubit, and the same
        # matrix as the Pauli sum built term by term
        constant, fields = transverse_driver(num_qubits)
        assert constant == num_qubits / 2 and fields.tolist() == [-0.5] * num_qubits
        expected = transverse_matrix(num_qubits)
        assert np.max(np.abs(driver_matrix((constant, fields)) - expected)) <= 1e-15
        assert np.max(np.abs(engine._dense_driver(constant, fields) - expected)) <= 1e-15

    def test_uniform_is_ground_state_with_zero_energy(self):
        driver = engine._dense_driver(*transverse_driver(3))
        uniform = uniform_state(3)
        applied = driver @ uniform
        assert np.allclose(applied, 0.0, atol=1e-12)
        assert np.vdot(uniform, applied).real == pytest.approx(0.0, abs=1e-12)

    def test_spectrum_spans_zero_to_qubit_count(self):
        energies = np.linalg.eigvalsh(engine._dense_driver(*transverse_driver(4)))
        assert energies[0] == pytest.approx(0.0, abs=1e-12)
        assert energies[-1] == pytest.approx(4.0, abs=1e-12)


#: a driver pair or target that one input check rejects, on two qubits
BAD_INPUTS = {
    "complex-target": (transverse_driver(2), np.zeros(4, dtype=complex), "diagonal target must be"),
    "nan-target": (transverse_driver(2), np.array([0.0, np.nan, 0.0, 0.0]), "must be real, finite"),
    "inf-target": (transverse_driver(2), np.array([0.0, 0.0, np.inf, 0.0]), "must be real, finite"),
    "text-target": (transverse_driver(2), np.array(list("abcd")), "diagonal target must be"),
    "short-target": (transverse_driver(2), np.zeros(3), "need a target of 4 values, not 3"),
    "complex-constant": ((1j, np.zeros(2)), np.zeros(4), "constant must be real, finite and 0-D"),
    "vector-constant": (([1.0], np.ones(2)), np.zeros(4), "constant must be real, finite and 0-D"),
    "complex-fields": ((0.0, np.zeros(2, dtype=complex)), np.zeros(4), "driver fields must be"),
    "nan-fields": ((0.0, np.array([np.nan, 0.0])), np.zeros(4), "driver fields must be"),
    "matrix-fields": ((0.0, np.zeros((2, 1))), np.zeros(4), "fields must be real, finite and 1-D"),
    "no-fields": ((0.0, np.zeros(0)), np.zeros(1), "at least one qubit"),
    "matrix-driver": (np.eye(4), np.zeros(4), "different representations"),
    "pair-with-matrix": (transverse_driver(2), np.eye(4), "different representations"),
}


class TestAnnealSpecValidation:
    def test_linear_schedule_endpoints(self):
        schedule = LinearSchedule(8.0)
        assert schedule(0.0) == 0.0
        assert schedule(8.0) == 1.0
        with pytest.raises(ValueError):
            LinearSchedule(0.0)

    def test_mixed_representations_rejected(self):
        driver = transverse_driver(2)
        with pytest.raises(ValueError, match="representation"):
            AnnealSpec(driver, np.eye(4), LinearSchedule(1.0))

    def test_register_mismatch_rejected(self):
        with pytest.raises(ValueError, match="register"):
            AnnealSpec(transverse_driver(2), np.zeros(8), LinearSchedule(1.0))

    @pytest.mark.parametrize("entry", ["anneal", "spectrum"])
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_rejects_inputs_that_are_not_a_real_field_and_diagonal(self, case, entry):
        # the vector inputs cannot name a non-diagonal target or a coupled
        # driver; what they can get wrong is checked before anything runs
        driver, target, message = BAD_INPUTS[case]
        with pytest.raises(ValueError, match=message):
            if entry == "anneal":
                AnnealSpec(driver, target, LinearSchedule(1.0))
            else:
                instantaneous_spectrum(driver, target, [0.5])

    def test_integer_inputs_are_real(self):
        spec = AnnealSpec((1, [0, -1]), np.arange(4), LinearSchedule(1.0), n_steps=2)
        final = evolve_adiabatic(spec, uniform_state(2)).states[-1]
        assert abs(np.linalg.norm(final) - 1.0) <= 1e-12
        assert spec.num_qubits == 2

    @pytest.mark.parametrize("field", ["n_steps", "substeps_per_step", "snapshot_stride"])
    def test_counts_must_be_positive(self, field):
        kwargs = {field: 0}
        with pytest.raises(ValueError):
            AnnealSpec(transverse_driver(2), np.zeros(4), LinearSchedule(1.0), **kwargs)

    def test_dense_pair_rejects_substeps(self):
        # eigendecomposition is exact; a substep count would be silently ignored
        h = random_hermitian(4, seed=1)
        with pytest.raises(ValueError, match="substeps"):
            AnnealSpec(h, h, LinearSchedule(1.0), substeps_per_step=4)
        for substeps in (1, None):
            AnnealSpec(h, h, LinearSchedule(1.0), substeps_per_step=substeps)

    def test_pre_step_times(self):
        spec = AnnealSpec(transverse_driver(2), np.zeros(4), LinearSchedule(10.0), n_steps=10)
        assert np.allclose(spec.step_fractions(), np.arange(10) / 10.0)


class TestSplitEvolution:
    @pytest.mark.parametrize("substeps", [1, None])
    def test_uniform_stationary_under_pure_driver(self, substeps):
        # with a zero target the anneal only ever applies the driver factor,
        # and the uniform state is its eigenvector with eigenvalue zero
        spec = AnnealSpec(
            transverse_driver(4),
            np.zeros(16),
            LinearSchedule(10.0),
            n_steps=10,
            substeps_per_step=substeps,
            snapshot_stride=3,
        )
        uniform = uniform_state(4)
        result = evolve_adiabatic(spec, uniform)
        assert np.allclose(result.states[-1], uniform, atol=1e-12)
        assert result.times.tolist() == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_diagonal_factor_has_no_substep_error(self):
        # all-Z targets commute, so halving the substep must change nothing
        target, _ = quartic_target(4)
        driver = (0.0, np.zeros(4))
        state = random_state(4, seed=11)
        outputs = []
        for substeps in (1, 2):
            spec = AnnealSpec(
                driver,
                target.diagonal(),
                LinearSchedule(3.0),
                n_steps=3,
                substeps_per_step=substeps,
            )
            outputs.append(evolve_adiabatic(spec, state).states[-1])
        assert np.allclose(outputs[0], outputs[1], atol=1e-12)
        assert np.allclose(np.abs(outputs[0]), np.abs(state), atol=1e-12)

    def test_substep_doubling_converges_to_dense(self):
        target, _ = quartic_target(4)
        uniform = uniform_state(4)
        reference = reference_anneal(
            transverse_matrix(4), target.to_matrix(), 6.0, 6, uniform
        )
        infidelities = []
        for substeps in (1, 2, 4, 8):
            spec = AnnealSpec(
                transverse_driver(4),
                target.diagonal(),
                LinearSchedule(6.0),
                n_steps=6,
                substeps_per_step=substeps,
            )
            final = evolve_adiabatic(spec, uniform).states[-1]
            infidelities.append(1.0 - abs(np.vdot(reference, final)) ** 2)
        assert all(b < a for a, b in zip(infidelities, infidelities[1:]))
        assert infidelities[-1] < 1e-4

    @pytest.mark.parametrize("substeps", [1, None])
    def test_norm_drift_stays_tiny_over_thousand_steps(self, substeps):
        target, _ = quartic_target(5)
        spec = AnnealSpec(
            transverse_driver(5),
            target.diagonal(),
            LinearSchedule(10.0),
            n_steps=1000,
            substeps_per_step=substeps,
            snapshot_stride=1000,
        )
        final = evolve_adiabatic(spec, uniform_state(5)).states[-1]
        assert abs(np.linalg.norm(final) - 1.0) < 1e-9

    def test_exact_path_matches_dense_reference_on_coarse_steps(self):
        # two steps with |H dt| >= 20 each: far beyond any splitting, and
        # long enough that the Chebyshev series keeps 40+ terms
        target, _ = quartic_target(6, strength=20.0)
        driver = transverse_matrix(6)
        state = random_state(6, seed=7)
        t_final, n_steps = 12.0, 2
        dt = t_final / n_steps
        for s in np.arange(n_steps) / n_steps:
            h = (1.0 - s) * driver + s * target.to_matrix()
            assert np.max(np.abs(np.linalg.eigvalsh(h))) * dt >= 20.0
        reference = reference_anneal(
            driver, target.to_matrix(), t_final, n_steps, state
        )
        spec = AnnealSpec(
            transverse_driver(6),
            target.diagonal(),
            LinearSchedule(t_final),
            n_steps=n_steps,
            substeps_per_step=None,
        )
        final = evolve_adiabatic(spec, state).states[-1]
        assert np.max(np.abs(final - reference)) < 1e-10

    def test_adiabatic_overlap_grows_with_duration(self):
        # quartic well scaled so the target competes with the driver; the
        # final overlap with the exact ground state must exceed 0.9 for the
        # longest anneal and never shrink as the duration doubles
        target = quartic_target(5, strength=100.0)[0].diagonal()
        ground_index = int(np.argmin(target))
        driver = transverse_driver(5)
        overlaps = []
        for t_final in (10.0, 20.0, 40.0, 80.0):
            spec = AnnealSpec(
                driver,
                target,
                LinearSchedule(t_final),
                n_steps=int(t_final / 0.05),
                snapshot_stride=10**6,
            )
            final = evolve_adiabatic(spec, uniform_state(5)).states[-1]
            overlaps.append(abs(final[ground_index]) ** 2)
        assert all(b >= a for a, b in zip(overlaps, overlaps[1:]))
        assert overlaps[-1] > 0.9


    @pytest.mark.parametrize("substeps", [1, 3])
    def test_chunked_phases_equal_per_step_loop(self, monkeypatch, substeps):
        # 7 qubits, factors of 4 and 3: 16 * (128 + 256 + 64) B of phases and
        # rotation blocks a step, so four steps a chunk and a last chunk of three
        monkeypatch.setattr(engine, "CHUNK_BYTES", 4 * 16 * (128 + 256 + 64))
        target, _ = quartic_target(7, strength=3.0)
        spec = AnnealSpec(
            transverse_driver(7),
            target.diagonal(),
            LinearSchedule(7.0),
            n_steps=23,
            substeps_per_step=substeps,
            snapshot_stride=5,
        )
        uniform = uniform_state(7)
        snapshots = evolve_adiabatic(spec, uniform).states[1:]
        expected = per_step_split(spec, uniform)
        assert len(snapshots) == len(expected) == 5
        for state, amps in zip(snapshots, expected):
            assert np.array_equal(state, amps)

    def test_separable_split_anneal_at_16_qubits_matches_per_qubit_steps(self):
        # sum_q h_q Z_q with the transverse driver: each first-order split step
        # is a product of 1-qubit split steps, each an exact 2x2 oracle; 16
        # qubits, the split-step cap, split the driver into three factors
        n, t_final, n_steps = 16, 8.0, 5
        assert [part.size for part in _driver_factors(np.ones(n))] == [6, 5, 5]
        dt = t_final / n_steps
        fields = np.random.default_rng(92).uniform(-1.0, 1.0, size=n)
        target = separable_diagonal(fields)
        # histories[q][k]: qubit q after k steps of its (I - X) / 2, then h_q Z
        histories = []
        for field in fields:
            amps = np.full(2, 2**-0.5, dtype=complex)
            history = [amps]
            for k in range(n_steps):
                s = k / n_steps
                energies, vectors = np.linalg.eigh((1.0 - s) * np.array([[0.5, -0.5], [-0.5, 0.5]]))
                amps = vectors @ (np.exp(-1j * energies * dt) * (vectors.conj().T @ amps))
                amps = np.exp(-1j * s * dt * field * np.array([1.0, -1.0])) * amps
                history.append(amps)
            histories.append(history)
        for stride, kept in ((1, [0, 1, 2, 3, 4, 5]), (3, [0, 3, 5])):
            spec = AnnealSpec(
                transverse_driver(n),
                target,
                LinearSchedule(t_final),
                n_steps=n_steps,
                snapshot_stride=stride,
            )
            result = evolve_adiabatic(spec, uniform_state(n))
            assert np.round(result.times / dt).astype(int).tolist() == kept
            for step, state in zip(kept[1:], result.states[1:]):
                expected = np.ones(1, dtype=complex)
                for history in histories:
                    # qubit q is bit q of the index, so each new qubit goes on the left
                    expected = np.kron(history[step], expected)
                overlap = np.vdot(expected, state)
                assert np.max(np.abs(state - overlap / abs(overlap) * expected)) <= 1e-12


def driver_with_fields(num_qubits, constant, seed):
    """The pair of ``constant - sum_q x_q X_q`` with unequal random fields ``x_q``."""
    return constant, -np.random.default_rng(seed).uniform(0.2, 2.0, size=num_qubits)


class TestDriverByFactors:
    @pytest.mark.parametrize("num_qubits", [1, 4, 7, 8])
    def test_rotation_matches_dense_exponential(self, num_qubits):
        # exp(-i a sum_q x_q X_q) is the Kronecker product of the factors'
        # rotation blocks: one factor up to 6 qubits, two at 7 and 8
        driver = driver_with_fields(num_qubits, 0.7, seed=30 + num_qubits)
        parts = _driver_factors(driver[1])
        assert [part.size for part in parts] == ([num_qubits] if num_qubits <= 6 else [4, num_qubits - 4])
        v = random_state(num_qubits, seed=40 + num_qubits).astype(complex)
        angle = np.array([1.3])
        fast = apply_rotations([_rotation_blocks(angle, part)[0] for part in parts], v)
        matrix = driver_matrix(driver) - 0.7 * np.eye(v.size)
        energies, vectors = np.linalg.eigh(matrix)
        dense = vectors @ (np.exp(-1.3j * energies) * (vectors.conj().T @ v))
        assert np.max(np.abs(fast - dense)) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 5, 6, 7, 8])
    def test_spectrum_driver_equals_the_pauli_matrix(self, num_qubits):
        # c I plus the field blocks applied factor by factor, entry for entry
        # against the explicit 2x2 Kronecker chain
        driver = driver_with_fields(num_qubits, 0.7, seed=50 + num_qubits)
        expected = driver_matrix(driver)
        assert np.array_equal(engine._dense_driver(*driver), expected)


def bessel_j(k, x):
    """``J_k(x)`` from Bessel's integral ``(1/pi) int_0^pi cos(k t - x sin t) dt``."""
    integral = adaptive_simpson(
        lambda t: math.cos(k * t - x * math.sin(t)), 0.0, math.pi, tol=1e-12, min_depth=5
    )
    return integral.real / math.pi


def degree_bound(reach, k):
    """The bound ``(reach / 2)**k / k!`` on ``|J_k(reach)|`` the degree rule sums."""
    return (reach / 2.0) ** k / math.factorial(k)


REACHES = [0.1, 1.0, 10.0, 60.0]

#: reaches for the quadrature oracle, whose cost grows with the reach
QUADRATURE_REACHES = [0.1, 1.0, 10.0]


class TestChebyshevStep:
    @pytest.mark.parametrize("reach", REACHES)
    def test_matches_eigendecomposition(self, reach):
        # a random operator of the step's form diag(local) + sum_f D_f, on one
        # factor at 6 qubits and two at 7, at the step's Weyl bounds, whose
        # half-width times dt is reach
        for num_qubits in (6, 7):
            dim = 2**num_qubits
            local = np.random.default_rng(21).normal(size=dim)
            driver = driver_with_fields(num_qubits, 0.0, seed=20 + num_qubits)
            fields = driver[1]
            blocks = [_field_block(part) for part in _driver_factors(fields)]
            assert len(blocks) == num_qubits - 5
            h = np.diag(local) + driver_matrix(driver)
            spread = np.abs(fields).sum()
            lower, upper = local.min() - spread, local.max() + spread
            dt = reach / ((upper - lower) / 2.0)
            energies, vectors = np.linalg.eigh(h)
            assert lower <= energies[0] and energies[-1] <= upper
            v = random_state(num_qubits, seed=22)
            expected = vectors @ (np.exp(-1j * energies * dt) * (vectors.conj().T @ v))
            result = _chebyshev_step(v, local, blocks, lower, upper, dt)
            assert np.max(np.abs(result - expected)) < 1e-12

    @pytest.mark.parametrize("reach", QUADRATURE_REACHES)
    def test_degree_rule_bounds_the_dropped_bessel_terms(self, reach):
        tol = 1e-8
        degree = chebyshev_degree(reach, tol)
        # the smallest degree whose bound on the dropped terms is within tol
        assert 2 * sum(degree_bound(reach, k) for k in range(degree + 1, degree + 60)) <= tol
        assert 2 * sum(degree_bound(reach, k) for k in range(degree, degree + 60)) > tol
        # and the dropped Bessel values themselves obey the bound
        for k in (degree + 1, degree + 2):
            assert abs(bessel_j(k, reach)) <= degree_bound(reach, k) + 1e-12
        assert degree >= reach / 2.0 - 1.0

    @pytest.mark.parametrize("reach", QUADRATURE_REACHES)
    def test_series_weights_match_bessel_quadrature(self, reach):
        degree = chebyshev_degree(reach)
        weights = _series_weights(reach, degree)
        assert weights.shape == (degree + 1,)
        for k in sorted({0, 1, 2, 3, degree // 2, degree}):
            expected = (-1) ** (k // 2) * (1 if k == 0 else 2) * bessel_j(k, reach)
            assert abs(weights[k] - expected) < 1e-12

    @pytest.mark.parametrize("reach", [60.0, 5000.0])
    def test_series_weights_sum_to_the_plane_wave(self, reach):
        # Jacobi-Anger at theta = 0: exp(-i x) = sum_k (2 - delta_k0) (-i)**k J_k(x),
        # so the even weights sum to cos x and the odd ones to sin x; at 5000 the
        # backward recurrence rescales hundreds of orders of magnitude
        weights = _series_weights(reach, chebyshev_degree(reach))
        assert abs(weights[0::2].sum() - math.cos(reach)) < 1e-12
        assert abs(weights[1::2].sum() - math.sin(reach)) < 1e-12

    def test_huge_reach_is_priced_without_overflow(self):
        # the degree rule runs at any finite reach: a few dozen flops a bisection step
        degree = chebyshev_degree(1e300)
        assert 1e300 / 2 - 1 <= degree <= 1e300 * 2

    def test_constant_hamiltonian_is_one_phase(self):
        # radius 0: no term past the first, and no division by the radius
        assert chebyshev_degree(0.0) == 0
        v = random_state(3, seed=24)
        result = _chebyshev_step(v, np.full(8, 0.7), [np.zeros((8, 8))], 0.7, 0.7, 2.5)
        assert np.max(np.abs(result - np.exp(-1.75j) * v)) <= 1e-15
        spec = AnnealSpec(
            (0.7, np.zeros(3)),
            np.full(8, 0.7),
            LinearSchedule(2.5),
            n_steps=3,
            substeps_per_step=None,
        )
        final = evolve_adiabatic(spec, v).states[-1]
        assert np.max(np.abs(final - np.exp(-1.75j) * v)) <= 1e-14

    def test_separable_anneal_at_13_qubits_matches_per_qubit_eigh(self):
        # sum_q h_q Z_q with the transverse driver: the exact evolution is a
        # product of 1-qubit evolutions, each an exact oracle; 13 qubits split
        # the driver into three factors.  The target is the Pauli sum's diagonal
        n = 13
        assert [part.size for part in _driver_factors(np.ones(n))] == [5, 4, 4]
        fields = np.random.default_rng(91).uniform(-1.0, 1.0, size=n)
        target = PauliPolynomial.zero(n)
        for qubit, field in enumerate(fields):
            target = target + field * pauli_z(n, qubit)
        diagonal = target.diagonal()
        assert np.max(np.abs(diagonal - separable_diagonal(fields))) <= 1e-13
        assert_separable_exact_anneal(fields, diagonal, t_final=8.0, n_steps=8)

    def test_separable_anneal_at_16_qubits_matches_per_qubit_eigh(self):
        # the split step's cap: three driver factors of 6, 5 and 5 qubits
        n = 16
        assert [part.size for part in _driver_factors(np.ones(n))] == [6, 5, 5]
        fields = np.random.default_rng(93).uniform(-1.0, 1.0, size=n)
        assert np.unique(fields).size == n
        assert_separable_exact_anneal(fields, separable_diagonal(fields), t_final=6.0, n_steps=4)


def assert_separable_exact_anneal(fields, diagonal, t_final, n_steps):
    """The exact step's anneal from the transverse driver into ``diagonal``,
    that of ``sum_q h_q Z_q``, matches the Kronecker product of each qubit's
    own exact anneal within 1e-12, up to a global phase."""
    n = fields.size
    spec = AnnealSpec(
        transverse_driver(n),
        diagonal,
        LinearSchedule(t_final),
        n_steps=n_steps,
        substeps_per_step=None,
    )
    final = evolve_adiabatic(spec, uniform_state(n)).states[-1]
    dt = t_final / n_steps
    expected = np.ones(1, dtype=complex)
    for field in fields:
        amps = np.full(2, 2**-0.5, dtype=complex)
        for k in range(n_steps):
            s = k / n_steps
            h = (1.0 - s) * np.array([[0.5, -0.5], [-0.5, 0.5]]) + s * field * np.diag([1.0, -1.0])
            energies, vectors = np.linalg.eigh(h)
            amps = vectors @ (np.exp(-1j * energies * dt) * (vectors.conj().T @ amps))
        # qubit q is bit q of the index, so each new qubit goes on the left
        expected = np.kron(amps, expected)
    overlap = np.vdot(expected, final)
    assert np.max(np.abs(final - overlap / abs(overlap) * expected)) <= 1e-12


class TestDenseEvolution:
    def test_matches_independent_reference(self):
        driver = random_hermitian(8, seed=3)
        target = random_hermitian(8, seed=4)
        state = random_state(3, seed=5)
        spec = AnnealSpec(driver, target, LinearSchedule(2.0), n_steps=7)
        result = evolve_adiabatic(spec, state)
        expected = reference_anneal(
            driver.astype(complex), target.astype(complex), 2.0, 7, state
        )
        assert np.allclose(result.states[-1], expected, atol=1e-9)

    def test_ground_state_is_stationary(self):
        h = random_hermitian(8, seed=9)
        _, vec = ground_state(h)
        spec = AnnealSpec(h, h, LinearSchedule(5.0), n_steps=20)
        final = evolve_adiabatic(spec, vec).states[-1]
        assert abs(np.vdot(final, vec)) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_split_and_dense_paths_agree_in_the_small_step_limit(self):
        target, _ = quartic_target(3, strength=5.0)
        pauli_spec = AnnealSpec(
            transverse_driver(3), target.diagonal(), LinearSchedule(4.0), n_steps=4000
        )
        driver = transverse_matrix(3)
        dense_spec = AnnealSpec(driver, target.to_matrix(), LinearSchedule(4.0), n_steps=4000)
        uniform = uniform_state(3)
        split_final = evolve_adiabatic(pauli_spec, uniform).states[-1]
        dense_final = evolve_adiabatic(dense_spec, uniform).states[-1]
        assert abs(np.vdot(split_final, dense_final)) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_shipped_tilted_anneal_matches_per_step_oracle(self, monkeypatch):
        config_path = Path(__file__).resolve().parent.parent / "configs" / "anneal_matrix_tilted.json"
        config = json.loads(config_path.read_text())
        truncation = MomentumTruncation(config["num_qubits"])
        problem = SchrodingerProblem(
            Potential(1.0 + config["tilt"] * VarPolynomial.variable("w"), 1.0),
            config["mass"],
            truncation,
        )
        driver, target = problem.kinetic_matrix(), problem.hamiltonian()
        initial = basis_state(config["num_qubits"], truncation.index_of(0))
        spec = AnnealSpec(
            driver, target, LinearSchedule(config["t_final"]), n_steps=config["n_steps"]
        )
        calls = count_eigh(monkeypatch)
        final = evolve_adiabatic(spec, initial).states[-1]
        panels = math.ceil(dense_reach(driver, target, spec.dt))
        assert len(calls) <= DENSE_PANEL_NODES * panels
        monkeypatch.undo()
        expected = reference_anneal(
            driver, target, config["t_final"], config["n_steps"], initial
        )
        assert np.max(np.abs(final - expected)) < 1e-10
        assert abs(np.linalg.norm(final) - 1.0) <= 1e-11

    def test_panels_share_one_node_block(self):
        # two interpolated panels at 8 qubits: each 13-node block of 256 x 256
        # complex propagators is 13.6 MB, and the anneal may hold only one
        problem = SchrodingerProblem(COSINE, 10.0, MomentumTruncation(8))
        driver, target = problem.kinetic_matrix(), problem.hamiltonian()
        n_steps = 30
        dt = 1.5 / dense_reach(driver, target, 1.0)
        panels = math.ceil(dense_reach(driver, target, dt))
        assert panels == 2 and panel_steps(n_steps, panels).min() > DENSE_PANEL_NODES
        spec = AnnealSpec(driver, target, LinearSchedule(n_steps * dt), n_steps=n_steps)
        initial = basis_state(8, problem.truncation.index_of(0))
        tracemalloc.start()
        try:
            evolve_adiabatic(spec, initial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * DENSE_PANEL_NODES * 16 * 256**2

    def test_interpolated_panels_match_oracle(self, monkeypatch):
        # several panels, each interpolated from its Chebyshev nodes
        driver, target = random_hermitian(16, seed=31), random_hermitian(16, seed=32)
        state = random_state(4, seed=33)
        n_steps = 200
        dt = 3.5 / dense_reach(driver, target, 1.0)
        reach = dense_reach(driver, target, dt)
        panels = math.ceil(reach)
        assert reach >= 3.0 and panel_steps(n_steps, panels).min() >= 40
        spec = AnnealSpec(driver, target, LinearSchedule(n_steps * dt), n_steps=n_steps)
        calls = count_eigh(monkeypatch)
        final = evolve_adiabatic(spec, state).states[-1]
        assert len(calls) == DENSE_PANEL_NODES * panels
        monkeypatch.undo()
        expected = reference_anneal(
            driver.astype(complex), target.astype(complex), n_steps * dt, n_steps,
            state,
        )
        assert np.max(np.abs(final - expected)) < 1e-10

    def test_sparse_panels_step_on_their_own_s_values(self, monkeypatch):
        # a reach of about 40 over 120 steps leaves at most 3 steps a panel,
        # so the nodes are the steps themselves: one eigh per step
        driver, target = random_hermitian(8, seed=41), random_hermitian(8, seed=42)
        state = random_state(3, seed=43)
        n_steps = 120
        dt = 40.0 / dense_reach(driver, target, 1.0)
        panels = math.ceil(dense_reach(driver, target, dt))
        occupied = panel_steps(n_steps, panels)
        assert occupied.max() <= DENSE_PANEL_NODES
        spec = AnnealSpec(driver, target, LinearSchedule(n_steps * dt), n_steps=n_steps)
        calls = count_eigh(monkeypatch)
        final = evolve_adiabatic(spec, state).states[-1]
        assert len(calls) <= min(DENSE_PANEL_NODES * occupied.size, n_steps)
        monkeypatch.undo()
        expected = reference_anneal(
            driver.astype(complex), target.astype(complex), n_steps * dt, n_steps,
            state,
        )
        assert np.max(np.abs(final - expected)) < 1e-10

    def test_snapshots_match_oracle_at_each_stride(self):
        driver, target = random_hermitian(8, seed=51), random_hermitian(8, seed=52)
        state = random_state(3, seed=53)
        n_steps, stride = 90, 25
        dt = 2.5 / dense_reach(driver, target, 1.0)
        spec = AnnealSpec(
            driver, target, LinearSchedule(n_steps * dt), n_steps=n_steps, snapshot_stride=stride
        )
        result = evolve_adiabatic(spec, state)
        assert [round(t / dt) for t in result.times] == [0, 25, 50, 75, 90]
        for t, snap in zip(result.times[1:], result.states[1:]):
            steps = round(t / dt)
            expected = reference_prefix(
                driver.astype(complex), target.astype(complex), n_steps * dt, n_steps, steps,
                state,
            )
            assert np.max(np.abs(snap - expected)) < 1e-10

    @pytest.mark.parametrize(
        "n_steps, reach",
        [(61, 2.5), (12, 0.9)],
        ids=["interpolated-panels", "panel-of-node-steps"],
    )
    def test_chunked_propagators_match_per_step_eigh(self, monkeypatch, n_steps, reach):
        # three 8 x 8 propagators a chunk, so panels of about 20 steps span
        # several chunks and end on a partial one; 12 steps fill one panel
        # whose nodes are the steps themselves
        monkeypatch.setattr(engine, "CHUNK_BYTES", 3 * 16 * 64)
        driver, target = random_hermitian(8, seed=61), random_hermitian(8, seed=62)
        state = random_state(3, seed=63)
        dt = reach / dense_reach(driver, target, 1.0)
        spec = AnnealSpec(
            driver, target, LinearSchedule(n_steps * dt), n_steps=n_steps, snapshot_stride=7
        )
        result = evolve_adiabatic(spec, state)
        assert len(result.states) == 2 + n_steps // 7
        for t, snap in zip(result.times[1:], result.states[1:]):
            expected = reference_prefix(
                driver.astype(complex), target.astype(complex), n_steps * dt, n_steps,
                round(t / dt), state,
            )
            assert np.max(np.abs(snap - expected)) < 1e-11

    def test_real_pair_takes_real_solver(self, monkeypatch):
        # the cosine pair is real: every node of the anneal and the
        # real-time diagonalization take the real eigh
        problem = SchrodingerProblem(COSINE, 10.0, MomentumTruncation(4))
        driver, target = problem.kinetic_matrix(), problem.hamiltonian()
        state = basis_state(4, problem.truncation.index_of(0))
        spec = AnnealSpec(driver, target, LinearSchedule(2.0), n_steps=5)
        dtypes = count_eigh(monkeypatch)
        final = evolve_adiabatic(spec, state).states[-1]
        kept = evolve_real_time(target, state, 0.3, 0.1).states[-1]
        monkeypatch.undo()
        assert len(dtypes) == 6 and set(dtypes) == {np.dtype(np.float64)}
        expected = reference_anneal(driver, target, 2.0, 5, state)
        assert np.max(np.abs(final - expected)) < 1e-12
        energies, vectors = np.linalg.eigh(target)
        expected = vectors @ (np.exp(-0.3j * energies) * (vectors.conj().T @ state))
        assert np.max(np.abs(kept - expected)) < 1e-12

    def test_rejects_oversized_register(self):
        dim = 2 ** (DENSE_EVOLUTION_CAP + 1)
        big = np.zeros((dim, dim))
        spec = AnnealSpec(big, big, LinearSchedule(1.0), n_steps=1)
        with pytest.raises(ValueError, match="dense evolution"):
            evolve_adiabatic(spec, basis_state(DENSE_EVOLUTION_CAP + 1, 0))


def evolution(path, initial, n_steps=1, stride=1):
    """Evolve ``initial`` on two qubits for ``n_steps`` steps of 0.05 through
    one propagator path, keeping every ``stride``-th state."""
    h = random_hermitian(4, seed=81)
    if path == "real-time":
        return evolve_real_time(h, initial, n_steps * 0.05, 0.05, stride)
    if path == "dense":
        driver, target, substeps = random_hermitian(4, seed=82), h, 1
    else:
        driver, target = transverse_driver(2), np.diag(h).real
        substeps = None if path == "krylov" else 1
    spec = AnnealSpec(
        driver,
        target,
        LinearSchedule(n_steps * 0.05),
        n_steps=n_steps,
        substeps_per_step=substeps,
        snapshot_stride=stride,
    )
    return evolve_adiabatic(spec, initial)


PATHS = ["dense", "split", "krylov", "real-time"]


class TestInitialStateAndKeptStates:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "initial, message",
        [
            (uniform_state(3), r"shape \(8,\) does not match the register of 2 qubits"),
            (np.full((2, 2), 0.5), r"shape \(2, 2\) does not match the register of 2 qubits"),
            (np.ones(4), "initial state is not normalized"),
        ],
        ids=["wrong-length", "two-dimensional", "unnormalized"],
    )
    def test_initial_state_checked_at_entry(self, path, initial, message):
        with pytest.raises(ValueError, match=message):
            evolution(path, initial)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "stride, kept_steps",
        [(4, [0, 4, 8, 12, 16, 20]), (6, [0, 6, 12, 18, 20]), (50, [0, 20])],
        ids=["stride-divides", "stride-does-not-divide", "stride-past-the-end"],
    )
    def test_kept_states_follow_snapshot_count(self, path, stride, kept_steps):
        initial = random_state(2, seed=83)
        result = evolution(path, initial, n_steps=20, stride=stride)
        assert snapshot_count(20, stride) == len(kept_steps)
        assert result.states.shape == (len(kept_steps), 4)
        assert result.times.tolist() == [step * 0.05 for step in kept_steps]
        assert np.array_equal(result.states[0], initial)
        # every row was written: an unwritten row of np.empty has no unit norm
        assert np.allclose(np.linalg.norm(result.states, axis=1), 1.0, atol=1e-12)
        # the last row is the state after the whole evolution
        whole = evolution(path, initial, n_steps=20, stride=20)
        assert np.max(np.abs(result.states[-1] - whole.states[-1])) < 1e-12


class TestRealTimeEvolution:
    def test_eigenstate_density_is_static(self):
        problem = SchrodingerProblem(COSINE, 10.0, MomentumTruncation(4))
        h = problem.hamiltonian()
        _, vec = ground_state(h)
        states = evolve_real_time(h, vec, t_total=5.0, dt=0.05, snapshot_stride=20).states
        assert np.allclose(np.abs(states) ** 2, np.abs(vec) ** 2, atol=1e-6)

    def test_norm_preserved_over_ten_thousand_steps(self):
        h = random_hermitian(8, seed=17)
        state = random_state(3, seed=18)
        final = evolve_real_time(h, state, t_total=100.0, dt=0.01, snapshot_stride=10**5).states[-1]
        assert abs(np.linalg.norm(final) - 1.0) < 1e-6

    def test_packet_tunnels_to_other_minimum_and_returns(self):
        problem = SchrodingerProblem(COSINE, 10.0, MomentumTruncation(5))
        h = problem.hamiltonian()
        energies = np.linalg.eigvalsh(h)
        period = 2.0 * math.pi / (energies[1] - energies[0])
        packet = gaussian_packet(0.25, 40.0, problem.truncation)

        def right_well_mass(state):
            w, density = momentum_to_position(state)
            return np.trapezoid(np.where(w > 0.5, density, 0.0), w)

        states = evolve_real_time(h, packet, t_total=period, dt=period / 400, snapshot_stride=10).states
        masses = [right_well_mass(state) for state in states]
        assert masses[0] < 0.05
        assert max(masses) > 0.85
        assert masses[-1] < 0.15

    def test_kept_states_match_repeated_stepping(self, monkeypatch):
        # three kept 8-amplitude states a chunk; 50 steps at stride 4 keep
        # 12 strided states and the last one
        monkeypatch.setattr(engine, "CHUNK_BYTES", 3 * 16 * 8)
        h = random_hermitian(8, seed=71)
        state = random_state(3, seed=72)
        dt, n_steps, stride = 0.03, 50, 4
        result = evolve_real_time(h, state, n_steps * dt, dt, stride)
        energies, vectors = np.linalg.eigh(h)
        step = vectors @ np.diag(np.exp(-1j * energies * dt)) @ vectors.conj().T
        amps = state
        expected = [(0.0, amps)]
        for k in range(1, n_steps + 1):
            amps = step @ amps
            if k % stride == 0 or k == n_steps:
                expected.append((k * dt, amps))
        assert result.times.tolist() == [t for t, _ in expected]
        for snap, (_, amps) in zip(result.states, expected):
            assert np.max(np.abs(snap - amps)) < 1e-12

    def test_rejects_bad_arguments(self):
        state = uniform_state(2)
        with pytest.raises(ValueError):
            evolve_real_time(np.zeros((4, 4)), state, t_total=1.0, dt=0.0)
        with pytest.raises(ValueError, match="register"):
            evolve_real_time(np.zeros((8, 8)), state, t_total=1.0, dt=0.1)

    def test_rejects_pauli_polynomial(self):
        # a Pauli sum or a diagonal vector is no dense matrix; pass to_matrix()
        target, _ = quartic_target(2)
        for hamiltonian in (target, target.diagonal()):
            with pytest.raises(ValueError, match="square matrix"):
                evolve_real_time(hamiltonian, uniform_state(2), t_total=1.0, dt=0.1)


class TestInstantaneousSpectrum:
    def test_endpoints_match_directly_diagonalized_parts(self):
        target, _ = quartic_target(5, strength=10.0)
        curves = instantaneous_spectrum(
            transverse_driver(5), target.diagonal(), [0.0, 1.0], k_lowest=3
        )
        assert curves.shape == (2, 3)
        assert curves[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert curves[1, 0] == pytest.approx(float(np.min(target.diagonal())), abs=1e-9)

    def test_gap_stays_open_for_the_quartic_well(self):
        target, _ = quartic_target(5, strength=10.0)
        s_values = np.linspace(0.0, 1.0, 21)
        curves = instantaneous_spectrum(
            transverse_driver(5), target.diagonal(), s_values, k_lowest=2
        )
        gaps = curves[:, 1] - curves[:, 0]
        assert np.all(gaps > 0)

    def test_pauli_pair_matches_complex_eigvalsh(self):
        target, _ = quartic_target(5, strength=10.0)
        driver = transverse_matrix(5)
        s_values = np.linspace(0.0, 1.0, 7)
        curves = instantaneous_spectrum(
            transverse_driver(5), target.diagonal(), s_values, k_lowest=4
        )
        expected = [
            np.linalg.eigvalsh((1.0 - s) * driver + s * target.to_matrix())[:4]
            for s in s_values
        ]
        assert np.max(np.abs(curves - np.array(expected))) <= 1e-12

    def test_rejects_a_mismatched_pair(self):
        with pytest.raises(ValueError, match="representations"):
            instantaneous_spectrum(transverse_driver(2), np.eye(4), [0.5])
        with pytest.raises(ValueError, match="registers"):
            instantaneous_spectrum(transverse_driver(2), np.zeros(8), [0.5])
        with pytest.raises(ValueError, match="diagonal target"):
            instantaneous_spectrum(transverse_matrix(2), np.eye(4), [0.5])

    def test_rejects_oversized_register(self):
        with pytest.raises(ValueError, match="spectrum"):
            instantaneous_spectrum(transverse_driver(13), np.zeros(2**13), [0.5])


def test_self_adjoint_returns_real_only_without_imaginary_part():
    symmetric = self_adjoint(np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex))
    assert symmetric.dtype == np.float64
    assert np.array_equal(symmetric, [[1.0, 2.0], [2.0, 3.0]])
    hermitian = self_adjoint(np.array([[1.0, 1j], [-1j, 3.0]]))
    assert hermitian.dtype == np.complex128
    real = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert self_adjoint(real) is real
    for dtype in (float, complex):
        with pytest.raises(ValueError, match="not Hermitian"):
            self_adjoint(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=dtype))
