"""Tests for Trotterized adiabatic and real-time evolution.

The dense per-step path exponentiates the full interpolated Hamiltonian and
has no splitting error, so it is the oracle for the split-step and Krylov
paths; all are additionally checked against a step-by-step reference coded
here.
"""

import math

import numpy as np
import pytest

from aqtrain.encodings import EncodingTable
from aqtrain.engine import (
    AnnealSpec,
    DENSE_EVOLUTION_CAP,
    LinearSchedule,
    evolve_adiabatic,
    evolve_real_time,
    expm_krylov,
    instantaneous_spectrum,
    measure_histogram,
    sample_outcomes,
    transverse_driver,
)
from aqtrain.matrix_method import (
    CosinePotential,
    MomentumTruncation,
    SchrodingerProblem,
    gaussian_packet,
    ground_state,
    momentum_to_position,
)
from aqtrain.pauli import PauliPolynomial, pauli_x, pauli_z
from aqtrain.state import StateVector
from aqtrain.varpoly import parse_polynomial

QUARTIC_TEXT = "18*w^4 - 35*w^3 + 22*w^2 - 5*w + 0.372573"


def quartic_target(num_qubits, strength=1.0):
    """The quartic double well compiled onto a fractional register."""
    table = EncodingTable.single_fractional("w", num_qubits)
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


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return raw + raw.conj().T


def random_state(num_qubits, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector.from_amplitudes(raw)


class TestTransverseDriver:
    def test_single_qubit_matrix(self):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(transverse_driver(1).to_matrix(), expected)

    def test_uniform_is_ground_state_with_zero_energy(self):
        driver = transverse_driver(3)
        uniform = StateVector.uniform(3)
        assert np.allclose(driver.apply(uniform), 0.0, atol=1e-12)
        assert driver.expectation(uniform) == pytest.approx(0.0, abs=1e-12)

    def test_spectrum_spans_zero_to_qubit_count(self):
        energies = np.linalg.eigvalsh(transverse_driver(4).to_matrix())
        assert energies[0] == pytest.approx(0.0, abs=1e-12)
        assert energies[-1] == pytest.approx(4.0, abs=1e-12)


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
            AnnealSpec(transverse_driver(2), PauliPolynomial.zero(3), LinearSchedule(1.0))

    @pytest.mark.parametrize("field", ["n_steps", "substeps_per_step", "snapshot_stride"])
    def test_counts_must_be_positive(self, field):
        kwargs = {field: 0}
        with pytest.raises(ValueError):
            AnnealSpec(
                transverse_driver(2), PauliPolynomial.zero(2), LinearSchedule(1.0), **kwargs
            )

    def test_dense_pair_rejects_substeps(self):
        # eigendecomposition is exact; a substep count would be silently ignored
        h = random_hermitian(4, seed=1)
        with pytest.raises(ValueError, match="substeps"):
            AnnealSpec(h, h, LinearSchedule(1.0), substeps_per_step=4)
        for substeps in (1, None):
            AnnealSpec(h, h, LinearSchedule(1.0), substeps_per_step=substeps)

    def test_pre_step_times(self):
        spec = AnnealSpec(
            transverse_driver(2), PauliPolynomial.zero(2), LinearSchedule(10.0), n_steps=10
        )
        assert np.allclose(spec.step_fractions(), np.arange(10) / 10.0)


class TestSplitEvolution:
    @pytest.mark.parametrize("substeps", [1, None])
    def test_uniform_stationary_under_pure_driver(self, substeps):
        # with a zero target the anneal only ever applies the driver factor,
        # and the uniform state is its eigenvector with eigenvalue zero
        spec = AnnealSpec(
            transverse_driver(4),
            PauliPolynomial.zero(4),
            LinearSchedule(10.0),
            n_steps=10,
            substeps_per_step=substeps,
            snapshot_stride=3,
        )
        uniform = StateVector.uniform(4)
        result = evolve_adiabatic(spec, uniform)
        assert np.allclose(result.final.amplitudes, uniform.amplitudes, atol=1e-12)
        assert [t for t, _ in result.snapshots] == [0.0, 3.0, 6.0, 9.0, 10.0]

    def test_diagonal_factor_has_no_substep_error(self):
        # all-Z targets commute, so halving the substep must change nothing
        target, _ = quartic_target(4)
        driver = PauliPolynomial.zero(4)
        state = random_state(4, seed=11)
        outputs = []
        for substeps in (1, 2):
            spec = AnnealSpec(
                driver, target, LinearSchedule(3.0), n_steps=3, substeps_per_step=substeps
            )
            outputs.append(evolve_adiabatic(spec, state).final.amplitudes)
        assert np.allclose(outputs[0], outputs[1], atol=1e-12)
        assert np.allclose(np.abs(outputs[0]), np.abs(state.amplitudes), atol=1e-12)

    def test_substep_doubling_converges_to_dense(self):
        target, _ = quartic_target(4)
        driver = transverse_driver(4)
        uniform = StateVector.uniform(4)
        reference = reference_anneal(
            driver.to_matrix(), target.to_matrix(), 6.0, 6, uniform.amplitudes.astype(complex)
        )
        infidelities = []
        for substeps in (1, 2, 4, 8):
            spec = AnnealSpec(
                driver, target, LinearSchedule(6.0), n_steps=6, substeps_per_step=substeps
            )
            final = evolve_adiabatic(spec, uniform).final
            infidelities.append(1.0 - abs(np.vdot(reference, final.amplitudes)) ** 2)
        assert all(b < a for a, b in zip(infidelities, infidelities[1:]))
        assert infidelities[-1] < 1e-4

    @pytest.mark.parametrize("substeps", [1, None])
    def test_norm_drift_stays_tiny_over_thousand_steps(self, substeps):
        target, _ = quartic_target(5)
        spec = AnnealSpec(
            transverse_driver(5),
            target,
            LinearSchedule(10.0),
            n_steps=1000,
            substeps_per_step=substeps,
            snapshot_stride=1000,
        )
        final = evolve_adiabatic(spec, StateVector.uniform(5)).final
        assert abs(final.norm() - 1.0) < 1e-9

    def test_exact_path_matches_dense_reference_on_coarse_steps(self):
        # two steps with |H dt| >= 20 each: far beyond any splitting, and
        # long enough that the Lanczos expansion runs 15+ iterations
        target, _ = quartic_target(6, strength=20.0)
        driver = transverse_driver(6)
        state = random_state(6, seed=7)
        t_final, n_steps = 12.0, 2
        dt = t_final / n_steps
        for s in np.arange(n_steps) / n_steps:
            h = (1.0 - s) * driver.to_matrix() + s * target.to_matrix()
            assert np.max(np.abs(np.linalg.eigvalsh(h))) * dt >= 20.0
        reference = reference_anneal(
            driver.to_matrix(), target.to_matrix(), t_final, n_steps, state.amplitudes.astype(complex)
        )
        spec = AnnealSpec(
            driver, target, LinearSchedule(t_final), n_steps=n_steps, substeps_per_step=None
        )
        final = evolve_adiabatic(spec, state).final
        assert np.max(np.abs(final.amplitudes - reference)) < 1e-10

    def test_rejects_non_diagonal_target(self):
        bad_target = pauli_x(3, 1)
        with pytest.raises(ValueError, match="diagonal"):
            evolve_adiabatic(
                AnnealSpec(transverse_driver(3), bad_target, LinearSchedule(1.0)),
                StateVector.uniform(3),
            )

    def test_rejects_entangling_driver(self):
        bad_driver = pauli_z(3, 0) * pauli_z(3, 1)
        target, _ = quartic_target(3)
        with pytest.raises(ValueError, match="driver"):
            evolve_adiabatic(
                AnnealSpec(bad_driver, target, LinearSchedule(1.0)),
                StateVector.uniform(3),
            )

    def test_adiabatic_overlap_grows_with_duration(self):
        # quartic well scaled so the target competes with the driver; the
        # final overlap with the exact ground state must exceed 0.9 for the
        # longest anneal and never shrink as the duration doubles
        target, _ = quartic_target(5, strength=100.0)
        ground_index = int(np.argmin(target.diagonal()))
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
            final = evolve_adiabatic(spec, StateVector.uniform(5)).final
            overlaps.append(final.probabilities()[ground_index])
        assert all(b >= a for a, b in zip(overlaps, overlaps[1:]))
        assert overlaps[-1] > 0.9


class TestKrylovPropagator:
    def test_matches_eigendecomposition(self):
        h = random_hermitian(64, seed=21)
        v = random_state(6, seed=22).amplitudes.astype(complex)
        dt = 0.7
        energies, vectors = np.linalg.eigh(h)
        expected = vectors @ (np.exp(-1j * energies * dt) * (vectors.conj().T @ v))
        result = expm_krylov(lambda x: h @ x, dt, v)
        assert np.max(np.abs(result - expected)) < 1e-10

    def test_eigenvector_needs_one_iteration(self):
        h = random_hermitian(32, seed=23)
        energies, vectors = np.linalg.eigh(h)
        calls = []

        def matvec(x):
            calls.append(1)
            return h @ x

        result = expm_krylov(matvec, 2.5, vectors[:, 3])
        assert len(calls) == 1
        assert np.allclose(result, np.exp(-2.5j * energies[3]) * vectors[:, 3], atol=1e-12)

    def test_raises_when_max_iter_is_too_small(self):
        h = random_hermitian(64, seed=24)
        v = random_state(6, seed=25).amplitudes.astype(complex)
        with pytest.raises(RuntimeError, match="did not reach"):
            expm_krylov(lambda x: h @ x, 1.0, v, max_iter=3)


class TestDenseEvolution:
    def test_matches_independent_reference(self):
        driver = random_hermitian(8, seed=3)
        target = random_hermitian(8, seed=4)
        state = random_state(3, seed=5)
        spec = AnnealSpec(driver, target, LinearSchedule(2.0), n_steps=7)
        result = evolve_adiabatic(spec, state)
        expected = reference_anneal(
            driver.astype(complex), target.astype(complex), 2.0, 7, state.amplitudes.astype(complex)
        )
        assert np.allclose(result.final.amplitudes, expected, atol=1e-9)

    def test_ground_state_is_stationary(self):
        h = random_hermitian(8, seed=9)
        _, vec = ground_state(h)
        spec = AnnealSpec(h, h, LinearSchedule(5.0), n_steps=20)
        final = evolve_adiabatic(spec, StateVector(vec)).final
        assert final.fidelity(StateVector(vec)) == pytest.approx(1.0, abs=1e-10)

    def test_split_and_dense_paths_agree_in_the_small_step_limit(self):
        target, _ = quartic_target(3, strength=5.0)
        driver = transverse_driver(3)
        pauli_spec = AnnealSpec(driver, target, LinearSchedule(4.0), n_steps=4000)
        dense_spec = AnnealSpec(
            driver.to_matrix(), target.to_matrix(), LinearSchedule(4.0), n_steps=4000
        )
        uniform = StateVector.uniform(3)
        split_final = evolve_adiabatic(pauli_spec, uniform).final
        dense_final = evolve_adiabatic(dense_spec, uniform).final
        assert split_final.fidelity(dense_final) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_oversized_register(self):
        dim = 2 ** (DENSE_EVOLUTION_CAP + 1)
        big = np.zeros((dim, dim))
        spec = AnnealSpec(big, big, LinearSchedule(1.0), n_steps=1)
        with pytest.raises(ValueError, match="dense evolution"):
            evolve_adiabatic(spec, StateVector.basis(DENSE_EVOLUTION_CAP + 1, 0))


class TestRealTimeEvolution:
    def test_eigenstate_density_is_static(self):
        problem = SchrodingerProblem(CosinePotential(), 10.0, MomentumTruncation(4))
        h = problem.hamiltonian()
        _, vec = ground_state(h)
        snaps = evolve_real_time(h, StateVector(vec), t_total=5.0, dt=0.05, snapshot_stride=20)
        base = np.abs(vec) ** 2
        for _, state in snaps:
            assert np.allclose(state.probabilities(), base, atol=1e-6)

    def test_norm_preserved_over_ten_thousand_steps(self):
        h = random_hermitian(8, seed=17)
        state = random_state(3, seed=18)
        snaps = evolve_real_time(h, state, t_total=100.0, dt=0.01, snapshot_stride=10**5)
        assert abs(snaps[-1][1].norm() - 1.0) < 1e-6

    def test_packet_tunnels_to_other_minimum_and_returns(self):
        problem = SchrodingerProblem(CosinePotential(), 10.0, MomentumTruncation(5))
        h = problem.hamiltonian()
        energies = np.linalg.eigvalsh(h)
        period = 2.0 * math.pi / (energies[1] - energies[0])
        packet = StateVector(gaussian_packet(0.25, 40.0, problem.truncation))

        def right_well_mass(state):
            w, density = momentum_to_position(state.amplitudes)
            return np.trapezoid(np.where(w > 0.5, density, 0.0), w)

        snaps = evolve_real_time(h, packet, t_total=period, dt=period / 400, snapshot_stride=10)
        masses = [right_well_mass(state) for _, state in snaps]
        assert masses[0] < 0.05
        assert max(masses) > 0.85
        assert masses[-1] < 0.15

    def test_pauli_stepping_matches_dense_for_small_dt(self):
        rng = np.random.default_rng(23)
        h = PauliPolynomial.zero(3)
        for _ in range(5):
            qubits = rng.choice(3, size=rng.integers(1, 3), replace=False)
            pattern = tuple((int(q), "XYZ"[rng.integers(3)]) for q in qubits)
            h = h + PauliPolynomial(3, {pattern: float(rng.normal())})
        state = random_state(3, seed=24)
        pauli_final = evolve_real_time(h, state, t_total=0.2, dt=0.002)[-1][1]
        dense_final = evolve_real_time(h.to_matrix(), state, t_total=0.2, dt=0.002)[-1][1]
        assert pauli_final.fidelity(dense_final) == pytest.approx(1.0, abs=1e-5)

    def test_diagonal_hamiltonian_steps_exactly(self):
        target, _ = quartic_target(4, strength=3.0)
        state = random_state(4, seed=25)
        snaps = evolve_real_time(target, state, t_total=1.0, dt=0.5)
        expected = np.exp(-1j * 1.0 * target.diagonal()) * state.amplitudes
        assert np.allclose(snaps[-1][1].amplitudes, expected, atol=1e-12)

    def test_rejects_bad_arguments(self):
        state = StateVector.uniform(2)
        with pytest.raises(ValueError):
            evolve_real_time(PauliPolynomial.zero(2), state, t_total=1.0, dt=0.0)
        with pytest.raises(ValueError, match="register"):
            evolve_real_time(PauliPolynomial.zero(3), state, t_total=1.0, dt=0.1)


class TestInstantaneousSpectrum:
    def test_endpoints_match_directly_diagonalized_parts(self):
        target, _ = quartic_target(5, strength=10.0)
        spec = AnnealSpec(transverse_driver(5), target, LinearSchedule(1.0))
        curves = instantaneous_spectrum(spec, [0.0, 1.0], k_lowest=3)
        assert curves.shape == (2, 3)
        assert curves[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert curves[1, 0] == pytest.approx(float(np.min(target.diagonal())), abs=1e-9)

    def test_gap_stays_open_for_the_quartic_well(self):
        target, _ = quartic_target(5, strength=10.0)
        spec = AnnealSpec(transverse_driver(5), target, LinearSchedule(1.0))
        curves = instantaneous_spectrum(spec, np.linspace(0.0, 1.0, 21), k_lowest=2)
        gaps = curves[:, 1] - curves[:, 0]
        assert np.all(gaps > 0)

    def test_rejects_oversized_register(self):
        spec = AnnealSpec(
            transverse_driver(13), PauliPolynomial.zero(13), LinearSchedule(1.0)
        )
        with pytest.raises(ValueError, match="spectrum"):
            instantaneous_spectrum(spec, [0.5])


class TestMeasurement:
    def test_uniform_state_spreads_evenly(self):
        table = EncodingTable.single_fractional("w", 2)
        histogram = measure_histogram(StateVector.uniform(2), table)
        assert len(histogram) == 4
        for value in histogram.values():
            assert value == pytest.approx(0.25, abs=1e-12)

    def test_basis_state_is_a_single_bin(self):
        table = EncodingTable.single_fractional("w", 3)
        state = StateVector.basis(3, 5)
        histogram = measure_histogram(state, table)
        decoded = table.decode_index(5)["w"]
        assert histogram[(decoded,)] == pytest.approx(1.0, abs=1e-12)
        assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-9)

    def test_random_state_histogram_sums_to_one(self):
        table = EncodingTable.uniform(["u1", "u2", "u3"], kind="spin-pm1")
        state = random_state(3, seed=31)
        histogram = measure_histogram(state, table)
        assert sum(histogram.values()) == pytest.approx(1.0, abs=1e-9)
        spins = {value for key in histogram for value in key}
        assert spins <= {-1.0, 1.0}

    def test_sampling_matches_exact_distribution(self):
        state = random_state(3, seed=32)
        outcomes = sample_outcomes(state, shots=100_000, seed=7)
        probabilities = state.probabilities()
        counts = np.zeros(8)
        strings = [
            "".join("1" if (index >> q) & 1 == 0 else "0" for q in range(3))
            for index in range(8)
        ]
        lookup = {s: i for i, s in enumerate(strings)}
        for outcome in outcomes:
            counts[lookup[outcome]] += 1
        total_variation = 0.5 * np.sum(np.abs(counts / len(outcomes) - probabilities))
        assert total_variation < 0.01

    def test_sampling_is_seed_reproducible(self):
        state = random_state(2, seed=33)
        first = sample_outcomes(state, shots=50, seed=12)
        second = sample_outcomes(state, shots=50, seed=12)
        assert first == second

    def test_deterministic_state_samples_one_string(self):
        state = StateVector.basis(3, 5)
        outcomes = set(sample_outcomes(state, shots=20, seed=3))
        # index 5 has bits (1, 0, 1); reported strings are T-eigenvalues
        assert outcomes == {"010"}
