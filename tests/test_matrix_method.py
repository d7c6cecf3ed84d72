"""Tests for the momentum-basis treatment of potentials on [0, 1].

Closed-form Fourier coefficients are cross-checked against adaptive
quadrature; spectra against explicitly assembled reference matrices.
"""

import math

import numpy as np
import pytest

from aqtrain import matrix_method

from aqtrain.matrix_method import (
    QUARTIC_COEFFS,
    QUARTIC_FALSE_MINIMUM,
    MomentumTruncation,
    Potential,
    SchrodingerProblem,
    adaptive_simpson,
    check_packet_width,
    gaussian_packet,
    ground_state,
    mass_scaling_exponent,
    momentum_to_position,
    quartic_polynomial,
    window_masses,
)
from aqtrain.varpoly import VarPolynomial, parse_polynomial


def cosine():
    """The cosine well 1 + cos(4 pi w)."""
    return Potential(VarPolynomial.constant(1.0), 1.0)


def tilted(tilt):
    """The tilted-cosine well 1 + tilt * w + cos(4 pi w)."""
    return Potential(1.0 + tilt * VarPolynomial.variable("w"), 1.0)


def quartic(strength):
    """The quartic double well of the given strength."""
    return Potential(quartic_polynomial(strength))


def quadrature_fourier(potential, k):
    return adaptive_simpson(
        lambda w: potential.value(w) * np.exp(-2j * math.pi * k * w),
        0.0,
        1.0,
        min_depth=max(4, int(abs(k)).bit_length() + 1),
    )


class TestFourierCoefficients:
    def test_cosine_closed_form(self):
        v = cosine()
        assert v.fourier_coefficient(0) == pytest.approx(1.0)
        assert v.fourier_coefficient(2) == pytest.approx(0.5)
        assert v.fourier_coefficient(-2) == pytest.approx(0.5)
        for k in (1, -1, 3, 5):
            assert v.fourier_coefficient(k) == 0.0

    @pytest.mark.parametrize("k", [0, 1, -2, 3])
    def test_cosine_against_quadrature(self, k):
        v = cosine()
        assert v.fourier_coefficient(k) == pytest.approx(quadrature_fourier(v, k), abs=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 2, -3, 5])
    def test_quartic_against_quadrature(self, k):
        v = quartic(1.0)
        assert v.fourier_coefficient(k) == pytest.approx(quadrature_fourier(v, k), abs=1e-9)

    def test_quartic_zero_mode_is_mean(self):
        v = quartic(1.0)
        expected = 18 / 5 - 35 / 4 + 22 / 3 - 5 / 2 + 0.372573
        assert v.fourier_coefficient(0) == pytest.approx(expected, abs=1e-12)

    def test_tilt_coefficient(self):
        eps = 0.02
        v = tilted(eps)
        # the linear part contributes eps * i / (2 pi k) for k != 0
        assert v.fourier_coefficient(1) == pytest.approx(1j * eps / (2 * math.pi), abs=1e-12)
        assert v.fourier_coefficient(2) == pytest.approx(0.5 + 1j * eps / (4 * math.pi), abs=1e-12)
        assert v.fourier_coefficient(0) == pytest.approx(1.0 + eps / 2, abs=1e-12)
        assert v.fourier_coefficient(-1) == pytest.approx(
            np.conj(v.fourier_coefficient(1)), abs=1e-12
        )

    def test_polynomial_potential_from_text(self):
        poly = parse_polynomial("2*w^2 - w + 0.25")
        v = Potential(poly)
        for k in (0, 1, 4):
            assert v.fourier_coefficient(k) == pytest.approx(quadrature_fourier(v, k), abs=1e-9)

    def test_potential_takes_one_variable_of_any_name(self):
        x = Potential(parse_polynomial("2*x^2 - x + 0.25"))
        w = Potential(parse_polynomial("2*w^2 - w + 0.25"))
        for k in (0, 1, -3):
            assert x.fourier_coefficient(k) == w.fourier_coefficient(k)
        with pytest.raises(ValueError, match="more than one variable"):
            Potential(parse_polynomial("w * x"))

    @pytest.mark.parametrize(
        "name, num_qubits",
        [("cosine", 5), ("cosine", 7), ("tilted", 5), ("quartic", 7)],
    )
    def test_shipped_potentials_match_their_closed_forms(self, name, num_qubits):
        """Bit-equal to the coefficients each shipped potential had as its own
        class, at the sizes the shipped configs assemble, and plain Python
        numbers (a numpy scalar overflows with a warning in a reach product)."""
        tilt, scale = 0.02, 50.0

        def cosine_form(k):
            return 1.0 if k == 0 else 0.5 if abs(k) == 2 else 0.0

        if name == "cosine":
            potential, closed_form = cosine(), cosine_form
        elif name == "tilted":
            potential = tilted(tilt)

            def closed_form(k):
                return cosine_form(k) + tilt * matrix_method._monomial_fourier(1, k)

        else:
            potential = quartic(scale)
            coeffs = np.zeros(len(QUARTIC_COEFFS))
            for p, c in enumerate(QUARTIC_COEFFS):
                coeffs[p] += scale * c

            def closed_form(k):
                return complex(
                    sum(c * matrix_method._monomial_fourier(p, k) for p, c in enumerate(coeffs) if c)
                )

        for k in range(-(2**num_qubits) + 1, 2**num_qubits):
            coefficient = potential.fourier_coefficient(k)
            assert not isinstance(coefficient, np.generic)
            assert coefficient == closed_form(k)

    def test_real_potential_coefficients_conjugate(self):
        v = quartic(3.0)
        for k in (1, 2, 3):
            assert v.fourier_coefficient(-k) == pytest.approx(
                np.conj(v.fourier_coefficient(k)), abs=1e-12
            )


class TestQuarticShape:
    def test_false_minimum_value_is_tuned_to_zero(self):
        v = quartic(1.0)
        assert abs(v.value(QUARTIC_FALSE_MINIMUM)) < 1e-4

    def test_false_minimum_is_stationary(self):
        v = quartic(1.0)
        h = 1e-6
        derivative = (v.value(QUARTIC_FALSE_MINIMUM + h) - v.value(QUARTIC_FALSE_MINIMUM - h)) / (2 * h)
        assert abs(derivative) < 1e-2

    def test_global_minimum_is_deeper_and_near_08(self):
        v = quartic(1.0)
        grid = np.linspace(0.0, 1.0, 100001)
        values = v.value(grid)
        w_star = grid[int(np.argmin(values))]
        assert abs(w_star - 0.809) < 1e-2
        assert v.value(w_star) < v.value(QUARTIC_FALSE_MINIMUM) - 0.05

    def test_strength_scales_linearly(self):
        weak, strong = quartic(1.0), quartic(4.0)
        w = np.array([0.1, 0.5, 0.9])
        assert np.allclose(strong.value(w), 4.0 * weak.value(w))


class TestHamiltonianAssembly:
    def test_mode_range_is_asymmetric(self):
        trunc = MomentumTruncation(3)
        assert list(trunc.modes) == [-4, -3, -2, -1, 0, 1, 2, 3]
        assert trunc.index_of(0) == 4
        assert trunc.index_of(-4) == 0
        with pytest.raises(ValueError, match="outside"):
            trunc.index_of(4)

    def test_elements_match_reference(self):
        problem = SchrodingerProblem(cosine(), mass=2.0, truncation=MomentumTruncation(3))
        h = problem.hamiltonian()
        trunc = problem.truncation
        for n in trunc.modes:
            for l in trunc.modes:
                expected = quadrature_fourier(problem.potential, n - l)
                if n == l:
                    expected += (2 * math.pi * n) ** 2 / (2 * problem.mass)
                assert h[trunc.index_of(n), trunc.index_of(l)] == pytest.approx(expected, abs=1e-9)

    def test_hermitian(self):
        problem = SchrodingerProblem(
            tilted(0.02), mass=10.0, truncation=MomentumTruncation(4)
        )
        h = problem.hamiltonian()
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    @pytest.mark.parametrize(
        "potential, dtype",
        [
            (cosine(), np.float64),
            # the quartic well is not symmetric about w = 1/2, so its
            # coefficients have imaginary parts; the tilt breaks the symmetry too
            (quartic(50.0), np.complex128),
            (tilted(0.02), np.complex128),
        ],
        ids=["cosine", "quartic", "tilted"],
    )
    def test_matrices_are_real_exactly_when_the_coefficients_are(self, potential, dtype):
        problem = SchrodingerProblem(potential, mass=10.0, truncation=MomentumTruncation(4))
        coefficients = [complex(potential.fourier_coefficient(k)) for k in range(16)]
        assert any(c.imag for c in coefficients) == (dtype == np.complex128)
        assert problem.kinetic_matrix().dtype == np.float64
        assert problem.potential_matrix().dtype == dtype
        h = problem.hamiltonian()
        assert h.dtype == dtype
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_free_particle_spectrum(self):
        problem = SchrodingerProblem(
            quartic(0.0), mass=1.0, truncation=MomentumTruncation(3)
        )
        h = problem.hamiltonian()
        kinetic = sorted((2 * math.pi * n) ** 2 / 2.0 for n in problem.truncation.modes)
        assert np.allclose(np.linalg.eigvalsh(h), kinetic, atol=1e-9)
        energy, vec = ground_state(h)
        assert energy == pytest.approx(0.0, abs=1e-9)
        expected = np.zeros(8)
        expected[problem.truncation.index_of(0)] = 1.0
        assert np.allclose(np.abs(vec), expected, atol=1e-9)


class TestGroundState:
    def test_eigenpair_and_phase_convention(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = raw + raw.conj().T
        energy, vec = ground_state(h)
        assert np.allclose(h @ vec, energy * vec, atol=1e-9)
        pivot = np.argmax(np.abs(vec))
        assert vec[pivot].imag == pytest.approx(0.0, abs=1e-12)
        assert vec[pivot].real > 0

    def test_real_matrix_matches_complex_solve(self, monkeypatch):
        # the cosine Hamiltonian is real, and solved as it is
        h = SchrodingerProblem(cosine(), 100.0, MomentumTruncation(6)).hamiltonian()
        assert h.dtype == np.float64
        solved = []
        eigh = np.linalg.eigh

        def recording(matrix):
            solved.append(matrix.dtype)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        energy, vec = ground_state(h)
        monkeypatch.undo()
        assert solved == [np.float64]
        energies, vectors = np.linalg.eigh(h.astype(complex))
        assert abs(energy - energies[0]) <= 1e-12
        assert abs(np.vdot(vectors[:, 0], vec)) >= 1.0 - 1e-12
        pivot = np.argmax(np.abs(vec))
        assert vec.dtype == complex
        assert vec[pivot].imag == 0.0 and vec[pivot].real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_cosine_energy_matches_oscillator_estimate(self):
        # V = 1 + cos(4 pi w) = 8 pi^2 (w - 1/4)^2 + O((w - 1/4)^4) around a
        # minimum, so the zero-point energy is about 2 pi / sqrt(m)
        mass = 1600.0
        problem = SchrodingerProblem(cosine(), mass, MomentumTruncation(6))
        energy, _ = ground_state(problem.hamiltonian())
        estimate = 2 * math.pi / math.sqrt(mass)
        assert abs(energy - estimate) / estimate < 0.05

    def test_cosine_density_has_two_equal_peaks(self):
        problem = SchrodingerProblem(cosine(), 100.0, MomentumTruncation(5))
        _, vec = ground_state(problem.hamiltonian())
        w, density = momentum_to_position(vec)
        interior = density[1:-1]
        peaks = np.nonzero((interior > density[:-2]) & (interior > density[2:]))[0] + 1
        assert len(peaks) == 2
        assert w[peaks[0]] == pytest.approx(0.25, abs=0.005)
        assert w[peaks[1]] == pytest.approx(0.75, abs=0.005)
        assert density[peaks[0]] == pytest.approx(density[peaks[1]], rel=1e-6)

    @staticmethod
    def _cosine_peak(mass, num_qubits=7):
        problem = SchrodingerProblem(cosine(), mass, MomentumTruncation(num_qubits))
        _, vec = ground_state(problem.hamiltonian())
        _, density = momentum_to_position(vec, grid_points=2048)
        return density.max()

    def test_peak_density_approaches_quarter_power_law(self):
        # anharmonic corrections fall off like 1/sqrt(m), so the local
        # log-log slope converges to 1/4 from above at large masses
        masses = [400.0, 1600.0, 6400.0]
        peaks = [self._cosine_peak(m) for m in masses]
        slope = np.polyfit(np.log(masses), np.log(peaks), 1)[0]
        assert slope == pytest.approx(0.25, abs=0.025)

    def test_peak_density_matches_harmonic_model(self):
        masses = np.array([25.0, 100.0, 400.0])
        peaks = np.array([self._cosine_peak(m) for m in masses])
        # exact peaks sit below the harmonic prediction m**0.25 and climb
        # toward it as the wells get stiffer
        ratios = peaks / masses**0.25
        assert np.all(ratios < 1.0)
        assert np.all(np.diff(ratios) > 0)
        assert mass_scaling_exponent(masses, peaks) == pytest.approx(0.25, abs=0.05)

    def test_mass_scaling_exponent_recovers_pure_power(self):
        masses = np.array([10.0, 40.0, 160.0])
        assert mass_scaling_exponent(masses, masses**0.3) == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(ValueError):
            mass_scaling_exponent([100.0], [3.0])


class TestGaussianPacket:
    def test_unit_norm_and_location(self):
        trunc = MomentumTruncation(5)
        # the harmonic width sqrt(lambda * pi * m) at the false minimum
        width = math.sqrt(4.0 * math.pi * 100.0)
        amps = gaussian_packet(QUARTIC_FALSE_MINIMUM, width, trunc)
        assert np.linalg.norm(amps) == pytest.approx(1.0)
        w, density = momentum_to_position(amps)
        assert w[int(np.argmax(density))] == pytest.approx(QUARTIC_FALSE_MINIMUM, abs=0.005)

    def test_matches_quadrature_transform(self):
        # centered so the packet tails vanish at the interval boundary and
        # the quadrature over one period equals the whole-line transform
        trunc = MomentumTruncation(4)
        center, width = 0.5, 80.0
        amps = gaussian_packet(center, width, trunc)

        def packet(w):
            return math.exp(-width * (w - center) ** 2)

        oracle = np.array(
            [
                adaptive_simpson(
                    lambda w: packet(w) * np.exp(-2j * math.pi * n * w),
                    0.0,
                    1.0,
                    min_depth=8,
                )
                for n in trunc.modes
            ]
        )
        oracle /= np.linalg.norm(oracle)
        assert np.allclose(amps, oracle, atol=1e-6)

    def test_wide_packet_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            gaussian_packet(0.25, 20.0, MomentumTruncation(5))

    def test_overlap_limit_is_inclusive(self):
        # exp(-width / 2) is 9.97e-7 at 27.64 and 1.02e-6 at 27.6
        check_packet_width(27.64)
        gaussian_packet(0.25, 27.64, MomentumTruncation(5))
        for width in (27.6, 0.0, -1.0):
            with pytest.raises(ValueError):
                check_packet_width(width)
            with pytest.raises(ValueError):
                gaussian_packet(0.25, width, MomentumTruncation(5))


class TestMomentumToPosition:
    def test_pure_mode_is_flat(self):
        amps = np.zeros(16, dtype=complex)
        amps[11] = 1.0  # mode n = 3
        w, density = momentum_to_position(amps)
        assert np.allclose(density, 1.0, atol=1e-9)

    def test_normalization(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        w, density = momentum_to_position(amps)
        assert np.trapezoid(density, w) == pytest.approx(1.0, abs=1e-9)

    def test_grid_endpoints(self):
        w, _ = momentum_to_position(np.eye(8)[4], grid_points=101)
        assert w[0] == 0.0 and w[-1] == 1.0 and len(w) == 101


#: (modes, grid_points) of the read-out oracle tests; at 17 points the 32
#: modes alias onto 16 grid frequencies, and at 2 points onto one
READOUT_SHAPES = [(32, 1025), (16, 301), (32, 17), (8, 2), (128, 2048)]


def plane_waves(modes: int, grid_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid and the explicit (grid, modes) matrix exp(2 pi i n w)."""
    w = np.linspace(0.0, 1.0, grid_points)
    return w, np.exp(2j * math.pi * np.outer(w, np.arange(-modes // 2, modes // 2)))


def relative_error(got, expected) -> float:
    return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))


class TestReadOutOracle:
    """The FFT read-outs against the explicit plane-wave sums they replace."""

    @pytest.mark.parametrize("modes,grid_points", READOUT_SHAPES)
    def test_position_amplitudes_match_explicit_sum(self, modes, grid_points):
        rng = np.random.default_rng(modes + grid_points)
        states = rng.normal(size=(3, modes)) + 1j * rng.normal(size=(3, modes))
        _, waves = plane_waves(modes, grid_points)
        expected = states @ waves.T
        stacked = matrix_method._position_amplitudes(states, grid_points)
        assert stacked.shape == (3, grid_points)
        assert relative_error(stacked, expected) < 1e-12
        single = matrix_method._position_amplitudes(states[1], grid_points)
        assert relative_error(single, waves @ states[1]) < 1e-12

    @pytest.mark.parametrize("modes,grid_points", READOUT_SHAPES)
    def test_densities_match_explicit_sum(self, modes, grid_points):
        rng = np.random.default_rng(modes * grid_points)
        states = rng.normal(size=(4, modes)) + 1j * rng.normal(size=(4, modes))
        w, waves = plane_waves(modes, grid_points)
        expected = np.abs(states @ waves.T) ** 2
        expected /= np.trapezoid(expected, w, axis=-1)[:, None]
        grid, stacked = momentum_to_position(states, grid_points)
        assert np.array_equal(grid, w)
        assert relative_error(stacked, expected) < 1e-12
        for state, row in zip(states, expected):
            _, single = momentum_to_position(state, grid_points)
            assert single.shape == (grid_points,)
            assert relative_error(single, row) < 1e-12

    @pytest.mark.parametrize("modes,grid_points", READOUT_SHAPES)
    def test_window_forms_match_explicit_products(self, modes, grid_points):
        w, waves = plane_waves(modes, grid_points)
        trapezoid = np.full(grid_points, 1.0 / max(1, grid_points - 1))
        trapezoid[[0, -1]] /= 2.0
        weighted = [trapezoid, trapezoid * (w < 0.5), trapezoid * np.cos(3.0 * w)]
        forms = [(waves.conj().T * c) @ waves for c in weighted]
        for c, expected in zip(weighted, forms):
            assert relative_error(matrix_method._toeplitz_form(c, modes), expected) < 1e-12
        # and the masses window_masses reads through them, a^* M a / a^* M_0 a
        rng = np.random.default_rng(modes)
        states = rng.normal(size=(5, modes)) + 1j * rng.normal(size=(5, modes))
        values = np.einsum("kn,fnl,kl->kf", states.conj(), np.array(forms), states).real
        windows = (lambda w: w < 0.5, lambda w: np.cos(3.0 * w))
        masses = window_masses(states, grid_points, windows)
        assert relative_error(masses, values[:, 1:] / values[:, :1]) < 1e-12


class TestWindowMasses:
    WINDOWS = (
        lambda w: w < 0.5,
        lambda w: w >= 0.5,
        lambda w: np.abs(w - 0.3) < 0.1,
    )

    def test_matches_trapezoid_of_each_density(self, monkeypatch):
        # 16 modes and four forms (the normalizing one and three windows):
        # 1 kB a state, so two states a chunk and four chunks for seven
        monkeypatch.setattr(matrix_method, "CHUNK_BYTES", 2048)
        rng = np.random.default_rng(8)
        amplitudes = rng.normal(size=(7, 16)) + 1j * rng.normal(size=(7, 16))
        masses = window_masses(amplitudes, 301, self.WINDOWS)
        assert masses.shape == (7, 3)
        for amps, row in zip(amplitudes, masses):
            w, density = momentum_to_position(amps, 301)
            expected = [np.trapezoid(np.where(window(w), density, 0.0), w) for window in self.WINDOWS]
            assert np.max(np.abs(row - expected)) < 1e-13

    def test_complementary_windows_partition_the_mass(self):
        packet = gaussian_packet(0.4, 60.0, MomentumTruncation(5))
        left, right, _ = window_masses(packet[None], 512, self.WINDOWS)[0]
        assert left + right == pytest.approx(1.0, abs=1e-14)


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(lambda x: x**2, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert adaptive_simpson(lambda x: math.cos(x), 0.0, math.pi) == pytest.approx(
        0.0, abs=1e-10
    )
    value = adaptive_simpson(lambda x: np.exp(2j * math.pi * x), 0.0, 1.0, min_depth=4)
    assert abs(value) < 1e-10


def test_adaptive_simpson_min_depth_defeats_aliasing():
    # exp(-8j pi w) equals 1 at all five starting sample points on [0, 1],
    # so without forced subdivision the recursion stops immediately
    integrand = lambda w: np.exp(-8j * math.pi * w)
    assert abs(adaptive_simpson(integrand, 0.0, 1.0, min_depth=6)) < 1e-10
