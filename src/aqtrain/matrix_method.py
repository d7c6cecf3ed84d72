"""One-dimensional quantum mechanics on the unit interval in a momentum basis.

A particle of mass ``m`` lives on ``w in [0, 1)`` with periodic boundary
conditions and plane-wave basis ``<w|n> = exp(2*pi*i*n*w)``.  With modes
truncated to ``n in [-2**(N-1), 2**(N-1) - 1]`` the Hamiltonian

    H[n, l] = (2*pi*n)**2 / (2m) * delta(n, l) + Vhat(n - l),
    Vhat(k) = integral_0^1 V(w) exp(-2*pi*i*k*w) dw,

is a dense ``2**N x 2**N`` Hermitian matrix; mode ``n`` sits at matrix
index ``n + 2**(N-1)``.  This gives continuous-valued minima (unlike the
bin-grid encodings of :mod:`aqtrain.encodings`) at the price of dense
matrix arithmetic.

Every potential has the one form :class:`Potential`, ``V(w) = p(w) + a *
cos(4*pi*w)`` with ``p`` a polynomial in one variable: the cosine well is
``p = 1, a = 1``, the tilted well ``p = 1 + tilt * w, a = 1`` and the
quartic double well ``p = quartic_polynomial(strength), a = 0``.  The
cosine well's two minima, at w = 1/4 and 3/4, are degenerate; the tilt
breaks the degeneracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import CHUNK_BYTES, self_adjoint
from .pauli import MATRIX_QUBIT_CAP
from .varpoly import VarPolynomial

#: quartic double-well coefficients, constant term tuned so the shallow
#: (false) minimum near w = 0.1848 sits at almost exactly zero
QUARTIC_COEFFS = (0.372573, -5.0, 22.0, -35.0, 18.0)

#: location of the false minimum of the quartic well
QUARTIC_FALSE_MINIMUM = 0.1848

#: location of its global minimum
QUARTIC_TRUE_MINIMUM = 0.8


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 30,
    min_depth: int = 0,
) -> complex:
    """Adaptive Simpson quadrature for a complex-valued integrand.

    An oscillatory integrand can hit the same phase at every coarse sample
    point and look converged when it is not (e.g. ``exp(-2j*pi*k*w)`` with
    ``k`` a multiple of four evaluates to 1 at all five starting points on
    [0, 1]).  ``min_depth`` forces that many halvings before the error test
    is allowed to stop the recursion.
    """

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        left_mid = f(0.5 * (x0 + x1))
        right_mid = f(0.5 * (x1 + x2))
        left = simpson(x0, x1, f0, left_mid, f1)
        right = simpson(x1, x2, f1, right_mid, f2)
        converged = abs(left + right - whole) <= 15.0 * eps
        if depth >= max_depth or (depth >= min_depth and converged):
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, left_mid, f1, left, eps / 2.0, depth + 1) + recurse(
            x1, x2, f1, right_mid, f2, right, eps / 2.0, depth + 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, 0)


def _monomial_fourier(power: int, k: int) -> complex:
    """integral_0^1 w**p exp(-2*pi*i*k*w) dw for integer k."""
    if k == 0:
        return 1.0 / (power + 1)
    # integration by parts: I_p = -1/(2*pi*i*k) + p/(2*pi*i*k) * I_{p-1}, I_0 = 0
    denom = 2j * math.pi * k
    value = 0.0 + 0.0j
    for p in range(1, power + 1):
        value = (-1.0 + p * value) / denom
    return value


def quartic_polynomial(strength: float) -> VarPolynomial:
    """strength * (18 w^4 - 35 w^3 + 22 w^2 - 5 w + 0.372573).

    A double well with a false minimum near ``w = 0.1848`` (value close to
    zero by construction) and the global minimum at ``w = 0.8``.
    """
    return VarPolynomial({(("w", p),) if p else (): strength * c for p, c in enumerate(QUARTIC_COEFFS)})


class Potential:
    """V(w) = poly(w) + cosine * cos(4*pi*w), ``poly`` in at most one variable of any name."""

    def __init__(self, poly: VarPolynomial, cosine: float = 0.0):
        if len(poly.variables) > 1:
            raise ValueError(f"potential depends on more than one variable: {sorted(poly.variables)}")
        self.poly = poly
        self.cosine = cosine
        # by power, as Python floats so the Fourier coefficients are Python numbers
        coeffs = [0.0] * (poly.degree + 1)
        for key, coeff in poly.items():
            coeffs[key[0][1] if key else 0] += float(coeff)
        self._coeffs = tuple(coeffs)

    def value(self, w):
        w = np.asarray(w, dtype=float)
        return np.polynomial.polynomial.polyval(w, self._coeffs) + self.cosine * np.cos(4.0 * math.pi * w)

    def fourier_coefficient(self, k: int) -> complex:
        value = sum(c * _monomial_fourier(p, k) for p, c in enumerate(self._coeffs) if c)
        return value + self.cosine / 2 if abs(k) == 2 else value


@dataclass(frozen=True)
class MomentumTruncation:
    """Mode range realized by an N-qubit register: n in [-2**(N-1), 2**(N-1)-1]."""

    num_qubits: int

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MATRIX_QUBIT_CAP:
            raise ValueError(f"num_qubits must be in [1, {MATRIX_QUBIT_CAP}]")

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    @property
    def modes(self) -> np.ndarray:
        half = self.dim // 2
        return np.arange(-half, half)

    def index_of(self, mode: int) -> int:
        index = mode + self.dim // 2
        if not 0 <= index < self.dim:
            raise ValueError(f"mode {mode} outside the truncation")
        return index


@dataclass(frozen=True)
class SchrodingerProblem:
    """A massive particle on the unit interval in a truncated momentum basis."""

    potential: Potential
    mass: float
    truncation: MomentumTruncation

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    def kinetic_matrix(self) -> np.ndarray:
        """Diagonal kinetic term (2*pi*n)**2 / (2m), a real matrix."""
        modes = self.truncation.modes
        return np.diag((2.0 * math.pi * modes) ** 2 / (2.0 * self.mass))

    def potential_matrix(self) -> np.ndarray:
        """Toeplitz matrix Vhat(n - l), assembled Hermitian by construction;
        real when every Fourier coefficient is (a potential symmetric about
        w = 1/2, such as the cosine), else complex."""
        dim = self.truncation.dim
        lower = np.array(
            [complex(self.potential.fourier_coefficient(d)) for d in range(dim)]
        )
        if not lower.imag.any():
            lower = lower.real
        distance = np.subtract.outer(np.arange(dim), np.arange(dim))
        return np.where(distance >= 0, lower[abs(distance)], lower[abs(distance)].conj())

    def hamiltonian(self) -> np.ndarray:
        return self.kinetic_matrix() + self.potential_matrix()


def _position_amplitudes(amplitudes: np.ndarray, grid_points: int) -> np.ndarray:
    """``sum_n a_n exp(2 pi i n w_j)`` on ``w_j = j / (grid_points - 1)``.

    ``amplitudes`` is a ``(..., dim)`` stack of momentum-basis states; the
    result is ``(..., grid_points)``.  The grid is one period plus its
    endpoint, so with ``N = grid_points - 1`` the sum is the unnormalized
    length-``N`` inverse FFT of the amplitudes folded onto ``n mod N``
    (modes alias when ``N < dim``), and the endpoint repeats ``j = 0``.
    """
    dim = amplitudes.shape[-1]
    period = grid_points - 1
    slots = np.arange(-(dim // 2), dim - dim // 2) % period
    folded = np.zeros(amplitudes.shape[:-1] + (period,), dtype=complex)
    # each block of at most ``period`` consecutive modes lands on distinct slots
    for first in range(0, dim, period):
        folded[..., slots[first : first + period]] += amplitudes[..., first : first + period]
    values = np.empty(amplitudes.shape[:-1] + (grid_points,), dtype=complex)
    np.fft.ifft(folded, axis=-1, norm="forward", out=values[..., :period])
    values[..., period] = values[..., 0]
    return values


def momentum_to_position(amplitudes, grid_points: int = 512):
    """Position-space density of a momentum-basis state, or of a stack of them.

    ``amplitudes`` is one state or a ``(states, dim)`` array.  Returns
    ``(w, density)`` on a uniform grid including both endpoints, ``density``
    shaped ``(grid_points,)`` or ``(states, grid_points)``; each density is
    normalized so its trapezoid integral over [0, 1] is 1.  One inverse FFT
    of ``grid_points - 1`` points a state evaluates the wave function.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    dim = amplitudes.shape[-1]
    if dim & (dim - 1):
        raise ValueError("amplitude count must be a power of two")
    w = np.linspace(0.0, 1.0, grid_points)
    density = np.abs(_position_amplitudes(amplitudes, grid_points)) ** 2
    total = np.trapezoid(density, w, axis=-1)
    if np.any(total <= 0):
        raise ValueError("state has no support on the grid")
    density /= total[..., None]
    return w, density


def _toeplitz_form(weights: np.ndarray, dim: int) -> np.ndarray:
    """``P^* diag(weights) P`` for the ``(grid, dim)`` matrix ``P[j, n] = exp(2 pi i n w_j)``.

    Entry ``[n, l]`` is ``C[(l - n) mod N]``, ``C`` the unnormalized inverse
    FFT of the weights folded onto one period: ``w_N`` is ``w_0`` one period
    on, so its weight joins ``w_0``'s.
    """
    period = weights.size - 1
    folded = weights[:period].astype(complex)
    folded[0] += weights[period]
    index = np.arange(dim)
    return np.fft.ifft(folded, norm="forward")[np.subtract.outer(index, index).T % period]


def window_masses(amplitudes, grid_points: int, windows) -> np.ndarray:
    """Trapezoid mass of each state's position density inside each window.

    ``amplitudes`` is a sequence of momentum-basis states of one register
    (a list of vectors or a ``(states, dim)`` array) and ``windows`` a
    sequence of functions of the grid ``w`` of :func:`momentum_to_position`,
    each returning a 0/1 (or weight) array.  Entry ``[i, m]`` of the
    ``(states, windows)`` result equals ``np.trapezoid(window_m(w) *
    density_i, w)`` for the normalized density of state ``i``.  The
    trapezoid of a weighted density is the quadratic form ``a^* M a`` with
    ``M = P^* diag(c) P``, ``P[j, n] = exp(2 pi i n w_j)`` and ``c`` the
    trapezoid weights of the grid times the window, so each mass is a ratio
    of two such forms.  With ``N = grid_points - 1``, ``M[n, l] =
    C[(l - n) mod N]`` is Toeplitz, ``C`` the unnormalized length-``N``
    inverse FFT of ``c`` with ``c_N`` added to ``c_0``, so ``P`` itself is
    never formed.  The ``dim x dim`` forms are built once, and a state then
    costs O(dim**2) whatever ``grid_points``; the product of stacked states
    with the forms is built ``CHUNK_BYTES`` (of :mod:`aqtrain.engine`) at a
    time.
    """
    dim = len(amplitudes[0])
    w = np.linspace(0.0, 1.0, grid_points)
    gaps = np.diff(w) / 2.0
    trapezoid = np.zeros(grid_points)
    trapezoid[:-1] += gaps
    trapezoid[1:] += gaps
    # (dim, forms * dim): the normalizing form first, then one per window
    forms = np.concatenate(
        [_toeplitz_form(trapezoid, dim)]
        + [_toeplitz_form(trapezoid * window(w), dim) for window in windows],
        axis=1,
    )
    masses = np.empty((len(amplitudes), len(windows)))
    chunk = max(1, CHUNK_BYTES // (16 * forms.shape[1]))
    for first in range(0, len(amplitudes), chunk):
        block = np.asarray(amplitudes[first : first + chunk], dtype=complex)
        products = (block.conj() @ forms).reshape(len(block), len(windows) + 1, dim)
        values = np.einsum("kfd,kd->kf", products, block).real
        masses[first : first + chunk] = values[:, 1:] / values[:, :1]
    return masses


#: maximum tolerated relative density of a packet at the midpoint between
#: periodic images (see :func:`gaussian_packet`)
PACKET_OVERLAP_LIMIT = 1e-6


def gaussian_packet(center: float, width: float, truncation: MomentumTruncation) -> np.ndarray:
    """Momentum amplitudes of ``psi(w) ~ exp(-width * (w - center)**2)``.

    ``width`` is the exponent coefficient.  The harmonic ground state of a
    well has width sqrt(lambda * pi * m) at the false minimum of the quartic
    of strength ``lambda``, and 2 * pi * sqrt(m) in a cosine minimum.  The
    packet must be narrow enough that its periodic images are negligible:
    the relative density ``exp(-width/2)`` half a period away from the
    center must not exceed ``PACKET_OVERLAP_LIMIT``.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    overlap = math.exp(-width / 2.0)
    if overlap > PACKET_OVERLAP_LIMIT:
        raise ValueError(
            f"packet too wide: periodic-image overlap {overlap:.2e} above {PACKET_OVERLAP_LIMIT}"
        )
    modes = truncation.modes
    # Fourier transform of the narrow Gaussian, extending the range to the line
    amplitudes = np.exp(-2j * math.pi * modes * center) * np.exp(
        -(math.pi**2) * modes**2 / width
    )
    return amplitudes / np.linalg.norm(amplitudes)


def mass_scaling_exponent(masses, peaks) -> float:
    """Least-squares exponent of the model ``peak = mass**alpha``.

    For the cosine well the harmonic approximation predicts a peak density
    of exactly ``m**0.25`` — with both wells normalized to carry half the
    probability the prefactor is 1, so the model deliberately has no free
    prefactor and ``alpha = sum(ln m * ln p) / sum(ln m ** 2)``.  Peaks
    approach the harmonic law from below as the mass grows (anharmonic
    corrections fall off like ``1/sqrt(m)``), so a two-parameter fit over
    small masses would overshoot the asymptotic exponent; anchoring the
    prefactor measures agreement with the harmonic form itself.
    """
    masses = np.asarray(masses, dtype=float)
    peaks = np.asarray(peaks, dtype=float)
    if masses.shape != peaks.shape or masses.size < 2:
        raise ValueError("need matching mass/peak arrays with at least two points")
    if np.any(masses <= 0) or np.any(peaks <= 0):
        raise ValueError("masses and peaks must be positive")
    log_m = np.log(masses)
    log_p = np.log(peaks)
    return float(np.dot(log_m, log_p) / np.dot(log_m, log_m))


def ground_state(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian matrix.

    The eigenvector phase is fixed so its largest-magnitude component is
    real and positive.
    """
    energies, vectors = np.linalg.eigh(self_adjoint(matrix))
    vec = vectors[:, 0].astype(complex)
    pivot = int(np.argmax(np.abs(vec)))
    phase = vec[pivot] / abs(vec[pivot])
    return float(energies[0]), vec / phase
