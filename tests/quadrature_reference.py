"""Quadrature oracle shared by the matrix-method and engine tests: the
Gauss-Legendre rule of ``numpy.polynomial.legendre.leggauss``, independent of
the package's closed-form Fourier coefficients and Bessel recurrence, and the
potentials' values it integrates."""

import functools
import math

import numpy as np

#: n and 2n nodes must agree this closely, or the rule has not converged
CONVERGENCE_TOL = 1e-13


@functools.cache
def _rule(nodes):
    return np.polynomial.legendre.leggauss(nodes)


def gauss_legendre(f, a, b, nodes=64):
    """``integral_a^b f(x) dx`` of a vectorized, possibly complex ``f`` by the
    ``2 * nodes``-point rule, checked against the ``nodes``-point one."""

    def rule(n):
        x, w = _rule(n)
        half = (b - a) / 2.0
        return half * np.dot(w, f(a + half * (x + 1.0)))

    coarse, fine = rule(nodes), rule(2 * nodes)
    if not abs(fine - coarse) <= CONVERGENCE_TOL:
        raise AssertionError(
            f"Gauss-Legendre rule on [{a}, {b}] not converged: {nodes} and {2 * nodes} "
            f"nodes differ by {abs(fine - coarse):.3g}"
        )
    return fine


def potential_value(potential, w):
    """``V(w) = p(w) + a * cos(4 pi w)`` of a ``matrix_method.Potential``,
    summed term by term from its polynomial."""
    w = np.asarray(w, dtype=float)
    value = potential.cosine * np.cos(4.0 * math.pi * w)
    for key, coeff in potential.poly.items():
        value = value + coeff * (w ** key[0][1] if key else 1.0)
    return value


def fourier_coefficient(potential, k):
    """``Vhat(k) = integral_0^1 V(w) exp(-2 pi i k w) dw`` by quadrature."""
    return gauss_legendre(lambda w: potential_value(potential, w) * np.exp(-2j * math.pi * k * w), 0.0, 1.0)
