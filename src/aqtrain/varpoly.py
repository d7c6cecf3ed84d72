"""Polynomials over named real variables.

These are the intermediate form between a symbolic objective (a network
loss, a potential on the unit interval) and its qubit Hamiltonian: build
and manipulate the polynomial here, then substitute a variable encoding
to obtain a Pauli polynomial.

A monomial is stored as a tuple of ``(name, exponent)`` pairs sorted by
name; coefficients are real and merged in double precision, with
magnitudes below ``DROP_TOLERANCE`` removed.
"""

from __future__ import annotations

import re
from typing import Mapping

from .encodings import EncodingTable, encode_variable
from .pauli import PauliPolynomial

DROP_TOLERANCE = 1e-12

MonomialKey = tuple[tuple[str, int], ...]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _canonical_key(powers) -> MonomialKey:
    if isinstance(powers, Mapping):
        powers = powers.items()
    merged: dict[str, int] = {}
    for name, exponent in powers:
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        if exponent == 0:
            continue
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        merged[name] = merged.get(name, 0) + exponent
    return tuple(sorted(merged.items()))


def _product_key(a: MonomialKey, b: MonomialKey) -> MonomialKey:
    """``_canonical_key(a + b)`` of two canonical keys, without re-validating them."""
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, exponent in b:
        merged[name] = merged.get(name, 0) + exponent
    return tuple(sorted(merged.items()))


class VarPolynomial:
    """Immutable-by-convention polynomial over named variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[MonomialKey, float] | None = None):
        self._terms: dict[MonomialKey, float] = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(_canonical_key(key), float(coeff))
            self._prune()

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "VarPolynomial":
        return cls()

    @classmethod
    def constant(cls, value: float) -> "VarPolynomial":
        poly = cls()
        poly._accumulate((), float(value))
        poly._prune()
        return poly

    @classmethod
    def variable(cls, name: str) -> "VarPolynomial":
        return cls({((name, 1),): 1.0})

    def _accumulate(self, key: MonomialKey, coeff: float):
        self._terms[key] = self._terms.get(key, 0.0) + coeff

    def _prune(self):
        dead = [k for k, v in self._terms.items() if abs(v) < DROP_TOLERANCE]
        for k in dead:
            del self._terms[k]

    # -- views ----------------------------------------------------------------

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0."""
        if not self._terms:
            return 0
        return max(sum(e for _, e in key) for key in self._terms)

    @property
    def variables(self) -> set[str]:
        return {name for key in self._terms for name, _ in key}

    def coefficient(self, powers) -> float:
        return self._terms.get(_canonical_key(powers), 0.0)

    def items(self):
        return sorted(self._terms.items())

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = VarPolynomial.constant(other)
        if not isinstance(other, VarPolynomial):
            return NotImplemented
        out = VarPolynomial()
        out._terms = dict(self._terms)
        for key, coeff in other._terms.items():
            out._accumulate(key, coeff)
        out._prune()
        return out

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = VarPolynomial.constant(other)
        if not isinstance(other, VarPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            out = VarPolynomial()
            out._terms = {k: v * other for k, v in self._terms.items()}
            out._prune()
            return out
        if not isinstance(other, VarPolynomial):
            return NotImplemented
        out = VarPolynomial()
        for ka, ca in self._terms.items():
            for kb, cb in other._terms.items():
                out._accumulate(_product_key(ka, kb), ca * cb)
        out._prune()
        return out

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def allclose(self, other: "VarPolynomial", tol: float = 1e-9) -> bool:
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tol for k in keys)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Exact numeric value; raises KeyError on a missing variable."""
        total = 0.0
        for key, coeff in self._terms.items():
            value = coeff
            for name, exponent in key:
                if name not in assignment:
                    raise KeyError(f"no value for variable {name!r}")
                value *= assignment[name] ** exponent
            total += value
        return total

    def substitute_encodings(self, table: EncodingTable) -> PauliPolynomial:
        """Replace each variable by its encoding operator and expand.

        Exponents collapse through the projector algebra (for single-qubit
        encodings, powers of the operator reduce automatically), so the
        result is always a diagonal Pauli polynomial.
        """
        n = table.total_qubits
        operators: dict[str, PauliPolynomial] = {}
        out = PauliPolynomial.zero(n)
        for key, coeff in self._terms.items():
            term = PauliPolynomial.identity(n, coeff)
            for name, exponent in key:
                if name not in table:
                    raise KeyError(f"no encoding for variable {name!r}")
                if name not in operators:
                    operators[name] = encode_variable(table[name], n)
                for _ in range(exponent):
                    term = term * operators[name]
            out = out + term
        return out

    # -- text form ----------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        out = []
        for position, (key, coeff) in enumerate(self.items()):
            if position == 0:
                head = f"{coeff:.12g}"
            else:
                head = f"{'-' if coeff < 0 else '+'} {abs(coeff):.12g}"
            factors = [head]
            for name, exponent in key:
                factors.append(name if exponent == 1 else f"{name}^{exponent}")
            out.append(" * ".join(factors))
        return " ".join(out)


_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")


def parse_polynomial(text: str) -> VarPolynomial:
    """Parse the textual form ``c * name^k * name^k + ...``.

    Terms are separated by ``+``/``-``; each factor is either a numeric
    literal or ``name`` / ``name^k``.  ``18*w^4 - 5*w + 0.37`` is valid.
    """
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial text")
    # split before each sign that does not belong to an exponent like 1e-3
    pieces = [p for p in re.split(r"(?<![eE])(?=[+-])", stripped) if p]
    poly = VarPolynomial.zero()
    for piece in pieces:
        sign = -1.0 if piece.startswith("-") else 1.0
        body = piece.lstrip("+-")
        if not body:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = sign
        powers: list[tuple[str, int]] = []
        for factor in body.split("*"):
            if not factor:
                raise ValueError(f"empty factor in term {piece!r}")
            match = _FACTOR_RE.match(factor)
            if match:
                powers.append((match.group(1), int(match.group(2) or 1)))
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ValueError(f"cannot parse factor {factor!r}") from None
        poly = poly + VarPolynomial({_canonical_key(powers): coeff})
    return poly
