"""Integral binary cubic forms attached to Chern pairs.

The triple self-intersection of a divisor class a*H + b*t on the
projectivization is the value of the cubic form

    Phi(a, b) = 3*a^2*b - 3*c1*a*b^2 + (c1^2 - c2)*b^3,

so the form encodes the degree-three part of the intersection ring.  Its
classical discriminant and the twist-invariant c1^2 - 4*c2 differ exactly by
the factor -27; the chow command reconciles the two on every call and
acceptance criterion 2 checks the relation on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chern import ChernPair
from .errors import DomainError


@dataclass(frozen=True)
class BinaryCubicForm:
    """Form a*x^3 + b*x^2*y + c*x*y^2 + d*y^3 with integer coefficients."""

    a: int
    b: int
    c: int
    d: int

    @property
    def coeffs(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs), "vars": ["a", "b"]}

    def __str__(self) -> str:
        monomials = ("a^3", "a^2*b", "a*b^2", "b^3")
        parts = []
        for coeff, mon in zip(self.coeffs, monomials):
            if coeff == 0:
                continue
            mag = abs(coeff)
            term = mon if mag == 1 else f"{mag}*{mon}"
            if not parts:
                parts.append(term if coeff > 0 else f"-{term}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer 2x2 matrix with determinant +1 or -1."""

    m00: int
    m01: int
    m10: int
    m11: int

    def __post_init__(self):
        if self.det not in (1, -1):
            raise DomainError(f"matrix determinant {self.det} is not +1 or -1")

    @property
    def det(self) -> int:
        return self.m00 * self.m11 - self.m01 * self.m10

    @property
    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)

    def apply(self, x: int, y: int) -> tuple:
        """Image of the column vector (x, y)."""
        return (self.m00 * x + self.m01 * y, self.m10 * x + self.m11 * y)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.m00 * other.m00 + self.m01 * other.m10,
            self.m00 * other.m01 + self.m01 * other.m11,
            self.m10 * other.m00 + self.m11 * other.m10,
            self.m10 * other.m01 + self.m11 * other.m11,
        )

    @staticmethod
    def identity() -> "UnimodularMatrix":
        return UnimodularMatrix(1, 0, 0, 1)


def form_eval(f: BinaryCubicForm, x: int, y: int) -> int:
    """Value of the form at integer arguments."""
    return f.a * x**3 + f.b * x * x * y + f.c * x * y * y + f.d * y**3


def picard_cubic(p: ChernPair) -> BinaryCubicForm:
    """Cubic form of the triple self-intersection on divisor classes."""
    return BinaryCubicForm(0, 3, -3 * p.c1, p.c1 * p.c1 - p.c2)


def cubic_discriminant_standard(f: BinaryCubicForm) -> int:
    """Classical discriminant 18*a*b*c*d - 4*b^3*d + b^2*c^2 - 4*a*c^3 - 27*a^2*d^2."""
    a, b, c, d = f.coeffs
    return (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b * b * c * c
        - 4 * a * c**3
        - 27 * a * a * d * d
    )


def picard_discriminant(p: ChernPair) -> int:
    """Twist-invariant discriminant c1^2 - 4*c2 in the normalized scale.

    The classical discriminant of the attached cubic equals -27 times this
    value; the chow command, which prints both, reconciles them.
    """
    return p.c1 * p.c1 - 4 * p.c2


def _conv(p: tuple, q: tuple) -> tuple:
    """Coefficient convolution of two univariatized homogeneous polys."""
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return tuple(out)


def transform_form(f: BinaryCubicForm, g: UnimodularMatrix) -> BinaryCubicForm:
    """Right substitution action: the form (x, y) -> f(g . (x, y)).

    A binary form in (x, y) is recorded by its coefficients along descending
    powers of x, so substitution reduces to convolving the linear factors
    u = m00*x + m01*y and v = m10*x + m11*y.
    """
    u = (g.m00, g.m01)
    v = (g.m10, g.m11)
    u2 = _conv(u, u)
    v2 = _conv(v, v)
    terms = (
        (f.a, _conv(u2, u)),
        (f.b, _conv(u2, v)),
        (f.c, _conv(u, v2)),
        (f.d, _conv(v2, v)),
    )
    out = [0, 0, 0, 0]
    for coeff, mono in terms:
        for k in range(4):
            out[k] += coeff * mono[k]
    return BinaryCubicForm(*out)
