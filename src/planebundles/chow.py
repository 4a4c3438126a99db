"""Exact arithmetic in two truncated intersection rings.

The intersection ring of the projective plane is Z[H]/(H^3), free of rank
three over the monomials (1, H, H^2).  For the projectivization of a rank-two
bundle with Chern classes (c1, c2) the ring is

    Z[H, t] / (H^3, t^2 + c1*H*t + c2*H^2),

free of rank six over the ordered basis (1, H, H^2, t, H*t, H^2*t), where t
is the relative hyperplane class.  Products are reduced by substituting the
t^2 relation first and then truncating every H-power of degree three or more;
the two rewrite steps commute, which the test suite checks against a naive
term rewriter rather than assuming.

Coefficients are Python integers, hence arbitrary precision: overflow cannot
occur and no wraparound check is needed.  All values are immutable and the
operations are pure functions, so the module is safe under concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, MixedRingError

if TYPE_CHECKING:
    from .chern import ChernPair

P2_BASIS = ("1", "H", "H2")
PB_BASIS = ("1", "H", "H2", "tau", "Htau", "H2tau")
PB_DEGREES = (0, 1, 2, 1, 2, 3)


def _mul3(x: tuple, y: tuple) -> tuple:
    """Product of coefficient triples in Z[H]/(H^3)."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    return (x0 * y0, x0 * y1 + x1 * y0, x0 * y2 + x1 * y1 + x2 * y0)


def _mul6(c1: int, c2: int, x: tuple, y: tuple) -> tuple:
    """Product of coefficient six-vectors over (1, H, H^2, t, H*t, H^2*t).

    Write x = p(H) + q(H)*t.  Then

        x*y = p_x*p_y + (p_x*q_y + p_y*q_x)*t + q_x*q_y*t^2,

    and substituting t^2 = -c1*H*t - c2*H^2 followed by truncation at H^3
    lands the result back on the basis.  q_x*q_y is a polynomial in H alone,
    so a single substitution suffices; t^3 never arises.
    """
    x0, x1, x2, x3, x4, x5 = x
    y0, y1, y2, y3, y4, y5 = y
    r0 = x3 * y3
    r1 = x3 * y4 + x4 * y3
    return (
        x0 * y0,
        x0 * y1 + x1 * y0,
        x0 * y2 + x1 * y1 + x2 * y0 - c2 * r0,
        x0 * y3 + x3 * y0,
        x0 * y4 + x1 * y3 + x4 * y0 + x3 * y1 - c1 * r0,
        x0 * y5 + x1 * y4 + x2 * y3 + x5 * y0 + x4 * y1 + x3 * y2 - c1 * r1,
    )


def _as_int_tuple(coeffs, size: int) -> tuple:
    seq = tuple(coeffs)
    if len(seq) != size:
        raise DomainError(f"expected {size} coefficients, got {len(seq)}")
    for c in seq:
        if not isinstance(c, int) or isinstance(c, bool):
            raise DomainError(f"coefficients must be integers, got {c!r}")
    return seq


@dataclass(frozen=True)
class P2Class:
    """Element a0 + a1*H + a2*H^2 of Z[H]/(H^3)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_int_tuple(self.coeffs, 3))

    def __add__(self, other: "P2Class") -> "P2Class":
        return P2Class(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "P2Class") -> "P2Class":
        return P2Class(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "P2Class":
        return P2Class(tuple(-a for a in self.coeffs))

    def __mul__(self, other: "P2Class") -> "P2Class":
        return p2_mul(self, other)

    def homogeneous_degree(self):
        """Degree of a homogeneous class, or None if the class is mixed.

        The zero class counts as homogeneous of every degree; None is
        returned for it as well since no single degree is distinguished.
        """
        degrees = [i for i, c in enumerate(self.coeffs) if c != 0]
        if len(degrees) == 1:
            return degrees[0]
        return None


def p2_mul(x: P2Class, y: P2Class) -> P2Class:
    """Product in Z[H]/(H^3)."""
    return P2Class(_mul3(x.coeffs, y.coeffs))


def p2_unit_inverse(x: P2Class) -> P2Class:
    """Inverse of a unit a0 + a1*H + a2*H^2, in closed form.

    The constant coefficient must be +1 or -1.  Writing x = a0*(1 + u) with
    u of positive degree, the inverse is a0*(1 - u + u^2) because u^3
    truncates to zero; expanded, that is a0 - a1*H + (a0*a1^2 - a2)*H^2.
    """
    a0, a1, a2 = x.coeffs
    if a0 not in (1, -1):
        raise DomainError("not a unit: constant coefficient must be +1 or -1")
    return P2Class((a0, -a1, a0 * a1 * a1 - a2))


@dataclass(frozen=True)
class PBRing:
    """Intersection ring of the projectivization attached to a Chern pair.

    The pair fixes the rewrite rule t^2 = -c1*H*t - c2*H^2.  Classes built
    by different rings never mix, even when the underlying pairs agree in
    one coordinate.
    """

    chern: "ChernPair"

    @property
    def c1(self) -> int:
        return self.chern.c1

    @property
    def c2(self) -> int:
        return self.chern.c2

    def element(self, coeffs) -> "PBClass":
        return PBClass(_as_int_tuple(coeffs, 6), self)

    @property
    def zero(self) -> "PBClass":
        return self.element((0, 0, 0, 0, 0, 0))

    @property
    def one(self) -> "PBClass":
        return self.element((1, 0, 0, 0, 0, 0))

    @property
    def h(self) -> "PBClass":
        return self.element((0, 1, 0, 0, 0, 0))

    @property
    def tau(self) -> "PBClass":
        return self.element((0, 0, 0, 1, 0, 0))

    def presentation(self) -> str:
        """Human-readable presentation string, used by the command line."""
        rel = "t^2"
        for coeff, mon in ((self.c1, "H*t"), (self.c2, "H^2")):
            if coeff == 0:
                continue
            sign = " + " if coeff > 0 else " - "
            mag = abs(coeff)
            rel += sign + (mon if mag == 1 else f"{mag}*{mon}")
        return f"Z[H,t]/(H^3, {rel})"


@dataclass(frozen=True)
class PBClass:
    """Element of a PBRing over the basis (1, H, H^2, t, H*t, H^2*t).

    Build classes from outside input with PBRing.element, which validates
    the coefficients; the arithmetic below constructs its results directly.
    """

    coeffs: tuple
    ring: PBRing

    def _require_same_ring(self, other: "PBClass") -> None:
        if self.ring != other.ring:
            raise MixedRingError(
                "classes live in different rings: "
                f"{self.ring.chern} vs {other.ring.chern}"
            )

    def __add__(self, other: "PBClass") -> "PBClass":
        self._require_same_ring(other)
        return PBClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.ring)

    def __sub__(self, other: "PBClass") -> "PBClass":
        self._require_same_ring(other)
        return PBClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.ring)

    def __neg__(self) -> "PBClass":
        return PBClass(tuple(-a for a in self.coeffs), self.ring)

    def __mul__(self, other: "PBClass") -> "PBClass":
        return pb_mul(self.ring, self, other)

    def homogeneous_degree(self):
        """Degree of a homogeneous class, or None if mixed or zero."""
        degrees = {PB_DEGREES[i] for i, c in enumerate(self.coeffs) if c != 0}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def to_json(self) -> dict:
        return {"basis": list(PB_BASIS), "coeffs": list(self.coeffs)}


def pb_mul(ring: PBRing, x: PBClass, y: PBClass) -> PBClass:
    """Product in the ring of the projectivization."""
    if x.ring != ring or y.ring != ring:
        raise MixedRingError("operands do not belong to the given ring")
    return PBClass(_mul6(ring.c1, ring.c2, x.coeffs, y.coeffs), ring)


def triple_self_product(ring: PBRing, a: int, b: int) -> int:
    """Coefficient of H^2*t in (a*H + b*t)^3, computed through pb_mul.

    The cube of a degree-one class lies in the top degree, so this is its
    only nonzero coefficient.  It equals the closed cubic form
    3*a^2*b - 3*c1*a*b^2 + (c1^2 - c2)*b^3; the test suite and acceptance
    criterion 3 check both facts on a grid.
    """
    x = ring.element((0, a, 0, b, 0, 0))
    return pb_mul(ring, pb_mul(ring, x, x), x).coeffs[5]
