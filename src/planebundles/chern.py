"""Chern-class bookkeeping for rank-two bundles on the projective plane.

A bundle enters every computation only through its Chern pair (c1, c2).
Twisting by the line bundle of degree l acts on pairs by

    l . (c1, c2) = (c1 + 2*l, c2 + l*c1 + l^2),

which is a group action of the integers; c1^2 - 4*c2 is invariant under it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .chow import P2Class, p2_mul, p2_unit_inverse
from .errors import ConsistencyError, DomainError


@dataclass(frozen=True)
class ChernPair:
    """Chern classes (c1, c2) of a rank-two bundle, as plain integers."""

    c1: int
    c2: int

    def __post_init__(self):
        for name in ("c1", "c2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")

    def __str__(self) -> str:
        return f"({self.c1},{self.c2})"

    def to_json(self) -> dict:
        return {"c1": self.c1, "c2": self.c2}

    @staticmethod
    def from_text(text: str) -> "ChernPair":
        """Parse the command-line form "c1,c2" (no whitespace)."""
        parts = text.split(",")
        if len(parts) != 2:
            raise DomainError(f"expected 'c1,c2', got {text!r}")
        try:
            return ChernPair(int(parts[0]), int(parts[1]))
        except ValueError:
            raise DomainError(f"expected 'c1,c2' with integer entries, got {text!r}") from None


def twist(p: ChernPair, l: int) -> ChernPair:
    """Chern pair of the bundle twisted by the degree-l line bundle."""
    return ChernPair(p.c1 + 2 * l, p.c2 + l * p.c1 + l * l)


def total_chern(p: ChernPair) -> P2Class:
    """Total Chern class 1 + c1*H + c2*H^2."""
    return P2Class((1, p.c1, p.c2))


def line_total(k: int) -> P2Class:
    """Total Chern class of the degree-k line bundle."""
    return P2Class((1, k, 0))


@dataclass(frozen=True)
class MonadSpec:
    """Data of the standard three-term monad for a bundle of type d.

    The monad has the degree-(c1 - d) line bundle as sub, the degree-d line
    bundle as quotient, and the direct sum of both with the bundle itself in
    the middle.  Its cohomology in the middle spot is again a rank-two
    bundle, and the Whitney formula forces the line-bundle factors to cancel
    from its total Chern class.
    """

    d: int
    bundle: ChernPair

    @property
    def c1_total(self) -> int:
        return self.bundle.c1

    @property
    def sub_degree(self) -> int:
        return self.c1_total - self.d

    @property
    def quot_degree(self) -> int:
        return self.d


def monad_cohomology_chern(m: MonadSpec) -> ChernPair:
    """Chern pair of the monad's middle cohomology.

    Computed as c(middle) * c(sub)^(-1) * c(quot)^(-1) in Z[H]/(H^3).  The
    result always equals the input pair; the test suite checks that
    cancellation on a grid rather than wiring it in here.
    """
    sub = line_total(m.sub_degree)
    quot = line_total(m.quot_degree)
    middle = p2_mul(p2_mul(sub, total_chern(m.bundle)), quot)
    total = p2_mul(p2_mul(middle, p2_unit_inverse(sub)), p2_unit_inverse(quot))
    a0, a1, a2 = total.coeffs
    if a0 != 1:
        raise ConsistencyError("monad cohomology total class lost its unit")
    return ChernPair(a1, a2)


def serre_length(p: ChernPair, n: int) -> int:
    """Length N^2 - N*c1 + c2 of the vanishing locus of a degree-N section.

    Equals the second Chern class after twisting by the degree -N line
    bundle, which the test suite checks.  A negative value cannot come
    from an actual section; it is still returned, with a warning attached.
    """
    value = n * n - n * p.c1 + p.c2
    if value < 0:
        warnings.warn(
            f"negative section length {value} for {p} at N={n}: "
            "no honest section produces this",
            stacklevel=2,
        )
    return value


def char_classes(p: ChernPair) -> tuple:
    """Second Stiefel-Whitney class (mod 2) and first Pontryagin number.

    Returns (w2, p1) with w2 = c1 mod 2 in {0, 1} and p1 = c1^2 - 2*c2.
    Together these recover the Chern pair up to the sign conventions used
    throughout, since c2 = (c1^2 - p1) / 2.
    """
    return (p.c1 % 2, p.c1 * p.c1 - 2 * p.c2)
