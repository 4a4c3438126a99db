"""Ruled-surface geometry of the projectivization over lines in the plane.

Restricting the bundle to a general line splits it as a sum of two line
bundles of degrees a and c1 - a, so the fiber of the projectivization over
that line is the Hirzebruch surface of index |2*a - c1|.  For a bundle of
type d the generic splitting gives index |c1 - 2*d|.
"""

from __future__ import annotations

from .errors import DomainError

BETTI_PROFILE = (1, 0, 2, 0, 2, 0, 1)


def signed_hirzebruch(c1: int, d: int) -> int:
    """Signed index c1 - 2*d of the fiber over a generic line at type d."""
    return c1 - 2 * d


def generic_hirzebruch(c1: int, d: int) -> int:
    """Hirzebruch index |c1 - 2*d| of the fiber over a generic line.

    The index has the same parity as c1, matching the splitting degrees.
    """
    return abs(signed_hirzebruch(c1, d))


def neg_section_anticanonical(b: int) -> int:
    """Anticanonical degree -b - 1 of the negative section of index b >= 0.

    Strictly negative for b > 0, which pins the section down inside the
    surface and makes the ruling there unique.
    """
    if b < 0:
        raise DomainError(f"Hirzebruch index must be >= 0, got {b}")
    return -b - 1


def fiber_anticanonical() -> int:
    """Anticanonical degree of any fiber of either ruling: always 2."""
    return 2


def unique_structure(c1_norm: int, d: int) -> bool:
    """Whether type d admits exactly one ruled structure, i.e. d > 3 + c1.

    Takes a normalized first Chern class, 0 or -1.
    """
    if c1_norm not in (0, -1):
        raise DomainError(f"c1 must be 0 or -1, got {c1_norm}")
    if d < 0:
        raise DomainError(f"type d must be nonnegative, got {d}")
    return d > 3 + c1_norm


def betti_profile() -> tuple:
    """Betti numbers b_0 through b_6 of the projectivization: (1,0,2,0,2,0,1)."""
    return BETTI_PROFILE
