"""Orbits of Chern pairs under the integer twist action.

Two pairs lie in the same orbit exactly when their first coordinates share a
parity and their discriminants c1^2 - 4*c2 agree.  Each orbit contains a
unique representative with c1 in {0, -1}, the normal form used everywhere
downstream.  The representative with c1 in {0, 1} would serve equally well;
the chosen convention is recorded in the JSON output so the two cannot be
confused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chern import ChernPair, twist
from .errors import ConsistencyError


@dataclass(frozen=True)
class NormalForm:
    """Canonical orbit representative together with the twist that reaches it."""

    rep: ChernPair
    l_used: int


def discriminant(p: ChernPair) -> int:
    """Twist-invariant discriminant c1^2 - 4*c2."""
    return p.c1 * p.c1 - 4 * p.c2


def normalize(p: ChernPair) -> NormalForm:
    """Twist p to the unique orbit representative with c1 in {0, -1}."""
    if p.c1 % 2 == 0:
        l = -(p.c1 // 2)
    else:
        l = (-1 - p.c1) // 2
    rep = twist(p, l)
    if rep.c1 not in (0, -1):
        raise ConsistencyError(f"normal form landed on c1 = {rep.c1}")
    return NormalForm(rep, l)


def same_orbit(p: ChernPair, q: ChernPair) -> bool:
    """Whether p and q lie in one orbit of the twist action.

    Decided by the complete invariant (parity of c1, discriminant).  The
    equivalent normal-form comparison is run against it by
    oracles.orbit_agreement_sweep and the test suite.
    """
    return (p.c1 - q.c1) % 2 == 0 and discriminant(p) == discriminant(q)


def orbit_witness(p: ChernPair, q: ChernPair):
    """The integer l with twist(p, l) = q, or None if no such l exists.

    The first coordinates force l = (q.c1 - p.c1) / 2, so the candidate is
    unique; it remains to check the second coordinate.
    """
    delta = q.c1 - p.c1
    if delta % 2 != 0:
        return None
    l = delta // 2
    if twist(p, l) == q:
        return l
    return None
