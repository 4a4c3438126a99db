"""Classification verdicts for pairs of projectivized rank-two bundles.

Every verdict is three-valued.  Yes and No are backed by a decision rule
named in the reason tag; Unknown marks the questions the underlying theory
leaves open, and must never be returned where a rule decides.  The tags form
a closed enumeration (REASON_*) so that downstream tooling can dispatch on
them; the README lists the rule behind each tag.

Decision rules in play:

  - weak equivalence of the projectivizations is equivalent to the Chern
    pairs lying in one twist orbit;
  - homotopy equivalence, diffeomorphism and deformation equivalence of the
    projectivizations each biject with weak equivalence, so all four carry
    one verdict;
  - if the discriminant is a nonnegative perfect square, the bundle twists
    into one with vanishing second Chern class, is therefore concordant to a
    split bundle, and weakly equivalent projectivizations become h-cobordant;
  - bundles deform into each other inside a family exactly when their Chern
    pairs coincide;
  - two distinct types above the uniqueness bound can never be directly
    h-cobordant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chern import ChernPair
from .errors import ConsistencyError, DomainError
from .orbits import discriminant, orbit_witness
from .ruled import unique_structure

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

REASON_ORBIT = "twist-orbit"
REASON_SPLIT_DEFORMABLE = "split-deformable"
REASON_WEAK_OBSTRUCTION = "weak-obstruction"
REASON_OPEN_HCOB = "open-h-cobordism"
REASON_SPLIT_CONCORDANCE = "split-concordance"
REASON_OPEN_CONCORDANCE = "open-concordance"
REASON_CHERN_EQUALITY = "chern-equality"
REASON_IDENTICAL_PAIR = "identical-pair"
REASON_TYPE_OBSTRUCTION = "type-obstruction"
REASON_NO_TYPE_OBSTRUCTION = "no-type-obstruction"

REASON_TAGS = (
    REASON_ORBIT,
    REASON_SPLIT_DEFORMABLE,
    REASON_WEAK_OBSTRUCTION,
    REASON_OPEN_HCOB,
    REASON_SPLIT_CONCORDANCE,
    REASON_OPEN_CONCORDANCE,
    REASON_CHERN_EQUALITY,
    REASON_IDENTICAL_PAIR,
    REASON_TYPE_OBSTRUCTION,
    REASON_NO_TYPE_OBSTRUCTION,
)


@dataclass(frozen=True)
class Verdict:
    """Three-valued answer with a machine-readable reason tag.

    The optional witness is the integer payload of a Yes: the twist l for
    orbit statements, the root d for split statements.
    """

    value: str
    reason: str
    witness: int | None = None

    def __post_init__(self):
        if self.value not in (YES, NO, UNKNOWN):
            raise DomainError(f"verdict value must be yes/no/unknown, got {self.value!r}")
        if self.reason not in REASON_TAGS:
            raise DomainError(f"unknown reason tag {self.reason!r}")

    def to_json(self) -> dict:
        return {"value": self.value, "reason": self.reason, "witness": self.witness}


def weak_equivalent(p: ChernPair, q: ChernPair) -> Verdict:
    """Weak equivalence of the projectivizations: decided, never Unknown.

    Yes exactly when the pairs lie in one twist orbit, that is when a
    connecting twist exists; that unique twist is the witness.
    """
    l = orbit_witness(p, q)
    if l is None:
        return Verdict(NO, REASON_ORBIT)
    return Verdict(YES, REASON_ORBIT, l)


def split_twist(p: ChernPair):
    """An integer d with twist(p, -d) of vanishing second Chern class.

    Exists exactly when the discriminant is a nonnegative perfect square;
    the parity needed for integrality is automatic because the discriminant
    is congruent to c1^2 mod 4, and is asserted rather than assumed.  The
    least nonnegative root is preferred; when both roots are negative (c1
    negative with c2 positive) the one closer to zero is returned, since
    twisting works in either direction.
    """
    disc = discriminant(p)
    if disc < 0:
        return None
    s = math.isqrt(disc)
    if s * s != disc:
        return None
    if (p.c1 - s) % 2 != 0:
        raise ConsistencyError(f"square root of {disc} breaks the parity argument")
    lo = (p.c1 - s) // 2
    hi = (p.c1 + s) // 2
    return lo if lo >= 0 else hi


def deformable_to_split(p: ChernPair):
    """Least d >= 0 with d^2 - d*c1 + c2 = 0, or None if there is none.

    This is the literal root search the brute-force oracle replays; the
    twisted variant that also accepts negative roots is split_twist.
    """
    d = split_twist(p)
    if d is not None and d >= 0:
        return d
    return None


def concordance_to_split(p: ChernPair) -> Verdict:
    """Concordance of the bundle to a split bundle.

    Yes when some twist of the bundle has vanishing second Chern class,
    with that twist as witness.  Anything beyond this case is an open
    question, so the fallback is Unknown, not No.
    """
    d = split_twist(p)
    if d is None:
        return Verdict(UNKNOWN, REASON_OPEN_CONCORDANCE)
    return Verdict(YES, REASON_SPLIT_CONCORDANCE, d)


def h_cobordant(p: ChernPair, q: ChernPair) -> Verdict:
    """h-cobordism of the projectivizations.

    No when they are not weakly equivalent (a necessary condition).  Yes
    when they are and the discriminant admits a split twist: both spaces
    are then h-cobordant to the projectivization of the split bundle.  The
    remaining weakly equivalent pairs are open, hence Unknown.
    """
    weak = weak_equivalent(p, q)
    if weak.value == NO:
        return Verdict(NO, REASON_WEAK_OBSTRUCTION)
    d = split_twist(p)
    if d is None:
        return Verdict(UNKNOWN, REASON_OPEN_HCOB)
    return Verdict(YES, REASON_SPLIT_DEFORMABLE, d)


def deformation_equivalent_bundles(p: ChernPair, q: ChernPair) -> Verdict:
    """Whether the bundles deform into each other: Yes exactly when p = q.

    Twist-equivalent but distinct pairs genuinely fail this, which is what
    separates bundle-level deformation from the projectivized relations.
    """
    if p == q:
        return Verdict(YES, REASON_CHERN_EQUALITY, 0)
    return Verdict(NO, REASON_CHERN_EQUALITY)


@dataclass(frozen=True)
class RelationReport:
    """All six relations for one pair, in fixed display order."""

    a1_weak_equivalence: Verdict
    homotopy_equivalence: Verdict
    diffeomorphism: Verdict
    deformation_equivalence: Verdict
    a1_h_cobordism: Verdict
    a1_concordance_of_bundles: Verdict

    FIELDS = (
        "a1_weak_equivalence",
        "homotopy_equivalence",
        "diffeomorphism",
        "deformation_equivalence",
        "a1_h_cobordism",
        "a1_concordance_of_bundles",
    )

    def items(self):
        return [(name, getattr(self, name)) for name in self.FIELDS]

    def to_json(self) -> dict:
        return {name: verdict.to_json() for name, verdict in self.items()}


def complex_report(p: ChernPair, q: ChernPair) -> RelationReport:
    """Full relation report for a pair of Chern data.

    The four topological relations (weak equivalence, homotopy equivalence,
    diffeomorphism, deformation equivalence of the projectivizations) biject
    with each other, so they receive the identical verdict object.  Bundle
    concordance is Yes only for an identical pair; a cascade through the
    split case would add nothing for distinct pairs because an orbit
    witness of zero already forces equality.
    """
    weak = weak_equivalent(p, q)
    if p == q:
        concordance = Verdict(YES, REASON_IDENTICAL_PAIR, 0)
    else:
        concordance = Verdict(UNKNOWN, REASON_OPEN_CONCORDANCE)
    return RelationReport(
        a1_weak_equivalence=weak,
        homotopy_equivalence=weak,
        diffeomorphism=weak,
        deformation_equivalence=weak,
        a1_h_cobordism=h_cobordant(p, q),
        a1_concordance_of_bundles=concordance,
    )


def direct_hcob_type_obstruction(c1_norm: int, d0: int, d1: int) -> Verdict:
    """Obstruction to a direct h-cobordism between two splitting types.

    Yes when the types differ and both lie strictly above the uniqueness
    bound 3 + c1, so each space remembers its type.  Everything else is
    Unknown: equal types or small types carry no obstruction from this
    argument, which is not the same as the spaces being h-cobordant.
    """
    if unique_structure(c1_norm, d0) and unique_structure(c1_norm, d1) and d0 != d1:
        return Verdict(YES, REASON_TYPE_OBSTRUCTION)
    return Verdict(UNKNOWN, REASON_NO_TYPE_OBSTRUCTION)
