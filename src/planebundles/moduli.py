"""Moduli-space numerology for stable bundles of normalized type.

Everything here is closed-form integer arithmetic in the Chern pair, the
type d of a would-be splitting and an auxiliary degree e.  The pair must be
in normal form (c1 in {0, -1}); callers holding an arbitrary pair normalize
first.

The central quantities, for P(x) = (x - 1)*(x - 2 - c1) - c2:

    Q1(d) = d^2 - d*c1 + c2        dimension control of the moduli space
    gamma(d; e)                    codimension count, case split on e
    binom(d - e - 1, 2) >= e^2 - e*c1 + c2
                                   when the equality locus can dominate

The printed form of Q3 in one source distributes a minus sign differently
from the inequality it abbreviates; the inequality reading is the default
here and the other one stays available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chern import ChernPair
from .errors import ConsistencyError, DomainError

SEARCH_LIMIT = 10**6


@dataclass(frozen=True)
class ModuliDim:
    """Dimension of a moduli space: empty, a single point, or dim n > 0."""

    kind: str
    dim: int = 0

    def __post_init__(self):
        if self.kind not in ("empty", "point", "dim"):
            raise DomainError(f"unknown moduli dimension kind {self.kind!r}")
        if self.kind == "dim" and self.dim <= 0:
            raise DomainError("positive-dimensional case requires dim > 0")

    def __str__(self) -> str:
        if self.kind == "dim":
            return f"Dim({self.dim})"
        return self.kind.capitalize()

    def to_json(self):
        return self.dim if self.kind == "dim" else self.kind


EMPTY = ModuliDim("empty")
POINT = ModuliDim("point")


@dataclass(frozen=True)
class QValues:
    """The five derived quantities for one choice of (d, e)."""

    q1: int
    q2: int
    q3: int
    q4: int
    q5: int


def _require_normal(p: ChernPair) -> None:
    if p.c1 not in (0, -1):
        raise DomainError(f"c1 must be 0 or -1, got {p.c1}: normalize the pair first")


def q1(p: ChernPair, d: int) -> int:
    """Q1(d) = d^2 - d*c1 + c2."""
    return d * d - d * p.c1 + p.c2


def moduli_dim(p: ChernPair, d: int) -> ModuliDim:
    """Dimension of the moduli space of stable bundles at type d.

    Empty when Q1 < 0, a point when Q1 = 0 and of dimension 3*Q1 - 1
    otherwise.  Requires a normalized pair and d >= 0.
    """
    _require_normal(p)
    if d < 0:
        raise DomainError(f"type d must be nonnegative, got {d}")
    value = q1(p, d)
    if value < 0:
        return EMPTY
    if value == 0:
        return POINT
    return ModuliDim("dim", 3 * value - 1)


def p_poly(p: ChernPair, x: int) -> int:
    """P(x) = (x - 1)*(x - 2 - c1) - c2."""
    return (x - 1) * (x - 2 - p.c1) - p.c2


def gamma(p: ChernPair, d: int, e: int) -> int:
    """Codimension count gamma(d; e) for d > e >= -1.

    Equals P(d) when e = -1 or when e and both Chern classes vanish, and
    P(d) - P(e) + 1 otherwise.
    """
    _require_normal(p)
    if not d > e >= -1:
        raise DomainError(f"need d > e >= -1, got d={d}, e={e}")
    if e == -1 or (e == 0 and p.c1 == 0 and p.c2 == 0):
        return p_poly(p, d)
    return p_poly(p, d) - p_poly(p, e) + 1


def binom2(n: int) -> int:
    """Binomial coefficient (n choose 2), zero below n = 2."""
    return n * (n - 1) // 2 if n >= 2 else 0


def q_values(p: ChernPair, d: int, e: int, q3_as_printed: bool = False) -> QValues:
    """All five derived quantities at (d, e).

    Q3 defaults to the inequality margin binom(d - e - 1, 2) minus
    e^2 - e*c1 + c2; with q3_as_printed the subtrahend's sign pattern
    follows the undistributed variant instead.
    """
    base = q1(p, d)
    g = gamma(p, d, e)
    if q3_as_printed:
        q3 = binom2(d - e - 1) - e * e - e * p.c1 + p.c2
    else:
        q3 = binom2(d - e - 1) - (e * e - e * p.c1 + p.c2)
    q2 = 3 * base - 1
    return QValues(base, q2, q3, q2 - g, g)


def codim_exceeds_dim(p: ChernPair, d: int, e: int) -> bool:
    """Report flag: the codimension count exceeds the moduli dimension.

    When Q1 > 0 and gamma(d; e) > 3*Q1 - 1 the stratum cannot fit; this is
    surfaced as a flag rather than an error because the inputs are legal.
    """
    base = q1(p, d)
    return base > 0 and gamma(p, d, e) > 3 * base - 1


def _threshold_condition(p: ChernPair, d: int) -> bool:
    return q1(p, d) > 0 and all(gamma(p, d, e) > 0 for e in range(-1, d))


def stromme_threshold(p: ChernPair) -> int:
    """Least type d >= 0 with Q1(d) > 0 and gamma(d; e) > 0 for all e < d.

    From this type on, no bundle in the moduli space deforms to one of
    smaller type.  The search is bounded; gamma grows quadratically in d, so
    hitting the bound would be an internal error, not a property of the
    input.
    """
    _require_normal(p)
    for d in range(SEARCH_LIMIT + 1):
        if _threshold_condition(p, d):
            return d
    raise ConsistencyError(f"threshold search exceeded {SEARCH_LIMIT} for {p}")


def non_cobordant_types(p: ChernPair, k: int) -> list:
    """The k consecutive types starting at max(threshold, 4 + c1).

    The lower bound 4 + c1 keeps every type strictly above 3 + c1, where
    the ruled structure on the projectivization is unique.  The threshold
    condition is monotone from d = 2 on: going from d to d + 1, Q1 grows,
    each gamma(d; e) with e < d grows by P(d + 1) - P(d) = 2*d - 2 - c1 > 0
    and the new gamma(d + 1; d) = 2*d - 1 - c1 is positive.  So every type
    satisfies the condition once the first does; the only threshold below
    2, that of (0, 1), still meets it at 4 + c1.  The test suite checks
    both facts on a grid.
    """
    if k < 1:
        raise DomainError(f"need at least one type, got k={k}")
    start = max(stromme_threshold(p), 4 + p.c1)
    return list(range(start, start + k))
