"""Brute-force oracles that replay the closed-form decisions by search.

Every oracle here is deliberately naive: bounded enumeration and direct
substitution, no reuse of the closed-form arithmetic beyond integer
primitives and the shared value types.  Independence is the point; the
sweeps at the bottom run oracle and closed form side by side and count
disagreements, and the test suite freezes their outputs.

The one sanctioned exception is ring_iso_search, which multiplies out
candidate images inside the target ring via pb_mul, because the ring
product is exactly the structure an isomorphism must respect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chern import ChernPair
from .chow import PBRing, pb_mul
from .classify import deformable_to_split
from .cubic import BinaryCubicForm, UnimodularMatrix, picard_cubic, picard_discriminant
from .errors import ConsistencyError, DomainError
from .orbits import normalize, orbit_witness, same_orbit


@dataclass(frozen=True)
class SearchBound:
    """Enumeration radius for brute-force searches, at least 1."""

    b: int

    def __post_init__(self):
        if self.b < 1:
            raise DomainError(f"search bound must be >= 1, got {self.b}")


def orbit_oracle(p: ChernPair, q: ChernPair):
    """Twist witness found by scan, or None.

    Computes the unique candidate l = (q.c1 - p.c1) / 2 when integral and
    verifies twist(p, l) = q by direct substitution; additionally scans
    l in [-B, B] with B = |q.c1 - p.c1| + 2 to confirm uniqueness.
    """
    pc1, pc2 = p.c1, p.c2
    qc1, qc2 = q.c1, q.c2
    delta = qc1 - pc1
    candidate = None
    if delta % 2 == 0:
        l = delta // 2
        if pc1 + 2 * l == qc1 and pc2 + l * pc1 + l * l == qc2:
            candidate = l
    bound = abs(delta) + 2
    scanned = None
    for l in range(-bound, bound + 1):
        if pc1 + 2 * l == qc1 and pc2 + l * pc1 + l * l == qc2:
            if scanned is not None:
                raise ConsistencyError(f"two twist witnesses for {p} -> {q}")
            scanned = l
    if scanned != candidate:
        raise ConsistencyError(f"scan and candidate disagree for {p} -> {q}")
    return candidate


def _cubic_value(coeffs: tuple, x: int, y: int) -> int:
    a, b, c, d = coeffs
    return a * x**3 + b * x * x * y + c * x * y * y + d * y**3


def _composed_coeffs(coeffs: tuple, m00: int, m01: int, m10: int, m11: int) -> tuple:
    """Coefficients of f(m00*x + m01*y, m10*x + m11*y), expanded by hand."""
    a, b, c, d = coeffs
    return (
        _cubic_value(coeffs, m00, m10),
        3 * a * m00 * m00 * m01
        + b * (m00 * m00 * m11 + 2 * m00 * m01 * m10)
        + c * (2 * m00 * m10 * m11 + m01 * m10 * m10)
        + 3 * d * m10 * m10 * m11,
        3 * a * m00 * m01 * m01
        + b * (2 * m00 * m01 * m11 + m01 * m01 * m10)
        + c * (m00 * m11 * m11 + 2 * m01 * m10 * m11)
        + 3 * d * m10 * m11 * m11,
        _cubic_value(coeffs, m01, m11),
    )


def gl2z_form_search(f: BinaryCubicForm, g: BinaryCubicForm, bound: SearchBound):
    """First unimodular substitution carrying f onto g, or None.

    Entries are enumerated lexicographically over [-B, B]^4 and the first
    matrix m with f(m . (x, y)) = g(x, y) wins, which makes the witness
    deterministic.
    """
    b = bound.b
    span = range(-b, b + 1)
    fc = f.coeffs
    gc = g.coeffs
    for m00 in span:
        for m01 in span:
            for m10 in span:
                if _cubic_value(fc, m00, m10) != gc[0]:
                    continue
                for m11 in span:
                    if m00 * m11 - m01 * m10 not in (1, -1):
                        continue
                    if _composed_coeffs(fc, m00, m01, m10, m11) == gc:
                        return UnimodularMatrix(m00, m01, m10, m11)
    return None


def _phi_value(c1: int, c2: int, a: int, b: int) -> int:
    return 3 * a * a * b - 3 * c1 * a * b * b + (c1 * c1 - c2) * b**3


def ring_iso_search(p: ChernPair, q: ChernPair, bound: SearchBound):
    """First graded ring isomorphism candidate between the two rings, or None.

    Enumerates degree-one maps H -> m00*H' + m01*t', t -> m10*H' + m11*t'
    with entries in [-B, B], lexicographically.  A candidate is accepted
    when the degree-one matrix is unimodular, both defining relations of
    the source ring map to zero in the target ring (multiplied out via
    pb_mul) and the induced degree-two matrix is unimodular as well.  The
    vanishing of the image of H^3 is prescreened by the closed cubic form
    and then reverified inside the ring.
    """
    b = bound.b
    span = range(-b, b + 1)
    ring_q = PBRing(q)
    c1, c2 = p.c1, p.c2
    qc1, qc2 = q.c1, q.c2
    for m00 in span:
        for m01 in span:
            # (m00*H' + m01*t')^3 = Phi_q(m00, m01) * H'^2*t' must vanish
            if _phi_value(qc1, qc2, m00, m01) != 0:
                continue
            img_h = ring_q.element((0, m00, 0, m01, 0, 0))
            img_h2 = pb_mul(ring_q, img_h, img_h)
            if pb_mul(ring_q, img_h2, img_h).coeffs != (0, 0, 0, 0, 0, 0):
                raise ConsistencyError("cube prescreen disagrees with the ring product")
            for m10 in span:
                for m11 in span:
                    if m00 * m11 - m01 * m10 not in (1, -1):
                        continue
                    img_t = ring_q.element((0, m10, 0, m11, 0, 0))
                    img_ht = pb_mul(ring_q, img_h, img_t)
                    img_t2 = pb_mul(ring_q, img_t, img_t)
                    relation = tuple(
                        t2 + c1 * ht + c2 * h2
                        for t2, ht, h2 in zip(img_t2.coeffs, img_ht.coeffs, img_h2.coeffs)
                    )
                    if any(relation):
                        continue
                    det2 = (
                        img_h2.coeffs[2] * img_ht.coeffs[4]
                        - img_h2.coeffs[4] * img_ht.coeffs[2]
                    )
                    if det2 in (1, -1):
                        return UnimodularMatrix(m00, m01, m10, m11)
    return None


def integer_root_search(p: ChernPair, dmax: int) -> list:
    """All d in [0, dmax] with d^2 - d*c1 + c2 = 0, by direct evaluation.

    Any root divides c2 when c2 is nonzero and lies in {0, c1} otherwise,
    so dmax >= |c1| + |c2| + 1 already guarantees completeness.
    """
    if dmax < 0:
        raise DomainError(f"dmax must be >= 0, got {dmax}")
    c1, c2 = p.c1, p.c2
    return [d for d in range(dmax + 1) if d * d - d * c1 + c2 == 0]


def orbit_agreement_sweep(bound: int) -> tuple:
    """Compare same_orbit, normal forms and orbit_witness against orbit_oracle.

    Runs over all pairs of pairs with coordinates in [-bound, bound]; a pair
    counts as a mismatch when the invariant test or the equality of normal
    forms disagrees with the scan, or the witness differs from it.  Returns
    (pairs checked, mismatches).
    """
    span = range(-bound, bound + 1)
    pairs = [ChernPair(a, b) for a in span for b in span]
    reps = {p: normalize(p).rep for p in pairs}
    checked = 0
    mismatches = 0
    for p in pairs:
        for q in pairs:
            checked += 1
            scanned = orbit_oracle(p, q)
            found = scanned is not None
            if same_orbit(p, q) != found or (reps[p] == reps[q]) != found:
                mismatches += 1
            elif orbit_witness(p, q) != scanned:
                mismatches += 1
    return checked, mismatches


def split_root_agreement_sweep(bound: int) -> tuple:
    """Compare deformable_to_split against integer_root_search.

    The closed form must return exactly the least root the scan finds, or
    None when the scan comes back empty.  Returns (pairs, mismatches).
    """
    span = range(-bound, bound + 1)
    checked = 0
    mismatches = 0
    for c1 in span:
        for c2 in span:
            p = ChernPair(c1, c2)
            roots = integer_root_search(p, abs(c1) + abs(c2) + 1)
            expected = roots[0] if roots else None
            checked += 1
            if deformable_to_split(p) != expected:
                mismatches += 1
    return checked, mismatches


def iso_equivalence_sweep(pair_bound: int, search_bound: int) -> tuple:
    """Three-way agreement of ring search, form search and the discriminant.

    For every pair of Chern pairs with coordinates in [-pair_bound,
    pair_bound], a ring isomorphism witness and a cubic-form substitution
    witness must exist exactly when the discriminants agree, which in turn
    must match the orbit test (equal discriminants force equal parity of c1
    because the discriminant is c1^2 mod 4).  Returns (pairs, mismatches).
    """
    span = range(-pair_bound, pair_bound + 1)
    pairs = [ChernPair(a, b) for a in span for b in span]
    forms = {p: picard_cubic(p) for p in pairs}
    discs = {p: picard_discriminant(p) for p in pairs}
    bound = SearchBound(search_bound)
    checked = 0
    mismatches = 0
    for p in pairs:
        for q in pairs:
            checked += 1
            expected = discs[p] == discs[q]
            if expected != same_orbit(p, q):
                mismatches += 1
                continue
            ring_hit = ring_iso_search(p, q, bound) is not None
            form_hit = gl2z_form_search(forms[p], forms[q], bound) is not None
            if ring_hit != expected or form_hit != expected:
                mismatches += 1
    return checked, mismatches
