"""Ring arithmetic tests, checked against a naive term rewriter.

The rewriter below multiplies in Z[H, t] as raw monomial dictionaries and
then reduces with the two rewrite rules applied in either order.  It shares
no code with the closed-form multiplication, so agreement is evidence, not
tautology.
"""

import pytest
from hypothesis import given, strategies as st

from planebundles.chern import ChernPair
from planebundles.chow import (
    P2Class,
    PBRing,
    p2_mul,
    p2_unit_inverse,
    pb_mul,
    triple_self_product,
)
from planebundles.errors import DomainError, MixedRingError

coeff = st.integers(min_value=-1000, max_value=1000)
small = st.integers(min_value=-8, max_value=8)
triple = st.tuples(coeff, coeff, coeff)
sixtuple = st.tuples(coeff, coeff, coeff, coeff, coeff, coeff)


def _add(d, key, value):
    d[key] = d.get(key, 0) + value


def naive_mul(x, y):
    """Multiply two six-vectors as monomial dicts over (H^i * t^j)."""
    keys = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    out = {}
    for cx, (i1, j1) in zip(x, keys):
        for cy, (i2, j2) in zip(y, keys):
            if cx and cy:
                _add(out, (i1 + i2, j1 + j2), cx * cy)
    return out


def naive_reduce(c1, c2, monomials, order):
    """Reduce a monomial dict with the rewrite rules applied in a fixed order.

    "t-first" always eliminates t^2 before truncating H^3; "H-first" does the
    opposite.  Confluence means the final dictionaries agree.
    """
    work = {k: v for k, v in monomials.items() if v != 0}
    while True:
        target = None
        for key in sorted(work):
            i, j = key
            if order == "t-first" and j >= 2:
                target = ("t", key)
                break
            if i >= 3:
                target = ("H", key)
                break
            if j >= 2:
                target = ("t", key)
                break
        if target is None:
            return work
        kind, (i, j) = target
        value = work.pop((i, j))
        if kind == "t":
            _add(work, (i + 1, j - 1), -c1 * value)
            _add(work, (i + 2, j - 2), -c2 * value)
        for key in [k for k, v in work.items() if v == 0]:
            del work[key]


def naive_six(c1, c2, x, y, order):
    reduced = naive_reduce(c1, c2, naive_mul(x, y), order)
    keys = ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1))
    assert set(reduced) <= set(keys)
    return tuple(reduced.get(k, 0) for k in keys)


def test_p2_mul_line_bundles():
    x = P2Class((1, -3, 0))
    y = P2Class((1, 3, 0))
    assert p2_mul(x, y).coeffs == (1, 0, -9)


def test_p2_mul_truncates_top_degree():
    assert p2_mul(P2Class((0, 1, 0)), P2Class((0, 0, 1))).coeffs == (0, 0, 0)
    assert p2_mul(P2Class((0, 0, 1)), P2Class((0, 0, 1))).coeffs == (0, 0, 0)


def test_p2_class_validation():
    with pytest.raises(DomainError):
        P2Class((1, 2))
    with pytest.raises(DomainError):
        P2Class((1, 2, "3"))


@given(triple, triple)
def test_p2_mul_commutative(a, b):
    assert p2_mul(P2Class(a), P2Class(b)) == p2_mul(P2Class(b), P2Class(a))


@given(triple, triple, triple)
def test_p2_mul_associative_and_distributive(a, b, c):
    x, y, z = P2Class(a), P2Class(b), P2Class(c)
    assert p2_mul(p2_mul(x, y), z) == p2_mul(x, p2_mul(y, z))
    assert p2_mul(x, y + z) == p2_mul(x, y) + p2_mul(x, z)


def test_p2_unit_inverse_examples():
    assert p2_unit_inverse(P2Class((1, 1, 0))).coeffs == (1, -1, 1)
    assert p2_unit_inverse(P2Class((1, 0, -9))).coeffs == (1, 0, 9)


@given(st.sampled_from([1, -1]), coeff, coeff)
def test_p2_unit_inverse_is_two_sided(a0, a1, a2):
    x = P2Class((a0, a1, a2))
    inv = p2_unit_inverse(x)
    assert p2_mul(x, inv).coeffs == (1, 0, 0)
    assert p2_mul(inv, x).coeffs == (1, 0, 0)


def test_p2_unit_inverse_rejects_non_units():
    for a0 in (0, 2, -2, 9):
        with pytest.raises(DomainError):
            p2_unit_inverse(P2Class((a0, 1, 1)))


def test_tau_squared_rewrites():
    ring = PBRing(ChernPair(1, 1))
    tau = ring.tau
    assert pb_mul(ring, tau, tau).coeffs == (0, 0, -1, 0, -1, 0)


def test_degree_four_vanishes():
    ring = PBRing(ChernPair(0, 2))
    tau = ring.tau
    htau = ring.element((0, 0, 0, 0, 1, 0))
    assert pb_mul(ring, tau, htau).coeffs == (0, 0, 0, 0, 0, 0)


def test_one_is_identity():
    ring = PBRing(ChernPair(-3, 7))
    x = ring.element((5, -2, 9, 11, 0, -4))
    assert pb_mul(ring, ring.one, x) == x
    assert pb_mul(ring, x, ring.one) == x


def test_mixed_ring_product_rejected():
    a = PBRing(ChernPair(0, 0)).tau
    b = PBRing(ChernPair(0, 1)).tau
    with pytest.raises(MixedRingError):
        a * b
    with pytest.raises(MixedRingError):
        a + b


@given(small, small, sixtuple, sixtuple)
def test_pb_mul_commutative(c1, c2, a, b):
    ring = PBRing(ChernPair(c1, c2))
    x, y = ring.element(a), ring.element(b)
    assert pb_mul(ring, x, y) == pb_mul(ring, y, x)


@given(small, small, sixtuple, sixtuple, sixtuple)
def test_pb_mul_associative_and_distributive(c1, c2, a, b, c):
    ring = PBRing(ChernPair(c1, c2))
    x, y, z = ring.element(a), ring.element(b), ring.element(c)
    assert pb_mul(ring, pb_mul(ring, x, y), z) == pb_mul(ring, x, pb_mul(ring, y, z))
    assert pb_mul(ring, x, y + z) == pb_mul(ring, x, y) + pb_mul(ring, x, z)


@given(small, small, sixtuple, sixtuple)
def test_pb_mul_matches_naive_rewriter_in_both_orders(c1, c2, a, b):
    ring = PBRing(ChernPair(c1, c2))
    product = pb_mul(ring, ring.element(a), ring.element(b)).coeffs
    assert product == naive_six(c1, c2, a, b, "t-first")
    assert product == naive_six(c1, c2, a, b, "H-first")


def test_basis_products_close_over_the_basis():
    ring = PBRing(ChernPair(2, -3))
    degrees = (0, 1, 2, 1, 2, 3)
    for i in range(6):
        for j in range(6):
            e_i = ring.element(tuple(int(k == i) for k in range(6)))
            e_j = ring.element(tuple(int(k == j) for k in range(6)))
            product = pb_mul(ring, e_i, e_j)
            total = degrees[i] + degrees[j]
            if total > 3:
                assert product.coeffs == (0, 0, 0, 0, 0, 0)
            else:
                got = product.homogeneous_degree()
                assert got in (total, None)
                if got is None:
                    assert product.coeffs == (0, 0, 0, 0, 0, 0)


def test_homogeneous_degree_reports_mixed_classes():
    ring = PBRing(ChernPair(0, 0))
    assert ring.h.homogeneous_degree() == 1
    assert ring.tau.homogeneous_degree() == 1
    assert ring.element((1, 0, 0, 1, 0, 0)).homogeneous_degree() is None
    assert ring.zero.homogeneous_degree() is None


def test_triple_self_product_example():
    ring = PBRing(ChernPair(1, 1))
    assert triple_self_product(ring, 1, 1) == 0


def test_triple_self_product_small_grid():
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            ring = PBRing(ChernPair(c1, c2))
            for a in range(-3, 4):
                for b in range(-3, 4):
                    expected = 3 * a * a * b - 3 * c1 * a * b * b + (c1 * c1 - c2) * b**3
                    assert triple_self_product(ring, a, b) == expected
                    x = ring.element((0, a, 0, b, 0, 0))
                    assert (x * x * x).coeffs[:5] == (0, 0, 0, 0, 0)


def test_pb_class_json_shape():
    ring = PBRing(ChernPair(0, 2))
    payload = ring.element((1, 2, 3, 4, 5, 6)).to_json()
    assert payload == {
        "basis": ["1", "H", "H2", "tau", "Htau", "H2tau"],
        "coeffs": [1, 2, 3, 4, 5, 6],
    }
