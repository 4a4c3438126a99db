"""Dimension counts, expected-codimension bookkeeping, threshold scans."""

import pytest
from hypothesis import given, strategies as st

from planebundles.chern import ChernPair
from planebundles.errors import DomainError
from planebundles.moduli import (
    EMPTY,
    POINT,
    ModuliDim,
    binom2,
    codim_exceeds_dim,
    gamma,
    moduli_dim,
    non_cobordant_types,
    p_poly,
    q_values,
    q1,
    stromme_threshold,
)

normal_pairs = st.builds(
    ChernPair,
    st.sampled_from([0, -1]),
    st.integers(min_value=-10, max_value=10),
)


def test_q1_examples():
    assert q1(ChernPair(0, 0), 0) == 0
    assert q1(ChernPair(0, 1), 0) == 1
    assert q1(ChernPair(-1, 0), 2) == 6


def test_moduli_dim_trichotomy_examples():
    assert moduli_dim(ChernPair(0, 0), 0) == POINT
    assert moduli_dim(ChernPair(0, -1), 0) == EMPTY
    assert moduli_dim(ChernPair(0, 1), 0) == ModuliDim("dim", 2)
    assert moduli_dim(ChernPair(0, 3), 0) == ModuliDim("dim", 8)
    assert moduli_dim(ChernPair(0, 0), 3) == ModuliDim("dim", 26)


def test_moduli_dim_strings():
    assert str(POINT) == "Point"
    assert str(EMPTY) == "Empty"
    assert str(ModuliDim("dim", 2)) == "Dim(2)"
    assert POINT.to_json() == "point"
    assert EMPTY.to_json() == "empty"
    assert ModuliDim("dim", 2).to_json() == 2


def test_moduli_dim_validation():
    with pytest.raises(DomainError):
        ModuliDim("dim", -1)
    with pytest.raises(DomainError):
        ModuliDim("dim", 0)
    with pytest.raises(DomainError):
        ModuliDim("odd", 0)


@given(normal_pairs, st.integers(min_value=0, max_value=20))
def test_moduli_dim_tracks_q1(p, d):
    value = q1(p, d)
    got = moduli_dim(p, d)
    if value < 0:
        assert got == EMPTY
    elif value == 0:
        assert got == POINT
    else:
        assert got == ModuliDim("dim", 3 * value - 1)


def test_moduli_requires_normal_form():
    with pytest.raises(DomainError):
        moduli_dim(ChernPair(2, 1), 0)
    with pytest.raises(DomainError):
        q_values(ChernPair(1, 1), 3, 0)


def test_moduli_requires_nonnegative_degree():
    with pytest.raises(DomainError):
        moduli_dim(ChernPair(0, 0), -1)


def test_p_poly_examples():
    p = ChernPair(0, 0)
    assert p_poly(p, 0) == 2
    assert p_poly(p, 1) == 0
    assert p_poly(p, 2) == 0
    assert p_poly(p, 3) == 2


def test_gamma_examples():
    p = ChernPair(0, 0)
    assert gamma(p, 3, -1) == 2
    assert gamma(p, 3, 0) == 2
    assert gamma(p, 3, 1) == 3
    assert gamma(p, 3, 2) == 3


def test_gamma_special_branch_only_for_trivial_pair():
    trivial = ChernPair(0, 0)
    other = ChernPair(0, 1)
    assert gamma(trivial, 3, 0) == p_poly(trivial, 3)
    assert gamma(other, 3, 0) == p_poly(other, 3) - p_poly(other, 0) + 1


def test_gamma_preconditions():
    with pytest.raises(DomainError):
        gamma(ChernPair(0, 0), 3, 3)
    with pytest.raises(DomainError):
        gamma(ChernPair(0, 0), 3, -2)
    with pytest.raises(DomainError):
        gamma(ChernPair(0, 0), 2, 2)


def test_binom2_values():
    assert [binom2(n) for n in range(-2, 6)] == [0, 0, 0, 0, 1, 3, 6, 10]


def _as_tuple(v):
    return (v.q1, v.q2, v.q3, v.q4, v.q5)


def test_q_values_examples():
    p = ChernPair(0, 0)
    assert _as_tuple(q_values(p, 5, 1)) == (25, 74, 2, 61, 13)
    assert _as_tuple(q_values(p, 3, 0)) == (9, 26, 1, 24, 2)


def test_equality_component_condition():
    # the sign of Q3 says whether binom(d - e - 1, 2) >= e^2 - e*c1 + c2
    p = ChernPair(0, 0)
    assert (q_values(p, 5, 1).q3 >= 0) == (binom2(3) >= 1)
    assert q_values(p, 3, 1).q3 < 0


def test_q_values_printed_variant_differs():
    p = ChernPair(0, -3)
    default = q_values(p, 5, 1)
    printed = q_values(p, 5, 1, q3_as_printed=True)
    assert default.q3 == binom2(3) - (1 - 0 + -3)
    assert printed.q3 == binom2(3) - 1 - 0 + -3
    assert default.q3 != printed.q3
    assert (default.q1, default.q2, default.q4, default.q5) == (
        printed.q1, printed.q2, printed.q4, printed.q5)


def test_q_values_variants_agree_iff_cross_term_matches_c2():
    trivial = ChernPair(0, 0)
    assert q_values(trivial, 5, 1) == q_values(trivial, 5, 1, q3_as_printed=True)
    matched = ChernPair(-1, 1)
    assert q_values(matched, 5, -1) == q_values(matched, 5, -1, q3_as_printed=True)


def test_codim_exceeds_dim_example():
    assert codim_exceeds_dim(ChernPair(0, -8), 3, -1) is True
    assert codim_exceeds_dim(ChernPair(0, 0), 5, 1) is False


def _naive_condition(p, d):
    return q1(p, d) > 0 and all(gamma(p, d, e) > 0 for e in range(-1, d))


def _naive_threshold(p, limit=2000):
    for d in range(limit):
        if _naive_condition(p, d):
            return d
    raise AssertionError("threshold not found below limit")


def test_stromme_threshold_examples():
    assert stromme_threshold(ChernPair(0, 0)) == 3
    assert stromme_threshold(ChernPair(0, 1)) == 0
    assert stromme_threshold(ChernPair(-1, 0)) == 2


@given(normal_pairs)
def test_stromme_threshold_matches_naive_scan(p):
    assert stromme_threshold(p) == _naive_threshold(p)


@given(normal_pairs)
def test_threshold_is_minimal(p):
    d = stromme_threshold(p)
    assert q1(p, d) > 0
    assert all(gamma(p, d, e) > 0 for e in range(-1, d))
    for smaller in range(d):
        assert q1(p, smaller) <= 0 or any(
            gamma(p, smaller, e) <= 0 for e in range(-1, smaller))


def test_non_cobordant_types_examples():
    assert non_cobordant_types(ChernPair(0, 0), 3) == [4, 5, 6]
    assert non_cobordant_types(ChernPair(-1, 0), 2) == [3, 4]


def test_non_cobordant_types_requires_positive_count():
    with pytest.raises(DomainError):
        non_cobordant_types(ChernPair(0, 0), 0)


@given(normal_pairs, st.integers(min_value=1, max_value=4))
def test_non_cobordant_types_are_consecutive_and_verified(p, k):
    types = non_cobordant_types(p, k)
    assert len(types) == k
    assert types == list(range(types[0], types[0] + k))
    assert types[0] >= stromme_threshold(p)
    assert types[0] >= 4 + p.c1
    for d in types:
        assert q1(p, d) > 0
        assert all(gamma(p, d, e) > 0 for e in range(-1, d))


def test_threshold_condition_is_monotone_on_a_grid():
    # non_cobordant_types returns consecutive types without re-checking them
    for c1 in (0, -1):
        for c2 in range(-300, 301):
            p = ChernPair(c1, c2)
            assert _naive_condition(p, max(stromme_threshold(p), 4 + c1))
            holds = _naive_condition(p, 2)
            for d in range(2, 80):
                holds_next = _naive_condition(p, d + 1)
                assert holds_next or not holds, (p, d)
                holds = holds_next
