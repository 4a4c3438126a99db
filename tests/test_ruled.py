"""Ruled-surface invariants of the projectivization."""

import pytest
from hypothesis import given, strategies as st

from planebundles.errors import DomainError
from planebundles.ruled import (
    BETTI_PROFILE,
    betti_profile,
    fiber_anticanonical,
    generic_hirzebruch,
    neg_section_anticanonical,
    signed_hirzebruch,
    unique_structure,
)


def test_generic_hirzebruch_example():
    assert generic_hirzebruch(-1, 3) == 7
    assert signed_hirzebruch(-1, 3) == -7


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_hirzebruch_index_parity_matches_c1(c1, d):
    n = generic_hirzebruch(c1, d)
    assert n >= 0
    assert n % 2 == c1 % 2
    assert abs(signed_hirzebruch(c1, d)) == n


def test_neg_section_anticanonical_values():
    assert neg_section_anticanonical(0) == -1
    assert neg_section_anticanonical(3) == -4
    with pytest.raises(DomainError):
        neg_section_anticanonical(-1)


def test_fiber_anticanonical_is_two():
    assert fiber_anticanonical() == 2


def test_unique_structure_boundaries():
    assert unique_structure(0, 4) is True
    assert unique_structure(0, 3) is False
    assert unique_structure(-1, 3) is True
    assert unique_structure(-1, 2) is False
    with pytest.raises(DomainError):
        unique_structure(1, 5)
    with pytest.raises(DomainError):
        unique_structure(0, -1)


def test_betti_profile_shape():
    profile = betti_profile()
    assert profile == BETTI_PROFILE == (1, 0, 2, 0, 2, 0, 1)
    assert sum(profile) == 6
    assert profile == profile[::-1]


@given(st.integers(min_value=3, max_value=100), st.sampled_from([0, -1]))
def test_unbalanced_line_splittings_exceed_the_uniqueness_bound(a, c1):
    assert generic_hirzebruch(c1, a) > 4
