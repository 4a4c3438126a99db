"""Twist orbits: normal forms, invariants, witnesses."""

import pytest
from hypothesis import given, strategies as st

from planebundles.chern import ChernPair, twist
from planebundles.orbits import discriminant, normalize, orbit_witness, same_orbit

pairs = st.builds(
    ChernPair,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
)


def test_normalize_example():
    nf = normalize(ChernPair(5, 6))
    assert nf.rep == ChernPair(-1, 0)
    assert nf.l_used == -3
    assert twist(ChernPair(5, 6), nf.l_used) == nf.rep


@given(pairs)
def test_normalize_lands_in_the_fundamental_domain(p):
    nf = normalize(p)
    assert nf.rep.c1 in (0, -1)
    assert twist(p, nf.l_used) == nf.rep
    assert discriminant(nf.rep) == discriminant(p)


@given(pairs)
def test_normalize_is_idempotent(p):
    nf = normalize(p)
    again = normalize(nf.rep)
    assert again.rep == nf.rep
    assert again.l_used == 0


def _orbit_key(p):
    return (p.c1 % 2, discriminant(p))


def test_same_orbit_matches_the_invariant_on_a_grid():
    grid = [ChernPair(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    for p in grid:
        for q in grid:
            assert same_orbit(p, q) == (_orbit_key(p) == _orbit_key(q))
            assert same_orbit(p, q) == (normalize(p).rep == normalize(q).rep)


def test_same_orbit_examples():
    assert same_orbit(ChernPair(0, 0), ChernPair(2, 1))
    assert same_orbit(ChernPair(-1, 0), ChernPair(5, 6))
    assert not same_orbit(ChernPair(0, 0), ChernPair(0, 1))
    assert not same_orbit(ChernPair(0, 0), ChernPair(1, 0))


def test_orbit_witness_examples():
    assert orbit_witness(ChernPair(0, 0), ChernPair(2, 1)) == 1
    assert orbit_witness(ChernPair(-1, 0), ChernPair(5, 6)) == 3
    assert orbit_witness(ChernPair(0, 0), ChernPair(0, 1)) is None
    assert orbit_witness(ChernPair(0, 0), ChernPair(1, 0)) is None


@given(pairs, st.integers(min_value=-25, max_value=25))
def test_orbit_witness_is_exact(p, l):
    q = twist(p, l)
    assert orbit_witness(p, q) == l
    assert orbit_witness(q, p) == -l


@given(pairs, pairs)
def test_orbit_witness_agrees_with_same_orbit(p, q):
    w = orbit_witness(p, q)
    if same_orbit(p, q):
        assert w is not None
        assert twist(p, w) == q
    else:
        assert w is None


def test_normal_forms_separate_orbits():
    reps = set()
    for a in range(-5, 6):
        for b in range(-5, 6):
            reps.add(normalize(ChernPair(a, b)).rep)
    keys = {_orbit_key(r) for r in reps}
    assert len(keys) == len(reps)
