"""Lattice validation, powers and join-preserving map enumeration."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensalg.errors import MissingJoin, NotAPartialOrder, SizeLimitExceeded
from tensalg.lattice import (FinLattice, enumerate_join_preserving_maps,
                             validate_lattice)

CHAIN2 = [[1, 1], [0, 1]]
CHAIN3 = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
DIAMOND = [
    [1, 1, 1, 1, 1],
    [0, 1, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]


def diamond():
    return validate_lattice(["0", "a", "b", "c", "1"], DIAMOND)


def test_chain_accepts():
    lat = validate_lattice(["0", "1"], CHAIN2)
    assert lat.bottom == 0 and lat.top == 1
    assert lat.join2(0, 1) == 1
    assert lat.meet([0, 1]) == 0


def test_diamond_structure():
    lat = diamond()
    assert lat.join2(1, 2) == 4          # incomparable atoms join to the top
    assert lat.meet([2, 3]) == 0
    assert lat.join([]) == lat.bottom
    assert lat.meet([]) == lat.top
    assert set(lat.join_irreducibles()) == {1, 2, 3}


def test_rejects_non_antisymmetric():
    bad = [[1, 1], [1, 1]]
    with pytest.raises(NotAPartialOrder):
        validate_lattice(["x", "y"], bad)


def test_rejects_missing_join():
    # two maximal elements: the pair {1, 2} has no upper bound at all
    bad = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(MissingJoin):
        validate_lattice(["0", "x", "y"], bad)


def test_rejects_poset_without_least_upper_bound():
    # 0 < a, b < c, d: a,b have upper bounds {c,d} but no least one
    bad = [
        [1, 1, 1, 1, 1, 1],
        [0, 1, 0, 1, 1, 1],
        [0, 0, 1, 1, 1, 1],
        [0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1],
    ]
    with pytest.raises(MissingJoin):
        validate_lattice(list("0abcd1"), bad)


def test_power_coordinatewise():
    base = validate_lattice(["0", "1"], CHAIN2)
    p = FinLattice.power(base, 2)
    assert p.n == 4
    assert p.decode(p.bottom) == (0, 0)
    assert p.decode(p.top) == (1, 1)
    x = p.encode((0, 1))
    y = p.encode((1, 0))
    assert p.decode(p.join2(x, y)) == (1, 1)
    assert p.decode(p.meet([x, y])) == (0, 0)
    assert not p.leq(x, y)
    assert p.labels[x] == "(0,1)"


def test_power_cap():
    base = diamond()
    with pytest.raises(SizeLimitExceeded):
        FinLattice.power(base, 9, cap=1000)


def test_diamond_to_chain_join_preserving_maps():
    """Sending exactly one atom high is not allowed: the other two atoms
    still join to the top, forcing the top both high and low.  What's left
    is the constant-bottom map, the three two-atom up-sets, and the map
    keeping only the bottom low."""
    maps = enumerate_join_preserving_maps(diamond(),
                                          validate_lattice(["0", "1"],
                                                           CHAIN2))
    got = sorted(tuple(m) for m in maps)
    assert got == sorted([
        (0, 0, 0, 0, 0),
        (0, 1, 1, 0, 1),
        (0, 1, 0, 1, 1),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 1, 1),
    ])


def _random_lattice_strategy():
    # a small pool of named shapes keeps the draw cheap and always valid
    return st.sampled_from([
        validate_lattice(["0", "1"], CHAIN2),
        validate_lattice(["0", "m", "1"], CHAIN3),
        diamond(),
        validate_lattice(["00", "01", "10", "11"],
                         [[1, 1, 1, 1], [0, 1, 0, 1],
                          [0, 0, 1, 1], [0, 0, 0, 1]]),
    ])


def _brute_force_join_maps(src, dst):
    slow = []
    for vec in product(range(dst.n), repeat=src.n):
        if vec[src.bottom] != dst.bottom:
            continue
        if all(vec[src.join2(a, b)] == dst.join2(vec[a], vec[b])
               for a in range(src.n) for b in range(src.n)):
            slow.append(vec)
    return sorted(slow)


@settings(max_examples=40, deadline=None)
@given(src=_random_lattice_strategy(), dst=_random_lattice_strategy())
def test_join_preserving_enumeration_matches_brute_force(src, dst):
    fast = sorted(tuple(m) for m in enumerate_join_preserving_maps(src, dst))
    assert fast == _brute_force_join_maps(src, dst)


def _table_lattice(leq):
    return validate_lattice([str(i) for i in range(len(leq))], leq)


@pytest.mark.parametrize("base,arity,dst", [
    (CHAIN3, 2, CHAIN2), (CHAIN2, 3, CHAIN3), (CHAIN3, 2, CHAIN3),
    (CHAIN2, 2, DIAMOND)],
    ids=["chain3^2-chain2", "chain2^3-chain3", "chain3^2-chain3",
         "chain2^2-diamond"])
def test_join_preserving_enumeration_on_power_source(base, arity, dst):
    """Power carriers take the generic path; its output is already sorted."""
    src = FinLattice.power(_table_lattice(base), arity)
    dst = _table_lattice(dst)
    fast = enumerate_join_preserving_maps(src, dst)
    assert fast == _brute_force_join_maps(src, dst)


@settings(max_examples=30, deadline=None)
@given(lat=_random_lattice_strategy(), data=st.data())
def test_join_is_least_upper_bound(lat, data):
    xs = data.draw(st.lists(st.integers(0, lat.n - 1), max_size=4))
    j = lat.join(xs)
    assert all(lat.leq(x, j) for x in xs)
    for u in range(lat.n):
        if all(lat.leq(x, u) for x in xs):
            assert lat.leq(j, u)
