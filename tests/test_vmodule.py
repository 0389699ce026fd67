"""Modules, module residuation, powers and hom enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensalg.errors import (ActionNotJoinPreserving, BudgetExceeded,
                            SizeLimitExceeded, UnitActionFails)
from tensalg.generators import (hom_enumeration_cross_check, quantale_bool,
                                quantale_luk, quantale_pool, random_module,
                                self_module)
from tensalg.lattice import FinLattice, validate_lattice
from tensalg.reference_example import (base_quantale, diamond_module,
                                       target_module)
from tensalg.vmodule import (compose_module_homs, enumerate_module_homs,
                             identity_module_hom, is_module_hom,
                             module_residuate, power_module, validate_module)
import random


def setup_example():
    q = base_quantale()
    return q, diamond_module(q), target_module(q)


def test_example_modules_validate():
    q, A, L = setup_example()
    assert A.n == 5 and L.n == 2
    assert A.act(2, 2) == 4            # top scalar collapses b into 1
    assert L.act(1, 1) == 1


def test_quantale_acts_on_itself():
    for q in quantale_pool():
        m = self_module(q)
        assert m.n == q.n


def test_unit_must_act_as_identity():
    q = base_quantale()
    lat = validate_lattice(["0", "1"], [[1, 1], [0, 1]])
    bad = [[0, 0], [0, 0], [0, 0]]     # zero action: lawful except at the unit
    with pytest.raises(UnitActionFails):
        validate_module(q, lat, bad)


def test_action_must_preserve_joins():
    q = base_quantale()
    lat = validate_lattice(["0", "x", "1"],
                           [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    bad = [[0, 0, 1], [0, 1, 2], [0, 2, 2]]   # 0 * 1 = 1 breaks bottom
    with pytest.raises(ActionNotJoinPreserving):
        validate_module(q, lat, bad)


def test_module_residuation_frozen_tables():
    q, A, L = setup_example()
    # the target module's residuation collapses to a Boolean implication
    assert module_residuate(L, 1, 0) == 0
    assert module_residuate(L, 0, 1) == 2
    assert module_residuate(L, 1, 1) == 2
    assert module_residuate(L, 0, 0) == 2
    # the diamond's table over (0,a,b,c,1), values in (0,b,1)
    expected = [
        [2, 2, 2, 2, 2],
        [0, 2, 0, 0, 2],
        [0, 0, 1, 0, 2],
        [0, 0, 0, 1, 2],
        [0, 0, 0, 0, 2],
    ]
    got = [[module_residuate(A, a, b) for b in range(A.n)]
           for a in range(A.n)]
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from(quantale_pool()), data=st.data())
def test_module_residuation_galois(q, data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    A = random_module(rng, q, max_size=5)
    v = data.draw(st.integers(0, q.n - 1))
    a = data.draw(st.integers(0, A.n - 1))
    b = data.draw(st.integers(0, A.n - 1))
    r = module_residuate(A, a, b)
    assert A.carrier.leq(A.act(r, a), b)
    assert A.carrier.leq(A.act(v, a), b) == q.lattice.leq(v, r)


def test_power_module_of_example():
    q, A, _ = setup_example()
    p = power_module(A, 2)
    assert p.n == 25
    x = p.carrier.encode((1, 2))
    assert p.carrier.decode(p.act(2, x)) == (1, 4)
    with pytest.raises(SizeLimitExceeded):
        power_module(A, 9, cap=10_000)


def test_example_hom_enumeration():
    q, A, L = setup_example()
    homs = enumerate_module_homs(A, L)
    assert [h.values for h in homs] == [
        (0, 0, 0, 0, 0),
        (0, 0, 1, 1, 1),
        (0, 1, 1, 1, 1),
    ]


def test_f4_fails_equivariance():
    q, A, L = setup_example()
    f4 = (0, 1, 0, 0, 1)
    assert not is_module_hom(f4, A, L)
    # the witness: f(1*b) = f(1) = 1 but 1*f(b) = 1*0 = 0
    assert f4[A.act(2, 2)] != L.act(2, f4[2])


def test_hom_to_singleton():
    q, A, _ = setup_example()
    one = validate_module(q, validate_lattice(["*"], [[1]]),
                          [[0], [0], [0]])
    assert len(enumerate_module_homs(A, one)) == 1


def test_identity_and_composition():
    q, A, L = setup_example()
    ident = identity_module_hom(A)
    assert is_module_hom(ident)
    for h in enumerate_module_homs(A, L):
        assert compose_module_homs(h, ident).values == h.values


def test_power_source_enumeration_matches_brute_force():
    q, _, L = setup_example()
    p = power_module(L, 2)
    assert hom_enumeration_cross_check(p, L)
    assert hom_enumeration_cross_check(L, p)


def _power_oracle_pairs():
    """Each pool quantale against its square, both ways, where the brute
    force over |L|^|source| value vectors stays within 10^5; and bool2
    against its cube."""
    pairs = []
    for q in quantale_pool():
        A = self_module(q)
        P = power_module(A, 2)
        pairs += [(s, t) for s, t in ((P, A), (A, P)) if t.n ** s.n <= 10 ** 5]
    A = self_module(quantale_bool())
    P = power_module(A, 3)
    return pairs + [(P, A), (A, P)]


@pytest.mark.parametrize("source,target", _power_oracle_pairs(),
                         ids=lambda m: m.name)
def test_power_enumeration_matches_brute_force_over_pool(source, target):
    homs = [h.values for h in enumerate_module_homs(source, target)]
    assert homs == sorted(homs)
    assert hom_enumeration_cross_check(source, target)


def test_explicit_action_on_power_carrier_takes_generic_path():
    """A module on a power carrier with its own action table is not a power
    module, so enumeration must not assume a coordinatewise action."""
    q = quantale_bool()
    A = self_module(q)
    P = power_module(A, 2)
    M = validate_module(q, FinLattice.power(A.carrier, 2), P.action_rows())
    assert M.carrier.is_power and not M.is_power
    assert hom_enumeration_cross_check(M, A)
    assert hom_enumeration_cross_check(A, M)
    assert ([h.values for h in enumerate_module_homs(M, A)]
            == [h.values for h in enumerate_module_homs(P, A)])


def test_power_hom_budget_is_a_bound():
    """luk4 has 4 endomorphisms, found within a budget of 34 nodes; the
    64 tuples of a cube are refused before any is assembled."""
    A = self_module(quantale_luk(4))
    P = power_module(A, 3)
    for source, target in ((P, A), (A, P)):
        with pytest.raises(BudgetExceeded) as info:
            enumerate_module_homs(source, target, budget=63)
        assert info.value.witness == (4, 3)
        assert len(enumerate_module_homs(source, target, budget=64)) == 64
        with pytest.raises(BudgetExceeded):
            enumerate_module_homs(source, target, budget=10)


@settings(max_examples=25, deadline=None)
@given(q=st.sampled_from(quantale_pool()), seed=st.integers(0, 10_000))
def test_hom_enumeration_cross_check_random(q, seed):
    rng = random.Random(seed)
    A = random_module(rng, q, max_size=4)
    L = random_module(rng, q, max_size=4)
    assert hom_enumeration_cross_check(A, L)
