"""The three constructions and their action on morphisms."""

import pytest

from tensalg.errors import (BudgetExceeded, FNotModuleHom,
                            GDoesNotRespectX)
from tensalg.frames import FrameHom, validate_frame
from tensalg.fsemilattice import validate_fsemilattice
from tensalg.functors import (delta_tuple, forward_map, forward_tuple,
                              hom_frame, hom_frame_contravariant,
                              hom_frame_covariant, tensor, tensor_frame_hom,
                              tensor_lax_hom, tensor_pairs)
from tensalg.generators import quantale_bool, self_module
from tensalg.nucleus import is_nucleus
from tensalg.reference_example import (base_quantale, diamond_module,
                                       target_module, tense_operator)
from tensalg.vmodule import (ModuleHom, enumerate_module_homs, is_module_hom,
                             power_module)


def bool_chain_fsl(f_values):
    q = quantale_bool()
    m = self_module(q)
    return q, m, validate_fsemilattice(m, f_values, name="H2")


def test_delta_and_smear():
    q = base_quantale()
    A = diamond_module(q)
    frame = validate_frame(q, ["p", "q"], [[1, 0], [2, 1]])
    assert delta_tuple(2, 0, 2, 1) == (0, 2)
    # pairs run over the join-irreducibles a, b, c of the diamond, and the
    # pair (x, i) for the k-th of them sits at k * |T| + i; with F = bottom
    # every delta is bottom, so the first components are the bare smears
    # of x = b
    assert A.carrier.join_irreducibles() == (1, 2, 3)
    pairs = tensor_pairs(A, frame.r, (0,) * A.n)
    assert len(pairs) == 6
    assert pairs[2] == ((2, 0), (0, 0))      # r(p,q)=0 kills q
    assert pairs[3] == ((4, 2), (0, 0))      # r(q,p)=1 lifts b to 1
    # with F(b) = a the smear is joined with the delta of a
    pairs = tensor_pairs(A, frame.r, tense_operator(A).F)
    assert pairs[2] == ((4, 0), (1, 0))
    assert pairs[3] == ((4, 4), (0, 1))


def test_tensor_identity_relation_keeps_power():
    """With the identity operator and the diagonal-unit relation every
    generating pair is trivial, so nothing collapses."""
    q, m, fsl = bool_chain_fsl((0, 1))
    frame = validate_frame(q, ["p", "q"], [[1, 0], [0, 1]])
    tm = tensor(frame, fsl)
    assert tm.quotient.n == tm.power.n == 4
    assert is_nucleus(tm.nucleus)


def test_tensor_collapsing_operator_gives_point():
    """A constant-bottom operator forces every tuple into the top class."""
    q, m, fsl = bool_chain_fsl((0, 0))
    frame = validate_frame(q, ["p", "q"], [[1, 0], [0, 1]])
    tm = tensor(frame, fsl)
    assert tm.quotient.n == 1


def test_tensor_forward_looking_relation():
    """r(p,q)=1 smears truth at p across to q, so a tuple true at p alone
    collapses with the all-true one and the fixed tuples are those with
    x(p) <= x(q)."""
    q, m, fsl = bool_chain_fsl((0, 1))
    frame = validate_frame(q, ["p", "q"], [[1, 1], [0, 1]])
    tm = tensor(frame, fsl)
    lat = tm.power.carrier
    fixed_tuples = sorted(lat.decode(x) for x in tm.fixed)
    assert fixed_tuples == [(0, 0), (0, 1), (1, 1)]
    proj = tm.projection.values
    assert proj[lat.encode((1, 0))] == proj[lat.encode((1, 1))]


def test_example_frame_tensor_collapses_fully():
    """The worked example's operator kills the atom a, and the demo frame's
    back edge then drags every tuple into one class."""
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    frame = validate_frame(q, ["p", "q"], [[1, 0], [2, 1]])
    tm = tensor(frame, H)
    assert tm.quotient.n == 1
    assert tm.power.n == 25


def test_hom_frame_matches_enumeration():
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    L = target_module(q)
    hf = hom_frame(H, L)
    assert hf.n == 3
    assert [h.values for h in hf.homs] == \
        [h.values for h in enumerate_module_homs(A, L)]
    assert hf.index_of((0, 0, 1, 1, 1)) == 1
    assert [hf.index_of(h.values) for h in hf.homs] == [0, 1, 2]
    with pytest.raises(KeyError, match="no point with value table"):
        hf.index_of((1, 1, 1, 1, 1))     # moves bottom, so not a hom
    # r(f8, f7) = top because f7 = f8 after F
    assert hf.frame.r[2][1] == 2
    assert hf.frame.r[0][0] == 2


def test_forward_map_fiber_joins():
    q, m, fsl = bool_chain_fsl((0, 1))
    j1 = validate_frame(q, ["p", "q"], [[1, 0], [0, 1]])
    j2 = validate_frame(q, ["z"], [[1]])
    t = FrameHom(j1, j2, (0, 0))
    p1 = power_module(m, 2)
    p2 = power_module(m, 1)
    fwd = forward_map(t, m, p1, p2)
    lat1, lat2 = p1.carrier, p2.carrier
    for x in range(p1.n):
        tup = lat1.decode(x)
        assert lat2.decode(fwd.values[x]) == (max(tup),)
        assert forward_tuple(t, m.carrier, tup) == (max(tup),)


def test_tensor_frame_hom_square():
    q, m, fsl = bool_chain_fsl((0, 1))
    j1 = validate_frame(q, ["p", "q"], [[1, 1], [0, 1]])
    j2 = validate_frame(q, ["z"], [[1]])
    t = FrameHom(j1, j2, (0, 0))
    tm1 = tensor(j1, fsl)
    tm2 = tensor(j2, fsl)
    th = tensor_frame_hom(t, fsl, tm1, tm2)
    assert is_module_hom(th, tm1.quotient, tm2.quotient)
    # the square is asserted inside the constructor; spot-check one value
    proj1, proj2 = tm1.projection.values, tm2.projection.values
    x = tm1.power.carrier.encode((1, 0))
    fwd = forward_map(t, m, tm1.power, tm2.power)
    assert th.values[proj1[x]] == proj2[fwd.values[x]]


def test_tensor_lax_hom_square():
    q, m, fsl = bool_chain_fsl((0, 1))
    fsl0 = validate_fsemilattice(m, (0, 0), name="H0")
    frame = validate_frame(q, ["p", "q"], [[1, 1], [0, 1]])
    # identity values are lax from the identity operator into const-bottom
    f = ModuleHom(m, m, (0, 1))
    tm1 = tensor(frame, fsl)
    tm2 = tensor(frame, fsl0)
    th = tensor_lax_hom(frame, f, tm1, tm2)
    assert is_module_hom(th, tm1.quotient, tm2.quotient)
    assert tm2.quotient.n == 1          # target fully collapses


def test_hom_frame_functorial_maps():
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    L = target_module(q)
    hf = hom_frame(H, L)

    # covariant: post-compose with the identity on L
    ident = ModuleHom(L, L, (0, 1))
    cov = hom_frame_covariant(hf, ident, hf)
    assert cov.mapping == (0, 1, 2)

    # contravariant: pre-compose with a lax endomorphism of H
    f = ModuleHom(A, A, tuple(H.F))     # F itself is lax H -> H
    con = hom_frame_contravariant(f, hf, hf)
    for idx, alpha in enumerate(hf.homs):
        composite = tuple(alpha.values[f.values[y]] for y in range(A.n))
        assert hf.homs[con.mapping[idx]].values == composite


def test_hom_frame_budget():
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    L = target_module(q)
    with pytest.raises(BudgetExceeded):
        hom_frame(H, L, budget=1)


def test_factor_rejects_a_map_not_constant_on_classes():
    """Over the frame [[1,1],[0,1]] with F = id, the pair at (1, p) is
    ((1, 1), (1, 0)), so (1, 0) and the top collapse: four power elements,
    three classes.  The identity of the power separates them, and the
    square breaks at (1, 0), power element 2, the one non-fixed point."""
    q, m, fsl = bool_chain_fsl((0, 1))
    frame = validate_frame(q, ["p", "q"], [[1, 1], [0, 1]])
    tm = tensor(frame, fsl)
    assert (tm.power.n, tm.quotient.n) == (4, 3)
    with pytest.raises(GDoesNotRespectX) as info:
        tm.factor(range(tm.power.n), tm.power, "identity")
    assert info.value.witness == 2
    assert 2 not in tm.fixed


def test_factor_rejects_a_class_map_that_moves_bottom():
    """Constant on classes, so the square holds, but bottom goes to top."""
    q, m, fsl = bool_chain_fsl((0, 1))
    frame = validate_frame(q, ["p", "q"], [[1, 1], [0, 1]])
    tm = tensor(frame, fsl)
    top = tm.quotient.carrier.top
    with pytest.raises(FNotModuleHom) as info:
        tm.factor([top] * tm.power.n, tm.quotient, "constant top")
    assert info.value.witness == (top,) * tm.quotient.n
    # the projection itself factors as the identity of the quotient
    ident = tm.factor(tm.projection.values, tm.quotient, "projection")
    assert ident.values == tuple(range(tm.quotient.n))
