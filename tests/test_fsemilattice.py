"""Operator modules and the powered frame operator."""

import pytest

from tensalg.errors import FNotModuleHom, NonCommutativeBase
from tensalg.frames import FrameHom, validate_frame
from tensalg.fsemilattice import (construct_FJ, fj_apply_tuple, is_f_hom,
                                  is_lax_morphism, lift_hom_FJ,
                                  restrict_along_frame_hom,
                                  validate_fsemilattice)
from tensalg.generators import quantale_bool, self_module
from tensalg.lattice import validate_lattice
from tensalg.quantale import validate_quantale
from tensalg.reference_example import (base_quantale, diamond_module,
                                       target_module, tense_operator)
from tensalg.vmodule import enumerate_module_homs

from crisp_reference import crisp_fj


def test_example_operator_validates():
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    assert H.apply(2) == 1             # F(b) = a
    assert H.apply(0) == 0


def test_rejects_non_hom_operator():
    q = base_quantale()
    A = diamond_module(q)
    with pytest.raises(FNotModuleHom):
        validate_fsemilattice(A, (1, 1, 1, 1, 1))   # does not preserve bottom


def endomap_quantale():
    """Join-preserving endomaps of the 3-chain under composition.

    The classic non-commutative unital quantale: pointwise order, unit the
    identity map.
    """
    maps = [(0, fm, f1) for fm in range(3) for f1 in range(3) if fm <= f1]
    labels = ["".join(str(v) for v in m) for m in maps]
    leq = [[1 if all(x <= y for x, y in zip(f, g)) else 0 for g in maps]
           for f in maps]
    lat = validate_lattice(labels, leq)
    tensor = [[maps.index(tuple(f[v] for v in g)) for g in maps]
              for f in maps]
    unit = maps.index((0, 1, 2))
    return validate_quantale(lat, tensor, unit, name="End3")


def test_noncommutative_base_is_a_valid_quantale():
    q = endomap_quantale()
    assert q.commutative is False


def test_fj_rejects_noncommutative_base():
    q = endomap_quantale()
    m = self_module(q)
    frame = validate_frame(q, ["p"], [[q.unit]])
    with pytest.raises(NonCommutativeBase):
        construct_FJ(m, frame)


def test_fj_matches_formula_on_example():
    q = base_quantale()
    A = diamond_module(q)
    frame = validate_frame(q, ["p", "q"], [[1, 0], [2, 1]])
    fsl = construct_FJ(A, frame)
    power = fsl.module
    assert power.n == 25
    lat = power.carrier
    for x in range(power.n):
        tup = lat.decode(x)
        by_formula = tuple(
            A.carrier.join(A.act(frame.r[i][k], tup[k]) for k in range(2))
            for i in range(2))
        assert lat.decode(fsl.F[x]) == by_formula
        assert fj_apply_tuple(A, frame, tup) == by_formula


def test_fj_crisp_is_relational_preimage():
    q = quantale_bool()
    m = self_module(q)
    R = [[1, 0, 1], [0, 0, 0], [1, 1, 1]]
    frame = validate_frame(q, ["s", "t", "u"], R)
    fsl = construct_FJ(m, frame)
    lat = fsl.module.carrier
    crisp = crisp_fj([[1, 1], [0, 1]], 2, R)
    for x in range(fsl.module.n):
        assert lat.decode(fsl.F[x]) == crisp[lat.decode(x)]


def test_lift_hom_is_strict():
    q = base_quantale()
    A = diamond_module(q)
    L = target_module(q)
    frame = validate_frame(q, ["p", "q"], [[1, 2], [0, 1]])
    fa = construct_FJ(A, frame)
    fl = construct_FJ(L, frame)
    for f in enumerate_module_homs(A, L):
        lifted = lift_hom_FJ(f, frame, fa, fl)
        assert is_f_hom(lifted, fa, fl)


def test_restriction_along_frame_hom_is_lax():
    q = base_quantale()
    L = target_module(q)
    j1 = validate_frame(q, ["p"], [[1]])
    j2 = validate_frame(q, ["s", "t"], [[1, 2], [0, 1]])
    t = FrameHom(j1, j2, (0,))
    f1 = construct_FJ(L, j1)
    f2 = construct_FJ(L, j2)
    restricted = restrict_along_frame_hom(t, L, f2, f1)
    assert is_lax_morphism(restricted, f2, f1)
    lat2 = f2.module.carrier
    lat1 = f1.module.carrier
    for x in range(f2.module.n):
        assert lat1.decode(restricted.values[x]) == (lat2.decode(x)[0],)
