"""Modules equipped with a single unary operator that is itself a module
endomorphism.  Morphisms either commute with the operators exactly or
laxly (target operator first is below source operator first).
"""

from __future__ import annotations

from typing import Sequence

from .errors import FNotModuleHom, NonCommutativeBase, QuantaleMismatch
from .vmodule import ModuleHom, VModule, _hom_violation, is_module_hom, power_module
from .frames import FrameHom, VFrame


class FSemilattice:
    """A module with a join- and action-preserving unary operator F."""

    __slots__ = ("module", "F", "name")

    def __init__(self, module: VModule, F: Sequence[int], name: str = "H"):
        self.module = module
        self.F = tuple(F)
        self.name = name

    @property
    def quantale(self):
        return self.module.quantale

    @property
    def n(self) -> int:
        return self.module.n

    def apply(self, a: int) -> int:
        return self.F[a]

    def __repr__(self):
        return f"FSemilattice({self.name}, n={self.n})"


def validate_fsemilattice(module: VModule, F: Sequence[int],
                          name: str = "H") -> FSemilattice:
    """The operator must be a module endomorphism."""
    F = tuple(F)
    if len(F) != module.n or any(not (0 <= x < module.n) for x in F):
        raise FNotModuleHom("operator table has wrong shape", witness=(len(F),))
    violation = _hom_violation(F, module, module)
    if violation is not None:
        raise FNotModuleHom(
            f"operator is not a module endomorphism, first failure {violation}",
            witness=violation)
    return FSemilattice(module, F, name=name)


def is_f_hom(f, source: FSemilattice, target: FSemilattice) -> bool:
    """Module hom with H(f(a)) = f(F(a)) everywhere."""
    values = f.values if isinstance(f, ModuleHom) else tuple(f)
    if not is_module_hom(values, source.module, target.module):
        return False
    return all(target.F[values[a]] == values[source.F[a]]
               for a in range(source.n))


def is_lax_morphism(f, source: FSemilattice, target: FSemilattice) -> bool:
    """Module hom with H(f(a)) <= f(F(a)) everywhere."""
    values = f.values if isinstance(f, ModuleHom) else tuple(f)
    if not is_module_hom(values, source.module, target.module):
        return False
    lat = target.module.carrier
    return all(lat.leq(target.F[values[a]], values[source.F[a]])
               for a in range(source.n))


def construct_FJ(module: VModule, frame: VFrame, cap: int | None = None,
                 name: str | None = None) -> FSemilattice:
    """The operator module A^T with (F x)(i) = join_k r(i,k) * x(k).

    Requires a commutative base quantale; the construction is only a module
    endomorphism under that standing assumption.
    """
    if module.quantale is not frame.quantale:
        raise QuantaleMismatch(
            f"module {module.name} and frame {frame.name} disagree on the base",
            witness=(module.name, frame.name))
    if not module.quantale.commutative:
        raise NonCommutativeBase(
            f"base quantale {module.quantale.name} is not commutative",
            witness=module.quantale.name)
    power = power_module(module, frame.n, cap=cap,
                         name=name or f"{module.name}^{frame.name}")
    lat = power.carrier
    F = tuple(lat.encode(fj_apply_tuple(module, frame, lat.decode(x)))
              for x in range(power.n))
    sem = validate_fsemilattice(power, F, name=name or f"({module.name}^{frame.name})")
    return sem


def fj_apply_tuple(module: VModule, frame: VFrame,
                   x: Sequence[int]) -> tuple[int, ...]:
    """Pointwise form of the frame operator on a tuple over ``module``."""
    lat = module.carrier
    return tuple(lat.join(module.act(frame.r[i][k], x[k]) for k in range(frame.n))
                 for i in range(frame.n))


def lift_hom_FJ(f: ModuleHom, frame: VFrame, source_fj: FSemilattice,
                target_fj: FSemilattice) -> ModuleHom:
    """Componentwise application of ``f``, a strict morphism of the lifted
    operators."""
    plat_s = source_fj.module.carrier
    plat_t = target_fj.module.carrier
    values = tuple(plat_t.encode(tuple(f.values[c] for c in plat_s.decode(x)))
                   for x in range(plat_s.n))
    out = ModuleHom(source_fj.module, target_fj.module, values)
    if not is_f_hom(out, source_fj, target_fj):
        raise FNotModuleHom("componentwise lift failed to commute with the operators",
                            witness=(f.source.name, frame.name))
    return out


def restrict_along_frame_hom(t: FrameHom, module: VModule,
                             source_fj: FSemilattice,
                             target_fj: FSemilattice) -> ModuleHom:
    """Precomposition with a frame morphism: x goes to x after t.

    Contravariant: maps tuples over the target frame of ``t`` to tuples over
    its source frame.  Always a lax morphism of the lifted operators.
    """
    plat_s = source_fj.module.carrier
    plat_t = target_fj.module.carrier
    values = []
    for x in range(plat_s.n):
        tup = plat_s.decode(x)
        values.append(plat_t.encode(tuple(tup[t.mapping[i]]
                                          for i in range(t.source.n))))
    out = ModuleHom(source_fj.module, target_fj.module, tuple(values))
    if not is_lax_morphism(out, source_fj, target_fj):
        raise FNotModuleHom("precomposition is not lax; frame morphism invalid?",
                            witness=t.mapping)
    return out
