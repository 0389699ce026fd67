"""Constructions connecting frames, modules and operator modules.

Two object constructions live here: the tensor of a frame with an operator
module (a quotient of the power module by a generated nucleus) and the hom
frame (points are module homomorphisms, the relation measures how far each
point is from intertwining the operator).  Their four morphism actions and
the forward map along a frame map round out the picture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (FNotModuleHom, GDoesNotRespectX, NonCommutativeBase,
                     NotANucleus, QuantaleMismatch)
from .frames import FrameHom, VFrame, is_frame_hom, validate_frame
from .fsemilattice import FSemilattice
from .nucleus import EndoOperator, closure_of, prenucleus_from_pairs, quotient
from .vmodule import (ModuleHom, VModule, enumerate_module_homs,
                      is_module_hom, module_residuate, power_module)


# special elements ----------------------------------------------------------

def delta_tuple(arity: int, bottom: int, x: int, i: int) -> tuple[int, ...]:
    """x at position i, bottom elsewhere."""
    return tuple(x if j == i else bottom for j in range(arity))


# tensor --------------------------------------------------------------------

def tensor_pairs(module: VModule, r, F) -> list[tuple[tuple, tuple]]:
    """The generating pairs (smear(x,i) v delta(F x,i), delta(F x,i)),
    for join-irreducible x only.

    Works on raw tuples over ``module``, so the power never has to exist;
    ``r`` indexes the tuple positions and ``F`` is the operator table.
    Position k of smear(x,i) carries r(i,k) acting on x.

    The remaining x add nothing.  Write c(x), d(x) for the pair at (x, i).
    Both preserve joins in x, since the action and F do, and send bottom to
    bottom.  For any nucleus n collapsing the pairs at x and y,
    n(c(x v y)) = n(n c(x) v n c(y)) = n(n d(x) v n d(y)) = n(d(x v y)),
    and every x is the join of the join-irreducibles below it.  Scalar
    saturation commutes with these joins, so the pairs here generate the
    same nucleus as all of them, and a join-preserving map constant on
    their saturation is constant on the full saturated set.
    """
    arity = len(r)
    lat = module.carrier
    out = []
    for x in lat.join_irreducibles():
        for i in range(arity):
            dlt = delta_tuple(arity, lat.bottom, F[x], i)
            c = tuple(lat.join2(module.act(r[i][k], x), dlt[k])
                      for k in range(arity))
            out.append((c, dlt))
    return out


def tensor_pairs_encoded(power: VModule, frame: VFrame, fsl: FSemilattice
                         ) -> list[tuple[int, int]]:
    """The generating pairs of the tensor, encoded in the materialized power."""
    enc = power.carrier.encode
    return [(enc(c), enc(d))
            for c, d in tensor_pairs(fsl.module, frame.r, fsl.F)]


@dataclass(frozen=True)
class TensorModule:
    """A materialized tensor of a frame with an operator module."""
    frame: VFrame
    fsl: FSemilattice
    power: VModule
    nucleus: EndoOperator
    quotient: VModule
    # projection.values[y] is already the class of n(y) and n is idempotent,
    # so any power element is projected directly, with no nucleus lookup
    projection: ModuleHom
    fixed: tuple[int, ...]

    def factor(self, g, target: VModule, what: str) -> ModuleHom:
        """The unique map h out of the quotient with h(projection(x)) = g[x]
        for every power element x, where ``g`` is a value vector over the
        power into ``target``; ``what`` names the map in errors."""
        values = tuple(g[p] for p in self.fixed)
        proj = self.projection.values
        for x in range(self.power.n):
            if values[proj[x]] != g[x]:
                raise GDoesNotRespectX(
                    f"{what} square breaks at power element {x}", witness=x)
        if not is_module_hom(values, self.quotient, target):
            raise FNotModuleHom(f"{what} is not a module hom", witness=values)
        return ModuleHom(self.quotient, target, values)


def tensor(frame: VFrame, fsl: FSemilattice, cap: int | None = None,
           name: str | None = None) -> TensorModule:
    """Quotient the power module over the frame's points by the nucleus
    generated from the smear/delta pairs.

    The base quantale must be commutative; the generated nucleus on the
    power is closed under the action by commutativity.
    """
    q = fsl.quantale
    if frame.quantale is not q:
        raise QuantaleMismatch("frame and operator module share no quantale",
                               witness=(frame.name, fsl.name))
    if not q.commutative:
        raise NonCommutativeBase("tensor requires a commutative quantale",
                                 witness=q.name)
    name = name or f"{frame.name}(x){fsl.name}"
    power = power_module(fsl.module, frame.n, cap=cap,
                         name=f"{fsl.module.name}^{frame.n}")
    pairs = tensor_pairs_encoded(power, frame, fsl)
    # the tensor quotient lives in modules: the power host carries the
    # identity operator, so pair saturation only ranges over the action
    host = FSemilattice(power, tuple(range(power.n)), name=f"{name}/host")
    op, sat = prenucleus_from_pairs(host, pairs)
    nuc = closure_of(op)
    for c, d in pairs:
        if nuc.values[c] != nuc.values[d]:
            raise NotANucleus("nucleus fails to collapse a generating pair",
                              witness=(c, d))
    result = quotient(host, nuc)
    qmod = VModule(q, result.fsl.module.carrier, result.fsl.module.action_rows(),
                   name=name)
    proj = ModuleHom(power, qmod, result.surjection.values)
    return TensorModule(frame, fsl, power, nuc, qmod, proj, result.fixed)


# forward map ---------------------------------------------------------------

def forward_map(f: FrameHom, module: VModule,
                source_power: VModule, target_power: VModule) -> ModuleHom:
    """Push a tuple along a frame map: position k collects the join over
    its preimage fiber."""
    slat = source_power.carrier
    tlat = target_power.carrier
    values = tuple(
        tlat.encode(forward_tuple(f, module.carrier, slat.decode(enc)))
        for enc in range(slat.n))
    hom = ModuleHom(source_power, target_power, values)
    if not is_module_hom(hom, source_power, target_power):
        raise FNotModuleHom("forward map is not a module hom", witness=f.mapping)
    return hom


def forward_tuple(f: FrameHom, lat, tup: tuple) -> tuple:
    """Tuple-level forward map; ``lat`` supplies the join."""
    return tuple(lat.join(tup[i] for i in range(f.source.n)
                          if f.mapping[i] == k)
                 for k in range(f.target.n))


# morphism actions on tensors ----------------------------------------------

def tensor_frame_hom(t: FrameHom, fsl: FSemilattice,
                     source_t: TensorModule, target_t: TensorModule) -> ModuleHom:
    """The unique module map on quotients with n2 o forward = result o n1."""
    fwd = forward_map(t, fsl.module, source_t.power, target_t.power)
    proj2 = target_t.projection.values
    return source_t.factor([proj2[y] for y in fwd.values], target_t.quotient,
                           "tensor action")


def tensor_lax_hom(frame: VFrame, f: ModuleHom,
                   source_t: TensorModule, target_t: TensorModule) -> ModuleHom:
    """Same construction along a lax operator morphism, lifted pointwise."""
    slat = source_t.power.carrier
    tlat = target_t.power.carrier
    proj2 = target_t.projection.values
    g = [proj2[tlat.encode(tuple(f.values[a] for a in slat.decode(x)))]
         for x in range(slat.n)]
    return source_t.factor(g, target_t.quotient, "tensor lax action")


# hom frame -----------------------------------------------------------------

@dataclass(frozen=True)
class HomFrame:
    """The frame of module homomorphisms from an operator module's carrier."""
    fsl: FSemilattice
    target: VModule
    homs: tuple[ModuleHom, ...]
    frame: VFrame

    def __post_init__(self):
        object.__setattr__(self, "_index",
                           {h.values: k for k, h in enumerate(self.homs)})

    @property
    def n(self) -> int:
        return len(self.homs)

    def index_of(self, values: tuple[int, ...]) -> int:
        try:
            return self._index[values]
        except KeyError:
            raise KeyError(f"no point with value table {values}") from None


def hom_frame_relation(fsl: FSemilattice, target: VModule,
                       tables) -> list[list[int]]:
    """r(f, g) = meet over x of (g(x) -> f(F x)), for maps given by their
    value tables over the carrier of ``fsl``; row = first argument."""
    lat = fsl.quantale.lattice
    res = [[module_residuate(target, u, w) for w in range(target.n)]
           for u in range(target.n)]
    F = fsl.F
    return [[lat.meet(res[g[x]][f[F[x]]] for x in range(fsl.n))
             for g in tables]
            for f in tables]


def hom_frame(fsl: FSemilattice, target: VModule,
              budget: int | None = None, name: str | None = None) -> HomFrame:
    """Points are all module homs into the target, ordered by value table;
    the relation compares each point against its operator twist."""
    q = fsl.quantale
    if target.quantale is not q:
        raise QuantaleMismatch("operator module and target share no quantale",
                               witness=(fsl.name, target.name))
    if not q.commutative:
        raise NonCommutativeBase("hom frame requires a commutative quantale",
                                 witness=q.name)
    homs = tuple(enumerate_module_homs(fsl.module, target, budget=budget))
    r = hom_frame_relation(fsl, target, [h.values for h in homs])
    name = name or f"[{fsl.name},{target.name}]"
    frame = validate_frame(q, [f"h{k}" for k in range(len(homs))], r, name=name)
    return HomFrame(fsl, target, homs, frame)


def hom_frame_covariant(source_hf: HomFrame, g: ModuleHom,
                        target_hf: HomFrame) -> FrameHom:
    """Post-compose every point with a module map; always lands on a point."""
    return _induced_frame_map(source_hf, target_hf, lambda alpha: tuple(
        g.values[a] for a in alpha), "post-composition")


def hom_frame_contravariant(f: ModuleHom, source_hf: HomFrame,
                            target_hf: HomFrame) -> FrameHom:
    """Pre-compose every point with a lax operator morphism.

    f runs between the operator modules of target_hf and source_hf, so the
    induced frame map runs from source_hf's frame to target_hf's.
    """
    return _induced_frame_map(source_hf, target_hf, lambda alpha: tuple(
        alpha[y] for y in f.values), "pre-composition (map not lax?)")


def _induced_frame_map(source_hf: HomFrame, target_hf: HomFrame, compose,
                       what: str) -> FrameHom:
    """Send each point to the point whose value table is ``compose`` of its
    own, checked to be a frame morphism."""
    mapping = tuple(target_hf.index_of(compose(alpha.values))
                    for alpha in source_hf.homs)
    result = FrameHom(source_hf.frame, target_hf.frame, mapping)
    if not is_frame_hom(result, source_hf.frame, target_hf.frame):
        raise FNotModuleHom(f"{what} is not a frame morphism", witness=mapping)
    return result
