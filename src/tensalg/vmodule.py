"""Left modules over a quantale: complete lattices with a scalar action.

The action of a scalar ``v`` on a module element ``a`` is written ``act(v, a)``.
Power modules act coordinatewise and never materialize their action tables;
everything else stores explicit rows.

Join preservation, of a homomorphism or of one scalar's action, is checked
with :func:`tensalg.lattice.join_violation`: against the join-irreducibles
of the source in the second argument, which is exact once the map is known
to send bottom to bottom, and linear rather than quadratic in the source.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence

from .errors import (ActionNotAssociative, ActionNotJoinPreserving,
                     BudgetExceeded, SourceTargetQuantaleMismatch,
                     UnitActionFails)
from .lattice import FinLattice, enumerate_join_preserving_maps, join_violation
from .limits import DEFAULT_ENUM_BUDGET
from .quantale import Quantale


class VModule:
    """Validated module over a quantale.

    ``action`` is a |V| by |A| table of indices, or None for power modules
    where the action is computed coordinatewise.
    """

    __slots__ = ("quantale", "carrier", "action", "name", "_power_of")

    def __init__(self, quantale: Quantale, carrier: FinLattice, action,
                 name: str = "A", power_of: "VModule | None" = None):
        self.quantale = quantale
        self.carrier = carrier
        self.action = action
        self.name = name
        self._power_of = power_of

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def labels(self):
        return self.carrier.labels

    @property
    def is_power(self) -> bool:
        return self._power_of is not None

    @property
    def base(self) -> "VModule | None":
        return self._power_of

    def act(self, v: int, a: int) -> int:
        if self.action is not None:
            return self.action[v][a]
        base = self._power_of
        return self.carrier.encode(tuple(base.act(v, c)
                                         for c in self.carrier.decode(a)))

    def join(self, items) -> int:
        return self.carrier.join(items)

    def action_rows(self) -> tuple[tuple[int, ...], ...]:
        if self.action is not None:
            return self.action
        return tuple(tuple(self.act(v, a) for a in range(self.n))
                     for v in range(self.quantale.n))

    def __repr__(self):
        return f"VModule({self.name}, n={self.n}, over={self.quantale.name})"


class ModuleHom:
    """A map between modules over the same quantale, stored as a value vector."""

    __slots__ = ("source", "target", "values")

    def __init__(self, source: VModule, target: VModule, values: Sequence[int]):
        self.source = source
        self.target = target
        self.values = tuple(values)

    def __call__(self, a: int) -> int:
        return self.values[a]

    def __eq__(self, other):
        if not isinstance(other, ModuleHom):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.values == other.values)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.values))

    def __repr__(self):
        return f"ModuleHom({self.source.name}->{self.target.name}, {self.values})"


def validate_module(quantale: Quantale, carrier: FinLattice,
                    action: Sequence[Sequence[int]], name: str = "A") -> VModule:
    """Check the four module laws for an explicit action table.

    Each scalar's action is checked to preserve binary joins against the
    join-irreducibles of the carrier only, after it is seen to fix bottom;
    see :func:`tensalg.lattice.join_violation` for why that is exact.
    """
    nv, na = quantale.n, carrier.n
    if len(action) != nv or any(len(row) != na for row in action):
        raise ActionNotJoinPreserving("action table is not |V| by |A|",
                                      witness=(nv, na))
    for row in action:
        for x in row:
            if not (0 <= x < na):
                raise ActionNotJoinPreserving("action entry out of range", witness=(x,))

    vlat, alat = quantale.lattice, carrier
    vl, al = quantale.labels, carrier.labels

    for v in range(nv):
        if action[v][alat.bottom] != alat.bottom:
            raise ActionNotJoinPreserving(
                f"{vl[v]} * bottom != bottom", witness=(v, alat.bottom))
        bad = join_violation(alat, alat, action[v])
        if bad is not None:
            a, b = bad
            raise ActionNotJoinPreserving(
                f"{vl[v]} * ({al[a]} v {al[b]}) fails", witness=(v, a, b))

    for a in range(na):
        if action[vlat.bottom][a] != alat.bottom:
            raise ActionNotJoinPreserving(
                f"bottom_V * {al[a]} != bottom", witness=(vlat.bottom, a))
        for u in range(nv):
            for v in range(u + 1, nv):
                uv = vlat.join2(u, v)
                if action[uv][a] != alat.join2(action[u][a], action[v][a]):
                    raise ActionNotJoinPreserving(
                        f"({vl[u]} v {vl[v]}) * {al[a]} fails", witness=(u, v, a))

    for u in range(nv):
        for v in range(nv):
            uv = quantale.mul(u, v)
            for a in range(na):
                if action[u][action[v][a]] != action[uv][a]:
                    raise ActionNotAssociative(
                        f"{vl[u]} * ({vl[v]} * {al[a]}) != ({vl[u]}*{vl[v]}) * {al[a]}",
                        witness=(u, v, a))

    e = quantale.unit
    for a in range(na):
        if action[e][a] != a:
            raise UnitActionFails(
                f"unit * {al[a]} = {al[action[e][a]]}, expected {al[a]}",
                witness=(e, a))

    return VModule(quantale, carrier, tuple(tuple(r) for r in action), name=name)


def power_module(module: VModule, arity: int, cap: int | None = None,
                 name: str | None = None) -> VModule:
    """The module of ``arity``-tuples with pointwise order, joins and action."""
    carrier = FinLattice.power(module.carrier, arity, cap=cap)
    if name is None:
        name = f"{module.name}^{arity}"
    return VModule(module.quantale, carrier, None, name=name, power_of=module)


def module_residuate(module: VModule, a: int, b: int) -> int:
    """The largest scalar v with v * a <= b."""
    lat = module.carrier
    return module.quantale.join(v for v in range(module.quantale.n)
                                if lat.leq(module.act(v, a), b))


def is_module_hom(f, source: VModule | None = None,
                  target: VModule | None = None) -> bool:
    """True when ``f`` preserves all joins and the scalar action.

    ``f`` may be a ModuleHom or a bare value vector with explicit source and
    target.  Modules over different quantale objects are not comparable.
    """
    if isinstance(f, ModuleHom):
        source = f.source if source is None else source
        target = f.target if target is None else target
        values = f.values
    else:
        values = tuple(f)
    if source.quantale is not target.quantale:
        raise SourceTargetQuantaleMismatch(
            f"{source.name} is over {source.quantale.name}, "
            f"{target.name} over {target.quantale.name}",
            witness=(source.name, target.name))
    return _hom_violation(values, source, target) is None


def _hom_violation(values, source: VModule, target: VModule):
    """None, or a tag naming the first broken module-hom law.

    Bottom is checked before joins, so checking ``f(a v x) = f(a) v f(x)``
    only for join-irreducible ``x`` decides join preservation exactly (see
    :func:`tensalg.lattice.join_violation`); a ``("join", a, x)`` witness
    has ``x`` join-irreducible.
    """
    src, dst = source.carrier, target.carrier
    if len(values) != src.n:
        return ("shape", len(values))
    if values[src.bottom] != dst.bottom:
        return ("bottom", src.bottom)
    bad = join_violation(src, dst, values)
    if bad is not None:
        return ("join",) + bad
    for v in range(source.quantale.n):
        for a in range(src.n):
            if values[source.act(v, a)] != target.act(v, values[a]):
                return ("action", v, a)
    return None


def enumerate_module_homs(source: VModule, target: VModule,
                          budget: int | None = None) -> list[ModuleHom]:
    """All module homomorphisms, sorted by value vector.

    A power module ``A^T`` (one made by :func:`power_module`, whose action is
    coordinatewise) is a biproduct of ``T`` copies of ``A``, so
    Hom(A^T, L) = Hom(A, L)^T through f(x) = h_1(x_1) v ... v h_T(x_T), and
    Hom(L, A^T) = Hom(L, A)^T through f(y) = (h_1(y), ..., h_T(y)).  The
    homs of the base are enumerated once and the tuples assembled from them;
    a tuple of maps is a hom exactly when each of its maps is.  Every other
    pair, including a module with an explicit action on a power carrier, goes
    through the generic search: join-preserving maps of the carriers (see
    :func:`tensalg.lattice.enumerate_join_preserving_maps`) that commute
    with the action.

    ``budget`` bounds every base search, and BudgetExceeded is raised before
    assembly when the number of tuples |Hom(A, L)|^T exceeds it.
    """
    if source.quantale is not target.quantale:
        raise SourceTargetQuantaleMismatch(
            f"{source.name} and {target.name} live over different quantales",
            witness=(source.name, target.name))
    return [ModuleHom(source, target, f)
            for f in _hom_vectors(source, target, budget)]


def _hom_vectors(source: VModule, target: VModule,
                 budget: int | None) -> list[tuple[int, ...]]:
    if source.is_power:
        src, join = source.carrier, target.carrier.join
        tuples = _hom_tuples(_hom_vectors(source.base, target, budget),
                             src.arity, budget)
        coords = [src.decode(x) for x in range(src.n)]
        vectors = [tuple(join(h[c] for h, c in zip(hs, t)) for t in coords)
                   for hs in tuples]
    elif target.is_power:
        encode = target.carrier.encode
        tuples = _hom_tuples(_hom_vectors(source, target.base, budget),
                             target.carrier.arity, budget)
        vectors = [tuple(encode([h[y] for h in hs]) for y in range(source.n))
                   for hs in tuples]
    else:
        return [f for f in enumerate_join_preserving_maps(
                    source.carrier, target.carrier, budget=budget)
                if _action_ok(f, source, target)]
    vectors.sort()
    return vectors


def _hom_tuples(base: list, arity: int, budget: int | None):
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if len(base) ** arity > limit:
        raise BudgetExceeded(
            f"{len(base)}^{arity} hom tuples exceed budget {limit}",
            witness=(len(base), arity))
    return iter_product(base, repeat=arity)


def _action_ok(values, source: VModule, target: VModule) -> bool:
    for v in range(source.quantale.n):
        for a in range(source.n):
            if values[source.act(v, a)] != target.act(v, values[a]):
                return False
    return True


def identity_module_hom(module: VModule) -> ModuleHom:
    return ModuleHom(module, module, tuple(range(module.n)))


def compose_module_homs(g: ModuleHom, f: ModuleHom) -> ModuleHom:
    """g after f."""
    if f.target is not g.source:
        raise SourceTargetQuantaleMismatch(
            "composition needs matching middle module",
            witness=(f.target.name, g.source.name))
    return ModuleHom(f.source, g.target, tuple(g.values[v] for v in f.values))
