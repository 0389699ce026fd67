"""Prenuclei, nuclei, quotients and congruences on operator modules.

A prenucleus is an inflationary monotone operator compatible with the scalar
action and the operator F; a nucleus is additionally idempotent.  The closure
of a prenucleus is computed two independent ways (iterate to stability, and
meet of fixed points above) and the two must agree, which doubles as a
self-check of the machinery.

Monotonicity and the quotient's join law are checked against
join-irreducibles in the second argument only, which is exact because every
element is the join of the join-irreducibles below it; each check's
docstring gives the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (GDoesNotRespectX, NotACongruence, NotANucleus,
                     NotAPrenucleus)
from .fsemilattice import (FSemilattice, is_f_hom, is_lax_morphism,
                           validate_fsemilattice)
from .lattice import validate_lattice
from .vmodule import ModuleHom, validate_module


@dataclass(frozen=True)
class EndoOperator:
    """A unary operator on the carrier of an operator module."""
    host: FSemilattice
    values: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.values[a]


@dataclass(frozen=True)
class Congruence:
    """A partition of the carrier compatible with joins, action and F.

    ``class_of[a]`` is the class id of element ``a``; ids are normalized to
    first-occurrence order.
    """
    host: FSemilattice
    class_of: tuple[int, ...]

    def classes(self) -> list[list[int]]:
        k = max(self.class_of) + 1 if self.class_of else 0
        out = [[] for _ in range(k)]
        for a, c in enumerate(self.class_of):
            out[c].append(a)
        return out


# pair nucleus -------------------------------------------------------------

class PairNucleus:
    """The inflation j[X] of a saturated pair set X.

    The given pairs are closed under (v*c, v*d) for every scalar, and under
    (F c, F d) when an operator is given; ``pairs`` keeps first-seen order.
    j maps a to a joined with every c whose partner d lies below a, reading
    pairs in both orientations.  Elements may be indices or tuples, anything
    hashable that the supplied operations accept.
    """

    def __init__(self, pairs: Iterable[tuple], scalars: range,
                 act: Callable, leq: Callable, join2: Callable,
                 f_op: Callable | None = None):
        self.leq = leq
        self.join2 = join2
        seen = set()
        order = []
        work = []

        def add(p):
            if p not in seen:
                seen.add(p)
                order.append(p)
                work.append(p)

        for p in pairs:
            add(p)
        while work:
            c, d = work.pop()
            for v in scalars:
                add((act(v, c), act(v, d)))
            if f_op is not None:
                add((f_op(c), f_op(d)))
        self.pairs = order
        self.oriented = order + [(d, c) for c, d in order if c != d]

    def j(self, a):
        leq, join2 = self.leq, self.join2
        out = a
        for c, d in self.oriented:
            if leq(d, a):
                out = join2(out, c)
        return out

    def constant_on_pairs(self, fn) -> tuple | None:
        """First saturated pair a function distinguishes, or None."""
        for c, d in self.pairs:
            if fn(c) != fn(d):
                return (c, d)
        return None


# prenucleus and nucleus predicates ---------------------------------------

def prenucleus_violation(op: EndoOperator):
    """None, or a tag naming the first broken prenucleus law.

    Monotonicity is checked as j(a) <= j(a v x) for join-irreducible x.
    That is exact: if a <= b then b = a v x1 v ... v xk over the
    irreducibles below b, and j rises along that chain one step at a time.
    A ``("monotone", a, b)`` witness has b = a v x.
    """
    host = op.host
    mod = host.module
    lat = mod.carrier
    j = op.values
    if len(j) != lat.n:
        return ("shape", len(j))
    for a in range(lat.n):
        if not lat.leq(a, j[a]):
            return ("inflationary", a)
    leq, join2 = lat.leq, lat.join2
    ji = lat.join_irreducibles()
    for a in range(lat.n):
        ja = j[a]
        for x in ji:
            b = join2(a, x)
            if b != a and not leq(ja, j[b]):
                return ("monotone", a, b)
    for v in range(mod.quantale.n):
        for a in range(lat.n):
            if not lat.leq(mod.act(v, j[a]), j[mod.act(v, a)]):
                return ("action", v, a)
    for a in range(lat.n):
        if not lat.leq(host.F[j[a]], j[host.F[a]]):
            return ("operator", a)
    return None


def is_prenucleus(op: EndoOperator) -> bool:
    return prenucleus_violation(op) is None


def is_nucleus(op: EndoOperator) -> bool:
    if prenucleus_violation(op) is not None:
        return False
    return all(op.values[op.values[a]] == op.values[a]
               for a in range(len(op.values)))


def prenucleus_from_pairs(host: FSemilattice, pairs: Iterable[tuple[int, int]],
                          ) -> tuple[EndoOperator, list[tuple[int, int]]]:
    """j[X] for the saturation of the given pair set; also returns the
    saturated pairs.  The result is a prenucleus by construction, and that is
    re-checked."""
    mod = host.module
    lat = mod.carrier
    pn = PairNucleus(pairs, range(mod.quantale.n), mod.act, lat.leq,
                     lat.join2, f_op=host.F.__getitem__)
    op = EndoOperator(host, tuple(pn.j(a) for a in range(lat.n)))
    bad = prenucleus_violation(op)
    if bad is not None:
        raise NotAPrenucleus(f"pair operator violates {bad}", witness=bad)
    return op, pn.pairs


def closure_of(op: EndoOperator) -> EndoOperator:
    """Least nucleus above a prenucleus.

    Computed by iterating the operator to stability and, independently, as
    the meet of fixed points above each element; the two must agree.
    """
    bad = prenucleus_violation(op)
    if bad is not None:
        raise NotAPrenucleus(f"not a prenucleus: {bad}", witness=bad)
    host = op.host
    lat = host.module.carrier
    j = op.values
    iterated = list(j)
    for _ in range(lat.n + 1):
        nxt = [j[x] for x in iterated]
        if nxt == iterated:
            break
        iterated = nxt
    else:
        raise NotAPrenucleus("iteration failed to stabilize", witness=None)

    fixed = [a for a in range(lat.n) if iterated[a] == a]
    by_meet = []
    for a in range(lat.n):
        above = [x for x in fixed if lat.leq(a, x)]
        by_meet.append(lat.meet(above))
    if by_meet != iterated:
        raise NotAPrenucleus(
            "iterate-to-stability and meet-of-fixed-points disagree",
            witness=next((a for a in range(lat.n) if by_meet[a] != iterated[a])))
    return EndoOperator(host, tuple(iterated))


# quotients ----------------------------------------------------------------

@dataclass(frozen=True)
class QuotientResult:
    fsl: FSemilattice
    surjection: ModuleHom
    fixed: tuple[int, ...]
    nucleus: EndoOperator


def quotient(host: FSemilattice, op: EndoOperator) -> QuotientResult:
    """The quotient operator module on the fixed points of a nucleus.

    Joins, action and operator on the quotient are the host ones followed by
    the nucleus.  The result is re-validated and the projection is checked to
    be a strict operator-preserving morphism.

    Quotient joins are compared with closed host joins for the
    join-irreducibles x of the quotient in the second argument only.  Since
    ``op`` is a nucleus, n(n(p) v q) = n(p v q), so for k = x1 v ... v xm
    both sides at (a, k) unfold to n(a v x1 v ... v xm) once they agree at
    every (., xi); the bottom case is n(a v n(bottom)) = n(a) = a.
    """
    if not is_nucleus(op):
        raise NotANucleus("quotient requires a nucleus",
                          witness=prenucleus_violation(op))
    mod = host.module
    lat = mod.carrier
    n_op = op.values
    fixed = tuple(a for a in range(lat.n) if n_op[a] == a)
    index_of = {a: i for i, a in enumerate(fixed)}

    labels = [lat.labels[a] for a in fixed]
    leq_rows = [[1 if lat.leq(a, b) else 0 for b in fixed] for a in fixed]
    qlat = validate_lattice(labels, leq_rows, max_size=len(fixed))
    # quotient joins are nucleus of host joins; confirm against the order
    qji = qlat.join_irreducibles()
    for i, a in enumerate(fixed):
        for k in qji:
            if qlat.join2(i, k) != index_of[n_op[lat.join2(a, fixed[k])]]:
                raise NotANucleus("quotient join disagrees with closed host join",
                                  witness=(a, fixed[k]))

    action = [[index_of[n_op[mod.act(v, a)]] for a in fixed]
              for v in range(mod.quantale.n)]
    qmod = validate_module(mod.quantale, qlat, action, name=f"{mod.name}/j")
    F_q = [index_of[n_op[host.F[a]]] for a in fixed]
    qfsl = validate_fsemilattice(qmod, F_q, name=f"{host.name}/j")

    surj = ModuleHom(mod, qmod, tuple(index_of[n_op[a]] for a in range(lat.n)))
    if not is_f_hom(surj, host, qfsl):
        raise NotANucleus("projection is not a strict operator morphism",
                          witness=None)
    return QuotientResult(qfsl, surj, fixed, op)


# congruences ---------------------------------------------------------------

def congruence_violation(theta: Congruence):
    host = theta.host
    mod = host.module
    lat = mod.carrier
    cls = theta.class_of
    if len(cls) != lat.n:
        return ("shape", len(cls))
    related = [(a, b) for a in range(lat.n) for b in range(lat.n)
               if cls[a] == cls[b]]
    for a, b in related:
        for c, d in related:
            if cls[lat.join2(a, c)] != cls[lat.join2(b, d)]:
                return ("join", a, b, c, d)
    for v in range(mod.quantale.n):
        for a, b in related:
            if cls[mod.act(v, a)] != cls[mod.act(v, b)]:
                return ("action", v, a, b)
    for a, b in related:
        if cls[host.F[a]] != cls[host.F[b]]:
            return ("operator", a, b)
    return None


def nucleus_from_congruence(theta: Congruence) -> EndoOperator:
    """Each element maps to the join of its class."""
    bad = congruence_violation(theta)
    if bad is not None:
        raise NotACongruence(f"not a congruence: {bad}", witness=bad)
    host = theta.host
    lat = host.module.carrier
    classes = theta.classes()
    join_of_class = [lat.join(members) for members in classes]
    op = EndoOperator(host, tuple(join_of_class[theta.class_of[a]]
                                  for a in range(lat.n)))
    if not is_nucleus(op):
        raise NotACongruence("class joins do not form a nucleus", witness=None)
    return op


def congruence_from_nucleus(op: EndoOperator) -> Congruence:
    """Elements are congruent when the nucleus identifies them."""
    if not is_nucleus(op):
        raise NotANucleus("kernel congruence requires a nucleus",
                          witness=prenucleus_violation(op))
    ids: dict[int, int] = {}
    cls = []
    for a in range(len(op.values)):
        v = op.values[a]
        if v not in ids:
            ids[v] = len(ids)
        cls.append(ids[v])
    return Congruence(op.host, tuple(cls))


# factorization -------------------------------------------------------------

@dataclass(frozen=True)
class FactorResult:
    quotient: QuotientResult
    gbar: ModuleHom


def factor_through(g: ModuleHom, host: FSemilattice, target: FSemilattice,
                   pairs: Iterable[tuple[int, int]]) -> FactorResult:
    """Factor a lax morphism through the quotient that collapses the pairs.

    ``g`` must identify both members of every pair in the saturated set;
    the returned ``gbar`` is the unique lax morphism with gbar after the
    projection equal to ``g``.
    """
    if not is_lax_morphism(g, host, target):
        raise GDoesNotRespectX("map to factor is not a lax morphism", witness=None)
    op, sat = prenucleus_from_pairs(host, pairs)
    for c, d in sat:
        if g.values[c] != g.values[d]:
            raise GDoesNotRespectX(
                f"map distinguishes a collapsed pair {c}, {d}", witness=(c, d))
    nuc = closure_of(op)
    q = quotient(host, nuc)
    gbar = ModuleHom(q.fsl.module, g.target,
                     tuple(g.values[a] for a in q.fixed))
    for a in range(host.n):
        if gbar.values[q.surjection.values[a]] != g.values[a]:
            raise GDoesNotRespectX("factorization equation failed", witness=a)
    if not is_lax_morphism(gbar, q.fsl, target):
        raise GDoesNotRespectX("factored map is not lax on the quotient",
                               witness=None)
    return FactorResult(q, gbar)
