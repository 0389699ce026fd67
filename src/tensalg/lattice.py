"""Finite lattices with a bottom element, the carrier layer for everything else.

Elements are canonical indices ``0..n-1``.  Labels are carried along for I/O
but all computation is index based.  Orders are stored as up-set bitmasks,
which keeps validation and join searches cheap at desk scale.

A lattice is either backed by explicit tables (validated user input,
quotients) or by a finite power of a base lattice, in which case order and
joins are computed coordinatewise and never materialized as n-by-n tables.
A power keeps the coordinate tuple of every element in one list, built once
by ``itertools.product`` in index order, so decoding an index is a list
lookup.

Binary laws ("for all a, b") are checked against the join-irreducibles
J(L) in the second argument: every element is the join of the
join-irreducibles below it, so a law that is stable under joining in one
more irreducible holds for all pairs once it holds for all (a, x) with x in
J(L) and the bottom case is settled.  See :func:`join_violation`.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Iterable, Sequence

from .errors import BudgetExceeded, MissingJoin, NotAPartialOrder, SizeLimitExceeded
from .limits import DEFAULT_ENUM_BUDGET, max_carrier, max_power_elements


class FinLattice:
    """A finite lattice, immutable once constructed.

    Use :func:`validate_lattice` for untrusted tables and
    :meth:`FinLattice.power` for finite powers, which are lattices by
    construction.
    """

    __slots__ = ("labels", "n", "bottom", "top", "_up", "_down",
                 "_base", "_arity", "_tuples", "_join_memo", "_ji")

    def __init__(self, labels, up, down, bottom, top, base=None, arity=0,
                 tuples=None):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self._up = up
        self._down = down
        self.bottom = bottom
        self.top = top
        self._base = base
        self._arity = arity
        self._tuples = tuples
        self._join_memo = {}
        self._ji = None

    # construction ---------------------------------------------------------

    @classmethod
    def power(cls, base: "FinLattice", arity: int, cap: int | None = None) -> "FinLattice":
        """The pointwise lattice on ``arity``-tuples over ``base``."""
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        size = base.n ** arity
        limit = max_power_elements(cap)
        if size > limit:
            raise SizeLimitExceeded(
                f"power lattice would have {size} elements, cap is {limit}",
                witness=(base.n, arity))
        tuples = list(iter_product(range(base.n), repeat=arity))
        labels = ["(" + ",".join(base.labels[c] for c in t) + ")" for t in tuples]
        bot = _encode((base.bottom,) * arity, base.n)
        top = _encode((base.top,) * arity, base.n)
        return cls(labels, None, None, bot, top, base=base, arity=arity,
                   tuples=tuples)

    @property
    def is_power(self) -> bool:
        return self._base is not None

    @property
    def base(self) -> "FinLattice | None":
        return self._base

    @property
    def arity(self) -> int:
        return self._arity

    def decode(self, i: int) -> tuple[int, ...]:
        """Index of a power element to its coordinate tuple (cached)."""
        return self._tuples[i]

    def encode(self, t: Sequence[int]) -> int:
        return _encode(t, self._base.n)

    # order ----------------------------------------------------------------

    def leq(self, a: int, b: int) -> bool:
        if self._base is None:
            return bool((self._up[a] >> b) & 1)
        base = self._base
        return all(base.leq(x, y)
                   for x, y in zip(self._tuples[a], self._tuples[b]))

    def join2(self, a: int, b: int) -> int:
        if a == b:
            return a
        key = (a, b) if a < b else (b, a)
        memo = self._join_memo
        got = memo.get(key)
        if got is not None:
            return got
        if self._base is None:
            u = self._up[a] & self._up[b]
            r = _least_of_mask(u, self._up)
            if r is None:
                raise MissingJoin(f"no join for elements {a}, {b}", witness=(a, b))
        else:
            base = self._base
            r = self.encode(tuple(base.join2(x, y)
                                  for x, y in zip(self._tuples[a], self._tuples[b])))
        memo[key] = r
        return r

    def join(self, items: Iterable[int]) -> int:
        out = self.bottom
        for x in items:
            out = self.join2(out, x)
        return out

    def meet(self, items: Iterable[int]) -> int:
        """Meet as the join of the common lower bounds."""
        items = list(items)
        if self._base is not None:
            if not items:
                return self.top
            base = self._base
            cols = zip(*(self.decode(i) for i in items))
            return self.encode(tuple(base.meet(col) for col in cols))
        mask = (1 << self.n) - 1
        lb = mask
        for s in items:
            lb &= self._down[s]
        return self.join(_bits(lb))

    def join_irreducibles(self) -> tuple[int, ...]:
        """Elements that are not the join of their strict lower set."""
        if self._ji is not None:
            return self._ji
        if self._base is not None:
            base = self._base
            out = []
            for i in range(self.n):
                t = self.decode(i)
                nontriv = [k for k in range(self._arity) if t[k] != base.bottom]
                if len(nontriv) == 1 and t[nontriv[0]] in base.join_irreducibles():
                    out.append(i)
        else:
            out = []
            for x in range(self.n):
                if x == self.bottom:
                    continue
                below = [y for y in _bits(self._down[x]) if y != x]
                if self.join(below) != x:
                    out.append(x)
        self._ji = tuple(out)
        return self._ji

    # materialized views ---------------------------------------------------

    def leq_rows(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(self.leq(a, b) for b in range(self.n))
                     for a in range(self.n))

    def __eq__(self, other):
        if not isinstance(other, FinLattice):
            return NotImplemented
        return (self.labels == other.labels
                and self.leq_rows() == other.leq_rows())

    def __hash__(self):
        return hash((self.labels,))

    def __repr__(self):
        kind = f"power({self._base.n}^{self._arity})" if self.is_power else "table"
        return f"FinLattice(n={self.n}, {kind})"


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least_of_mask(mask: int, up: list[int]) -> int | None:
    # the least element of the subset, if one exists
    for u in _bits(mask):
        if mask & ~up[u] == 0:
            return u
    return None


def _encode(t: Sequence[int], radix: int) -> int:
    out = 0
    for c in t:
        out = out * radix + c
    return out


def validate_lattice(labels: Sequence[str], leq: Sequence[Sequence[int]],
                     max_size: int | None = None) -> FinLattice:
    """Check that ``leq`` is a partial order on ``labels`` in which every
    finite subset has a join, and return the lattice.

    Raises NotAPartialOrder, MissingJoin or SizeLimitExceeded with a witness.
    """
    n = len(labels)
    limit = max_carrier(max_size)
    if n > limit:
        raise SizeLimitExceeded(f"carrier has {n} elements, cap is {limit}", witness=n)
    if n == 0:
        raise MissingJoin("empty carrier has no bottom element", witness=())
    if len(set(labels)) != n:
        raise NotAPartialOrder("duplicate element labels", witness=tuple(labels))
    if len(leq) != n or any(len(row) != n for row in leq):
        raise NotAPartialOrder("leq table is not n by n", witness=(n,))

    up = [0] * n
    for i, row in enumerate(leq):
        for j, v in enumerate(row):
            if v:
                up[i] |= 1 << j
    for i in range(n):
        if not (up[i] >> i) & 1:
            raise NotAPartialOrder(f"not reflexive at {labels[i]}", witness=(i,))
    for i in range(n):
        for j in _bits(up[i]):
            if i != j and (up[j] >> i) & 1:
                raise NotAPartialOrder(
                    f"antisymmetry fails between {labels[i]} and {labels[j]}",
                    witness=(i, j))
            if up[j] & ~up[i]:
                k = next(_bits(up[j] & ~up[i]))
                raise NotAPartialOrder(
                    f"transitivity fails on {labels[i]} <= {labels[j]} <= {labels[k]}",
                    witness=(i, j, k))

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i

    full = (1 << n) - 1
    bottom = None
    for i in range(n):
        if up[i] == full:
            bottom = i
            break
    if bottom is None:
        raise MissingJoin("no bottom element (empty join)", witness=())

    top = None
    for i in range(n):
        if down[i] == full:
            top = i
            break
    if top is None:
        raise MissingJoin("no top element (join of all elements)", witness=tuple(range(n)))

    for a in range(n):
        for b in range(a + 1, n):
            u = up[a] & up[b]
            if _least_of_mask(u, up) is None:
                raise MissingJoin(
                    f"elements {labels[a]} and {labels[b]} have no least upper bound",
                    witness=(a, b))

    return FinLattice(labels, up, down, bottom, top)


def enumerate_join_preserving_maps(src: FinLattice, dst: FinLattice,
                                   budget: int | None = None) -> list[tuple[int, ...]]:
    """All maps ``src -> dst`` preserving finite joins, including the empty one.

    Strategy: enumerate monotone assignments on the join irreducibles of the
    source, extend by f(x) = join of images of irreducibles below x, and keep
    the extensions that preserve binary joins, as decided by
    :func:`join_violation`.  Power carriers take the same path: their
    join-irreducibles and joins are computed coordinatewise.  Results are
    value vectors in lexicographic order.
    """
    assignments = _monotone_assignments(src, dst, budget)
    out = []
    for g in assignments:
        f = _extend_assignment(src, dst, g)
        if f is not None:
            out.append(f)
    out.sort()
    return out


def _monotone_assignments(src: FinLattice, dst: FinLattice, budget: int | None):
    """Yield monotone partial maps join-irreducibles(src) -> dst as dicts.

    Deterministic order: irreducibles by index, candidate values ascending.
    Raises BudgetExceeded once more than ``budget`` assignments are visited.
    """
    ji = src.join_irreducibles()
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    visited = 0
    assignment: dict[int, int] = {}

    def rec(pos: int):
        nonlocal visited
        if pos == len(ji):
            yield dict(assignment)
            return
        j = ji[pos]
        for val in range(dst.n):
            ok = True
            for j2, v2 in assignment.items():
                if src.leq(j2, j) and not dst.leq(v2, val):
                    ok = False
                    break
                if src.leq(j, j2) and not dst.leq(val, v2):
                    ok = False
                    break
            if not ok:
                continue
            visited += 1
            if visited > limit:
                raise BudgetExceeded(
                    f"monotone assignment search exceeded budget {limit}",
                    witness=(src.n, dst.n))
            assignment[j] = val
            yield from rec(pos + 1)
            del assignment[j]

    yield from rec(0)


def join_violation(src: FinLattice, dst: FinLattice, f) -> tuple[int, int] | None:
    """The first ``(a, x)`` with ``x`` join-irreducible and
    ``f(a v x) != f(a) v f(x)``, or None.  ``f`` is a value vector.

    Exact for maps with ``f(bottom) = bottom``, which the caller checks
    first: writing b as x1 v ... v xk over the irreducibles below it,
    f(a v b) and f(a) v f(b) both unfold to f(a) v f(x1) v ... v f(xk).
    The law is symmetric and holds at (bottom, x) and (x, x), so a pair of
    irreducibles is checked once, with the larger index first.
    """
    join_s, join_d = src.join2, dst.join2
    ji = src.join_irreducibles()      # ascending
    for a in range(src.n):
        if a == src.bottom:
            continue
        fa = f[a]
        for x in ji:
            if x == a:
                break
            if f[join_s(a, x)] != join_d(fa, f[x]):
                return (a, x)
    return None


def _extend_assignment(src: FinLattice, dst: FinLattice,
                       g: dict[int, int]) -> tuple[int, ...] | None:
    ji = src.join_irreducibles()
    # f(bottom) is the empty join, as join_violation requires
    f = tuple(dst.join(g[j] for j in ji if src.leq(j, x)) for x in range(src.n))
    return None if join_violation(src, dst, f) is not None else f
