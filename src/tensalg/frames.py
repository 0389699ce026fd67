"""Frames: point sets carrying a quantale-valued accessibility relation.

No axiom is imposed on the relation itself.  A frame morphism may only
increase relatedness: r(i, j) <= s(f(i), f(j)).
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Sequence

from .errors import BadElementIndex, CompositionMismatch, QuantaleMismatch
from .quantale import Quantale


class VFrame:
    """Finite set of points with a V-valued binary relation."""

    __slots__ = ("quantale", "points", "r", "name")

    def __init__(self, quantale: Quantale, points: Sequence[str],
                 r: Sequence[Sequence[int]], name: str = "J"):
        self.quantale = quantale
        self.points = tuple(points)
        self.r = tuple(tuple(row) for row in r)
        self.name = name

    @property
    def n(self) -> int:
        return len(self.points)

    def __repr__(self):
        return f"VFrame({self.name}, points={self.n}, over={self.quantale.name})"


class FrameHom:
    """A point map with nondecreasing relatedness."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: VFrame, target: VFrame, mapping: Sequence[int]):
        self.source = source
        self.target = target
        self.mapping = tuple(mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __eq__(self, other):
        if not isinstance(other, FrameHom):
            return NotImplemented
        return (self.source is other.source and self.target is other.target
                and self.mapping == other.mapping)

    def __repr__(self):
        return f"FrameHom({self.source.name}->{self.target.name}, {self.mapping})"


def validate_frame(quantale: Quantale, points: Sequence[str],
                   r: Sequence[Sequence[int]], name: str = "J") -> VFrame:
    n = len(points)
    if len(set(points)) != n:
        raise BadElementIndex("duplicate point labels", witness=tuple(points))
    if len(r) != n or any(len(row) != n for row in r):
        raise BadElementIndex("relation table is not n by n", witness=(n,))
    for i, row in enumerate(r):
        for j, v in enumerate(row):
            if not (0 <= v < quantale.n):
                raise BadElementIndex(
                    f"r({points[i]},{points[j]}) is not a quantale element",
                    witness=(i, j, v))
    return VFrame(quantale, points, r, name=name)


def is_frame_hom(f, source: VFrame | None = None,
                 target: VFrame | None = None) -> bool:
    """Check r(i, j) <= s(f(i), f(j)) for all point pairs."""
    if isinstance(f, FrameHom):
        source = f.source if source is None else source
        target = f.target if target is None else target
        mapping = f.mapping
    else:
        mapping = tuple(f)
    if source.quantale is not target.quantale:
        raise QuantaleMismatch(
            f"frames {source.name} and {target.name} are over different quantales",
            witness=(source.name, target.name))
    if len(mapping) != source.n:
        raise BadElementIndex("point map has wrong length", witness=(len(mapping),))
    for i in mapping:
        if not (0 <= i < target.n):
            raise BadElementIndex("point map leaves the target frame", witness=(i,))
    lat = source.quantale.lattice
    return all(lat.leq(source.r[i][j], target.r[mapping[i]][mapping[j]])
               for i in range(source.n) for j in range(source.n))


def identity_frame_hom(frame: VFrame) -> FrameHom:
    return FrameHom(frame, frame, tuple(range(frame.n)))


def compose_frame_homs(g: FrameHom, f: FrameHom) -> FrameHom:
    """g after f; the middle frame must be the same object."""
    if f.target is not g.source:
        raise CompositionMismatch(
            f"cannot compose through {f.target.name} then {g.source.name}",
            witness=(f.target.name, g.source.name))
    return FrameHom(f.source, g.target, tuple(g.mapping[i] for i in f.mapping))


def enumerate_frame_homs(source: VFrame, target: VFrame) -> list[FrameHom]:
    """All frame morphisms, ordered lexicographically by point map."""
    if source.quantale is not target.quantale:
        raise QuantaleMismatch("different base quantales",
                               witness=(source.name, target.name))
    out = []
    for mapping in iter_product(range(target.n), repeat=source.n):
        if is_frame_hom(mapping, source, target):
            out.append(FrameHom(source, target, mapping))
    return out
