"""Seeded instance generation and the randomized check suites.

Instances are drawn deterministically from ``random.Random(f"{seed}:{idx}")``
so every report is reproducible from its seed.  Draws that overrun an
enumeration budget or a size cap are redrawn with progressively smaller
shapes; a counted instance always ran every check of its suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product as iter_product

from .adjunctions import (CheckReport, check_naturality_eps,
                          check_naturality_eta, check_naturality_mu,
                          check_naturality_nu, check_naturality_phi,
                          check_naturality_psi, run_all_triangles)
from .errors import FNotModuleHom, SizeLimitExceeded
from .frames import FrameHom, VFrame, is_frame_hom, validate_frame
from .fsemilattice import FSemilattice, is_lax_morphism, validate_fsemilattice
from .functors import hom_frame, tensor
from .lattice import FinLattice, validate_lattice
from .limits import DEFAULT_ENUM_BUDGET
from .nucleus import (closure_of, congruence_from_nucleus, is_nucleus,
                      nucleus_from_congruence, prenucleus_from_pairs, quotient)
from .quantale import Quantale, residuate, validate_quantale
from .vmodule import (ModuleHom, VModule, enumerate_module_homs,
                      is_module_hom, module_residuate, power_module,
                      validate_module)


# curated carriers and quantales ----------------------------------------------

def chain_lattice(k: int) -> FinLattice:
    labels = [str(i) for i in range(k)]
    leq = [[1 if a <= b else 0 for b in range(k)] for a in range(k)]
    return validate_lattice(labels, leq)


def square_lattice() -> FinLattice:
    labels = ["bot", "p", "q", "top"]
    leq = [
        [1, 1, 1, 1],
        [0, 1, 0, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
    ]
    return validate_lattice(labels, leq)


def diamond_lattice() -> FinLattice:
    labels = ["0", "a", "b", "c", "1"]
    leq = [
        [1, 1, 1, 1, 1],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1],
    ]
    return validate_lattice(labels, leq)


def _meet_table(lat: FinLattice):
    return [[lat.meet((a, b)) for b in range(lat.n)] for a in range(lat.n)]


def quantale_bool() -> Quantale:
    lat = chain_lattice(2)
    return validate_quantale(lat, _meet_table(lat), lat.top, name="bool2")


def quantale_min(k: int) -> Quantale:
    lat = chain_lattice(k)
    return validate_quantale(lat, _meet_table(lat), lat.top, name=f"min{k}")


def quantale_luk(k: int) -> Quantale:
    lat = chain_lattice(k)
    t = [[max(0, a + b - (k - 1)) for b in range(k)] for a in range(k)]
    return validate_quantale(lat, t, lat.top, name=f"luk{k}")


def quantale_mid3() -> Quantale:
    """Three-chain whose unit is the middle element."""
    lat = chain_lattice(3)
    t = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    return validate_quantale(lat, t, 1, name="mid3")


def quantale_square_meet() -> Quantale:
    lat = square_lattice()
    return validate_quantale(lat, _meet_table(lat), lat.top, name="sq-meet")


_QUANTALE_BUILDERS = (
    quantale_bool,
    lambda: quantale_min(3),
    lambda: quantale_min(4),
    lambda: quantale_luk(3),
    lambda: quantale_luk(4),
    quantale_mid3,
    quantale_square_meet,
)

_QUANTALE_CACHE: list[Quantale] | None = None


def quantale_pool(max_v: int = 4) -> list[Quantale]:
    global _QUANTALE_CACHE
    if _QUANTALE_CACHE is None:
        _QUANTALE_CACHE = [b() for b in _QUANTALE_BUILDERS]
    return [q for q in _QUANTALE_CACHE if q.n <= max_v]


# module, operator and frame draws ---------------------------------------------

_SELF_MODULES: dict[int, VModule] = {}


def self_module(q: Quantale) -> VModule:
    """The quantale acting on itself by its tensor."""
    key = id(q)
    if key not in _SELF_MODULES:
        _SELF_MODULES[key] = validate_module(q, q.lattice, q.tensor,
                                             name=f"{q.name}-self")
    return _SELF_MODULES[key]


def submodule_closure(host: VModule, seeds) -> list[int]:
    """Close a seed set under binary joins and the action, plus bottom."""
    lat = host.carrier
    S = {lat.bottom}
    S.update(seeds)
    work = list(S)
    while work:
        a = work.pop()
        for v in range(host.quantale.n):
            va = host.act(v, a)
            if va not in S:
                S.add(va)
                work.append(va)
        for b in list(S):
            ab = lat.join2(a, b)
            if ab not in S:
                S.add(ab)
                work.append(ab)
    return sorted(S)


def restrict_module(host: VModule, elements: list[int],
                    name: str) -> VModule:
    """The submodule on a join- and action-closed element list."""
    lat = host.carrier
    index = {e: k for k, e in enumerate(elements)}
    labels = [str(lat.labels[e]) for e in elements]
    leq = [[1 if lat.leq(a, b) else 0 for b in elements] for a in elements]
    carrier = validate_lattice(labels, leq)
    action = [[index[host.act(v, a)] for a in elements]
              for v in range(host.quantale.n)]
    return validate_module(host.quantale, carrier, action, name=name)


def random_module(rng: random.Random, q: Quantale, max_size: int) -> VModule:
    """Either the quantale on itself or a random submodule of its square."""
    if q.n <= max_size and rng.random() < 0.4:
        return self_module(q)
    host = power_module(self_module(q), 2)
    for _ in range(8):
        seeds = rng.sample(range(host.n), k=rng.randint(1, 3))
        elements = submodule_closure(host, seeds)
        if 1 < len(elements) <= max_size:
            return restrict_module(host, elements,
                                   name=f"{q.name}-sub{len(elements)}")
    if q.n <= max_size:
        return self_module(q)
    return restrict_module(host, submodule_closure(host, []),
                           name=f"{q.name}-triv")


def random_fsl(rng: random.Random, module: VModule,
               budget: int | None = None) -> FSemilattice:
    homs = enumerate_module_homs(module, module, budget=budget)
    F = rng.choice(homs).values
    return validate_fsemilattice(module, F)


def random_frame(rng: random.Random, q: Quantale, npts: int,
                 name: str = "J") -> VFrame:
    points = [f"p{i}" for i in range(npts)]
    r = [[rng.randrange(q.n) for _ in range(npts)] for _ in range(npts)]
    if rng.random() < 0.4:
        for i in range(npts):
            r[i][i] = q.unit
    return validate_frame(q, points, r, name=name)


def random_module_hom(rng: random.Random, source: VModule, target: VModule,
                      budget: int | None = None) -> ModuleHom:
    homs = enumerate_module_homs(source, target, budget=budget)
    return rng.choice(homs)    # never empty: the bottom map always qualifies


def random_lax_hom(rng: random.Random, source: FSemilattice,
                   target: FSemilattice,
                   budget: int | None = None) -> ModuleHom:
    homs = enumerate_module_homs(source.module, target.module, budget=budget)
    lax = [h for h in homs if is_lax_morphism(h, source, target)]
    return rng.choice(lax)     # never empty: the bottom map is lax


def collapsing_frame_hom(rng: random.Random, frame: VFrame
                         ) -> tuple[FrameHom, VFrame]:
    """A random point map onto a fresh frame whose relation is the fiber
    join of the source relation, optionally raised further; such a map is
    a frame morphism by construction."""
    q = frame.quantale
    m = rng.randint(1, frame.n)
    mapping = tuple(rng.randrange(m) for _ in range(frame.n))
    r2 = [[q.join(frame.r[i][j]
                  for i in range(frame.n) for j in range(frame.n)
                  if mapping[i] == k and mapping[j] == l)
           for l in range(m)] for k in range(m)]
    for k in range(m):
        for l in range(m):
            if rng.random() < 0.25:
                r2[k][l] = q.lattice.join2(r2[k][l], rng.randrange(q.n))
    target = validate_frame(q, [f"q{k}" for k in range(m)], r2,
                            name=f"{frame.name}/c{m}")
    hom = FrameHom(frame, target, mapping)
    if not is_frame_hom(hom, frame, target):
        raise FNotModuleHom("collapsing map is not a frame hom", witness=mapping)
    return hom, target


# size profiles and instance drawing ------------------------------------------

@dataclass(frozen=True)
class SizeProfile:
    max_v: int
    max_a: int
    max_t: int
    max_l: int


_PROFILES = (
    SizeProfile(3, 3, 2, 3),
    SizeProfile(4, 4, 2, 4),
    SizeProfile(4, 5, 2, 5),
    SizeProfile(4, 5, 3, 3),
)


def size_profile(idx: int, attempt: int = 0) -> SizeProfile:
    if attempt >= 2:
        return _PROFILES[0]
    c = idx % 10
    if c < 5:
        return _PROFILES[0]
    if c < 7:
        return _PROFILES[1]
    if c < 9:
        return _PROFILES[2]
    return _PROFILES[3]


@dataclass(frozen=True)
class Instance:
    tag: str
    frame: VFrame
    fsl: FSemilattice
    L: VModule

    @property
    def quantale(self) -> Quantale:
        return self.frame.quantale


def draw_instance(seed: int, idx: int, attempt: int = 0,
                  budget: int | None = None) -> Instance:
    rng = random.Random(f"{seed}:{idx}:{attempt}")
    prof = size_profile(idx, attempt)
    q = rng.choice(quantale_pool(prof.max_v))
    A = random_module(rng, q, prof.max_a)
    fsl = random_fsl(rng, A, budget=budget)
    J = random_frame(rng, q, rng.randint(1, prof.max_t))
    L = random_module(rng, q, prof.max_l)
    tag = f"#{idx}:{q.name},|A|={A.n},|T|={J.n},|L|={L.n}"
    return Instance(tag, frame=J, fsl=fsl, L=L)


def _with_redraws(count: int, seed: int, budget: int | None, run_one):
    """Drive a suite: draw, run, and redraw smaller on size blowups."""
    report = CheckReport(seed=seed)
    for idx in range(count):
        attempt = 0
        while True:
            inst = draw_instance(seed, idx, attempt, budget=budget)
            try:
                rng = random.Random(f"{seed}:{idx}:{attempt}:morphisms")
                report.extend(run_one(inst, rng))
                break
            except SizeLimitExceeded:
                attempt += 1
                if attempt > 12:
                    raise
    return report


# suites ------------------------------------------------------------------------

def triangles_suite(count: int = 100, seed: int = 0,
                    budget: int | None = None) -> CheckReport:
    """All six triangle identities on ``count`` seeded instances."""
    budget = budget or DEFAULT_ENUM_BUDGET

    def run_one(inst: Instance, rng: random.Random) -> CheckReport:
        return run_all_triangles(inst.frame, inst.fsl, inst.L,
                                 budget=budget, instance=inst.tag)

    return _with_redraws(count, seed, budget, run_one)


def naturality_suite(count: int = 60, seed: int = 0,
                     budget: int | None = None) -> CheckReport:
    """The six naturality squares, each against a freshly drawn morphism."""
    budget = budget or DEFAULT_ENUM_BUDGET

    def run_one(inst: Instance, rng: random.Random) -> CheckReport:
        report = CheckReport()
        q = inst.quantale
        J, H, L = inst.frame, inst.fsl, inst.L
        prof = size_profile(0)

        # a second operator module with a lax map out of H
        A2 = random_module(rng, q, prof.max_a)
        H2 = random_fsl(rng, A2, budget=budget)
        f = random_lax_hom(rng, H, H2, budget=budget)
        tm1 = tensor(J, H)
        tm2 = tensor(J, H2)
        report.extend(check_naturality_eta(J, f, H, H2, tm1, tm2,
                                           instance=inst.tag))

        # a module map out of L
        L2 = random_module(rng, q, prof.max_l)
        g = random_module_hom(rng, L, L2, budget=budget)
        report.extend(check_naturality_eps(J, g, instance=inst.tag))

        # a frame map out of J
        t, J2 = collapsing_frame_hom(rng, J)
        tm2b = tensor(J2, H)
        report.extend(check_naturality_phi(t, H, tm1, tm2b,
                                           instance=inst.tag))
        report.extend(check_naturality_nu(t, L, instance=inst.tag))

        # hom frames for the evaluation squares
        hf1 = hom_frame(H, L, budget=budget)
        hf2 = hom_frame(H, L2, budget=budget)
        report.extend(check_naturality_psi(g, H, hf1, hf2,
                                           instance=inst.tag))
        hf_mu2 = hom_frame(H2, L, budget=budget)
        report.extend(check_naturality_mu(f, hf1, hf_mu2,
                                          instance=inst.tag))
        return report

    return _with_redraws(count, seed, budget, run_one)


def nuclei_suite(count: int = 100, seed: int = 0,
                 budget: int | None = None) -> CheckReport:
    """Prenucleus closure, quotient and congruence round trips."""
    budget = budget or DEFAULT_ENUM_BUDGET

    def run_one(inst: Instance, rng: random.Random) -> CheckReport:
        report = CheckReport()
        host = inst.fsl
        n = host.n
        pairs = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(1, 3))]
        op, sat = prenucleus_from_pairs(host, pairs)
        report.add("nuc.prenucleus-from-pairs", inst.tag, True,
                   witness=len(sat))
        closed = closure_of(op)     # iteration and meet oracle must agree
        report.add("nuc.closure-dual-oracle", inst.tag, is_nucleus(closed))
        result = quotient(host, closed)
        report.add("nuc.quotient-valid", inst.tag,
                   result.fsl.n == len(result.fixed))
        theta = congruence_from_nucleus(closed)
        back = nucleus_from_congruence(theta)
        report.add("nuc.congruence-roundtrip", inst.tag,
                   back.values == closed.values,
                   witness=None if back.values == closed.values
                   else (back.values, closed.values))
        collapsed = all(closed.values[c] == closed.values[d] for c, d in sat)
        report.add("nuc.collapses-generators", inst.tag, collapsed)
        return report

    return _with_redraws(count, seed, budget, run_one)


def laws_suite(count: int = 50, seed: int = 0,
               budget: int | None = None) -> CheckReport:
    """Re-validate drawn objects and the residuation adjunctions."""
    budget = budget or DEFAULT_ENUM_BUDGET

    def run_one(inst: Instance, rng: random.Random) -> CheckReport:
        report = CheckReport()
        q = inst.quantale
        rebuilt = validate_quantale(q.lattice, q.tensor, q.unit, name=q.name)
        report.add("laws.quantale", inst.tag,
                   rebuilt.commutative == q.commutative)

        lat = q.lattice
        ok = all(
            lat.leq(q.mul(v, u), w) == lat.leq(v, residuate(q, u, w))
            for v in range(q.n) for u in range(q.n) for w in range(q.n))
        report.add("laws.residuation-galois", inst.tag, ok)

        A = inst.fsl.module
        validate_module(q, A.carrier, A.action_rows(), name=A.name)
        report.add("laws.module", inst.tag, True)
        alat = A.carrier
        ok = all(
            alat.leq(A.act(v, a), b) == q.lattice.leq(
                v, module_residuate(A, a, b))
            for v in range(q.n) for a in range(A.n) for b in range(A.n))
        report.add("laws.module-residuation-galois", inst.tag, ok)

        validate_fsemilattice(A, inst.fsl.F, name=inst.fsl.name)
        report.add("laws.fsemilattice", inst.tag, True)
        validate_frame(q, inst.frame.points, inst.frame.r,
                       name=inst.frame.name)
        report.add("laws.frame", inst.tag, True)

        homs = enumerate_module_homs(A, inst.L, budget=budget)
        ok = all(is_module_hom(h, A, inst.L) for h in homs)
        report.add("laws.enumerated-homs-valid", inst.tag, ok,
                   witness=len(homs))
        return report

    return _with_redraws(count, seed, budget, run_one)


def hom_enumeration_cross_check(source: VModule, target: VModule,
                                budget: int | None = None) -> bool:
    """Backtracking enumeration must equal the brute-force filter."""
    fast = [h.values for h in enumerate_module_homs(source, target,
                                                    budget=budget)]
    slow = sorted(vec for vec in iter_product(range(target.n),
                                              repeat=source.n)
                  if is_module_hom(vec, source, target))
    return fast == slow
