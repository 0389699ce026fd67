"""The six unit/counit transformations and mechanical adjunction checks.

Three adjoint situations are verified: tensoring with a frame against the
power construction, tensoring with an operator module against the hom frame,
and the hom frame against the contravariant power.  Every check is an exact
pointwise comparison; counits are evaluated through their defining
factorization (counit after projection equals the explicit join formula),
and the factorization itself is re-verified by constancy checks on the
generating pair sets and on closure orbits.

Second-level powers such as (L^T)^T routinely exceed the materialization cap.
The nucleus of a pair set is therefore applied lazily to individual tuples;
the pair sets stay small because they range over the inner carrier only.
Where even the inner carrier is too large for a full scan, checks fall back
to a deterministic stride sample and say so in their name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (BudgetExceeded, FNotModuleHom, GDoesNotRespectX,
                     NotAPrenucleus, SizeLimitExceeded)
from .frames import FrameHom, VFrame, is_frame_hom
from .fsemilattice import FSemilattice, construct_FJ, is_lax_morphism
from .functors import (HomFrame, TensorModule, delta_element, delta_tuple,
                       forward_tuple, hom_frame, hom_frame_contravariant,
                       hom_frame_covariant, tensor, tensor_frame_hom,
                       tensor_lax_hom)
from .vmodule import (ModuleHom, VModule, is_module_hom, module_residuate,
                      power_module)

SECOND_LEVEL_FULL = 4096     # walk a second-level power exhaustively below this
SECOND_LEVEL_SAMPLE = 128    # deterministic stride sample size above it
ORBIT_OP_BUDGET = 1_500_000  # cap on pair-scan work during closure orbit checks
HOM_FRAME_POINT_CAP = 200    # largest point count tolerated for lax validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    instance: str
    passed: bool
    witness: object = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f"  witness={self.witness!r}"
        return f"[{status}] {self.name} @ {self.instance}{extra}"


@dataclass
class CheckReport:
    checks: list[CheckResult] = field(default_factory=list)
    seed: int | None = None

    def add(self, name: str, instance: str, passed: bool, witness=None):
        self.checks.append(CheckResult(name, instance, passed, witness))

    def extend(self, other: "CheckReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def counts(self) -> tuple[int, int]:
        return len(self.checks), len(self.failures)


# lazy pair nucleus ----------------------------------------------------------

class TuplePairNucleus:
    """Least nucleus collapsing a pair set, applied to explicit tuples.

    Components live in a materialized module; the ambient power over them is
    never built.  Pairs are saturated under the scalar action; composite
    scalings collapse by associativity, so saturation adds at most one scaled
    copy of each pair per scalar.
    """

    def __init__(self, module: VModule, arity: int,
                 pairs: list[tuple[tuple, tuple]]):
        self.module = module
        self.arity = arity
        q = module.quantale
        seen = set()
        order = []
        work = []
        for p in pairs:
            if p not in seen:
                seen.add(p)
                order.append(p)
                work.append(p)
        while work:
            c, d = work.pop()
            for v in range(q.n):
                p = (self.act(v, c), self.act(v, d))
                if p not in seen:
                    seen.add(p)
                    order.append(p)
                    work.append(p)
        self.pairs = order
        self.oriented = order + [(d, c) for c, d in order if c != d]

    def act(self, v: int, t: tuple) -> tuple:
        m = self.module
        return tuple(m.act(v, x) for x in t)

    def leq(self, s: tuple, t: tuple) -> bool:
        lat = self.module.carrier
        return all(lat.leq(a, b) for a, b in zip(s, t))

    def join(self, s: tuple, t: tuple) -> tuple:
        lat = self.module.carrier
        return tuple(lat.join2(a, b) for a, b in zip(s, t))

    def j(self, t: tuple) -> tuple:
        out = t
        for c, d in self.oriented:
            if self.leq(d, t):
                out = self.join(out, c)
        return out

    def n(self, t: tuple) -> tuple:
        limit = self.arity * self.module.n + 2
        cur = t
        for _ in range(limit):
            nxt = self.j(cur)
            if nxt == cur:
                return cur
            cur = nxt
        raise NotAPrenucleus("lazy nucleus failed to stabilize", witness=t)

    def constant_on_pairs(self, fn) -> tuple | None:
        """First saturated pair a function distinguishes, or None."""
        for c, d in self.pairs:
            if fn(c) != fn(d):
                return (c, d)
        return None


def tensor_pairs_tuples(module: VModule, r, F) -> list[tuple[tuple, tuple]]:
    """Generating pairs of the tensor over an arbitrary relation table.

    Works on raw tuples so the host power never has to exist; `r` indexes the
    tuple positions and `F` is the operator table on the module.
    """
    arity = len(r)
    bottom = module.carrier.bottom
    lat = module.carrier
    out = []
    for x in range(module.n):
        fx = F[x]
        for i in range(arity):
            dlt = delta_tuple(arity, bottom, fx, i)
            c = tuple(lat.join2(module.act(r[i][k], x), dlt[k])
                      for k in range(arity))
            out.append((c, dlt))
    return out


def _second_level_elements(inner_n: int, arity: int):
    """All (or a deterministic stride sample of) tuples over an inner carrier."""
    total = inner_n ** arity
    if total <= SECOND_LEVEL_FULL:
        indices = range(total)
        full = True
    else:
        step = max(1, total // SECOND_LEVEL_SAMPLE)
        indices = range(0, total, step)
        full = False

    def decode(ix: int) -> tuple:
        out = []
        for _ in range(arity):
            out.append(ix % inner_n)
            ix //= inner_n
        return tuple(out)

    return [decode(ix) for ix in indices], full


def _orbit_seeds(seeds: list, scan_cost: int):
    """Trim a closure-orbit seed list so the pair scans stay affordable."""
    if not seeds or len(seeds) * scan_cost <= ORBIT_OP_BUDGET:
        return seeds, True
    keep = max(4, ORBIT_OP_BUDGET // max(1, scan_cost))
    step = max(1, len(seeds) // keep)
    return seeds[::step][:keep], False


# units and counits ----------------------------------------------------------

def eta_table(tm: TensorModule) -> tuple[tuple[int, ...], ...]:
    """Per carrier element, the tuple of tensor classes of its deltas."""
    n1 = tm.nucleus.values
    proj = tm.projection.values
    return tuple(
        tuple(proj[n1[delta_element(tm.power, x, i)]]
              for i in range(tm.frame.n))
        for x in range(tm.fsl.n))


def unit_eta(tm: TensorModule, cap: int | None = None
             ) -> tuple[ModuleHom, FSemilattice]:
    """The lax morphism into the power of the tensor, fully materialized."""
    target_fsl = construct_FJ(tm.quotient, tm.frame, cap=cap)
    plat = target_fsl.module.carrier
    values = tuple(plat.encode(row) for row in eta_table(tm))
    hom = ModuleHom(tm.fsl.module, target_fsl.module, values)
    if not is_lax_morphism(hom, tm.fsl, target_fsl):
        raise FNotModuleHom("eta is not lax", witness=values)
    return hom, target_fsl


def eta_violation(tm: TensorModule) -> tuple | None:
    """Lax-morphism laws for eta, checked coordinatewise on tensor classes.

    Works without materializing the power of the tensor: joins, action and
    the operator bound are all evaluated inside the quotient module.
    """
    A = tm.fsl.module
    Q = tm.quotient
    qlat = Q.carrier
    alat = A.carrier
    table = eta_table(tm)
    for x in range(A.n):
        for y in range(A.n):
            xy = alat.join2(x, y)
            if table[xy] != tuple(qlat.join2(a, b)
                                  for a, b in zip(table[x], table[y])):
                return ("join", x, y)
    for v in range(A.quantale.n):
        for x in range(A.n):
            if table[A.act(v, x)] != tuple(Q.act(v, c) for c in table[x]):
                return ("action", v, x)
    r = tm.frame.r
    for x in range(A.n):
        fx = tm.fsl.F[x]
        for i in range(tm.frame.n):
            lhs = Q.join(Q.act(r[i][k], table[x][k])
                         for k in range(tm.frame.n))
            if not qlat.leq(lhs, table[fx][i]):
                return ("lax", x, i)
    return None


def counit_eps(tm2: TensorModule) -> ModuleHom:
    """For a materialized tensor over a power: the factorization of the
    double-evaluation join through the projection, verified everywhere.

    `tm2` must be a tensor whose operator module is a power of the target.
    """
    powerL = tm2.fsl.module
    L = powerL.base
    plat2 = tm2.power.carrier
    plat1 = powerL.carrier

    def e_value(enc2: int) -> int:
        ybar = plat2.decode(enc2)
        return L.join(plat1.decode(ybar[i])[i] for i in range(tm2.frame.n))

    values = tuple(e_value(p) for p in tm2.fixed)
    hom = ModuleHom(tm2.quotient, L, values)
    proj = tm2.projection.values
    for y in range(tm2.power.n):
        if values[proj[y]] != e_value(y):
            raise GDoesNotRespectX(
                f"counit factorization breaks at power element {y}", witness=y)
    if not is_module_hom(hom, tm2.quotient, L):
        raise FNotModuleHom("counit is not a module hom", witness=values)
    return hom


def phi_tables(tm: TensorModule) -> list[tuple[int, ...]]:
    """Per frame point, the value table of the hom into the tensor given by
    closed deltas at that point (the transpose of eta)."""
    table = eta_table(tm)
    return [tuple(table[x][i] for x in range(tm.fsl.n))
            for i in range(tm.frame.n)]


def phi_violation(tm: TensorModule) -> tuple | None:
    """phi's points must be homs and the point map must not decrease r."""
    A = tm.fsl.module
    Q = tm.quotient
    points = phi_tables(tm)
    for i, vals in enumerate(points):
        if not is_module_hom(vals, A, Q):
            return ("point", i)
    lat = Q.quantale.lattice
    F = tm.fsl.F
    for i in range(tm.frame.n):
        for k in range(tm.frame.n):
            bound = lat.meet(
                module_residuate(Q, points[k][x], points[i][F[x]])
                for x in range(A.n))
            if not lat.leq(tm.frame.r[i][k], bound):
                return ("relation", i, k)
    return None


def unit_phi(tm: TensorModule, budget: int | None = None
             ) -> tuple[FrameHom, HomFrame]:
    """Frame map into the hom frame of the tensor; needs the full point
    enumeration, so it is for instances sized to allow it."""
    hf = hom_frame(tm.fsl, tm.quotient, budget=budget)
    mapping = tuple(hf.index_of(vals) for vals in phi_tables(tm))
    result = FrameHom(tm.frame, hf.frame, mapping)
    if not is_frame_hom(result, tm.frame, hf.frame):
        raise FNotModuleHom("phi is not a frame hom", witness=mapping)
    return result, hf


def hom_eval_join(target: VModule, point_tables, tup: tuple) -> int:
    """The join over all points of the point applied to its coordinate."""
    return target.join(point_tables[k][tup[k]] for k in range(len(tup)))


def unit_nu(frame: VFrame, powerL: VModule, hf3: HomFrame) -> FrameHom:
    """Each frame point maps to evaluation at that point; the evaluation
    table must occur among the enumerated homs."""
    plat = powerL.carrier
    mapping = []
    for i in range(frame.n):
        vals = tuple(plat.decode(x)[i] for x in range(powerL.n))
        mapping.append(hf3.index_of(vals))
    result = FrameHom(frame, hf3.frame, tuple(mapping))
    if not is_frame_hom(result, frame, hf3.frame):
        raise FNotModuleHom("nu is not a frame hom", witness=result.mapping)
    return result


def mu_table(hf: HomFrame) -> tuple[tuple[int, ...], ...]:
    """Per carrier element, its evaluations at all points."""
    return tuple(tuple(h.values[x] for h in hf.homs)
                 for x in range(hf.fsl.n))


def mu_violation(hf: HomFrame) -> tuple | None:
    """Join/action preservation and laxness of mu, coordinatewise, without
    materializing the power over the hom frame."""
    A = hf.fsl.module
    L = hf.target
    llat = L.carrier
    alat = A.carrier
    table = mu_table(hf)
    npts = hf.n
    for x in range(A.n):
        for y in range(A.n):
            xy = alat.join2(x, y)
            if table[xy] != tuple(llat.join2(a, b)
                                  for a, b in zip(table[x], table[y])):
                return ("join", x, y)
    for v in range(A.quantale.n):
        for x in range(A.n):
            if table[A.act(v, x)] != tuple(L.act(v, c) for c in table[x]):
                return ("action", v, x)
    r = hf.frame.r
    F = hf.fsl.F
    for x in range(A.n):
        for a in range(npts):
            lhs = L.join(L.act(r[a][b], table[x][b]) for b in range(npts))
            if not llat.leq(lhs, table[F[x]][a]):
                return ("lax", x, a)
    return None


def unit_mu(hf: HomFrame, cap: int | None = None
            ) -> tuple[ModuleHom, FSemilattice]:
    """The lax morphism into the power over the hom frame, materialized."""
    target_fsl = construct_FJ(hf.target, hf.frame, cap=cap)
    plat = target_fsl.module.carrier
    values = tuple(plat.encode(row) for row in mu_table(hf))
    hom = ModuleHom(hf.fsl.module, target_fsl.module, values)
    if not is_lax_morphism(hom, hf.fsl, target_fsl):
        raise FNotModuleHom("mu is not lax", witness=values)
    return hom, target_fsl


# triangle identities ---------------------------------------------------------

def check_triangles_adjunction1(frame: VFrame, fsl: FSemilattice, L: VModule,
                                tm: TensorModule | None = None,
                                instance: str = "") -> CheckReport:
    """Counit after tensored unit is the identity on the tensor, and the
    powered counit after the unit is the identity on the power of L."""
    report = CheckReport()
    tm = tm or tensor(frame, fsl)
    Q = tm.quotient
    proj = tm.projection.values
    plat = tm.power.carrier
    arity = frame.n
    r = frame.r

    bad = eta_violation(tm)
    report.add("adj1.eta-lax-morphism", instance, bad is None, bad)

    # first identity, on the tensor carrier: the composite sends the class
    # of p to the class-join of the closed deltas of p's coordinates
    eta_rows = eta_table(tm)
    witness = None
    for p in tm.fixed:
        tup = plat.decode(p)
        lhs = Q.join(eta_rows[tup[i]][i] for i in range(arity))
        if lhs != proj[p]:
            witness = (p, lhs, proj[p])
            break
    report.add("adj1.triangle-tensor", instance, witness is None, witness)

    # the counit on the tensor side is used through its defining equation
    # only; verify the evaluation join is constant on the pair set one level
    # up.  Small powers of the tensor get the full saturated pair set plus
    # closure orbits; large ones a stride sample of the generating pairs
    # (scalar saturation cannot break constancy of a join of coordinate
    # projections, the action distributes through it).
    if Q.n ** arity <= SECOND_LEVEL_FULL:
        fslQJ = construct_FJ(Q, frame)
        powerQ = fslQJ.module
        pq = powerQ.carrier
        lazy1a = TuplePairNucleus(
            powerQ, arity, tensor_pairs_tuples(powerQ, r, fslQJ.F))

        def e_val_q(ybar: tuple) -> int:
            return Q.join(pq.decode(ybar[i])[i] for i in range(arity))

        bad_pair = lazy1a.constant_on_pairs(e_val_q)
        report.add("adj1.eps-pair-constancy-full", instance,
                   bad_pair is None, bad_pair)

        seeds = [tuple(pq.encode(eta_rows[plat.decode(p)[i]])
                       for i in range(arity)) for p in tm.fixed]
        seeds, orbits_full = _orbit_seeds(seeds, len(lazy1a.oriented) * arity)
        witness = None
        for ybar in seeds:
            if e_val_q(lazy1a.n(ybar)) != e_val_q(ybar):
                witness = ybar
                break
        label = "adj1.eps-orbit-constancy" + ("" if orbits_full else "-sampled")
        report.add(label, instance, witness is None, witness)
    else:
        zs, _ = _second_level_elements(Q.n, arity)
        witness = None
        for z in zs:
            fz = tuple(Q.join(Q.act(r[i][k], z[k]) for k in range(arity))
                       for i in range(arity))
            for i in range(arity):
                # the pair at (z, i): the smear of z joined with the delta
                # of its operator image, against that delta
                e_c = Q.join(
                    Q.carrier.join2(Q.act(r[i][k], z[k]), fz[i])
                    if k == i else Q.act(r[i][k], z[k])
                    for k in range(arity))
                if e_c != fz[i]:
                    witness = (z, i, e_c, fz[i])
                    break
            if witness:
                break
        report.add("adj1.eps-pair-constancy-sampled", instance,
                   witness is None, witness)

    # second identity, on the power of L: close each delta lazily, then the
    # evaluation join must return the original coordinate
    fslLJ = construct_FJ(L, frame)
    powerL = fslLJ.module
    pl = powerL.carrier
    lazy1b = TuplePairNucleus(
        powerL, arity, tensor_pairs_tuples(powerL, r, fslLJ.F))

    def e_val(ybar: tuple) -> int:
        return L.join(pl.decode(ybar[i])[i] for i in range(arity))

    bad_pair = lazy1b.constant_on_pairs(e_val)
    report.add("adj1.eps-pair-constancy-power", instance, bad_pair is None,
               bad_pair)

    enc_bottom = pl.encode((L.carrier.bottom,) * arity)
    seeds = [(xbar, i) for xbar in range(powerL.n) for i in range(arity)]
    seeds, orbits_full = _orbit_seeds(seeds, len(lazy1b.oriented) * arity)
    witness = None
    for xbar, i in seeds:
        ybar = delta_tuple(arity, enc_bottom, xbar, i)
        closed = lazy1b.n(ybar)
        expect = pl.decode(xbar)[i]
        if e_val(closed) != expect or e_val(ybar) != expect:
            witness = (xbar, i, e_val(closed), expect)
            break
    label = "adj1.triangle-power" + ("" if orbits_full else "-sampled")
    report.add(label, instance, witness is None, witness)
    return report


def check_triangles_adjunction2(frame: VFrame, fsl: FSemilattice, L: VModule,
                                tm: TensorModule | None = None,
                                hf: HomFrame | None = None,
                                budget: int | None = None,
                                instance: str = "") -> CheckReport:
    """Evaluation counit after the tensored unit on the tensor, and the
    hom-framed counit after the unit on the hom frame."""
    report = CheckReport()
    tm = tm or tensor(frame, fsl)
    hf = hf or hom_frame(fsl, L, budget=budget)
    A = fsl.module
    Q = tm.quotient
    proj = tm.projection.values
    plat = tm.power.carrier
    bottomA = A.carrier.bottom

    bad = phi_violation(tm)
    report.add("adj2.phi-frame-hom", instance, bad is None, bad)

    # first identity, on the tensor carrier: push a fixed point forward
    # along phi, then take the evaluation join in the hom frame of the
    # tensor.  Points outside phi's image receive bottom and contribute
    # bottom to the join, so the composite only reads the phi tables.
    points = phi_tables(tm)
    witness = None
    for p in tm.fixed:
        tup = plat.decode(p)
        lhs = Q.join(points[i][tup[i]] for i in range(frame.n))
        if lhs != proj[p]:
            witness = (p, lhs, proj[p])
            break
    report.add("adj2.triangle-tensor", instance, witness is None, witness)

    # well-definedness of the evaluation counit on the tensor's hom frame:
    # the full point enumeration when the budget allows, otherwise the
    # relation restricted to phi's image, computed from the tables alone
    try:
        hf2 = hom_frame(fsl, Q, budget=budget)
    except BudgetExceeded:
        hf2 = None
    if hf2 is not None:
        tables2 = [h.values for h in hf2.homs]
        for vals in points:
            hf2.index_of(vals)   # phi's image must be among the points
        lazy2a = TuplePairNucleus(
            A, hf2.n, tensor_pairs_tuples(A, hf2.frame.r, fsl.F))
        bad_pair = lazy2a.constant_on_pairs(
            lambda tup: hom_eval_join(Q, tables2, tup))
        report.add("adj2.psi-pair-constancy-tensor-level", instance,
                   bad_pair is None, bad_pair)
    else:
        qres = [[module_residuate(Q, a, b) for b in range(Q.n)]
                for a in range(Q.n)]
        vlat = Q.quantale.lattice
        r_im = [[vlat.meet(qres[points[k][x]][points[i][fsl.F[x]]]
                           for x in range(A.n))
                 for k in range(frame.n)] for i in range(frame.n)]
        lazy2a = TuplePairNucleus(
            A, frame.n, tensor_pairs_tuples(A, r_im, fsl.F))
        bad_pair = lazy2a.constant_on_pairs(
            lambda tup: Q.join(points[i][tup[i]] for i in range(frame.n)))
        report.add("adj2.psi-pair-constancy-tensor-level-image", instance,
                   bad_pair is None, bad_pair)

    # second identity, on the hom frame: the closed delta at (x, point)
    # must evaluate back to the point's value at x
    lazy2b = TuplePairNucleus(
        A, hf.n, tensor_pairs_tuples(A, hf.frame.r, fsl.F))
    tables = [h.values for h in hf.homs]

    def f_val(tup: tuple) -> int:
        return hom_eval_join(L, tables, tup)

    bad_pair = lazy2b.constant_on_pairs(f_val)
    report.add("adj2.psi-pair-constancy", instance, bad_pair is None, bad_pair)

    seeds = [(a, x) for a in range(hf.n) for x in range(A.n)]
    seeds, orbits_full = _orbit_seeds(seeds, len(lazy2b.oriented) * hf.n)
    witness = None
    for a, x in seeds:
        dlt = delta_tuple(hf.n, bottomA, x, a)
        closed = lazy2b.n(dlt)
        got = f_val(closed)
        if got != tables[a][x] or f_val(dlt) != got:
            witness = (a, x, got, tables[a][x])
            break
    label = "adj2.triangle-homframe" + ("" if orbits_full else "-sampled")
    report.add(label, instance, witness is None, witness)
    return report


def check_triangles_adjunction3(frame: VFrame, fsl: FSemilattice, L: VModule,
                                hf: HomFrame | None = None,
                                hf3: HomFrame | None = None,
                                budget: int | None = None,
                                instance: str = "") -> CheckReport:
    """Power of the evaluation unit after mu on the power of L, and the
    hom-framed mu after the evaluation unit on the hom frame."""
    report = CheckReport()
    hf = hf or hom_frame(fsl, L, budget=budget)
    A = fsl.module

    bad = mu_violation(hf)
    report.add("adj3.mu-lax-morphism", instance, bad is None, bad)

    # first identity, on the power of L: evaluating mu of a tuple at the
    # unit's image of a frame point recovers the tuple's coordinate there
    fslLJ = construct_FJ(L, frame)
    powerL = fslLJ.module
    if hf3 is None:
        hf3 = hom_frame(fslLJ, L, budget=budget)
    if (hf3.n > HOM_FRAME_POINT_CAP
            or hf3.n * powerL.n * (hf3.n + powerL.n) > 5_000_000):
        raise SizeLimitExceeded(
            f"hom frame over {powerL.name} has {hf3.n} points; "
            "too large for lax validation")
    nu = unit_nu(frame, powerL, hf3)
    bad = mu_violation(hf3)
    report.add("adj3.mu-on-power-lax-morphism", instance, bad is None, bad)

    pl = powerL.carrier
    witness = None
    for x in range(powerL.n):
        row = pl.decode(x)
        got = tuple(hf3.homs[nu.mapping[i]].values[x] for i in range(frame.n))
        if got != row:
            witness = (x, got, row)
            break
    report.add("adj3.triangle-power", instance, witness is None, witness)

    # second identity, on the hom frame: evaluation at a point composed
    # with mu must return every point unchanged
    mu_rows = mu_table(hf)
    witness = None
    for a in range(hf.n):
        composite = tuple(mu_rows[x][a] for x in range(A.n))
        if composite != hf.homs[a].values:
            witness = (a, composite, hf.homs[a].values)
            break
    report.add("adj3.triangle-homframe", instance, witness is None, witness)

    # the evaluation unit on the hom frame itself: its target relation over
    # the unmaterialized power reduces to a meet over single values, because
    # the minimizing tuples are deltas; the frame-hom inequality follows
    lat = L.quantale.lattice
    r_prime = hf.frame.r
    witness = None
    for a in range(hf.n):
        for b in range(hf.n):
            bound = lat.meet(
                module_residuate(L, u, L.act(r_prime[a][b], u))
                for u in range(L.n))
            if not lat.leq(r_prime[a][b], bound):
                witness = (a, b, bound)
                break
        if witness:
            break
    report.add("adj3.nu-on-homframe-frame-hom", instance, witness is None,
               witness)

    # cross-check the delta reduction against the exhaustive meet when the
    # power over the hom frame is small enough to walk
    if hf.n > 0 and L.n ** hf.n <= SECOND_LEVEL_FULL:
        ws, _ = _second_level_elements(L.n, hf.n)
        witness = None
        for a in range(hf.n):
            for b in range(hf.n):
                reduced = lat.meet(
                    module_residuate(L, u, L.act(r_prime[a][b], u))
                    for u in range(L.n))
                exhaustive = lat.meet(
                    module_residuate(
                        L, w[b],
                        L.join(L.act(r_prime[a][c], w[c])
                               for c in range(hf.n)))
                    for w in ws)
                if reduced != exhaustive:
                    witness = (a, b, reduced, exhaustive)
                    break
            if witness:
                break
        report.add("adj3.nu-relation-reduction", instance, witness is None,
                   witness)
    return report


def run_all_triangles(frame: VFrame, fsl: FSemilattice, L: VModule,
                      budget: int | None = None,
                      instance: str = "") -> CheckReport:
    """All six triangle identities on one instance, sharing the tensor and
    the hom frame between adjunctions."""
    report = CheckReport()
    tm = tensor(frame, fsl)
    hf = hom_frame(fsl, L, budget=budget)
    report.extend(check_triangles_adjunction1(frame, fsl, L, tm=tm,
                                              instance=instance))
    report.extend(check_triangles_adjunction2(frame, fsl, L, tm=tm, hf=hf,
                                              budget=budget,
                                              instance=instance))
    report.extend(check_triangles_adjunction3(frame, fsl, L, hf=hf,
                                              budget=budget,
                                              instance=instance))
    return report


# naturality squares ----------------------------------------------------------

def check_naturality_eta(frame: VFrame, f: ModuleHom, H1: FSemilattice,
                         H2: FSemilattice, tm1: TensorModule,
                         tm2: TensorModule, instance: str = "") -> CheckReport:
    """Tensoring the map then powering commutes with the units."""
    report = CheckReport()
    tf = tensor_lax_hom(frame, f, tm1, tm2)
    t1 = eta_table(tm1)
    t2 = eta_table(tm2)
    witness = None
    for x in range(H1.n):
        lhs = tuple(tf.values[c] for c in t1[x])
        rhs = t2[f.values[x]]
        if lhs != rhs:
            witness = (x, lhs, rhs)
            break
    report.add("nat.eta", instance, witness is None, witness)
    return report


def check_naturality_eps(frame: VFrame, g: ModuleHom,
                         instance: str = "") -> CheckReport:
    """Both routes around the counit square agree.

    Both composites preserve joins and the second-level power is join
    generated by its deltas, so checking all deltas decides the square; a
    stride sample of general elements is layered on top.
    """
    report = CheckReport()
    L1, L2 = g.source, g.target
    arity = frame.n
    p1 = power_module(L1, arity)
    p2 = power_module(L2, arity)
    l1, l2 = p1.carrier, p2.carrier
    lifted = tuple(l2.encode(tuple(g.values[a] for a in l1.decode(x)))
                   for x in range(p1.n))

    def lhs_fn(xbar: tuple) -> int:
        return L2.join(l2.decode(lifted[xbar[i]])[i] for i in range(arity))

    def rhs_fn(xbar: tuple) -> int:
        return g.values[L1.join(l1.decode(xbar[i])[i] for i in range(arity))]

    fslL1J = construct_FJ(L1, frame)
    lazy = TuplePairNucleus(
        p1, arity, tensor_pairs_tuples(p1, frame.r, fslL1J.F))
    bad = lazy.constant_on_pairs(lhs_fn) or lazy.constant_on_pairs(rhs_fn)
    report.add("nat.eps-pair-constancy", instance, bad is None, bad)

    enc_bottom = l1.encode((L1.carrier.bottom,) * arity)
    xs = [delta_tuple(arity, enc_bottom, x, i)
          for x in range(p1.n) for i in range(arity)]
    extra, _ = _second_level_elements(p1.n, arity)
    witness = None
    for xbar in xs + extra:
        lhs = lhs_fn(xbar)
        rhs = rhs_fn(xbar)
        if lhs != rhs:
            witness = (xbar, lhs, rhs)
            break
    report.add("nat.eps", instance, witness is None, witness)
    return report


def check_naturality_phi(t: FrameHom, fsl: FSemilattice, tm1: TensorModule,
                         tm2: TensorModule, instance: str = "") -> CheckReport:
    """Post-composing with the tensored frame map commutes with phi,
    point table by point table."""
    report = CheckReport()
    tf = tensor_frame_hom(t, fsl, tm1, tm2)
    pts1 = phi_tables(tm1)
    pts2 = phi_tables(tm2)
    witness = None
    for i in range(t.source.n):
        lhs = tuple(tf.values[c] for c in pts1[i])
        rhs = pts2[t.mapping[i]]
        if lhs != rhs:
            witness = (i, lhs, rhs)
            break
    report.add("nat.phi", instance, witness is None, witness)
    return report


def check_naturality_psi(g: ModuleHom, fsl: FSemilattice, hf1: HomFrame,
                         hf2: HomFrame, instance: str = "") -> CheckReport:
    """Both routes around the evaluation counit square agree.

    As for the other counit square, the deltas decide; pair constancy
    covers well-definedness on the tensor over the hom frame.
    """
    report = CheckReport()
    A = fsl.module
    fh = hom_frame_covariant(hf1, g, hf2)
    tables1 = [h.values for h in hf1.homs]
    tables2 = [h.values for h in hf2.homs]

    def lhs_fn(x: tuple) -> int:
        return hom_eval_join(hf2.target, tables2,
                             forward_tuple(fh, A.carrier, x))

    def rhs_fn(x: tuple) -> int:
        return g.values[hom_eval_join(hf1.target, tables1, x)]

    lazy = TuplePairNucleus(
        A, hf1.n, tensor_pairs_tuples(A, hf1.frame.r, fsl.F))
    bad = lazy.constant_on_pairs(lhs_fn) or lazy.constant_on_pairs(rhs_fn)
    report.add("nat.psi-pair-constancy", instance, bad is None, bad)

    bottomA = A.carrier.bottom
    xs = [delta_tuple(hf1.n, bottomA, x, a)
          for x in range(A.n) for a in range(hf1.n)]
    extra, _ = _second_level_elements(A.n, hf1.n)
    witness = None
    for x in xs + extra:
        lhs = lhs_fn(x)
        rhs = rhs_fn(x)
        if lhs != rhs:
            witness = (x, lhs, rhs)
            break
    report.add("nat.psi", instance, witness is None, witness)
    return report


def check_naturality_nu(t: FrameHom, L: VModule,
                        hf3_target: HomFrame | None = None,
                        instance: str = "") -> CheckReport:
    """Precomposition with the contravariant power of the frame map, then
    evaluating, equals evaluating at the mapped point."""
    report = CheckReport()
    p1 = power_module(L, t.source.n)
    p2 = power_module(L, t.target.n)
    l1, l2 = p1.carrier, p2.carrier
    lt = tuple(l1.encode(tuple(l2.decode(x)[t.mapping[i]]
                               for i in range(t.source.n)))
               for x in range(p2.n))
    hom = ModuleHom(p2, p1, lt)
    report.add("nat.nu-power-map-hom", instance, is_module_hom(hom, p2, p1))

    witness = None
    for i in range(t.source.n):
        lhs = tuple(l1.decode(lt[x])[i] for x in range(p2.n))
        rhs = tuple(l2.decode(x)[t.mapping[i]] for x in range(p2.n))
        if lhs != rhs:
            witness = (i, lhs, rhs)
            break
        if hf3_target is not None:
            hf3_target.index_of(lhs)   # both sides must be known points
    report.add("nat.nu", instance, witness is None, witness)
    return report


def check_naturality_mu(f: ModuleHom, hf1: HomFrame, hf2: HomFrame,
                        instance: str = "") -> CheckReport:
    """Precomposition with the hom-framed map commutes with mu; the left
    route reads through the source tables, the right through the target's."""
    report = CheckReport()
    fh = hom_frame_contravariant(f, hf2, hf1)
    rows1 = mu_table(hf1)
    rows2 = mu_table(hf2)
    witness = None
    for x in range(hf1.fsl.n):
        fx = f.values[x]
        lhs = tuple(rows1[x][fh.mapping[b]] for b in range(hf2.n))
        rhs = rows2[fx]
        if lhs != rhs:
            witness = (x, lhs, rhs)
            break
    report.add("nat.mu", instance, witness is None, witness)
    return report
