"""The six unit/counit transformations and mechanical adjunction checks.

Three adjoint situations are verified: tensoring with a frame against the
power construction, tensoring with an operator module against the hom frame,
and the hom frame against the contravariant power.  Every check is an exact
pointwise comparison; counits are evaluated through their defining
factorization (counit after projection equals the explicit join formula),
built by :meth:`TensorModule.factor` where the tensor is materialized, and
the factorization itself is re-verified by constancy checks on the
generating pair sets and on closure orbits.

Second-level powers such as (L^T)^T routinely exceed the materialization cap.
The nucleus of a pair set is therefore applied lazily to individual tuples;
the pair sets stay small because they range over the join-irreducibles of
the inner carrier only, so every check here is exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

from .errors import (BudgetExceeded, CompositionMismatch, FNotModuleHom,
                     NotAPrenucleus, SizeLimitExceeded)
from .frames import FrameHom, VFrame, is_frame_hom
from .fsemilattice import (FSemilattice, construct_FJ, fj_apply_tuple,
                           is_lax_morphism)
from .functors import (HomFrame, TensorModule, delta_tuple, forward_tuple,
                       hom_frame, hom_frame_contravariant, hom_frame_covariant,
                       hom_frame_relation, tensor, tensor_frame_hom,
                       tensor_lax_hom, tensor_pairs)
from .nucleus import PairNucleus
from .vmodule import (ModuleHom, VModule, _hom_violation, is_module_hom,
                      power_module)

SECOND_LEVEL_FULL = 4096     # largest power adj3's relation oracle builds
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

class TuplePairNucleus(PairNucleus):
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
        lat = module.carrier
        super().__init__(
            pairs, range(module.quantale.n),
            lambda v, t: tuple(module.act(v, x) for x in t),
            lambda s, t: all(lat.leq(a, b) for a, b in zip(s, t)),
            lambda s, t: tuple(lat.join2(a, b) for a, b in zip(s, t)))

    def n(self, t: tuple) -> tuple:
        limit = self.arity * self.module.n + 2
        cur = t
        for _ in range(limit):
            nxt = self.j(cur)
            if nxt == cur:
                return cur
            cur = nxt
        raise NotAPrenucleus("lazy nucleus failed to stabilize", witness=t)


# units and counits ----------------------------------------------------------

def _lax_table_violation(fsl: FSemilattice, target: VModule, frame: VFrame,
                         table) -> tuple | None:
    """Lax-morphism laws for the map sending x to the tuple ``table[x]`` of
    the power of ``target`` over ``frame``, without materializing that power.

    A map into a power is a module hom exactly when each coordinate is (the
    power is a biproduct), so each column x -> table[x][i] goes through
    :func:`tensalg.vmodule._hom_violation`, whose tag gets ``i`` appended.
    The lax clause F_J(table[x]) <= table[F x] is then checked at
    join-irreducible x only, which is exact: with the columns homs and F a
    module endomorphism, both sides preserve joins in x and are bottom at
    bottom, so at x = x1 v ... v xk each side is the join of its values at
    the xj, and the clause at every xj gives it at x.
    """
    A = fsl.module
    for i in range(frame.n):
        bad = _hom_violation(tuple(row[i] for row in table), A, target)
        if bad is not None:
            return bad + (i,)
    leq = target.carrier.leq
    for x in A.carrier.join_irreducibles():
        lhs = fj_apply_tuple(target, frame, table[x])
        rhs = table[fsl.F[x]]
        for i in range(frame.n):
            if not leq(lhs[i], rhs[i]):
                return ("lax", x, i)
    return None


def _materialized_unit(fsl: FSemilattice, target: VModule, frame: VFrame,
                       table, cap: int | None, what: str
                       ) -> tuple[ModuleHom, FSemilattice]:
    """The map x -> ``table[x]`` into the materialized power of ``target``
    over ``frame``, checked to be lax."""
    target_fsl = construct_FJ(target, frame, cap=cap)
    plat = target_fsl.module.carrier
    values = tuple(plat.encode(row) for row in table)
    hom = ModuleHom(fsl.module, target_fsl.module, values)
    if not is_lax_morphism(hom, fsl, target_fsl):
        raise FNotModuleHom(f"{what} is not lax", witness=values)
    return hom, target_fsl


def _require_power(module: VModule, frame: VFrame, what: str):
    if not module.is_power or module.carrier.arity != frame.n:
        raise CompositionMismatch(
            f"{what} needs a power over {frame.name}, got {module.name}",
            witness=(module.name, frame.name))


def eta_table(tm: TensorModule) -> tuple[tuple[int, ...], ...]:
    """Per carrier element, the tuple of tensor classes of its deltas."""
    proj = tm.projection.values
    enc = tm.power.carrier.encode
    bottom = tm.fsl.module.carrier.bottom
    arity = tm.frame.n
    return tuple(
        tuple(proj[enc(delta_tuple(arity, bottom, x, i))]
              for i in range(arity))
        for x in range(tm.fsl.n))


def unit_eta(tm: TensorModule, cap: int | None = None
             ) -> tuple[ModuleHom, FSemilattice]:
    """The lax morphism into the power of the tensor, fully materialized."""
    return _materialized_unit(tm.fsl, tm.quotient, tm.frame, eta_table(tm),
                              cap, "eta")


def eta_violation(tm: TensorModule) -> tuple | None:
    """Lax-morphism laws for eta, checked coordinatewise on tensor classes."""
    return _lax_table_violation(tm.fsl, tm.quotient, tm.frame, eta_table(tm))


def counit_eps(tm2: TensorModule) -> ModuleHom:
    """For a materialized tensor over a power: the double-evaluation join,
    factored through the projection by :meth:`TensorModule.factor`.

    `tm2` must be a tensor whose operator module is a power of the target.
    """
    powerL = tm2.fsl.module
    _require_power(powerL, tm2.frame, "counit_eps")
    decode = tm2.power.carrier.decode
    g = [power_eval_join(powerL, decode(y)) for y in range(tm2.power.n)]
    return tm2.factor(g, powerL.base, "counit")


def phi_tables(tm: TensorModule) -> list[tuple[int, ...]]:
    """Per frame point, the value table of the hom into the tensor given by
    closed deltas at that point (the transpose of eta)."""
    table = eta_table(tm)
    return [tuple(table[x][i] for x in range(tm.fsl.n))
            for i in range(tm.frame.n)]


def phi_violation(tm: TensorModule, points, bound) -> tuple | None:
    """phi's points, given as the phi tables, must be homs, and the point
    map must not decrease r; ``bound`` is the relation between the points.
    """
    A = tm.fsl.module
    Q = tm.quotient
    for i, vals in enumerate(points):
        if not is_module_hom(vals, A, Q):
            return ("point", i)
    lat = Q.quantale.lattice
    for i in range(tm.frame.n):
        for k in range(tm.frame.n):
            if not lat.leq(tm.frame.r[i][k], bound[i][k]):
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


def power_eval_join(power: VModule, ybar: tuple) -> int:
    """The join over positions i of coordinate i of the element ``ybar[i]``
    of a power module: the evaluation counit on a tuple of tuples."""
    decode = power.carrier.decode
    return power.base.join(decode(y)[i] for i, y in enumerate(ybar))


def hom_eval_join(target: VModule, point_tables, tup: tuple) -> int:
    """The join over all points of the point applied to its coordinate."""
    return target.join(point_tables[k][tup[k]] for k in range(len(tup)))


def unit_nu(frame: VFrame, powerL: VModule, hf3: HomFrame) -> FrameHom:
    """Each frame point maps to evaluation at that point; the evaluation
    table must occur among the enumerated homs."""
    _require_power(powerL, frame, "unit_nu")
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
    return _lax_table_violation(hf.fsl, hf.target, hf.frame, mu_table(hf))


def unit_mu(hf: HomFrame, cap: int | None = None
            ) -> tuple[ModuleHom, FSemilattice]:
    """The lax morphism into the power over the hom frame, materialized."""
    return _materialized_unit(hf.fsl, hf.target, hf.frame, mu_table(hf),
                              cap, "mu")


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
    # only; verify the evaluation join is constant on the saturated pair set
    # one level up, and on the closure orbit of every pushed-forward class
    fslQJ = construct_FJ(Q, frame)
    powerQ = fslQJ.module
    pq = powerQ.carrier
    lazy1a = TuplePairNucleus(powerQ, arity, tensor_pairs(powerQ, r, fslQJ.F))
    e_val_q = partial(power_eval_join, powerQ)
    bad_pair = lazy1a.constant_on_pairs(e_val_q)
    report.add("adj1.eps-pair-constancy-full", instance, bad_pair is None,
               bad_pair)

    witness = None
    for p in tm.fixed:
        ybar = tuple(pq.encode(eta_rows[plat.decode(p)[i]])
                     for i in range(arity))
        if e_val_q(lazy1a.n(ybar)) != e_val_q(ybar):
            witness = ybar
            break
    report.add("adj1.eps-orbit-constancy", instance, witness is None, witness)

    # second identity, on the power of L: close each delta lazily, then the
    # evaluation join must return the original coordinate
    fslLJ = construct_FJ(L, frame)
    powerL = fslLJ.module
    pl = powerL.carrier
    lazy1b = TuplePairNucleus(
        powerL, arity, tensor_pairs(powerL, r, fslLJ.F))
    e_val = partial(power_eval_join, powerL)
    bad_pair = lazy1b.constant_on_pairs(e_val)
    report.add("adj1.eps-pair-constancy-power", instance, bad_pair is None,
               bad_pair)

    enc_bottom = pl.encode((L.carrier.bottom,) * arity)
    witness = None
    for xbar, i in product(range(powerL.n), range(arity)):
        ybar = delta_tuple(arity, enc_bottom, xbar, i)
        closed = lazy1b.n(ybar)
        expect = pl.decode(xbar)[i]
        if e_val(closed) != expect or e_val(ybar) != expect:
            witness = (xbar, i, e_val(closed), expect)
            break
    report.add("adj1.triangle-power", instance, witness is None, witness)
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

    points = phi_tables(tm)
    r_points = hom_frame_relation(fsl, Q, points)
    bad = phi_violation(tm, points, r_points)
    report.add("adj2.phi-frame-hom", instance, bad is None, bad)

    # first identity, on the tensor carrier: push a fixed point forward
    # along phi, then take the evaluation join in the hom frame of the
    # tensor.  Points outside phi's image receive bottom and contribute
    # bottom to the join, so the composite only reads the phi tables.
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
        label = "adj2.psi-pair-constancy-tensor-level-image"
        tables2, r2 = points, r_points
    else:
        for vals in points:
            hf2.index_of(vals)   # phi's image must be among the points
        label = "adj2.psi-pair-constancy-tensor-level"
        tables2, r2 = [h.values for h in hf2.homs], hf2.frame.r
    lazy2a = TuplePairNucleus(A, len(tables2), tensor_pairs(A, r2, fsl.F))
    bad_pair = lazy2a.constant_on_pairs(
        lambda tup: hom_eval_join(Q, tables2, tup))
    report.add(label, instance, bad_pair is None, bad_pair)

    # second identity, on the hom frame: the closed delta at (x, point)
    # must evaluate back to the point's value at x
    lazy2b = TuplePairNucleus(
        A, hf.n, tensor_pairs(A, hf.frame.r, fsl.F))
    tables = [h.values for h in hf.homs]

    def f_val(tup: tuple) -> int:
        return hom_eval_join(L, tables, tup)

    bad_pair = lazy2b.constant_on_pairs(f_val)
    report.add("adj2.psi-pair-constancy", instance, bad_pair is None, bad_pair)

    witness = None
    for a, x in product(range(hf.n), range(A.n)):
        dlt = delta_tuple(hf.n, bottomA, x, a)
        closed = lazy2b.n(dlt)
        got = f_val(closed)
        if got != tables[a][x] or f_val(dlt) != got:
            witness = (a, x, got, tables[a][x])
            break
    report.add("adj2.triangle-homframe", instance, witness is None, witness)
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
    # the minimizing tuples are deltas.  Between the evaluations at a and b
    # it is srel(r'(a,b)), where srel(v) = meet_u (u -> v*u) is the
    # hom-frame relation of scaling by v against the unit scaling on
    # (L, identity); the frame-hom inequality follows
    lat = L.quantale.lattice
    r_prime = hf.frame.r
    scalings = [tuple(L.act(v, u) for u in range(L.n))
                for v in range(L.quantale.n)]
    unit = L.quantale.unit
    srel = [row[unit] for row in hom_frame_relation(
        FSemilattice(L, range(L.n)), L, scalings)]
    witness = None
    for a in range(hf.n):
        for b in range(hf.n):
            if not lat.leq(r_prime[a][b], srel[r_prime[a][b]]):
                witness = (a, b, srel[r_prime[a][b]])
                break
        if witness:
            break
    report.add("adj3.nu-on-homframe-frame-hom", instance, witness is None,
               witness)

    # cross-check the delta reduction against the relation between the
    # evaluations over the whole power, when it is small enough to build;
    # F_J's table is read here, not validated, so construct_FJ's module
    # check would only add cost
    if hf.n > 0 and L.n ** hf.n <= SECOND_LEVEL_FULL:
        power = power_module(L, hf.n)
        ws = [power.carrier.decode(w) for w in range(power.n)]
        F = [power.carrier.encode(fj_apply_tuple(L, hf.frame, w)) for w in ws]
        evals = [tuple(w[a] for w in ws) for a in range(hf.n)]
        exhaustive = hom_frame_relation(FSemilattice(power, F), L, evals)
        witness = None
        for a in range(hf.n):
            for b in range(hf.n):
                reduced = srel[r_prime[a][b]]
                if reduced != exhaustive[a][b]:
                    witness = (a, b, reduced, exhaustive[a][b])
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


def _counit_square(name: str, module: VModule, r, F, lhs_fn, rhs_fn,
                   instance: str) -> CheckReport:
    """Both routes around a counit square on tuples over ``module``: each
    must be constant on the saturated tensor pairs of ``r`` and ``F``, and
    the two must agree on every delta, which decides the square because
    both preserve joins and every tuple is the join of its deltas."""
    report = CheckReport()
    arity = len(r)
    lazy = TuplePairNucleus(module, arity, tensor_pairs(module, r, F))
    bad = lazy.constant_on_pairs(lhs_fn) or lazy.constant_on_pairs(rhs_fn)
    report.add(f"{name}-pair-constancy", instance, bad is None, bad)

    bottom = module.carrier.bottom
    xs = [delta_tuple(arity, bottom, x, i)
          for x in range(module.n) for i in range(arity)]
    witness = None
    for x in xs:
        lhs = lhs_fn(x)
        rhs = rhs_fn(x)
        if lhs != rhs:
            witness = (x, lhs, rhs)
            break
    report.add(name, instance, witness is None, witness)
    return report


def check_naturality_eps(frame: VFrame, g: ModuleHom,
                         instance: str = "") -> CheckReport:
    """Both routes around the counit square agree."""
    L1, L2 = g.source, g.target
    arity = frame.n
    p1 = power_module(L1, arity)
    p2 = power_module(L2, arity)
    l1, l2 = p1.carrier, p2.carrier
    lifted = tuple(l2.encode(tuple(g.values[a] for a in l1.decode(x)))
                   for x in range(p1.n))

    def lhs_fn(xbar: tuple) -> int:
        return power_eval_join(p2, [lifted[x] for x in xbar])

    def rhs_fn(xbar: tuple) -> int:
        return g.values[power_eval_join(p1, xbar)]

    fslL1J = construct_FJ(L1, frame)
    return _counit_square("nat.eps", p1, frame.r, fslL1J.F, lhs_fn, rhs_fn,
                          instance)


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
    """Both routes around the evaluation counit square agree; pair
    constancy covers well-definedness on the tensor over the hom frame."""
    A = fsl.module
    fh = hom_frame_covariant(hf1, g, hf2)
    tables1 = [h.values for h in hf1.homs]
    tables2 = [h.values for h in hf2.homs]

    def lhs_fn(x: tuple) -> int:
        return hom_eval_join(hf2.target, tables2,
                             forward_tuple(fh, A.carrier, x))

    def rhs_fn(x: tuple) -> int:
        return g.values[hom_eval_join(hf1.target, tables1, x)]

    return _counit_square("nat.psi", A, hf1.frame.r, fsl.F, lhs_fn, rhs_fn,
                          instance)


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
