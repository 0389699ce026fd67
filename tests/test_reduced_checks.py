"""The join-irreducible checks against the all-pairs checks they replaced.

``prenucleus_violation``, ``_hom_violation``, ``validate_module`` and the
adjunctions' lax-table check test binary laws only for (a, x) with x
join-irreducible.  The oracles below are
the all-pairs predicates as they were before that reduction.  Both must
accept and reject exactly the same inputs, report the same first broken
law, and every reduced witness must be a real failing pair.
"""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensalg.adjunctions import _lax_table_violation, eta_table, mu_table
from tensalg.errors import (ActionNotAssociative, ActionNotJoinPreserving,
                            UnitActionFails)
from tensalg.fsemilattice import FSemilattice, fj_apply_tuple
from tensalg.functors import hom_frame, tensor
from tensalg.generators import (chain_lattice, diamond_lattice, draw_instance,
                                quantale_bool, quantale_luk, quantale_min,
                                quantale_square_meet, self_module,
                                square_lattice)
from tensalg.lattice import FinLattice, enumerate_join_preserving_maps, validate_lattice
from tensalg.nucleus import EndoOperator, prenucleus_violation
from tensalg.vmodule import (VModule, _hom_violation, enumerate_module_homs,
                             power_module, validate_module)

SRC = Path(__file__).resolve().parent.parent / "src"


def pentagon_lattice() -> FinLattice:
    """N5: 0 < a < c < 1 and 0 < b < 1."""
    below = {"0": "0", "a": "0a", "c": "0ac", "b": "0b", "1": "0acb1"}
    labels = ["0", "a", "c", "b", "1"]
    leq = [[1 if x in below[y] else 0 for y in labels] for x in labels]
    return validate_lattice(labels, leq)


def named_lattices() -> dict[str, FinLattice]:
    """Table lattices, M3 and N5 among them, then powers."""
    c2, c3 = chain_lattice(2), chain_lattice(3)
    return {"chain2": c2, "chain3": c3, "chain4": chain_lattice(4),
            "square": square_lattice(), "M3": diamond_lattice(),
            "N5": pentagon_lattice(), "chain2^3": FinLattice.power(c2, 3),
            "chain3^2": FinLattice.power(c3, 2),
            "M3^2": FinLattice.power(diamond_lattice(), 2)}


def bool_module(lat: FinLattice, name: str = "A") -> VModule:
    """The two-element quantale acts on any lattice: 0 kills, 1 fixes."""
    q = quantale_bool()
    return validate_module(q, lat, [[lat.bottom] * lat.n, list(range(lat.n))],
                           name=name)


def quantale_modules() -> list[VModule]:
    out = []
    for q in (quantale_luk(3), quantale_square_meet()):
        m = self_module(q)
        out += [m, power_module(m, 2)]
    return out


LATTICES = list(named_lattices().items())
POWERS = [lat for _, lat in LATTICES if lat.is_power]
BOOL_MODULES = [bool_module(lat, name) for name, lat in LATTICES]
QUANTALE_MODULES = quantale_modules()
MODULES = BOOL_MODULES + QUANTALE_MODULES


# the all-pairs predicates ------------------------------------------------

def oracle_prenucleus_violation(op):
    host = op.host
    mod = host.module
    lat = mod.carrier
    j = op.values
    if len(j) != lat.n:
        return ("shape", len(j))
    for a in range(lat.n):
        if not lat.leq(a, j[a]):
            return ("inflationary", a)
    for a in range(lat.n):
        for b in range(lat.n):
            if lat.leq(a, b) and not lat.leq(j[a], j[b]):
                return ("monotone", a, b)
    for v in range(mod.quantale.n):
        for a in range(lat.n):
            if not lat.leq(mod.act(v, j[a]), j[mod.act(v, a)]):
                return ("action", v, a)
    for a in range(lat.n):
        if not lat.leq(host.F[j[a]], j[host.F[a]]):
            return ("operator", a)
    return None


def oracle_hom_violation(values, source, target):
    src, dst = source.carrier, target.carrier
    if len(values) != src.n:
        return ("shape", len(values))
    if values[src.bottom] != dst.bottom:
        return ("bottom", src.bottom)
    for a in range(src.n):
        for b in range(a + 1, src.n):
            if values[src.join2(a, b)] != dst.join2(values[a], values[b]):
                return ("join", a, b)
    for v in range(source.quantale.n):
        for a in range(src.n):
            if values[source.act(v, a)] != target.act(v, values[a]):
                return ("action", v, a)
    return None


def oracle_module_violation(quantale, carrier, action):
    """The first broken law of the old ``validate_module``, as a tag."""
    vlat, alat = quantale.lattice, carrier
    nv, na = quantale.n, carrier.n
    for v in range(nv):
        if action[v][alat.bottom] != alat.bottom:
            return ("bottom", v)
        for a in range(na):
            for b in range(a + 1, na):
                if action[v][alat.join2(a, b)] != alat.join2(action[v][a],
                                                             action[v][b]):
                    return ("join", v, a, b)
    for a in range(na):
        if action[vlat.bottom][a] != alat.bottom:
            return ("scalar-bottom", a)
        for u in range(nv):
            for v in range(u + 1, nv):
                if action[vlat.join2(u, v)][a] != alat.join2(action[u][a],
                                                             action[v][a]):
                    return ("scalar-join", u, v, a)
    for u in range(nv):
        for v in range(nv):
            for a in range(na):
                if action[u][action[v][a]] != action[quantale.mul(u, v)][a]:
                    return ("associative", u, v, a)
    for a in range(na):
        if action[quantale.unit][a] != a:
            return ("unit", a)
    return None


def oracle_lax_table_violation(fsl, target, frame, table):
    """The all-pairs lax-table check the adjunctions used before the
    per-coordinate reduction."""
    A = fsl.module
    tlat = target.carrier
    alat = A.carrier
    for x in range(A.n):
        for y in range(A.n):
            xy = alat.join2(x, y)
            if table[xy] != tuple(tlat.join2(a, b)
                                  for a, b in zip(table[x], table[y])):
                return ("join", x, y)
    for v in range(A.quantale.n):
        for x in range(A.n):
            if table[A.act(v, x)] != tuple(target.act(v, c)
                                           for c in table[x]):
                return ("action", v, x)
    for x in range(A.n):
        lhs = fj_apply_tuple(target, frame, table[x])
        rhs = table[fsl.F[x]]
        for i in range(frame.n):
            if not tlat.leq(lhs[i], rhs[i]):
                return ("lax", x, i)
    return None


# comparisons ---------------------------------------------------------------

def assert_prenucleus_agrees(op):
    new, old = prenucleus_violation(op), oracle_prenucleus_violation(op)
    assert (new is None) == (old is None), (new, old)
    if new is None:
        return
    assert new[0] == old[0], (new, old)
    if new[0] == "monotone":
        lat, j = op.host.module.carrier, op.values
        _, a, b = new
        assert lat.leq(a, b) and not lat.leq(j[a], j[b])
        assert any(lat.join2(a, x) == b for x in lat.join_irreducibles())
    else:
        assert new == old


def assert_hom_agrees(values, source, target):
    new, old = (_hom_violation(values, source, target),
                oracle_hom_violation(values, source, target))
    assert (new is None) == (old is None), (new, old)
    if new is None:
        return
    assert new[0] == old[0], (new, old)
    if new[0] == "join":
        src, dst = source.carrier, target.carrier
        _, a, b = new
        assert values[src.join2(a, b)] != dst.join2(values[a], values[b])
        assert b in src.join_irreducibles()
    else:
        assert new == old


def module_tag(quantale, carrier, action):
    """The first broken law ``validate_module`` reports, with the join
    witness (v, a, b) when it is a join in the carrier."""
    try:
        validate_module(quantale, carrier, action)
    except ActionNotJoinPreserving as e:
        msg = str(e)
        if msg.startswith("bottom_V *"):
            return ("scalar-bottom",)
        if msg.startswith("("):
            return ("scalar-join",)
        if msg.endswith("* bottom != bottom"):
            return ("bottom",)
        return ("join",) + e.witness
    except ActionNotAssociative:
        return ("associative",)
    except UnitActionFails:
        return ("unit",)
    return None


def assert_module_agrees(quantale, carrier, action):
    new = module_tag(quantale, carrier, action)
    old = oracle_module_violation(quantale, carrier, action)
    assert (new is None) == (old is None), (new, old)
    if new is None:
        return
    assert new[0] == old[0], (new, old)
    if new[0] == "join":
        _, v, a, b = new
        assert v == old[1]       # rows are checked in the same order
        row = action[v]
        assert row[carrier.join2(a, b)] != carrier.join2(row[a], row[b])
        assert b in carrier.join_irreducibles()


def identity_host(module: VModule) -> FSemilattice:
    return FSemilattice(module, tuple(range(module.n)))


# prenucleus monotonicity --------------------------------------------------

@st.composite
def inflationary_operators(draw):
    """An operator on a module host that passes the inflationary law, so
    that monotonicity is what decides: a v r(a) for a random r, or a v c
    for a constant c, which is monotone."""
    module = draw(st.sampled_from(MODULES))
    lat = module.carrier
    if draw(st.booleans()):
        r = draw(st.lists(st.integers(0, lat.n - 1), min_size=lat.n,
                          max_size=lat.n))
        values = tuple(lat.join2(a, r[a]) for a in range(lat.n))
    else:
        c = draw(st.integers(0, lat.n - 1))
        values = tuple(lat.join2(a, c) for a in range(lat.n))
    return EndoOperator(identity_host(module), values)


@settings(max_examples=300, deadline=None)
@given(op=inflationary_operators())
def test_prenucleus_matches_all_pairs_oracle(op):
    assert_prenucleus_agrees(op)


@pytest.mark.parametrize("module", [m for m in BOOL_MODULES if m.n <= 9],
                         ids=lambda m: m.name)
def test_prenucleus_exhaustive_on_small_lattices(module):
    """Every inflationary operator on every lattice of at most nine
    elements: M3, N5 and two powers among them."""
    lat = module.carrier
    host = identity_host(module)
    ups = [[b for b in range(lat.n) if lat.leq(a, b)] for a in range(lat.n)]
    for values in product(*ups):
        assert_prenucleus_agrees(EndoOperator(host, values))


def test_planted_non_monotone_operator():
    lat = chain_lattice(4)
    op = EndoOperator(identity_host(bool_module(lat)), (2, 1, 2, 3))
    assert oracle_prenucleus_violation(op)[0] == "monotone"
    assert prenucleus_violation(op) == ("monotone", 0, 1)


def test_planted_non_monotone_on_pentagon():
    """j sends a to the top and fixes the rest, so j(a) = 1 is not below
    j(c) = c although a < c; c is join-irreducible and the witness."""
    lat = pentagon_lattice()
    a, c = lat.labels.index("a"), lat.labels.index("c")
    values = list(range(lat.n))
    values[a] = lat.top
    op = EndoOperator(identity_host(bool_module(lat)), tuple(values))
    assert prenucleus_violation(op) == ("monotone", a, c)
    assert_prenucleus_agrees(op)


# module homomorphisms -----------------------------------------------------

TABLE_MODULES = [m for m in BOOL_MODULES if not m.carrier.is_power]
SMALL_PAIRS = [(s, t) for s in TABLE_MODULES for t in TABLE_MODULES
               if t.n ** s.n <= 3125]


@pytest.mark.parametrize("source,target", SMALL_PAIRS,
                         ids=lambda m: m.name)
def test_hom_violation_exhaustive_on_small_lattices(source, target):
    """Every value vector between small table lattices."""
    for values in product(range(target.n), repeat=source.n):
        assert_hom_agrees(values, source, target)


def power_homs(source: VModule, target: VModule) -> list[tuple[int, ...]]:
    """Joins over coordinates of join-preserving maps from the base."""
    plat, dst = source.carrier, target.carrier
    base_maps = enumerate_join_preserving_maps(plat.base, dst)
    out = []
    for choice in product(base_maps[:3], repeat=plat.arity):
        out.append(tuple(dst.join(choice[k][t[k]] for k in range(plat.arity))
                         for t in map(plat.decode, range(plat.n))))
    return out


POWER_PAIRS = [(s, t) for s in BOOL_MODULES if s.carrier.is_power
               for t in TABLE_MODULES]


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(POWER_PAIRS), data=st.data())
def test_hom_violation_on_powers_with_one_value_planted(pair, data):
    """A genuine hom out of a power with one value changed: the change
    breaks a join unless it happens to land on another hom."""
    source, target = pair
    homs = power_homs(source, target)
    values = list(data.draw(st.sampled_from(homs)))
    assert _hom_violation(tuple(values), source, target) is None
    k = data.draw(st.integers(0, source.n - 1))
    values[k] = data.draw(st.integers(0, target.n - 1))
    assert_hom_agrees(tuple(values), source, target)


QUANTALE_PAIRS = [(s, t) for s in QUANTALE_MODULES for t in QUANTALE_MODULES
                  if s.quantale is t.quantale and t.n <= 4]


@settings(max_examples=200, deadline=None)
@given(pair=st.sampled_from(QUANTALE_PAIRS), data=st.data())
def test_hom_violation_with_actions(pair, data):
    """Module homs over luk3 and the square quantale, from the quantale
    and from its square, with one value planted."""
    source, target = pair
    homs = enumerate_module_homs(source, target)
    values = list(data.draw(st.sampled_from(homs)).values)
    assert_hom_agrees(tuple(values), source, target)
    k = data.draw(st.integers(0, source.n - 1))
    values[k] = data.draw(st.integers(0, target.n - 1))
    assert_hom_agrees(tuple(values), source, target)


def test_planted_map_breaking_one_join():
    """On M3 send one atom to the top of the chain and the others to the
    bottom: bottom and every comparable pair are fine, but the two low
    atoms still join to the top."""
    m3, c2 = bool_module(diamond_lattice()), bool_module(chain_lattice(2))
    values = (0, 1, 0, 0, 1)
    assert oracle_hom_violation(values, m3, c2)[0] == "join"
    assert_hom_agrees(values, m3, c2)


# module actions -----------------------------------------------------------

@st.composite
def min3_actions(draw):
    """min3 acting on a lattice: row 0 kills, row 2 fixes, row 1 is drawn.
    Row 1 fixes bottom so its join law is what decides first."""
    lat = draw(st.sampled_from([lat for _, lat in LATTICES]))
    row1 = draw(st.lists(st.integers(0, lat.n - 1), min_size=lat.n,
                         max_size=lat.n))
    if draw(st.booleans()):
        # a meet with a fixed element: join-preserving on distributive
        # lattices, and sometimes not on M3 or N5
        c = draw(st.integers(0, lat.n - 1))
        row1 = [lat.meet([a, c]) for a in range(lat.n)]
    row1[lat.bottom] = lat.bottom
    return lat, [[lat.bottom] * lat.n, row1, list(range(lat.n))]


@settings(max_examples=300, deadline=None)
@given(drawn=min3_actions())
def test_validate_module_matches_all_pairs_oracle(drawn):
    lat, action = drawn
    assert_module_agrees(quantale_min(3), lat, action)


@pytest.mark.parametrize("q", [quantale_luk(4), quantale_square_meet()],
                         ids=lambda q: q.name)
def test_planted_action_breaking_one_join(q):
    """Change each entry of a valid action in turn: the old and new checks
    must judge every change alike, and some changes break a join."""
    action = [list(row) for row in q.tensor]
    assert oracle_module_violation(q, q.lattice, action) is None
    assert module_tag(q, q.lattice, action) is None
    planted = 0
    for v, a, x in product(range(q.n), repeat=3):
        if a == q.lattice.bottom:
            continue
        trial = [list(row) for row in action]
        trial[v][a] = x
        old = oracle_module_violation(q, q.lattice, trial)
        if old is not None and old[0] == "join":
            planted += 1
        assert_module_agrees(q, q.lattice, trial)
    assert planted > 0


@pytest.mark.parametrize("lat", POWERS, ids=repr)
def test_validate_module_on_powers(lat):
    """The bool action on a power, valid, then with one join broken."""
    assert_module_agrees(quantale_bool(), lat,
                         [[lat.bottom] * lat.n, list(range(lat.n))])
    q = quantale_min(3)
    top_row = list(range(lat.n))
    broken = list(range(lat.n))
    broken[lat.top] = lat.bottom
    assert_module_agrees(q, lat, [[lat.bottom] * lat.n, broken, top_row])
    assert module_tag(q, lat, [[lat.bottom] * lat.n, broken, top_row])[0] == "join"


# lax tables ----------------------------------------------------------------

def agreed_lax_rejection(fsl, target, frame, table):
    """Whether both checks reject the table, asserting the same verdict, the
    same kind of law (hom or lax), and a real witness with a
    join-irreducible x."""
    new = _lax_table_violation(fsl, target, frame, table)
    old = oracle_lax_table_violation(fsl, target, frame, table)
    assert (new is None) == (old is None), (new, old)
    if new is None:
        return False
    assert (new[0] == "lax") == (old[0] == "lax"), (new, old)
    src, dst = fsl.module.carrier, target.carrier
    if new[0] == "join":
        _, a, x, i = new
        assert x in src.join_irreducibles()
        assert table[src.join2(a, x)][i] != dst.join2(table[a][i], table[x][i])
    elif new[0] == "lax":
        _, x, i = new
        assert x in src.join_irreducibles()
        lhs = fj_apply_tuple(target, frame, table[x])
        assert not dst.leq(lhs[i], table[fsl.F[x]][i])
    return True


def test_lax_tables_match_all_pairs_oracle():
    """eta and mu tables of sixty suite instances, as built and with 29
    single entries changed each: the per-coordinate check must judge every
    table as the all-pairs check does."""
    compared = rejected = 0
    for idx in range(60):
        inst = draw_instance(0, idx)
        tm = tensor(inst.frame, inst.fsl)
        hf = hom_frame(inst.fsl, inst.L)
        for kind, fsl, target, frame, table in (
                ("eta", tm.fsl, tm.quotient, tm.frame, eta_table(tm)),
                ("mu", hf.fsl, hf.target, hf.frame, mu_table(hf))):
            assert not agreed_lax_rejection(fsl, target, frame, table)
            compared += 1
            if target.n == 1:
                continue
            rng = random.Random(f"{idx}:{kind}")
            for _ in range(29):
                x = rng.randrange(len(table))
                i = rng.randrange(frame.n)
                row = list(table[x])
                row[i] = rng.choice([v for v in range(target.n) if v != row[i]])
                trial = table[:x] + (tuple(row),) + table[x + 1:]
                rejected += agreed_lax_rejection(fsl, target, frame, trial)
                compared += 1
    assert rejected > 2000 and compared - rejected > 300


def test_planted_lax_only_fault():
    """mu of the bool module under F = id is lax there, and a hom in every
    coordinate; against the constant-bottom operator only the lax clause
    can fail, and it does, at a join-irreducible x."""
    q = quantale_bool()
    m = self_module(q)
    hf = hom_frame(FSemilattice(m, (0, 1)), m)
    table = mu_table(hf)
    assert not agreed_lax_rejection(hf.fsl, m, hf.frame, table)
    flat = FSemilattice(m, (m.carrier.bottom,) * m.n)
    assert agreed_lax_rejection(flat, m, hf.frame, table)
    bad = _lax_table_violation(flat, m, hf.frame, table)
    assert bad[0] == "lax" and bad[1] in m.carrier.join_irreducibles()


# typed errors survive python -O ---------------------------------------------

PLANTED_BAD_MORPHISMS = """
import sys
if not sys.flags.optimize:
    raise SystemExit("asserts are not stripped")

from tensalg.adjunctions import unit_nu
from tensalg.errors import FNotModuleHom
from tensalg.frames import validate_frame
from tensalg.fsemilattice import construct_FJ, validate_fsemilattice
from tensalg.functors import hom_frame, tensor, tensor_lax_hom
from tensalg.generators import quantale_bool, self_module
from tensalg.vmodule import ModuleHom


def outcome(build):
    try:
        build()
    except FNotModuleHom:
        return "raised FNotModuleHom"
    return "accepted"


q = quantale_bool()
m = self_module(q)
fsl = validate_fsemilattice(m, (0, 1))
frame = validate_frame(q, ["p", "q"], [[1, 0], [0, 1]])
tm = tensor(frame, fsl)
constant_top = ModuleHom(m, m, (1, 1))       # moves bottom: not a hom
print(outcome(lambda: tensor_lax_hom(frame, constant_top, tm, tm)))

# evaluation at p and at q are homs out of m^2 over the unrelated frame,
# but the hom frame of that power does not relate them, so mapping a frame
# that links p and q onto them is not a frame morphism
linked = validate_frame(q, ["p", "q"], [[1, 1], [1, 1]], name="K")
fslJ = construct_FJ(m, frame)
hf3 = hom_frame(fslJ, m)
print(outcome(lambda: unit_nu(linked, fslJ.module, hf3)))
"""


def test_bad_morphism_still_raises_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-O", "-c", PLANTED_BAD_MORPHISMS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised FNotModuleHom"] * 2
