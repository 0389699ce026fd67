"""Seeded workloads of the tensalg benchmark.

Every workload draws its instances from finite pools, so that the output
digest of every instance it can run is recorded in ``digests.json``.  The
``--seed`` picks pool members and the order in which they run; the library
only ever sees the inputs built here.

An instance key names one unit of work:

- ``suite:tri:<idx>``  the triangle identities on ``draw_instance(0, idx)``,
  redrawn with ``attempt + 1`` on ``SizeLimitExceeded`` as the suites do;
- ``suite:naturality`` ``naturality_suite(60, 0)``, counted as 60 instances;
- ``ladder:<q>:T<t>:<k>`` ``construct_FJ`` then ``tensor`` on the self module
  of quantale ``q`` over the ``k``-th seeded random frame with ``t`` points;
- ``dense:<q>:T<t>``   the same over the identity frame with F = identity;
- ``hom:<q>:T<t>:out`` ``enumerate_module_homs(A^t, A)``;
- ``hom:<q>:T<t>:in``  ``enumerate_module_homs(A, A^t)``;
- ``hom:<q>:T<t>:frame<k>`` ``hom_frame(construct_FJ(A, J_k), A)``.
"""

from __future__ import annotations

import hashlib
import importlib
import random
import sys
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

SUITE_SEED = 0             # the default seed of `tensalg check --suite all`
TRIANGLE_COUNT = 100       # triangle instances of that command
NATURALITY_COUNT = 60      # naturality instances of that command

TENSOR_QUANTALES = ("min4", "luk4", "sq-meet")
# |T| -> (instances per quantale in one pass, seeded frames in the pool);
# the costly top rung has a pool of one, so the seed does not move it
TENSOR_RUNGS = {2: (16, 32), 3: (4, 16), 4: (1, 1)}
# quantale_pool(4) of the library, in its order; all are commutative
HOM_QUANTALES = ("bool2", "min3", "min4", "luk3", "luk4", "mid3", "sq-meet")
HOM_RUNGS = (2, 3)
HOM_FRAME_POOL = 4

WORKLOADS = ("suite-sweep", "tensor-ladder", "tensor-dense", "hom-ladder")

MODULES = ("errors", "limits", "lattice", "quantale", "vmodule", "frames",
           "fsemilattice", "nucleus", "functors", "adjunctions", "generators")


@dataclass
class Instance:
    """One unit of work with inputs already built."""
    key: str
    run: Callable[[], object]
    digest: Callable[[object], str]
    weight: int = 1           # instances it stands for in the throughput
    power: int = 0            # power size |A|^|T| on a rung, else 0
    checks: Callable[[object], tuple[int, int]] | None = None


def drop_library():
    """Forget the imported tensalg, so that the next import runs afresh."""
    for name in [m for m in sys.modules
                 if m == "tensalg" or m.startswith("tensalg.")]:
        del sys.modules[name]


def load_library() -> SimpleNamespace:
    importlib.import_module("tensalg")
    return SimpleNamespace(**{
        m: importlib.import_module(f"tensalg.{m}") for m in MODULES})


# which instances a run uses ------------------------------------------------

def pools(workload: str) -> list[tuple[list[str], int]]:
    """The keys a workload can run, as (pool, count) groups.  One pass runs
    ``count`` keys drawn from each pool without repeats, except that a pool
    of one key runs that key ``count`` times."""
    if workload == "suite-sweep":
        return [([f"suite:tri:{idx}" for idx in range(TRIANGLE_COUNT)],
                 TRIANGLE_COUNT),
                (["suite:naturality"], 1)]
    if workload == "tensor-ladder":
        return [([f"ladder:{q}:T{t}:{k}" for k in range(pool)], per_pass)
                for q in TENSOR_QUANTALES
                for t, (per_pass, pool) in TENSOR_RUNGS.items()]
    if workload == "tensor-dense":
        return [([f"dense:{q}:T{t}"], per_pass)
                for q in TENSOR_QUANTALES
                for t, (per_pass, _) in TENSOR_RUNGS.items()]
    if workload == "hom-ladder":
        return [(pool, 1) for q in HOM_QUANTALES for t in HOM_RUNGS
                for pool in ([f"hom:{q}:T{t}:out"], [f"hom:{q}:T{t}:in"],
                             [f"hom:{q}:T{t}:frame{k}"
                              for k in range(HOM_FRAME_POOL)])]
    raise ValueError(f"unknown workload {workload!r}")


def choose(workload: str, seed: int) -> list[str]:
    """The instance keys of one pass, in running order."""
    rng = random.Random(f"{workload}:{seed}")
    keys = []
    for pool, count in pools(workload):
        keys += pool * count if len(pool) == 1 else rng.sample(pool, count)
    if workload != "suite-sweep":   # whose naturality suite runs last
        rng.shuffle(keys)
    return keys


def all_keys(workload: str) -> list[str]:
    """Every key the workload can choose, for recording digests."""
    return [key for pool, _ in pools(workload) for key in pool]


# building instances ----------------------------------------------------------

def make(lib: SimpleNamespace, key: str) -> Instance:
    """Build the inputs of one instance; the returned ``run`` does the work."""
    kind, *rest = key.split(":")
    if kind == "suite":
        return _suite(lib, key, rest)
    q = {x.name: x for x in lib.generators.quantale_pool(4)}[rest[0]]
    A = lib.generators.self_module(q)
    t = int(rest[1][1:])
    if kind == "ladder":
        rng = random.Random(f"ladder:{q.name}:{t}:{rest[2]}")
        J = lib.generators.random_frame(rng, q, t)
        H = lib.generators.random_fsl(rng, A)
        return Instance(key, partial(_tensor, lib, A, J, H), digest_tensor,
                        power=A.n ** t)
    if kind == "dense":
        bottom = q.lattice.bottom
        r = [[q.unit if i == j else bottom for j in range(t)]
             for i in range(t)]
        J = lib.frames.validate_frame(q, [f"p{i}" for i in range(t)], r)
        H = lib.fsemilattice.validate_fsemilattice(A, range(A.n))
        return Instance(key, partial(_tensor, lib, A, J, H), digest_tensor,
                        power=A.n ** t)
    if kind == "hom":
        op = rest[2]
        if op.startswith("frame"):
            rng = random.Random(f"hom:{q.name}:{t}:{op}")
            J = lib.generators.random_frame(rng, q, t)
            fj = lib.fsemilattice.construct_FJ(A, J)
            return Instance(key, partial(_hom_frame, lib, fj, A),
                            digest_hom_frame, power=A.n ** t)
        P = lib.vmodule.power_module(A, t)
        src, dst = (P, A) if op == "out" else (A, P)
        return Instance(key, partial(_homs, lib, src, dst), digest_homs,
                        power=A.n ** t)
    raise ValueError(f"unknown instance key {key!r}")


def _suite(lib: SimpleNamespace, key: str, rest: list[str]) -> Instance:
    if rest[0] == "naturality":
        def run():
            return 0, lib.generators.naturality_suite(NATURALITY_COUNT,
                                                      SUITE_SEED)
        return Instance(key, run, digest_report, weight=NATURALITY_COUNT,
                        checks=report_checks)
    idx = int(rest[1])
    budget = lib.limits.DEFAULT_ENUM_BUDGET
    first = lib.generators.draw_instance(SUITE_SEED, idx, 0, budget=budget)
    return Instance(key, partial(_triangles, lib, idx, first, budget),
                    digest_report, checks=report_checks)


def _triangles(lib, idx, inst, budget):
    """``run_all_triangles`` with the suites' redraw rule; returns the
    number of redraws and the report."""
    attempt = 0
    while True:
        try:
            return attempt, lib.adjunctions.run_all_triangles(
                inst.frame, inst.fsl, inst.L, budget=budget,
                instance=inst.tag)
        except lib.errors.SizeLimitExceeded:
            attempt += 1
            if attempt > 12:
                raise
            inst = lib.generators.draw_instance(SUITE_SEED, idx, attempt,
                                                budget=budget)


# the callables look the library up when they run, so that a tracer's
# wrappers installed after set-up are seen

def _homs(lib, src, dst):
    return lib.vmodule.enumerate_module_homs(src, dst)


def _hom_frame(lib, fj, A):
    return lib.functors.hom_frame(fj, A)


def _tensor(lib, A, J, H):
    return (lib.fsemilattice.construct_FJ(A, J),
            lib.functors.tensor(J, H))


# output digests ----------------------------------------------------------------

def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:20]


def report_checks(out) -> tuple[int, int]:
    """Checks run and checks failed in a suite output."""
    _, report = out
    return report.counts()


def digest_report(out) -> str:
    """Redraws, then every check name and result in order."""
    redraws, report = out
    return _hash((redraws, [(c.name, c.passed) for c in report.checks]))


def digest_tensor(out) -> str:
    """The operator table of A^T, and the tensor quotient as labelled
    elements with their order and action tables."""
    fj, tm = out
    Q = tm.quotient
    return _hash((fj.F, Q.n, Q.carrier.labels, Q.carrier.leq_rows(),
                  Q.action_rows()))


def digest_homs(out) -> str:
    """Hom value tables in their enumerated order."""
    return _hash([h.values for h in out])


def digest_hom_frame(out) -> str:
    """Points in order, then the relation table."""
    return _hash(([h.values for h in out.homs], out.frame.r))
