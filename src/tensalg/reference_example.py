"""The worked example over the three-chain base, with embedded expectations.

A diamond operator module over the chain 0 < b < 1 (unit b), a two-element
target module, and the hom frame between them.  The expected hom tables,
relation table and evaluation table are embedded so the pipeline can verify
itself exactly; `tensalg paper-example` prints the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .functors import HomFrame, hom_frame
from .adjunctions import mu_table, mu_violation
from .fsemilattice import FSemilattice, fj_apply_tuple, validate_fsemilattice
from .lattice import validate_lattice
from .quantale import Quantale, validate_quantale
from .vmodule import VModule, validate_module

HOM_NAMES = ("f1", "f7", "f8")

# value tables over (0, a, b, c, 1), entries are indices into (0, 1)
EXPECTED_HOMS = (
    (0, 0, 0, 0, 0),
    (0, 0, 1, 1, 1),
    (0, 1, 1, 1, 1),
)

# relation entries are indices into (0, b, 1); row = first argument
EXPECTED_R = (
    (2, 0, 0),
    (2, 0, 0),
    (2, 2, 0),
)

# evaluation rows over (0, a, b, c, 1); columns follow HOM_NAMES
EXPECTED_MU = (
    (0, 0, 0),
    (0, 0, 1),
    (0, 1, 1),
    (0, 1, 1),
    (0, 1, 1),
)


def base_quantale() -> Quantale:
    lat = validate_lattice(["0", "b", "1"],
                           [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    tensor = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    return validate_quantale(lat, tensor, unit=1, name="V")


def diamond_module(q: Quantale) -> VModule:
    lat = validate_lattice(
        ["0", "a", "b", "c", "1"],
        [
            [1, 1, 1, 1, 1],
            [0, 1, 0, 0, 1],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ])
    action = [
        [0, 0, 0, 0, 0],     # bottom scalar annihilates
        [0, 1, 2, 3, 4],     # the unit acts as identity
        [0, 1, 4, 4, 4],     # the top collapses b, c into 1
    ]
    return validate_module(q, lat, action, name="A")


def tense_operator(module: VModule) -> FSemilattice:
    return validate_fsemilattice(module, (0, 0, 1, 1, 1), name="H")


def target_module(q: Quantale) -> VModule:
    lat = validate_lattice(["0", "1"], [[1, 1], [0, 1]])
    action = [[0, 0], [0, 1], [0, 1]]
    return validate_module(q, lat, action, name="L")


@dataclass(frozen=True)
class ReferenceExample:
    quantale: Quantale
    module: VModule
    fsl: FSemilattice
    target: VModule
    hf: HomFrame
    mu_rows: tuple[tuple[int, ...], ...]
    lax: bool
    strict: bool
    injective: bool


def build() -> ReferenceExample:
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    L = target_module(q)
    hf = hom_frame(H, L, name="J[H,L]")
    rows = mu_table(hf)
    lax = mu_violation(hf) is None
    injective = len(set(rows)) == len(rows)

    # strictness of the evaluation morphism: compare the powered operator
    # applied to a row against the row of the operator image
    strict = all(fj_apply_tuple(L, hf.frame, rows[x]) == rows[H.F[x]]
                 for x in range(A.n))
    return ReferenceExample(q, A, H, L, hf, rows, lax, strict, injective)


def verify(example: ReferenceExample | None = None) -> list[tuple[str, bool]]:
    """Exact comparisons against the embedded tables."""
    ex = example or build()
    got_homs = tuple(h.values for h in ex.hf.homs)
    got_r = tuple(tuple(row) for row in ex.hf.frame.r)
    checks = [
        ("hom-count", len(got_homs) == 3),
        ("hom-tables", got_homs == EXPECTED_HOMS),
        ("r-table", got_r == EXPECTED_R),
        ("mu-table", ex.mu_rows == EXPECTED_MU),
        ("lax", ex.lax),
        ("not-injective", not ex.injective),
    ]
    return checks
