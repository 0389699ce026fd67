"""Unit/counit checks on fixed instances; the bulk runs in the suites."""

import random

import pytest

from tensalg import adjunctions
from tensalg.adjunctions import (TuplePairNucleus, check_naturality_eps,
                                 check_naturality_eta, check_naturality_mu,
                                 check_naturality_nu,
                                 check_triangles_adjunction1,
                                 check_triangles_adjunction2,
                                 check_triangles_adjunction3, counit_eps,
                                 eta_table, mu_table, mu_violation,
                                 run_all_triangles, unit_mu, unit_nu)
from tensalg.errors import CompositionMismatch
from tensalg.frames import FrameHom, validate_frame
from tensalg.fsemilattice import validate_fsemilattice
from tensalg.functors import (hom_frame, tensor, tensor_pairs,
                              tensor_pairs_encoded)
from tensalg.generators import (naturality_suite, quantale_bool,
                                quantale_pool, random_frame, random_fsl,
                                self_module, triangles_suite)
from tensalg.reference_example import (base_quantale, diamond_module,
                                       target_module, tense_operator)
from tensalg.vmodule import ModuleHom


def crisp_instance():
    q = quantale_bool()
    m = self_module(q)
    fsl = validate_fsemilattice(m, (0, 1), name="Hc")
    frame = validate_frame(q, ["p", "q"], [[1, 1], [0, 1]])
    return q, m, fsl, frame


def example_instance():
    q = base_quantale()
    A = diamond_module(q)
    H = tense_operator(A)
    L = target_module(q)
    frame = validate_frame(q, ["p", "q"], [[1, 0], [2, 1]])
    return q, A, H, L, frame


def test_all_triangles_on_crisp_instance():
    q, m, fsl, frame = crisp_instance()
    report = run_all_triangles(frame, fsl, m, instance="crisp")
    assert report.passed, [c.line() for c in report.failures]
    names = {c.name for c in report.checks}
    assert any(n.startswith("adj1.triangle") for n in names)
    assert any(n.startswith("adj2.triangle") for n in names)
    assert any(n.startswith("adj3.triangle") for n in names)


def test_all_triangles_on_worked_example():
    q, A, H, L, frame = example_instance()
    report = run_all_triangles(frame, H, L, instance="example")
    assert report.passed, [c.line() for c in report.failures]


def test_eta_collapses_along_example_frame():
    """The demo frame's tensor is a single class, so every eta row lands on
    the same class."""
    q, A, H, L, frame = example_instance()
    tm = tensor(frame, H)
    rows = eta_table(tm)
    assert len(set(rows)) == 1


def test_mu_on_example_is_strict_and_lax():
    """The evaluation morphism commutes with the operators exactly; the
    worked example's r table makes that visible by direct computation."""
    q, A, H, L, frame = example_instance()
    hf = hom_frame(H, L)
    assert mu_violation(hf) is None
    rows = mu_table(hf)
    r = hf.frame.r
    for x in range(A.n):
        powered = tuple(
            L.join(L.act(r[a][b], rows[x][b]) for b in range(hf.n))
            for a in range(hf.n))
        assert powered == rows[H.F[x]]


def test_unit_mu_is_materialized_lax_hom():
    q, A, H, L, frame = example_instance()
    hf = hom_frame(H, L)
    hom, power_fsl = unit_mu(hf)
    assert hom.source is A
    assert power_fsl.module.n == L.n ** hf.n


def test_triangle_checkers_individually():
    q, m, fsl, frame = crisp_instance()
    for checker in (check_triangles_adjunction1,
                    check_triangles_adjunction2,
                    check_triangles_adjunction3):
        report = checker(frame, fsl, m, instance="crisp")
        assert report.passed, [c.line() for c in report.failures]


def test_naturality_eta_identity():
    q, m, fsl, frame = crisp_instance()
    tm = tensor(frame, fsl)
    ident = ModuleHom(m, m, (0, 1))
    report = check_naturality_eta(frame, ident, fsl, fsl, tm, tm, "id")
    assert report.passed


def test_naturality_eps_identity():
    q, m, fsl, frame = crisp_instance()
    ident = ModuleHom(m, m, (0, 1))
    report = check_naturality_eps(frame, ident, "id")
    assert report.passed


def test_naturality_mu_and_nu_on_example():
    q, A, H, L, frame = example_instance()
    hf = hom_frame(H, L)
    ident = ModuleHom(A, A, tuple(range(A.n)))
    report = check_naturality_mu(ident, hf, hf, "id")
    assert report.passed
    t = FrameHom(frame, frame, (0, 1))
    report = check_naturality_nu(t, L, instance="id")
    assert report.passed


def test_suites_small_counts():
    assert triangles_suite(count=6, seed=3).passed
    assert naturality_suite(count=4, seed=3).passed


def identity_diamond_instance():
    """The diamond with F = identity over the diagonal frame: nothing
    collapses, so the tensor is the whole power and |Q| = 25."""
    q = base_quantale()
    A = diamond_module(q)
    H = validate_fsemilattice(A, range(A.n), name="Hid")
    L = target_module(q)
    frame = validate_frame(q, ["p", "q"], [[1, 0], [0, 1]])
    assert tensor(frame, H).quotient.n == 25
    return H, L, frame


@pytest.mark.parametrize("setting, expected", [
    (("ORBIT_OP_BUDGET", 1), {"adj1.eps-orbit-constancy-sampled",
                              "adj1.triangle-power-sampled",
                              "adj2.triangle-homframe-sampled"}),
    (("SECOND_LEVEL_FULL", 1), {"adj1.eps-pair-constancy-sampled"}),
])
def test_sampled_fallbacks_are_reached_and_pass(monkeypatch, setting,
                                                expected):
    H, L, frame = identity_diamond_instance()
    monkeypatch.setattr(adjunctions, *setting)
    report = check_triangles_adjunction1(frame, H, L, instance="id")
    report.extend(check_triangles_adjunction2(frame, H, L, instance="id"))
    assert expected <= {c.name for c in report.checks}
    assert report.passed, [c.line() for c in report.failures]


def test_image_fallback_is_reached_and_passes():
    """Hom(A, L) fits in the budget but Hom(A, Q) does not, so the
    tensor-level constancy runs on the relation restricted to phi's image."""
    H, L, frame = identity_diamond_instance()
    report = check_triangles_adjunction2(frame, H, L, budget=14,
                                         instance="id")
    names = {c.name for c in report.checks}
    assert "adj2.psi-pair-constancy-tensor-level-image" in names
    assert "adj2.psi-pair-constancy-tensor-level" not in names
    assert report.passed, [c.line() for c in report.failures]


def test_typed_errors_on_non_power_modules():
    """counit_eps and unit_nu read coordinates, so a module that is not a
    power over the frame is a composition mismatch, not a crash."""
    q, A, H, L, frame = example_instance()
    with pytest.raises(CompositionMismatch):
        counit_eps(tensor(frame, H))
    with pytest.raises(CompositionMismatch):
        unit_nu(frame, A, hom_frame(H, L))


@pytest.mark.parametrize("q", [q for q in quantale_pool(4) if q.commutative],
                         ids=lambda q: q.name)
def test_lazy_nucleus_matches_materialized_tensor(q):
    """The tuple nucleus of the tensor pairs closes every power element to
    the element the materialized tensor's nucleus gives, and the encoded
    pairs are the tuple pairs encoded."""
    A = self_module(q)
    for t in (1, 2, 3):
        for k in range(3):
            rng = random.Random(f"lazy:{q.name}:{t}:{k}")
            J = random_frame(rng, q, t)
            H = random_fsl(rng, A)
            tm = tensor(J, H)
            lat = tm.power.carrier
            pairs = tensor_pairs(A, J.r, H.F)
            assert ([(lat.encode(c), lat.encode(d)) for c, d in pairs]
                    == tensor_pairs_encoded(tm.power, J, H))
            lazy = TuplePairNucleus(A, t, pairs)
            for a in range(lat.n):
                assert (lazy.n(lat.decode(a))
                        == lat.decode(tm.nucleus.values[a])), (t, k, a)
