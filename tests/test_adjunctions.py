"""Unit/counit checks on fixed instances; the bulk runs in the suites."""

import random

import pytest

from tensalg import adjunctions, functors
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
from tensalg.fsemilattice import FSemilattice, validate_fsemilattice
from tensalg.functors import (hom_frame, hom_frame_relation, tensor,
                              tensor_pairs, tensor_pairs_encoded)
from tensalg.generators import (draw_instance, naturality_suite,
                                quantale_bool, quantale_pool, random_frame,
                                random_fsl, self_module, triangles_suite)
from tensalg.nucleus import closure_of, prenucleus_from_pairs
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


def test_identity_diamond_runs_full_checks_only():
    """|Q| = 25 with |T| = 2: adjunctions 1 and 2 report only their
    exhaustive check names, and every check passes."""
    H, L, frame = identity_diamond_instance()
    report = check_triangles_adjunction1(frame, H, L, instance="id")
    report.extend(check_triangles_adjunction2(frame, H, L, instance="id"))
    assert {c.name for c in report.checks} == {
        "adj1.eta-lax-morphism", "adj1.triangle-tensor",
        "adj1.eps-pair-constancy-full", "adj1.eps-orbit-constancy",
        "adj1.eps-pair-constancy-power", "adj1.triangle-power",
        "adj2.phi-frame-hom", "adj2.triangle-tensor",
        "adj2.psi-pair-constancy-tensor-level", "adj2.psi-pair-constancy",
        "adj2.triangle-homframe"}
    assert report.passed, [c.line() for c in report.failures]


def test_largest_suite_power_of_the_tensor_is_checked_in_full():
    """Suite seed 3, instance 59, has the largest Q^T of suite seeds 0-11
    (21^3 = 9261); adjunction 1 still checks its pairs and orbits there."""
    inst = draw_instance(3, 59)
    tm = tensor(inst.frame, inst.fsl)
    assert tm.quotient.n ** inst.frame.n == 9261
    report = check_triangles_adjunction1(inst.frame, inst.fsl, inst.L, tm=tm,
                                         instance=inst.tag)
    names = {c.name for c in report.checks}
    assert {"adj1.eps-pair-constancy-full",
            "adj1.eps-orbit-constancy"} <= names
    assert report.passed, [c.line() for c in report.failures]


def test_transposed_tensor_pairs_are_caught(monkeypatch):
    """Tensor pairs built with r transposed generate the wrong nucleus on
    the asymmetric example frame, and the pair-constancy checks see it."""
    q, A, H, L, frame = example_instance()

    def transposed(module, r, F):
        return tensor_pairs(module, [list(col) for col in zip(*r)], F)

    monkeypatch.setattr(adjunctions, "tensor_pairs", transposed)
    report = check_triangles_adjunction1(frame, H, L, instance="mutant")
    report.extend(check_triangles_adjunction2(frame, H, L, instance="mutant"))
    failed = {c.name for c in report.failures}
    assert {"adj1.eps-pair-constancy-power",
            "adj2.psi-pair-constancy"} <= failed


def test_image_fallback_is_reached_and_passes(monkeypatch):
    """Hom(A, L) fits in the budget but Hom(A, Q) does not, so the
    tensor-level constancy runs on the relation restricted to phi's image;
    that relation is computed once, beside the one of Hom(A, L)."""
    H, L, frame = identity_diamond_instance()
    calls = []

    def counted(fsl, target, tables):
        calls.append(target.n)
        return hom_frame_relation(fsl, target, tables)

    monkeypatch.setattr(functors, "hom_frame_relation", counted)
    monkeypatch.setattr(adjunctions, "hom_frame_relation", counted)
    report = check_triangles_adjunction2(frame, H, L, budget=14,
                                         instance="id")
    names = {c.name for c in report.checks}
    assert "adj2.psi-pair-constancy-tensor-level-image" in names
    assert "adj2.psi-pair-constancy-tensor-level" not in names
    assert report.passed, [c.line() for c in report.failures]
    assert sorted(calls) == sorted([L.n, 25])


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
    pairs are the tuple pairs encoded.  The pairs at every x, not only the
    join-irreducible ones, generate that same nucleus, both materialized
    and lazily."""
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
            every = all_x_tensor_pairs(A, J.r, H.F)
            host = FSemilattice(tm.power, tuple(range(lat.n)))
            op, _ = prenucleus_from_pairs(
                host, [(lat.encode(c), lat.encode(d)) for c, d in every])
            assert closure_of(op).values == tm.nucleus.values, (t, k)
            lazy = TuplePairNucleus(A, t, pairs)
            lazy_every = TuplePairNucleus(A, t, every)
            for a in range(lat.n):
                closed = lat.decode(tm.nucleus.values[a])
                assert lazy.n(lat.decode(a)) == closed, (t, k, a)
                assert lazy_every.n(lat.decode(a)) == closed, (t, k, a)


def all_x_tensor_pairs(module, r, F):
    """The tensor pairs at every carrier element, built from the
    definition: smear(x, i) v delta(F x, i) against delta(F x, i)."""
    arity = len(r)
    lat = module.carrier
    out = []
    for x in range(module.n):
        for i in range(arity):
            dlt = tuple(F[x] if k == i else lat.bottom for k in range(arity))
            smear = tuple(module.act(r[i][k], x) for k in range(arity))
            out.append((tuple(map(lat.join2, smear, dlt)), dlt))
    return out
