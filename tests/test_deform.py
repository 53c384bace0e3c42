"""Deformation pipeline: factorization, kernel modules, lifting verdicts, hlc."""

import pytest

from dgkit import changeofrings, deform
from dgkit.fields import GF, QQ
from dgkit.dgring import DgRingMorphism, make_dual_numbers
from dgkit.dgcat import h0_category, one_object_category
from dgkit.deform import (
    check_hlc,
    deform_category,
    factorize,
    h0_structure_verdict,
    ideal_as_S_module,
    levelwise_free_generators,
)
from dgkit.errors import ValidationError
from dgkit.instances import (
    exterior_extension_ring,
    free_arrow_category,
    weak_cokernel_gap_category,
)
from dgkit.dgring import DgRing, check_setup_assumptions
from dgkit.verdict import CERTIFIED, FAILED, UNCHECKED, passes, render, unchecked


def test_factorize_identity_is_empty_chain():
    ring, _ = make_dual_numbers(2, -1, QQ)
    chain = factorize(DgRingMorphism.identity(ring))
    assert chain.steps == []
    assert passes(chain)


def test_factorize_dual_numbers_single_step():
    ring, aug = make_dual_numbers(2, -1, QQ)
    chain = factorize(aug)
    assert len(chain.steps) == 1
    assert passes(chain)
    assert [v.status for v in chain.square_zero_kernels] == [CERTIFIED]


def test_factorize_eps3_two_steps():
    ring, aug = make_dual_numbers(3, -2, QQ)
    chain = factorize(aug)
    assert len(chain.steps) == 2
    assert passes(chain)
    assert all(v.status == CERTIFIED for v in chain.square_zero_kernels)
    # composition reproduces theta exactly (checked internally, assert flag)
    assert chain.composition_equals_theta.status == CERTIFIED


def test_ideal_as_s_module_dual_numbers():
    ring, aug = make_dual_numbers(2, -1, QQ)
    mod = ideal_as_S_module(aug)
    obj = mod.cat.objects[0]
    assert mod.at(obj).cohomology().as_dict() == {-1: 1}


def test_ideal_as_s_module_rejects_non_square_zero():
    ring, aug = make_dual_numbers(3, -2, QQ)
    with pytest.raises(ValidationError):
        ideal_as_S_module(aug)


def test_ideal_step_of_eps3_is_accepted():
    ring, aug = make_dual_numbers(3, -2, QQ)
    chain = factorize(aug)
    # each factor step has square-zero kernel and yields an S-module
    for step in chain.steps:
        mod = ideal_as_S_module(step)
        assert mod.total_dim() >= 1


def test_levelwise_free_detection():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    gens = levelwise_free_generators(cat)
    assert gens[("*", "*")][0].cols == 1
    # the ground field as an R-category is not levelwise free
    from dgkit.changeofrings import restrict_category
    ground_cat = one_object_category(aug.target)
    not_free = restrict_category(ground_cat, aug)
    with pytest.raises(ValidationError):
        levelwise_free_generators(not_free)


def test_check_hlc_ground_field():
    cat = one_object_category(DgRing.ground_field(QQ))
    verdict = check_hlc(cat)
    assert passes(verdict)


def test_check_hlc_gap_category_fails_with_witness():
    cat = weak_cokernel_gap_category(QQ)
    verdict = check_hlc(cat)
    assert verdict.weak_cokernels.status == FAILED
    assert verdict.failing_morphism == {"source": "A", "target": "A", "class_index": 1}


def test_h0_structure_dual_numbers_category():
    ring, _ = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    verdict = h0_structure_verdict(h0_category(cat))
    assert passes(verdict)


def test_h0_structure_split_algebra_detects_idempotent():
    # k x k in degree 0 has a nontrivial idempotent with no splitting object;
    # presented in the basis u = e1 + e2 (the unit), v = e1 - e2 with v.v = u
    field = QQ
    def mult2(i, j):
        if i == 0 and j == 0:
            return {0: field.one()}
        if i == 0 or j == 0:
            return {1: field.one()}
        return {0: field.one()}
    ring2 = DgRing.from_table(field, [0, 0], ["u", "v"], 0, mult2, name="kxk")
    cat = one_object_category(ring2)
    verdict = h0_structure_verdict(h0_category(cat))
    assert verdict.karoubian.status == FAILED
    assert verdict.karoubian.witness is not None


def split_algebra_category(field):
    """One object whose endomorphisms are k[v]/(v^2 - 1) in degree 0: k x k
    when 2 is invertible (basis u = e1 + e2, the unit, and v = e1 - e2), the
    local ring k[v]/(v + 1)^2 over F_2."""
    def mult(i, j):
        return {0: field.one()} if i == j else {1: field.one()}
    return one_object_category(DgRing.from_table(field, [0, 0], ["u", "v"], 0, mult, name="kxk"))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(101)], ids=str)
def test_check_hlc_split_algebra_fails_with_idempotent_witness(field):
    cat = split_algebra_category(field)
    verdict = check_hlc(cat)
    assert not passes(verdict)
    assert render(verdict)["h0_karoubian"] is False
    obj, e = verdict.h0_karoubian.witness
    h0 = h0_category(cat)
    assert h0.compose(obj, obj, obj, e, e) == e
    assert not e.is_zero() and e != h0.ids[obj]


def test_check_hlc_local_algebra_over_f2_has_no_idempotent():
    verdict = check_hlc(split_algebra_category(GF(2)))
    assert verdict.h0_karoubian.status == CERTIFIED
    assert verdict.h0_karoubian.witness is None


def exterior_plane_category(field):
    """One object whose End is Q<x,y>/(x^2, y^2, xy + yx) in degree 0, basis
    1, x, y, xy: a local algebra that is not commutative, so it is no
    DgRing, only a DgCategory over the ground field."""
    from dgkit.complexes import Complex, TensorLayout
    from dgkit.dgcat import DgCategory
    from dgkit.matrix import Mat
    end = Complex(field, {0: 4}, {}, labels={0: ("1", "x", "y", "xy")}, name="End")
    # g o f = g f on basis words as bit sets; a product repeating a letter is 0
    rows = [[0] * 16 for _ in range(4)]
    for g in range(4):
        for f in range(4):
            if not g & f:
                rows[g | f][4 * g + f] = -1 if (g, f) == (2, 1) else 1
    comp = {("*", "*", "*"): TensorLayout([end, end]).map_from_blocks(
        end, 0, lambda combo: Mat(field, 4, 16, rows))}
    return DgCategory(DgRing.ground_field(field), ["*"], {("*", "*"): end}, comp,
                      {"*": Mat.basis_column(field, 4, 0)}, name="ext2")


def test_check_hlc_leaves_a_noncommutative_h0_unchecked():
    verdict = check_hlc(exterior_plane_category(QQ))
    assert verdict.h0_karoubian.status == UNCHECKED
    assert "noncommutative" in verdict.h0_karoubian.reason
    # rad(End) = <x, y, xy> is not a principal left ideal; the basis morphism
    # xy has no weak cokernel
    assert verdict.weak_cokernels.status == FAILED
    assert verdict.failing_morphism == {"source": "*", "target": "*", "class_index": 3}
    assert not passes(verdict)


def test_check_hlc_leaves_additivity_and_hfp_unchecked():
    verdict = check_hlc(one_object_category(DgRing.ground_field(QQ)))
    assert verdict.h0_additive.status == verdict.representables_hfp.status == UNCHECKED
    assert passes(verdict)
    assert [u["path"] for u in unchecked(verdict)] == ["/h0_additive", "/representables_hfp"]


def test_hfp_verdicts_share_one_unchecked_reason():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    setup = check_setup_assumptions(aug)
    _, report = deform_category(cat, aug)
    verdicts = [report.source_hlc.representables_hfp, setup.target_hfp_over_source,
                setup.powers_hfp, report.steps[0].hfp_preserved]
    assert all(v.status == UNCHECKED for v in verdicts)
    assert len({v.reason for v in verdicts}) == 1


def test_setup_coherence_is_certified_by_finite_dimensionality():
    ring, aug = make_dual_numbers(2, -1, QQ)
    coherent = check_setup_assumptions(aug).homotopically_coherent
    assert coherent.status == CERTIFIED
    assert coherent.reason == "H^0 finite-dimensional => Noetherian => coherent"


def test_setup_fails_a_kernel_whose_powers_stabilize():
    # k x k -> k, the first factor: the kernel is an idempotent ideal, I^2 = I,
    # with nonzero cohomology (basis u = e1 + e2, v = e1 - e2, v v = u)
    from dgkit.complexes import ChainMap
    from dgkit.matrix import Mat
    kxk = split_algebra_category(QQ).base
    ground = DgRing.ground_field(QQ)
    first = DgRingMorphism(kxk, ground, ChainMap(kxk.underlying, ground.underlying, 0,
                                                 {0: Mat(QQ, 1, 2, [[1, 1]])}), name="first")
    nilpotent = check_setup_assumptions(first).cohomologically_nilpotent
    assert nilpotent.status == FAILED
    assert nilpotent.reason == "kernel powers stabilized at k=2 with nonvanishing cohomology"
    with pytest.raises(ValidationError, match="kernel powers stabilized"):
        factorize(first)


def test_deform_one_object_dual_numbers():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    ext, report = deform_category(cat, aug)
    assert passes(report)
    j = ext.category
    assert {d: j.hom("*", "*").dim(d) for d in j.hom("*", "*").degrees()} == {0: 1}


def test_deform_free_arrow_category():
    ring, aug = make_dual_numbers(2, -1, QQ)
    cat = free_arrow_category(ring)
    ext, report = deform_category(cat, aug)
    assert passes(report)


def test_deform_exterior_instance():
    ring, aug = make_dual_numbers(2, -1, QQ)
    ext_ring = exterior_extension_ring(ring, -1)
    # the augmentation of the extended ring onto k[f]/(f^2)... deform along
    # theta (x) 1: extend the one-object R[f] category along R -> k
    cat = one_object_category(ext_ring)
    # theta: R[f] is R-linear via multiplication; deform along aug needs the
    # category to be R-linear: reinterpret End = R (+) R.f as an R-category
    rcats = rebuild_as_r_category(ring, ext_ring)
    ext, report = deform_category(rcats, aug)
    assert passes(report)


def rebuild_as_r_category(ring, ext_ring):
    """One object with End = R[f] viewed as an R-linear category."""
    from dgkit.dgcat import DgCategory
    from dgkit.complexes import TensorLayout
    from dgkit.matrix import Mat
    field = ring.field
    cx = ext_ring.underlying
    comp = {("*", "*", "*"): ext_ring.mult}
    lay = TensorLayout([ring.underlying, cx])

    def entry(combo, idx):
        dr, dx = combo
        r = Mat.basis_column(field, ring.dim(dr), idx[0])
        # embed r into R[f] (the non-f part) and multiply
        rr = embed(ring, ext_ring, dr, r)
        x = Mat.basis_column(field, cx.dim(dx), idx[1])
        return ext_ring.mul(dr, rr, dx, x)

    action = {("*", "*"): lay.map_from_entries(cx, 0, entry)}
    return DgCategory(ring, ["*"], {("*", "*"): cx}, comp,
                      {"*": ext_ring.unit}, action=action, name="R[f]overR")


def embed(ring, ext_ring, deg, vec):
    """R -> R[f] on basis vectors (the f-free part comes first per degree)."""
    from dgkit.matrix import Mat
    field = ring.field
    out = [field.zero()] * ext_ring.dim(deg)
    labels = ext_ring.underlying.spaces.labels.get(deg, ())
    base_labels = [f"r{deg}_{i}" for i in range(ring.dim(deg))]
    for i, v in enumerate(vec.column_values(0)):
        if field.is_zero(v):
            continue
        target = base_labels[i]
        pos = labels.index(target)
        out[pos] = v
    return Mat.column(field, out)


def test_pipeline_over_prime_field():
    # the whole stack runs over F_7: setup, factorization, deformation
    from dgkit.fields import GF
    field = GF(7)
    ring, aug = make_dual_numbers(3, -2, field)
    chain = factorize(aug)
    assert passes(chain)
    cat = one_object_category(ring)
    ext, report = deform_category(cat, aug)
    assert all(passes(s) for s in report.steps)
    assert passes(report.factorization)
    assert report.pipeline_coherent.status == CERTIFIED
    assert report.deformed_hlc.weak_cokernels.status == CERTIFIED


@pytest.mark.parametrize("make_cat", [one_object_category, free_arrow_category])
@pytest.mark.parametrize("n, builds", [(2, 3), (3, 6), (4, 9)])
def test_deform_builds_three_extensions_per_step(monkeypatch, make_cat, n, builds):
    # k[e]/(e^n) -> k factors in n - 1 square-zero steps; each step's
    # transitivity square reuses the extensions the pipeline holds
    build = changeofrings.extend_scalars_cat
    calls = []

    def counted(cat, theta):
        calls.append(theta.name)
        return build(cat, theta)

    monkeypatch.setattr(changeofrings, "extend_scalars_cat", counted)
    monkeypatch.setattr(deform, "extend_scalars_cat", counted)
    ring, aug = make_dual_numbers(n, -2, QQ)
    ext, report = deform_category(make_cat(ring), aug)
    assert passes(report)
    assert len(calls) == builds


PASSING_HLC = {"all_pass": True, "failing_morphism": None, "h0_additive": "unchecked", "h0_karoubian": True,
               "nonpositive_cohomology": True, "representables_hfp": "unchecked", "weak_cokernels": True}
# the factorization step reports of k[e]/(e^4), |e| = -2; the chain of
# k[e]/(e^3) is its last two steps
STEP_REPORTS = [
    {"all_pass": True, "cohomologically_nilpotent": True, "homotopically_coherent": True, "morphism": "theta_4,3",
     "nilpotency_order": 2, "power_H": {"1": {"-6": 1}}, "powers_hfp": "unchecked",
     "source_H": {"-2": 1, "-4": 1, "-6": 1, "0": 1}, "strictly_surjective": {"-2": True, "-4": True, "0": True},
     "surjective": True, "target_H": {"-2": 1, "-4": 1, "0": 1}, "target_hfp_over_source": "unchecked"},
    {"all_pass": True, "cohomologically_nilpotent": True, "homotopically_coherent": True, "morphism": "theta_3,2",
     "nilpotency_order": 2, "power_H": {"1": {"-4": 1}}, "powers_hfp": "unchecked",
     "source_H": {"-2": 1, "-4": 1, "0": 1}, "strictly_surjective": {"-2": True, "0": True},
     "surjective": True, "target_H": {"-2": 1, "0": 1}, "target_hfp_over_source": "unchecked"},
    {"all_pass": True, "cohomologically_nilpotent": True, "homotopically_coherent": True, "morphism": "theta_2,1",
     "nilpotency_order": 2, "power_H": {"1": {"-2": 1}}, "powers_hfp": "unchecked",
     "source_H": {"-2": 1, "0": 1}, "strictly_surjective": {"0": True},
     "surjective": True, "target_H": {"0": 1}, "target_hfp_over_source": "unchecked"},
]


def passing_step(name):
    return {"all_pass": True, "h0_comparison_bijective": True, "hfp_preserved": "unchecked",
            "ker_h0_theta_square_zero": True, "les_rank_bookkeeping": True, "nonpositive_cohomology": True,
            "ses_exact": True, "step": name, "tensor_lift_mutually_inverse": True}


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("n", [3, 4])
def test_deform_report_of_multi_step_chains(field, n):
    # recorded before the transitivity squares reused the pipeline's extensions,
    # with the hfp and additivity verdicts since reported unchecked
    ring, aug = make_dual_numbers(n, -2, field)
    _, report = deform_category(one_object_category(ring), aug)
    reports = STEP_REPORTS[4 - n:]
    names = [r["morphism"] for r in reports]
    assert render(report) == {
        "steps": [passing_step(name) for name in names],
        "source_hlc": PASSING_HLC,
        "deformed_hlc": PASSING_HLC,
        "pipeline_coherent": True,
        "factorization": {"all_pass": True, "composition_equals_theta": True, "head_is_quasi_iso": True,
                          "square_zero_kernels": [True] * len(names), "step_reports": reports, "steps": names},
        "all_pass": True,
    }
