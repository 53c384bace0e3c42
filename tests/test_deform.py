"""Deformation pipeline: factorization, kernel modules, lifting verdicts, hlc."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dgkit import changeofrings, deform, dgring
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
from dgkit.complexes import ChainMap
from dgkit.derived import balanced_tensor_ring
from dgkit.errors import ValidationError
from dgkit.instances import (
    exterior_extension_ring,
    free_arrow_category,
    weak_cokernel_gap_category,
)
from dgkit.dgring import DgRing, check_setup_assumptions
from dgkit.matrix import Mat, kron_product
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


def test_factorize_forms_each_kernel_power_once(monkeypatch):
    # k[e]/(e^13), |e| = 0: the setup check forms I^2 .. I^13 and factorize
    # takes its quotients by those same powers (12 products); the 12 steps'
    # own setup checks form one product each
    step = dgring._next_power
    products = []

    def counted(prev, ideal, k):
        products.append(k)
        return step(prev, ideal, k)

    monkeypatch.setattr(dgring, "_next_power", counted)
    chain = factorize(make_dual_numbers(13, 0, QQ)[1])
    assert len(chain.steps) == 12 and passes(chain)
    assert len(products) == 24


def test_factorize_forms_each_step_kernel_once(monkeypatch):
    # k[e]/(e^4): theta's kernel, then one per step for its setup check, which
    # the square-zero verdict reads too
    kernel = dgring.DgRingMorphism.kernel_ideal
    calls = []

    def counted(self):
        calls.append(self.name)
        return kernel(self)

    monkeypatch.setattr(dgring.DgRingMorphism, "kernel_ideal", counted)
    chain = factorize(make_dual_numbers(4, 0, QQ)[1])
    assert len(chain.steps) == 3 and passes(chain)
    assert len(calls) == 4


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
            return {0: 1}
        if i == 0 or j == 0:
            return {1: 1}
        return {0: 1}
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
        return {0: 1} if i == j else {1: 1}
    return one_object_category(DgRing.from_table(field, [0, 0], ["u", "v"], 0, mult, name="kxk"))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7), GF(101)], ids=str)
def test_check_hlc_split_algebra_fails_with_idempotent_witness(field):
    cat = split_algebra_category(field)
    verdict = check_hlc(cat)
    assert not passes(verdict)
    assert render(verdict)["h0_karoubian"] is False
    obj, e = verdict.h0_karoubian.witness
    h0 = h0_category(cat)
    assert kron_product(h0.product(obj, obj, obj), e, e) == e
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


def test_tensor_cancellation_check_fails_for_a_doubled_unit_on_a_square_zero_step():
    # I (x)_R V -> I (x)_S (S (x)_R V) and back on each hom V of the one step
    # of deform_category along k[e]/(e^2) -> k: the true unit gives
    # identities, twice the unit does not
    ring, aug = make_dual_numbers(2, -1, QQ)
    chain = factorize(aug)
    i_cat = changeofrings.extend_scalars_cat(free_arrow_category(ring), chain.head).category
    step, = chain.steps
    ext = changeofrings.extend_scalars_cat(i_cat, step)
    rcat, scat = one_object_category(step.source), one_object_category(step.target)
    ideal = step.kernel_ideal()
    ideal_r = deform.ideal_as_R_module(step, rcat, ideal)
    ideal_s = ideal_as_S_module(step, scat, ideal, ideal_r)
    x_by_s = ideal_s.act[(scat.objects[0], scat.objects[0])]
    nonzero = 0
    for a, b in itertools.product(i_cat.objects, repeat=2):
        outer = balanced_tensor_ring(ideal_r, deform.hom_as_right_module(i_cat, a, b, rcat))
        staged = balanced_tensor_ring(ideal_s, deform.hom_as_right_module(ext.category, a, b, scat))
        unit = ext.inclusion.hom_map(a, b)
        assert changeofrings.tensor_cancellation_check(outer, staged, ext.tensors[(a, b)], unit, x_by_s)
        if outer.complex.total_dim():
            nonzero += 1
            doubled = ChainMap(unit.source, unit.target, 0,
                               {d: m.scale(QQ.from_int(2)) for d, m in unit.components.items()}, check=False)
            assert not changeofrings.tensor_cancellation_check(outer, staged, ext.tensors[(a, b)], doubled, x_by_s)
    assert nonzero


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
    comp = {("*", "*", "*"): ext_ring.product.map}
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
    out = [0] * ext_ring.dim(deg)
    labels = ext_ring.underlying.spaces.labels.get(deg, ())
    base_labels = [f"r{deg}_{i}" for i in range(ring.dim(deg))]
    for i, v in enumerate(vec.column_values(0)):
        if not v:
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


# -- idempotents of a commutative H^0 over Q ------------------------------------------
#
# The algebras are products of local pieces k[t]/(q^m) and k + N with N^2 = 0,
# written in a random basis; sympy is the test-only oracle for minimal
# polynomials and their factorizations.


def _poly_piece(q, m):
    """k[t]/(q^m), q monic with coefficients low to high, in the basis 1, t, ...:
    the product of basis elements i and j as coefficients."""
    modulus = [1]
    for _ in range(m):
        modulus = [sum(modulus[k - i] * c for i, c in enumerate(q) if 0 <= k - i < len(modulus))
                   for k in range(len(modulus) + len(q) - 1)]
    n = len(modulus) - 1

    def reduce(coeffs):
        coeffs = list(coeffs)
        for top in range(len(coeffs) - 1, n - 1, -1):
            lead = coeffs[top]
            for i in range(n + 1):
                coeffs[top - n + i] -= lead * modulus[i]
        return coeffs[:n] + [0] * (n - len(coeffs[:n]))

    return n, lambda i, j: reduce([int(k == i + j) for k in range(2 * n)])


def _square_zero_piece(n):
    """k + N with N^2 = 0, dim N = n - 1."""
    return n, lambda i, j: [int(k == i + j) if 0 in (i, j) else 0 for k in range(n)]


def _product_algebra(pieces):
    """The product of the pieces as (n, mult, unit) on the concatenated bases."""
    from fractions import Fraction
    offsets, n = [], 0
    for size, _ in pieces:
        offsets.append(n)
        n += size
    cols = [[Fraction(0)] * n for _ in range(n * n)]
    for (size, table), off in zip(pieces, offsets):
        for i in range(size):
            for j in range(size):
                for k, v in enumerate(table(i, j)):
                    cols[(off + i) * n + off + j][off + k] = Fraction(v)
    unit = [Fraction(int(k in offsets)) for k in range(n)]
    return n, cols, unit


def _in_basis(n, cols, unit, basis):
    """The structure constants and unit in the basis whose vectors are the
    columns of ``basis`` (a sympy Matrix)."""
    import sympy
    inv = basis.inv()

    def product(u, v):
        out = sympy.zeros(n, 1)
        for i in range(n):
            for j in range(n):
                if u[i] and v[j]:
                    out += u[i] * v[j] * sympy.Matrix(cols[i * n + j])
        return out

    rows = [[0] * (n * n) for _ in range(n)]
    for i in range(n):
        for j in range(n):
            image = inv * product(basis[:, i], basis[:, j])
            for k in range(n):
                rows[k][i * n + j] = image[k]
    to_mat = lambda vals: [QQ.parse(str(v)) for v in vals]
    return (Mat(QQ, n, n * n, [to_mat(r) for r in rows]),
            Mat.column(QQ, to_mat(inv * sympy.Matrix(unit))))


def _random_commutative_algebras(count, seed):
    import random
    import sympy
    rng = random.Random(seed)
    irreducible = [[0, 1], [-2, 1], [-2, 0, 1], [1, 0, 1], [1, 1, 1]]
    local = [lambda: _poly_piece(rng.choice(irreducible), rng.randint(1, 2)),
             lambda: _square_zero_piece(rng.randint(2, 3))]
    out = [(2, [_poly_piece([0, 1], 1), _poly_piece([-1, 1], 1)])]   # k x k
    while len(out) < count:
        pieces = [rng.choice(local)() for _ in range(rng.randint(1, 2))]
        if sum(size for size, _ in pieces) <= 6:
            out.append((len(pieces), pieces))
    for factors, pieces in out:
        n, cols, unit = _product_algebra(pieces)
        while True:
            basis = sympy.Matrix(n, n, lambda i, j: rng.randint(-2, 2))
            if basis.rank() == n:
                break
        yield factors, _in_basis(n, cols, unit, basis)


def test_minimal_polynomials_and_idempotents_match_sympy():
    import sympy
    t = sympy.symbols("t")
    seen_split = False
    for factors, (mult, unit) in _random_commutative_algebras(24, 71):
        n = unit.rows
        table = sympy.Matrix(mult.entries)
        for gen in range(n):
            x = Mat.basis_column(QQ, n, gen)
            coeffs, powers = deform._minimal_polynomial(mult, unit, x)
            d = len(coeffs)
            # the oracle: m(L_x) kills the unit and 1, x, ..., x^{d-1} are independent
            left = table * sympy.kronecker_product(sympy.Matrix(x.entries), sympy.eye(n))
            krylov = [sympy.Matrix(unit.entries)]
            for _ in range(d):
                krylov.append(left * krylov[-1])
            assert sympy.Matrix.hstack(*krylov[:d]).rank() == d
            assert krylov[d] == sum((sympy.Rational(str(c)) * v for c, v in zip(coeffs, krylov)),
                                    sympy.zeros(n, 1))
            assert [sympy.Matrix(p.entries) for p in powers] == krylov[:d]
            poly = sympy.Poly(t**d - sum(sympy.Rational(str(c)) * t**i for i, c in enumerate(coeffs)), t)
            found = sympy.factor_list(poly)[1]
            assert deform._is_root_power(coeffs) == (len(found) == 1 and found[0][0].degree() == 1)
        witness = deform._nontrivial_idempotents_commutative(mult, unit)
        assert len(witness) == (1 if factors > 1 else 0)
        if witness:
            seen_split = True
            e, = witness
            assert kron_product(mult, e, e) == e and not e.is_zero() and e != unit
    assert seen_split


def test_check_hlc_of_a_local_h0_over_q_imports_no_sympy():
    # k[e]/(e^3), |e| = 0: every minimal polynomial is a power of t - c
    package_root = str(Path(deform.__file__).resolve().parents[1])
    code = ("import sys\n"
            "from dgkit.deform import check_hlc\n"
            "from dgkit.dgcat import one_object_category\n"
            "from dgkit.dgring import make_dual_numbers\n"
            "from dgkit.fields import QQ\n"
            "verdict = check_hlc(one_object_category(make_dual_numbers(3, 0, QQ)[0]))\n"
            "print(verdict.h0_karoubian.status, sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": package_root})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [CERTIFIED, "[]"]


def _cubic_field_product():
    """K x K with K = Q(theta), theta = 2cos(2pi/7), root of t^3 + t^2 - 2t - 1,
    whose Galois group is generated by theta -> theta^2 - 2.  Basis: five
    Galois-graph elements (a, a) and (a, sigma(a)), for a = 1, theta, theta^2
    (the unit counted once), then (theta, 0)."""
    from fractions import Fraction

    def mul(u, v):
        out = [0] * 5
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] += a * b
        for top in (4, 3):                 # theta^3 = -theta^2 + 2 theta + 1
            lead, out[top] = out[top], 0
            out[top - 1] -= lead
            out[top - 2] += 2 * lead
            out[top - 3] += lead
        return out[:3]

    one, theta = [1, 0, 0], [0, 1, 0]
    theta2 = mul(theta, theta)
    sigma = [-2, 0, 1]                      # theta^2 - 2
    sigma2 = mul(sigma, sigma)
    basis = [one + one, theta + theta, theta2 + theta2, theta + sigma, theta2 + sigma2, theta + [0, 0, 0]]
    return [[Fraction(v) for v in b] for b in basis], lambda u, v: mul(u[:3], v[:3]) + mul(u[3:], v[3:])


def test_split_product_of_one_field_is_found_through_its_one_non_graph_element():
    # the functional Tr(x_1)/3 - Tr(x_2)/3 vanishes on every Galois-graph
    # element, so those span only a hyperplane: each has an irreducible
    # minimal polynomial, and only the sixth basis element splits
    import sympy
    basis, mul = _cubic_field_product()
    coords = sympy.Matrix(basis).T
    assert coords.rank() == 6
    inv = coords.inv()

    def table(i, j):
        image = inv * sympy.Matrix(mul(basis[i], basis[j]))
        return {k: QQ.parse(str(v)) for k, v in enumerate(image) if v}

    ring = DgRing.from_table(QQ, [0] * 6, [f"b{i}" for i in range(6)], 0, table, name="KxK")
    mult, unit = h0_category(one_object_category(ring)).product("*", "*", "*"), ring.unit
    t = sympy.symbols("t")
    for gen in range(6):
        coeffs, _ = deform._minimal_polynomial(mult, unit, Mat.basis_column(QQ, 6, gen))
        poly = sympy.Poly(t**len(coeffs) - sum(sympy.Rational(str(c)) * t**i for i, c in enumerate(coeffs)), t)
        assert len(sympy.factor_list(poly)[1]) == (2 if gen == 5 else 1)
    verdict = check_hlc(one_object_category(ring))
    assert verdict.h0_karoubian.status == FAILED
    obj, e = verdict.h0_karoubian.witness
    h0 = h0_category(one_object_category(ring))
    assert kron_product(h0.product(obj, obj, obj), e, e) == e and not e.is_zero() and e != h0.ids[obj]
