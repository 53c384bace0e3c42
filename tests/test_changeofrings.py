"""Base change: restriction, extension, coextension, transitivity, comparisons."""

import itertools

import pytest

from dgkit.fields import QQ
from dgkit.dgring import DgRing, DgRingMorphism, ideal_power, make_dual_numbers, quotient
from dgkit.dgcat import DgCategory, one_object_category
from dgkit import changeofrings, verify
from dgkit.bimodules import Bimodule, Module, direct_sum_bimodules
from dgkit.changeofrings import (
    _right_action_through,
    coextension_adjunction_check,
    coextension_cotensor_check,
    coextension_object,
    coextension_tensor_check,
    extend_scalars_cat,
    extension_adjunction_check,
    heart_coextension_check,
    restrict_category,
    s_vs_r_module_comparison,
    tensor_cancellation_check,
    transitivity_check,
)
from dgkit.derived import restricted_ground_module, ring_as_module
from dgkit.errors import ValidationError
from dgkit.matrix import Mat
from dgkit.verdict import CERTIFIED, FAILED, UNCHECKED, passes, unchecked
from dgkit.complexes import ChainMap, TensorLayout


def dual_numbers_setup(n=2, e=-1):
    ring, aug = make_dual_numbers(n, e, QQ)
    return ring, aug


def test_restrict_category_identity():
    ring, aug = dual_numbers_setup()
    cat = one_object_category(ring)
    r = restrict_category(cat, DgRingMorphism.identity(ring))
    assert r.hom("*", "*") == cat.hom("*", "*")


def test_restrict_scalars_of_s_module():
    ring, aug = dual_numbers_setup()
    k_mod = restricted_ground_module(aug)
    # restriction never changes the underlying complexes
    obj = k_mod.cat.objects[0]
    assert k_mod.at(obj).cohomology().as_dict() == {0: 1}
    # eps acts by zero on k
    eps = Mat.basis_column(QQ, 1, 0)
    acted = k_mod.act[(obj, obj)].apply(0, Mat.basis_column(QQ, 1, 0), -1, eps)
    assert acted.is_zero()


def test_extend_scalars_identity():
    ring, aug = dual_numbers_setup()
    cat = one_object_category(ring)
    ext = extend_scalars_cat(cat, DgRingMorphism.identity(ring))
    for d in cat.hom("*", "*").degrees():
        assert ext.category.hom("*", "*").dim(d) == cat.hom("*", "*").dim(d)


def test_extend_one_object_ring_along_augmentation():
    ring, aug = dual_numbers_setup(2, -1)
    cat = one_object_category(ring)
    ext = extend_scalars_cat(cat, aug)
    # k (x)_R R = k
    assert {d: ext.category.hom("*", "*").dim(d)
            for d in ext.category.hom("*", "*").degrees()} == {0: 1}


def test_extend_free_quiver_category():
    ring, aug = dual_numbers_setup(2, -1)
    # two objects, one free arrow of degree 0: hom complexes are free R-modules
    cat = free_arrow_category(ring)
    ext = extend_scalars_cat(cat, aug)
    e = ext.category
    assert {d: e.hom("X", "Y").dim(d) for d in e.hom("X", "Y").degrees()} == {0: 1}
    assert {d: e.hom("X", "X").dim(d) for d in e.hom("X", "X").degrees()} == {0: 1}


def free_arrow_category(ring):
    """Two objects, End = R each, hom(X,Y) = R.f free of rank one, hom(Y,X)=0."""
    field = ring.field
    cx_end = ring.underlying
    cx_arrow = ring.underlying  # free rank-1: carrier is R itself
    homs = {("X", "X"): cx_end, ("Y", "Y"): cx_end,
            ("X", "Y"): cx_arrow, ("Y", "X"): None}
    comp = {}
    ids = {"X": ring.unit, "Y": ring.unit}
    action = {}
    objs = ["X", "Y"]
    from dgkit.complexes import Complex
    homs = {k: (v if v is not None else Complex.zero(field)) for k, v in homs.items()}
    for a in objs:
        for b in objs:
            action[(a, b)] = None
    cats = {}
    for a in objs:
        for b in objs:
            for c in objs:
                src = TensorLayout([homs[(b, c)], homs[(a, b)]])

                def entry(combo, idx, a=a, b=b, c=c):
                    # all nonzero composites are ring multiplications
                    if homs[(a, c)].total_dim() == 0:
                        return None
                    dg, df = combo
                    g = Mat.basis_column(field, homs[(b, c)].dim(dg), idx[0])
                    f = Mat.basis_column(field, homs[(a, b)].dim(df), idx[1])
                    return ring.mul(dg, g, df, f)

                comp[(a, b, c)] = src.map_from_entries(homs[(a, c)], 0, entry)
    for a in objs:
        for b in objs:
            lay = TensorLayout([ring.underlying, homs[(a, b)]])

            def entry(combo, idx, a=a, b=b):
                dr, dx = combo
                if homs[(a, b)].total_dim() == 0:
                    return None
                r = Mat.basis_column(field, ring.dim(dr), idx[0])
                x = Mat.basis_column(field, homs[(a, b)].dim(dx), idx[1])
                return ring.mul(dr, r, dx, x)

            action[(a, b)] = lay.map_from_entries(homs[(a, b)], 0, entry)
    return DgCategory(ring, objs, homs, comp, ids, action=action, name="freearrow")


def test_extension_adjunction_on_one_object():
    ring, aug = dual_numbers_setup(2, -1)
    a_cat = one_object_category(ring)
    b_s = one_object_category(aug.target)  # the ground field as S-linear cat
    b_r = restrict_category(b_s, aug)
    # F over (a, b_R): take F(*,*) = k with eps acting by zero on both sides
    from dgkit.complexes import Complex
    comps = {("*", "*"): Complex(QQ, {0: 1}, {})}
    lact = {}
    ract = {}
    lay_l = TensorLayout([a_cat.hom("*", "*"), comps[("*", "*")]])

    def entry_l(combo, idx):
        dr, _ = combo
        if dr != 0:
            return None
        col = [0]
        if idx[0] == 0:
            col[0] = 1
        return Mat.column(QQ, col)

    lact[("*", "*", "*")] = lay_l.map_from_entries(comps[("*", "*")], 0, entry_l)
    lay_r = TensorLayout([comps[("*", "*")], b_r.hom("*", "*")])

    def entry_r(combo, idx):
        _, db = combo
        if db != 0:
            return None
        return Mat.column(QQ, [1])

    ract[("*", "*", "*")] = lay_r.map_from_entries(comps[("*", "*")], 0, entry_r)
    f = Bimodule(a_cat, b_r, comps, lact, ract, name="kF")
    verdict = extension_adjunction_check(extend_scalars_cat(a_cat, aug), b_s, f)
    assert passes(verdict)


def eps3_square():
    """The free-arrow category over R = k[e]/(e^3), |e| = -2, with the
    projection R -> R/I^2 and the augmentation R/I^2 -> k."""
    ring3, aug3 = make_dual_numbers(3, -2, QQ)
    r2, p2 = quotient(ring3, ideal_power(aug3.kernel_ideal(), 2))
    ground = DgRing.ground_field(QQ)
    # coefficient extraction: the unit coordinate of R/I^2
    comps = {0: Mat(QQ, 1, r2.dim(0), [[1 if j == 0 else 0 for j in range(r2.dim(0))]])}
    theta23 = DgRingMorphism(r2, ground, ChainMap(r2.underlying, ground.underlying, 0, comps),
                             name="aug2")
    return free_arrow_category(ring3), p2, theta23


def test_transitivity_on_eps3_chain():
    a_cat, p2, theta23 = eps3_square()
    stage1 = extend_scalars_cat(a_cat, p2)
    stage2 = extend_scalars_cat(stage1.category, theta23)
    direct = extend_scalars_cat(a_cat, theta23.compose(p2))
    assert transitivity_check(direct, stage1, stage2).mutually_inverse.status == CERTIFIED


def test_tensor_cancellation_check_fails_for_a_doubled_unit():
    # R3 (x)_{R1} hom -> R3 (x)_{R2} (R2 (x)_{R1} hom) and back, per hom of the
    # eps^3 chain: the true unit gives identities, twice the unit does not
    a_cat, p2, theta23 = eps3_square()
    stage1 = extend_scalars_cat(a_cat, p2)
    stage2 = extend_scalars_cat(stage1.category, theta23)
    direct = extend_scalars_cat(a_cat, theta23.compose(p2))
    by_r2 = _right_action_through(theta23)
    nonzero = 0
    for key in itertools.product(a_cat.objects, repeat=2):
        tensors = direct.tensors[key], stage2.tensors[key], stage1.tensors[key]
        unit = stage1.inclusion.hom_map(*key)
        assert tensor_cancellation_check(*tensors, unit, by_r2)
        if direct.tensors[key].complex.total_dim():
            nonzero += 1
            doubled = ChainMap(unit.source, unit.target, 0,
                               {d: m.scale(QQ.from_int(2)) for d, m in unit.components.items()}, check=False)
            assert not tensor_cancellation_check(*tensors, doubled, by_r2)
    assert nonzero


def test_transitivity_rejects_extensions_that_do_not_form_the_square():
    a_cat, p2, theta23 = eps3_square()
    stage1 = extend_scalars_cat(a_cat, p2)
    stage2 = extend_scalars_cat(stage1.category, theta23)
    direct = extend_scalars_cat(a_cat, theta23.compose(p2))
    # a stage 2 over another category with the same base
    other_stage2 = extend_scalars_cat(one_object_category(p2.target), theta23)
    with pytest.raises(ValidationError, match="stage 2 does not extend the stage 1 category"):
        transitivity_check(direct, stage1, other_stage2)
    # a direct extension built from another category
    other_direct = extend_scalars_cat(one_object_category(p2.source), theta23.compose(p2))
    with pytest.raises(ValidationError, match="direct extension is not of the stage 1 source"):
        transitivity_check(other_direct, stage1, stage2)
    # a direct extension along theta12 instead of the composite
    with pytest.raises(ValidationError, match="direct morphism is not the staged composite"):
        transitivity_check(stage1, stage1, stage2)
    # ... and along the zero map into the right target
    ring3, ground = p2.source, theta23.target
    zero = DgRingMorphism(ring3, ground, ChainMap(ring3.underlying, ground.underlying, 0, {}), check=False)
    with pytest.raises(ValidationError, match="direct morphism is not the staged composite"):
        transitivity_check(extend_scalars_cat(a_cat, zero), stage1, stage2)


def test_changeofrings_check_builds_seven_extensions(monkeypatch):
    # its 20 extension trials share one extension per category parity; the
    # transitivity squares over k[e]/(e^3) build the other five
    build = changeofrings.extend_scalars_cat
    calls = []

    def counted(cat, theta):
        calls.append(theta.name)
        return build(cat, theta)

    monkeypatch.setattr(changeofrings, "extend_scalars_cat", counted)
    monkeypatch.setattr(verify, "extend_scalars_cat", counted)
    result = verify.check_changeofrings()
    assert result.passed
    assert len(calls) == 7


def coextension_instance():
    """S = k[e]/e^2 with |e| = -1 as a one-object category, b over the ground
    field, and g(*,*) = S with left action by multiplication."""
    ring, aug = dual_numbers_setup(2, -1)
    a_s = one_object_category(ring)       # A = one-object S-linear (here S = ring)
    b_r = one_object_category(DgRing.ground_field(QQ))
    comps = {("*", "*"): ring.underlying}
    lact = {("*", "*", "*"): ring.product.map}
    lay = TensorLayout([ring.underlying, b_r.hom("*", "*")])

    def entry(combo, idx):
        dx, db = combo
        if db != 0:
            return None
        col = [0] * ring.dim(dx)
        col[idx[0]] = 1
        return Mat.column(QQ, col)

    ract = {("*", "*", "*"): lay.map_from_entries(ring.underlying, 0, entry)}
    return a_s, b_r, Bimodule(a_s, b_r, comps, lact, ract, name="gR")


def test_coextension_adjunction_one_object_S():
    pair = coextension_adjunction_check(*coextension_instance())
    assert passes(pair)


def test_coextension_adjunction_with_odd_morphisms_and_odd_scalars():
    # Iext = (k[e]/e^2)[f], |e| = |f| = -1: s = e and a = f anticommute, so
    # the S-linearity of the morphism action needs the Koszul sign
    from dgkit.instances import exterior_one_object_category
    ring, _ = dual_numbers_setup(2, -1)
    iext = exterior_one_object_category(ring)
    pair = coextension_adjunction_check(iext, iext, Bimodule.diagonal(iext))
    assert pair.morphism_action_s_linear.status == CERTIFIED
    assert passes(pair)


def test_coextension_round_trip_sees_a_changed_right_action(monkeypatch):
    a_s, b_r, g = coextension_instance()
    real = changeofrings.coextension_object

    def doubled_right_action(*args, **kwargs):
        x = real(*args, **kwargs)
        lact = {key: mu.map for key, mu in x.lact.items()}
        ract = {key: ChainMap(mu.map.source, mu.map.target, 0,
                              {d: m.scale(QQ.from_int(2)) for d, m in mu.map.components.items()}, check=False)
                for key, mu in x.ract.items()}
        return Bimodule(x.acat, x.bcat, x.components, lact, ract, name=x.name, check=False)

    monkeypatch.setattr(changeofrings, "coextension_object", doubled_right_action)
    assert coextension_adjunction_check(a_s, b_r, g).round_trip_strict.status == FAILED


def test_coextension_tensor_and_cotensor():
    ring, aug = dual_numbers_setup(2, -1)
    b_r = one_object_category(DgRing.ground_field(QQ))
    scat = one_object_category(ring)
    # F = G = the (S, b)-bimodule S with multiplication S-structure
    comps = {("*", "*"): ring.underlying}
    lact = {("*", "*", "*"): ring.product.map}
    lay = TensorLayout([ring.underlying, b_r.hom("*", "*")])

    def entry(combo, idx):
        dx, db = combo
        if db != 0:
            return None
        col = [0] * ring.dim(dx)
        col[idx[0]] = 1
        return Mat.column(QQ, col)

    ract = {("*", "*", "*"): lay.map_from_entries(ring.underlying, 0, entry)}
    f = Bimodule(scat, b_r, comps, lact, ract, name="Sbim")
    v = ring_as_module(ring, scat)
    assert coextension_tensor_check(v, f, f)
    assert coextension_cotensor_check(v, f, f)


def test_s_vs_r_comparison_on_free_instances():
    ring, aug = dual_numbers_setup(2, -1)
    a_cat = free_arrow_category(ring)
    ext = extend_scalars_cat(a_cat, aug)
    free = Module.representable(ext.category, "X")
    verdict = s_vs_r_module_comparison(ext, [free])
    assert verdict.s_structures_valid.status == verdict.truncation_commutes.status == CERTIFIED
    # the hat/tilde round trip is never computed
    assert verdict.round_trip_identity.status == UNCHECKED
    assert passes(verdict)


def test_heart_coextension_ground_field():
    # S = k: the heart datum is just a k-linear functor; instances in degree 0
    ring = DgRing.ground_field(QQ)
    theta = DgRingMorphism.identity(ring)
    b_r = one_object_category(ring)
    scat = one_object_category(ring)
    diag = Bimodule.diagonal(b_r)
    verdict = heart_coextension_check(b_r, theta, [diag])
    assert passes(verdict)
    assert verdict.heart_members == [0]


def test_heart_coextension_leaves_what_it_cannot_compare_unchecked():
    # k[e]/e^2 with |e| = -1 has cohomology in degrees -1 and 0: no member,
    # so nothing is identified
    ring, _ = dual_numbers_setup(2, -1)
    b_r = one_object_category(DgRing.ground_field(QQ))
    from dgkit.instances import cross_representable_bimodule
    x = cross_representable_bimodule(one_object_category(ring), b_r, "*", "*")
    verdict = heart_coextension_check(b_r, DgRingMorphism.identity(ring), [x])
    assert verdict.heart_members == []
    assert [u["path"] for u in unchecked(verdict)] == [
        "/realizations_quasi_iso", "/h0_data_s_linear", "/objectwise_t_cohomology"]
    # over k, the diagonal twice is in the heart but no representable is
    # quasi-isomorphic to it: its t-cohomology has nothing to be compared with
    ground = DgRing.ground_field(QQ)
    b_r = one_object_category(ground)
    diag = Bimodule.diagonal(b_r)
    verdict = heart_coextension_check(b_r, DgRingMorphism.identity(ground),
                                      [diag, direct_sum_bimodules([diag, diag])])
    assert verdict.heart_members == [0, 1]
    assert verdict.realizations_quasi_iso.status == verdict.h0_data_s_linear.status == CERTIFIED
    assert unchecked(verdict) == [{"path": "/objectwise_t_cohomology",
                                   "reason": "members [1] have no quasi-representative"}]


def test_heart_coextension_dual_numbers_degree0():
    # S = k[u]/(u^2) in degree 0: heart objects = S-modules presented in the set
    ring, aug = make_dual_numbers(2, 0, QQ)
    b_r = one_object_category(DgRing.ground_field(QQ))
    scat = one_object_category(ring)
    # instance: S itself as an (S, b)-bimodule
    comps = {("*", "*"): ring.underlying}
    lact = {("*", "*", "*"): ring.product.map}
    lay = TensorLayout([ring.underlying, b_r.hom("*", "*")])

    def entry(combo, idx):
        dx, db = combo
        if db != 0:
            return None
        col = [0] * ring.dim(dx)
        col[idx[0]] = 1
        return Mat.column(QQ, col)

    ract = {("*", "*", "*"): lay.map_from_entries(ring.underlying, 0, entry)}
    x = Bimodule(scat, b_r, comps, lact, ract, name="Sheart")
    theta = DgRingMorphism.identity(DgRing.ground_field(QQ))
    verdict = heart_coextension_check(b_r, aug_to_identity(aug), [x])
    assert 0 in verdict.heart_members
    assert verdict.realizations_quasi_iso.status == CERTIFIED
    assert verdict.h0_data_s_linear.status == CERTIFIED


def aug_to_identity(aug):
    # the heart check only needs theta for H^0(S); pass a morphism whose
    # target is the S at hand
    from dgkit.dgring import DgRingMorphism
    return DgRingMorphism.identity(aug.source)


def test_duality_commutes_with_coextension_dims():
    # dual of an (S, b)-bimodule computed with its S-structure in place has
    # the same graded dimensions as the plain module-level dual, and smart
    # truncation commutes at the dimension level
    from dgkit.bimodules import dual_of, module_hom_complex, Module
    from dgkit.changeofrings import truncate_bimodule_le0
    ring, aug = dual_numbers_setup(2, -1)
    scat = one_object_category(ring)
    b_r = one_object_category(DgRing.ground_field(QQ))
    from dgkit.instances import cross_representable_bimodule
    x = cross_representable_bimodule(scat, b_r, "*", "*")
    d = dual_of(x)
    plain = module_hom_complex(x.module_at("*"),
                               Module.representable(b_r, "*"))
    for deg in set(d.at("*", "*").degrees()) | set(plain.complex.degrees()):
        assert d.at("*", "*").dim(deg) == plain.complex.dim(deg)
    # t-exactness at truncation level: tle0 of the dual vs dual dims in <= 0
    td, _ = truncate_bimodule_le0(d)
    dh = d.at("*", "*").cohomology().as_dict()
    th = td.at("*", "*").cohomology().as_dict()
    for deg, v in dh.items():
        if deg <= 0:
            assert th.get(deg, 0) == v


def test_hfp_interchange_on_coextension_instance():
    ring, aug = dual_numbers_setup(2, -1)
    scat = one_object_category(ring)
    b_r = one_object_category(DgRing.ground_field(QQ))
    from dgkit.instances import cross_representable_bimodule
    x = cross_representable_bimodule(scat, b_r, "*", "*")

    def cohomology(m):
        return {a: m.at(a).cohomology().as_dict() for a in m.cat.objects}

    # the same cohomology read over b and over S
    coext = cohomology(x.module_at("*"))
    assert coext == {"*": {-1: 1, 0: 1}}
    for b in b_r.objects:
        assert cohomology(Module_from_component(x, b)) == coext


def Module_from_component(x, b):
    from dgkit.changeofrings import s_module_of_component
    scat = x.acat
    return s_module_of_component(x, b, scat)
