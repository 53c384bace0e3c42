"""Dg-categories: truncation, H^0, opposites, tensor products."""

import random

import pytest

from dgkit.fields import QQ
from dgkit.dgring import DgRing, make_dual_numbers
from dgkit.dgcat import (
    DgCategory,
    h0_category,
    h0_ring,
    one_object_category,
    opposite,
    tensor_cat,
    truncate_cat,
)
from dgkit.instances import exterior_one_object_category, random_nonpositive_category, small_random_category
from dgkit.matrix import Mat
from dgkit.complexes import Complex, TensorLayout
from dgkit.errors import ValidationError


def test_one_object_category_from_ring():
    ring, _ = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    assert cat.objects == ("*",)
    assert cat.hom("*", "*") == ring.underlying


def test_random_categories_validate():
    rng = random.Random(101)
    for _ in range(6):
        cat = random_nonpositive_category(rng, QQ, n_objects=rng.randint(1, 3))
        assert cat.is_strictly_nonpositive()


def test_truncate_cat_of_nonpositive_is_identity_shape():
    rng = random.Random(103)
    cat = random_nonpositive_category(rng, QQ, n_objects=2)
    tcat, incl, toh0 = truncate_cat(cat)
    for a in cat.objects:
        for b in cat.objects:
            assert {d: tcat.hom(a, b).dim(d) for d in tcat.hom(a, b).degrees()} == \
                {d: cat.hom(a, b).dim(d) for d in cat.hom(a, b).degrees()}


def test_truncate_cat_removes_positive_part():
    # one object, End = unit line + a two-term identity complex in degrees 0,1
    field = QQ
    base = DgRing.ground_field(field)
    dims = {0: 2, 1: 1}
    diffs = {0: Mat(field, 1, 2, [[0, 1]])}
    end = Complex(field, dims, diffs, name="End")
    lay = TensorLayout([end, end])

    def entry(combo, idx):
        dg, df = combo
        i, j = idx
        if dg == 0 and i == 0:
            col = [0] * end.dim(df)
            col[j] = 1
            return Mat.column(field, col)
        if df == 0 and j == 0:
            col = [0] * end.dim(dg)
            col[i] = 1
            return Mat.column(field, col)
        return None

    comp = {("*", "*", "*"): lay.map_from_entries(end, 0, entry)}
    cat = DgCategory(base, ["*"], {("*", "*"): end}, comp,
                     {"*": Mat.basis_column(field, 2, 0)}, name="onepos")
    tcat, incl, _ = truncate_cat(cat)
    t_end = tcat.hom("*", "*")
    assert t_end.max_degree() == 0
    assert t_end.dim(0) == 1  # Z^0 = unit line only
    full = cat.hom("*", "*").cohomology().as_dict()
    trunc = t_end.cohomology().as_dict()
    for d, v in full.items():
        if d <= 0:
            assert trunc.get(d, 0) == v


def test_truncation_inclusion_quasi_equivalence_on_nonpositive_cohomology():
    rng = random.Random(107)
    for _ in range(4):
        cat = random_nonpositive_category(rng, QQ, n_objects=2)
        tcat, incl, _ = truncate_cat(cat)
        for a in cat.objects:
            for b in cat.objects:
                assert incl.hom_map(a, b).is_quasi_iso()


def test_h0_category_of_degree0_category():
    rng = random.Random(109)
    cat = random_nonpositive_category(rng, QQ, n_objects=2, flavor="path")
    h0 = h0_category(cat)
    # path categories have zero differentials so H^0 = degree-0 part
    for a in cat.objects:
        for b in cat.objects:
            assert h0.dim(a, b) == cat.hom(a, b).dim(0)


def test_h0_of_dual_numbers_category():
    ring, _ = make_dual_numbers(2, -1, QQ)
    cat = one_object_category(ring)
    h0 = h0_category(cat)
    assert h0.dim("*", "*") == 1


def test_h0_acyclic_hom_is_zero():
    rng = random.Random(113)
    cat = random_nonpositive_category(rng, QQ, n_objects=2, flavor="discrete")
    h0 = h0_category(cat)
    for a in cat.objects:
        for b in cat.objects:
            assert h0.dim(a, b) == cat.hom(a, b).cohomology().dim(0)


def test_h0_rejects_composition_not_well_defined_on_classes():
    # End = <1, s, v>, |s| = -1, ds = v; a composition (unchecked) with
    # 1 o v = 1, or with v o 1 = 1, sends a coboundary to the class of 1
    end = Complex(QQ, {-1: 1, 0: 2}, {-1: Mat(QQ, 2, 1, [[0], [1]])})
    for unit_slot in (0, 1):
        def entry(combo, idx):
            return Mat.basis_column(QQ, 2, 0) if combo == (0, 0) and idx[unit_slot] == 0 else None

        comp = TensorLayout([end, end]).map_from_entries(end, 0, entry, check=False)
        cat = DgCategory(DgRing.ground_field(QQ), ["*"], {("*", "*"): end}, {("*", "*", "*"): comp},
                         {"*": Mat.basis_column(QQ, 2, 0)}, check=False)
        with pytest.raises(ValidationError, match="not well defined on classes"):
            h0_category(cat)


def test_opposite_involution_strict():
    """opposite(opposite(C)) is C itself, and that shortcut hides nothing:
    op(C) rebuilt as a plain category, with no record of C, has C's homs,
    composition and action as its opposite.  The exterior category has odd
    elements (e and f), so the two swap signs must cancel."""
    ring, _ = make_dual_numbers(2, -1, QQ)
    cats = [random_nonpositive_category(random.Random(127), QQ, n_objects=2, flavor="path"),
            exterior_one_object_category(ring)]
    assert any(d % 2 for d in cats[1].hom("*", "*").degrees())
    for cat in cats:
        op = opposite(cat)
        assert opposite(op) is cat
        plain = DgCategory(op.base, op.objects, op.homs, {key: mu.map for key, mu in op.comp.items()}, op.ids,
                           action={key: act.map for key, act in op.action.items()}, name="plain")
        op2 = opposite(plain)
        assert op2 is not cat
        for a in cat.objects:
            for b in cat.objects:
                assert op2.hom(a, b) == cat.hom(a, b)
                assert op2.action[(a, b)].map == cat.action[(a, b)].map
        for key, mu in cat.comp.items():
            assert op2.comp[key].map == mu.map


def test_tensor_with_unit_category():
    rng = random.Random(131)
    cat = random_nonpositive_category(rng, QQ, n_objects=2, flavor="path")
    unit = one_object_category(DgRing.ground_field(QQ))
    prod = tensor_cat(cat, unit)
    assert len(prod.objects) == len(cat.objects)
    for a in cat.objects:
        for b in cat.objects:
            assert {d: prod.hom((a, "*"), (b, "*")).dim(d)
                    for d in prod.hom((a, "*"), (b, "*")).degrees()} == \
                {d: cat.hom(a, b).dim(d) for d in cat.hom(a, b).degrees()}


def test_tensor_nonpositive_h0_matches_tensor_of_h0():
    rng = random.Random(137)
    a = random_nonpositive_category(rng, QQ, n_objects=2, flavor="path")
    b = random_nonpositive_category(rng, QQ, n_objects=1, flavor="discrete")
    prod = tensor_cat(a, b)
    assert prod.is_strictly_nonpositive()
    h0a = h0_category(a)
    h0b = h0_category(b)
    h0p = h0_category(prod)
    for x in a.objects:
        for y in a.objects:
            for u in b.objects:
                for v in b.objects:
                    assert h0p.dim((x, u), (y, v)) == h0a.dim(x, y) * h0b.dim(u, v)


def test_opposite_of_tensor_is_tensor_of_opposites():
    rng = random.Random(139)
    a = random_nonpositive_category(rng, QQ, n_objects=2, flavor="path")
    b = random_nonpositive_category(rng, QQ, n_objects=1, flavor="discrete")
    lhs = opposite(tensor_cat(a, b))
    rhs = tensor_cat(opposite(a), opposite(b))
    for key in lhs.comp:
        assert lhs.comp[key].map == rhs.comp[key].map


def test_hstar_dims():
    ring, _ = make_dual_numbers(3, -2, QQ)
    cat = one_object_category(ring)
    assert cat.hom("*", "*").cohomology().as_dict() == {0: 1, -2: 1, -4: 1}


def test_h0_ring_of_truncated():
    ring, _ = make_dual_numbers(2, -1, QQ)
    h0, proj = h0_ring(ring)
    assert h0.total_dim() == 1
    assert all(proj.surjectivity_by_degree().values())


def reference_small_random_category(rng, field, n_objects, max_total_hom):
    """The build-then-reject loop: each draw is built and checked whole, then
    measured against the cap."""
    for _ in range(50):
        cat = random_nonpositive_category(rng, field, n_objects=n_objects)
        if sum(cx.total_dim() for cx in cat.homs.values()) <= max_total_hom:
            return cat
    return random_nonpositive_category(rng, field, n_objects=1, flavor="discrete")


def test_small_random_category_builds_only_the_accepted_draw(monkeypatch):
    built = []
    init = DgCategory.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    # every pair of 1-3 objects and a cap of 4-12 over the seeds, then two
    # caps no three-object draw meets, which end in the one-object fallback
    cases = [(seed, 1 + seed % 3, 4 + seed // 3 % 9) for seed in range(200)] + [(0, 3, 2), (1, 3, 2)]
    for seed, n_objects, cap in cases:
        rng, replay = random.Random(seed), random.Random(seed)
        expected = reference_small_random_category(replay, QQ, n_objects, cap)
        monkeypatch.setattr(DgCategory, "__init__", counted)
        built.clear()
        cat = small_random_category(rng, QQ, n_objects, max_total_hom=cap)
        monkeypatch.setattr(DgCategory, "__init__", init)
        assert built == [cat]
        assert (cat.homs, cat.ids) == (expected.homs, expected.ids)
        assert all(mu.map == expected.comp[key].map for key, mu in cat.comp.items())
        assert rng.getstate() == replay.getstate()
