"""Construction-time structure laws: one hand-broken instance per law, and a
seeded mutation test comparing the category check with an elementwise
reference."""

import random

import pytest

from dgkit.bimodules import Bimodule, Module, ModuleMap
from dgkit.complexes import ChainMap, Complex, TensorLayout
from dgkit.dgcat import DgCategory, DgFunctor, one_object_category
from dgkit.dgring import DgIdeal, DgRing, DgRingMorphism, make_dual_numbers
from dgkit.errors import ValidationError
from dgkit.fields import GF, QQ
from dgkit.instances import (
    exterior_extension_ring,
    exterior_one_object_category,
    free_arrow_category,
    random_nonpositive_category,
)
from dgkit.matrix import Mat

F = QQ


def space(n: int, name: str = "V") -> Complex:
    """k^n concentrated in degree 0."""
    return Complex(F, {0: n} if n else {}, {}, name=name)


def pairing(first: Complex, second: Complex, target: Complex, table) -> ChainMap:
    """Degree-0 pairing of degree-0 spaces; ``table(i, j)`` is the image of
    e_i (x) e_j as a list of coefficients."""
    def entry(combo, idx):
        return Mat.column(F, [F.parse(str(v)) for v in table(*idx)])
    return TensorLayout([first, second]).map_from_entries(target, 0, entry, check=False)


def linear(source: Complex, target: Complex, columns) -> ChainMap:
    return ChainMap(source, target, 0, {0: Mat.from_columns(F, target.dim(0), columns)})


def unit_vector(n: int, i: int = 0) -> Mat:
    return Mat.basis_column(F, n, i)


# -- algebras on degree-0 bases ------------------------------------------------------

def product(n: int, products):
    """Multiplication of coefficient lists on k^n: basis 0 is the unit and
    ``products`` maps (i, j) with i, j > 0 to the coefficients of e_i e_j
    (zero when absent)."""
    def basis_product(i, j):
        if i == 0 or j == 0:
            return [int(k == i + j) for k in range(n)]
        return products.get((i, j), [0] * n)

    def mul(u, v):
        out = [0] * n
        for i, cu in enumerate(u):
            for j, cv in enumerate(v):
                if cu and cv:
                    out = [o + cu * cv * c for o, c in zip(out, basis_product(i, j))]
        return out
    return mul


def basis_list(n: int, i: int):
    return [int(k == i) for k in range(n)]


def table_algebra(n: int, products):
    cx = space(n, "A")
    mul = product(n, products)
    return cx, pairing(cx, cx, cx, lambda i, j: mul(basis_list(n, i), basis_list(n, j)))


# basis 1, a = e11, n = e12 of the upper triangular 2x2 matrices: associative, not commutative
TRIANGULAR = {(1, 1): [0, 1, 0], (1, 2): [0, 0, 1]}
# basis 1, x, y with x*x = y and y*y = y: commutative, not associative
NONASSOC = {(1, 1): [0, 0, 1], (2, 2): [0, 0, 1]}


def dual_numbers():
    """k[e]/e^2 with |e| = 0."""
    ring, _ = make_dual_numbers(2, 0, F)
    return ring


def one_object(hom: Complex, comp: ChainMap, unit: Mat, base=None, action=None) -> DgCategory:
    base = base or DgRing.ground_field(F)
    return DgCategory(base, ["*"], {("*", "*"): hom}, {("*", "*", "*"): comp}, {"*": unit},
                      action=None if action is None else {("*", "*"): action})


# -- rings -------------------------------------------------------------------------


def test_ring_unit_law():
    with pytest.raises(ValidationError, match="unit fails"):
        DgRing.from_table(F, [0, 0], ["1", "x"], 1,
                          lambda i, j: {} if i and j else {max(i, j): F.one()})


def test_ring_graded_commutativity_law():
    cx, mult = table_algebra(3, TRIANGULAR)
    with pytest.raises(ValidationError, match="graded commutativity fails"):
        DgRing(cx, unit_vector(3), mult)


def test_ring_associativity_law():
    mul = product(3, NONASSOC)

    def table(i, j):
        return {k: F.parse(str(c)) for k, c in enumerate(mul(basis_list(3, i), basis_list(3, j))) if c}

    with pytest.raises(ValidationError, match=r"associativity fails on \(x, x, y\)"):
        DgRing.from_table(F, [0, 0, 0], ["1", "x", "y"], 0, table)


def test_ring_morphism_multiplicativity_law():
    ring = dual_numbers()
    # unital, but sends e to 1, and e^2 = 0 to 0 != 1
    theta = linear(ring.underlying, ring.underlying, [[1, 0], [1, 0]])
    with pytest.raises(ValidationError, match=r"not multiplicative on \(e, e\)"):
        DgRingMorphism(ring, ring, theta)


def test_ideal_closure_law():
    ring, _ = make_dual_numbers(3, 0, F)
    # the span of e in k[e]/e^3 misses e * e = e^2
    incl = linear(space(1, "I"), ring.underlying, [[0, 1, 0]])
    with pytest.raises(ValidationError, match="not closed under multiplication by e$"):
        DgIdeal(ring, incl)


# -- categories ----------------------------------------------------------------------


def test_category_left_identity_law():
    # x y = x on the basis: associative, and every basis vector is a right unit only
    cx = space(2)
    comp = pairing(cx, cx, cx, lambda i, j: [int(k == i) for k in range(2)])
    with pytest.raises(ValidationError, match="left identity fails"):
        one_object(cx, comp, unit_vector(2))


def test_category_right_identity_law():
    cx = space(2)
    comp = pairing(cx, cx, cx, lambda i, j: [int(k == j) for k in range(2)])
    with pytest.raises(ValidationError, match="right identity fails"):
        one_object(cx, comp, unit_vector(2))


def test_category_associativity_law():
    cx, comp = table_algebra(3, NONASSOC)
    with pytest.raises(ValidationError, match="associativity fails"):
        one_object(cx, comp, unit_vector(3))


def test_category_action_unit_law():
    cx, comp = table_algebra(3, TRIANGULAR)
    base = DgRing.ground_field(F)
    zero = ChainMap.zero_map(TensorLayout([base.underlying, cx]).complex, cx)
    with pytest.raises(ValidationError, match="base action not unital"):
        one_object(cx, comp, unit_vector(3), action=zero)


def test_category_action_associativity_law():
    ring = dual_numbers()
    cx = ring.underlying
    # 1 and e both act as the identity, so e.(e.f) = f but (e e).f = 0
    action = pairing(cx, cx, cx, lambda r, h: [int(k == h) for k in range(2)])
    with pytest.raises(ValidationError, match="base action not associative"):
        one_object(cx, ring.mult, ring.unit, base=ring, action=action)


def _triangular_over_dual_numbers(side: str):
    """End = upper triangular matrices over k[e]/e^2, with e acting by the
    non-central n = e12, multiplied on the given side."""
    ring = dual_numbers()
    cx, comp = table_algebra(3, TRIANGULAR)
    mul = product(3, TRIANGULAR)
    phi = [basis_list(3, 0), basis_list(3, 2)]   # 1 -> 1, e -> n

    def act(r, h):
        return mul(phi[r], basis_list(3, h)) if side == "left" else mul(basis_list(3, h), phi[r])

    action = pairing(ring.underlying, cx, cx, act)
    return one_object(cx, comp, unit_vector(3), base=ring, action=action)


def test_category_left_centrality_law():
    with pytest.raises(ValidationError, match=r"not central \(left\)"):
        _triangular_over_dual_numbers("right")


def test_category_right_centrality_law():
    with pytest.raises(ValidationError, match=r"not central \(right\)"):
        _triangular_over_dual_numbers("left")


def test_right_centrality_defect_after_a_degree_with_zero_target():
    # the base k[e]/e^2 (x) Lambda(f), |f| = -1, has a degree -1 where the
    # triangular End is zero; the check skips that degree of
    # base (x) End (x) End and must still find e = n failing in degree 0
    base = exterior_extension_ring(dual_numbers(), -1)
    cx, comp = table_algebra(3, TRIANGULAR)
    mul = product(3, TRIANGULAR)
    phi = [basis_list(3, 0), basis_list(3, 2)]   # 1 -> 1, e -> n; f and ef land in degree -1

    def entry(combo, idx):
        return Mat.column(F, mul(phi[idx[0]], basis_list(3, idx[1]))) if combo == (0, 0) else None

    action = TensorLayout([base.underlying, cx]).map_from_entries(cx, 0, entry, check=False)
    assert TensorLayout([base.underlying, cx, cx]).dim(-1) and cx.dim(-1) == 0
    with pytest.raises(ValidationError, match=r"not central \(right\)"):
        one_object(cx, comp, unit_vector(3), base=base, action=action)


# -- functors ------------------------------------------------------------------------


def test_functor_identity_law():
    cat = one_object_category(dual_numbers())
    cx = cat.hom("*", "*")
    with pytest.raises(ValidationError, match="identities not preserved"):
        DgFunctor(cat, cat, {"*": "*"}, {("*", "*"): ChainMap.zero_map(cx, cx)})


def test_functor_composition_law():
    ring = dual_numbers()
    cat = one_object(ring.underlying, ring.mult, ring.unit)   # over the ground field
    cx = ring.underlying
    with pytest.raises(ValidationError, match="composition not preserved"):
        DgFunctor(cat, cat, {"*": "*"}, {("*", "*"): linear(cx, cx, [[1, 0], [1, 0]])})


def test_base_linearity_defect_after_a_degree_with_zero_target():
    # k[e]/e^2 with |e| = -1: base (x) End has a degree -2 where End is zero,
    # skipped by the check, before the defect F(e . 1) = 2e != e . F(1) in degree -1
    ring, _ = make_dual_numbers(2, -1, F)
    cat = one_object_category(ring)
    cx = cat.hom("*", "*")
    double_e = ChainMap(cx, cx, 0, {0: Mat.identity(F, 1), -1: Mat(F, 1, 1, [[2]])})
    assert TensorLayout([ring.underlying, cx]).dim(-2) and cx.dim(-2) == 0
    with pytest.raises(ValidationError, match="not linear over the base"):
        DgFunctor(cat, cat, {"*": "*"}, {("*", "*"): double_e})


def test_functor_base_linearity_law():
    cat = one_object_category(dual_numbers())
    cx = cat.hom("*", "*")
    # e -> 2e is a ring automorphism, so it respects identities and composition
    with pytest.raises(ValidationError, match="not linear over the base"):
        DgFunctor(cat, cat, {"*": "*"}, {("*", "*"): linear(cx, cx, [[1, 0], [0, 2]])})


# -- modules and module maps ---------------------------------------------------------


def test_module_unit_law():
    cat = one_object_category(DgRing.ground_field(F))
    m = space(1, "M")
    zero = ChainMap.zero_map(TensorLayout([m, cat.hom("*", "*")]).complex, m)
    with pytest.raises(ValidationError, match="action not unital"):
        Module(cat, {"*": m}, {("*", "*"): zero})


def test_module_associativity_law():
    cat = one_object_category(dual_numbers())
    m = space(1, "M")
    act = pairing(m, cat.hom("*", "*"), m, lambda i, f: [1])   # e acts as 1
    with pytest.raises(ValidationError, match="action not associative"):
        Module(cat, {"*": m}, {("*", "*"): act})


def test_module_map_action_law():
    cat = one_object_category(dual_numbers())
    h = Module.representable(cat, "*")
    cx = h.at("*")
    # the projection 1 -> 1, e -> 0 is not right R-linear: p(1 . e) = 0, p(1) . e = e
    with pytest.raises(ValidationError, match="does not respect the action"):
        ModuleMap(h, h, 0, {"*": linear(cx, cx, [[1, 0], [0, 0]])})


# -- bimodules -------------------------------------------------------------------------


A_NIL = [[0, 1], [0, 0]]
B_NIL = [[0, 0], [1, 0]]


def _bimodule(left, right):
    """T = k^2 over k[e]/e^2 on both sides; ``left`` and ``right`` give the
    matrices by which 1 and e act."""
    cat = one_object_category(dual_numbers())
    t = space(2, "T")
    hom = cat.hom("*", "*")
    lact = pairing(hom, t, t, lambda f, x: [left[f][k][x] for k in range(2)])
    ract = pairing(t, hom, t, lambda x, f: [right[f][k][x] for k in range(2)])
    return Bimodule(cat, cat, {("*", "*"): t}, {("*", "*", "*"): lact}, {("*", "*", "*"): ract})


ID2 = [[1, 0], [0, 1]]
ZERO2 = [[0, 0], [0, 0]]


def test_bimodule_reference_instance_is_valid():
    _bimodule([ID2, A_NIL], [ID2, A_NIL])


def test_bimodule_left_unit_law():
    with pytest.raises(ValidationError, match="left action not unital"):
        _bimodule([ZERO2, ZERO2], [ID2, ZERO2])


def test_bimodule_right_unit_law():
    with pytest.raises(ValidationError, match="right action not unital"):
        _bimodule([ID2, ZERO2], [ZERO2, ZERO2])


def test_bimodule_left_associativity_law():
    with pytest.raises(ValidationError, match="left action not associative"):
        _bimodule([ID2, ID2], [ID2, ZERO2])


def test_bimodule_right_associativity_law():
    with pytest.raises(ValidationError, match="right action not associative"):
        _bimodule([ID2, ZERO2], [ID2, ID2])


def test_bimodule_commuting_actions_law():
    with pytest.raises(ValidationError, match="actions do not commute"):
        _bimodule([ID2, A_NIL], [ID2, B_NIL])


# -- seeded mutation test against an elementwise reference ------------------------------


def _pair(lay: TensorLayout, cm: ChainMap, dx: int, x: Mat, dy: int, y: Mat) -> Mat:
    """cm(x (x) y) for homogeneous x, y, summed over basis pairs."""
    field = cm.source.field
    comp = cm.component(dx + dy)
    out = Mat.zero(field, cm.target.dim(dx + dy + cm.degree), 1)
    for i, xv in enumerate(x.column_values(0)):
        for j, yv in enumerate(y.column_values(0)):
            if not field.is_zero(xv) and not field.is_zero(yv):
                out = out + comp.col(lay.position((dx, dy), (i, j))).scale(field.mul(xv, yv))
    return out


def _basis(cx: Complex):
    for d in cx.degrees():
        for i in range(cx.dim(d)):
            yield d, Mat.basis_column(cx.field, cx.dim(d), i)


def reference_category_laws(cat: DgCategory) -> bool:
    """Every category law on basis elements: identities, associativity, and
    a unital, associative base action central on both sides."""
    objs = cat.objects
    base = cat.base

    def comp(a, b, c, dg, g, df, f):
        return _pair(cat.comp_layouts[(a, b, c)], cat.comp[(a, b, c)], dg, g, df, f)

    def act(a, b, dr, r, df, f):
        return _pair(cat.action_layouts[(a, b)], cat.action[(a, b)], dr, r, df, f)

    def mul(dr, r, ds, s):
        return _pair(base.square, base.mult, dr, r, ds, s)

    for a in objs:
        for b in objs:
            for df, f in _basis(cat.hom(a, b)):
                if comp(a, b, b, 0, cat.ids[b], df, f) != f or comp(a, a, b, df, f, 0, cat.ids[a]) != f:
                    return False
                if act(a, b, 0, base.unit, df, f) != f:
                    return False
                for dr, r in _basis(base.underlying):
                    for ds, s in _basis(base.underlying):
                        if act(a, b, dr, r, ds + df, act(a, b, ds, s, df, f)) != \
                                act(a, b, dr + ds, mul(dr, r, ds, s), df, f):
                            return False
                for c in objs:
                    for dg, g in _basis(cat.hom(b, c)):
                        gf = comp(a, b, c, dg, g, df, f)
                        for dr, r in _basis(base.underlying):
                            r_gf = act(a, c, dr, r, dg + df, gf)
                            if comp(a, b, c, dr + dg, act(b, c, dr, r, dg, g), df, f) != r_gf:
                                return False
                            right = comp(a, b, c, dg, g, dr + df, act(a, b, dr, r, df, f))
                            if (-right if dr % 2 and dg % 2 else right) != r_gf:
                                return False
                        for d in objs:
                            for dh, h in _basis(cat.hom(c, d)):
                                if comp(a, b, d, dh + dg, comp(b, c, d, dh, h, dg, g), df, f) != \
                                        comp(a, c, d, dh, h, dg + df, gf):
                                    return False
    return True


def _perturbed(cm: ChainMap, rng: random.Random) -> ChainMap:
    """cm with one entry of one nonempty component raised by a nonzero scalar."""
    field = cm.source.field
    degs = [d for d in cm.source.degrees() if cm.target.dim(d + cm.degree)]
    d = rng.choice(degs)
    mat = cm.component(d)
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    grid = [list(row) for row in mat.entries]
    grid[i][j] = field.add(grid[i][j], field.parse(str(rng.randint(1, 3))))
    comps = dict(cm.components)
    comps[d] = Mat(field, mat.rows, mat.cols, grid)
    return ChainMap(cm.source, cm.target, cm.degree, comps, check=False)


def _mutants(cat: DgCategory, rng: random.Random, count: int):
    """Unchecked copies of cat with one entry of one comp or action block perturbed."""
    nonempty = [(table, key) for table in ("comp", "action") for key, cm in getattr(cat, table).items()
                if any(cm.target.dim(d) for d in cm.source.degrees())]
    for _ in range(count):
        table, key = rng.choice(nonempty)
        maps = {"comp": dict(cat.comp), "action": dict(cat.action)}
        maps[table][key] = _perturbed(maps[table][key], rng)
        yield DgCategory(cat.base, cat.objects, cat.homs, maps["comp"], cat.ids,
                         action=maps["action"], name=cat.name, check=False)


def _mutation_instances():
    rng = random.Random(20261018)
    cats = []
    for field in (QQ, GF(7)):
        for _ in range(6):
            cats.append(random_nonpositive_category(rng, field, n_objects=2))
    for field in (QQ, GF(7)):
        ring, _ = make_dual_numbers(2, -1, field)
        cats.append(one_object_category(ring))
        cats.append(free_arrow_category(ring))
        cats.append(exterior_one_object_category(ring, -1))
    even, _ = make_dual_numbers(2, -2, QQ)
    cats.append(exterior_one_object_category(even, -1))
    return rng, cats


def test_category_check_agrees_with_elementwise_reference_under_mutation():
    rng, cats = _mutation_instances()
    verdicts = []
    for cat in cats:
        assert reference_category_laws(cat), cat.name
        for raw in _mutants(cat, rng, 5):
            expected = reference_category_laws(raw)
            try:
                DgCategory(raw.base, raw.objects, raw.homs, raw.comp, raw.ids, action=raw.action)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == expected, cat.name
            verdicts.append(accepted)
    assert len(verdicts) == 5 * len(cats)
    assert not all(verdicts)
