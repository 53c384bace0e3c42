"""Construction-time structure laws: one hand-broken instance per law, and a
seeded mutation test comparing the category check with an elementwise
reference."""

import itertools
import random

import pytest

from dgkit import complexes
from dgkit.bimodules import Bimodule, Module, ModuleMap
from dgkit.complexes import (ChainMap, Complex, Pairing, TensorLayout, associativity_defect, morphism_defect,
                             unit_defect)
from dgkit.dgcat import DgCategory, DgFunctor, one_object_category
from dgkit.dgring import DgIdeal, DgRing, DgRingMorphism, make_dual_numbers
from dgkit.errors import ValidationError
from dgkit.fields import GF, QQ
from dgkit.instances import (
    exterior_extension_ring,
    exterior_one_object_category,
    free_arrow_category,
    random_nonpositive_category,
    weak_cokernel_gap_category,
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
                          lambda i, j: {} if i and j else {max(i, j): 1})


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
        one_object(cx, ring.product.map, ring.unit, base=ring, action=action)


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
    cat = one_object(ring.underlying, ring.product.map, ring.unit)   # over the ground field
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


def _pair(mu: Pairing, dx: int, x: Mat, dy: int, y: Mat) -> Mat:
    """mu(x (x) y) for homogeneous x, y, summed over basis pairs."""
    lay, cm = mu.layout, mu.map
    field = cm.source.field
    comp = cm.component(dx + dy)
    out = Mat.zero(field, cm.target.dim(dx + dy + cm.degree), 1)
    for i, xv in enumerate(x.column_values(0)):
        for j, yv in enumerate(y.column_values(0)):
            if xv and yv:
                out = out + comp.col(lay.position((dx, dy), (i, j))).scale(xv * yv)
    return out


def _maps(pairings):
    """The chain maps of a dict of pairings, as a constructor takes them."""
    return {key: mu.map for key, mu in pairings.items()}


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
        return _pair(cat.comp[(a, b, c)], dg, g, df, f)

    def act(a, b, dr, r, df, f):
        return _pair(cat.action[(a, b)], dr, r, df, f)

    def mul(dr, r, ds, s):
        return _pair(base.product, dr, r, ds, s)

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
    grid[i][j] += field.parse(str(rng.randint(1, 3)))
    comps = dict(cm.components)
    comps[d] = Mat(field, mat.rows, mat.cols, grid)
    return ChainMap(cm.source, cm.target, cm.degree, comps, check=False)


def _mutants(cat: DgCategory, rng: random.Random, count: int):
    """Unchecked copies of cat with one entry of one comp or action block perturbed."""
    nonempty = [(table, key) for table in ("comp", "action") for key, mu in getattr(cat, table).items()
                if any(mu.map.target.dim(d) for d in mu.map.source.degrees())]
    for _ in range(count):
        table, key = rng.choice(nonempty)
        maps = {"comp": _maps(cat.comp), "action": _maps(cat.action)}
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
                DgCategory(raw.base, raw.objects, raw.homs, _maps(raw.comp), raw.ids, action=_maps(raw.action))
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == expected, cat.name
            verdicts.append(accepted)
    assert len(verdicts) == 5 * len(cats)
    assert not all(verdicts)


# -- rings and bimodules under mutation, on odd-odd instances ---------------------------
#
# The random generators never produce an odd element against an odd one with
# both products nonzero, so these instances are built by hand: k[e]/e^2 with
# |e| = -1, its exterior extension by an odd f, and categories over them.


def reference_ring_laws(ring: DgRing) -> bool:
    """Unit, graded commutativity and associativity on basis elements."""
    def mul(dx, x, dy, y):
        return _pair(ring.product, dx, x, dy, y)

    basis = list(_basis(ring.underlying))
    for dx, x in basis:
        if mul(0, ring.unit, dx, x) != x or mul(dx, x, 0, ring.unit) != x:
            return False
        for dy, y in basis:
            xy, yx = mul(dx, x, dy, y), mul(dy, y, dx, x)
            if xy != (-yx if dx % 2 and dy % 2 else yx):
                return False
            for dz, z in basis:
                if mul(dx + dy, xy, dz, z) != mul(dx, x, dy + dz, mul(dy, y, dz, z)):
                    return False
    return True


def reference_bimodule_laws(t: Bimodule) -> bool:
    """Both units, both associativities and the commuting of the two actions
    on basis elements."""
    acat, bcat = t.acat, t.bcat

    def left(a1, a2, b, df, f, dx, x):
        return _pair(t.lact[(a1, a2, b)], df, f, dx, x)

    def right(a, b1, b2, dx, x, df, f):
        return _pair(t.ract[(a, b1, b2)], dx, x, df, f)

    def comp(cat, a, b, c, dg, g, df, f):
        return _pair(cat.comp[(a, b, c)], dg, g, df, f)

    for a, b in itertools.product(acat.objects, bcat.objects):
        for dx, x in _basis(t.at(a, b)):
            if left(a, a, b, 0, acat.ids[a], dx, x) != x or right(a, b, b, dx, x, 0, bcat.ids[b]) != x:
                return False
            for a2 in acat.objects:
                for d1, f1 in _basis(acat.hom(a, a2)):
                    f1x = left(a, a2, b, d1, f1, dx, x)
                    # (f2 o f1) . x = f2 . (f1 . x)
                    for a3 in acat.objects:
                        for d2, f2 in _basis(acat.hom(a2, a3)):
                            if left(a, a3, b, d2 + d1, comp(acat, a, a2, a3, d2, f2, d1, f1), dx, x) != \
                                    left(a2, a3, b, d2, f2, d1 + dx, f1x):
                                return False
                    # (f1 . x) . g = f1 . (x . g)
                    for b1 in bcat.objects:
                        for dg, g in _basis(bcat.hom(b1, b)):
                            if right(a2, b1, b, d1 + dx, f1x, dg, g) != \
                                    left(a, a2, b1, d1, f1, dx + dg, right(a, b1, b, dx, x, dg, g)):
                                return False
            # (x . f2) . f1 = x . (f2 o f1)
            for b2 in bcat.objects:
                for d2, f2 in _basis(bcat.hom(b2, b)):
                    xf2 = right(a, b2, b, dx, x, d2, f2)
                    for b1 in bcat.objects:
                        for d1, f1 in _basis(bcat.hom(b1, b2)):
                            if right(a, b1, b2, dx + d2, xf2, d1, f1) != \
                                    right(a, b1, b, dx, x, d2 + d1, comp(bcat, b1, b2, b, d2, f2, d1, f1)):
                                return False
    return True


def _odd_rings(field):
    odd, _ = make_dual_numbers(2, -1, field)
    even, _ = make_dual_numbers(2, -2, field)
    return [odd, exterior_extension_ring(odd, -1), exterior_extension_ring(even, -1),
            exterior_extension_ring(make_dual_numbers(2, 0, field)[0], -3)]


def _accepts(build) -> bool:
    try:
        build()
    except ValidationError:
        return False
    return True


def _paired_perturbation(ring: DgRing, rng: random.Random) -> ChainMap:
    """The ring's product with x y raised by c v and y x by +-c v, for basis
    elements x, y, a basis element v of degree |x| + |y| and a nonzero c; the
    sign is the Koszul sign (-1)^{|x||y|} or its opposite, at random, so
    graded commutativity survives exactly in the first case."""
    field, sq, mult = ring.field, ring.product.layout, ring.product.map
    basis = [(d, i) for d in ring.degrees() for i in range(ring.dim(d))]
    (dx, i), (dy, j) = rng.choice([(x, y) for x in basis for y in basis if ring.dim(x[0] + y[0])])
    n, c = dx + dy, field.parse(str(rng.randint(1, 3)))
    sign = (-1 if dx % 2 and dy % 2 else 1) * rng.choice((1, -1))
    mat = mult.component(n)
    grid = [list(row) for row in mat.entries]
    k = rng.randrange(mat.rows)
    for pos, coeff in ((sq.position((dx, dy), (i, j)), c), (sq.position((dy, dx), (j, i)), sign * c)):
        grid[k][pos] += coeff
    comps = {**mult.components, n: Mat(field, mat.rows, mat.cols, grid)}
    return ChainMap(mult.source, mult.target, 0, comps, check=False)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_ring_check_agrees_with_elementwise_reference_under_mutation(field):
    rng = random.Random(20261019)
    verdicts = []
    for ring in _odd_rings(field):
        assert reference_ring_laws(ring), ring.name
        for t in range(16):
            mult = _perturbed(ring.product.map, rng) if t % 2 else _paired_perturbation(ring, rng)
            raw = DgRing(ring.underlying, ring.unit, mult, name=ring.name, check=False)
            accepted = _accepts(lambda: DgRing(ring.underlying, ring.unit, mult, name=ring.name))
            assert accepted == reference_ring_laws(raw), ring.name
            verdicts.append(accepted)
    assert any(verdicts) and not all(verdicts)


def _perturbed_table(table, rng):
    nonempty = [key for key, cm in table.items() if any(cm.target.dim(d + cm.degree) for d in cm.source.degrees())]
    key = rng.choice(nonempty)
    return {**table, key: _perturbed(table[key], rng)}


def _rescaled(t: Bimodule, rng: random.Random):
    """The actions of T carried along a random diagonal automorphism of each
    T(a, b): a valid bimodule whenever T is, with other matrices."""
    field = t.field
    scale = {key: {d: [field.parse(str(rng.choice((1, 2, 3, -1, -2)))) for _ in range(cx.dim(d))]
                   for d in cx.degrees()} for key, cx in t.components.items()}

    def carried(lay, cm, source, target, slot):
        def entry(combo, idx):
            col = cm.component(sum(combo)).col(lay.position(combo, idx))
            factor = field.inv(scale[source][combo[slot]][idx[slot]])
            return Mat.column(field, [v * factor * s
                                      for v, s in zip(col.column_values(0), scale[target].get(sum(combo), []))])
        return lay.map_from_entries(cm.target, 0, entry, check=False)

    lact = {(a1, a2, b): carried(mu.layout, mu.map, (a1, b), (a2, b), 1) for (a1, a2, b), mu in t.lact.items()}
    ract = {(a, b1, b2): carried(mu.layout, mu.map, (a, b2), (a, b1), 0) for (a, b1, b2), mu in t.ract.items()}
    return lact, ract


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_bimodule_check_agrees_with_elementwise_reference_under_mutation(field):
    rng = random.Random(20261020)
    odd, _ = make_dual_numbers(2, -1, field)
    cats = [one_object_category(odd), free_arrow_category(odd), exterior_one_object_category(odd, -1)]
    verdicts = []
    for cat in cats:
        diag = Bimodule.diagonal(cat)
        assert reference_bimodule_laws(diag), cat.name
        for t in range(8):
            lact, ract = _rescaled(diag, rng) if t % 4 else (_maps(diag.lact), _maps(diag.ract))
            if t % 2 == 0:
                if rng.random() < 0.5:
                    lact = _perturbed_table(lact, rng)
                else:
                    ract = _perturbed_table(ract, rng)
            raw = Bimodule(cat, cat, diag.components, lact, ract, name=diag.name, check=False)
            accepted = _accepts(lambda: Bimodule(cat, cat, diag.components, lact, ract, name=diag.name))
            assert accepted == reference_bimodule_laws(raw), cat.name
            verdicts.append(accepted)
    assert any(verdicts) and not all(verdicts)


# -- a warm product memo answers no law check for other data ------------------------------
#
# The law checks share ``kron_product``'s memo with every construction before
# them.  Each case checks a valid instance first, so the memo holds its law
# products, then a copy with one action or composition block negated, which
# fails with the message it fails with on a cold memo.


def _negated(mu: Pairing, combo) -> ChainMap:
    """The map of ``mu`` with the columns of its block ``combo`` negated."""
    cm, n = mu.map, sum(combo)
    off, size = mu.layout.shape.offsets[combo]
    mat = cm.component(n)
    grid = [[-v if off <= j < off + size else v for j, v in enumerate(row)] for row in mat.entries]
    return ChainMap(cm.source, cm.target, 0, {**cm.components, n: Mat(mat.field, mat.rows, mat.cols, grid)},
                    check=False)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("side, key, combo, message", [
    ("lact", ("X", "X", "X"), (-1, 0), "diag(freearrow): left action not associative"),
    ("lact", ("Y", "Y", "Y"), (-1, 0), "diag(freearrow): actions do not commute"),
    ("ract", ("Y", "X", "Y"), (-1, 0), "diag(freearrow): right action not associative"),
    ("ract", ("X", "X", "X"), (0, -1), "diag(freearrow): actions do not commute"),
    ("ract", ("Y", "Y", "Y"), (-1, 0), "diag(freearrow): right action not unital at (Y,Y)"),
])
def test_a_warm_memo_still_fails_a_bimodule_with_a_negated_action_block(field, side, key, combo, message):
    odd, _ = make_dual_numbers(2, -1, field)
    cat = free_arrow_category(odd)
    diag = Bimodule.diagonal(cat)
    maps = {"lact": _maps(diag.lact), "ract": _maps(diag.ract)}
    Bimodule(cat, cat, diag.components, maps["lact"], maps["ract"], name=diag.name)
    maps[side][key] = _negated(getattr(diag, side)[key], combo)
    with pytest.raises(ValidationError) as failure:
        Bimodule(cat, cat, diag.components, maps["lact"], maps["ract"], name=diag.name)
    assert str(failure.value) == message


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("build, table, key, combo, message", [
    ("free_arrow", "comp", ("X", "X", "Y"), (0, -1), "freearrow: action not central (right) on hom(X,X,Y)"),
    ("free_arrow", "action", ("Y", "Y"), (-1, 0), "freearrow: action not central (left) on hom(X,Y,Y)"),
    ("free_arrow", "comp", ("X", "X", "X"), (-1, 0), "freearrow: right identity fails on hom(X,X)"),
    ("exterior", "comp", ("*", "*", "*"), (-1, -1), "k[e]/(e^2)[f]: action not central (left) on hom(*,*,*)"),
])
def test_a_warm_memo_still_fails_a_category_with_a_negated_block(field, build, table, key, combo, message):
    odd, _ = make_dual_numbers(2, -1, field)
    cat = free_arrow_category(odd) if build == "free_arrow" else exterior_one_object_category(odd, -1)
    maps = {"comp": _maps(cat.comp), "action": _maps(cat.action)}
    DgCategory(cat.base, cat.objects, cat.homs, maps["comp"], cat.ids, action=maps["action"], name=cat.name)
    maps[table][key] = _negated(getattr(cat, table)[key], combo)
    with pytest.raises(ValidationError) as failure:
        DgCategory(cat.base, cat.objects, cat.homs, maps["comp"], cat.ids, action=maps["action"], name=cat.name)
    assert str(failure.value) == message


# -- defects named in (degree, block, index) order ---------------------------------------
#
# The law checks compare whole flat matrices, whose columns run factor-major
# (each factor's basis in degree order); a defect is still the first basis
# tensor in the tensor's own order: total degree, then degree block, then
# index.  Each instance below fails twice, with the two orders disagreeing.


def test_ring_defect_is_named_in_degree_order():
    # u1 u2 = w fails against u2 u1 = 0 in total degree -4, t v = t against
    # v t = 0 in degree -3; factor-major order would meet (t, v) first
    names, degrees = ["1", "v", "u1", "u2", "t", "w"], [0, 0, -2, -2, -3, -4]
    products = {(2, 3): {5: 1}, (4, 1): {4: 1}}

    def table(i, j):
        return {j: 1} if i == 0 else {i: 1} if j == 0 else products.get((i, j), {})

    with pytest.raises(ValidationError, match=r"^R: graded commutativity fails on \(u1, u2\)$"):
        DgRing.from_table(F, degrees, names, 0, table, name="R")


def test_category_defect_is_named_in_degree_order():
    # End = <1, p, s, q, w>, |s| = -1, |q| = -2, |w| = -4, with s p = s,
    # q q = w, p w = w: associativity fails on (s, p, p) in total degree -1
    # and on (p, q, q) and (p, p, w) in degree -4
    degrees, labels = {0: 2, -1: 1, -2: 1, -4: 1}, {0: ("1", "p"), -1: ("s",), -2: ("q",), -4: ("w",)}
    cx = Complex(F, degrees, {}, labels=labels, name="E")
    flat = [(d, i) for d in (0, -1, -2, -4) for i in range(degrees[d])]
    one, p, s, q, w = flat
    products = {(s, p): s, (q, q): w, (p, w): w}

    def entry(combo, idx):
        x, y = (combo[0], idx[0]), (combo[1], idx[1])
        image = y if x == one else x if y == one else products.get((x, y))
        return None if image is None else Mat.basis_column(F, cx.dim(image[0]), image[1])

    comp = TensorLayout([cx, cx]).map_from_entries(cx, 0, entry, check=False)
    with pytest.raises(ValidationError, match=r"^C: associativity fails on triple "
                                              r"hom\(\*,\*\) x hom\(\*,\*\) x hom\(\*,\*\)$"):
        one_object(cx, comp, unit_vector(2))
    cat = DgCategory(DgRing.ground_field(F), ["*"], {("*", "*"): cx}, {("*", "*", "*"): comp},
                     {"*": unit_vector(2)}, check=False)
    pair = cat.comp[("*", "*", "*")]
    assert associativity_defect(pair, pair, pair, pair) == ((0, -2, -2), (1, 0, 0))


# -- laws on empty tensors and stray structure maps ----------------------------------------
#
# A law on an empty tensor has no basis tensor to fail on, so it holds without
# a product once its maps join up.  A structure map that does not join up, a
# zero map into k^3 say, whether out of an empty tensor or not, is named with
# its structure and key when its pairing is built, before any law is checked.


def _into_three(mu: Pairing) -> ChainMap:
    return ChainMap.zero_map(mu.layout.complex, space(3, "W"))


def _category_with_a_stray_map(gap):
    # hom(A,A) (x) hom(B,A) -> hom(B,A), with hom(B,A) = 0, sent into k^3
    comp = _maps(gap.comp)
    comp[("B", "A", "A")] = _into_three(gap.comp[("B", "A", "A")])
    return DgCategory(gap.base, gap.objects, gap.homs, comp, gap.ids, name="gap")


def _module_with_a_stray_map(gap):
    # h_A(B) (x) hom(A,B) -> h_A(A), with h_A(B) = hom(B,A) = 0, sent into k^3
    h = Module.representable(gap, "A")
    act = _maps(h.act)
    act[("A", "B")] = _into_three(h.act[("A", "B")])
    return Module(gap, h.components, act, name="h")


def _bimodule_with_a_stray_map(gap):
    # hom(B,A) (x) T(B,A) -> T(A,A) of the diagonal bimodule, sent into k^3
    diag = Bimodule.diagonal(gap)
    lact = _maps(diag.lact)
    lact[("B", "A", "A")] = _into_three(diag.lact[("B", "A", "A")])
    return Bimodule(gap, gap, diag.components, lact, _maps(diag.ract), name="T")


@pytest.mark.parametrize("build, named", [
    (_category_with_a_stray_map, r"gap: composition \('B', 'A', 'A'\)"),
    (_module_with_a_stray_map, r"h: action \('A', 'B'\)"),
    (_bimodule_with_a_stray_map, r"T: left action \('B', 'A', 'A'\)")], ids=["category", "module", "bimodule"])
def test_a_map_out_of_an_empty_tensor_must_join_up(build, named):
    with pytest.raises(ValidationError, match=f"^{named} is not a degree-0 map"):
        build(weak_cokernel_gap_category(F))


def _ring_with_a_stray_product():
    # the product of k[e]/e^2 sent into k^3
    ring = dual_numbers()
    return DgRing(ring.underlying, ring.unit, _into_three(ring.product), name="R")


def _category_with_a_stray_action():
    # the base action on End(A) = k^2 given out of End(A) (x) End(A), not k (x) End(A)
    gap = weak_cokernel_gap_category(F)
    end_a = gap.hom("A", "A")
    action = _maps(gap.action)
    action[("A", "A")] = ChainMap.zero_map(TensorLayout([end_a, end_a]).complex, end_a)
    return DgCategory(gap.base, gap.objects, gap.homs, _maps(gap.comp), gap.ids, action=action, name="gap")


def _bimodule_with_a_stray_right_action():
    # T(A,A) (x) hom(A,A) -> T(A,A) of the diagonal bimodule over k[e]/e^2, sent into k^3
    cat = one_object_category(dual_numbers())
    diag = Bimodule.diagonal(cat)
    ract = _maps(diag.ract)
    ract[("*", "*", "*")] = _into_three(diag.ract[("*", "*", "*")])
    return Bimodule(cat, cat, diag.components, _maps(diag.lact), ract, name="T")


@pytest.mark.parametrize("build, named", [
    (_ring_with_a_stray_product, "R: product"),
    (_category_with_a_stray_action, r"gap: base action \('A', 'A'\)"),
    (_bimodule_with_a_stray_right_action, r"T: right action \('\*', '\*', '\*'\)")],
    ids=["ring", "category-action", "bimodule-right"])
def test_a_stray_structure_map_is_named_where_it_enters(build, named):
    with pytest.raises(ValidationError, match=f"^{named} is not a degree-0 map"):
        build()


def test_laws_on_empty_tensors_are_decided_without_products(monkeypatch):
    gap = weak_cokernel_gap_category(F)
    def pair(*key):
        return gap.comp[key]

    def no_product(*args):
        raise AssertionError("a product on an empty tensor")

    monkeypatch.setattr(complexes, "kron_product", no_product)
    monkeypatch.setattr(Mat, "__matmul__", no_product)
    # each tensor has the factor hom(B,A) = 0
    assert unit_defect(pair("B", "A", "A"), gap.ids["A"], 0) is None
    assert associativity_defect(pair("B", "A", "A"), pair("A", "A", "A"), pair("B", "A", "A"),
                                pair("B", "A", "A")) is None
    assert morphism_defect(pair("B", "A", "A"), pair("B", "A", "A"), ChainMap.identity(gap.hom("B", "A")),
                           None, None) is None


def test_an_identity_factor_given_as_none_is_the_identity_map():
    rng = random.Random(20261019)
    defects = []
    for field in (QQ, GF(7)):
        for _ in range(4):
            cat = random_nonpositive_category(rng, field, n_objects=2)
            h = Module.representable(cat, cat.objects[0])
            for x, y in itertools.product(cat.objects, repeat=2):
                pair, eye_y, eye_f = h.act[(x, y)], ChainMap.identity(h.at(y)), ChainMap.identity(cat.hom(x, y))
                outers = [ChainMap.identity(h.at(x))]
                if any(h.at(x).dim(d) for d in h.at(x).degrees()):
                    outers.append(_perturbed(outers[0], rng))
                for outer in outers:
                    explicit = morphism_defect(pair, pair, outer, eye_y, eye_f)
                    assert morphism_defect(pair, pair, outer, eye_y, None) == explicit
                    assert morphism_defect(pair, pair, outer, None, None) == explicit
                    defects.append(explicit)
    assert any(d is None for d in defects) and any(d is not None for d in defects)
