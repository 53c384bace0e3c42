"""The balanced-tensor builder and the block-built tensor layouts against
elementwise references: the per-basis coequaliser relation loop and the
lift-act-project action loop, and the per-basis tensor differential, tensor
map and permutation.  Every comparison is entry for entry.

The instances pair odd-degree ring elements with odd-degree module elements
(k[e]/e^2 and Lambda(f) with the generator in degree -1, modules shifted by
one), where the Koszul signs of the left/right conversion matter."""

import itertools
import random

import pytest

from dgkit.bimodules import Bimodule, coend_of, direct_sum_modules, shift_module
from dgkit.changeofrings import _tensor_over_s, extend_scalars_cat
from dgkit.complexes import (
    ChainMap,
    TensorLayout,
    direct_sum,
    permutation_sign,
    quotient_complex,
)
from dgkit.deform import factorize
from dgkit.derived import balanced_tensor_ring, restricted_ground_module, ring_as_module
from dgkit.dgcat import one_object_category
from dgkit.dgring import DgRing, make_dual_numbers
from dgkit.fields import GF, QQ
from dgkit.instances import (
    cross_representable_bimodule,
    exterior_extension_ring,
    exterior_one_object_category,
    free_arrow_category,
    random_chain_map,
    random_complex,
    random_nonpositive_category,
    random_square_bimodule,
)
from dgkit.matrix import Mat

FIELDS = [QQ, GF(7)]


def odd(*degrees) -> bool:
    return sum(degrees) % 2 == 1


def basis(cx):
    for d in cx.degrees():
        for i in range(cx.dim(d)):
            yield d, Mat.basis_column(cx.field, cx.dim(d), i)


def plain_vector(lay, combo, a, b):
    """a (x) b in the plain tensor, coefficient by coefficient."""
    field = lay.field
    col = [field.zero()] * lay.complex.dim(sum(combo))
    for i, av in enumerate(a.column_values(0)):
        for j, bv in enumerate(b.column_values(0)):
            if not field.is_zero(av) and not field.is_zero(bv):
                pos = lay.position(combo, (i, j))
                col[pos] = field.add(col[pos], field.mul(av, bv))
    return Mat.column(field, col)


def reference_quotient(x, ring, y, right, left):
    """The per-basis relation loop: (x.r) (x) y - x (x) (r.y) for every
    triple of basis vectors, then the quotient by their span."""
    lay = TensorLayout([x, y])
    field = lay.field
    killed = {}
    for (dx, xv), (dr, rv), (dy, yv) in itertools.product(basis(x), basis(ring), basis(y)):
        deg = dx + dr + dy
        if not lay.complex.dim(deg):
            continue
        col = Mat.zero(field, lay.complex.dim(deg), 1)
        if x.dim(dx + dr):
            col = col + plain_vector(lay, (dx + dr, dy), right(dx, xv, dr, rv), yv)
        if y.dim(dr + dy):
            col = col - plain_vector(lay, (dx, dr + dy), xv, left(dr, rv, dy, yv))
        killed.setdefault(deg, []).append(col.column_values(0))
    killed = {d: Mat.from_columns(field, lay.complex.dim(d), cols).image_basis()
              for d, cols in killed.items()}
    return quotient_complex(lay.complex, killed)


def assert_same_quotient(tensor, reference):
    quot, proj, sections = reference
    assert tensor.complex == quot
    assert tensor.projection == proj
    assert tensor.sections == sections


def reference_descended(h, src, tgt, slot, act, left=True):
    """The lift-act-project loop: for each basis pair (h, q), lift q through
    the section, act by h on factor ``slot`` of each plain basis tensor it
    reaches, and project."""
    field = h.field
    x, y = src.layout.factors

    def entry(combo, idx):
        (dh, dq), (ih, iq) = (combo, idx) if left else (combo[::-1], idx[::-1])
        hv = Mat.basis_column(field, h.dim(dh), ih)
        out = Mat.zero(field, tgt.complex.dim(dh + dq), 1)
        lift = src.sections[dq].col(iq)
        for p, w in enumerate(lift.column_values(0)):
            if field.is_zero(w):
                continue
            (da, db), (ia, ib) = src.layout.decompose(dq, p)
            a = Mat.basis_column(field, x.dim(da), ia)
            b = Mat.basis_column(field, y.dim(db), ib)
            if slot == 0 and tgt.layout.factors[0].dim(da + dh):
                img = plain_vector(tgt.layout, (da + dh, db), act(dh, hv, da, a), b)
                sign = -1 if not left and odd(db * dh) else 1
            elif slot == 1 and tgt.layout.factors[1].dim(db + dh):
                img = plain_vector(tgt.layout, (da, db + dh), a, act(dh, hv, db, b))
                sign = -1 if left and odd(dh * da) else 1
            else:
                continue
            out = out + (tgt.projection.component(dh + dq) @ img).scale(field.mul(w, sign))
        return out

    lay = TensorLayout([h, src.complex] if left else [src.complex, h])
    return lay.map_from_entries(tgt.complex, 0, entry)


def rings(field):
    """k[e]/e^2 with |e| = -1, Lambda(f) with |f| = -1, and k[e]/e^2 with
    |e| = 0 tensored with Lambda(f)."""
    dual, aug = make_dual_numbers(2, -1, field)
    flat, _ = make_dual_numbers(2, 0, field)
    return [(dual, aug), (exterior_extension_ring(DgRing.ground_field(field), -1), None),
            (exterior_extension_ring(flat, -1), None)]


def modules(ring, aug):
    """Free modules, shifted by one (odd-degree elements), their sum, and the
    ground field when there is an augmentation."""
    cat = one_object_category(ring)
    free = ring_as_module(ring, cat)
    out = [free, shift_module(free, 1), direct_sum_modules([free, shift_module(free, -1)])[0]]
    if aug is not None:
        ground = restricted_ground_module(aug, cat)
        out += [ground, shift_module(ground, 1)]
    return out


def right_action(module):
    obj = module.cat.objects[0]
    return lambda dx, x, dr, r: module.apply_action(obj, obj, dx, x, dr, r)


def left_from_right(module):
    """r.x = (-1)^{|r||x|} x.r."""
    obj = module.cat.objects[0]

    def act(dr, r, dx, x):
        out = module.apply_action(obj, obj, dx, x, dr, r)
        return -out if odd(dr * dx) else out

    return act


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_balanced_tensor_ring_matches_the_relation_loop(field):
    pairs = 0
    for ring, aug in rings(field):
        mods = modules(ring, aug)
        for p, n in itertools.product(mods, repeat=2):
            tensor = balanced_tensor_ring(p, n)
            obj = n.cat.objects[0]
            reference = reference_quotient(p.at(p.cat.objects[0]), ring.underlying, n.at(obj),
                                           right_action(p), left_from_right(n))
            assert_same_quotient(tensor, reference)
            pairs += 1
    assert pairs == 25 + 2 * 9


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_tensor_over_s_matches_the_relation_and_action_loops(field):
    for ring, aug in rings(field):
        scat = one_object_category(ring)
        b_r = one_object_category(DgRing.ground_field(field))
        f = cross_representable_bimodule(scat, b_r, "*", "*")
        for v in modules(ring, aug):
            vf, tensors = _tensor_over_s(v, f)
            t = tensors["*"]
            reference = reference_quotient(v.at("*"), ring.underlying, f.at("*", "*"), right_action(v),
                                           lambda ds, s, dx, x: f.lact_apply("*", "*", "*", ds, s, dx, x))
            assert_same_quotient(t, reference)
            s_on_v = left_from_right(v)
            assert vf.lact[("*", "*", "*")] == reference_descended(scat.hom("*", "*"), t, t, 0, s_on_v)
            x_by_b = reference_descended(b_r.hom("*", "*"), t, t, 1, lambda db, bv, dx, x: f.ract_apply(
                "*", "*", "*", dx, x, db, bv), left=False)
            assert vf.ract[("*", "*", "*")] == x_by_b


def reference_composition(ext, cat, a, b, c):
    """The old composition of S (x)_R a: lift both factors, multiply plain
    basis tensors (s (x) g)(t (x) f) = (-1)^{|g||t|} st (x) gf, project."""
    ring_s = ext.theta.target
    tbc, tab, tac = ext.tensors[(b, c)], ext.tensors[(a, b)], ext.tensors[(a, c)]
    field = cat.field

    def entry(combo, idx):
        dq1, dq2 = combo
        out = Mat.zero(field, tac.complex.dim(dq1 + dq2), 1)
        for gp, gv in enumerate(tbc.sections[dq1].col(idx[0]).column_values(0)):
            for fp, fv in enumerate(tab.sections[dq2].col(idx[1]).column_values(0)):
                if field.is_zero(gv) or field.is_zero(fv):
                    continue
                (ds, dg), (si, gi) = tbc.layout.decompose(dq1, gp)
                (dt, df), (ti, fi) = tab.layout.decompose(dq2, fp)
                st = ring_s.mul_basis(ds, si, dt, ti)
                gf = cat.compose_elements(a, b, c, dg, Mat.basis_column(field, cat.hom(b, c).dim(dg), gi),
                                          df, Mat.basis_column(field, cat.hom(a, b).dim(df), fi))
                if not ring_s.dim(ds + dt) or not cat.hom(a, c).dim(dg + df):
                    continue
                coeff = field.mul(gv, fv)
                plain = plain_vector(tac.layout, (ds + dt, dg + df), st, gf)
                out = out + (tac.projection.component(dq1 + dq2) @ plain).scale(
                    field.neg(coeff) if odd(dg * dt) else coeff)
        return out

    return TensorLayout([tbc.complex, tab.complex]).map_from_entries(tac.complex, 0, entry)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_extend_scalars_cat_matches_the_relation_and_action_loops(field):
    ring2, aug2 = make_dual_numbers(2, -1, field)
    ring3, aug3 = make_dual_numbers(3, -2, field)
    cases = [(cat, aug2) for cat in (one_object_category(ring2), free_arrow_category(ring2),
                                     exterior_one_object_category(ring2))]
    cases += [(cat, factorize(aug3).head) for cat in (free_arrow_category(ring3),
                                                      exterior_one_object_category(ring3))]
    for cat, theta in cases:
        ext = extend_scalars_cat(cat, theta)
        ring_s = theta.target
        for a, b in itertools.product(cat.objects, repeat=2):
            def by_r(dr, r, dx, x, a=a, b=b):
                fam = cat.act_element(a, b, dr, r)
                return fam[dx] @ x if dx in fam else Mat.zero(field, cat.hom(a, b).dim(dx + dr), 1)

            reference = reference_quotient(ring_s.underlying, theta.source.underlying, cat.hom(a, b),
                                           lambda ds, s, dr, r: ring_s.mul(ds, s, dr, theta.apply(dr, r)), by_r)
            t = ext.tensors[(a, b)]
            assert_same_quotient(t, reference)
            assert ext.category.action[(a, b)] == reference_descended(
                ring_s.underlying, t, t, 0, lambda ds, s, dt, u: ring_s.mul(ds, s, dt, u))
            unit_x = {}
            for dx in cat.hom(a, b).degrees():
                cols = [t.projection.component(dx) @ plain_vector(t.layout, (0, dx), ring_s.unit, x)
                        for d, x in basis(cat.hom(a, b)) if d == dx]
                unit_x[dx] = Mat.from_columns(field, t.complex.dim(dx), [c.column_values(0) for c in cols])
            assert ext.inclusion.hom_map(a, b) == ChainMap(cat.hom(a, b), t.complex, 0, unit_x)
        for a, b, c in itertools.product(cat.objects, repeat=3):
            assert ext.category.comp[(a, b, c)] == reference_composition(ext, cat, a, b, c)


def reference_coend(t):
    """The old coend relation loop: f.x - (-1)^{|f||x|} x.f per basis pair."""
    cat = t.acat
    field = t.field
    ambient, injs, _ = direct_sum([t.at(a, a) for a in cat.objects])
    inj = dict(zip(cat.objects, injs))
    killed = {}
    for a1, a2 in itertools.product(cat.objects, repeat=2):
        for (df, f), (dx, x) in itertools.product(cat.hom_basis(a2, a1), basis(t.at(a2, a1))):
            fx = t.lact_apply(a2, a1, a1, df, f, dx, x)
            xf = t.ract_apply(a2, a2, a1, dx, x, df, f)
            vec = inj[a1].component(df + dx) @ fx - inj[a2].component(df + dx) @ (-xf if odd(df * dx) else xf)
            killed.setdefault(df + dx, []).append(vec.column_values(0))
    killed = {d: Mat.from_columns(field, ambient.dim(d), cols).image_basis() for d, cols in killed.items()}
    return quotient_complex(ambient, killed)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_coend_matches_the_relation_loop(field):
    rng = random.Random(41)
    ring, _ = make_dual_numbers(2, -1, field)
    cases = [Bimodule.diagonal(cat) for cat in (exterior_one_object_category(ring), free_arrow_category(ring))]
    for _ in range(8):
        cases.append(random_square_bimodule(rng, random_nonpositive_category(rng, field,
                                                                             n_objects=rng.randint(1, 2))))
    for t in cases:
        res = coend_of(t)
        quot, proj, sections = reference_coend(t)
        assert (res.complex, res.projection, res.sections) == (quot, proj, sections)


# -- the tensor layout, blockwise against per basis tensor -------------------------


def reference_differential(lay):
    """d(x_1 (x) ... (x) x_k) = sum_j (-1)^{|x_1|+...+|x_{j-1}|} ... dx_j ..., one
    basis tensor at a time."""
    field = lay.field
    diffs = {}
    for n in lay.dims():
        blocks = lay.blocks(n)
        rows, cols = lay.complex.dim(n + 1), lay.complex.dim(n)
        if not rows:
            continue
        grid = [[field.zero()] * cols for _ in range(rows)]
        for combo, _, _ in blocks:
            for idx in itertools.product(*[range(c.dim(d)) for c, d in zip(lay.factors, combo)]):
                src = lay.position(combo, idx)
                for j, factor in enumerate(lay.factors):
                    tcombo = combo[:j] + (combo[j] + 1,) + combo[j + 1:]
                    if not factor.dim(combo[j] + 1):
                        continue
                    for i2, v in enumerate(factor.diff(combo[j]).column_values(idx[j])):
                        dst = lay.position(tcombo, idx[:j] + (i2,) + idx[j + 1:])
                        grid[dst][src] = field.add(grid[dst][src], field.neg(v) if odd(*combo[:j]) else v)
        diffs[n] = Mat(field, rows, cols, grid)
    return diffs


def reference_map(lay, target_layout, degree, image):
    """The matrices of a map out of ``lay`` that sends the basis tensor
    (combo, idx) to ``image(combo, idx)``: (sign, target combo, {target idx:
    coefficient})."""
    field = lay.field
    comps = {}
    for n in lay.dims():
        blocks = lay.blocks(n)
        rows = target_layout.complex.dim(n + degree)
        if not rows:
            continue
        grid = [[field.zero()] * lay.complex.dim(n) for _ in range(rows)]
        for combo, _, _ in blocks:
            for idx in itertools.product(*[range(c.dim(d)) for c, d in zip(lay.factors, combo)]):
                sign, tcombo, coeffs = image(combo, idx)
                for tidx, v in coeffs.items():
                    grid[target_layout.position(tcombo, tidx)][lay.position(combo, idx)] = \
                        field.neg(v) if sign < 0 else v
        comps[n] = Mat(field, rows, lay.complex.dim(n), grid)
    return comps


def random_layout(rng, field, k):
    return TensorLayout([random_complex(rng, field, lo=-2, hi=1, pieces=rng.randint(1, 3))[0]
                         for _ in range(k)])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
@pytest.mark.parametrize("k", [2, 3])
def test_tensor_layout_blocks_match_the_per_basis_reference(field, k):
    rng = random.Random(53 + k)
    for _ in range(12):
        lay = random_layout(rng, field, k)
        assert lay.complex.d == {n: m for n, m in reference_differential(lay).items() if not m.is_zero()}
        # permutation with the Koszul sign
        perm = list(range(k))
        rng.shuffle(perm)
        target, pm = lay.permute(perm)
        expect = reference_map(lay, target, 0, lambda combo, idx: (
            permutation_sign(combo, perm), tuple(combo[p] for p in perm), {tuple(idx[p] for p in perm): 1}))
        assert pm == ChainMap(lay.complex, target.complex, 0, expect)
        # tensor of maps of mixed degrees, (-1)^{sum over j of |f_j| (|x_1|+...+|x_{j-1}|)}
        others = [random_complex(rng, field, lo=-2, hi=1, pieces=rng.randint(1, 3))[0] for _ in range(k)]
        maps = [random_chain_map(rng, c, o, rng.choice([-1, 0, 1])) for c, o in zip(lay.factors, others)]
        tlay = TensorLayout(others)

        def image(combo, idx):
            tcombo = tuple(d + f.degree for d, f in zip(combo, maps))
            sign = -1 if sum(f.degree * sum(combo[:j]) for j, f in enumerate(maps)) % 2 else 1
            if any(not o.dim(d) for o, d in zip(others, tcombo)):
                return sign, tcombo, {}
            cols = [f.component(d).column_values(i) for f, d, i in zip(maps, combo, idx)]
            coeffs = {}
            for tidx in itertools.product(*[range(len(c)) for c in cols]):
                v = field.one()
                for c, i in zip(cols, tidx):
                    v = field.mul(v, c[i])
                if not field.is_zero(v):
                    coeffs[tidx] = v
            return sign, tcombo, coeffs

        degree = sum(f.degree for f in maps)
        expect = reference_map(lay, tlay, degree, image)
        assert lay.tensor_map(tlay, maps) == ChainMap(lay.complex, tlay.complex, degree, expect)
