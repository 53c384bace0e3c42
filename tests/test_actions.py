"""Module and bimodule actions built by the retract transfer (``lifted_map``
over the kron blocks of the summands' actions) against elementwise
references: the per-basis-tensor loops the transfer replaced.  Shifts,
direct sums and cones of modules, the generators a resolution attaches, the
truncations tau<=0 and tau>=1, the dual bimodule, and direct sums and
restrictions of bimodules are compared entry for entry over Q and GF(7), on
instances where odd elements meet odd actions.  The references evaluate
every pairing coefficient by coefficient (``reference_pair``); they share
with the code under test only the complexes the actions live on."""

import itertools
import random

import pytest

from dgkit.bimodules import (
    Bimodule,
    Module,
    ModuleHomComplex,
    ModuleMap,
    cone_module,
    direct_sum_bimodules,
    direct_sum_modules,
    dual_of,
    module_hom_complex,
    restrict_bimodule,
    shift_module,
)
from dgkit.changeofrings import extend_scalars_cat
from dgkit.complexes import (
    ChainMap,
    Complex,
    TensorLayout,
    cone,
    direct_sum,
    element_action,
    lifted_map,
    pair_elements,
    shift_complex,
    sub_retract,
    subcomplex,
    truncate_ge,
    truncate_le,
)
from dgkit.derived import resolve_module, restricted_ground_module, ring_as_module, tstruct_truncate
from dgkit.dgcat import opposite, one_object_category
from dgkit.dgring import DgRing, make_dual_numbers
from dgkit.errors import ValidationError
from dgkit.fields import GF, QQ
from dgkit.instances import (
    exterior_one_object_category,
    outer_representable_bimodule,
    random_chain_map,
    random_cocycle,
    random_complex,
    random_module,
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


# -- elementwise references ------------------------------------------------------


def reference_pair(pairing, lay, dx, x, dy, y):
    """pairing(x (x) y), summed coefficient by coefficient over the nonzero
    entries of x and y."""
    field = lay.field
    comp = pairing.component(dx + dy)
    acc = [field.zero()] * comp.rows
    xs = [(i, v) for i, v in enumerate(x.column_values(0)) if not field.is_zero(v)]
    ys = [(j, v) for j, v in enumerate(y.column_values(0)) if not field.is_zero(v)]
    if xs and ys:
        off, _ = lay.block_offset((dx, dy))
        ydim = lay.factors[1].dim(dy)
        for (i, xv), (j, yv) in itertools.product(xs, ys):
            pos = off + i * ydim + j
            for r, row in enumerate(comp.entries):
                acc[r] = field.add(acc[r], field.mul(field.mul(xv, yv), row[pos]))
    return Mat.column(field, acc)


def reference_element_action(pairing, lay, slot, deg, vector):
    """The map pairing(v (x) -) (slot 0) or pairing(- (x) v) (slot 1), one
    basis vector of the other factor at a time."""
    field = lay.field
    other = lay.factors[1 - slot]
    fam = {}
    for b, e in basis(other):
        col = (reference_pair(pairing, lay, deg, vector, b, e) if slot == 0 else
               reference_pair(pairing, lay, b, e, deg, vector))
        fam.setdefault(b, []).append(col.column_values(0))
    return {b: Mat.from_columns(field, pairing.target.dim(deg + b + pairing.degree), cols)
            for b, cols in fam.items()}


def module_actions(cat, comps, image):
    """Per (x, y), the action on ``comps`` sending m (x) f, m the basis
    vector i of comps[y]^dm and f a basis vector of hom(x, y)^df, to
    image(x, y, dm, i, df, f)."""
    field = cat.field
    actions = {}
    for x, y in itertools.product(cat.objects, repeat=2):
        def entry(combo, idx, x=x, y=y):
            dm, df = combo
            return image(x, y, dm, idx[0], df, Mat.basis_column(field, cat.hom(x, y).dim(df), idx[1]))
        actions[(x, y)] = TensorLayout([comps[y], cat.hom(x, y)]).map_from_entries(comps[x], 0, entry)
    return actions


def acted(m, x, y, dm, v, df, f):
    return reference_pair(m.act[(x, y)], m.act_layouts[(x, y)], dm, v, df, f)


def reference_shift(m, k):
    comps = {a: shift_complex(m.at(a), k) for a in m.cat.objects}
    return module_actions(m.cat, comps, lambda x, y, dm, i, df, f: acted(
        m, x, y, dm + k, Mat.basis_column(m.field, comps[y].dim(dm), i), df, f))


def reference_sum(summands):
    """Sum the summands' actions through the injections and projections."""
    cat = summands[0].cat
    sums = {a: direct_sum([s.at(a) for s in summands]) for a in cat.objects}

    def image(x, y, dm, i, df, f):
        vec = Mat.basis_column(cat.field, sums[y][0].dim(dm), i)
        out = Mat.zero(cat.field, sums[x][0].dim(dm + df), 1)
        for s, proj, inj in zip(summands, sums[y][2], sums[x][1]):
            out = out + inj.component(dm + df) @ acted(s, x, y, dm, proj.component(dm) @ vec, df, f)
        return out

    return module_actions(cat, {a: v[0] for a, v in sums.items()}, image)


def reference_cone(phi):
    """cone^d = target^d + source^(d+1): act on the part the basis vector
    lies in and place the result at that part's offset."""
    cat = phi.source.cat
    field = cat.field
    comps = {a: cone(phi.at(a))[0] for a in cat.objects}

    def image(x, y, dm, i, df, f):
        col = [field.zero()] * comps[x].dim(dm + df)
        top = phi.target.at(y).dim(dm)
        if i < top:
            out = acted(phi.target, x, y, dm, Mat.basis_column(field, top, i), df, f)
            off = 0
        else:
            src = phi.source.at(y).dim(dm + 1)
            out = acted(phi.source, x, y, dm + 1, Mat.basis_column(field, src, i - top), df, f)
            off = phi.target.at(x).dim(dm + df)
        for r, v in enumerate(out.column_values(0)):
            col[off + r] = v
        return Mat.column(field, col)

    return module_actions(cat, comps, image)


def reference_cone_complex(f):
    """The cone of f entry by entry: D(y, x) = (dy + fx, -dx)."""
    X, Y = f.source, f.target
    field = X.field
    degs = sorted(set(Y.degrees()) | {d - 1 for d in X.degrees()})
    dims = {d: Y.dim(d) + X.dim(d + 1) for d in degs}
    diffs = {}
    for d in degs:
        rows, cols = dims.get(d + 1, 0), dims[d]
        if not rows:
            continue
        grid = [[field.zero()] * cols for _ in range(rows)]
        ydim, ydim1 = Y.dim(d), Y.dim(d + 1)
        for i, j in itertools.product(range(ydim1), range(ydim)):
            grid[i][j] = Y.diff(d).entries[i][j]
        for i, j in itertools.product(range(ydim1), range(X.dim(d + 1))):
            grid[i][ydim + j] = f.component(d + 1).entries[i][j]
        for i, j in itertools.product(range(X.dim(d + 2)), range(X.dim(d + 1))):
            grid[ydim1 + i][ydim + j] = field.neg(X.diff(d + 1).entries[i][j])
        diffs[d] = Mat(field, rows, cols, grid)
    return Complex(field, dims, diffs)


def reference_attach(cat, P, f, M, gens):
    """A resolution step generator by generator: the new component is P plus
    hom(-, x)[-n] per generator (x, n, m, p), with differential
    ((-1)^n d_h, b |-> -p.b), action by composition on the new summands, and
    comparison b |-> m.b."""
    field = cat.field
    comps, offsets = {}, {}
    for z in cat.objects:
        dims = {d: P.at(z).dim(d) for d in P.at(z).degrees()}
        offs = []
        for x, n, _, _ in gens:
            offs.append({})
            for d in cat.hom(z, x).degrees():
                offs[-1][d] = dims.get(d + n, 0)
                dims[d + n] = dims.get(d + n, 0) + cat.hom(z, x).dim(d)
        offsets[z] = offs
        diffs = {}
        for d in dims:
            grid = [[field.zero()] * dims[d] for _ in range(dims.get(d + 1, 0))]
            for i, j in itertools.product(range(P.at(z).dim(d + 1)), range(P.at(z).dim(d))):
                grid[i][j] = P.at(z).diff(d).entries[i][j]
            for (x, n, _, p_part), off in zip(gens, offs):
                h, hd = cat.hom(z, x), d - n
                if not h.dim(hd):
                    continue
                for i, j in itertools.product(range(h.dim(hd + 1)), range(h.dim(hd))):
                    v = h.diff(hd).entries[i][j]
                    grid[off[hd + 1] + i][off[hd] + j] = field.neg(v) if odd(n) else v
                tw = reference_element_action(P.act[(z, x)], P.act_layouts[(z, x)], 0, n + 1, p_part)[hd]
                for i, j in itertools.product(range(tw.rows), range(tw.cols)):
                    grid[i][off[hd] + j] = field.sub(grid[i][off[hd] + j], tw.entries[i][j])
            diffs[d] = Mat(field, dims.get(d + 1, 0), dims[d], grid)
        comps[z] = Complex(field, dims, diffs)

    def image(z, y, dq, i, dg, g):
        out = [field.zero()] * comps[z].dim(dq + dg)
        if i < P.at(y).dim(dq):
            part = acted(P, z, y, dq, Mat.basis_column(field, P.at(y).dim(dq), i), dg, g)
            off = 0
        else:
            gi, x, n = next((gi, x, n) for gi, (x, n, _, _) in enumerate(gens)
                            if 0 <= i - offsets[y][gi].get(dq - n, i + 1) < cat.hom(y, x).dim(dq - n))
            b = Mat.basis_column(field, cat.hom(y, x).dim(dq - n), i - offsets[y][gi][dq - n])
            if not cat.hom(z, x).dim(dq - n + dg):
                return Mat.column(field, out)
            part = reference_pair(cat.comp[(z, y, x)], cat.comp_layouts[(z, y, x)], dq - n, b, dg, g)
            off = offsets[z][gi][dq - n + dg]
        for r, v in enumerate(part.column_values(0)):
            out[off + r] = v
        return Mat.column(field, out)

    P2 = Module(cat, comps, module_actions(cat, comps, image), check=False)
    maps = {}
    for z in cat.objects:
        fam = {}
        for d in comps[z].degrees():
            grid = [[field.zero()] * comps[z].dim(d) for _ in range(M.at(z).dim(d))]
            for i, j in itertools.product(range(M.at(z).dim(d)), range(P.at(z).dim(d))):
                grid[i][j] = f.at(z).component(d).entries[i][j]
            for (x, n, m_part, _), off in zip(gens, offsets[z]):
                blk = reference_element_action(M.act[(z, x)], M.act_layouts[(z, x)], 0, n, m_part).get(d - n)
                if blk is not None:
                    for i, j in itertools.product(range(blk.rows), range(blk.cols)):
                        grid[i][off[d - n] + j] = blk.entries[i][j]
            fam[d] = Mat(field, M.at(z).dim(d), comps[z].dim(d), grid)
        maps[z] = ChainMap(comps[z], M.at(z), 0, fam)
    return P2, ModuleMap(P2, M, 0, maps)


def reference_resolution(m, floor):
    """Attach generators for the top cone class until the cone is exact in
    degrees >= floor; returns (P, comparison, generators)."""
    cat = m.cat
    P = Module.zero(cat)
    f = ModuleMap.zero(P, m)
    generators = []
    while True:
        coh = {z: reference_cone_complex(f.at(z)).cohomology() for z in cat.objects}
        worst = max((d for h in coh.values() for d, v in h.as_dict().items() if v and d >= floor), default=None)
        if worst is None:
            return P, f, generators
        gens = []
        for z in cat.objects:
            reps = coh[z].rep(worst)
            top = m.at(z).dim(worst)
            for j in range(reps.cols):
                vec = reps.col(j)
                gens.append((z, worst, vec.take_rows(range(top)), vec.take_rows(range(top, vec.rows))))
        generators.extend((z, n) for z, n, _, _ in gens)
        P, f = reference_attach(cat, P, f, m, gens)


def reference_truncations(m):
    """tau<=0 acting through the inclusion and solving back into the aisle,
    tau>=1 acting on a lift found by solving the projection."""
    cat, field = m.cat, m.field
    les = {a: truncate_le(m.at(a), 0) for a in cat.objects}
    ges = {a: truncate_ge(m.at(a), 1) for a in cat.objects}

    def le_image(x, y, dm, i, df, f):
        sub, incl = les[y]
        out = acted(m, x, y, dm, incl.component(dm).col(i), df, f)
        sol = les[x][1].component(dm + df).solve(out)
        assert sol is not None
        return sol

    def ge_image(x, y, dm, i, df, f):
        quot, proj = ges[y]
        lift = proj.component(dm).solve(Mat.basis_column(field, quot.dim(dm), i))
        return ges[x][1].component(dm + df) @ acted(m, x, y, dm, lift, df, f)

    return (module_actions(cat, {a: v[0] for a, v in les.items()}, le_image),
            module_actions(cat, {a: v[0] for a, v in ges.items()}, ge_image))


def reference_dual(f):
    """Both actions of dual_of one basis pair at a time: compose the families
    of the Hom complex element with the acting element, sign
    (-1)^{|a||psi|}, and solve back into the naturality subcomplex."""
    field = f.field
    acat_op, bcat_op = opposite(f.acat), opposite(f.bcat)
    reps = {b: Module.representable(f.bcat, b) for b in f.bcat.objects}
    mhcs = {(a, b): ModuleHomComplex(f.module_at(a), reps[b])
            for a in f.acat.objects for b in f.bcat.objects}

    def express(key, n, amb):
        sol = mhcs[key].inclusion.component(n).solve(amb)
        assert sol is not None
        return sol

    def families(key, n, vec):
        mhc = mhcs[key]
        amb = mhc.inclusion.component(n) @ vec
        return {x: mhc.layouts[x].family_from_vector(n, mhc.projs[x].component(n) @ amb) for x in f.bcat.objects}

    def assemble(key, n, fams):
        mhc = mhcs[key]
        out = Mat.zero(field, mhc.ambient.dim(n), 1)
        for x, fam in fams.items():
            out = out + mhc.injs[x].component(n) @ mhc.layouts[x].vector_from_family(n, fam)
        return out

    lact, ract = {}, {}
    for a1, a2, b in itertools.product(f.acat.objects, f.acat.objects, f.bcat.objects):
        def left(combo, idx, a1=a1, a2=a2, b=b):
            da, dpsi = combo
            avec = Mat.basis_column(field, f.acat.hom(a2, a1).dim(da), idx[0])
            psi = families((a1, b), dpsi, Mat.basis_column(field, mhcs[(a1, b)].complex.dim(dpsi), idx[1]))
            fams = {}
            for x in f.bcat.objects:
                lam = reference_element_action(f.lact[(a2, a1, x)], f.lact_layouts[(a2, a1, x)], 0, da, avec)
                fams[x] = {i: psi[x][i + da] @ mat for i, mat in lam.items() if i + da in psi[x]}
            out = assemble((a2, b), da + dpsi, fams)
            return express((a2, b), da + dpsi, -out if odd(da * dpsi) else out)
        lact[(a1, a2, b)] = TensorLayout([acat_op.hom(a1, a2), mhcs[(a1, b)].complex]).map_from_entries(
            mhcs[(a2, b)].complex, 0, left)
    for a, b1, b2 in itertools.product(f.acat.objects, f.bcat.objects, f.bcat.objects):
        def right(combo, idx, a=a, b1=b1, b2=b2):
            dpsi, db = combo
            bvec = Mat.basis_column(field, f.bcat.hom(b2, b1).dim(db), idx[1])
            psi = families((a, b2), dpsi, Mat.basis_column(field, mhcs[(a, b2)].complex.dim(dpsi), idx[0]))
            fams = {}
            for x in f.bcat.objects:
                post = reference_element_action(f.bcat.comp[(x, b2, b1)], f.bcat.comp_layouts[(x, b2, b1)],
                                                0, db, bvec)
                fams[x] = {i: post[i + dpsi] @ mat for i, mat in psi[x].items() if i + dpsi in post}
            out = assemble((a, b1), dpsi + db, fams)
            return express((a, b1), dpsi + db, -out if odd(dpsi * db) else out)
        ract[(a, b1, b2)] = TensorLayout([mhcs[(a, b2)].complex, bcat_op.hom(b1, b2)]).map_from_entries(
            mhcs[(a, b1)].complex, 0, right)
    return lact, ract


def reference_bimodule_actions(acat, bcat, comps, left, right):
    """Both actions on ``comps`` from per-basis images left(a1, a2, b, dh, h,
    dx, i) and right(a, b1, b2, dx, i, dh, h)."""
    field = acat.field
    lact, ract = {}, {}
    for a1, a2, b in itertools.product(acat.objects, acat.objects, bcat.objects):
        def lentry(combo, idx, a1=a1, a2=a2, b=b):
            dh, dx = combo
            return left(a1, a2, b, dh, Mat.basis_column(field, acat.hom(a1, a2).dim(dh), idx[0]), dx, idx[1])
        lact[(a1, a2, b)] = TensorLayout([acat.hom(a1, a2), comps[(a1, b)]]).map_from_entries(
            comps[(a2, b)], 0, lentry)
    for a, b1, b2 in itertools.product(acat.objects, bcat.objects, bcat.objects):
        def rentry(combo, idx, a=a, b1=b1, b2=b2):
            dx, dh = combo
            return right(a, b1, b2, dx, idx[0], dh, Mat.basis_column(field, bcat.hom(b1, b2).dim(dh), idx[1]))
        ract[(a, b1, b2)] = TensorLayout([comps[(a, b2)], bcat.hom(b1, b2)]).map_from_entries(
            comps[(a, b1)], 0, rentry)
    return lact, ract


def reference_bimodule_sum(summands):
    first = summands[0]
    acat, bcat, field = first.acat, first.bcat, first.field
    sums = {(a, b): direct_sum([s.at(a, b) for s in summands]) for a in acat.objects for b in bcat.objects}

    def left(a1, a2, b, dh, h, dx, i):
        vec = Mat.basis_column(field, sums[(a1, b)][0].dim(dx), i)
        out = Mat.zero(field, sums[(a2, b)][0].dim(dh + dx), 1)
        for s, proj, inj in zip(summands, sums[(a1, b)][2], sums[(a2, b)][1]):
            part = proj.component(dx) @ vec
            out = out + inj.component(dh + dx) @ reference_pair(s.lact[(a1, a2, b)], s.lact_layouts[(a1, a2, b)],
                                                                 dh, h, dx, part)
        return out

    def right(a, b1, b2, dx, i, dh, h):
        vec = Mat.basis_column(field, sums[(a, b2)][0].dim(dx), i)
        out = Mat.zero(field, sums[(a, b1)][0].dim(dx + dh), 1)
        for s, proj, inj in zip(summands, sums[(a, b2)][2], sums[(a, b1)][1]):
            part = proj.component(dx) @ vec
            out = out + inj.component(dx + dh) @ reference_pair(s.ract[(a, b1, b2)], s.ract_layouts[(a, b1, b2)],
                                                                 dx, part, dh, h)
        return out

    return reference_bimodule_actions(acat, bcat, {k: v[0] for k, v in sums.items()}, left, right)


def reference_restriction(f, along, side):
    """The reindexed action, the functor applied to each basis element of
    the reindexed hom."""
    F, field = along.obj_map, f.field
    if side == "lower":
        acat, bcat = along.source, f.bcat
        comps = {(a, b): f.at(F[a], b) for a in acat.objects for b in bcat.objects}

        def left(a1, a2, b, dh, h, dx, i):
            x = Mat.basis_column(field, comps[(a1, b)].dim(dx), i)
            return reference_pair(f.lact[(F[a1], F[a2], b)], f.lact_layouts[(F[a1], F[a2], b)],
                                  dh, along.apply_hom(a1, a2, dh, h), dx, x)
        lact, _ = reference_bimodule_actions(acat, bcat, comps, left, lambda *args: None)
        return lact
    acat, bcat = f.acat, along.source
    comps = {(a, b): f.at(a, F[b]) for a in acat.objects for b in bcat.objects}

    def right(a, b1, b2, dx, i, dh, h):
        x = Mat.basis_column(field, comps[(a, b2)].dim(dx), i)
        return reference_pair(f.ract[(a, F[b1], F[b2])], f.ract_layouts[(a, F[b1], F[b2])],
                              dx, x, dh, along.apply_hom(b1, b2, dh, h))
    _, ract = reference_bimodule_actions(acat, bcat, comps, lambda *args: None, right)
    return ract


# -- instances ----------------------------------------------------------------------


def dual_numbers_category(field):
    """k[e]/e^2 with |e| = -1."""
    ring, aug = make_dual_numbers(2, -1, field)
    return one_object_category(ring), aug


def odd_modules(field, rng):
    """Over k[e]/e^2 (|e| = -1) and a two-object path category: free and
    ground modules, random modules, each also shifted by +-1."""
    cat, aug = dual_numbers_category(field)
    path = random_nonpositive_category(rng, field, n_objects=2, flavor="path")
    bases = [ring_as_module(cat.base, cat), restricted_ground_module(aug, cat),
             Module.representable(path, path.objects[0]), Module.representable(path, path.objects[1]),
             random_module(rng, path)]
    return [m2 for m in bases for m2 in (m, shift_module(m, 1), shift_module(m, -1))]


def random_module_map(rng, source, target):
    mhc = module_hom_complex(source, target)
    v = random_cocycle(rng, mhc.complex, 0)
    return None if v is None else mhc.module_map_from_cocycle(0, v)


def square_bimodules(field, rng):
    """Diagonal bimodules of Iext (k[e]/e^2 with f adjoined, both of degree
    -1), of Lambda(f) and of a two-object path category, and random square
    bimodules."""
    ring, _ = make_dual_numbers(2, -1, field)
    cats = [exterior_one_object_category(ring), exterior_one_object_category(DgRing.ground_field(field)),
            random_nonpositive_category(rng, field, n_objects=2, flavor="path")]
    cases = [Bimodule.diagonal(cat) for cat in cats]
    for _ in range(2):
        cases.append(random_square_bimodule(rng, random_nonpositive_category(rng, field, n_objects=2)))
    return cases


# -- the pairing helpers ------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS + [GF(3)], ids=["Q", "F7", "F3"])
def test_pair_elements_and_element_action_match_the_coefficient_loops(field):
    rng = random.Random(5)
    for m in odd_modules(field, rng):
        obj = m.cat.objects[-1]
        lay, act = m.act_layouts[(obj, obj)], m.act[(obj, obj)]
        mx, hx = lay.factors
        for dx, dy in itertools.product(mx.degrees(), hx.degrees()):
            x = random_cocycle(rng, Complex(field, {dx: mx.dim(dx)}, {}), dx)
            y = random_cocycle(rng, Complex(field, {dy: hx.dim(dy)}, {}), dy)
            assert pair_elements(act, lay, dx, x, dy, y) == reference_pair(act, lay, dx, x, dy, y)
            assert element_action(act, lay, 0, dx, x) == reference_element_action(act, lay, 0, dx, x)
            assert element_action(act, lay, 1, dy, y) == reference_element_action(act, lay, 1, dy, y)


# -- modules ------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_shift_and_sum_actions_match_the_basis_loops(field):
    rng = random.Random(11)
    mods = odd_modules(field, rng)
    for m in mods:
        for k in (1, -1):
            assert shift_module(m, k).act == reference_shift(m, k)
    for i in range(0, len(mods) - 1, 2):
        if mods[i].cat is mods[i + 1].cat:
            pair = [mods[i], mods[i + 1]]
            assert direct_sum_modules(pair)[0].act == reference_sum(pair)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_cones_of_maps_between_odd_shifted_modules_match_the_basis_loop(field):
    rng = random.Random(13)
    mods = odd_modules(field, rng)
    cones = 0
    for source in mods:
        for target in [m for m in mods if m.cat is source.cat]:
            phi = random_module_map(rng, source, target)
            if phi is None:
                continue
            c, _, _ = cone_module(phi)
            for a in c.cat.objects:
                assert c.at(a) == reference_cone_complex(phi.at(a))
            assert c.act == reference_cone(phi)
            cones += 1
    assert cones >= 12


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_resolutions_match_the_generator_loop(field):
    rng = random.Random(17)
    cat, aug = dual_numbers_category(field)
    path = random_nonpositive_category(rng, field, n_objects=2, flavor="path")
    ground = restricted_ground_module(aug, cat)
    cases = [(ground, -3), (shift_module(ground, 1), -3), (random_module(rng, path), -2),
             (shift_module(random_module(rng, path), -1), -2)]
    for m, floor in cases:
        res = resolve_module(m, floor)
        P, comparison, generators = reference_resolution(m, floor)
        assert res.generators == generators
        assert res.module.components == P.components
        assert res.module.act == P.act
        assert res.comparison.components == comparison.components


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_truncations_match_the_basis_loops(field):
    rng = random.Random(19)
    cat, aug = dual_numbers_category(field)
    path = random_nonpositive_category(rng, field, n_objects=2, flavor="path")
    ground = restricted_ground_module(aug, cat)
    rep = Module.representable(path, path.objects[1])
    # cohomology on both sides of 0: a summand shifted up by one or two
    cases = [direct_sum_modules([ground, shift_module(ground, -1)])[0],
             direct_sum_modules([rep, shift_module(rep, -2)])[0],
             shift_module(random_module(rng, path), -1)]
    for m in cases:
        support = {d for a in m.cat.objects for d, v in m.at(a).cohomology().as_dict().items() if v}
        assert min(support) <= 0 < max(support)
        report = tstruct_truncate(m)
        le, ge = reference_truncations(m)
        assert report.tau_le.act == le
        assert report.tau_ge.act == ge
        assert report.triangle_is_distinguished


# -- bimodules ----------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_dual_and_sum_of_bimodules_match_the_basis_loops(field):
    rng = random.Random(23)
    cases = square_bimodules(field, rng)
    for t in cases:
        d = dual_of(t)
        lact, ract = reference_dual(t)
        assert d.lact == lact
        assert d.ract == ract
    for t in cases:
        pair = [t, outer_representable_bimodule(t.acat, t.acat.objects[0], t.acat.objects[-1])]
        total = direct_sum_bimodules(pair)
        lact, ract = reference_bimodule_sum(pair)
        assert total.lact == lact
        assert total.ract == ract


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_restrictions_match_the_basis_loops(field):
    ring, aug = make_dual_numbers(2, -1, field)
    for cat in (one_object_category(ring), exterior_one_object_category(ring)):
        ext = extend_scalars_cat(cat, aug)
        diag = Bimodule.diagonal(ext.category)
        assert restrict_bimodule(diag, ext.inclusion, "lower").lact == reference_restriction(
            diag, ext.inclusion, "lower")
        assert restrict_bimodule(diag, ext.inclusion, "upper").ract == reference_restriction(
            diag, ext.inclusion, "upper")


# -- the subcomplex check -----------------------------------------------------------


def escaping_instance(field):
    """A complex C, its subcomplex S spanned by the first basis vector of
    each degree (d is diagonal, so S is d-stable), and the plain maps
    C -> C that keep S or leave it."""
    dims = {-1: 2, 0: 2}
    c = Complex(field, dims, {-1: Mat(field, 2, 2, [[1, 0], [0, 1]])})
    sub, incl = subcomplex(c, {d: Mat(field, 2, 1, [[1], [0]]) for d in dims})
    keep = ChainMap.identity(c)
    swap = ChainMap(c, c, 0, {d: Mat(field, 2, 2, [[0, 1], [1, 0]]) for d in dims})
    return sub, incl, keep, swap


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_a_map_leaving_the_target_subcomplex_raises(field):
    sub, incl, keep, swap = escaping_instance(field)
    target = sub_retract(sub, incl)
    # into the subcomplex: the result is incl^-1 o plain o incl, checked
    kept = lifted_map([target], target, [lambda flat: keep.component(flat[0])])
    assert kept == ChainMap.identity(sub)
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([target], target, [lambda flat: swap.component(flat[0])])
    # two parts, acting by the ground field in degree 0: the swap escapes
    ground = Complex.one_dim(field)
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([target, ground], target, [lambda flat: swap.component(flat[0])])
    # where the subcomplex is zero, a nonzero plain map escapes too
    top = Complex(field, {0: 1}, {})
    zero_sub, zero_incl = subcomplex(top, {})
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([top], sub_retract(zero_sub, zero_incl), [lambda flat: Mat.identity(field, 1)])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_transfers_into_a_truncation_agree_with_solving(field):
    rng = random.Random(31)
    for _ in range(6):
        c, _ = random_complex(rng, field, lo=-2, hi=1, pieces=3)
        sub, incl = truncate_le(c, 0)
        # a chain map keeps the smart truncation, so f o incl factors through it
        f = random_chain_map(rng, c, c)
        plain = {d: f.component(d) @ incl.component(d) for d in sub.degrees()}
        got = lifted_map([sub], sub_retract(sub, incl), [lambda flat: plain[flat[0]]])
        assert got == ChainMap(sub, sub, 0, {d: incl.component(d).solve(m) for d, m in plain.items()})
