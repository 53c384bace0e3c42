"""Actions and maps built from blocks (the retract transfer ``lifted_map``,
``map_from_blocks``) against elementwise references: the per-basis-tensor
loops they replaced.  Shifts, direct sums and cones of modules, the
generators a resolution attaches, the truncations tau<=0 and tau>=1, the
dual bimodule, direct sums and restrictions of bimodules; restrictions along
ring maps, the coextension actions, tensor and cotensor over S, the kernel
ideal as an R- and an S-module, truncated bimodules and categories, quotient
and H^0 products, H^0 categories, heart realizations and the relations of
the H^0 comparison, the table rings and instance categories, evaluation and
composition, opposites and tensor products of categories.  All are compared
entry for entry over Q and GF(7), on instances where odd elements meet odd
actions.  The references evaluate every pairing coefficient by coefficient
(``reference_pair``); they share with the code under test only the
complexes the actions live on."""

import itertools
import random

import pytest

from dgkit.bimodules import (
    Bimodule,
    Module,
    ModuleHomComplex,
    ModuleMap,
    bimodule_hom_complex,
    cone_module,
    direct_sum_bimodules,
    direct_sum_modules,
    dual_of,
    module_hom_complex,
    restrict_bimodule,
    shift_module,
)
from dgkit import changeofrings, complexes, deform, derived, instances
from dgkit.changeofrings import (
    _tensor_over_s,
    coextension_object,
    coextension_tensor_check,
    cotensor_over_s,
    extend_scalars_cat,
    heart_coextension_check,
    hom_bimodule_as_s_module,
    restrict_category,
    restrict_ring_module,
    s_module_of_component,
    s_vs_r_module_comparison,
    truncate_bimodule_le0,
)
from dgkit.complexes import (
    ChainMap,
    Complex,
    Equation,
    HomSystem,
    TensorLayout,
    Term,
    cone_complex,
    cone_retract,
    direct_sum,
    h0_retract,
    hom_complex,
    lifted_map,
    quotient_complex,
    shift_complex,
    sub_retract,
    subcomplex,
    truncate_ge,
    truncate_le,
)
from dgkit.derived import resolve_module, restricted_ground_module, ring_as_module, tstruct_truncate
from dgkit.deform import factorize, hom_as_right_module, ideal_as_R_module, ideal_as_S_module
from dgkit.dgcat import (
    DgCategory,
    h0_as_degree0_category,
    h0_ring,
    one_object_category,
    opposite,
    tensor_cat,
    truncate_cat,
)
from dgkit.dgring import DgIdeal, DgRing, DgRingMorphism, make_dual_numbers, quotient
from dgkit.errors import ValidationError, WindowCertificationError
from dgkit.fields import GF, QQ
from dgkit.instances import (
    cross_representable_bimodule,
    exterior_extension_ring,
    exterior_one_object_category,
    free_arrow_category,
    outer_representable_bimodule,
    random_cocycle,
    random_complex,
    random_module,
    random_nonpositive_category,
    random_square_bimodule,
    trivial_action_module,
    unit_functional,
    weak_cokernel_gap_category,
)
from dgkit.matrix import Mat
from dgkit.verdict import CERTIFIED

from hom_calculus import composition_map, evaluation_map, random_chain_map, vector_from_family
from test_derived import assert_module_and_comparison_checked

FIELDS = [QQ, GF(7)]


def odd(*degrees) -> bool:
    return sum(degrees) % 2 == 1


def basis(cx):
    for d in cx.degrees():
        for i in range(cx.dim(d)):
            yield d, Mat.basis_column(cx.field, cx.dim(d), i)


# -- elementwise references ------------------------------------------------------


def maps_of(pairings):
    """The chain maps of a dict of pairings, to compare with the references."""
    return {key: mu.map for key, mu in pairings.items()}


def reference_pair(mu, dx, x, dy, y):
    """mu(x (x) y), summed coefficient by coefficient over the nonzero
    entries of x and y."""
    lay = mu.layout
    field = lay.field
    comp = mu.map.component(dx + dy)
    acc = [0] * comp.rows
    xs = [(i, v) for i, v in enumerate(x.column_values(0)) if v]
    ys = [(j, v) for j, v in enumerate(y.column_values(0)) if v]
    if xs and ys:
        off, _ = lay.block_offset((dx, dy))
        ydim = lay.factors[1].dim(dy)
        for (i, xv), (j, yv) in itertools.product(xs, ys):
            pos = off + i * ydim + j
            for r, row in enumerate(comp.entries):
                acc[r] += xv * yv * row[pos]
    return Mat.column(field, acc)


def reference_at(mu, slot, deg, vector):
    """The map mu(v (x) -) (slot 0) or mu(- (x) v) (slot 1), one basis
    vector of the other factor at a time."""
    field = mu.layout.field
    other = mu.factors[1 - slot]
    fam = {}
    for b, e in basis(other):
        col = (reference_pair(mu, deg, vector, b, e) if slot == 0 else
               reference_pair(mu, b, e, deg, vector))
        fam.setdefault(b, []).append(col.column_values(0))
    return {b: Mat.from_columns(field, mu.map.target.dim(deg + b), cols)
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
    return reference_pair(m.act[(x, y)], dm, v, df, f)


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
    comps = {a: cone_complex(phi.at(a)) for a in cat.objects}

    def image(x, y, dm, i, df, f):
        col = [0] * comps[x].dim(dm + df)
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
        grid = [[0] * cols for _ in range(rows)]
        ydim, ydim1 = Y.dim(d), Y.dim(d + 1)
        for i, j in itertools.product(range(ydim1), range(ydim)):
            grid[i][j] = Y.diff(d).entries[i][j]
        for i, j in itertools.product(range(ydim1), range(X.dim(d + 1))):
            grid[i][ydim + j] = f.component(d + 1).entries[i][j]
        for i, j in itertools.product(range(X.dim(d + 2)), range(X.dim(d + 1))):
            grid[ydim1 + i][ydim + j] = -X.diff(d + 1).entries[i][j]
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
            grid = [[0] * dims[d] for _ in range(dims.get(d + 1, 0))]
            for i, j in itertools.product(range(P.at(z).dim(d + 1)), range(P.at(z).dim(d))):
                grid[i][j] = P.at(z).diff(d).entries[i][j]
            for (x, n, _, p_part), off in zip(gens, offs):
                h, hd = cat.hom(z, x), d - n
                if not h.dim(hd):
                    continue
                for i, j in itertools.product(range(h.dim(hd + 1)), range(h.dim(hd))):
                    v = h.diff(hd).entries[i][j]
                    grid[off[hd + 1] + i][off[hd] + j] = -v if odd(n) else v
                tw = reference_at(P.act[(z, x)], 0, n + 1, p_part)[hd]
                for i, j in itertools.product(range(tw.rows), range(tw.cols)):
                    grid[i][off[hd] + j] -= tw.entries[i][j]
            diffs[d] = Mat(field, dims.get(d + 1, 0), dims[d], grid)
        comps[z] = Complex(field, dims, diffs)

    def image(z, y, dq, i, dg, g):
        out = [0] * comps[z].dim(dq + dg)
        if i < P.at(y).dim(dq):
            part = acted(P, z, y, dq, Mat.basis_column(field, P.at(y).dim(dq), i), dg, g)
            off = 0
        else:
            gi, x, n = next((gi, x, n) for gi, (x, n, _, _) in enumerate(gens)
                            if 0 <= i - offsets[y][gi].get(dq - n, i + 1) < cat.hom(y, x).dim(dq - n))
            b = Mat.basis_column(field, cat.hom(y, x).dim(dq - n), i - offsets[y][gi][dq - n])
            if not cat.hom(z, x).dim(dq - n + dg):
                return Mat.column(field, out)
            part = reference_pair(cat.comp[(z, y, x)], dq - n, b, dg, g)
            off = offsets[z][gi][dq - n + dg]
        for r, v in enumerate(part.column_values(0)):
            out[off + r] = v
        return Mat.column(field, out)

    P2 = Module(cat, comps, module_actions(cat, comps, image), check=False)
    maps = {}
    for z in cat.objects:
        fam = {}
        for d in comps[z].degrees():
            grid = [[0] * comps[z].dim(d) for _ in range(M.at(z).dim(d))]
            for i, j in itertools.product(range(M.at(z).dim(d)), range(P.at(z).dim(d))):
                grid[i][j] = f.at(z).component(d).entries[i][j]
            for (x, n, m_part, _), off in zip(gens, offsets[z]):
                blk = reference_at(M.act[(z, x)], 0, n, m_part).get(d - n)
                if blk is not None:
                    for i, j in itertools.product(range(blk.rows), range(blk.cols)):
                        grid[i][off[d - n] + j] = blk.entries[i][j]
            fam[d] = Mat(field, M.at(z).dim(d), comps[z].dim(d), grid)
        maps[z] = ChainMap(comps[z], M.at(z), 0, fam)
    return P2, ModuleMap(P2, M, 0, maps)


def reference_resolution(m, floor, sequential=False):
    """Attach generators for the top cone classes until the cone is exact in
    degrees >= floor; returns (P, comparison, generators, classes), classes
    the number of top classes seen.  With ``sequential``, a round attaches
    only the classes ``sequential_picks`` keeps."""
    cat = m.cat
    P = Module.zero(cat)
    f = ModuleMap(P, m, 0, {}, check=False)
    generators, classes = [], 0
    while True:
        coh = {z: reference_cone_complex(f.at(z)).cohomology() for z in cat.objects}
        worst = max((d for h in coh.values() for d, v in h.as_dict().items() if v and d >= floor), default=None)
        if worst is None:
            return P, f, generators, classes
        gens = []
        for z in cat.objects:
            reps = coh[z].rep(worst)
            top = m.at(z).dim(worst)
            for j in range(reps.cols):
                vec = reps.col(j)
                gens.append((z, worst, vec.take_rows(range(top)), vec.take_rows(range(top, vec.rows))))
        classes += len(gens)
        if sequential:
            gens = sequential_picks(m, P, coh, gens)
        generators.extend((z, n) for z, n, _, _ in gens)
        P, f = reference_attach(cat, P, f, m, gens)


def sequential_picks(m, P, coh, gens):
    """The classes of ``gens``, one at a time in order, that are not in the
    span of the cone's boundaries and the degree-0 images of the classes
    kept before them: (m_c, p_c) at x times b in hom(z, x)^0 is (m_c.b,
    p_c.b) in the cone at z, through the actions of m and P."""
    cat = m.cat
    killed = {z: coh[z].image(gens[0][1]) for z in cat.objects}
    picks = []
    for x, n, m_part, p_part in gens:
        if killed[x].hstack(m_part.vstack(p_part)).rank() == killed[x].rank():
            continue
        picks.append((x, n, m_part, p_part))
        for z in cat.objects:
            for b in [b for d, b in basis(cat.hom(z, x)) if d == 0]:
                image = acted(m, z, x, n, m_part, 0, b).vstack(acted(P, z, x, n + 1, p_part, 0, b))
                killed[z] = killed[z].hstack(image)
    return picks


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
            out = out + mhc.projs[x].component(n).transpose() @ vector_from_family(mhc.layouts[x], n, fam)
        return out

    lact, ract = {}, {}
    for a1, a2, b in itertools.product(f.acat.objects, f.acat.objects, f.bcat.objects):
        def left(combo, idx, a1=a1, a2=a2, b=b):
            da, dpsi = combo
            avec = Mat.basis_column(field, f.acat.hom(a2, a1).dim(da), idx[0])
            psi = families((a1, b), dpsi, Mat.basis_column(field, mhcs[(a1, b)].complex.dim(dpsi), idx[1]))
            fams = {}
            for x in f.bcat.objects:
                lam = reference_at(f.lact[(a2, a1, x)], 0, da, avec)
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
                post = reference_at(f.bcat.comp[(x, b2, b1)],
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
            out = out + inj.component(dh + dx) @ reference_pair(s.lact[(a1, a2, b)],
                                                                 dh, h, dx, part)
        return out

    def right(a, b1, b2, dx, i, dh, h):
        vec = Mat.basis_column(field, sums[(a, b2)][0].dim(dx), i)
        out = Mat.zero(field, sums[(a, b1)][0].dim(dx + dh), 1)
        for s, proj, inj in zip(summands, sums[(a, b2)][2], sums[(a, b1)][1]):
            part = proj.component(dx) @ vec
            out = out + inj.component(dx + dh) @ reference_pair(s.ract[(a, b1, b2)],
                                                                 dx, part, dh, h)
        return out

    return reference_bimodule_actions(acat, bcat, {k: v[0] for k, v in sums.items()}, left, right)


def reference_restriction(f, along):
    """The reindexed lower action, the functor applied to each basis element
    of the reindexed hom."""
    F, field = along.obj_map, f.field
    acat, bcat = along.source, f.bcat
    comps = {(a, b): f.at(F[a], b) for a in acat.objects for b in bcat.objects}

    def left(a1, a2, b, dh, h, dx, i):
        x = Mat.basis_column(field, comps[(a1, b)].dim(dx), i)
        return reference_pair(f.lact[(F[a1], F[a2], b)],
                              dh, along.apply_hom(a1, a2, dh, h), dx, x)
    lact, _ = reference_bimodule_actions(acat, bcat, comps, left, lambda *args: None)
    return lact


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
def test_pairing_apply_and_at_match_the_coefficient_loops(field):
    rng = random.Random(5)
    for m in odd_modules(field, rng):
        obj = m.cat.objects[-1]
        act = m.act[(obj, obj)]
        mx, hx = act.factors
        for dx, dy in itertools.product(mx.degrees(), hx.degrees()):
            x = random_cocycle(rng, Complex(field, {dx: mx.dim(dx)}, {}), dx)
            y = random_cocycle(rng, Complex(field, {dy: hx.dim(dy)}, {}), dy)
            assert act.apply(dx, x, dy, y) == reference_pair(act, dx, x, dy, y)
            assert act.at(0, dx, x) == reference_at(act, 0, dx, x)
            assert act.at(1, dy, y) == reference_at(act, 1, dy, y)


# -- modules ------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_shift_and_sum_actions_match_the_basis_loops(field):
    rng = random.Random(11)
    mods = odd_modules(field, rng)
    for m in mods:
        for k in (1, -1):
            assert maps_of(shift_module(m, k).act) == reference_shift(m, k)
    for i in range(0, len(mods) - 1, 2):
        if mods[i].cat is mods[i + 1].cat:
            pair = [mods[i], mods[i + 1]]
            assert maps_of(direct_sum_modules(pair)[0].act) == reference_sum(pair)


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
            assert maps_of(c.act) == reference_cone(phi)
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
        P, comparison, generators, _ = reference_resolution(m, floor)
        assert res.generators == generators
        assert res.module.components == P.components
        assert maps_of(res.module.act) == maps_of(P.act)
        assert res.comparison.components == comparison.components


def selection_cases(field):
    """Seeded random categories with a degree-0 arrow that is not an identity:
    one object (3), three with nothing to skip (6) and with classes to skip
    (10), and classes killed by the images of a class at another object (29,
    52); a random module on each and the sum of two copies of it."""
    cases = []
    for seed in (3, 6, 10, 29, 52):
        rng = random.Random(seed)
        cat = random_nonpositive_category(rng, field, n_objects=rng.randint(1, 3))
        assert any(cat.hom(z, x).dim(0) > (z == x) for z in cat.objects for x in cat.objects)
        m = random_module(rng, cat)
        cases += [m, direct_sum_modules([m, m])[0]]
    return cases


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_resolutions_attach_the_classes_the_sequential_loop_picks(field):
    skipped = 0
    for m in selection_cases(field):
        res = resolve_module(m, -3)
        P, comparison, generators, classes = reference_resolution(m, -3, sequential=True)
        assert res.generators == generators
        assert res.module.components == P.components
        assert maps_of(res.module.act) == maps_of(P.act)
        assert res.comparison.components == comparison.components
        assert_module_and_comparison_checked(res)
        skipped += classes - len(generators)
    assert skipped > 0


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_resolutions_certify_their_cones_and_shift_each_hom_once(monkeypatch, field):
    # the cases of test_resolutions_match_the_generator_loop
    rng = random.Random(17)
    cat, aug = dual_numbers_category(field)
    path = random_nonpositive_category(rng, field, n_objects=2, flavor="path")
    ground = restricted_ground_module(aug, cat)
    cases = [(ground, -3), (shift_module(ground, 1), -3), (random_module(rng, path), -2),
             (shift_module(random_module(rng, path), -1), -2)]
    shift = complexes.shift_complex
    calls = []

    def counted(cx, k):
        calls.append((cx, k))
        return shift(cx, k)

    monkeypatch.setattr(complexes, "shift_complex", counted)
    monkeypatch.setattr(derived, "shift_complex", counted)
    for m, floor in cases:
        calls.clear()
        res = resolve_module(m, floor)
        assert len(calls) == len(m.cat.objects) * len(res.generators) > 0
        for z in m.cat.objects:
            cone_h = cone_retract(res.comparison.at(z)).complex.cohomology().as_dict()
            assert cone_h == res.cone_cohomology[z]
            assert all(d < floor for d in cone_h)


def checked_cones(monkeypatch):
    """Records every cone a resolution builds as a checked Complex."""
    built, checked = [], derived._Cone.checked

    def recorded(cone):
        built.append(checked(cone))
        return built[-1]

    monkeypatch.setattr(derived._Cone, "checked", recorded)
    return built


@pytest.mark.parametrize("field", FIELDS + [GF(101)], ids=["Q", "F7", "F101"])
def test_grown_cones_are_the_block_sums_of_all_their_summands(monkeypatch, field):
    # k over the dual numbers down to -8 and the selection draws down to -3: each
    # call checks one cone per object, equal to the block sum of m(z) and every
    # hom(z, x_g)[1 - n_g] twisted by the blocks, and so does a call stopped by
    # the generator cap
    cases = []
    for n, e in [(2, -1), (3, -2), (3, 0)]:
        ring, aug = make_dual_numbers(n, e, field)
        cases.append((restricted_ground_module(aug, one_object_category(ring)), -8))
    cases += [(m, -3) for m in selection_cases(field)]
    built = checked_cones(monkeypatch)
    for m, floor in cases:
        built.clear()
        res = resolve_module(m, floor)
        assert len(built) == len(m.cat.objects)
        for z, cone in zip(m.cat.objects, built):
            summands = [(m.at(z), 0)] + [(m.cat.hom(z, x), 1 - n) for x, n in res.generators]
            assert cone == complexes.block_sum(summands, lambda d: {
                key: fam[d + 1 - n] for key, (fam, n) in res.blocks[z].items() if d + 1 - n in fam})
        with pytest.raises(WindowCertificationError):
            resolve_module(m, floor, generator_cap=len(res.generators) - 1)
        assert len(built) == 2 * len(m.cat.objects)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
@pytest.mark.parametrize("cap", [400, 5], ids=["certified", "at-cap"])
def test_a_flipped_twist_sign_in_a_middle_round_fails_d_o_d(monkeypatch, field, cap):
    # seed 10's draw attaches two generators in each of degrees -1, -2 and -3; negating
    # the twist p_{3,0} of the middle round's second generator breaks d o d at X0,
    # caught when the cones certify and when the generator cap stops the loop
    rng = random.Random(10)
    cat = random_nonpositive_category(rng, field, n_objects=rng.randint(1, 3))
    m = random_module(rng, cat)
    assert [n for _, n in resolve_module(m, -3).generators] == [-1, -1, -2, -2, -3, -3]
    with pytest.raises(WindowCertificationError):
        resolve_module(m, -3, generator_cap=5)
    grow = derived._Cone.grow

    def flipped(cone, adds, fams, n):
        if len(cone.parts) == 3:  # m(z) and the first round's two generators
            fams = {**fams, (1, 1): {d: -b for d, b in fams[(1, 1)].items()}}
        return grow(cone, adds, fams, n)

    monkeypatch.setattr(derived._Cone, "grow", flipped)
    with pytest.raises(ValidationError, match=r"cone\(P\(X0\)->complex\[1\]\): d o d != 0 between degrees -3 and -1"):
        resolve_module(m, -3, generator_cap=cap)


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
        assert maps_of(report.tau_le.act) == le
        assert maps_of(report.tau_ge.act) == ge
        assert report.triangle_is_distinguished


# -- bimodules ----------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_dual_and_sum_of_bimodules_match_the_basis_loops(field):
    rng = random.Random(23)
    cases = square_bimodules(field, rng)
    for t in cases:
        d = dual_of(t)
        lact, ract = reference_dual(t)
        assert maps_of(d.lact) == lact
        assert maps_of(d.ract) == ract
    for t in cases:
        pair = [t, outer_representable_bimodule(t.acat, t.acat.objects[0], t.acat.objects[-1])]
        total = direct_sum_bimodules(pair)
        lact, ract = reference_bimodule_sum(pair)
        assert maps_of(total.lact) == lact
        assert maps_of(total.ract) == ract


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_the_double_dual_matches_the_basis_loops(field):
    """D(D(T)) is a bimodule over the categories of T themselves, since the
    opposite of an opposite is the category it came from."""
    rng = random.Random(23)
    for t in square_bimodules(field, rng):
        d = dual_of(t)
        dd = dual_of(d)
        assert dd.acat is t.acat and dd.bcat is t.bcat
        lact, ract = reference_dual(d)
        assert maps_of(dd.lact) == lact
        assert maps_of(dd.ract) == ract


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_restrictions_match_the_basis_loops(field):
    ring, aug = make_dual_numbers(2, -1, field)
    for cat in (one_object_category(ring), exterior_one_object_category(ring)):
        ext = extend_scalars_cat(cat, aug)
        diag = Bimodule.diagonal(ext.category)
        assert maps_of(restrict_bimodule(diag, ext.inclusion).lact) == reference_restriction(diag, ext.inclusion)


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
    ground = Complex(field, {0: 1}, {})
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([target, ground], target, [lambda flat: swap.component(flat[0])])
    # where the subcomplex is zero, a nonzero plain map escapes too
    top = Complex(field, {0: 1}, {})
    zero_sub, zero_incl = subcomplex(top, {})
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([top], sub_retract(zero_sub, zero_incl), [lambda flat: Mat.identity(field, 1)])


def hom_system_instance(field):
    """Maps phi: V -> W with phi o A = B o phi, V = k^2 in degree 0 and W =
    k^2 (+) k[-1], A = B = diag(1, 0) in degree 0 and B = 2 in degree 1: the
    Hom system is the diagonal maps in degree 0 (2 of 4 dimensions) and zero
    in degree 1, where the ambient has 2 dimensions."""
    v = Complex(field, {0: 2}, {})
    w = Complex(field, {0: 2, 1: 1}, {})
    diag = Mat(field, 2, 2, [[1, 0], [0, 0]])
    eq = Equation(v, w, (Term("phi", right=(0, {0: diag})),
                         Term("phi", left=(0, {0: diag, 1: Mat(field, 1, 1, [[2]])}), sign=-1)))
    return HomSystem({"phi": hom_complex(v, w)}, [eq], name="diagonal")


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_a_map_leaving_a_hom_system_raises(field):
    system = hom_system_instance(field)
    amb, sub, incl = system.ambient, system.complex, system.inclusion
    assert (amb.dim(0), amb.dim(1), sub.dim(0), sub.dim(1)) == (4, 2, 2, 0)
    target = system.retract()
    # the identity of the ambient breaks naturality in degree 0
    with pytest.raises(ValidationError, match="a map into a subcomplex leaves it in degree 0"):
        lifted_map([amb], target, [lambda flat: Mat.identity(field, amb.dim(flat[0]))])
    # in degree 1 the subcomplex is zero, so any nonzero family leaves it
    with pytest.raises(ValidationError, match="a map into a subcomplex leaves it in degree 1"):
        lifted_map([amb], target, [lambda flat: Mat.identity(field, 2) if flat == (1,) else None])
    # maps that land: the echelon retract gives what sub_retract gives
    rng = random.Random(41)
    for _ in range(4):
        plain = incl.component(0) @ Mat(field, 2, 4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        # out of the ambient, and out of the subcomplex read through the retract
        for source in (amb, target):
            got = lifted_map([source], target, [lambda flat: plain if flat == (0,) else None])
            assert got == lifted_map([source], sub_retract(sub, incl), [lambda flat: plain if flat == (0,) else None])


def cycle_instance(field):
    """C with basis s in degree -1, (v, u, w) in degree 0 and t in degree 1,
    ds = v and du = t: the degree-0 cycles are v and w, H^0 is spanned by
    [w], and v is a coboundary."""
    return Complex(field, {-1: 1, 0: 3, 1: 1}, {-1: Mat(field, 3, 1, [[1], [0], [0]]),
                                               0: Mat(field, 1, 3, [[0, 1, 0]])})


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_a_map_leaving_the_degree_0_cycles_raises(field):
    c = cycle_instance(field)
    h0 = h0_retract(c.cohomology())
    piece = h0.pieces[0]
    assert piece.inward[0] == Mat(field, 3, 1, [[0], [0], [1]])
    assert piece.outward[0] == Mat(field, 1, 3, [[0, 0, 1]])

    def plain(cols):
        """The degree-0 map of C sending w to the combination ``cols`` of (v, u, w)."""
        return lambda flat: Mat(field, 3, 3, [[0, 0, cols[0]], [0, 0, cols[1]], [0, 0, cols[2]]])

    # w |-> w + v stays in the cycles; out drops the coboundary v
    assert lifted_map([h0], h0, [plain([1, 0, 1])]) == ChainMap.identity(h0.complex)
    # w |-> u leaves the cycles: du = t
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([h0], h0, [plain([0, 1, 0])])
    ground = Complex(field, {0: 1}, {})
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([h0, ground], h0, [plain([0, 1, 1])])
    # where H^0 is zero, an image outside the cycles escapes too
    bounded = Complex(field, {-1: 1, 0: 2, 1: 1}, {-1: Mat(field, 2, 1, [[1], [0]]), 0: Mat(field, 1, 2, [[0, 1]])})
    zero = h0_retract(bounded.cohomology())
    assert zero.complex.total_dim() == 0
    assert not lifted_map([ground], zero, [lambda flat: Mat(field, 2, 1, [[1], [0]])]).components
    with pytest.raises(ValidationError, match="leaves it"):
        lifted_map([ground], zero, [lambda flat: Mat(field, 2, 1, [[0], [1]])])


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


# -- restrictions, coextensions, the kernel ideal and other block builders ----------
#
# Each reference below is the per-basis loop its site used before it moved
# onto blocks: pairings are evaluated coefficient by coefficient, a map into a
# subcomplex solves back one vector at a time.


def reference_map(factors, target, image):
    """The map out of the tensor of two ``factors`` into ``target`` sending
    the basis tensor x (x) y of degrees (dx, dy) to image(dx, x, dy, y), None
    for zero."""
    field = target.field

    def entry(combo, idx):
        (dx, dy), (i, j) = combo, idx
        return image(dx, Mat.basis_column(field, factors[0].dim(dx), i),
                     dy, Mat.basis_column(field, factors[1].dim(dy), j))

    return TensorLayout(factors).map_from_entries(target, 0, entry)


def ring_product(ring, dx, x, dy, y):
    return reference_pair(ring.product, dx, x, dy, y)


def express(incl, deg, vec):
    """Coordinates of vec in the subcomplex spanned by the columns of incl."""
    cols = incl.component(deg)
    if cols.cols == 0:
        assert vec.is_zero()
        return None
    sol = cols.solve(vec)
    assert sol is not None
    return sol


def reference_through(mu, slot, source, f):
    """``mu`` with its factor ``slot`` read through f(d, x), a map out of
    ``source``."""
    factors = list(mu.factors)
    factors[slot] = source

    def image(d0, x0, d1, x1):
        if slot == 0:
            return reference_pair(mu, d0, f(d0, x0), d1, x1)
        return reference_pair(mu, d0, x0, d1, f(d1, x1))

    return reference_map(factors, mu.map.target, image)


def reference_swapped(mu):
    """The action from the other side: x (x) r |-> (-1)^{|x||r|} r . x."""
    a, b = mu.factors
    return reference_map([b, a], mu.map.target, lambda dx, x, dr, r: (
        -reference_pair(mu, dr, r, dx, x) if odd(dx * dr) else reference_pair(mu, dr, r, dx, x)))


def reference_unit(cat, a):
    """s |-> s . 1_a, one coefficient at a time."""
    return lambda ds, s: reference_pair(cat.action[(a, a)], ds, s, 0, cat.id_vector(a))


def reference_truncated_bimodule(x):
    """Both actions of tle0(x) through the inclusions, solving back."""
    incls = {key: truncate_le(cx, 0)[1] for key, cx in x.components.items()}

    def left(a1, a2, b, dh, h, dx, i):
        vec = incls[(a1, b)].component(dx).col(i)
        return express(incls[(a2, b)], dh + dx, reference_pair(x.lact[(a1, a2, b)],
                                                             dh, h, dx, vec))

    def right(a, b1, b2, dx, i, dh, h):
        vec = incls[(a, b2)].component(dx).col(i)
        return express(incls[(a, b1)], dx + dh, reference_pair(x.ract[(a, b1, b2)],
                                                             dx, vec, dh, h))

    return reference_bimodule_actions(x.acat, x.bcat, {k: i.source for k, i in incls.items()}, left, right)


def reference_truncated_category(cat):
    """Composition, action and identities of tle0(cat), solving back."""
    incls = {key: truncate_le(cx, 0)[1] for key, cx in cat.homs.items()}
    comp = {(a, b, c): reference_map([incls[(b, c)].source, incls[(a, b)].source], incls[(a, c)].source,
                                     lambda dg, g, df, f, a=a, b=b, c=c: express(incls[(a, c)], dg + df, reference_pair(
                                         cat.comp[(a, b, c)],
                                         dg, incls[(b, c)].component(dg) @ g, df, incls[(a, b)].component(df) @ f)))
            for a, b, c in itertools.product(cat.objects, repeat=3)}
    action = {key: reference_map([cat.base.underlying, incl.source], incl.source,
                                 lambda dr, r, df, f, key=key, incl=incl: express(incl, dr + df, reference_pair(
                                     cat.action[key], dr, r, df, incl.component(df) @ f)))
              for key, incl in incls.items()}
    ids = {a: express(incls[(a, a)], 0, cat.id_vector(a)) for a in cat.objects}
    return comp, action, ids


def reference_ideal_action(theta, lift):
    """x . r = x lift(r) on the kernel ideal, solving back into it."""
    ideal = theta.kernel_ideal()
    ring, incl = theta.source, ideal.inclusion
    acting = theta.source if lift is None else theta.target
    return reference_map([ideal.sub, acting.underlying], ideal.sub, lambda dx, x, dr, r: express(
        incl, dx + dr, ring_product(ring, dx, incl.component(dx) @ x, dr, r if lift is None else lift(dr, r))))


def families(system, n, vec):
    """The slot families of the element vec of degree n of a Hom system."""
    amb = system.inclusion.component(n) @ vec
    return {p: system.layouts[p].family_from_vector(n, system.projs[p].component(n) @ amb) for p in system.layouts}


def assemble(system, n, fams):
    """The element of degree n of a Hom system with the slot families ``fams``."""
    amb = Mat.zero(system.ambient.field, system.ambient.dim(n), 1)
    for p, fam in fams.items():
        amb = amb + system.projs[p].component(n).transpose() @ vector_from_family(system.layouts[p], n, fam)
    return express(system.inclusion, n, amb)


def post(fam, by, n):
    """by o fam for a family of degree n and per-degree matrices ``by``."""
    return {i: by[i + n] @ m for i, m in fam.items() if i + n in by and not (by[i + n] @ m).is_zero()}


def reference_hom_as_s_module(f, g, system, scat):
    """phi . s = (-1)^{|s||phi|} sigma_s o phi, solving back."""
    sobj = scat.objects[0]

    def image(n, phi, ds, s):
        out = assemble(system, n + ds, {p: post(fam, reference_at(
            g.lact[(sobj, sobj, p[1])], 0, ds, s), n)
            for p, fam in families(system, n, phi).items()})
        return -out if odd(n * ds) and out is not None else out

    return reference_map([system.complex, scat.hom(sobj, sobj)], system.complex, image)


def reference_cotensor(v, g):
    """Both actions of Hom_S(V, G): postcomposition, solving back."""
    scat = g.acat
    sobj = scat.objects[0]
    mhcs = {b: module_hom_complex(v, s_module_of_component(g, b, scat)) for b in g.bcat.objects}

    def left(a1, a2, b, ds, s, dn, i):
        phi = Mat.basis_column(g.field, mhcs[b].complex.dim(dn), i)
        sig = reference_at(g.lact[(sobj, sobj, b)], 0, ds, s)
        return assemble(mhcs[b], dn + ds, {sobj: post(families(mhcs[b], dn, phi)[sobj], sig, dn)})

    def right(a, b1, b2, dn, i, dh, h):
        phi = Mat.basis_column(g.field, mhcs[b2].complex.dim(dn), i)
        rho = reference_at(g.ract[(sobj, b1, b2)], 1, dh, h)
        out = assemble(mhcs[b1], dn + dh, {sobj: post(families(mhcs[b2], dn, phi)[sobj], rho, dn)})
        return -out if odd(dn * dh) and out is not None else out

    return reference_bimodule_actions(scat, g.bcat, {(sobj, b): m.complex for b, m in mhcs.items()}, left, right)


def reference_tensor_check(v, f, g):
    """The currying map column by column: each curried family solved into
    C(F, G), each element of Hom(V, C(F, G)) solved into Hom_S."""
    scat = f.acat
    sobj = scat.objects[0]
    field = f.field
    vf, tensors = _tensor_over_s(v, f)
    lhs = bimodule_hom_complex(vf, g)
    hmod, hc = hom_bimodule_as_s_module(f, g, scat)
    rhs = module_hom_complex(v, hmod)
    if any(lhs.complex.dim(n) != rhs.complex.dim(n) for n in set(lhs.complex.degrees()) | set(rhs.complex.degrees())):
        return False
    for n in lhs.complex.degrees():
        cols = []
        for col in range(lhs.complex.dim(n)):
            fams = families(lhs, n, Mat.basis_column(field, lhs.complex.dim(n), col))
            fam_out = {}
            for dv in v.at(sobj).degrees():
                cols_h = []
                for vi in range(v.at(sobj).dim(dv)):
                    amb = Mat.zero(field, hc.ambient.dim(dv + n), 1)
                    for b in f.bcat.objects:
                        t = tensors[b]
                        inner = {}
                        for dx in f.at(sobj, b).degrees():
                            phi = fams[(sobj, b)].get(dv + dx)
                            if phi is None or not g.at(sobj, b).dim(dx + dv + n):
                                continue
                            inner[dx] = Mat.from_columns(field, phi.rows, [
                                (phi @ t.projection.component(dv + dx) @ Mat.basis_column(
                                    field, t.layout.complex.dim(dv + dx), t.layout.position((dv, dx), (vi, xi))))
                                .column_values(0) for xi in range(f.at(sobj, b).dim(dx))])
                        inj = hc.projs[(sobj, b)].component(dv + n).transpose()
                        amb = amb + inj @ vector_from_family(hc.layouts[(sobj, b)], dv + n, inner)
                    sol = hc.inclusion.component(dv + n).solve(amb)
                    if sol is None:
                        return False
                    cols_h.append(sol.column_values(0))
                if hc.complex.dim(dv + n):
                    fam_out[dv] = Mat.from_columns(field, hc.complex.dim(dv + n), cols_h)
            sol = rhs.inclusion.component(n).solve(vector_from_family(rhs.layouts[sobj], n, fam_out))
            if sol is None:
                return False
            cols.append(sol.column_values(0))
        if Mat.from_columns(field, rhs.complex.dim(n), cols).rank() != lhs.complex.dim(n):
            return False
    return True


def reference_evaluation(h):
    return reference_map([h.complex, h.source], h.target, lambda n, phi, i, x: (
        h.family_from_vector(n, phi)[i] @ x if i in h.family_from_vector(n, phi) else None))


def reference_composition(x, y, z):
    hyz, hxy, hxz = hom_complex(y, z), hom_complex(x, y), hom_complex(x, z)

    def image(m, psi, n, phi):
        top, low = hyz.family_from_vector(m, psi), hxy.family_from_vector(n, phi)
        return vector_from_family(hxz, m + n, {i: top[i + n] @ f for i, f in low.items() if i + n in top})

    return reference_map([hyz.complex, hxy.complex], hxz.complex, image)


def exterior_quotient(field):
    """theta: R[f] -> R[f]/(f) for R = k[e]/e^2, |e| = |f| = -1: odd
    elements on both sides and a square-zero kernel."""
    ring, _ = make_dual_numbers(2, -1, field)
    rf = exterior_extension_ring(ring)
    cx = rf.underlying
    cols = {d: Mat.identity(field, cx.dim(d)).take_columns(
        [i for i, label in enumerate(cx.spaces.labels[d]) if label.endswith("f")]) for d in cx.degrees()}
    _, incl = subcomplex(cx, {d: m for d, m in cols.items() if m.cols})
    return quotient(rf, DgIdeal(rf, incl))


def ring_maps(field):
    """The augmentation of k[e]/e^2 (|e| = -1), the square-zero steps of
    k[e]/e^3 (|e| = -2) and the exterior quotient."""
    _, aug = make_dual_numbers(2, -1, field)
    _, aug3 = make_dual_numbers(3, -2, field)
    return [aug] + factorize(aug3).steps + [exterior_quotient(field)[1]]


def s_bimodules(field):
    """(S, b)-bimodules over S = k[e]/e^2 (|e| = -1): the coextensions l(g)(a)
    of the diagonal of the free-arrow category over S, and a cross
    representable over a two-object path category and its double."""
    ring, _ = make_dual_numbers(2, -1, field)
    a_s = free_arrow_category(ring)
    scat = one_object_category(ring)
    diag = Bimodule.diagonal(a_s)
    # hom(X0, X1) is 3-dimensional in degree -2
    path = random_nonpositive_category(random.Random(37), field, n_objects=2, flavor="path")
    cross = cross_representable_bimodule(scat, path, "*", path.objects[1])
    return scat, ([coextension_object(a_s, a_s, diag, a, scat) for a in a_s.objects]
                  + [cross, direct_sum_bimodules([cross, cross])])


def s_modules(scat):
    """Free S-modules, one shifted, and their sum (two basis vectors in degree -1)."""
    free = ring_as_module(scat.base, scat)
    return [free, shift_module(free, 1), direct_sum_modules([free, shift_module(free, 1)])[0]]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_restrictions_along_ring_maps_match_the_basis_loops(field):
    for theta in ring_maps(field):
        source = theta.source.underlying
        for cat in (one_object_category(theta.target), free_arrow_category(theta.target)):
            restricted = restrict_category(cat, theta)
            for key in itertools.product(cat.objects, repeat=2):
                assert restricted.action[key].map == reference_through(
                    cat.action[key], 0, source, theta.apply)
        for m in s_modules(one_object_category(theta.target)):
            assert restrict_ring_module(m, theta).act[("*", "*")].map == reference_through(
                m.act[("*", "*")], 1, source, theta.apply)
        assert restricted_ground_module(theta).act[("*", "*")].map == reference_through(
            theta.target.product, 1, source, theta.apply)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_instance_categories_match_the_basis_loops(field):
    ring, _ = make_dual_numbers(2, -1, field)
    for base in (ring, DgRing.ground_field(field)):
        cat = exterior_one_object_category(base)
        ext = exterior_extension_ring(base)
        labels = ext.underlying.spaces.labels

        def embed(d, r):
            return Mat.identity(field, ext.dim(d)).take_columns(
                [labels[d].index(f"r{d}_{i}") for i in range(base.dim(d))]) @ r

        assert cat.action[("*", "*")].map == reference_through(ext.product, 0, base.underlying, embed)
        arrow = free_arrow_category(base)
        for mu in arrow.comp.values():
            assert mu.map == reference_map(mu.factors, mu.map.target,
                                           lambda dg, g, df, f: ring_product(base, dg, g, df, f))
        for mu in arrow.action.values():
            assert mu.map == reference_map(mu.factors, mu.map.target,
                                           lambda dr, r, dx, x: ring_product(base, dr, r, dx, x))
    rng = random.Random(43)
    wide = 0
    for flavor in ("discrete", "path") * 4:
        path = random_nonpositive_category(rng, field, n_objects=2, flavor=flavor)
        # the ground-field action is u . 1
        for mu in path.action.values():
            unit = path.base.unit.entries[0][0]
            assert mu.map == reference_map(mu.factors, mu.map.target,
                                           lambda dr, r, dx, x: x.scale(unit * r.entries[0][0]))
        m = trivial_action_module(rng, path)
        for x, y in itertools.product(path.objects, repeat=2):
            lam = unit_functional(path, x)
            assert m.act[(x, y)].map == reference_map(m.act[(x, y)].factors, m.at(x), lambda dm, v, df, f: (
                v.scale((lam @ f).entries[0][0]) if x == y and df == 0 else None))
            wide += x == y and lam.cols > 1 and any(d > 1 for d in m.at(x).spaces.dims.values())
    # some End(x)^0 and some component are both wider than one
    assert wide


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_evaluation_and_composition_match_the_basis_loops(field):
    rng = random.Random(43)
    for _ in range(4):
        x, y, z = [random_complex(rng, field, lo=-2, hi=1, pieces=2)[0] for _ in range(3)]
        assert evaluation_map(hom_complex(x, y)) == reference_evaluation(hom_complex(x, y))
        assert composition_map(x, y, z) == reference_composition(x, y, z)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_coextension_actions_match_the_basis_loops(field):
    ring, _ = make_dual_numbers(2, -1, field)
    a_s = free_arrow_category(ring)
    diag = Bimodule.diagonal(a_s)
    for a in a_s.objects:
        x = coextension_object(a_s, a_s, diag, a)
        for b in a_s.objects:
            key = ("*", "*", b)
            assert x.lact[key].map == reference_through(diag.lact[(a, a, b)], 0,
                                                    ring.underlying, reference_unit(a_s, a))
    # over the ground field with End^0 of dimension 2, s . 1_a needs the identity
    disc = random_nonpositive_category(random.Random(41), field, n_objects=2, flavor="discrete")
    ddiag = Bimodule.diagonal(disc)
    for a in disc.objects:
        x = coextension_object(disc, disc, ddiag, a)
        for b in disc.objects:
            assert x.lact[("*", "*", b)].map == reference_through(ddiag.lact[(a, a, b)], 0,
                                                              disc.base.underlying, reference_unit(disc, a))
    scat, bims = s_bimodules(field)
    for x in bims:
        for b in x.bcat.objects:
            assert s_module_of_component(x, b, scat).act[("*", "*")].map == reference_swapped(
                x.lact[("*", "*", b)])
    for g in bims:
        for f in [f for f in bims if f.bcat is g.bcat]:
            mod, hc = hom_bimodule_as_s_module(f, g, scat)
            assert mod.act[("*", "*")].map == reference_hom_as_s_module(f, g, hc, scat)
        for v in s_modules(scat):
            hv = cotensor_over_s(v, g)
            lact, ract = reference_cotensor(v, g)
            assert maps_of(hv.lact) == lact
            assert maps_of(hv.ract) == ract


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_coextension_tensor_check_matches_the_column_loop(field):
    scat, bims = s_bimodules(field)
    checked = 0
    for v in s_modules(scat):
        for f, g in [(bims[0], bims[0]), (bims[1], bims[0]), (bims[0], bims[1]), (bims[2], bims[2])]:
            verdict = coextension_tensor_check(v, f, g)
            assert verdict == reference_tensor_check(v, f, g)
            checked += verdict
    assert checked


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_s_vs_r_structures_match_the_basis_loop(field, monkeypatch):
    ring, aug = make_dual_numbers(2, -1, field)
    ext = extend_scalars_cat(free_arrow_category(ring), aug)
    qring, theta = exterior_quotient(field)
    exts = [ext, extend_scalars_cat(one_object_category(theta.source), theta)]
    built = []

    def recording(cat, comps, action, name="M", check=True):
        built.append(action[("*", "*")])
        return Module(cat, comps, action, name=name, check=check)

    monkeypatch.setattr(changeofrings, "Module", recording)
    for e in exts:
        mods = [Module.representable(e.category, a) for a in e.category.objects]
        mods += [shift_module(m, 1) for m in mods]
        built.clear()
        assert s_vs_r_module_comparison(e, mods).s_structures_valid.status == CERTIFIED
        expect = [reference_through(m.act[(a, a)], 1, e.theta.target.underlying,
                                    reference_unit(e.category, a)) for m in mods for a in e.category.objects]
        assert built == expect


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_truncations_of_bimodules_and_categories_match_the_basis_loops(field):
    rng = random.Random(47)
    for t in square_bimodules(field, rng)[:3]:
        d = dual_of(t)
        td, _ = truncate_bimodule_le0(d)
        lact, ract = reference_truncated_bimodule(d)
        assert maps_of(td.lact) == lact
        assert maps_of(td.ract) == ract
    ring, _ = make_dual_numbers(2, -1, field)
    cats = [exterior_one_object_category(ring), free_arrow_category(ring),
            random_nonpositive_category(rng, field, n_objects=2, flavor="path")]
    loop = differential_loop_category(field)
    cats += [loop, tensor_cat(loop, cats[2])]
    for cat in cats:
        tcat, _, _ = truncate_cat(cat)
        comp, action, ids = reference_truncated_category(cat)
        assert maps_of(tcat.comp) == comp
        assert maps_of(tcat.action) == action
        assert tcat.ids == ids


def differential_loop_category(field):
    """One object with End = <1, u, t>, |u| = 0, |t| = 1, du = t and all
    products of u and t zero: its truncation keeps only 1 in degree 0."""
    end = Complex(field, {0: 2, 1: 1}, {0: Mat(field, 1, 2, [[0, 1]])})
    lay = TensorLayout([end, end])

    def entry(combo, idx):
        if 0 not in (combo[0] + idx[0], combo[1] + idx[1]):
            return None
        other = idx[1] if combo[0] + idx[0] == 0 else idx[0]
        return Mat.basis_column(field, end.dim(sum(combo)), other)

    return DgCategory(DgRing.ground_field(field), ["*"], {("*", "*"): end},
                      {("*", "*", "*"): lay.map_from_entries(end, 0, entry)}, {"*": Mat.basis_column(field, 2, 0)})


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_ideal_actions_match_the_basis_loops(field):
    for theta in ring_maps(field):
        assert ideal_as_R_module(theta).act[("*", "*")].map == reference_ideal_action(theta, None)
        lift = lambda ds, s, theta=theta: theta.map.component(ds).solve(s)  # noqa: E731
        assert ideal_as_S_module(theta).act[("*", "*")].map == reference_ideal_action(theta, lift)
        cat = one_object_category(theta.source)
        assert hom_as_right_module(cat, "*", "*").act[("*", "*")].map == reference_swapped(
            cat.action[("*", "*")])


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_quotient_and_h0_products_match_the_basis_loops(field):
    rings = [theta.source for theta in ring_maps(field)] + [make_dual_numbers(3, 0, field)[0], koszul_ring(field)]
    for ring in rings:
        rep = ring.underlying.cohomology()
        h0, _ = h0_ring(ring)
        assert h0.product.map == reference_map([h0.underlying, h0.underlying], h0.underlying, lambda dx, x, dy, y: (
            rep.class_of(0, ring_product(ring, 0, rep.rep(0) @ x, 0, rep.rep(0) @ y))))
    qring, theta = exterior_quotient(field)
    ideal = theta.kernel_ideal()
    killed = {d: ideal.column_span(d) for d in ideal.sub.degrees()}
    _, proj, sections = quotient_complex(theta.source.underlying, killed)
    assert qring.product.map == reference_map([qring.underlying] * 2, qring.underlying, lambda dx, x, dy, y: (
        proj.component(dx + dy) @ ring_product(theta.source, dx, sections[dx] @ x, dy, sections[dy] @ y)))


def koszul_ring(field):
    """k<1, x, y, xy> with |x| = 0, |y| = -1, dy = x: H^0 = k, with a differential."""
    table = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}, (2, 1): {3: 1}}

    def mult(i, j):
        key = (min(i, j), max(i, j)) if 0 in (i, j) else (i, j)
        return {k: field.from_int(v) for k, v in table.get(key, {}).items()}

    return DgRing.from_table(field, [0, 0, -1, -1], ["1", "x", "y", "xy"], 0, mult,
                             differential={2: {1: 1}}, name="kos")


# -- maps that leave their subcomplex -----------------------------------------------


def positive_loop_category(field):
    """One object with End = k[t]/t^2, |t| = +1: acting by t leaves every
    truncation to degrees <= 0."""
    end = Complex(field, {0: 1, 1: 1}, {})
    comp = TensorLayout([end, end]).map_from_entries(end, 0, lambda combo, idx: Mat.column(field, [1]))
    return DgCategory(DgRing.ground_field(field), ["*"], {("*", "*"): end}, {("*", "*", "*"): comp},
                      {"*": Mat.column(field, [1])})


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_actions_leaving_their_subcomplex_raise(field, monkeypatch):
    # a truncation that is not action-stable
    loop = positive_loop_category(field)
    with pytest.raises(ValidationError, match="leaves it"):
        truncate_bimodule_le0(Bimodule.diagonal(loop))
    # a kernel "ideal" that is not closed: the span of 1 in k[e]/e^2
    ring, aug = make_dual_numbers(2, -1, field)
    _, incl = subcomplex(ring.underlying, {0: ring.unit})
    monkeypatch.setattr(aug, "kernel_ideal", lambda: DgIdeal(ring, incl, check=False))
    with pytest.raises(ValidationError, match="leaves it"):
        ideal_as_R_module(aug)
    # a cotensor whose b-action is not S-linear: rho keeps only the unit part
    scat = one_object_category(ring)
    g = Bimodule.diagonal(scat)
    kill_e = ChainMap(ring.underlying, ring.underlying, 0, {0: Mat.identity(field, 1)})
    ract = {key: kill_e.compose(mu.map) for key, mu in g.ract.items()}
    broken = Bimodule(scat, scat, g.components, maps_of(g.lact), ract, check=False)
    with pytest.raises(ValidationError, match="leaves it"):
        cotensor_over_s(ring_as_module(ring, scat), broken)


# -- H^0 maps and literal structure tables -----------------------------------------
#
# Each reference below is the closure its site passed to map_from_entries before
# it moved onto blocks: a class is read back with class_of one image at a time,
# a table is read one pair of basis elements at a time.


def coboundary_loop_category(field):
    """One object with End = <1, s, v>, |s| = -1, |v| = 0, ds = v and all
    products of s and v zero: H^0 = k.[1], and v is a coboundary."""
    end = Complex(field, {-1: 1, 0: 2}, {-1: Mat(field, 2, 1, [[0], [1]])})
    lay = TensorLayout([end, end])

    def entry(combo, idx):
        if 0 not in (combo[0] + idx[0], combo[1] + idx[1]):
            return None
        other = idx[1] if combo[0] + idx[0] == 0 else idx[0]
        return Mat.basis_column(field, end.dim(sum(combo)), other)

    return DgCategory(DgRing.ground_field(field), ["*"], {("*", "*"): end},
                      {("*", "*", "*"): lay.map_from_entries(end, 0, entry)}, {"*": Mat.basis_column(field, 2, 0)})


def h0_categories(field):
    """Categories whose homs have differentials into and out of degree 0 and
    positive degrees, random ones with acyclic junk, and ones over a base
    whose H^0 acts."""
    rng = random.Random(53)
    loop, coboundary = differential_loop_category(field), coboundary_loop_category(field)
    disc = random_nonpositive_category(rng, field, n_objects=2, flavor="discrete")
    dual0, _ = make_dual_numbers(2, 0, field)
    ring, _ = make_dual_numbers(2, -1, field)
    return [loop, coboundary, tensor_cat(loop, disc), tensor_cat(coboundary, disc), disc,
            random_nonpositive_category(rng, field, n_objects=2, flavor="path"),
            free_arrow_category(dual0), exterior_one_object_category(dual0), exterior_one_object_category(ring)]


def degree0(n, field):
    return Complex(field, {0: n}, {})


def reference_h0_category(cat):
    """Composition and base action of H^0(cat) in degree 0: [g][f] = [g o f]
    and [r][f] = [r . f], one pair of classes at a time."""
    field = cat.field
    reports = {key: cx.cohomology() for key, cx in cat.homs.items()}
    h0 = {key: degree0(rep.dim(0), field) for key, rep in reports.items()}
    base = cat.base.underlying.cohomology()

    def composite(a, b, c):
        return lambda dg, g, df, f: reports[(a, c)].class_of(0, reference_pair(
            cat.comp[(a, b, c)], 0, reports[(b, c)].rep(0) @ g,
            0, reports[(a, b)].rep(0) @ f))

    def acted(key):
        return lambda dr, r, df, f: reports[key].class_of(0, reference_pair(
            cat.action[key], 0, base.rep(0) @ r, 0, reports[key].rep(0) @ f))

    comp = {(a, b, c): reference_map([h0[(b, c)], h0[(a, b)]], h0[(a, c)], composite(a, b, c))
            for a, b, c in itertools.product(cat.objects, repeat=3)}
    action = {key: reference_map([degree0(base.dim(0), field), h0[key]], h0[key], acted(key)) for key in h0}
    return comp, action


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_h0_categories_and_truncation_functors_match_the_class_loops(field):
    wide = 0
    for cat in h0_categories(field):
        h0cat, h0 = h0_as_degree0_category(cat)
        comp, action = reference_h0_category(cat)
        assert maps_of(h0cat.comp) == comp
        assert maps_of(h0cat.action) == action
        # the functor onto H^0: each degree-0 element of the truncation to its class
        _, incl, toh0 = truncate_cat(cat)
        assert maps_of(toh0.target.comp) == comp
        for key, report in h0.reports.items():
            inc = incl.hom_map(*key).component(0)
            cols = [report.class_of(0, inc.col(j)).column_values(0) for j in range(inc.cols)]
            expect = {0: Mat.from_columns(field, report.dim(0), cols)} if report.dim(0) and cols else {}
            assert toh0.hom_map(*key) == ChainMap(incl.source.hom(*key), h0cat.hom(*key), 0, expect)
            # representatives that are not the degree-0 basis vectors
            wide += report.rep(0) != Mat.identity(field, cat.hom(*key).dim(0))
    assert wide


def reference_heart_realization(x, b_r):
    """The degree-0 realization of H^0 of an (S, b)-bimodule x: [s][v] and
    [v][f] for s in S^0 and f in b^0, one pair at a time."""
    field = x.field
    reports = {b: x.at("*", b).cohomology() for b in b_r.objects}
    h0 = {b: degree0(rep.dim(0), field) for b, rep in reports.items()}
    ring_s = x.acat.hom("*", "*")

    def left(b):
        return lambda ds, s, dv, v: None if ds else reports[b].class_of(0, reference_pair(
            x.lact[("*", "*", b)], 0, s, 0, reports[b].rep(0) @ v))

    def right(b1, b2):
        return lambda dv, v, df, f: None if df else reports[b1].class_of(0, reference_pair(
            x.ract[("*", b1, b2)], 0, reports[b2].rep(0) @ v, 0, f))

    lact = {("*", "*", b): reference_map([ring_s, h0[b]], h0[b], left(b)) for b in b_r.objects}
    ract = {("*", b1, b2): reference_map([h0[b2], b_r.hom(b1, b2)], h0[b1], right(b1, b2))
            for b1, b2 in itertools.product(b_r.objects, repeat=2)}
    return lact, ract


def heart_instances(field):
    """(S, b)-bimodules with cohomology in degree 0: S = k[u]/u^2, |u| = 0,
    over itself and over the ground field, the cross representable of a
    category whose End^0 holds a coboundary, and the complex of
    ``cycle_instance`` (d into and out of degree 0) with scalar actions."""
    ring, _ = make_dual_numbers(2, 0, field)
    scat = one_object_category(ring)
    ground = one_object_category(DgRing.ground_field(field))

    def scalars(cx, slot):
        lay = TensorLayout([ground.hom("*", "*"), cx] if slot == 0 else [cx, ground.hom("*", "*")])
        return {("*", "*", "*"): lay.map_from_blocks(cx, 0, lambda combo: Mat.identity(field, cx.dim(sum(combo))))}

    s_over_k = Bimodule(scat, ground, {("*", "*"): ring.underlying}, {("*", "*", "*"): ring.product.map},
                        scalars(ring.underlying, 1))
    c = cycle_instance(field)
    c_over_k = Bimodule(ground, ground, {("*", "*"): c}, scalars(c, 0), scalars(c, 1))
    coboundary = coboundary_loop_category(field)
    return [(ring, ground, s_over_k), (ring, scat, Bimodule.diagonal(scat)), (ground.base, ground, c_over_k),
            (ground.base, coboundary, cross_representable_bimodule(ground, coboundary, "*", "*"))]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_heart_realizations_match_the_class_loops(field, monkeypatch):
    realized = []

    def recording(acat, bcat, comps, lact, ract, name="T", check=True):
        if name.startswith("H0("):
            realized.append((lact, ract))
        return Bimodule(acat, bcat, comps, lact, ract, name=name, check=check)

    monkeypatch.setattr(changeofrings, "Bimodule", recording)
    for ring, b_r, x in heart_instances(field):
        realized.clear()
        verdict = heart_coextension_check(b_r, DgRingMorphism.identity(ring), [x])
        assert verdict.heart_members == [0]
        assert verdict.realizations_quasi_iso.status == verdict.h0_data_s_linear.status == CERTIFIED
        assert realized == [reference_heart_realization(x, b_r)]


def reference_h0_relations(i_cat, a, b, step):
    """[s . theta(r)] (x) [f] - [s] (x) [r . f] over the H^0 bases, r outermost,
    the zero columns dropped."""
    ring, s_ring, field = step.source, step.target, step.source.field
    h0v, h0s, h0r = (cx.cohomology() for cx in (i_cat.hom(a, b), s_ring.underlying, ring.underlying))
    nv, ns, nr = h0v.dim(0), h0s.dim(0), h0r.dim(0)
    cols = []
    for ir in range(nr):
        rvec = h0r.rep(0).col(ir)
        for i_s in range(ns):
            s_r = h0s.class_of(0, ring_product(s_ring, 0, h0s.rep(0).col(i_s), 0, step.apply(0, rvec)))
            for iv in range(nv):
                rf = h0v.class_of(0, reference_pair(i_cat.action[(a, b)],
                                                    0, rvec, 0, h0v.rep(0).col(iv)))
                col = [0] * (ns * nv)
                for k, u in enumerate(s_r.column_values(0)):
                    col[k * nv + iv] += u
                for k, u in enumerate(rf.column_values(0)):
                    col[i_s * nv + k] -= u
                if not Mat.column(field, col).is_zero():
                    cols.append(col)
    return Mat.from_columns(field, ns * nv, cols) if cols else Mat.zero(field, ns * nv, 0)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_h0_comparison_relations_match_the_basis_loop(field):
    nontrivial = 0
    for n, deg in ((3, 0), (3, -2), (2, 0)):
        for step in factorize(make_dual_numbers(n, deg, field)[1]).steps:
            for i_cat in (free_arrow_category(step.source), exterior_one_object_category(step.source)):
                for a, b in itertools.product(i_cat.objects, repeat=2):
                    hs, hv = (h0_retract(cx.cohomology()) for cx in (step.target.underlying, i_cat.hom(a, b)))
                    rel = deform._h0_relations(step, i_cat.action[(a, b)], hs, hv)
                    ns, nv = hs.complex.dim(0), hv.complex.dim(0)
                    nr = rel.cols // (ns * nv) if ns * nv else 0
                    # columns (s, r, f) read in the loop's order (r, s, f), zero columns dropped
                    order = [(i_s * nr + ir) * nv + iv for ir in range(nr) for i_s in range(ns) for iv in range(nv)]
                    kept = [j for j in order if not rel.col(j).is_zero()]
                    assert rel.take_columns(kept) == reference_h0_relations(i_cat, a, b, step)
                    nontrivial += len(kept)
    assert nontrivial


def reference_table_product(field, degrees, mult_table, cx):
    """The product of ``DgRing.from_table``: basis elements i, j to
    mult_table(i, j), one pair at a time."""
    by_degree = {}
    for idx, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(idx)
    position = {idx: p for ix in by_degree.values() for p, idx in enumerate(ix)}

    def entry(combo, idx):
        col = [0] * cx.dim(sum(combo))
        for k, coeff in mult_table(by_degree[combo[0]][idx[0]], by_degree[combo[1]][idx[1]]).items():
            col[position[k]] += coeff
        return Mat.column(field, col)

    return TensorLayout([cx, cx]).map_from_entries(cx, 0, entry)


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_table_rings_match_the_pair_loop(field, monkeypatch):
    build = DgRing.from_table
    built = []

    def recording(fld, degrees, labels, unit_index, mult_table, differential=None, name="R"):
        ring = build(fld, degrees, labels, unit_index, mult_table, differential=differential, name=name)
        built.append((ring, degrees, mult_table))
        return ring

    monkeypatch.setattr(DgRing, "from_table", staticmethod(recording))
    for n, deg in ((2, -1), (3, 0), (4, -2)):
        exterior_extension_ring(make_dual_numbers(n, deg, field)[0])
    exterior_extension_ring(exterior_extension_ring(DgRing.ground_field(field)), gen_degree=-3)
    koszul_ring(field)
    assert len(built) >= 9
    for ring, degrees, mult_table in built:
        assert ring.product.map == reference_table_product(field, degrees, mult_table, ring.underlying)


def reference_discrete_composition(cat):
    """Identity slot 0 of End^0 composes as the unit; every other pair to 0."""
    field, homs = cat.field, cat.homs
    comp = {}
    for a, b, c in itertools.product(cat.objects, repeat=3):
        def entry(combo, idx, a=a, b=b, c=c):
            (dg, df), (i, j) = combo, idx
            tgt = homs[(a, c)]
            if b == c and dg == 0 and i == 0:
                return Mat.basis_column(field, tgt.dim(df), j)
            if a == b and df == 0 and j == 0:
                return Mat.basis_column(field, tgt.dim(dg), i)
            return None

        comp[(a, b, c)] = TensorLayout([homs[(b, c)], homs[(a, b)]]).map_from_entries(homs[(a, c)], 0, entry)
    return comp


def reference_path_composition(rng, field, n_objects, max_arrows, homs):
    """The composition of a path category, its arrows redrawn from ``rng`` in
    the generator's order: identities are units, two arrows make a path,
    longer paths vanish."""
    arrows = []
    for _ in range(rng.randint(1, max_arrows)):
        if n_objects < 2:
            break
        i = rng.randint(0, n_objects - 2)
        j = rng.randint(i + 1, n_objects - 1)
        arrows.append((i, j, -rng.randint(0, 2)))
    basis = {(a, a): [("id",)] for a in range(n_objects)}
    for idx, (i, j, _) in enumerate(arrows):
        basis.setdefault((i, j), []).append(("arr", idx))
    for i1, a1 in enumerate(arrows):
        for i2, a2 in enumerate(arrows):
            if a1[1] == a2[0]:
                basis.setdefault((a1[0], a2[1]), []).append(("path", i1, i2))

    def degree(e):
        if e[0] == "id":
            return 0
        if e[0] == "arr":
            return arrows[e[1]][2]
        return arrows[e[1]][2] + arrows[e[2]][2]

    slots = {}
    for key in itertools.product(range(n_objects), repeat=2):
        counts = {}
        slots[key] = {}
        for e in sorted(basis.get(key, []), key=lambda e: (degree(e), str(e))):
            slots[key][e] = (degree(e), counts.get(degree(e), 0))
            counts[degree(e)] = counts.get(degree(e), 0) + 1

    def elem_at(a, b, deg, pos):
        return next((e for e, slot in slots[(a, b)].items() if slot == (deg, pos)), None)

    objects = [f"X{i}" for i in range(n_objects)]
    comp = {}
    for a, b, c in itertools.product(range(n_objects), repeat=3):
        def entry(combo, idx, a=a, b=b, c=c):
            g, f = elem_at(b, c, combo[0], idx[0]), elem_at(a, b, combo[1], idx[1])
            e = f if g[0] == "id" else g if f[0] == "id" else ("path", f[1], g[1]) if g[0] == f[0] == "arr" else None
            if e not in slots[(a, c)]:
                return None
            d, pos = slots[(a, c)][e]
            return Mat.basis_column(field, homs[(objects[a], objects[c])].dim(d), pos)

        x, y, z = objects[a], objects[b], objects[c]
        comp[(x, y, z)] = TensorLayout([homs[(y, z)], homs[(x, y)]]).map_from_entries(homs[(x, z)], 0, entry)
    return comp


def reference_gap_composition(cat):
    """End(A) = <1, u> with u^2 = 0, f o u = 0, 1_B o f = f."""
    field, homs = cat.field, cat.homs
    comp = {}
    for a, b, c in itertools.product(cat.objects, repeat=3):
        def entry(combo, idx, a=a, b=b, c=c):
            i, j = idx
            if a == b == c == "A":
                return None if i and j else Mat.basis_column(field, 2, i + j)
            if (a, b, c) == ("A", "A", "B"):
                return Mat.basis_column(field, 1, 0) if i == j == 0 else None
            if (a, b, c) == ("A", "B", "B"):
                return Mat.basis_column(field, 1, 0) if i == 0 else None
            return Mat.basis_column(field, 1, 0) if a == b == c == "B" else None

        comp[(a, b, c)] = TensorLayout([homs[(b, c)], homs[(a, b)]]).map_from_entries(homs[(a, c)], 0, entry)
    return comp


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_table_categories_match_the_pair_loops(field):
    rng = random.Random(59)
    for n_objects in (1, 2, 3, 2, 3):
        cat = instances._discrete_draft(rng, field, n_objects, lo=-3, extra_pieces=2)[1]()
        assert maps_of(cat.comp) == reference_discrete_composition(cat)
        state = rng.getstate()
        cat = instances._path_draft(rng, field, n_objects, max_arrows=3)[1]()
        replay = random.Random()
        replay.setstate(state)
        assert maps_of(cat.comp) == reference_path_composition(replay, field, n_objects, 3, cat.homs)
        # the generators draw nothing while building their tables
        assert rng.getstate() == replay.getstate()
    gap = weak_cokernel_gap_category(field)
    assert maps_of(gap.comp) == reference_gap_composition(gap)


# -- opposites and tensor products of categories ---------------------------------------
#
# The references compose one pair of basis elements at a time and write each
# Koszul sign by hand: (-1)^{|g||f|} for the opposite, (-1)^{|g_y||f_x|} for
# the interchange of a tensor product.


def reference_opposite(cat, odd_terms):
    """Composition of op(cat): g (x) f |-> (-1)^{|g||f|} f o g on
    hom(c,b) (x) hom(b,a); counts the nonzero composites that carry a sign."""

    def composite(a, b, c):
        def image(dg, g, df, f):
            out = reference_pair(cat.comp[(c, b, a)], df, f, dg, g)
            if odd(dg * df):
                odd_terms.append(not out.is_zero())
                return -out
            return out
        return image

    return {(a, b, c): reference_map([cat.hom(c, b), cat.hom(b, a)], cat.hom(c, a), composite(a, b, c))
            for a, b, c in itertools.product(cat.objects, repeat=3)}


def coordinates(lay, n, vec):
    """(degree tuple, basis column per factor, coefficient) for each nonzero
    entry of vec in degree n of ``lay``."""
    field = lay.field
    for pos, v in enumerate(vec.column_values(0)):
        if v:
            combo, idx = lay.decompose(n, pos)
            yield combo, [Mat.basis_column(field, c.dim(d), i) for c, d, i in zip(lay.factors, combo, idx)], v


def tensor_vector(lay, combo, x, y):
    """x (x) y in degree sum(combo) of the layout, coefficient by coefficient."""
    field = lay.field
    col = [0] * lay.complex.dim(sum(combo))
    for i, xv in enumerate(x.column_values(0)):
        for j, yv in enumerate(y.column_values(0)):
            col[lay.position(combo, (i, j))] += xv * yv
    return Mat.column(field, col)


def reference_tensor_cat(x, y, odd_terms):
    """Identities 1_a (x) 1_u and composition
    (g_x (x) g_y) o (f_x (x) f_y) = (-1)^{|g_y||f_x|} (g_x o f_x) (x) (g_y o f_y)
    of x (x) y; counts the nonzero composites that carry a sign."""
    field = x.field
    objects = [(a, u) for a in x.objects for u in y.objects]
    lays = {((a, u), (b, v)): TensorLayout([x.hom(a, b), y.hom(u, v)])
            for (a, u), (b, v) in itertools.product(objects, repeat=2)}
    ids = {(a, u): tensor_vector(lays[((a, u), (a, u))], (0, 0), x.id_vector(a), y.id_vector(u))
           for a, u in objects}

    def composite(a, u, b, v, c, w):
        src_g, src_f, tgt = lays[((b, v), (c, w))], lays[((a, u), (b, v))], lays[((a, u), (c, w))]

        def image(n, gvec, m, fvec):
            out = Mat.zero(field, tgt.complex.dim(n + m), 1)
            for (p, q), (gx, gy), cg in coordinates(src_g, n, gvec):
                for (r, s), (fx, fy), cf in coordinates(src_f, m, fvec):
                    xx = reference_pair(x.comp[(a, b, c)], p, gx, r, fx)
                    yy = reference_pair(y.comp[(u, v, w)], q, gy, s, fy)
                    if xx.is_zero() or yy.is_zero():
                        continue
                    term = tensor_vector(tgt, (p + r, q + s), xx, yy).scale(cg * cf)
                    if odd(q * r):
                        odd_terms.append(True)
                        term = -term
                    out = out + term
            return out
        return image

    comp = {((a, u), (b, v), (c, w)): reference_map(
        [lays[((b, v), (c, w))].complex, lays[((a, u), (b, v))].complex], lays[((a, u), (c, w))].complex,
        composite(a, u, b, v, c, w))
        for (a, u), (b, v), (c, w) in itertools.product(objects, repeat=3)}
    return ids, comp


def odd_categories(field):
    """Lambda(f) with |f| = -1 and -3 over k, the free arrow over k, and
    random path categories (arrows in degrees 0 to -2)."""
    rng = random.Random(61)
    k = DgRing.ground_field(field)
    lam1, lam3 = exterior_one_object_category(k, -1), exterior_one_object_category(k, -3)
    paths = [random_nonpositive_category(rng, field, n_objects=3, flavor="path") for _ in range(3)]
    return lam1, lam3, free_arrow_category(k), paths


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F7"])
def test_opposites_and_tensor_products_match_the_signed_basis_loops(field):
    lam1, lam3, arrow, paths = odd_categories(field)
    small = random_nonpositive_category(random.Random(67), field, n_objects=2, flavor="path")
    odd_terms = []
    for x, y in ((lam1, lam1), (lam1, lam3), (lam3, lam1), (arrow, lam1), (lam1, small), (small, lam3)):
        prod = tensor_cat(x, y)
        ids, comp = reference_tensor_cat(x, y, odd_terms)
        assert prod.ids == ids
        assert maps_of(prod.comp) == comp
    # the interchange sign meets nonzero composites, such as (1 (x) f) o (f (x) 1)
    assert any(odd_terms)
    odd_terms = []
    for cat in [lam1, lam3, arrow, *paths, tensor_cat(lam1, lam3)]:
        op = opposite(cat)
        assert op.ids == cat.ids
        assert maps_of(op.comp) == reference_opposite(cat, odd_terms)
    # the swap sign meets nonzero composites of two odd morphisms
    assert any(odd_terms)
