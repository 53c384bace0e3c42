"""Deterministic generators for random and structured instances.

Random complexes are assembled from elementary summands (a one-dimensional
space in a single degree, or a two-term identity complex) followed by a
random change of basis per degree; this keeps d*d = 0 automatic while the
matrices look generic, and the cohomology is known by construction.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Tuple

from .complexes import (
    ChainMap,
    Complex,
    TensorLayout,
    balanced_tensor,
    lifted_map,
    swapped,
    through,
)
from .fields import Field
from .matrix import Mat, extend_columns_to_basis, invert, kron


def random_scalar(rng: random.Random, field: Field, span: int = 4):
    return field.from_int(rng.randint(-span, span))


def random_invertible(rng: random.Random, field: Field, n: int) -> Mat:
    while True:
        m = Mat(field, n, n, [[random_scalar(rng, field, 3) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def random_complex(rng: random.Random, field: Field,
                   lo: int = -4, hi: int = 2, pieces: int = 5,
                   acyclic_bias: float = 0.5) -> Tuple[Complex, Dict[int, int]]:
    """Random complex with dense-looking differentials and known cohomology.

    Returns (complex, expected cohomology dims by degree).
    """
    dims: Dict[int, int] = {}
    ones: List[Tuple[int, int, int]] = []  # (deg, src_slot, tgt_slot) identity blocks
    hdims: Dict[int, int] = {}
    for _ in range(pieces):
        deg = rng.randint(lo, hi)
        slot = dims.get(deg, 0)
        dims[deg] = slot + 1
        if rng.random() < acyclic_bias and deg < hi:
            tgt = dims.get(deg + 1, 0)
            dims[deg + 1] = tgt + 1
            ones.append((deg, slot, tgt))
        else:
            hdims[deg] = hdims.get(deg, 0) + 1
    grids: Dict[int, List[List]] = {}
    for deg, slot, tgt in ones:
        grid = grids.get(deg)
        if grid is None:
            grid = [[0] * dims[deg] for _ in range(dims[deg + 1])]
            grids[deg] = grid
        grid[tgt][slot] = 1
    diffs = {d: Mat(field, dims[d + 1], dims[d], g) for d, g in grids.items()}
    basis = {d: random_invertible(rng, field, n) for d, n in dims.items()}
    conj = {}
    for d, mat in diffs.items():
        conj[d] = basis[d + 1] @ mat @ invert(basis[d])
    twisted = Complex(field, dims, conj)
    return twisted, {d: v for d, v in hdims.items() if v}


def random_cocycle(rng: random.Random, cx: Complex, degree: int) -> Optional[Mat]:
    ker = cx.diff(degree).kernel_basis()
    if ker.cols == 0:
        return None
    combo = Mat.column(cx.field, [random_scalar(rng, cx.field, 2) for _ in range(ker.cols)])
    v = ker @ combo
    if v.is_zero():
        v = ker.col(0)
    return v


# -- categories -----------------------------------------------------------------


def _discrete_draft(rng: random.Random, field: Field, n_objects: int,
                    lo: int, extra_pieces: int):
    """Identities plus square-zero junk: nonzero differentials, all other
    compositions vanish.  Valid for any random hom complexes.  Returns the
    drawn hom complexes and a function building the category on them, which
    draws nothing."""
    from .dgcat import DgCategory
    from .dgring import DgRing

    objects = [f"X{i}" for i in range(n_objects)]
    homs = {}
    for a in objects:
        for b in objects:
            if a == b:
                junk, _ = random_complex(rng, field, lo=lo, hi=0,
                                         pieces=rng.randint(0, extra_pieces), acyclic_bias=0.6)
                dims = {0: 1}
                for d, v in junk.spaces.dims.items():
                    dims[d] = dims.get(d, 0) + v
                diffs = {}
                for d in junk.degrees():
                    mat = junk.diff(d)
                    if mat.is_zero():
                        continue
                    rows = dims.get(d + 1, 0)
                    cols = dims[d]
                    grid = [[0] * cols for _ in range(rows)]
                    roff = 1 if d + 1 == 0 else 0
                    coff = 1 if d == 0 else 0
                    for i in range(mat.rows):
                        for j in range(mat.cols):
                            grid[i + roff][j + coff] = mat.entries[i][j]
                    diffs[d] = Mat(field, rows, cols, grid)
                homs[(a, b)] = Complex(field, dims, diffs, name=f"End({a})")
            else:
                cx, _ = random_complex(rng, field, lo=lo, hi=0,
                                       pieces=rng.randint(0, extra_pieces), acyclic_bias=0.5)
                homs[(a, b)] = cx
    ids = {a: Mat.basis_column(field, homs[(a, a)].dim(0), 0) for a in objects}

    def block(a, b, c, combo):
        # the identity, slot 0 of End^0, composes as the unit; all else is 0
        dg, df = combo
        left, right = b == c and dg == 0, a == b and df == 0
        if not (left or right):
            return None
        ng, nf = homs[(b, c)].dim(dg), homs[(a, b)].dim(df)
        grid = [[0] * (ng * nf) for _ in range(homs[(a, c)].dim(dg + df))]
        if left:
            for j in range(nf):
                grid[j][j] = 1
        if right:
            for i in range(ng):
                grid[i][i * nf] = 1
        return Mat(field, len(grid), ng * nf, grid)

    def build():
        comp = {}
        for a, b, c in itertools.product(objects, repeat=3):
            lay = TensorLayout([homs[(b, c)], homs[(a, b)]])
            comp[(a, b, c)] = lay.map_from_blocks(homs[(a, c)], 0, lambda combo, key=(a, b, c): block(*key, combo))
        return DgCategory(DgRing.ground_field(field), objects, homs, comp, ids, name="discrete")
    return homs, build


def _path_draft(rng: random.Random, field: Field, n_objects: int, max_arrows: int):
    """Free paths of length <= 2 on an acyclic quiver with arrows in degrees
    <= 0; zero differential, genuinely nonzero compositions.  Returns the
    hom complexes and a builder, as ``_discrete_draft``."""
    from .dgcat import DgCategory
    from .dgring import DgRing

    objects = [f"X{i}" for i in range(n_objects)]
    arrows = []  # (src_index, tgt_index, degree)
    for _ in range(rng.randint(1, max_arrows)):
        if n_objects < 2:
            break
        i = rng.randint(0, n_objects - 2)
        j = rng.randint(i + 1, n_objects - 1)
        arrows.append((i, j, -rng.randint(0, 2)))
    paths = []  # (first_arrow_index, second_arrow_index) composable pairs
    for i1, a1 in enumerate(arrows):
        for i2, a2 in enumerate(arrows):
            if a1[1] == a2[0]:
                paths.append((i1, i2))
    # hom bases: identity slot for End, arrows and length-2 paths by (src,tgt)
    basis: dict = {}
    for a in range(n_objects):
        basis[(a, a)] = [("id",)]
    for idx, (i, j, d) in enumerate(arrows):
        basis.setdefault((i, j), []).append(("arr", idx))
    for (i1, i2) in paths:
        s = arrows[i1][0]
        t = arrows[i2][1]
        basis.setdefault((s, t), []).append(("path", i1, i2))

    def elem_degree(elem):
        if elem[0] == "id":
            return 0
        if elem[0] == "arr":
            return arrows[elem[1]][2]
        return arrows[elem[1]][2] + arrows[elem[2]][2]

    homs = {}
    slots = {}
    for a in range(n_objects):
        for b in range(n_objects):
            elems = basis.get((a, b), [])
            dims = {}
            slot = {}
            for e in sorted(elems, key=lambda e: (elem_degree(e), str(e))):
                d = elem_degree(e)
                slot[e] = (d, dims.get(d, 0))
                dims[d] = dims.get(d, 0) + 1
            homs[(objects[a], objects[b])] = Complex(field, dims, {},
                                                     name=f"hom({a},{b})")
            slots[(a, b)] = slot

    # per hom, its basis elements of each degree in slot order
    by_degree = {key: {} for key in slots}
    for key, slot in slots.items():
        for e, (d, _) in sorted(slot.items(), key=lambda item: item[1]):
            by_degree[key].setdefault(d, []).append(e)

    def product(g, f):
        """g o f: identities are units, two arrows make a path, longer paths vanish."""
        if g[0] == "id":
            return f
        if f[0] == "id":
            return g
        return ("path", f[1], g[1]) if g[0] == f[0] == "arr" else None

    def block(a, b, c, combo):
        pairs = list(itertools.product(by_degree[(b, c)].get(combo[0], []), by_degree[(a, b)].get(combo[1], [])))
        grid = [[0] * len(pairs) for _ in range(homs[(objects[a], objects[c])].dim(sum(combo)))]
        for col, (g, f) in enumerate(pairs):
            slot = slots[(a, c)].get(product(g, f))
            if slot is not None:
                grid[slot[1]][col] = 1
        return Mat(field, len(grid), len(pairs), grid)

    ids = {objects[a]: Mat.basis_column(field, homs[(objects[a], objects[a])].dim(0), slots[(a, a)][("id",)][1])
           for a in range(n_objects)}

    def build():
        comp = {}
        for a, b, c in itertools.product(range(n_objects), repeat=3):
            x, y, z = objects[a], objects[b], objects[c]
            lay = TensorLayout([homs[(y, z)], homs[(x, y)]])
            comp[(x, y, z)] = lay.map_from_blocks(homs[(x, z)], 0, lambda combo, key=(a, b, c): block(*key, combo))
        return DgCategory(DgRing.ground_field(field), objects, homs, comp, ids, name="path")
    return homs, build


def _nonpositive_draft(rng: random.Random, field: Field, n_objects: int, flavor: Optional[str]):
    """The draws of ``random_nonpositive_category``: its hom complexes and builder."""
    kind = flavor or rng.choice(["discrete", "path", "path"])
    if kind == "discrete" or n_objects == 1:
        return _discrete_draft(rng, field, n_objects, lo=-3, extra_pieces=2)
    return _path_draft(rng, field, n_objects, max_arrows=3)


def random_nonpositive_category(rng: random.Random, field: Field,
                                n_objects: int = 2, flavor: Optional[str] = None):
    """Random valid dg-category over the ground field, strictly nonpositive."""
    return _nonpositive_draft(rng, field, n_objects, flavor)[1]()


# -- modules and bimodules --------------------------------------------------------


def unit_functional(cat, a) -> Mat:
    """Row vector on End(a)^0 sending the identity to 1 and the unit vectors
    completing it to a basis to 0: the top row of the inverse of that basis."""
    return extend_columns_to_basis(cat.id_vector(a))[1].take_rows([0])


def trivial_action_module(rng: random.Random, cat):
    """Random complexes with the identity-character action; valid over the
    generated discrete/path categories (all non-identity products vanish or
    act by zero)."""
    from .bimodules import Module
    field = cat.field
    comps = {a: random_complex(rng, field, lo=-3, hi=0, pieces=rng.randint(1, 2))[0]
             for a in cat.objects}
    lams = {a: unit_functional(cat, a) for a in cat.objects}

    def by_character(x, y):
        # m . f = lambda_x(f) m for f in End(x)^0, zero elsewhere: kron(1, lambda_x)
        return lambda combo: (kron(Mat.identity(field, comps[x].dim(combo[0])), lams[x])
                              if x == y and combo[1] == 0 else None)

    action = {(x, y): TensorLayout([comps[y], cat.hom(x, y)]).map_from_blocks(comps[x], 0, by_character(x, y))
              for x, y in itertools.product(cat.objects, repeat=2)}
    return Module(cat, comps, action, name="triv")


def random_module(rng: random.Random, cat, allow_cone: bool = True):
    """Sums of shifted representables and trivial-action pieces, optionally
    twisted by a cone of a random module map."""
    from .bimodules import (Module, cone_module, direct_sum_modules,
                            module_hom_complex, shift_module)
    choices = []
    n = rng.randint(1, 2)
    for _ in range(n):
        kind = rng.random()
        if kind < 0.6:
            a = rng.choice(cat.objects)
            shift = rng.randint(-1, 1)
            m = Module.representable(cat, a)
            if shift:
                m = shift_module(m, shift)
            choices.append(m)
        else:
            choices.append(trivial_action_module(rng, cat))
    total = choices[0] if len(choices) == 1 else direct_sum_modules(choices)[0]
    if allow_cone and rng.random() < 0.4:
        other = Module.representable(cat, rng.choice(cat.objects))
        mhc = module_hom_complex(other, total)
        v = random_cocycle(rng, mhc.complex, 0)
        if v is not None:
            phi = mhc.module_map_from_cocycle(0, v)
            total = cone_module(phi)[0]
    return total


def outer_representable_bimodule(cat, x, y, name=None):
    """T(A, B) = hom(B, x) (x) hom(y, A) with composition actions."""
    from .bimodules import tensor_bimodule
    lays = {(a, b): TensorLayout([cat.hom(b, x), cat.hom(y, a)]) for a in cat.objects for b in cat.objects}
    return tensor_bimodule(cat, cat, lays, lambda a1, a2: cat.comp[(y, a1, a2)], 1,
                           lambda b1, b2: cat.comp[(b1, b2, x)], 0,
                           name=name or f"h^{x}(x)h_{y}")


def _trivial_actions_bimodule(cat, comps, name):
    """Identity-character actions on both sides: only the degree-0 part of
    End(a) acts, each component by the unit functional of a times 1."""
    from .bimodules import Bimodule
    field = cat.field
    lams = {a: unit_functional(cat, a) for a in cat.objects}

    def by_character(a1, a2, lay, slot):
        def block(combo):
            dh, dx = combo[slot], combo[1 - slot]
            if a1 != a2 or dh != 0:
                return None
            eye = Mat.identity(field, lay.factors[1 - slot].dim(dx))
            return kron(lams[a1], eye) if slot == 0 else kron(eye, lams[a1])
        return block

    lact = {}
    for a1, a2, b in itertools.product(cat.objects, repeat=3):
        lay = TensorLayout([cat.hom(a1, a2), comps[(a1, b)]])
        lact[(a1, a2, b)] = lay.map_from_blocks(comps[(a2, b)], 0, by_character(a1, a2, lay, 0))
    ract = {}
    for a, b1, b2 in itertools.product(cat.objects, repeat=3):
        lay = TensorLayout([comps[(a, b2)], cat.hom(b1, b2)])
        ract[(a, b1, b2)] = lay.map_from_blocks(comps[(a, b1)], 0, by_character(b1, b2, lay, 1))
    return Bimodule(cat, cat, comps, lact, ract, name=name)


def trivial_action_bimodule(rng: random.Random, cat, pieces: int = 2):
    """Random components, identity-character actions on both sides."""
    comps = {(a, b): random_complex(rng, cat.field, lo=-2, hi=0,
                                    pieces=rng.randint(0, pieces))[0]
             for a in cat.objects for b in cat.objects}
    return _trivial_actions_bimodule(cat, comps, "trivT")


def random_square_bimodule(rng: random.Random, cat):
    from .bimodules import Bimodule
    roll = rng.random()
    if roll < 0.35:
        return Bimodule.diagonal(cat)
    if roll < 0.7:
        x = rng.choice(cat.objects)
        y = rng.choice(cat.objects)
        return outer_representable_bimodule(cat, x, y)
    return trivial_action_bimodule(rng, cat)


# -- deformation pipeline instances -------------------------------------------------


def free_arrow_category(ring, name: str = "freearrow"):
    """Two objects with End = R and one free rank-one arrow X -> Y."""
    from .dgcat import DgCategory
    field = ring.field
    objs = ["X", "Y"]
    homs = {("X", "X"): ring.underlying, ("Y", "Y"): ring.underlying,
            ("X", "Y"): ring.underlying, ("Y", "X"): Complex.zero(field)}
    ids = {"X": ring.unit, "Y": ring.unit}
    # composition and action are the ring product
    mult = ring.product.block
    comp = {(a, b, c): TensorLayout([homs[(b, c)], homs[(a, b)]]).map_from_blocks(homs[(a, c)], 0, mult)
            for a, b, c in itertools.product(objs, repeat=3)}
    action = {(a, b): TensorLayout([ring.underlying, homs[(a, b)]]).map_from_blocks(homs[(a, b)], 0, mult)
              for a, b in itertools.product(objs, repeat=2)}
    return DgCategory(ring, objs, homs, comp, ids, action=action, name=name)


def exterior_extension_ring(ring, gen_degree: int = -1):
    """R (x) Lambda(f) with an odd generator: End = R + R.f, f^2 = 0."""
    from .dgring import DgRing
    from .errors import ValidationError
    field = ring.field
    if gen_degree % 2 == 0 and field.char != 2:
        raise ValidationError("the exterior generator must have odd degree")
    base = list(ring.basis())
    degrees = []
    labels = []
    flat = []
    for deg, i in base:
        degrees.append(deg)
        labels.append(f"r{deg}_{i}")
        flat.append((deg, i, 0))
    for deg, i in base:
        degrees.append(deg + gen_degree)
        labels.append(f"r{deg}_{i}f")
        flat.append((deg, i, 1))
    index = {t: k for k, t in enumerate(flat)}

    def mult(iidx, jidx):
        d1, i1, f1 = flat[iidx]
        d2, i2, f2 = flat[jidx]
        if f1 and f2:
            return {}
        prod = ring.mul_basis(d1, i1, d2, i2)
        sign = 1
        if f1 and not f2:
            # (r1 f)(r2) = (-1)^{|r2|} r1 r2 f
            sign = -1 if d2 % 2 else 1
        out = {}
        dsum = d1 + d2
        for k, v in enumerate(prod.column_values(0)):
            if v:
                out[index[(dsum, k, 1 if (f1 or f2) else 0)]] = sign * v
        return out

    unit_index = None
    for k, (deg, i, fpart) in enumerate(flat):
        if deg == 0 and fpart == 0 and ring.unit.entries[i][0]:
            unit_index = k
            break
    return DgRing.from_table(field, degrees, labels, unit_index, mult,
                             name=f"{ring.name}[f]")


def weak_cokernel_gap_category(field):
    """Two objects; End(A) = k.1 + k.u with u^2 = 0, one arrow f: A -> B with
    f o u = 0, and nothing from B back; the loop u has no weak cokernel."""
    from .dgcat import DgCategory
    from .dgring import DgRing
    from .complexes import Complex, TensorLayout
    base = DgRing.ground_field(field)
    objs = ["A", "B"]
    end_a = Complex(field, {0: 2}, {}, labels={0: ("1", "u")}, name="End(A)")
    end_b = Complex(field, {0: 1}, {}, labels={0: ("1",)}, name="End(B)")
    arrow = Complex(field, {0: 1}, {}, labels={0: ("f",)}, name="hom(A,B)")
    homs = {("A", "A"): end_a, ("B", "B"): end_b,
            ("A", "B"): arrow, ("B", "A"): Complex.zero(field)}
    ids = {"A": Mat.basis_column(field, 2, 0), "B": Mat.basis_column(field, 1, 0)}

    # the one block (0, 0) of each nonzero composition, columns g (x) f row-major:
    # 1.1 = 1, 1.u = u.1 = u, u.u = 0; f o 1 = f, f o u = 0; 1_B o f = f; 1_B o 1_B = 1_B
    table = {("A", "A", "A"): [[1, 0, 0, 0], [0, 1, 1, 0]], ("A", "A", "B"): [[1, 0]],
             ("A", "B", "B"): [[1]], ("B", "B", "B"): [[1]]}
    comp = {}
    for a, b, c in itertools.product(objs, repeat=3):
        rows = table.get((a, b, c))
        lay = TensorLayout([homs[(b, c)], homs[(a, b)]])
        comp[(a, b, c)] = lay.map_from_blocks(homs[(a, c)], 0, lambda combo, rows=rows: (
            None if rows is None else Mat(field, len(rows), len(rows[0]), rows)))
    return DgCategory(base, objs, homs, comp, ids, name="gap")


# -- generators for the acceptance suite ----------------------------------------------


def small_random_category(rng: random.Random, field: Field, n_objects: int,
                          max_total_hom: int = 12):
    """Random nonpositive category with total hom dimension capped: the cap is
    tested on each draw's hom complexes, and only the accepted draw is built."""
    for _ in range(50):
        homs, build = _nonpositive_draft(rng, field, n_objects, None)
        if sum(cx.total_dim() for cx in homs.values()) <= max_total_hom:
            return build()
    return random_nonpositive_category(rng, field, n_objects=1, flavor="discrete")


def cross_representable_bimodule(acat, bcat, a0, b0, name=None):
    """T(A, B) = acat(a0, A) (x) bcat(B, b0): covariant below through
    postcomposition, contravariant above through precomposition."""
    lays = {(a, b): TensorLayout([acat.hom(a0, a), bcat.hom(b, b0)])
            for a in acat.objects for b in bcat.objects}
    return _cross_bimodule(acat, bcat, a0, b0, lays, name or f"h^{a0}xh_{b0}")


def _cross_bimodule(acat, bcat, a0, b0, parts, name):
    """acat acts on the acat(a0, A) factor by postcomposition, bcat on the
    bcat(B, b0) factor by precomposition; h composes into the outer factor
    on each side, so no Koszul crossing arises."""
    from .bimodules import tensor_bimodule
    return tensor_bimodule(acat, bcat, parts, lambda a1, a2: acat.comp[(a0, a1, a2)], 0,
                           lambda b1, b2: bcat.comp[(b1, b2, b0)], 1, name=name)


def random_acyclic_complex(rng: random.Random, field: Field, pieces: int = 2) -> Complex:
    """Direct sum of two-term identity complexes in degrees -2..0, conjugated;
    always acyclic."""
    dims: Dict[int, int] = {}
    ones = []
    for _ in range(pieces):
        deg = rng.randint(-2, -1)
        slot = dims.get(deg, 0)
        dims[deg] = slot + 1
        tgt = dims.get(deg + 1, 0)
        dims[deg + 1] = tgt + 1
        ones.append((deg, slot, tgt))
    grids = {deg: [[0] * dims[deg] for _ in range(dims[deg + 1])]
             for deg in {one[0] for one in ones}}
    for deg, slot, tgt in ones:
        grids[deg][tgt][slot] = 1
    diffs = {d: Mat(field, dims[d + 1], dims[d], g) for d, g in grids.items()}
    basis = {d: random_invertible(rng, field, n) for d, n in dims.items()}
    conj = {}
    for d, mat in diffs.items():
        conj[d] = basis[d + 1] @ mat @ invert(basis[d])
    return Complex(field, dims, conj)


def acyclic_trivial_bimodule(rng: random.Random, cat):
    """Trivial-action bimodule whose components are acyclic complexes."""
    comps = {}
    for a in cat.objects:
        for b in cat.objects:
            comps[(a, b)] = random_acyclic_complex(rng, cat.field, pieces=rng.randint(1, 2))
    return _trivial_actions_bimodule(cat, comps, "acyc")


def random_ring_module(rng: random.Random, theta, max_summands: int = 2, allow_cone: bool = True):
    """Random one-object module over theta.source with nonpositive cohomology:
    sums of shifted frees and restricted ground pieces, optionally coned."""
    from .bimodules import direct_sum_modules, module_hom_complex, cone_module, shift_module
    from .derived import restricted_ground_module, ring_as_module
    from .dgcat import one_object_category
    ring = theta.source
    cat = one_object_category(ring)
    parts = []
    for _ in range(rng.randint(1, max_summands)):
        shift = rng.randint(0, 2)
        base = ring_as_module(ring, cat) if rng.random() < 0.6 else \
            restricted_ground_module(theta, cat)
        parts.append(shift_module(base, shift) if shift else base)
    total = parts[0] if len(parts) == 1 else direct_sum_modules(parts)[0]
    if allow_cone and rng.random() < 0.5:
        probe = ring_as_module(ring, cat)
        mhc = module_hom_complex(probe, total)
        v = random_cocycle(rng, mhc.complex, 0)
        if v is not None:
            total = cone_module(mhc.module_map_from_cocycle(0, v))[0]
    return total


def random_h0_surjective_map(rng: random.Random, theta):
    """A module map V -> V' over theta.source with surjective H^0, as
    (V, V', ModuleMap): a projection off a direct summand."""
    from .bimodules import direct_sum_modules
    target = random_ring_module(rng, theta, allow_cone=False)
    extra = random_ring_module(rng, theta, max_summands=1, allow_cone=False)
    total, injs, projs = direct_sum_modules([target, extra])
    return total, target, projs[0]


def balanced_cross_bimodule(a_cat, b_r, a0, b0):
    """T(A, B) = a(a0, A) (x)_R b(B, b0): the R-balanced cross representable,
    a genuine object of the R-linear bimodule category (both R-actions agree
    through the balancing)."""
    parts = {(a, b): balanced_tensor(swapped(a_cat.action[(a0, a)]),
                                     b_r.action[(b, b0)], name=f"bal({a},{b})")
             for a in a_cat.objects for b in b_r.objects}
    return _cross_bimodule(a_cat, b_r, a0, b0, parts, f"h^{a0}(x)Rh_{b0}")


def exterior_one_object_category(ring, gen_degree: int = -1):
    """One object with End = R (+) R.f viewed as an R-linear category; the
    third bundled deformation instance."""
    from .dgcat import DgCategory
    ext_ring = exterior_extension_ring(ring, gen_degree)
    cx = ext_ring.underlying
    comp = {("*", "*", "*"): ext_ring.product.map}
    labels = cx.spaces.labels
    # R acts through its embedding r |-> r (x) 1 into R[f]
    embed = ChainMap(ring.underlying, cx, 0, {
        deg: Mat.identity(ring.field, cx.dim(deg)).take_columns([labels[deg].index(f"r{deg}_{i}")
                                                                 for i in range(ring.dim(deg))])
        for deg in ring.degrees()})
    action = {("*", "*"): lifted_map([through(embed), cx], cx, [ext_ring.product.block])}
    return DgCategory(ring, ["*"], {("*", "*"): cx}, comp,
                      {"*": ext_ring.unit}, action=action, name=f"{ring.name}[f]")
