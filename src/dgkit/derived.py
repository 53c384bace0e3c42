"""Windowed free resolutions, derived tensor and Hom, and the natural
t-structure on modules over nonpositive dg-categories.

Resolutions are built top-down by repeatedly attaching free covers that kill
the top cohomology of the comparison cone, one generator for each top class
that the boundaries and the degree-0 multiples of the classes picked before it
leave alive (one per degree for k over k[e]/e^n, |e| = 0).  Over a strictly
nonpositive base each round only disturbs strictly lower degrees, so
acyclicity of the cone in all degrees >= floor is reached in finitely many
rounds and is *verified* on the full cohomology of the finished cones, never
assumed.  Each round grows one cone per object in place, read from the last
attachment degree down, and the finished cones are the ones checked as
complexes; P, its action and the comparison P -> M are built only when read.
Derived functors return cohomology on the certified window, read at P's
generators: RHom(M, N) is Hom(P, N), the sum of the N(x_g)[n_g] (Yoneda), and
M (x)^L N is P (x)_R N, the sum of the N[-n_g] (co-Yoneda,
h_x (x)_R N = N(x)), each twisted by the action of P's twist elements on N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .bimodules import Module, ModuleMap, module_on
from .complexes import (
    BalancedTensor,
    ChainMap,
    CohomologyReport,
    Complex,
    balanced_tensor,
    block_sum,
    cohomology_at,
    cone_complex,
    lifted_map,
    quotient_retract,
    shift_complex,
    sub_retract,
    swapped,
    through,
    truncate_le,
    truncation_quotient,
    twisted_sum,
)
from .dgcat import DgCategory, one_object_category
from .dgring import DgRing, DgRingMorphism
from .errors import ValidationError, WindowCertificationError
from .matrix import Mat, block_matrix, concat_columns


@dataclass(frozen=True)
class DegreeWindow:
    """Degrees [lo, hi] in which a derived computation is certified; guard is
    the extra margin of resolution depth below the window."""

    lo: int
    hi: int
    guard: int = 2

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"window lo {self.lo} exceeds hi {self.hi}")
        if self.guard < 0:
            raise ValidationError("window guard must be nonnegative")

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def as_dict(self):
        return {"lo": self.lo, "hi": self.hi, "guard": self.guard}


@dataclass
class WindowedResolution:
    """Semifree approximation P -> M, exact on cone degrees >= floor: P is
    the one-sided twisted complex of the h_{x_g}[-n_g] over ``generators``
    (x_g, n_g), d(1_{x_g}) = -sum_i p_{g,i}, with ``twists[(g, i)]`` the
    nonzero p_{g,i} in hom(x_g, x_i) of degree n_g + 1 - n_i, i < g."""

    target: Module
    generators: List[Tuple[object, int]]
    twists: Dict[Tuple[int, int], Mat]
    floor: int
    cone_cohomology: Dict
    blocks: Dict = dc_field(repr=False)
    _built: Optional[Tuple[Module, ModuleMap]] = dc_field(default=None, init=False, repr=False)

    module = property(lambda self: self._build()[0], doc="P, built from the cones' ``blocks`` when first read.")
    comparison = property(lambda self: self._build()[1], doc="The comparison P -> M, built with P.")

    def _build(self) -> Tuple[Module, ModuleMap]:
        """P and f: P -> M, off the cone's blocks (row 0 is M, row i + 1 generator i)."""
        if self._built is None:
            m, cat, gens, parts, f = self.target, self.target.cat, self.generators, {}, {}
            for z, blocks in (self.blocks.items() if gens else ()):
                plains = [(cat.hom(z, x), -n) for x, n in gens]
                parts[z] = twisted_sum(plains, lambda d: {(r - 1, c - 1): -fam[d - n] for (r, c), (fam, n)
                                                          in blocks.items() if r and d - n in fam}, name=f"P({z})")
                f[z] = ChainMap(parts[z].complex, m.at(z), 0, {
                    d: block_matrix(cat.field, [m.at(z).dim(d)], [plain.dim(d + shift) for plain, shift in plains],
                                    {(0, c - 1): fam[d - n] for (r, c), (fam, n) in blocks.items()
                                     if not r and d - n in fam})
                    for d in parts[z].complex.degrees()})
            reps = {x: Module.representable(cat, x) for x in {x for x, _ in gens}}
            P = module_on(cat, parts, [reps[x] for x, _ in gens], name="P") if gens else Module.zero(cat)
            self._built = P, ModuleMap(P, m, 0, f)
        return self._built

    def hom_into(self, u: Module) -> Complex:
        """Hom(P, u) evaluated at the generators (Yoneda): phi of degree m
        is ((-1)^{m n_g} phi(1_{x_g}))_g in the sum of u(x_g)[n_g], twisted
        from slot i to slot g by v |-> (-1)^{(m + 1) n_g + m (n_i + 1)} v . p_{g,i}."""
        gens = self.generators
        if not gens:
            return Complex.zero(u.field)
        acts = {(g, i): (u.act[(gens[g][0], gens[i][0])].at(1, gens[g][1] + 1 - gens[i][1], p), gens[g][1], gens[i][1])
                for (g, i), p in self.twists.items()}

        def twist(m):
            return {(g, i): -fam[m + n_i] if ((m + 1) * n_g + m * (n_i + 1)) % 2 else fam[m + n_i]
                    for (g, i), (fam, n_g, n_i) in acts.items() if m + n_i in fam}

        return block_sum([(u.at(x), n) for x, n in gens], twist, name=f"Hom(P,{u.name})")

    def hom_postcompose(self, phi: ModuleMap) -> ChainMap:
        """Hom(P, phi) for a degree-0 module map, Hom(P, source) -> Hom(P,
        target) in the form of ``hom_into``: phi at x_g on slot g."""
        return _slotwise(self.hom_into, phi, self.generators)

    def tensor_with(self, n: Module) -> Complex:
        """P (x)_R n over a ring, read at the generators (co-Yoneda): (1_{x_g}.r)
        (x) v is r.v in slot g of the sum of n[-n_g], twisted from slot g to i by
        v |-> -p_{g,i}.v, p.v = (-1)^{|p||v|} v.p as in ``balanced_tensor_ring``.
        Over a graded-commutative ring n (x)_R P is this complex (Koszul swap)."""
        if _ring_of(self.target) != _ring_of(n):
            raise ValidationError("tensor factors live over different rings")
        gens, obj = self.generators, n.cat.objects[0]
        if not gens:
            return Complex.zero(n.field)
        act = n.act[(obj, obj)]
        acts = {(g, i): (act.at(1, gens[g][1] + 1 - gens[i][1], p), gens[g][1] + 1 - gens[i][1], gens[g][1])
                for (g, i), p in self.twists.items()}

        def twist(d):
            # v sits in degree d - n_g of n
            return {(i, g): fam[d - n_g] if dp * (d - n_g) % 2 else -fam[d - n_g]
                    for (g, i), (fam, dp, n_g) in acts.items() if d - n_g in fam}

        return block_sum([(n.at(obj), -k) for _, k in gens], twist, name=f"P(x)R{n.name}")

    def tensor_map(self, phi: ModuleMap) -> ChainMap:
        """P (x)_R phi for a degree-0 module map: phi on each slot of ``tensor_with``."""
        obj = phi.source.cat.objects[0]
        return _slotwise(self.tensor_with, phi, [(obj, -n) for _, n in self.generators])


def _slotwise(build, phi: ModuleMap, slots) -> ChainMap:
    """build(phi.source) -> build(phi.target) for a degree-0 module map and
    block sums with a slot phi.at(x)[k] for each (x, k) in ``slots``."""
    if phi.degree != 0:
        raise ValidationError("slotwise maps need a degree-0 module map")
    src, tgt = build(phi.source), build(phi.target)
    return ChainMap(src, tgt, 0, {d: block_matrix(
        src.field, [phi.target.at(x).dim(d + k) for x, k in slots], [phi.source.at(x).dim(d + k) for x, k in slots],
        {(g, g): phi.at(x).component(d + k) for g, (x, k) in enumerate(slots)}) for d in src.degrees()})


class _Cone:
    """A comparison cone m(z) + sum_g hom(z, x_g)[1 - n_g], grown in place:
    its summands ``parts``, its ``dims`` and differential ``d`` by degree,
    its blocks {(row, column g + 1): (family, n_g)}, m_g . - in row 0 and
    p_{g,i} o - in row i + 1 (the shift negates P's twist).  ``cohomology_at``
    reads it like a Complex; ``checked`` builds it as one, d o d checked."""

    def __init__(self, base: Complex, name: str):
        self.field, self.name, self.parts, self.d, self.blocks = base.field, name, [base], dict(base.d), {}
        self.dims = dict(base.spaces.dims)

    def sizes(self, deg: int) -> List[int]:
        return [c.dim(deg) for c in self.parts]

    def diff(self, deg: int) -> Mat:
        return self.d.get(deg) or Mat.zero(self.field, self.dims.get(deg + 1, 0), self.dims.get(deg, 0))

    def grow(self, adds: List[Complex], fams, n: int):
        """Append ``adds`` with the families {(row, j): family} of degree n from
        add j: a degree they touch gets [[d, T], [0, diag]] unless all three
        blocks are absent; every other degree keeps its matrix."""
        self.blocks.update({(r, len(self.parts) + j): (fam, n) for (r, j), fam in fams.items()})
        for deg in {e for c in adds for d in c.degrees() for e in (d - 1, d)}:
            twist = {key: fam[deg + 1 - n] for key, fam in fams.items() if deg + 1 - n in fam}
            diag = {(j, j): c.d[deg] for j, c in enumerate(adds) if deg in c.d}
            if not (deg in self.d or twist or diag):
                continue
            rows, cols = self.sizes(deg + 1), self.sizes(deg)
            new_rows, new_cols = [c.dim(deg + 1) for c in adds], [c.dim(deg) for c in adds]
            self.d[deg] = block_matrix(self.field, [sum(rows), sum(new_rows)], [sum(cols), sum(new_cols)], {
                (0, 0): self.diff(deg), (0, 1): block_matrix(self.field, rows, new_cols, twist),
                (1, 1): block_matrix(self.field, new_rows, new_cols, diag)})
        for deg in {d for c in adds for d in c.degrees()}:
            self.dims[deg] = self.dims.get(deg, 0) + sum(c.dim(deg) for c in adds)
        self.parts += adds

    def checked(self) -> Complex:
        return Complex(self.field, self.dims, dict(sorted(self.d.items())), name=self.name)


def resolve_module(m: Module, floor: int, generator_cap: int = 400) -> WindowedResolution:
    """Semifree P -> m with H^i(cone) = 0 verified for all i >= floor.

    P(z) is the sum, in attachment order, of hom(z, x_g)[-n_g] over a flat
    list of generators, each read off a top cone class (m_g, p_g) with d(m_g)
    = -f(p_g): b |-> m_g.b into m, twisted by b |-> -p_g.b, whose block on an
    earlier generator i is -(p_{g,i} o b).  Both families and the shifted hom
    are built once per (object, class).  A round attaches at each z only the
    pivot classes of [boundaries | c_1, c_1.hom(z, x_1)^0 | c_2, ...], in
    class order; the others lie in the boundaries plus the images, read off
    the families, of the picks before them (all classes are picked when the
    degree-0 homs are only the identities), and grows each object's cone by
    them.  The scan reads the cones down from the last attachment degree,
    above which nothing moves, to the first class >= floor; with none, the
    full cohomology of the cones certifies the end, seeded with each degree
    an earlier scan reduced on the same two differentials.  Twists go only to
    earlier rows, so every cone a scan read is a subcomplex of the finished
    one: d o d is checked once, on it (or, at the generator cap, on the cones
    so far).  P, f and the action are built from the blocks when first read."""
    cat = m.cat
    if not cat.is_strictly_nonpositive():
        raise ValidationError("resolutions require a strictly nonpositive base")
    gens: List[Tuple[object, int]] = []
    cones = {z: _Cone(m.at(z), f"cone(P({z})->{m.at(z).name})") for z in cat.objects}
    top = max((d for z in cat.objects for d in m.at(z).degrees()), default=floor)
    twists: Dict[Tuple[int, int], Mat] = {}
    # by object and degree, the latest scan's cohomology_at and the two differentials it read
    kept = {z: {} for z in cat.objects}
    while True:
        for worst in range(top, floor - 1, -1):
            for z, c in cones.items():
                kept[z][worst] = (c.diff(worst - 1), c.diff(worst), cohomology_at(c, worst))
            classes = {z: scan[worst][2][0] for z, scan in kept.items()}
            if any(r.cols for r in classes.values()):
                break
        else:
            checked = {z: c.checked() for z, c in cones.items()}
            reports = {z: CohomologyReport(c, {deg: at for deg, (below, here, at) in kept[z].items()
                                               if c.diff(deg - 1) == below and c.diff(deg) == here})
                       for z, c in checked.items()}
            cone_h = {z: r.as_dict() for z, r in reports.items()}
            worst = max((d for h in cone_h.values() for d in h if d >= floor), default=None)
            if worst is None:
                break
            classes = {z: r.rep(worst) for z, r in reports.items()}
        # each top class c at x with its families at every z, c . - in row 0 and p_{c,i} o - in row i + 1
        new = []
        for x in cat.objects:
            offs = list(itertools.accumulate(cones[x].sizes(worst)))
            for vec in map(classes[x].col, range(classes[x].cols)):
                rows = {i: vec.take_rows(range(offs[i], offs[i + 1])) for i in range(len(gens))}
                rows = {i: p for i, p in rows.items() if not p.is_zero()}
                fams = {z: {0: m.act[(z, x)].at(0, worst, vec.take_rows(range(offs[0])))} for z in cat.objects}
                for z, (i, p) in itertools.product(cat.objects, rows.items()):
                    fams[z][i + 1] = cat.comp[(z, x, gens[i][0])].at(0, worst + 1 - gens[i][1], p)
                new.append((x, vec, rows, fams))
        # the degree-0 parts of the families are the images c . b, b in hom(z, x)^0
        picked = set()
        for z in (z for z in cat.objects if classes[z].cols):
            sizes = cones[z].sizes(worst)
            parts, own = [cones[z].diff(worst - 1)], {}
            width = parts[0].cols
            for j, (x, vec, _, fams) in enumerate(new):
                if x == z:
                    own[width] = j
                    parts.append(vec)
                    width += 1
                parts.append(block_matrix(cat.field, sizes, [cat.hom(z, x).dim(0)],
                                          {(r, 0): fam[0] for r, fam in fams[z].items() if 0 in fam}))
                width += parts[-1].cols
            picked.update(own[c] for c in concat_columns(cat.field, sum(sizes), parts).pivot_columns() if c in own)
        new = [c for j, c in enumerate(new) if j in picked]
        if len(gens) + len(new) > generator_cap:
            for c in cones.values():
                c.checked()
            raise WindowCertificationError(
                f"resolution exceeded the generator cap {generator_cap} before "
                f"certifying degree {worst}", first_uncertified_degree=worst)
        twists.update({(g, i): p for g, (_, _, rows, _) in enumerate(new, len(gens)) for i, p in rows.items()})
        for z, c in cones.items():
            families = {(r, j): fam for j, (*_, fams) in enumerate(new) for r, fam in fams[z].items()}
            c.grow([shift_complex(cat.hom(z, x), 1 - worst) for x, *_ in new], families, worst)
        gens.extend((x, worst) for x, *_ in new)
        top = worst
    return WindowedResolution(m, gens, twists, floor, cone_h, {z: c.blocks for z, c in cones.items()})


# -- balanced tensor over a commutative dg-ring -----------------------------------


def _ring_of(module: Module) -> DgRing:
    cat = module.cat
    if len(cat.objects) != 1:
        raise ValidationError("ring-level tensor needs one-object modules")
    return cat.base


def balanced_tensor_ring(p: Module, n: Module) -> BalancedTensor:
    """P (x)_R N for one-object modules over the same ring-category, N's right
    action turned into the left one r.x = (-1)^{|r||x|} x.r."""
    ring = _ring_of(p)
    if _ring_of(n) != ring:
        raise ValidationError("tensor factors live over different rings")
    obj, nobj = p.cat.objects[0], n.cat.objects[0]
    return balanced_tensor(p.act[(obj, obj)], swapped(n.act[(nobj, nobj)]),
                           name=f"{p.name}(x)R{n.name}")


@dataclass
class DerivedReport:
    """Cohomology of a derived functor, certified on a window."""

    dims: Dict[int, int]
    window: DegreeWindow
    resolution: WindowedResolution
    complex: Complex

    def as_dict(self):
        return {str(d): self.dims.get(d, 0) for d in self.window.degrees()}


def _support_bounds(module: Module):
    los, his = [], []
    for a in module.cat.objects:
        lo, hi = module.at(a).min_degree(), module.at(a).max_degree()
        if lo is not None:
            los.append(lo)
            his.append(hi)
    if not los:
        return 0, 0
    return min(los), max(his)


def derived_tensor(m: Module, n: Module, window: DegreeWindow, resolve: str = "left") -> DerivedReport:
    """H^* (m (x)^L n) on the window: P (x)_R the other factor, read at the
    generators of a windowed resolution P of one factor (``tensor_with``).

    The resolution floor is window.lo - guard - 2 - max(hi, 0), where hi is
    the top degree of the un-resolved factor's support.
    """
    if resolve not in ("left", "right"):
        raise ValidationError("resolve must be 'left' or 'right'")
    other = n if resolve == "left" else m
    _, other_hi = _support_bounds(other)
    floor = window.lo - max(other_hi, 0) - 2 - window.guard
    res = resolve_module(m if resolve == "left" else n, floor)
    tensor = res.tensor_with(other)
    dims = {d: cohomology_at(tensor, d)[0].cols for d in window.degrees()}
    return DerivedReport(dims, window, res, tensor)


def derived_hom(m: Module, n: Module, window: DegreeWindow) -> DerivedReport:
    """H^* RHom(m, n) on the window: Hom(P, n) for a windowed resolution P
    of m, read at P's generators (``WindowedResolution.hom_into``) rather
    than cut out of the objectwise Homs; over a ring or a dg-category base."""
    n_lo, _ = _support_bounds(n)
    floor = min(n_lo, 0) - window.hi - 2 - window.guard
    res = resolve_module(m, floor)
    hom = res.hom_into(n)
    dims = {d: cohomology_at(hom, d)[0].cols for d in window.degrees()}
    return DerivedReport(dims, window, res, hom)


# -- natural t-structure -----------------------------------------------------------


@dataclass
class TStructureReport:
    tau_le: Module
    tau_ge: Module
    counit: ModuleMap           # tau_le -> M
    unit: ModuleMap             # M -> tau_ge
    triangle_is_distinguished: bool
    cone_comparison_h: Dict


def tstruct_truncate(m: Module) -> TStructureReport:
    """Objectwise smart truncation triangle tau_le0 -> M -> tau_ge1 for a
    module over a strictly nonpositive category."""
    cat = m.cat
    if not cat.is_strictly_nonpositive():
        raise ValidationError(
            "the natural t-structure needs a strictly nonpositive base: positive-degree "
            "homs would carry the aisle out of itself under the action")
    les = {a: truncate_le(m.at(a), 0) for a in cat.objects}
    ges = {a: truncation_quotient(m.at(a), 1) for a in cat.objects}
    # tau_le acts through the inclusions, checked to stay in the aisle;
    # tau_ge acts as induced on the quotients
    tau_le = module_on(cat, {a: sub_retract(*le) for a, le in les.items()}, [m], name=f"tle0({m.name})")
    tau_ge = module_on(cat, {a: quotient_retract(*ge) for a, ge in ges.items()}, [m], name=f"tge1({m.name})")
    counit = ModuleMap(tau_le, m, 0, {a: incl for a, (_, incl) in les.items()})
    unit = ModuleMap(m, tau_ge, 0, {a: proj for a, (_, proj, _) in ges.items()})
    # distinguished triangle: cone(counit) -> tau_ge, (eta, 0) on m + tau_le[1], is a quasi-iso
    comparison_h = {}
    for a in cat.objects:
        c = cone_complex(counit.at(a))
        eta = unit.at(a)
        cmp_map = ChainMap(c, tau_ge.at(a), 0, {
            d: block_matrix(cat.field, [tau_ge.at(a).dim(d)], [m.at(a).dim(d), tau_le.at(a).dim(d + 1)],
                            {(0, 0): eta.component(d)})
            for d in c.degrees()})
        comparison_h[a] = cone_complex(cmp_map).cohomology().as_dict()
    ok = not any(comparison_h.values())
    return TStructureReport(tau_le, tau_ge, counit, unit, ok, comparison_h)


# -- small ring-module constructors -------------------------------------------------


def ring_as_module(ring: DgRing, cat: Optional[DgCategory] = None) -> Module:
    """R as a right module over itself (the free rank-1 module)."""
    cat = cat or one_object_category(ring)
    return Module.representable(cat, cat.objects[0], name=ring.name)


def restricted_ground_module(theta: DgRingMorphism,
                             cat: Optional[DgCategory] = None) -> Module:
    """The target of theta as a module over the source ring (restriction of
    the rank-1 free module)."""
    ring = theta.source
    cat = cat or one_object_category(ring)
    obj = cat.objects[0]
    tgt = theta.target
    # x . r = x theta(r)
    act = lifted_map([tgt.underlying, through(theta.map)], tgt.underlying, [tgt.product.block])
    return Module(cat, {obj: tgt.underlying}, {(obj, obj): act},
                  name=f"({tgt.name})_{ring.name}")
