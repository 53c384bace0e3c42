"""Windowed free resolutions, derived tensor and Hom, the natural
t-structure on modules over nonpositive dg-categories, and hfp verdicts.

Resolutions are built top-down by repeatedly attaching free covers that kill
the top cohomology of the comparison cone.  Over a strictly nonpositive base
each round only disturbs strictly lower degrees, so acyclicity of the cone in
all degrees >= floor is reached in finitely many rounds and is *verified* on
the finished object, never assumed.  Derived functors return cohomology
reports restricted to the certified window.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from .bimodules import Module, ModuleMap, cone_module, module_hom_complex
from .complexes import ChainMap, Complex, TensorLayout, element_action, quotient_complex
from .dgcat import DgCategory, one_object_category
from .dgring import DgRing, DgRingMorphism
from .errors import ValidationError, WindowCertificationError
from .matrix import Mat


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
    """Semifree approximation P -> M, exact on cone degrees >= floor."""

    target: Module
    module: Module
    comparison: ModuleMap
    generators: List[Tuple[object, int]]
    floor: int
    cone_cohomology: Dict


def _attach_generators(cat: DgCategory, P: Module, f: ModuleMap, M: Module,
                       gens: List[Tuple[object, int, Mat, Mat]]):
    """Extend P -> M by free generators killing cone classes.

    Each generator is (obj, degree n, m_part in M(obj)^n, p_part in P(obj)^{n+1})
    with d(m) = -f(p) and d(p) = 0; the new summand hom(-, obj)[-n] maps into
    P by b |-> -p.b and into M by b |-> m.b.
    """
    field = cat.field
    new_comps: Dict = {}
    offsets: Dict = {}
    for z in cat.objects:
        dims = {d: P.at(z).dim(d) for d in P.at(z).degrees()}
        offs = []
        for (x, n, _, _) in gens:
            h = cat.hom(z, x)
            block_offs = {}
            for d in h.degrees():
                deg = d + n
                block_offs[d] = dims.get(deg, 0)
                dims[deg] = dims.get(deg, 0) + h.dim(d)
            offs.append(block_offs)
        offsets[z] = offs
        diffs: Dict[int, List[List]] = {}
        for d in sorted(dims):
            rows = dims.get(d + 1, 0)
            cols = dims[d]
            if rows == 0 or cols == 0:
                continue
            grid = [[field.zero()] * cols for _ in range(rows)]
            pd = P.at(z).diff(d)
            for i in range(pd.rows):
                for j in range(pd.cols):
                    grid[i][j] = pd.entries[i][j]
            for gi, (x, n, m_part, p_part) in enumerate(gens):
                h = cat.hom(z, x)
                hd = d - n
                if h.dim(hd) == 0:
                    continue
                coff = offs[gi][hd]
                # internal differential of the shifted representable: (-1)^n d_h
                hdiff = h.diff(hd)
                if h.dim(hd + 1):
                    roff = offs[gi][hd + 1]
                    for i in range(hdiff.rows):
                        for j in range(hdiff.cols):
                            v = hdiff.entries[i][j]
                            if n % 2:
                                v = field.neg(v)
                            grid[roff + i][coff + j] = v
                # twist into the old P part: b |-> -p.b
                if not p_part.is_zero():
                    fam = element_action(P.act[(z, x)], P.act_layouts[(z, x)], 0, n + 1, p_part)
                    tw = fam.get(hd)
                    if tw is not None:
                        for i in range(tw.rows):
                            for j in range(tw.cols):
                                grid[i][coff + j] = field.sub(grid[i][coff + j], tw.entries[i][j])
            diffs[d] = Mat(field, rows, cols, grid)
        new_comps[z] = Complex(field, dims, diffs, name=f"P({z})")
    # action: block lower-triangular, representable blocks act by composition
    action = {}
    for z in cat.objects:
        for y in cat.objects:
            lay = TensorLayout([new_comps[y], cat.hom(z, y)])

            def entry(combo, idx, z=z, y=y):
                dq, dg = combo
                g = Mat.basis_column(field, cat.hom(z, y).dim(dg), idx[1])
                old_dim = P.at(y).dim(dq)
                out = Mat.zero(field, new_comps[z].dim(dq + dg), 1)
                if idx[0] < old_dim:
                    q = Mat.basis_column(field, P.at(y).dim(dq), idx[0])
                    acted = P.apply_action(z, y, dq, q, dg, g)
                    for i, v in enumerate(acted.column_values(0)):
                        if not field.is_zero(v):
                            out = out + Mat.basis_column(field, out.rows, i).scale(v)
                    return out
                for gi, (x, n, _, _) in enumerate(gens):
                    h = cat.hom(y, x)
                    hd = dq - n
                    if h.dim(hd) == 0:
                        continue
                    boff = offsets[y][gi][hd]
                    if boff <= idx[0] < boff + h.dim(hd):
                        bidx = idx[0] - boff
                        if cat.hom(z, x).dim(hd + dg) == 0:
                            return out
                        b = Mat.basis_column(field, h.dim(hd), bidx)
                        bg = cat.compose_elements(z, y, x, hd, b, dg, g)
                        toff = offsets[z][gi][hd + dg]
                        for i, v in enumerate(bg.column_values(0)):
                            if not field.is_zero(v):
                                out = out + Mat.basis_column(field, out.rows, toff + i).scale(v)
                        return out
                return out

            action[(z, y)] = lay.map_from_entries(new_comps[z], 0, entry)
    P2 = Module(cat, new_comps, action, name="P", check=False)
    # comparison map: old part as before, generator blocks by b |-> m.b
    comps = {}
    for z in cat.objects:
        grids = {}
        for d in new_comps[z].degrees():
            rows = M.at(z).dim(d)
            cols = new_comps[z].dim(d)
            if rows == 0 or cols == 0:
                continue
            grid = [[field.zero()] * cols for _ in range(rows)]
            old = f.at(z).component(d)
            for i in range(old.rows):
                for j in range(old.cols):
                    grid[i][j] = old.entries[i][j]
            for gi, (x, n, m_part, _) in enumerate(gens):
                h = cat.hom(z, x)
                hd = d - n
                if h.dim(hd) == 0 or m_part.is_zero():
                    continue
                fam = element_action(M.act[(z, x)], M.act_layouts[(z, x)], 0, n, m_part)
                blk = fam.get(hd)
                if blk is None:
                    continue
                coff = offsets[z][gi][hd]
                for i in range(blk.rows):
                    for j in range(blk.cols):
                        grid[i][coff + j] = blk.entries[i][j]
            grids[d] = Mat(field, rows, cols, grid)
        comps[z] = ChainMap(new_comps[z], M.at(z), 0, grids)
    f2 = ModuleMap(P2, M, 0, comps)
    return P2, f2


def resolve_module(m: Module, floor: int, generator_cap: int = 400) -> WindowedResolution:
    """Semifree P -> m with H^i(cone) = 0 verified for all i >= floor."""
    cat = m.cat
    if not cat.is_strictly_nonpositive():
        raise ValidationError("resolutions require a strictly nonpositive base")
    P = Module.zero(cat)
    f = ModuleMap.zero(P, m)
    generators: List[Tuple[object, int]] = []
    while True:
        cone_mod, _, _ = cone_module(f)
        worst = None
        cone_h = {}
        for z in cat.objects:
            h = cone_mod.at(z).cohomology()
            cone_h[z] = h.as_dict()
            for d, v in h.as_dict().items():
                if v and d >= floor and (worst is None or d > worst):
                    worst = d
        if worst is None:
            return WindowedResolution(m, P, f, generators, floor,
                                      {z: dict(v) for z, v in cone_h.items()})
        gens = []
        for z in cat.objects:
            h = cone_mod.at(z).cohomology()
            reps = h.rep(worst)
            m_dim = m.at(z).dim(worst)
            for j in range(reps.cols):
                vec = reps.col(j)
                m_part = vec.take_rows(list(range(m_dim)))
                p_part = vec.take_rows(list(range(m_dim, vec.rows)))
                gens.append((z, worst, m_part, p_part))
        if len(generators) + len(gens) > generator_cap:
            raise WindowCertificationError(
                f"resolution exceeded the generator cap {generator_cap} before "
                f"certifying degree {worst}", first_uncertified_degree=worst)
        generators.extend((z, worst) for z, worst, _, _ in gens)
        P, f = _attach_generators(cat, P, f, m, gens)


def bar_resolution_window(m: Module, window: DegreeWindow,
                          generator_cap: int = 400) -> WindowedResolution:
    """Windowed free resolution whose comparison is exact on the window
    (plus the guard margin below)."""
    floor = window.lo - window.guard
    res = resolve_module(m, floor, generator_cap)
    for z in m.cat.objects:
        for d, v in res.cone_cohomology[z].items():
            if v and d >= floor:
                raise WindowCertificationError(
                    f"resolution not exact at degree {d}", first_uncertified_degree=d)
    return res


# -- balanced tensor over a commutative dg-ring -----------------------------------


def _ring_of(module: Module) -> DgRing:
    cat = module.cat
    if len(cat.objects) != 1:
        raise ValidationError("ring-level tensor needs one-object modules")
    return cat.base


def left_action_vector(module: Module, obj, dr: int, r: Mat, dx: int, x: Mat) -> Mat:
    """Left action derived from the right action over a commutative base:
    r . x = (-1)^{|r||x|} x . r."""
    out = module.apply_action(obj, obj, dx, x, dr, r)
    if (dr % 2) and (dx % 2):
        out = -out
    return out


def balanced_tensor_ring(p: Module, n: Module):
    """P (x)_R N for one-object modules over the same ring-category; returns
    (complex, projection from the plain tensor, layout)."""
    catp = p.cat
    obj = catp.objects[0]
    ring = _ring_of(p)
    if _ring_of(n) != ring:
        raise ValidationError("tensor factors live over different rings")
    field = ring.field
    P, N = p.at(obj), n.at(list(n.cat.objects)[0])
    nobj = list(n.cat.objects)[0]
    lay = TensorLayout([P, N])
    killed: Dict[int, List] = {}
    for dp in P.degrees():
        for i in range(P.dim(dp)):
            pv = Mat.basis_column(field, P.dim(dp), i)
            for dr, ri in ring.basis():
                rv = ring.basis_vector(dr, ri)
                pr = p.apply_action(obj, obj, dp, pv, dr, rv)
                for dx in N.degrees():
                    for j in range(N.dim(dx)):
                        xv = Mat.basis_column(field, N.dim(dx), j)
                        rx = left_action_vector(n, nobj, dr, rv, dx, xv)
                        deg = dp + dr + dx
                        col = [field.zero()] * lay.complex.dim(deg)
                        for k, v in enumerate(pr.column_values(0)):
                            if field.is_zero(v):
                                continue
                            pos = lay.position((dp + dr, dx), (k, j))
                            col[pos] = field.add(col[pos], v)
                        for k, v in enumerate(rx.column_values(0)):
                            if field.is_zero(v):
                                continue
                            pos = lay.position((dp, dx + dr), (i, k))
                            col[pos] = field.sub(col[pos], v)
                        if any(not field.is_zero(v) for v in col):
                            killed.setdefault(deg, []).append(col)
    killed_mats = {d: Mat.from_columns(field, lay.complex.dim(d), cols).image_basis()
                   for d, cols in killed.items()}
    quot, proj, sections = quotient_complex(lay.complex, killed_mats,
                                            name=f"{p.name}(x)R{n.name}")
    return quot, proj, lay, sections


@dataclass
class DerivedReport:
    """Cohomology of a derived functor, certified on a window."""

    dims: Dict[int, int]
    window: DegreeWindow
    resolution: WindowedResolution
    complex: Complex

    def dim(self, d: int) -> int:
        if d < self.window.lo or d > self.window.hi:
            raise ValidationError(f"degree {d} outside the certified window")
        return self.dims.get(d, 0)

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


def derived_tensor(m: Module, n: Module, window: DegreeWindow,
                   resolve: str = "left", generator_cap: int = 400) -> DerivedReport:
    """H^* (m (x)^L n) on the window, via a windowed resolution of one factor.

    The resolution floor is chosen from the window and the support of the
    un-resolved factor so that deeper cells cannot reach the window; the
    choice is additionally verified by recomputing one degree below.
    """
    if resolve not in ("left", "right"):
        raise ValidationError("resolve must be 'left' or 'right'")
    other = n if resolve == "left" else m
    _, other_hi = _support_bounds(other)
    floor = window.lo - max(other_hi, 0) - 2 - window.guard
    if resolve == "left":
        res = resolve_module(m, floor, generator_cap)
        quot, _, _, _ = balanced_tensor_ring(res.module, n)
    else:
        res = resolve_module(n, floor, generator_cap)
        quot, _, _, _ = balanced_tensor_ring(m, res.module)
    h = quot.cohomology().as_dict()
    dims = {d: h.get(d, 0) for d in window.degrees()}
    return DerivedReport(dims, window, res, quot)


def derived_hom(m: Module, n: Module, window: DegreeWindow,
                generator_cap: int = 400) -> DerivedReport:
    """H^* RHom(m, n) on the window via a windowed resolution of m; works
    over a ring or a dg-category base."""
    n_lo, _ = _support_bounds(n)
    floor = min(n_lo, 0) - window.hi - 2 - window.guard
    res = resolve_module(m, floor, generator_cap)
    mhc = module_hom_complex(res.module, n)
    h = mhc.complex.cohomology().as_dict()
    dims = {d: h.get(d, 0) for d in window.degrees()}
    return DerivedReport(dims, window, res, mhc.complex)


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
    from .complexes import truncate_ge, truncate_le

    cat = m.cat
    if not cat.is_strictly_nonpositive():
        raise ValidationError(
            "the natural t-structure needs a strictly nonpositive base: positive-degree "
            "homs would carry the aisle out of itself under the action")
    field = cat.field
    le_comps = {}
    le_incl = {}
    ge_comps = {}
    ge_proj = {}
    ge_sections = {}
    for a in cat.objects:
        sub, incl = truncate_le(m.at(a), 0)
        le_comps[a] = sub
        le_incl[a] = incl
        quot, proj = truncate_ge(m.at(a), 1)
        ge_comps[a] = quot
        ge_proj[a] = proj
    # tau_le action: restrict through the inclusions
    le_action = {}
    for x in cat.objects:
        for y in cat.objects:
            lay = TensorLayout([le_comps[y], cat.hom(x, y)])

            def entry(combo, idx, x=x, y=y):
                dm, df = combo
                vec = le_incl[y].component(dm) @ Mat.basis_column(field, le_comps[y].dim(dm), idx[0])
                f = Mat.basis_column(field, cat.hom(x, y).dim(df), idx[1])
                out = m.apply_action(x, y, dm, vec, df, f)
                cols = le_incl[x].component(dm + df)
                if cols.cols == 0:
                    if out.is_zero():
                        return None
                    raise ValidationError("aisle not closed under the action")
                sol = cols.solve(out)
                if sol is None:
                    raise ValidationError("aisle not closed under the action")
                return sol

            le_action[(x, y)] = lay.map_from_entries(le_comps[x], 0, entry)
    tau_le = Module(cat, le_comps, le_action, name=f"tle0({m.name})", check=False)
    # tau_ge action: induced on the quotient
    ge_action = {}
    for x in cat.objects:
        for y in cat.objects:
            lay = TensorLayout([ge_comps[y], cat.hom(x, y)])

            def entry(combo, idx, x=x, y=y):
                dm, df = combo
                # lift a quotient basis vector: any solution of proj . v = e
                proj = ge_proj[y].component(dm)
                lift = proj.solve(Mat.basis_column(field, ge_comps[y].dim(dm), idx[0]))
                if lift is None:
                    raise ValidationError("truncation projection is not onto")
                f = Mat.basis_column(field, cat.hom(x, y).dim(df), idx[1])
                out = m.apply_action(x, y, dm, lift, df, f)
                return ge_proj[x].component(dm + df) @ out

            ge_action[(x, y)] = lay.map_from_entries(ge_comps[x], 0, entry)
    tau_ge = Module(cat, ge_comps, ge_action, name=f"tge1({m.name})", check=False)
    counit = ModuleMap(tau_le, m, 0, le_incl)
    unit = ModuleMap(m, tau_ge, 0, ge_proj)
    # distinguished triangle: cone(counit) -> tau_ge is a quasi-iso
    cone_mod, _, _ = cone_module(counit)
    comparison_h = {}
    ok = True
    for a in cat.objects:
        comps = {}
        for d in cone_mod.at(a).degrees():
            rows = tau_ge.at(a).dim(d)
            cols = cone_mod.at(a).dim(d)
            if rows == 0 or cols == 0:
                continue
            m_dim = m.at(a).dim(d)
            grid = [[field.zero()] * cols for _ in range(rows)]
            eta = unit.at(a).component(d)
            for i in range(rows):
                for j in range(m_dim):
                    grid[i][j] = eta.entries[i][j]
            comps[d] = Mat(field, rows, cols, grid)
        cmp_map = ChainMap(cone_mod.at(a), tau_ge.at(a), 0, comps)
        from .complexes import cone as _cone
        c, _, _ = _cone(cmp_map)
        h = c.cohomology().as_dict()
        comparison_h[a] = h
        if h:
            ok = False
    return TStructureReport(tau_le, tau_ge, counit, unit, ok, comparison_h)


# -- hfp verdicts -----------------------------------------------------------------


@dataclass
class HfpVerdict:
    dims: Dict
    hfp: bool
    bounded: bool
    bound: Optional[int]
    notes: List[str] = dc_field(default_factory=list)

    def as_dict(self):
        return {
            "dims": {str(a): {str(d): v for d, v in sorted(h.items())}
                     for a, h in self.dims.items()},
            "hfp": self.hfp,
            "hfp_bounded": self.bounded,
            "bound": self.bound,
            "notes": list(self.notes),
        }


def is_hfp(m: Module, window: DegreeWindow) -> HfpVerdict:
    """Per-degree finite-dimensionality of H^* over H^0, with boundedness
    flags; at desk scale finitely presented = finite-dimensional and the
    verdict records that identification."""
    dims = {}
    support = []
    for a in m.cat.objects:
        h = m.at(a).cohomology().as_dict()
        dims[a] = {d: v for d, v in h.items() if window.lo <= d <= window.hi}
        support.extend(d for d, v in h.items() if v)
    bound = max((abs(d) for d in support), default=0) + 1
    return HfpVerdict(
        dims=dims,
        hfp=True,
        bounded=True,
        bound=bound,
        notes=["finitely presented = finite-dimensional at desk scale"],
    )


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
    lay = TensorLayout([tgt.underlying, ring.underlying])
    field = ring.field

    def entry(combo, idx):
        dx, dr = combo
        x = Mat.basis_column(field, tgt.dim(dx), idx[0])
        r = theta.apply(dr, Mat.basis_column(field, ring.dim(dr), idx[1]))
        return tgt.mul(dx, x, dr, r)

    act = lay.map_from_entries(tgt.underlying, 0, entry)
    return Module(cat, {obj: tgt.underlying}, {(obj, obj): act},
                  name=f"({tgt.name})_{ring.name}")
