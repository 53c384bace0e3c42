"""Right modules and bimodules over dg-categories, with the (co)end calculus.

Conventions:

* a right module M assigns M(A) to each object and a pairing
  M(B) @ hom(A,B) -> M(A); its chain-map property is the Leibniz rule
* a bimodule T over (acat, bcat) has components T(A, B) with A covariant
  (left action raises A along acat homs) and B contravariant (right action
  lowers B along bcat homs); the two actions commute strictly in the order
  (a . x) . b = a . (x . b)
* ends are cut out of the product of diagonal components by the sign-twisted
  naturality system; coends are the cokernel of the matching relation span
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .complexes import (
    ChainMap,
    Complex,
    Equation,
    TensorLayout,
    Term,
    associativity_defect,
    cone,
    constrained_subcomplex,
    direct_sum,
    element_action,
    hom_complex,
    morphism_defect,
    naturality_subcomplex,
    pair_elements,
    quotient_complex,
    shift_complex,
    unit_defect,
)
from .dgcat import DgCategory, DgFunctor, opposite
from .errors import ValidationError
from .matrix import Mat


class Module:
    """Right module over a dg-category."""

    def __init__(self, cat: DgCategory, components: Dict, action: Dict,
                 name: str = "M", check: bool = True):
        self.cat = cat
        self.field = cat.field
        self.name = name
        self.components = {a: components.get(a, Complex.zero(cat.field)) for a in cat.objects}
        self.act_layouts = {}
        self.act = {}
        for x in cat.objects:
            for y in cat.objects:
                lay = TensorLayout([self.at(y), cat.hom(x, y)])
                self.act_layouts[(x, y)] = lay
                am = action.get((x, y))
                if am is None:
                    am = ChainMap.zero_map(lay.complex, self.at(x))
                self.act[(x, y)] = am
        if check:
            self._check()

    def at(self, a) -> Complex:
        return self.components[a]

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.components.values())

    def act_by(self, x, y, df: int, fvec: Mat) -> Dict[int, Mat]:
        """Per-degree matrices of (-) . f : M(y) -> M(x) for f in hom(x,y)."""
        return element_action(self.act[(x, y)], self.act_layouts[(x, y)], 1, df, fvec)

    def apply_action(self, x, y, dm: int, m: Mat, df: int, f: Mat) -> Mat:
        return pair_elements(self.act[(x, y)], self.act_layouts[(x, y)], dm, m, df, f)

    def act_pair(self, x, y):
        """The action M(y) @ hom(x,y) -> M(x) with its source layout."""
        return self.act_layouts[(x, y)], self.act[(x, y)]

    def is_acyclic(self) -> bool:
        return all(self.at(a).is_acyclic() for a in self.cat.objects)

    def _check(self):
        cat = self.cat
        for a in cat.objects:
            if unit_defect(self.act_pair(a, a), cat.id_vector(a), 1) is not None:
                raise ValidationError(f"{self.name}: action not unital at {a}")
        for z, y, x in itertools.product(cat.objects, repeat=3):
            # (m . f) . g = m . (f o g) for m in M(z), f in hom(y,z), g in hom(x,y)
            if associativity_defect(self.act_pair(x, y), self.act_pair(y, z),
                                    self.act_pair(x, z), cat.comp_pair(x, y, z)) is not None:
                raise ValidationError(
                    f"{self.name}: action not associative via hom({x},{y}),hom({y},{z})")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def representable(cat: DgCategory, a, name: Optional[str] = None) -> "Module":
        comps = {x: cat.hom(x, a) for x in cat.objects}
        action = {(x, y): cat.comp[(x, y, a)] for x in cat.objects for y in cat.objects}
        return Module(cat, comps, action, name=name or f"h_{a}", check=False)

    @staticmethod
    def zero(cat: DgCategory) -> "Module":
        return Module(cat, {}, {}, name="0", check=False)


def shift_module(m: Module, k: int) -> Module:
    """Degree shift; viewing M[k] as k[k] (x) M the action needs no sign."""
    comps = {a: shift_complex(m.at(a), k) for a in m.cat.objects}
    action = {}
    field = m.field
    for x in m.cat.objects:
        for y in m.cat.objects:
            lay = TensorLayout([comps[y], m.cat.hom(x, y)])

            def entry(combo, idx, x=x, y=y):
                dm, df = combo
                src = Mat.basis_column(field, m.at(y).dim(dm + k), idx[0])
                f = Mat.basis_column(field, m.cat.hom(x, y).dim(df), idx[1])
                return m.apply_action(x, y, dm + k, src, df, f)

            action[(x, y)] = lay.map_from_entries(comps[x], 0, entry)
    return Module(m.cat, comps, action, name=f"{m.name}[{k}]", check=False)


def direct_sum_modules(summands: Sequence[Module]):
    """Returns (sum, injections, projections) as ModuleMaps."""
    cat = summands[0].cat
    comps = {}
    inj_c = {a: [] for a in cat.objects}
    proj_c = {a: [] for a in cat.objects}
    for a in cat.objects:
        total, injs, projs = direct_sum([m.at(a) for m in summands])
        comps[a] = total
        for i in range(len(summands)):
            inj_c[a].append(injs[i])
            proj_c[a].append(projs[i])
    action = {}
    for x in cat.objects:
        for y in cat.objects:
            lay = TensorLayout([comps[y], cat.hom(x, y)])
            field = cat.field

            def entry(combo, idx, x=x, y=y):
                dm, df = combo
                vec = Mat.basis_column(field, comps[y].dim(dm), idx[0])
                f = Mat.basis_column(field, cat.hom(x, y).dim(df), idx[1])
                out = Mat.zero(field, comps[x].dim(dm + df), 1)
                for i, m in enumerate(summands):
                    part = proj_c[y][i].component(dm) @ vec
                    acted = m.apply_action(x, y, dm, part, df, f)
                    out = out + inj_c[x][i].component(dm + df) @ acted
                return out

            action[(x, y)] = lay.map_from_entries(comps[x], 0, entry)
    total = Module(cat, comps, action, name="(+)".join(m.name for m in summands), check=False)
    injections = [ModuleMap(summands[i], total, 0,
                            {a: inj_c[a][i] for a in cat.objects}, check=False)
                  for i in range(len(summands))]
    projections = [ModuleMap(total, summands[i], 0,
                             {a: proj_c[a][i] for a in cat.objects}, check=False)
                   for i in range(len(summands))]
    return total, injections, projections


class ModuleMap:
    """Degree-k map of right modules.  The components commute with the action
    with no Koszul sign: the map never crosses the acting element, which sits
    on the right."""

    def __init__(self, source: Module, target: Module, degree: int,
                 components: Dict, check: bool = True):
        self.source = source
        self.target = target
        self.degree = degree
        self.components = {}
        for a in source.cat.objects:
            cm = components.get(a)
            if cm is None:
                cm = ChainMap.zero_map(source.at(a), target.at(a), degree)
            self.components[a] = cm
        if check:
            self._check()

    def at(self, a) -> ChainMap:
        return self.components[a]

    def _check(self):
        cat = self.source.cat
        for x, y in itertools.product(cat.objects, repeat=2):
            if morphism_defect(self.source.act_pair(x, y), self.target.act_pair(x, y), self.at(x),
                               self.at(y), ChainMap.identity(cat.hom(x, y))) is not None:
                raise ValidationError("module map does not respect the action")

    def is_quasi_iso(self) -> bool:
        return all(self.at(a).is_quasi_iso() for a in self.source.cat.objects)

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        comps = {a: self.at(a).compose(other.at(a)) for a in self.source.cat.objects}
        return ModuleMap(other.source, self.target, self.degree + other.degree, comps, check=False)

    @staticmethod
    def zero(source: Module, target: Module, degree: int = 0) -> "ModuleMap":
        return ModuleMap(source, target, degree, {}, check=False)


def cone_module(phi: ModuleMap):
    """Componentwise cone with the diagonal action; returns
    (cone, include_target, project_to_shifted_source)."""
    if phi.degree != 0:
        raise ValidationError("module cones need degree-0 maps")
    cat = phi.source.cat
    field = cat.field
    comps = {}
    incl_c = {}
    proj_c = {}
    for a in cat.objects:
        c, incl, proj = cone(phi.at(a))
        comps[a] = c
        incl_c[a] = incl
        proj_c[a] = proj
    action = {}
    for x in cat.objects:
        for y in cat.objects:
            lay = TensorLayout([comps[y], cat.hom(x, y)])

            def entry(combo, idx, x=x, y=y):
                dm, df = combo
                tgt_dim_y = phi.target.at(y).dim(dm)
                f = Mat.basis_column(field, cat.hom(x, y).dim(df), idx[1])
                if idx[0] < tgt_dim_y:
                    part = Mat.basis_column(field, tgt_dim_y, idx[0])
                    acted = phi.target.apply_action(x, y, dm, part, df, f)
                    lifted = [field.zero()] * comps[x].dim(dm + df)
                    for i, v in enumerate(acted.column_values(0)):
                        lifted[i] = v
                    return Mat.column(field, lifted)
                src_idx = idx[0] - tgt_dim_y
                part = Mat.basis_column(field, phi.source.at(y).dim(dm + 1), src_idx)
                acted = phi.source.apply_action(x, y, dm + 1, part, df, f)
                lifted = [field.zero()] * comps[x].dim(dm + df)
                off = phi.target.at(x).dim(dm + df)
                for i, v in enumerate(acted.column_values(0)):
                    lifted[off + i] = v
                return Mat.column(field, lifted)

            action[(x, y)] = lay.map_from_entries(comps[x], 0, entry)
    c = Module(cat, comps, action, name=f"cone({phi.source.name}->{phi.target.name})", check=False)
    incl = ModuleMap(phi.target, c, 0, incl_c, check=False)
    shifted = shift_module(phi.source, 1)
    proj = ModuleMap(c, shifted, 0, proj_c, check=False)
    return c, incl, proj


class ModuleHomComplex:
    """The complex of module maps M -> N, cut out of the product of the
    objectwise hom-complexes by the action-compatibility system."""

    def __init__(self, source: Module, target: Module, name: str = "ModHom"):
        self.source = source
        self.target = target
        cat = source.cat
        self.layouts = {a: hom_complex(source.at(a), target.at(a)) for a in cat.objects}
        # phi_x o (- . f) = (- . f) o phi_y: the map never crosses f, so no sign
        equations = [Equation(source.at(y), target.at(x), (
                         Term(x, right=(df, source.act_by(x, y, df, f))),
                         Term(y, left=(df, target.act_by(x, y, df, f)), sign=-1)))
                     for x in cat.objects for y in cat.objects for df, f in cat.hom_basis(x, y)]
        (self.ambient, self.injs, self.projs, self.complex,
         self.inclusion) = naturality_subcomplex(self.layouts, equations, name=name)

    def module_map_from_cocycle(self, degree: int, vec: Mat) -> ModuleMap:
        amb = self.inclusion.component(degree) @ vec
        comps = {}
        for a in self.source.cat.objects:
            block = self.projs[a].component(degree) @ amb
            comps[a] = self.layouts[a].chainmap_from_cocycle(degree, block)
        return ModuleMap(self.source, self.target, degree, comps)

    def vector_from_module_map(self, f: ModuleMap) -> Mat:
        amb = Mat.zero(self.source.cat.field, self.ambient.dim(f.degree), 1)
        for a in self.source.cat.objects:
            vec = self.layouts[a].vector_from_chainmap(f.at(a))
            amb = amb + self.injs[a].component(f.degree) @ vec
        sol = self.inclusion.component(f.degree).solve(amb)
        if sol is None:
            raise ValidationError("module map does not satisfy the naturality system")
        return sol


def module_hom_complex(source: Module, target: Module) -> ModuleHomComplex:
    return ModuleHomComplex(source, target)


# -- bimodules -------------------------------------------------------------------


class Bimodule:
    """Bimodule over (acat, bcat): components T(A, B), A covariant below,
    B contravariant above."""

    def __init__(self, acat: DgCategory, bcat: DgCategory, components: Dict,
                 lact: Dict, ract: Dict, name: str = "T", check: bool = True):
        self.acat = acat
        self.bcat = bcat
        self.field = acat.field
        self.name = name
        self.components = {}
        for a in acat.objects:
            for b in bcat.objects:
                cx = components.get((a, b))
                self.components[(a, b)] = cx if cx is not None else Complex.zero(self.field)
        self.lact_layouts = {}
        self.lact = {}
        for a1 in acat.objects:
            for a2 in acat.objects:
                for b in bcat.objects:
                    lay = TensorLayout([acat.hom(a1, a2), self.at(a1, b)])
                    self.lact_layouts[(a1, a2, b)] = lay
                    lm = lact.get((a1, a2, b))
                    if lm is None:
                        lm = ChainMap.zero_map(lay.complex, self.at(a2, b))
                    self.lact[(a1, a2, b)] = lm
        self.ract_layouts = {}
        self.ract = {}
        for a in acat.objects:
            for b1 in bcat.objects:
                for b2 in bcat.objects:
                    lay = TensorLayout([self.at(a, b2), bcat.hom(b1, b2)])
                    self.ract_layouts[(a, b1, b2)] = lay
                    rm = ract.get((a, b1, b2))
                    if rm is None:
                        rm = ChainMap.zero_map(lay.complex, self.at(a, b1))
                    self.ract[(a, b1, b2)] = rm
        if check:
            self._check()

    def at(self, a, b) -> Complex:
        return self.components[(a, b)]

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.components.values())

    # -- elementwise action helpers ---------------------------------------

    def lact_apply(self, a1, a2, b, df: int, f: Mat, dx: int, x: Mat) -> Mat:
        return pair_elements(self.lact[(a1, a2, b)], self.lact_layouts[(a1, a2, b)], df, f, dx, x)

    def ract_apply(self, a, b1, b2, dx: int, x: Mat, df: int, f: Mat) -> Mat:
        return pair_elements(self.ract[(a, b1, b2)], self.ract_layouts[(a, b1, b2)], dx, x, df, f)

    def lact_family(self, a1, a2, b, df: int, f: Mat) -> Dict[int, Mat]:
        return element_action(self.lact[(a1, a2, b)], self.lact_layouts[(a1, a2, b)], 0, df, f)

    def ract_family(self, a, b1, b2, df: int, f: Mat) -> Dict[int, Mat]:
        return element_action(self.ract[(a, b1, b2)], self.ract_layouts[(a, b1, b2)], 1, df, f)

    def module_at(self, a, name: Optional[str] = None) -> Module:
        """The right bcat-module T(a, -)."""
        comps = {b: self.at(a, b) for b in self.bcat.objects}
        action = {(x, y): self.ract[(a, x, y)] for x in self.bcat.objects for y in self.bcat.objects}
        return Module(self.bcat, comps, action, name=name or f"{self.name}_{a}", check=False)

    # -- invariants ---------------------------------------------------------

    def _lact_pair(self, a1, a2, b):
        return self.lact_layouts[(a1, a2, b)], self.lact[(a1, a2, b)]

    def _ract_pair(self, a, b1, b2):
        return self.ract_layouts[(a, b1, b2)], self.ract[(a, b1, b2)]

    def _check(self):
        acat, bcat = self.acat, self.bcat
        for a, b in itertools.product(acat.objects, bcat.objects):
            if unit_defect(self._lact_pair(a, a, b), acat.id_vector(a), 0) is not None:
                raise ValidationError(f"{self.name}: left action not unital at ({a},{b})")
            if unit_defect(self._ract_pair(a, b, b), bcat.id_vector(b), 1) is not None:
                raise ValidationError(f"{self.name}: right action not unital at ({a},{b})")
        # (f2 o f1) . x = f2 . (f1 . x) for f2 in hom(a2,a3), f1 in hom(a1,a2), x in T(a1,b)
        for a1, a2, a3, b in itertools.product(acat.objects, acat.objects, acat.objects, bcat.objects):
            if associativity_defect(self._lact_pair(a1, a3, b), acat.comp_pair(a1, a2, a3),
                                    self._lact_pair(a2, a3, b), self._lact_pair(a1, a2, b)) is not None:
                raise ValidationError(f"{self.name}: left action not associative")
        # (x . f2) . f1 = x . (f2 o f1) for x in T(a,b3), f2 in hom(b2,b3), f1 in hom(b1,b2)
        for a, b3, b2, b1 in itertools.product(acat.objects, bcat.objects, bcat.objects, bcat.objects):
            if associativity_defect(self._ract_pair(a, b1, b2), self._ract_pair(a, b2, b3),
                                    self._ract_pair(a, b1, b3), bcat.comp_pair(b1, b2, b3)) is not None:
                raise ValidationError(f"{self.name}: right action not associative")
        # (f . x) . g = f . (x . g) for f in hom(a1,a2), x in T(a1,b2), g in hom(b1,b2)
        for a1, a2, b1, b2 in itertools.product(acat.objects, acat.objects, bcat.objects, bcat.objects):
            if associativity_defect(self._ract_pair(a2, b1, b2), self._lact_pair(a1, a2, b2),
                                    self._lact_pair(a1, a2, b1), self._ract_pair(a1, b1, b2)) is not None:
                raise ValidationError(f"{self.name}: actions do not commute")

    @staticmethod
    def diagonal(cat: DgCategory, name: Optional[str] = None) -> "Bimodule":
        """T(A, B) = hom(B, A) with both actions given by composition."""
        comps = {(a, b): cat.hom(b, a) for a in cat.objects for b in cat.objects}
        lact = {}
        ract = {}
        for a1 in cat.objects:
            for a2 in cat.objects:
                for b in cat.objects:
                    lact[(a1, a2, b)] = cat.comp[(b, a1, a2)]
        for a in cat.objects:
            for b1 in cat.objects:
                for b2 in cat.objects:
                    ract[(a, b1, b2)] = cat.comp[(b1, b2, a)]
        return Bimodule(cat, cat, comps, lact, ract, name=name or f"diag({cat.name})", check=False)


# -- ends and coends ------------------------------------------------------------


@dataclass
class EndResult:
    complex: Complex
    inclusion: ChainMap          # into the direct sum of diagonal components
    ambient: Complex
    projections: Dict            # object -> ChainMap(ambient -> T(A,A))


@dataclass
class CoendResult:
    complex: Complex
    projection: ChainMap         # from the direct sum of diagonal components
    ambient: Complex
    injections: Dict             # object -> ChainMap(T(A,A) -> ambient)
    sections: Dict               # degree -> Mat (linear lifts)


def _square(t: Bimodule):
    if t.acat is not t.bcat and t.acat.objects != t.bcat.objects:
        raise ValidationError("(co)ends need a square bimodule")


def end_of(t: Bimodule) -> EndResult:
    """Sign-twisted naturality kernel inside the product of diagonal components."""
    _square(t)
    cat = t.acat
    field = t.field
    ambient, injs, projs = direct_sum([t.at(a, a) for a in cat.objects])
    projections = dict(zip(cat.objects, projs))
    constraints: Dict[int, Mat] = {}
    for n in ambient.degrees():
        dim_n = ambient.dim(n)
        cols: List[List] = []
        for col in range(dim_n):
            vec = Mat.basis_column(field, dim_n, col)
            parts = {a: projections[a].component(n) @ vec for a in cat.objects}
            out: List = []
            for a in cat.objects:
                for a2 in cat.objects:
                    for df, f in cat.hom_basis(a, a2):
                        tdim = t.at(a2, a).dim(n + df)
                        if tdim == 0 and t.at(a, a).dim(n) == 0 and t.at(a2, a2).dim(n) == 0:
                            continue
                        lhs = t.lact_apply(a, a2, a, df, f, n, parts[a]) if t.at(a, a).dim(n) else \
                            Mat.zero(field, tdim, 1)
                        rhs = t.ract_apply(a2, a, a2, n, parts[a2], df, f) if t.at(a2, a2).dim(n) else \
                            Mat.zero(field, tdim, 1)
                        if (df % 2) and (n % 2):
                            rhs = -rhs
                        delta = lhs - rhs
                        out.extend(delta.column_values(0))
            cols.append(out)
        if cols and cols[0]:
            constraints[n] = Mat(field, len(cols[0]), dim_n,
                                 [[cols[c][r] for c in range(dim_n)] for r in range(len(cols[0]))])
    sub, incl = constrained_subcomplex(ambient, constraints, name=f"end({t.name})")
    return EndResult(sub, incl, ambient, projections)


def coend_of(t: Bimodule) -> CoendResult:
    """Cokernel of f (x) x |-> f.x - (-1)^{|f||x|} x.f on the diagonal sum."""
    _square(t)
    cat = t.acat
    field = t.field
    ambient, injs, projs = direct_sum([t.at(a, a) for a in cat.objects])
    injections = dict(zip(cat.objects, injs))
    killed: Dict[int, List] = {}
    for a1 in cat.objects:
        for a2 in cat.objects:
            # f: a2 -> a1 paired with x in T(a2, a1)
            for df, f in cat.hom_basis(a2, a1):
                src = t.at(a2, a1)
                for dx in src.degrees():
                    for i in range(src.dim(dx)):
                        x = Mat.basis_column(field, src.dim(dx), i)
                        fx = t.lact_apply(a2, a1, a1, df, f, dx, x)
                        xf = t.ract_apply(a2, a2, a1, dx, x, df, f)
                        vec = injections[a1].component(df + dx) @ fx - \
                            (injections[a2].component(df + dx) @ xf).scale(
                                field.from_int(-1 if (df % 2 and dx % 2) else 1))
                        if not vec.is_zero():
                            killed.setdefault(df + dx, []).append(vec.column_values(0))
    killed_mats = {}
    for deg, vecs in killed.items():
        killed_mats[deg] = Mat.from_columns(field, ambient.dim(deg), vecs).image_basis()
    quot, proj, sections = quotient_complex(ambient, killed_mats, name=f"coend({t.name})")
    # the defining relations die in the quotient
    for deg, mat in killed_mats.items():
        if not (proj.component(deg) @ mat).is_zero():
            raise ValidationError("coend projection does not kill the relation span")
    return CoendResult(quot, proj, ambient, injections, sections)


# -- composition of bimodules -----------------------------------------------------


def _integrand_over_middle(f: "Bimodule", g: "Bimodule", a, c) -> Bimodule:
    """The square bcat-bimodule B, B' |-> f(a, B') (x) g(B, c)."""
    bcat = f.bcat
    field = f.field
    lays = {}
    comps = {}
    for b in bcat.objects:        # lower index via g
        for b2 in bcat.objects:   # upper index via f
            lay = TensorLayout([f.at(a, b2), g.at(b, c)])
            lays[(b, b2)] = lay
            comps[(b, b2)] = lay.complex
    lact = {}
    ract = {}
    for b1 in bcat.objects:
        for b2 in bcat.objects:
            for bu in bcat.objects:
                lay = TensorLayout([bcat.hom(b1, b2), comps[(b1, bu)]])

                def entry(combo, idx, b1=b1, b2=b2, bu=bu):
                    dh, dfg = combo
                    h = Mat.basis_column(field, bcat.hom(b1, b2).dim(dh), idx[0])
                    (dF, dG), (iF, iG) = lays[(b1, bu)].decompose(dfg, idx[1])
                    gpart = Mat.basis_column(field, g.at(b1, c).dim(dG), iG)
                    acted = g.lact_apply(b1, b2, c, dh, h, dG, gpart)
                    out_lay = lays[(b2, bu)]
                    col = [field.zero()] * out_lay.complex.dim(dh + dfg)
                    sign = -1 if (dh % 2 and dF % 2) else 1
                    for k, v in enumerate(acted.column_values(0)):
                        if field.is_zero(v):
                            continue
                        pos = out_lay.position((dF, dG + dh), (iF, k))
                        col[pos] = v if sign > 0 else field.neg(v)
                    return Mat.column(field, col)

                lact[(b1, b2, bu)] = lay.map_from_entries(comps[(b2, bu)], 0, entry)
    for bl in bcat.objects:
        for b1 in bcat.objects:
            for b2 in bcat.objects:
                lay = TensorLayout([comps[(bl, b2)], bcat.hom(b1, b2)])

                def entry(combo, idx, bl=bl, b1=b1, b2=b2):
                    dfg, dh = combo
                    (dF, dG), (iF, iG) = lays[(bl, b2)].decompose(dfg, idx[0])
                    h = Mat.basis_column(field, bcat.hom(b1, b2).dim(dh), idx[1])
                    fpart = Mat.basis_column(field, f.at(a, b2).dim(dF), iF)
                    acted = f.ract_apply(a, b1, b2, dF, fpart, dh, h)
                    out_lay = lays[(bl, b1)]
                    col = [field.zero()] * out_lay.complex.dim(dfg + dh)
                    sign = -1 if (dh % 2 and dG % 2) else 1
                    for k, v in enumerate(acted.column_values(0)):
                        if field.is_zero(v):
                            continue
                        pos = out_lay.position((dF + dh, dG), (k, iG))
                        col[pos] = v if sign > 0 else field.neg(v)
                    return Mat.column(field, col)

                ract[(bl, b1, b2)] = lay.map_from_entries(comps[(bl, b1)], 0, entry)
    return Bimodule(bcat, bcat, comps, lact, ract, name=f"{f.name}(x){g.name}@({a},{c})",
                    check=False)


def compose_bimodules(f: "Bimodule", g: "Bimodule", check: bool = True) -> "Bimodule":
    """Componentwise coend over the shared middle category.

    f is a bimodule over (acat, bcat), g over (bcat, ccat); the result lives
    over (acat, ccat) with the outer actions descended to the coends.
    """
    if f.bcat.objects != g.acat.objects:
        raise ValidationError("bimodule composition needs a shared middle category")
    acat, bcat, ccat = f.acat, f.bcat, g.bcat
    field = f.field
    coends = {}
    integrands = {}
    for a in acat.objects:
        for c in ccat.objects:
            t = _integrand_over_middle(f, g, a, c)
            integrands[(a, c)] = t
            coends[(a, c)] = coend_of(t)
    comps = {(a, c): coends[(a, c)].complex for a in acat.objects for c in ccat.objects}

    def ambient_lact(a1, a2, c, dh, h, deg, amb_vec):
        """a . (x (x) y) = (a.x) (x) y blockwise on the coend ambient."""
        src = coends[(a1, c)]
        tgt = coends[(a2, c)]
        out = Mat.zero(field, tgt.ambient.dim(dh + deg), 1)
        for b in bcat.objects:
            lay_src = TensorLayout([f.at(a1, b), g.at(b, c)])
            lay_tgt = TensorLayout([f.at(a2, b), g.at(b, c)])
            # the injections are coordinate inclusions, so their transposes project
            proj = src.injections[b].component(deg).transpose()
            block = proj @ amb_vec
            if block.is_zero():
                continue
            col = [field.zero()] * lay_tgt.complex.dim(dh + deg)
            for pos, v in enumerate(block.column_values(0)):
                if field.is_zero(v):
                    continue
                (dF, dG), (iF, iG) = lay_src.decompose(deg, pos)
                x = Mat.basis_column(field, f.at(a1, b).dim(dF), iF)
                ax = f.lact_apply(a1, a2, b, dh, h, dF, x)
                for k, w in enumerate(ax.column_values(0)):
                    if field.is_zero(w):
                        continue
                    tpos = lay_tgt.position((dF + dh, dG), (k, iG))
                    col[tpos] = field.add(col[tpos], field.mul(v, w))
            out = out + tgt.injections[b].component(dh + deg) @ Mat.column(field, col)
        return out

    def ambient_ract(a, c1, c2, deg, amb_vec, dh, h):
        src = coends[(a, c2)]
        tgt = coends[(a, c1)]
        out = Mat.zero(field, tgt.ambient.dim(deg + dh), 1)
        for b in bcat.objects:
            lay_src = TensorLayout([f.at(a, b), g.at(b, c2)])
            lay_tgt = TensorLayout([f.at(a, b), g.at(b, c1)])
            inj = src.injections[b]
            proj = inj.component(deg).transpose()
            block = proj @ amb_vec
            if block.is_zero():
                continue
            col = [field.zero()] * lay_tgt.complex.dim(deg + dh)
            for pos, v in enumerate(block.column_values(0)):
                if field.is_zero(v):
                    continue
                (dF, dG), (iF, iG) = lay_src.decompose(deg, pos)
                y = Mat.basis_column(field, g.at(b, c2).dim(dG), iG)
                yb = g.ract_apply(b, c1, c2, dG, y, dh, h)
                for k, w in enumerate(yb.column_values(0)):
                    if field.is_zero(w):
                        continue
                    tpos = lay_tgt.position((dF, dG + dh), (iF, k))
                    col[tpos] = field.add(col[tpos], field.mul(v, w))
            out = out + tgt.injections[b].component(deg + dh) @ Mat.column(field, col)
        return out

    lact = {}
    ract = {}
    for a1 in acat.objects:
        for a2 in acat.objects:
            for c in ccat.objects:
                lay = TensorLayout([acat.hom(a1, a2), comps[(a1, c)]])

                def entry(combo, idx, a1=a1, a2=a2, c=c):
                    dh, dq = combo
                    h = Mat.basis_column(field, acat.hom(a1, a2).dim(dh), idx[0])
                    section = coends[(a1, c)].sections.get(dq)
                    if section is None:
                        return None
                    amb = section.col(idx[1])
                    out_amb = ambient_lact(a1, a2, c, dh, h, dq, amb)
                    return coends[(a2, c)].projection.component(dh + dq) @ out_amb

                lact[(a1, a2, c)] = lay.map_from_entries(comps[(a2, c)], 0, entry)
    for a in acat.objects:
        for c1 in ccat.objects:
            for c2 in ccat.objects:
                lay = TensorLayout([comps[(a, c2)], ccat.hom(c1, c2)])

                def entry(combo, idx, a=a, c1=c1, c2=c2):
                    dq, dh = combo
                    h = Mat.basis_column(field, ccat.hom(c1, c2).dim(dh), idx[1])
                    section = coends[(a, c2)].sections.get(dq)
                    if section is None:
                        return None
                    amb = section.col(idx[0])
                    out_amb = ambient_ract(a, c1, c2, dq, amb, dh, h)
                    return coends[(a, c1)].projection.component(dq + dh) @ out_amb

                ract[(a, c1, c2)] = lay.map_from_entries(comps[(a, c1)], 0, entry)
    return Bimodule(acat, ccat, comps, lact, ract, name=f"({g.name}o{f.name})", check=check)


# -- duality ---------------------------------------------------------------------


def dual_of(f: "Bimodule") -> "Bimodule":
    """Component at (A, B) is the complex of right-module maps f_A -> h_B;
    the result is a bimodule over the opposite categories."""
    acat_op = opposite(f.acat)
    bcat_op = opposite(f.bcat)
    field = f.field
    modules = {a: f.module_at(a) for a in f.acat.objects}
    reps = {b: Module.representable(f.bcat, b) for b in f.bcat.objects}
    mhcs = {}
    comps = {}
    for a in f.acat.objects:
        for b in f.bcat.objects:
            mhc = ModuleHomComplex(modules[a], reps[b], name=f"dual({f.name})@({a},{b})")
            mhcs[(a, b)] = mhc
            comps[(a, b)] = mhc.complex

    def express(a, b, degree, ambient_vec):
        incl = mhcs[(a, b)].inclusion.component(degree)
        sol = incl.solve(ambient_vec)
        if sol is None:
            raise ValidationError("dual action left the naturality subcomplex")
        return sol

    lact = {}
    ract = {}
    for a1 in f.acat.objects:
        for a2 in f.acat.objects:
            for b in f.bcat.objects:
                lay = TensorLayout([acat_op.hom(a1, a2), comps[(a1, b)]])
                # acat_op.hom(a1,a2) = f.acat.hom(a2,a1): an element a: A2 -> A1

                def entry(combo, idx, a1=a1, a2=a2, b=b):
                    da, dpsi = combo
                    avec = Mat.basis_column(field, f.acat.hom(a2, a1).dim(da), idx[0])
                    src_mhc = mhcs[(a1, b)]
                    tgt_mhc = mhcs[(a2, b)]
                    psi_amb = src_mhc.inclusion.component(dpsi) @ \
                        Mat.basis_column(field, comps[(a1, b)].dim(dpsi), idx[1])
                    out_amb = Mat.zero(field, tgt_mhc.ambient.dim(da + dpsi), 1)
                    for x in f.bcat.objects:
                        lam_x = f.lact_family(a2, a1, x, da, avec)
                        psi_x = src_mhc.layouts[x].family_from_vector(
                            dpsi, src_mhc.projs[x].component(dpsi) @ psi_amb)
                        fam = {}
                        for i, mat in lam_x.items():
                            top = psi_x.get(i + da)
                            if top is None:
                                continue
                            prod = top @ mat
                            if not prod.is_zero():
                                fam[i] = prod
                        vec = tgt_mhc.layouts[x].vector_from_family(da + dpsi, fam)
                        out_amb = out_amb + tgt_mhc.injs[x].component(da + dpsi) @ vec
                    if (da % 2) and (dpsi % 2):
                        out_amb = -out_amb
                    return express(a2, b, da + dpsi, out_amb)

                lact[(a1, a2, b)] = lay.map_from_entries(comps[(a2, b)], 0, entry)
    for a in f.acat.objects:
        for b1 in f.bcat.objects:
            for b2 in f.bcat.objects:
                lay = TensorLayout([comps[(a, b2)], bcat_op.hom(b1, b2)])
                # bcat_op.hom(b1,b2) = f.bcat.hom(b2,b1): an element b: B2 -> B1

                def entry(combo, idx, a=a, b1=b1, b2=b2):
                    dpsi, db = combo
                    bvec = Mat.basis_column(field, f.bcat.hom(b2, b1).dim(db), idx[1])
                    src_mhc = mhcs[(a, b2)]
                    tgt_mhc = mhcs[(a, b1)]
                    psi_amb = src_mhc.inclusion.component(dpsi) @ \
                        Mat.basis_column(field, comps[(a, b2)].dim(dpsi), idx[0])
                    out_amb = Mat.zero(field, tgt_mhc.ambient.dim(dpsi + db), 1)
                    for x in f.bcat.objects:
                        pc_x = f.bcat.postcompose_with(x, b2, b1, db, bvec)
                        psi_x = src_mhc.layouts[x].family_from_vector(
                            dpsi, src_mhc.projs[x].component(dpsi) @ psi_amb)
                        fam = {}
                        for i, mat in psi_x.items():
                            top = pc_x.get(i + dpsi)
                            if top is None:
                                continue
                            prod = top @ mat
                            if not prod.is_zero():
                                fam[i] = prod
                        vec = tgt_mhc.layouts[x].vector_from_family(dpsi + db, fam)
                        out_amb = out_amb + tgt_mhc.injs[x].component(dpsi + db) @ vec
                    if (dpsi % 2) and (db % 2):
                        out_amb = -out_amb
                    return express(a, b1, dpsi + db, out_amb)

                ract[(a, b1, b2)] = lay.map_from_entries(comps[(a, b1)], 0, entry)
    return Bimodule(acat_op, bcat_op, comps, lact, ract, name=f"dual({f.name})")


# -- quasi-representability --------------------------------------------------------


@dataclass
class QuasiRepWitness:
    """A representing object with the explicit comparison map h_B -> F_a."""

    obj: object
    cocycle: Mat              # degree-0 cocycle in F(a, obj)
    comparison: ModuleMap     # h_obj -> F_a, verified quasi-iso
    certificates: Dict        # object -> cohomology dims of the cone (all zero)


def yoneda_map_from_cocycle(f: "Bimodule", a, b, cocycle: Mat) -> ModuleMap:
    """The module map h_b -> f_a induced by a degree-0 cocycle e in f(a,b):
    g |-> e . g."""
    bcat = f.bcat
    field = f.field
    rep = Module.representable(bcat, b)
    fa = f.module_at(a)
    comps = {}
    for x in bcat.objects:
        # e . (-): partial evaluation of the right action in slot 0
        fam = element_action(f.ract[(a, x, b)], f.ract_layouts[(a, x, b)], 0, 0, cocycle)
        comps[x] = ChainMap(rep.at(x), fa.at(x), 0, fam)
    return ModuleMap(rep, fa, 0, comps)


def find_quasi_representative(f: "Bimodule", a) -> Optional[QuasiRepWitness]:
    """Deterministic search over objects and H^0 basis classes of f(a, -)."""
    bcat = f.bcat
    for b in bcat.objects:
        rep = f.at(a, b).cohomology()
        basis = rep.rep(0)
        for i in range(basis.cols):
            cocycle = basis.col(i)
            try:
                cmp_map = yoneda_map_from_cocycle(f, a, b, cocycle)
            except ValidationError:
                continue
            certs = {}
            ok = True
            for x in bcat.objects:
                c, _, _ = cone(cmp_map.at(x))
                h = c.cohomology().as_dict()
                certs[x] = h
                if h:
                    ok = False
                    break
            if ok:
                return QuasiRepWitness(b, cocycle, cmp_map, certs)
    return None


# -- restriction -------------------------------------------------------------------


def restrict_bimodule(f: "Bimodule", along: DgFunctor, side: str = "lower") -> "Bimodule":
    """Reindex one side along a strict dg-functor."""
    field = f.field
    if side == "lower":
        if along.target.objects != f.acat.objects:
            raise ValidationError("restriction functor must land in the lower category")
        acat = along.source
        comps = {(a, b): f.at(along.obj_map[a], b)
                 for a in acat.objects for b in f.bcat.objects}
        lact = {}
        ract = {}
        for a1 in acat.objects:
            for a2 in acat.objects:
                for b in f.bcat.objects:
                    lay = TensorLayout([acat.hom(a1, a2), comps[(a1, b)]])

                    def entry(combo, idx, a1=a1, a2=a2, b=b):
                        dh, dx = combo
                        h = along.apply_hom(a1, a2, dh,
                                            Mat.basis_column(field, acat.hom(a1, a2).dim(dh), idx[0]))
                        x = Mat.basis_column(field, comps[(a1, b)].dim(dx), idx[1])
                        return f.lact_apply(along.obj_map[a1], along.obj_map[a2], b, dh, h, dx, x)

                    lact[(a1, a2, b)] = lay.map_from_entries(comps[(a2, b)], 0, entry)
        for a in acat.objects:
            for b1 in f.bcat.objects:
                for b2 in f.bcat.objects:
                    ract[(a, b1, b2)] = f.ract[(along.obj_map[a], b1, b2)]
        return Bimodule(acat, f.bcat, comps, lact, ract, name=f"{f.name}|{along.name}")
    if side == "upper":
        if along.target.objects != f.bcat.objects:
            raise ValidationError("restriction functor must land in the upper category")
        bcat = along.source
        comps = {(a, b): f.at(a, along.obj_map[b])
                 for a in f.acat.objects for b in bcat.objects}
        lact = {}
        ract = {}
        for a1 in f.acat.objects:
            for a2 in f.acat.objects:
                for b in bcat.objects:
                    lact[(a1, a2, b)] = f.lact[(a1, a2, along.obj_map[b])]
        for a in f.acat.objects:
            for b1 in bcat.objects:
                for b2 in bcat.objects:
                    lay = TensorLayout([comps[(a, b2)], bcat.hom(b1, b2)])

                    def entry(combo, idx, a=a, b1=b1, b2=b2):
                        dx, dh = combo
                        x = Mat.basis_column(field, comps[(a, b2)].dim(dx), idx[0])
                        h = along.apply_hom(b1, b2, dh,
                                            Mat.basis_column(field, bcat.hom(b1, b2).dim(dh), idx[1]))
                        return f.ract_apply(a, along.obj_map[b1], along.obj_map[b2], dx, x, dh, h)

                    ract[(a, b1, b2)] = lay.map_from_entries(comps[(a, b1)], 0, entry)
        return Bimodule(f.acat, bcat, comps, lact, ract, name=f"{f.name}|{along.name}")
    raise ValidationError("side must be 'lower' or 'upper'")


# -- hom complexes between bimodules ------------------------------------------------


class BimoduleHomComplex:
    """Maps of bimodules F -> G: families phi_{A,B} commuting with both
    actions up to the Koszul sign of the map degree."""

    def __init__(self, source: "Bimodule", target: "Bimodule", name: str = "BimHom"):
        self.source = source
        self.target = target
        acat, bcat = source.acat, source.bcat
        pairs = [(a, b) for a in acat.objects for b in bcat.objects]
        self.pairs = pairs
        self.layouts = {p: hom_complex(source.at(*p), target.at(*p)) for p in pairs}
        # lower index: phi_{A2,B} o (f . -) = (-1)^{n|f|} (f . -) o phi_{A1,B}
        self.equations = [
            Equation(source.at(a1, b), target.at(a2, b), (
                Term((a2, b), right=(df, source.lact_family(a1, a2, b, df, f))),
                Term((a1, b), left=(df, target.lact_family(a1, a2, b, df, f)), sign=-1, twist=df)))
            for a1 in acat.objects for a2 in acat.objects for df, f in acat.hom_basis(a1, a2)
            for b in bcat.objects]
        # upper index: phi_{A,B1} o (- . f) = (- . f) o phi_{A,B2}
        self.equations += [
            Equation(source.at(a, b2), target.at(a, b1), (
                Term((a, b1), right=(df, source.ract_family(a, b1, b2, df, f))),
                Term((a, b2), left=(df, target.ract_family(a, b1, b2, df, f)), sign=-1)))
            for a in acat.objects for b1 in bcat.objects for b2 in bcat.objects
            for df, f in bcat.hom_basis(b1, b2)]
        (self.ambient, self.injs, self.projs, self.complex,
         self.inclusion) = naturality_subcomplex(self.layouts, self.equations, name=name)


def bimodule_hom_complex(source: "Bimodule", target: "Bimodule") -> BimoduleHomComplex:
    return BimoduleHomComplex(source, target)


def direct_sum_bimodules(summands: Sequence["Bimodule"]) -> "Bimodule":
    """Componentwise direct sum with block-diagonal actions."""
    first = summands[0]
    acat, bcat = first.acat, first.bcat
    field = first.field
    comps = {}
    injs = {}
    projs = {}
    for a in acat.objects:
        for b in bcat.objects:
            total, inj, proj = direct_sum([s.at(a, b) for s in summands])
            comps[(a, b)] = total
            injs[(a, b)] = inj
            projs[(a, b)] = proj
    lact = {}
    ract = {}
    for a1 in acat.objects:
        for a2 in acat.objects:
            for b in bcat.objects:
                lay = TensorLayout([acat.hom(a1, a2), comps[(a1, b)]])

                def entry(combo, idx, a1=a1, a2=a2, b=b):
                    dh, dx = combo
                    h = Mat.basis_column(field, acat.hom(a1, a2).dim(dh), idx[0])
                    vec = Mat.basis_column(field, comps[(a1, b)].dim(dx), idx[1])
                    out = Mat.zero(field, comps[(a2, b)].dim(dh + dx), 1)
                    for i, s in enumerate(summands):
                        part = projs[(a1, b)][i].component(dx) @ vec
                        if part.is_zero():
                            continue
                        acted = s.lact_apply(a1, a2, b, dh, h, dx, part)
                        out = out + injs[(a2, b)][i].component(dh + dx) @ acted
                    return out

                lact[(a1, a2, b)] = lay.map_from_entries(comps[(a2, b)], 0, entry)
    for a in acat.objects:
        for b1 in bcat.objects:
            for b2 in bcat.objects:
                lay = TensorLayout([comps[(a, b2)], bcat.hom(b1, b2)])

                def entry(combo, idx, a=a, b1=b1, b2=b2):
                    dx, dh = combo
                    vec = Mat.basis_column(field, comps[(a, b2)].dim(dx), idx[0])
                    h = Mat.basis_column(field, bcat.hom(b1, b2).dim(dh), idx[1])
                    out = Mat.zero(field, comps[(a, b1)].dim(dx + dh), 1)
                    for i, s in enumerate(summands):
                        part = projs[(a, b2)][i].component(dx) @ vec
                        if part.is_zero():
                            continue
                        acted = s.ract_apply(a, b1, b2, dx, part, dh, h)
                        out = out + injs[(a, b1)][i].component(dx + dh) @ acted
                    return out

                ract[(a, b1, b2)] = lay.map_from_entries(comps[(a, b1)], 0, entry)
    return Bimodule(acat, bcat, comps, lact, ract,
                    name="(+)".join(s.name for s in summands), check=False)
