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
    BalancedTensor,
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
    factor_action,
    hom_complex,
    lifted_block,
    lifted_map,
    morphism_defect,
    naturality_subcomplex,
    pair_action,
    pair_elements,
    quotient_by_relations,
    shift_complex,
    swapped,
    unit_defect,
)
from .dgcat import DgCategory, DgFunctor, opposite
from .errors import ValidationError
from .matrix import Mat, kron_product


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

    def lact_pair(self, a1, a2, b):
        return self.lact_layouts[(a1, a2, b)], self.lact[(a1, a2, b)]

    def ract_pair(self, a, b1, b2):
        return self.ract_layouts[(a, b1, b2)], self.ract[(a, b1, b2)]

    def _check(self):
        acat, bcat = self.acat, self.bcat
        for a, b in itertools.product(acat.objects, bcat.objects):
            if unit_defect(self.lact_pair(a, a, b), acat.id_vector(a), 0) is not None:
                raise ValidationError(f"{self.name}: left action not unital at ({a},{b})")
            if unit_defect(self.ract_pair(a, b, b), bcat.id_vector(b), 1) is not None:
                raise ValidationError(f"{self.name}: right action not unital at ({a},{b})")
        # (f2 o f1) . x = f2 . (f1 . x) for f2 in hom(a2,a3), f1 in hom(a1,a2), x in T(a1,b)
        for a1, a2, a3, b in itertools.product(acat.objects, acat.objects, acat.objects, bcat.objects):
            if associativity_defect(self.lact_pair(a1, a3, b), acat.comp_pair(a1, a2, a3),
                                    self.lact_pair(a2, a3, b), self.lact_pair(a1, a2, b)) is not None:
                raise ValidationError(f"{self.name}: left action not associative")
        # (x . f2) . f1 = x . (f2 o f1) for x in T(a,b3), f2 in hom(b2,b3), f1 in hom(b1,b2)
        for a, b3, b2, b1 in itertools.product(acat.objects, bcat.objects, bcat.objects, bcat.objects):
            if associativity_defect(self.ract_pair(a, b1, b2), self.ract_pair(a, b2, b3),
                                    self.ract_pair(a, b1, b3), bcat.comp_pair(b1, b2, b3)) is not None:
                raise ValidationError(f"{self.name}: right action not associative")
        # (f . x) . g = f . (x . g) for f in hom(a1,a2), x in T(a1,b2), g in hom(b1,b2)
        for a1, a2, b1, b2 in itertools.product(acat.objects, acat.objects, bcat.objects, bcat.objects):
            if associativity_defect(self.ract_pair(a2, b1, b2), self.lact_pair(a1, a2, b2),
                                    self.lact_pair(a1, a2, b1), self.ract_pair(a1, b1, b2)) is not None:
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
    """Cokernel of f (x) x |-> f.x - (-1)^{|f||x|} x.f on the diagonal sum:
    per (f: a2 -> a1, degree tuple) the block inj_a1 . lambda - inj_a2 . rho
    . tau, with the swap tau and its sign from ``swapped``."""
    _square(t)
    cat = t.acat
    ambient, injs, projs = direct_sum([t.at(a, a) for a in cat.objects])
    injections = dict(zip(cat.objects, injs))
    relations: Dict[int, List[Mat]] = {}
    for a1, a2 in itertools.product(cat.objects, repeat=2):
        lact = pair_action(t.lact_pair(a2, a1, a1))
        ract = swapped(pair_action(t.ract_pair(a2, a2, a1)))
        for df, dx in itertools.product(cat.hom(a2, a1).degrees(), t.at(a2, a1).degrees()):
            n = df + dx
            relations.setdefault(n, []).append(injections[a1].component(n) @ lact.block((df, dx)) -
                                               injections[a2].component(n) @ ract.block((df, dx)))
    quot, proj, sections = quotient_by_relations(ambient, relations, name=f"coend({t.name})")
    # the defining relations die in the quotient
    for n, blocks in relations.items():
        if any(not (proj.component(n) @ rel).is_zero() for rel in blocks):
            raise ValidationError("coend projection does not kill the relation span")
    return CoendResult(quot, proj, ambient, injections, sections)


# -- composition of bimodules -----------------------------------------------------


def tensor_bimodule(acat: DgCategory, bcat: DgCategory, parts: Dict, left, left_slot: int,
                    right, right_slot: int, name: str = "T", check: bool = True) -> "Bimodule":
    """The bimodule whose component at (A, B) is the binary tensor
    ``parts[(A, B)]``, plain or balanced: acat acts on its factor
    ``left_slot`` through the left action ``left(a1, a2)``, bcat on its factor
    ``right_slot`` through the right action ``right(b1, b2)``, each descended
    through the sections of a balanced part (see ``factor_action``)."""
    plain = {key: p.layout if isinstance(p, BalancedTensor) else p for key, p in parts.items()}
    lact = {(a1, a2, b): lifted_map([acat.hom(a1, a2), parts[(a1, b)]], parts[(a2, b)],
                                    factor_action(left(a1, a2), left_slot, plain[(a2, b)]))
            for a1, a2, b in itertools.product(acat.objects, acat.objects, bcat.objects)}
    ract = {(a, b1, b2): lifted_map([parts[(a, b2)], bcat.hom(b1, b2)], parts[(a, b1)],
                                    factor_action(right(b1, b2), right_slot, plain[(a, b1)], left=False))
            for a, b1, b2 in itertools.product(acat.objects, bcat.objects, bcat.objects)}
    comps = {key: p.complex for key, p in parts.items()}
    return Bimodule(acat, bcat, comps, lact, ract, name=name, check=check)


def _integrand_over_middle(f: "Bimodule", g: "Bimodule", a, c) -> Bimodule:
    """The square bcat-bimodule B, B' |-> f(a, B') (x) g(B, c): B acts on the
    g factor from the left, B' on the f factor from the right."""
    bcat = f.bcat
    lays = {(b, b2): TensorLayout([f.at(a, b2), g.at(b, c)])
            for b in bcat.objects for b2 in bcat.objects}
    return tensor_bimodule(bcat, bcat, lays, lambda b1, b2: pair_action(g.lact_pair(b1, b2, c)), 1,
                           lambda b1, b2: pair_action(f.ract_pair(a, b1, b2)), 0,
                           name=f"{f.name}(x){g.name}@({a},{c})", check=False)


def compose_bimodules(f: "Bimodule", g: "Bimodule", check: bool = True) -> "Bimodule":
    """Componentwise coend over the shared middle category.

    f is a bimodule over (acat, bcat), g over (bcat, ccat); the result lives
    over (acat, ccat) with the outer actions descended to the coends: acat
    acts on the f factor and ccat on the g factor of each summand
    f(a, B) (x) g(B, c) of a coend's ambient.
    """
    if f.bcat.objects != g.acat.objects:
        raise ValidationError("bimodule composition needs a shared middle category")
    acat, bcat, ccat = f.acat, f.bcat, g.bcat
    coends = {(a, c): coend_of(_integrand_over_middle(f, g, a, c))
              for a in acat.objects for c in ccat.objects}
    comps = {key: res.complex for key, res in coends.items()}
    lays = {(a, b, c): TensorLayout([f.at(a, b), g.at(b, c)])
            for a in acat.objects for b in bcat.objects for c in ccat.objects}

    def descended(h, src, tgt, actions, left):
        """h acting on every summand, lifted through the sections of the
        source coend and projected to the target one; the injections are
        coordinate inclusions, so their transposes project."""
        def block(combo):
            dh, dq = combo if left else combo[::-1]
            eye = Mat.identity(h.field, h.dim(dh))
            out = None
            for b in bcat.objects:
                plain_src = lays[(src[0], b, src[1])]
                flat = factor_action(actions[b], 0 if left else 1, lays[(tgt[0], b, tgt[1])], left)
                plain = lifted_block([h, plain_src] if left else [plain_src, h], combo, flat)
                if plain is None:
                    continue
                lift = coends[src].injections[b].component(dq).transpose() @ coends[src].sections[dq]
                plain = kron_product(plain, eye, lift) if left else kron_product(plain, lift, eye)
                term = coends[tgt].injections[b].component(dh + dq) @ plain
                out = term if out is None else out + term
            return None if out is None else coends[tgt].projection.component(dh + dq) @ out
        return block

    lact = {(a1, a2, c): TensorLayout([acat.hom(a1, a2), comps[(a1, c)]]).map_from_blocks(
        comps[(a2, c)], 0, descended(acat.hom(a1, a2), (a1, c), (a2, c),
                                     {b: pair_action(f.lact_pair(a1, a2, b)) for b in bcat.objects}, True))
        for a1, a2, c in itertools.product(acat.objects, acat.objects, ccat.objects)}
    ract = {(a, c1, c2): TensorLayout([comps[(a, c2)], ccat.hom(c1, c2)]).map_from_blocks(
        comps[(a, c1)], 0, descended(ccat.hom(c1, c2), (a, c2), (a, c1),
                                     {b: pair_action(g.ract_pair(b, c1, c2)) for b in bcat.objects}, False))
        for a, c1, c2 in itertools.product(acat.objects, ccat.objects, ccat.objects)}
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
