"""Right modules and bimodules over dg-categories, with the (co)end calculus.

Conventions:

* a right module M assigns M(A) to each object and a ``Pairing``
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
    Action,
    BalancedTensor,
    ChainMap,
    Complex,
    Equation,
    HomSystem,
    Pairing,
    Piece,
    Retract,
    TensorLayout,
    Term,
    associativity_defect,
    cone_complex,
    cone_retract,
    constrained_subcomplex,
    direct_sum,
    factor_action,
    hom_complex,
    lifted_map,
    morphism_defect,
    permutation_sign,
    postcomposition,
    quotient_by_relations,
    shift_complex,
    slotwise_action,
    swapped,
    through,
    twisted_sum,
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
        self.act: Dict[tuple, Pairing] = {
            (x, y): Pairing.of([self.at(y), cat.hom(x, y)], action.get((x, y)), self.at(x), f"{name}: action {(x, y)}")
            for x, y in itertools.product(cat.objects, repeat=2)}
        if check:
            self._check()

    def at(self, a) -> Complex:
        return self.components[a]

    def total_dim(self) -> int:
        return sum(c.total_dim() for c in self.components.values())

    def _check(self):
        cat = self.cat
        for a in cat.objects:
            if unit_defect(self.act[(a, a)], cat.id_vector(a), 1) is not None:
                raise ValidationError(f"{self.name}: action not unital at {a}")
        for z, y, x in itertools.product(cat.objects, repeat=3):
            # (m . f) . g = m . (f o g) for m in M(z), f in hom(y,z), g in hom(x,y)
            if associativity_defect(self.act[(x, y)], self.act[(y, z)],
                                    self.act[(x, z)], cat.comp[(x, y, z)]) is not None:
                raise ValidationError(
                    f"{self.name}: action not associative via hom({x},{y}),hom({y},{z})")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def representable(cat: DgCategory, a, name: Optional[str] = None) -> "Module":
        comps = {x: cat.hom(x, a) for x in cat.objects}
        action = {(x, y): cat.comp[(x, y, a)].map for x in cat.objects for y in cat.objects}
        return Module(cat, comps, action, name=name or f"h_{a}", check=False)

    @staticmethod
    def zero(cat: DgCategory) -> "Module":
        return Module(cat, {}, {}, name="0", check=False)


def module_on(cat: DgCategory, parts: Dict, summands: Sequence[Module], name: str) -> Module:
    """The module on the complexes of ``parts``, retracts whose piece i
    carries summands[i]: the action by hom(x, y) is
    sum_i out_i o act_i o kron(in_i, 1) over the blocks of the summands'
    actions."""
    action = {(x, y): lifted_map([parts[y], cat.hom(x, y)], parts[x],
                                 [m.act[(x, y)].block for m in summands])
              for x, y in itertools.product(cat.objects, repeat=2)}
    return Module(cat, {a: p.complex for a, p in parts.items()}, action, name=name, check=False)


def shift_module(m: Module, k: int) -> Module:
    """Degree shift; viewing M[k] as k[k] (x) M the action needs no sign."""
    parts = {a: Retract(shift_complex(m.at(a), k), (Piece(m.at(a), k),)) for a in m.cat.objects}
    return module_on(m.cat, parts, [m], name=f"{m.name}[{k}]")


def direct_sum_modules(summands: Sequence[Module]):
    """Returns (sum, injections, projections) as ModuleMaps."""
    cat = summands[0].cat
    sums = {a: twisted_sum([(m.at(a), 0) for m in summands]) for a in cat.objects}
    total = module_on(cat, sums, summands, name="(+)".join(m.name for m in summands))
    injections = [ModuleMap(m, total, 0, {a: ChainMap(m.at(a), s.complex, 0, s.pieces[i].outward)
                                          for a, s in sums.items()}, check=False)
                  for i, m in enumerate(summands)]
    projections = [ModuleMap(total, m, 0, {a: ChainMap(s.complex, m.at(a), 0, s.pieces[i].inward)
                                           for a, s in sums.items()}, check=False)
                   for i, m in enumerate(summands)]
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
            # None: the identity of hom(x, y)
            if morphism_defect(self.source.act[(x, y)], self.target.act[(x, y)], self.at(x),
                               self.at(y), None) is not None:
                raise ValidationError("module map does not respect the action")


def cone_module(phi: ModuleMap):
    """Componentwise cone with the diagonal action; returns
    (cone, include_target, project_to_shifted_source)."""
    if phi.degree != 0:
        raise ValidationError("module cones need degree-0 maps")
    cat = phi.source.cat
    # cone^d = target^d + source^(d+1): the source piece sits one degree up
    cones = {a: cone_retract(phi.at(a)) for a in cat.objects}
    c = module_on(cat, cones, [phi.target, phi.source], name=f"cone({phi.source.name}->{phi.target.name})")
    shifted = shift_module(phi.source, 1)
    incl = ModuleMap(phi.target, c, 0, {a: ChainMap(phi.target.at(a), r.complex, 0, r.pieces[0].outward)
                                        for a, r in cones.items()}, check=False)
    proj = ModuleMap(c, shifted, 0, {a: ChainMap(r.complex, shifted.at(a), 0, r.pieces[1].inward)
                                     for a, r in cones.items()}, check=False)
    return c, incl, proj


class ModuleHomComplex(HomSystem):
    """The complex of module maps M -> N, cut out of the product of the
    objectwise hom-complexes by the action-compatibility system."""

    def __init__(self, source: Module, target: Module, name: str = "ModHom"):
        self.source = source
        self.target = target
        cat = source.cat
        # phi_x o (- . f) = (- . f) o phi_y: the map never crosses f, so no sign
        equations = [Equation(source.at(y), target.at(x), (
                         Term(x, right=(df, source.act[(x, y)].at(1, df, f))),
                         Term(y, left=(df, target.act[(x, y)].at(1, df, f)), sign=-1)))
                     for x in cat.objects for y in cat.objects for df, f in cat.hom_basis(x, y)]
        super().__init__({a: hom_complex(source.at(a), target.at(a)) for a in cat.objects}, equations, name)

    def module_map_from_cocycle(self, degree: int, vec: Mat) -> ModuleMap:
        amb = self.inclusion.component(degree) @ vec
        comps = {}
        for a in self.source.cat.objects:
            block = self.projs[a].component(degree) @ amb
            comps[a] = self.layouts[a].chainmap_from_cocycle(degree, block)
        return ModuleMap(self.source, self.target, degree, comps)


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
        self.lact: Dict[tuple, Pairing] = {
            (a1, a2, b): Pairing.of([acat.hom(a1, a2), self.at(a1, b)], lact.get((a1, a2, b)), self.at(a2, b),
                                    f"{name}: left action {(a1, a2, b)}")
            for a1, a2, b in itertools.product(acat.objects, acat.objects, bcat.objects)}
        self.ract: Dict[tuple, Pairing] = {
            (a, b1, b2): Pairing.of([self.at(a, b2), bcat.hom(b1, b2)], ract.get((a, b1, b2)), self.at(a, b1),
                                    f"{name}: right action {(a, b1, b2)}")
            for a, b1, b2 in itertools.product(acat.objects, bcat.objects, bcat.objects)}
        if check:
            self._check()

    def at(self, a, b) -> Complex:
        return self.components[(a, b)]

    def module_at(self, a) -> Module:
        """The right bcat-module T(a, -)."""
        comps = {b: self.at(a, b) for b in self.bcat.objects}
        action = {(x, y): self.ract[(a, x, y)].map for x in self.bcat.objects for y in self.bcat.objects}
        return Module(self.bcat, comps, action, name=f"{self.name}_{a}", check=False)

    # -- invariants ---------------------------------------------------------

    def _check(self):
        acat, bcat = self.acat, self.bcat
        for a, b in itertools.product(acat.objects, bcat.objects):
            if unit_defect(self.lact[(a, a, b)], acat.id_vector(a), 0) is not None:
                raise ValidationError(f"{self.name}: left action not unital at ({a},{b})")
            if unit_defect(self.ract[(a, b, b)], bcat.id_vector(b), 1) is not None:
                raise ValidationError(f"{self.name}: right action not unital at ({a},{b})")
        # (f2 o f1) . x = f2 . (f1 . x) for f2 in hom(a2,a3), f1 in hom(a1,a2), x in T(a1,b)
        for a1, a2, a3, b in itertools.product(acat.objects, acat.objects, acat.objects, bcat.objects):
            if associativity_defect(self.lact[(a1, a3, b)], acat.comp[(a1, a2, a3)],
                                    self.lact[(a2, a3, b)], self.lact[(a1, a2, b)]) is not None:
                raise ValidationError(f"{self.name}: left action not associative")
        # (x . f2) . f1 = x . (f2 o f1) for x in T(a,b3), f2 in hom(b2,b3), f1 in hom(b1,b2)
        for a, b3, b2, b1 in itertools.product(acat.objects, bcat.objects, bcat.objects, bcat.objects):
            if associativity_defect(self.ract[(a, b1, b2)], self.ract[(a, b2, b3)],
                                    self.ract[(a, b1, b3)], bcat.comp[(b1, b2, b3)]) is not None:
                raise ValidationError(f"{self.name}: right action not associative")
        # (f . x) . g = f . (x . g) for f in hom(a1,a2), x in T(a1,b2), g in hom(b1,b2)
        for a1, a2, b1, b2 in itertools.product(acat.objects, acat.objects, bcat.objects, bcat.objects):
            if associativity_defect(self.ract[(a2, b1, b2)], self.lact[(a1, a2, b2)],
                                    self.lact[(a1, a2, b1)], self.ract[(a1, b1, b2)]) is not None:
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
                    lact[(a1, a2, b)] = cat.comp[(b, a1, a2)].map
        for a in cat.objects:
            for b1 in cat.objects:
                for b2 in cat.objects:
                    ract[(a, b1, b2)] = cat.comp[(b1, b2, a)].map
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

    def through(self, plains: Dict) -> Retract:
        """The coend through its summands, piece A on ``plains[A]``, the
        plain form of T(A, A): lifted by the sections and projected onto the
        summand, and back by the injection and the projection.  The
        injections are coordinate inclusions, so their transposes project."""
        return Retract(self.complex, tuple(
            Piece(plains[a], 0,
                  {d: inj.component(d).transpose() @ s for d, s in self.sections.items()},
                  {d: p @ inj.component(d) for d, p in self.projection.components.items()})
            for a, inj in self.injections.items()))


def _square(t: Bimodule):
    if t.acat is not t.bcat and t.acat.objects != t.bcat.objects:
        raise ValidationError("(co)ends need a square bimodule")


def end_of(t: Bimodule) -> EndResult:
    """Sign-twisted naturality kernel inside the product of diagonal
    components: per degree, the rows that each f: a -> a2 imposes, on all
    ambient basis columns at once."""
    _square(t)
    cat = t.acat
    ambient, injs, projs = direct_sum([t.at(a, a) for a in cat.objects])
    projections = dict(zip(cat.objects, projs))
    constraints: Dict[int, Mat] = {}
    for n in ambient.degrees():
        parts = {a: projections[a].component(n) for a in cat.objects}
        rows: List[tuple] = []
        for a in cat.objects:
            for a2 in cat.objects:
                for df, f in cat.hom_basis(a, a2):
                    lhs = t.lact[(a, a2, a)].apply(df, f, n, parts[a])
                    rhs = t.ract[(a2, a, a2)].apply(n, parts[a2], df, f)
                    if (df % 2) and (n % 2):
                        rhs = -rhs
                    rows.extend((lhs - rhs).entries)
        if rows:
            constraints[n] = Mat._wrap(t.field, len(rows), ambient.dim(n), tuple(rows))
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
        lact = t.lact[(a2, a1, a1)]
        ract = swapped(t.ract[(a2, a2, a1)])
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


def bimodule_on(acat: DgCategory, bcat: DgCategory, parts: Dict, left, right, name: str,
                check: bool = True) -> "Bimodule":
    """The bimodule on the complexes of ``parts``, keyed (A, B): tensors or
    retracts.  ``left(a1, a2, b)`` and ``right(a, b1, b2)`` give
    the plain blocks of the two actions, one per piece, each lifted through
    the parts as sum_i out_i o act_i o kron(in_i) (see ``lifted_map``); the
    bimodule counterpart of ``module_on``."""
    lact = {(a1, a2, b): lifted_map([acat.hom(a1, a2), parts[(a1, b)]], parts[(a2, b)], left(a1, a2, b))
            for a1, a2, b in itertools.product(acat.objects, acat.objects, bcat.objects)}
    ract = {(a, b1, b2): lifted_map([parts[(a, b2)], bcat.hom(b1, b2)], parts[(a, b1)], right(a, b1, b2))
            for a, b1, b2 in itertools.product(acat.objects, bcat.objects, bcat.objects)}
    return Bimodule(acat, bcat, {key: p.complex for key, p in parts.items()}, lact, ract, name=name, check=check)


def tensor_bimodule(acat: DgCategory, bcat: DgCategory, parts: Dict, left, left_slot: int,
                    right, right_slot: int, name: str = "T", check: bool = True) -> "Bimodule":
    """The bimodule whose component at (A, B) is the binary tensor
    ``parts[(A, B)]``, plain or balanced: acat acts on its factor
    ``left_slot`` through the left action ``left(a1, a2)``, bcat on its factor
    ``right_slot`` through the right action ``right(b1, b2)``, each descended
    through the sections of a balanced part (see ``factor_action``)."""
    plain = {key: p.layout if isinstance(p, BalancedTensor) else p for key, p in parts.items()}
    return bimodule_on(acat, bcat, parts,
                       lambda a1, a2, b: [factor_action(left(a1, a2), left_slot, plain[(a2, b)])],
                       lambda a, b1, b2: [factor_action(right(b1, b2), right_slot, plain[(a, b1)], left=False)],
                       name=name, check=check)


def _integrand_over_middle(f: "Bimodule", g: "Bimodule", a, c) -> Bimodule:
    """The square bcat-bimodule B, B' |-> f(a, B') (x) g(B, c): B acts on the
    g factor from the left, B' on the f factor from the right."""
    bcat = f.bcat
    lays = {(b, b2): TensorLayout([f.at(a, b2), g.at(b, c)])
            for b in bcat.objects for b2 in bcat.objects}
    return tensor_bimodule(bcat, bcat, lays, lambda b1, b2: g.lact[(b1, b2, c)], 1,
                           lambda b1, b2: f.ract[(a, b1, b2)], 0,
                           name=f"{f.name}(x){g.name}@({a},{c})", check=False)


def compose_bimodules(f: "Bimodule", g: "Bimodule") -> "Bimodule":
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
    lays = {(a, b, c): TensorLayout([f.at(a, b), g.at(b, c)])
            for a in acat.objects for b in bcat.objects for c in ccat.objects}
    parts = {(a, c): res.through({b: lays[(a, b, c)] for b in bcat.objects}) for (a, c), res in coends.items()}
    return bimodule_on(acat, ccat, parts,
                       lambda a1, a2, c: [factor_action(f.lact[(a1, a2, b)], 0, lays[(a2, b, c)])
                                          for b in bcat.objects],
                       lambda a, c1, c2: [factor_action(g.ract[(b, c1, c2)], 1, lays[(a, b, c1)], left=False)
                                          for b in bcat.objects],
                       name=f"({g.name}o{f.name})")


# -- duality ---------------------------------------------------------------------


def dual_of(f: "Bimodule") -> "Bimodule":
    """Component at (A, B) is the complex of right-module maps f_A -> h_B;
    the result is a bimodule over the opposite categories.  Both actions act
    slotwise on the ambient families, psi |-> psi o (a . -) and
    psi |-> (- o b) o psi with the sign of moving the acting element past
    psi; each flat block is one ``slotwise_action``."""
    acat_op = opposite(f.acat)
    bcat_op = acat_op if f.bcat is f.acat else opposite(f.bcat)
    modules = {a: f.module_at(a) for a in f.acat.objects}
    reps = {b: Module.representable(f.bcat, b) for b in f.bcat.objects}
    mhcs = {(a, b): ModuleHomComplex(modules[a], reps[b], name=f"dual({f.name})@({a},{b})")
            for a in f.acat.objects for b in f.bcat.objects}
    parts = {key: m.retract() for key, m in mhcs.items()}

    def precomposed(a1, a2, b):
        # acat_op.hom(a1,a2) = f.acat.hom(a2,a1): an element a: A2 -> A1
        def block(flat):
            da, dpsi = flat
            out = slotwise_action(mhcs[(a1, b)], mhcs[(a2, b)], f.acat.hom(a2, a1), flat, lambda i: i + da,
                                  lambda x, i: f.lact[(a2, a1, x)].block((da, i)), False)
            return -out if permutation_sign((da, dpsi), (1, 0)) < 0 else out
        return block

    def postcomposed(a, b1, b2):
        # bcat_op.hom(b1,b2) = f.bcat.hom(b2,b1): an element b: B2 -> B1
        by_b = postcomposition(mhcs[(a, b2)], mhcs[(a, b1)], f.bcat.hom(b2, b1),
                               lambda x, db, j: f.bcat.comp[(x, b2, b1)].block((db, j)))
        return swapped(Action((f.bcat.hom(b2, b1), mhcs[(a, b2)].ambient), by_b)).block

    return bimodule_on(acat_op, bcat_op, parts, lambda a1, a2, b: [precomposed(a1, a2, b)],
                       lambda a, b1, b2: [postcomposed(a, b1, b2)], name=f"dual({f.name})")


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
        fam = f.ract[(a, x, b)].at(0, 0, cocycle)
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
                h = cone_complex(cmp_map.at(x)).cohomology().as_dict()
                certs[x] = h
                if h:
                    ok = False
                    break
            if ok:
                return QuasiRepWitness(b, cocycle, cmp_map, certs)
    return None


# -- restriction -------------------------------------------------------------------


def restrict_bimodule(f: "Bimodule", along: DgFunctor) -> "Bimodule":
    """Reindex the lower side along a strict dg-functor: the reindexed action
    is the old one precomposed with kron(F, 1)."""
    F = along.obj_map
    if along.target.objects != f.acat.objects:
        raise ValidationError("restriction functor must land in the lower category")
    acat = along.source
    comps = {(a, b): f.at(F[a], b) for a in acat.objects for b in f.bcat.objects}
    lact = {(a1, a2, b): lifted_map([through(along.hom_map(a1, a2)), comps[(a1, b)]], comps[(a2, b)],
                                    [f.lact[(F[a1], F[a2], b)].block])
            for a1, a2, b in itertools.product(acat.objects, acat.objects, f.bcat.objects)}
    ract = {(a, b1, b2): f.ract[(F[a], b1, b2)].map
            for a, b1, b2 in itertools.product(acat.objects, f.bcat.objects, f.bcat.objects)}
    return Bimodule(acat, f.bcat, comps, lact, ract, name=f"{f.name}|{along.name}")


# -- hom complexes between bimodules ------------------------------------------------


class BimoduleHomComplex(HomSystem):
    """Maps of bimodules F -> G: families phi_{A,B} commuting with both
    actions up to the Koszul sign of the map degree."""

    def __init__(self, source: "Bimodule", target: "Bimodule"):
        self.source = source
        self.target = target
        acat, bcat = source.acat, source.bcat
        pairs = [(a, b) for a in acat.objects for b in bcat.objects]
        self.pairs = pairs
        # lower index: phi_{A2,B} o (f . -) = (-1)^{n|f|} (f . -) o phi_{A1,B}
        self.equations = [
            Equation(source.at(a1, b), target.at(a2, b), (
                Term((a2, b), right=(df, source.lact[(a1, a2, b)].at(0, df, f))),
                Term((a1, b), left=(df, target.lact[(a1, a2, b)].at(0, df, f)), sign=-1, twist=df)))
            for a1 in acat.objects for a2 in acat.objects for df, f in acat.hom_basis(a1, a2)
            for b in bcat.objects]
        # upper index: phi_{A,B1} o (- . f) = (- . f) o phi_{A,B2}
        self.equations += [
            Equation(source.at(a, b2), target.at(a, b1), (
                Term((a, b1), right=(df, source.ract[(a, b1, b2)].at(1, df, f))),
                Term((a, b2), left=(df, target.ract[(a, b1, b2)].at(1, df, f)), sign=-1)))
            for a in acat.objects for b1 in bcat.objects for b2 in bcat.objects
            for df, f in bcat.hom_basis(b1, b2)]
        super().__init__({p: hom_complex(source.at(*p), target.at(*p)) for p in pairs}, self.equations,
                         name="BimHom")


def bimodule_hom_complex(source: "Bimodule", target: "Bimodule") -> BimoduleHomComplex:
    return BimoduleHomComplex(source, target)


def direct_sum_bimodules(summands: Sequence["Bimodule"]) -> "Bimodule":
    """Componentwise direct sum with block-diagonal actions."""
    first = summands[0]
    acat, bcat = first.acat, first.bcat
    parts = {(a, b): twisted_sum([(s.at(a, b), 0) for s in summands])
             for a in acat.objects for b in bcat.objects}
    return bimodule_on(acat, bcat, parts, lambda a1, a2, b: [s.lact[(a1, a2, b)].block for s in summands],
                       lambda a, b1, b2: [s.ract[(a, b1, b2)].block for s in summands],
                       name="(+)".join(s.name for s in summands), check=False)
