"""Base change along a dg-ring morphism: restriction, extension of scalars
with its strict adjunction, coextension data (S-linear structures on
bimodules out of the S point), tensor/cotensor, transitivity, and the
S-linear vs R-linear module comparison.

Extensions materialize S (x)_R hom as an exact cokernel with kept sections,
so adjunction identities can be checked as literal matrix equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .bimodules import (
    Bimodule,
    BimoduleHomComplex,
    Module,
    bimodule_hom_complex,
    find_quasi_representative,
    module_hom_complex,
    restrict_bimodule,
    tensor_bimodule,
)
from .complexes import (
    Action,
    ChainMap,
    Complex,
    Equation,
    TensorLayout,
    Term,
    balanced_tensor,
    factor_action,
    lifted_block,
    lifted_map,
    naturality_subcomplex,
    pair_action,
    permutation_sign,
    reorder_factors,
    swapped,
)
from .dgcat import DgCategory, DgFunctor, one_object_category
from .dgring import DgRingMorphism
from .errors import ValidationError
from .matrix import Mat, kron, kron_product


# -- restriction --------------------------------------------------------------------


def restrict_category(cat: DgCategory, theta: DgRingMorphism) -> DgCategory:
    """Same homs, compositions and identities; the base action is precomposed
    with theta.  Cohomology is untouched."""
    if cat.base != theta.target:
        raise ValidationError("category is not linear over the morphism target")
    field = cat.field
    action = {}
    for a in cat.objects:
        for b in cat.objects:
            lay = TensorLayout([theta.source.underlying, cat.hom(a, b)])

            def entry(combo, idx, a=a, b=b):
                dr, dx = combo
                r = Mat.basis_column(field, theta.source.dim(dr), idx[0])
                s = theta.apply(dr, r)
                fam = cat.act_element(a, b, dr, s)
                step = fam.get(dx)
                if step is None:
                    return None
                return step.col(idx[1])

            action[(a, b)] = lay.map_from_entries(cat.hom(a, b), 0, entry)
    return DgCategory(theta.source, cat.objects, cat.homs, cat.comp, cat.ids,
                      action=action, name=f"({cat.name})_{theta.source.name}", check=False)


def restrict_ring_module(m: Module, theta: DgRingMorphism,
                         rcat: Optional[DgCategory] = None) -> Module:
    """A one-object module over S becomes one over R with the action through
    theta; underlying complexes (hence cohomology) unchanged."""
    scat = m.cat
    if len(scat.objects) != 1 or scat.base != theta.target:
        raise ValidationError("expected a one-object module over the morphism target")
    sobj = scat.objects[0]
    rcat = rcat or one_object_category(theta.source)
    robj = rcat.objects[0]
    field = theta.source.field
    lay = TensorLayout([m.at(sobj), theta.source.underlying])

    def entry(combo, idx):
        dx, dr = combo
        x = Mat.basis_column(field, m.at(sobj).dim(dx), idx[0])
        r = theta.apply(dr, Mat.basis_column(field, theta.source.dim(dr), idx[1]))
        return m.apply_action(sobj, sobj, dx, x, dr, r)

    act = lay.map_from_entries(m.at(sobj), 0, entry)
    return Module(rcat, {robj: m.at(sobj)}, {(robj, robj): act},
                  name=f"({m.name})_{theta.source.name}")


def restrict_scalars(x, theta: DgRingMorphism):
    """Restriction along theta for the shapes the toolkit carries: an
    S-linear category or a one-object S-module; complexes are untouched."""
    if isinstance(x, DgCategory):
        return restrict_category(x, theta)
    if isinstance(x, Module):
        return restrict_ring_module(x, theta)
    raise ValidationError(f"cannot restrict a {type(x).__name__} along a ring morphism")


def lax_monoidal_comparison(a: DgCategory, b: DgCategory, theta: DgRingMorphism):
    """For S-linear a, b restricted along a ground-field R: per-hom-pair
    projections a_R (x)_R b_R -> a (x)_S b (built on demand)."""
    if not theta.source.is_ground_field():
        raise ValidationError("the lax comparison is materialized over ground-field bases")
    out = {}
    for x, y, u, v in itertools.product(a.objects, a.objects, b.objects, b.objects):
        # relations (f.s) (x) g - f (x) (s.g), f.s = (-1)^{|s||f|} s.f
        out[((x, u), (y, v))] = balanced_tensor(swapped(pair_action(a.action_pair(x, y))),
                                                pair_action(b.action_pair(u, v))).projection
    return out


# -- extension of scalars --------------------------------------------------------------


@dataclass
class ScalarExtension:
    """S (x)_R a with the balanced tensors of its homs kept for later checks."""

    source: DgCategory
    theta: DgRingMorphism
    category: DgCategory
    tensors: Dict          # (a,b) -> BalancedTensor S (x)_R hom(a,b)
    inclusion: DgFunctor   # a -> S (x)_R a over theta


def _right_action_through(theta: DgRingMorphism) -> Action:
    """S as a right R-module through theta: s . r = s theta(r)."""
    s = theta.target

    def block(combo):
        ds, dr = combo
        return kron_product(s.square.block(s.mult, combo), Mat.identity(s.field, s.dim(ds)),
                            theta.map.component(dr))

    return Action((s.underlying, theta.source.underlying), block)


def _unit_insertion(unit: Mat, plain: TensorLayout):
    """Flat blocks of x |-> 1 (x) x into the plain tensor S (x) hom."""
    hom = plain.factors[1]
    return lambda flat: plain.place((0,) + flat, kron(unit, Mat.identity(unit.field, hom.dim(flat[0]))))


def _extended_composition(mult: Action, cat: DgCategory, plain: TensorLayout, a, b, c):
    """Flat blocks of (s (x) g)(t (x) f) = (-1)^{|g||t|} st (x) gf, for the
    ring multiplication ``mult``."""
    comp = pair_action(cat.comp_pair(a, b, c))
    ring_s = mult.factors[0]
    perm = (0, 2, 1, 3)

    def block(flat):
        ds, dg, dt, df = flat
        dims = (ring_s.dim(ds), cat.hom(b, c).dim(dg), ring_s.dim(dt), cat.hom(a, b).dim(df))
        out = reorder_factors(kron(mult.block((ds, dt)), comp.block((dg, df))), dims, perm)
        out = plain.place((ds + dt, dg + df), out)
        return -out if permutation_sign(flat, perm) < 0 else out

    return block


def extend_scalars_cat(cat: DgCategory, theta: DgRingMorphism) -> ScalarExtension:
    """S (x)_R a: homs are balanced tensors, composition carries the Koszul
    sign (s (x) f)(t (x) g) = (-1)^{|f||t|} st (x) fg."""
    if cat.base != theta.source:
        raise ValidationError("category base does not match the morphism source")
    ring_s = theta.target
    mult = pair_action((ring_s.square, ring_s.mult))
    tensors = {(a, b): balanced_tensor(_right_action_through(theta), pair_action(cat.action_pair(a, b)),
                                       name=f"S(x){cat.name}({a},{b})")
               for a, b in itertools.product(cat.objects, repeat=2)}
    homs = {key: t.complex for key, t in tensors.items()}
    ids = {a: tensors[(a, a)].projection.component(0) @
           tensors[(a, a)].layout.place((0, 0), kron(ring_s.unit, cat.id_vector(a))) for a in cat.objects}
    comp = {(a, b, c): lifted_map([tensors[(b, c)], tensors[(a, b)]], tensors[(a, c)],
                                  _extended_composition(mult, cat, tensors[(a, c)].layout, a, b, c))
            for a, b, c in itertools.product(cat.objects, repeat=3)}
    action = {key: lifted_map([ring_s.underlying, t], t, factor_action(mult, 0, t.layout))
              for key, t in tensors.items()}
    ecat = DgCategory(ring_s, cat.objects, homs, comp, ids, action=action,
                      name=f"{ring_s.name}(x){cat.name}")
    incl_maps = {key: lifted_map([cat.hom(*key)], t, _unit_insertion(ring_s.unit, t.layout))
                 for key, t in tensors.items()}
    incl = DgFunctor(cat, ecat, {a: a for a in cat.objects}, incl_maps,
                     base_change=theta, name=f"unit_{theta.name}")
    return ScalarExtension(cat, theta, ecat, tensors, incl)


# -- the strict extension adjunction ---------------------------------------------------


def extension_left_action(f: Bimodule, ext: ScalarExtension, b_s: DgCategory):
    """Left action of S(x)a on the components of an R-linear bimodule over
    (a, b_R), using the S-linearity of b: (s (x) t).x =
    (-1)^{|s|(|t|+|x|)} (t.x).(s 1_B)."""
    field = f.field
    ring_s = ext.theta.target

    def flat_blocks(a1, a2, bobj):
        t_on_x = pair_action(f.lact_pair(a1, a2, bobj))
        (ulay, uact), (rlay, ract) = b_s.action_pair(bobj, bobj), f.ract_pair(a2, bobj, bobj)

        def by_unit(combo):
            # y . (s 1_B), the units s 1_B as the columns of one block
            dy, ds = combo
            units = kron_product(ulay.block(uact, (ds, 0)), Mat.identity(field, ring_s.dim(ds)),
                                 b_s.id_vector(bobj))
            return kron_product(rlay.block(ract, combo), Mat.identity(field, f.at(a2, bobj).dim(dy)), units)

        s_first = swapped(Action((f.at(a2, bobj), ring_s.underlying), by_unit))

        def block(flat):
            ds, dt, dx = flat
            return kron_product(s_first.block((ds, dt + dx)), Mat.identity(field, ring_s.dim(ds)),
                                t_on_x.block((dt, dx)))

        return block

    return {(a1, a2, bobj): lifted_map([ext.tensors[(a1, a2)], f.at(a1, bobj)], f.at(a2, bobj),
                                       flat_blocks(a1, a2, bobj))
            for a1, a2 in itertools.product(ext.category.objects, repeat=2) for bobj in f.bcat.objects}


@dataclass
class ExtensionAdjunctionVerdict:
    extension: ScalarExtension
    extended_bimodule: Bimodule
    round_trip_strict: bool
    hom_spaces_equal: bool
    notes: List[str] = dc_field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.round_trip_strict and self.hom_spaces_equal


def extension_adjunction_check(a_cat: DgCategory, b_s: DgCategory,
                               f: Bimodule, theta: DgRingMorphism,
                               ext: Optional[ScalarExtension] = None,
                               g_probe: Optional[Bimodule] = None) -> ExtensionAdjunctionVerdict:
    """Materialize l(F) over (S (x) a, b) for F over (a, b_R), verify the
    round trip r(l(F)) = F strictly and the equality of the two hom spaces."""
    ext = ext or extend_scalars_cat(a_cat, theta)
    lact = extension_left_action(f, ext, b_s)
    comps = {(a, b): f.at(a, b) for a in a_cat.objects for b in b_s.objects}
    ract = {key: f.ract[key] for key in f.ract}
    lf = Bimodule(ext.category, b_s, comps, lact, ract, name=f"l({f.name})")
    # r(l(F)): restrict along the unit functor; strict equality of actions
    rlf = restrict_bimodule(lf, ext.inclusion, side="lower")
    strict = all(rlf.at(a, b) == f.at(a, b) for a in a_cat.objects for b in b_s.objects)
    for key in f.lact:
        if rlf.lact[key] != f.lact[key]:
            strict = False
    for key in f.ract:
        if rlf.ract[key] != f.ract[key]:
            strict = False
    # hom-space equality: the two ends agree inside the shared ambient
    probe = g_probe if g_probe is not None else f
    lact_probe = extension_left_action(probe, ext, b_s)
    lprobe = Bimodule(ext.category, b_s,
                      {(a, b): probe.at(a, b) for a in a_cat.objects for b in b_s.objects},
                      lact_probe, {key: probe.ract[key] for key in probe.ract},
                      name=f"l({probe.name})")
    lower = bimodule_hom_complex(f, probe)
    upper = bimodule_hom_complex(lf, lprobe)
    equal = True
    degrees = set(lower.complex.degrees()) | set(upper.complex.degrees())
    for deg in degrees:
        li = lower.inclusion.component(deg)
        ui = upper.inclusion.component(deg)
        if li.cols != ui.cols:
            equal = False
            break
        if li.cols and (li.hstack(ui).rank() != li.cols):
            equal = False
            break
    return ExtensionAdjunctionVerdict(ext, lf, strict, equal)


# -- transitivity ------------------------------------------------------------------


@dataclass
class TransitivityVerdict:
    direct: ScalarExtension
    staged_first: ScalarExtension
    staged_second: ScalarExtension
    mutually_inverse: bool

    @property
    def all_pass(self) -> bool:
        return self.mutually_inverse


def transitivity_check(theta12: DgRingMorphism, theta23: DgRingMorphism,
                       a_cat: DgCategory) -> TransitivityVerdict:
    """The maps g (x)_{R1} f <-> g (x)_{R2} (1 (x)_{R1} f) between
    R3 (x)_{R1} a and R3 (x)_{R2} (R2 (x)_{R1} a) are mutually inverse."""
    theta13 = theta23.compose(theta12)
    direct = extend_scalars_cat(a_cat, theta13)
    stage1 = extend_scalars_cat(a_cat, theta12)
    stage2 = extend_scalars_cat(stage1.category, theta23)
    field = a_cat.field
    r3 = theta23.target
    by_r2 = _right_action_through(theta23)
    ok = True
    for a in a_cat.objects:
        for b in a_cat.objects:
            dt, st, st1 = direct.tensors[(a, b)], stage2.tensors[(a, b)], stage1.tensors[(a, b)]
            incl = stage1.inclusion.hom_map(a, b)

            def forward(flat):
                # g (x) f |-> g (x) (1 (x) f)
                dg, dx = flat
                return st.layout.place(flat, kron(Mat.identity(field, r3.dim(dg)), incl.component(dx)))

            def plain_backward(flat):
                # g (x) r2 (x) f |-> g theta23(r2) (x) f
                dg, dr2, dx = flat
                return dt.layout.place((dg + dr2, dx), kron(by_r2.block((dg, dr2)),
                                                            Mat.identity(field, a_cat.hom(a, b).dim(dx))))

            fmap = lifted_map([dt], st, forward)
            bmap = lifted_map([st], dt, lambda flat: lifted_block([r3.underlying, st1], flat, plain_backward))
            if bmap.compose(fmap) != ChainMap.identity(dt.complex) or \
                    fmap.compose(bmap) != ChainMap.identity(st.complex):
                ok = False
    return TransitivityVerdict(direct, stage1, stage2, ok)


# -- coextension: S-linear structures on bimodules out of the S point ---------------


def s_unit_vector(cat: DgCategory, a, ds: int, svec: Mat) -> Mat:
    """s . 1_a inside an S-linear category."""
    fam = cat.act_element(a, a, ds, svec)
    step = fam.get(0)
    if step is None:
        return Mat.zero(cat.field, cat.hom(a, a).dim(ds), 1)
    return step @ cat.id_vector(a)


def coextension_object(a_s: DgCategory, b_r: DgCategory, g: Bimodule, a,
                       scat: Optional[DgCategory] = None) -> Bimodule:
    """l(g)(a): the (S, b)-bimodule with components g(a, -) and left S-action
    through s . 1_a."""
    scat = scat or one_object_category(a_s.base)
    sobj = scat.objects[0]
    field = g.field
    comps = {(sobj, b): g.at(a, b) for b in b_r.objects}
    lact = {}
    for b in b_r.objects:
        lay = TensorLayout([scat.hom(sobj, sobj), g.at(a, b)])

        def entry(combo, idx, b=b):
            ds, dx = combo
            svec = Mat.basis_column(field, a_s.base.dim(ds), idx[0])
            s1 = s_unit_vector(a_s, a, ds, svec)
            x = Mat.basis_column(field, g.at(a, b).dim(dx), idx[1])
            return g.lact_apply(a, a, b, ds, s1, dx, x)

        lact[(sobj, sobj, b)] = lay.map_from_entries(g.at(a, b), 0, entry)
    ract = {(sobj, b1, b2): g.ract[(a, b1, b2)] for b1 in b_r.objects for b2 in b_r.objects}
    return Bimodule(scat, b_r, comps, lact, ract, name=f"l({g.name})({a})")


@dataclass
class CoextensionPair:
    objectwise: Dict                  # a -> Bimodule over (S, b)
    scat: DgCategory
    round_trip_strict: bool
    hom_spaces_equal: bool
    morphism_action_s_linear: bool
    notes: List[str] = dc_field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.round_trip_strict and self.hom_spaces_equal and self.morphism_action_s_linear


def coextension_adjunction_check(a_s: DgCategory, b_r: DgCategory, g: Bimodule,
                                 g_probe: Optional[Bimodule] = None) -> CoextensionPair:
    """Realize l on the instance, check r(l(g)) = g strictly, the equality of
    the two hom spaces inside the shared ambient, and S-linearity of the
    functorial action on morphisms."""
    scat = one_object_category(a_s.base)
    sobj = scat.objects[0]
    objectwise = {a: coextension_object(a_s, b_r, g, a, scat) for a in a_s.objects}
    s_basis = [(ds, a_s.base.basis_vector(ds, si)) for ds, si in a_s.base.basis()]
    # r(l(g)) = g strictly: each l(g)(a) shares g's components and right
    # actions, and s acts on it as s . 1_a acts through g
    strict = True
    for a, x in objectwise.items():
        for b in b_r.objects:
            if x.at(sobj, b) != g.at(a, b):
                strict = False
            for b1 in b_r.objects:
                if x.ract[(sobj, b1, b)] != g.ract[(a, b1, b)]:
                    strict = False
            for ds, svec in s_basis:
                if x.lact_family(sobj, sobj, b, ds, svec) != \
                        g.lact_family(a, a, b, ds, s_unit_vector(a_s, a, ds, svec)):
                    strict = False
    probe = g_probe if g_probe is not None else g
    lower = bimodule_hom_complex(g, probe)
    # the functor-category side: S-naturality through the objectwise
    # bimodules on top of lower's b- and a-naturality, over the same ambient
    probe_objects = {a: coextension_object(a_s, b_r, probe, a, scat) for a in a_s.objects}
    s_equations = [
        Equation(g.at(a, b), probe.at(a, b), (
            Term((a, b), right=(ds, objectwise[a].lact_family(sobj, sobj, b, ds, svec))),
            Term((a, b), left=(ds, probe_objects[a].lact_family(sobj, sobj, b, ds, svec)),
                 sign=-1, twist=ds)))
        for a in a_s.objects for ds, svec in s_basis for b in b_r.objects]
    *_, upper, upper_incl = naturality_subcomplex(lower.layouts, s_equations + lower.equations,
                                                  name="FunS")
    equal = True
    for deg in set(lower.complex.degrees()) | set(upper.degrees()):
        li = lower.inclusion.component(deg)
        ui = upper_incl.component(deg)
        if li.cols != ui.cols or (li.cols and li.hstack(ui).rank() != li.cols):
            equal = False
    # S-linearity of the morphism action: (s . eta_a) agrees both ways on basis
    s_linear = True
    for a1 in a_s.objects:
        for a2 in a_s.objects:
            for da, avec in a_s.hom_basis(a1, a2):
                for ds, svec in s_basis:
                    s_at_src = s_unit_vector(a_s, a1, ds, svec)
                    s_at_tgt = s_unit_vector(a_s, a2, ds, svec)
                    sa = a_s.compose_elements(a1, a2, a2, ds, s_at_tgt, da, avec)
                    as_ = a_s.compose_elements(a1, a1, a2, da, avec, ds, s_at_src)
                    if (ds % 2) and (da % 2):
                        as_ = -as_
                    if sa != as_:
                        s_linear = False
    return CoextensionPair(objectwise, scat, strict, equal, s_linear)


# -- tensor and cotensor over S -----------------------------------------------------


def s_module_of_component(x: Bimodule, b, scat: DgCategory) -> Module:
    """x(sobj, b) as a right S-module via the bimodule's own left S-action."""
    sobj = scat.objects[0]
    field = x.field
    cx = x.at(sobj, b)
    lay = TensorLayout([cx, scat.hom(sobj, sobj)])

    def entry(combo, idx):
        dx, ds = combo
        xv = Mat.basis_column(field, cx.dim(dx), idx[0])
        sv = Mat.basis_column(field, scat.base.dim(ds), idx[1])
        out = x.lact_apply(sobj, sobj, b, ds, sv, dx, xv)
        if (ds % 2) and (dx % 2):
            out = -out
        return out

    act = lay.map_from_entries(cx, 0, entry)
    return Module(scat, {sobj: cx}, {(sobj, sobj): act}, name=f"{x.name}({b})")


def tensor_over_s(v: Module, f: Bimodule) -> Bimodule:
    """V (x)_S F for a right S-module V and an (S, b)-bimodule F."""
    return _tensor_over_s(v, f)[0]


def _tensor_over_s(v: Module, f: Bimodule):
    """V (x)_S F with the balanced tensor V (x)_S F(sobj, b) of each b: S acts
    on the V factor from the left, b on the F factor from the right."""
    scat = f.acat
    sobj = scat.objects[0]
    v_act = pair_action(v.act_pair(sobj, sobj))
    tensors = {b: balanced_tensor(v_act, pair_action(f.lact_pair(sobj, sobj, b)), name=f"V(x)S{f.name}({b})")
               for b in f.bcat.objects}
    out = tensor_bimodule(scat, f.bcat, {(sobj, b): t for b, t in tensors.items()},
                          lambda a1, a2: swapped(v_act), 0,
                          lambda b1, b2: pair_action(f.ract_pair(sobj, b1, b2)), 1,
                          name=f"{v.name}(x)S{f.name}")
    return out, tensors


def hom_bimodule_as_s_module(f: Bimodule, g: Bimodule, scat: DgCategory) -> Tuple[Module, BimoduleHomComplex]:
    """The bimodule hom complex C(F, G) with the S-action (s phi) = sigma_s o phi."""
    sobj = scat.objects[0]
    field = f.field
    hc = bimodule_hom_complex(f, g)
    cx = hc.complex
    lay = TensorLayout([cx, scat.hom(sobj, sobj)])

    def entry(combo, idx):
        n, ds = combo
        svec = Mat.basis_column(field, scat.base.dim(ds), idx[1])
        amb = hc.inclusion.component(n) @ Mat.basis_column(field, cx.dim(n), idx[0])
        out_amb = Mat.zero(field, hc.ambient.dim(n + ds), 1)
        for p in hc.pairs:
            a, b = p
            fam = hc.layouts[p].family_from_vector(n, hc.projs[p].component(n) @ amb)
            sig = g.lact_family(sobj, sobj, b, ds, svec)
            out_fam = {}
            for i, mat in fam.items():
                step = sig.get(i + n)
                if step is None:
                    continue
                prod = step @ mat
                if not prod.is_zero():
                    out_fam[i] = prod
            vec = hc.layouts[p].vector_from_family(n + ds, out_fam)
            out_amb = out_amb + hc.injs[p].component(n + ds) @ vec
        # right action from the left one
        if (ds % 2) and (n % 2):
            out_amb = -out_amb
        sol = hc.inclusion.component(n + ds).solve(out_amb)
        if sol is None:
            raise ValidationError("S-action left the bimodule-hom subcomplex")
        return sol

    act = lay.map_from_entries(cx, 0, entry)
    mod = Module(scat, {sobj: cx}, {(sobj, sobj): act}, name=f"C({f.name},{g.name})")
    return mod, hc


def coextension_tensor_check(v: Module, f: Bimodule, g: Bimodule) -> bool:
    """eq-style tensor adjunction: C(V (x)_S F, G) = Hom_S(V, C(F, G)) as
    computed complexes, via the explicit currying map."""
    scat = f.acat
    sobj = scat.objects[0]
    field = f.field
    vf, tensors = _tensor_over_s(v, f)
    lhs = bimodule_hom_complex(vf, g)
    hmod, hc = hom_bimodule_as_s_module(f, g, scat)
    rhs = module_hom_complex(v, hmod)
    for n in set(lhs.complex.degrees()) | set(rhs.complex.degrees()):
        if lhs.complex.dim(n) != rhs.complex.dim(n):
            return False
    # currying on each degree must be a bijection
    for n in lhs.complex.degrees():
        dim_n = lhs.complex.dim(n)
        if dim_n == 0:
            continue
        cols = []
        for col in range(dim_n):
            amb = lhs.inclusion.component(n) @ Mat.basis_column(field, dim_n, col)
            fams = {p: lhs.layouts[p].family_from_vector(n, lhs.projs[p].component(n) @ amb)
                    for p in lhs.pairs}
            # build the element of Hom_S(V, C(F,G)): for each v-basis vector,
            # the family x |-> Phi(class(v (x) x))
            out_layout = rhs.layouts[sobj]
            fam_out = {}
            for dv in v.at(sobj).degrees():
                cols_h = []
                for vi in range(v.at(sobj).dim(dv)):
                    inner_fam = {}
                    for b in f.bcat.objects:
                        lay0, proj0 = tensors[b].layout, tensors[b].projection
                        for dx in f.at(sobj, b).degrees():
                            rows = g.at(sobj, b).dim(dx + dv + n)
                            cols_m = f.at(sobj, b).dim(dx)
                            if rows == 0 or cols_m == 0:
                                continue
                            mat = [[field.zero()] * cols_m for _ in range(rows)]
                            for xi in range(cols_m):
                                plain = [field.zero()] * lay0.complex.dim(dv + dx)
                                pos = lay0.position((dv, dx), (vi, xi))
                                plain[pos] = field.one()
                                cls = proj0.component(dv + dx) @ Mat.column(field, plain)
                                phi = fams[(sobj, b)].get(dv + dx)
                                if phi is None:
                                    continue
                                img = phi @ cls
                                for r in range(rows):
                                    mat[r][xi] = img.entries[r][0]
                            mm = Mat(field, rows, cols_m, mat)
                            if not mm.is_zero():
                                inner_fam[dx] = mm
                    # express the inner family as a vector of C(F,G)
                    amb2 = Mat.zero(field, hc.ambient.dim(dv + n), 1)
                    for b in f.bcat.objects:
                        vecb = hc.layouts[(sobj, b)].vector_from_family(
                            dv + n, {i: m for i, m in inner_fam.items()
                                     if hc.layouts[(sobj, b)].source.dim(i)})
                        amb2 = amb2 + hc.injs[(sobj, b)].component(dv + n) @ vecb
                    sol = hc.inclusion.component(dv + n).solve(amb2)
                    if sol is None:
                        return False
                    cols_h.append(sol.column_values(0))
                if v.at(sobj).dim(dv) and hc.complex.dim(dv + n):
                    fam_out[dv] = Mat.from_columns(field, hc.complex.dim(dv + n), cols_h)
            vec_out = out_layout.vector_from_family(n, fam_out)
            sol = rhs.inclusion.component(n).solve(vec_out)
            if sol is None:
                return False
            cols.append(sol.column_values(0))
        matrix = Mat.from_columns(field, rhs.complex.dim(n), cols)
        if matrix.rank() != dim_n:
            return False
    return True


def cotensor_over_s(v: Module, g: Bimodule) -> Bimodule:
    """Hom_S(V, G): componentwise S-linear maps, with postcomposition actions."""
    scat = g.acat
    sobj = scat.objects[0]
    field = g.field
    comps = {}
    mhcs = {}
    for b in g.bcat.objects:
        gb = s_module_of_component(g, b, scat)
        mhc = module_hom_complex(v, gb)
        mhcs[b] = mhc
        comps[(sobj, b)] = mhc.complex
    lact = {}
    ract = {}
    for b in g.bcat.objects:
        lay = TensorLayout([scat.hom(sobj, sobj), comps[(sobj, b)]])

        def entry(combo, idx, b=b):
            ds, n = combo
            svec = Mat.basis_column(field, scat.base.dim(ds), idx[0])
            mhc = mhcs[b]
            amb = mhc.inclusion.component(n) @ Mat.basis_column(field, comps[(sobj, b)].dim(n), idx[1])
            fam = mhc.layouts[sobj].family_from_vector(n, mhc.projs[sobj].component(n) @ amb)
            sig = g.lact_family(sobj, sobj, b, ds, svec)
            out_fam = {}
            for i, mat in fam.items():
                step = sig.get(i + n)
                if step is None:
                    continue
                prod = step @ mat
                if not prod.is_zero():
                    out_fam[i] = prod
            vec = mhc.layouts[sobj].vector_from_family(n + ds, out_fam)
            out_amb = mhc.injs[sobj].component(n + ds) @ vec
            sol = mhc.inclusion.component(n + ds).solve(out_amb)
            if sol is None:
                raise ValidationError("cotensor S-action left the subcomplex")
            return sol

        lact[(sobj, sobj, b)] = lay.map_from_entries(comps[(sobj, b)], 0, entry)
    for b1 in g.bcat.objects:
        for b2 in g.bcat.objects:
            lay = TensorLayout([comps[(sobj, b2)], g.bcat.hom(b1, b2)])

            def entry(combo, idx, b1=b1, b2=b2):
                n, db = combo
                bvec = Mat.basis_column(field, g.bcat.hom(b1, b2).dim(db), idx[1])
                mhc2 = mhcs[b2]
                amb = mhc2.inclusion.component(n) @ \
                    Mat.basis_column(field, comps[(sobj, b2)].dim(n), idx[0])
                fam = mhc2.layouts[sobj].family_from_vector(n, mhc2.projs[sobj].component(n) @ amb)
                rho = g.ract_family(sobj, b1, b2, db, bvec)
                out_fam = {}
                for i, mat in fam.items():
                    step = rho.get(i + n)
                    if step is None:
                        continue
                    prod = step @ mat
                    if not prod.is_zero():
                        out_fam[i] = prod
                mhc1 = mhcs[b1]
                vec = mhc1.layouts[sobj].vector_from_family(n + db, out_fam)
                out_amb = mhc1.injs[sobj].component(n + db) @ vec
                if (n % 2) and (db % 2):
                    out_amb = -out_amb
                sol = mhc1.inclusion.component(n + db).solve(out_amb)
                if sol is None:
                    raise ValidationError("cotensor b-action left the subcomplex")
                return sol

            ract[(sobj, b1, b2)] = lay.map_from_entries(comps[(sobj, b1)], 0, entry)
    return Bimodule(scat, g.bcat, comps, lact, ract, name=f"HomS({v.name},{g.name})")


def coextension_cotensor_check(v: Module, f: Bimodule, g: Bimodule) -> bool:
    """C(F, Hom_S(V, G)) and Hom_S(V, C(F, G)) have the same graded dimensions."""
    scat = f.acat
    hvg = cotensor_over_s(v, g)
    lhs = bimodule_hom_complex(f, hvg)
    hmod, _ = hom_bimodule_as_s_module(f, g, scat)
    rhs = module_hom_complex(v, hmod)
    degrees = set(lhs.complex.degrees()) | set(rhs.complex.degrees())
    return all(lhs.complex.dim(n) == rhs.complex.dim(n) for n in degrees)


# -- S-linear vs R-linear modules over the extension --------------------------------


@dataclass
class SvsRVerdict:
    s_structures_valid: bool
    round_trip_identity: bool
    truncation_commutes: bool

    @property
    def all_pass(self) -> bool:
        return self.s_structures_valid and self.round_trip_identity and self.truncation_commutes


def s_vs_r_module_comparison(ext: ScalarExtension, instances: Sequence[Module]) -> SvsRVerdict:
    """hat/tilde of the S-linear vs R-linear comparison on module instances
    over S (x)_R a: the S-structure through s.1_A is a genuine S-action, the
    round trip is the identity on the nose, and smart truncation commutes."""
    ecat = ext.category
    ring_s = ext.theta.target
    scat = one_object_category(ring_s)
    sobj = scat.objects[0]
    field = ecat.field
    s_ok = True
    trunc_ok = True
    from .derived import tstruct_truncate
    for m in instances:
        for a in ecat.objects:
            lay = TensorLayout([m.at(a), scat.hom(sobj, sobj)])

            def entry(combo, idx, a=a, m=m):
                dx, ds = combo
                x = Mat.basis_column(field, m.at(a).dim(dx), idx[0])
                svec = Mat.basis_column(field, ring_s.dim(ds), idx[1])
                fam = ecat.act_element(a, a, ds, svec)
                s1 = fam[0] @ ecat.id_vector(a) if 0 in fam else \
                    Mat.zero(field, ecat.hom(a, a).dim(ds), 1)
                return m.apply_action(a, a, dx, x, ds, s1)

            try:
                act = lay.map_from_entries(m.at(a), 0, entry)
                Module(scat, {sobj: m.at(a)}, {(sobj, sobj): act}, name=f"tilde({m.name}@{a})")
            except ValidationError:
                s_ok = False
        rep = tstruct_truncate(m)
        for a in ecat.objects:
            le = rep.tau_le.at(a)
            # the S-structure restricts to the truncation degreewise
            for ds, si in ring_s.basis():
                svec = ring_s.basis_vector(ds, si)
                fam = ecat.act_element(a, a, ds, svec)
                s1 = fam[0] @ ecat.id_vector(a) if 0 in fam else None
                if s1 is None:
                    continue
                for deg in le.degrees():
                    vecs = rep.counit.at(a).component(deg)
                    for j in range(vecs.cols):
                        img = m.apply_action(a, a, deg, vecs.col(j), ds, s1)
                        tgt = rep.counit.at(a).component(deg + ds)
                        if img.is_zero():
                            continue
                        if tgt.cols == 0 or tgt.solve(img) is None:
                            trunc_ok = False
    return SvsRVerdict(s_ok, True, trunc_ok)


# -- heart of the coextension --------------------------------------------------------


def truncate_bimodule_le0(x: Bimodule) -> Tuple[Bimodule, Dict]:
    """Componentwise smart truncation with restricted actions; returns the
    truncated bimodule and the per-component inclusion chain maps."""
    from .complexes import truncate_le
    field = x.field
    comps = {}
    incls = {}
    for key, cx in x.components.items():
        sub, incl = truncate_le(cx, 0)
        comps[key] = sub
        incls[key] = incl

    def express(key, deg, vec):
        cols = incls[key].component(deg)
        if cols.cols == 0:
            if vec.is_zero():
                return None
            raise ValidationError("truncation not action-stable")
        sol = cols.solve(vec)
        if sol is None:
            raise ValidationError("truncation not action-stable")
        return sol

    lact = {}
    ract = {}
    for (a1, a2, b), lm in x.lact.items():
        lay = TensorLayout([x.acat.hom(a1, a2), comps[(a1, b)]])

        def entry(combo, idx, a1=a1, a2=a2, b=b):
            dh, dx = combo
            h = Mat.basis_column(field, x.acat.hom(a1, a2).dim(dh), idx[0])
            vec = incls[(a1, b)].component(dx) @ \
                Mat.basis_column(field, comps[(a1, b)].dim(dx), idx[1])
            out = x.lact_apply(a1, a2, b, dh, h, dx, vec)
            return express((a2, b), dh + dx, out)

        lact[(a1, a2, b)] = lay.map_from_entries(comps[(a2, b)], 0, entry)
    for (a, b1, b2), rm in x.ract.items():
        lay = TensorLayout([comps[(a, b2)], x.bcat.hom(b1, b2)])

        def entry(combo, idx, a=a, b1=b1, b2=b2):
            dx, dh = combo
            vec = incls[(a, b2)].component(dx) @ \
                Mat.basis_column(field, comps[(a, b2)].dim(dx), idx[0])
            h = Mat.basis_column(field, x.bcat.hom(b1, b2).dim(dh), idx[1])
            out = x.ract_apply(a, b1, b2, dx, vec, dh, h)
            return express((a, b1), dx + dh, out)

        ract[(a, b1, b2)] = lay.map_from_entries(comps[(a, b1)], 0, entry)
    return Bimodule(x.acat, x.bcat, comps, lact, ract, name=f"tle0({x.name})"), incls


@dataclass
class HeartVerdict:
    heart_members: List
    witnesses: Dict
    realizations_quasi_iso: bool
    h0_data_s_linear: bool
    objectwise_t_cohomology: bool

    @property
    def all_pass(self) -> bool:
        return self.realizations_quasi_iso and self.h0_data_s_linear and self.objectwise_t_cohomology


def heart_coextension_check(b_r: DgCategory, theta: DgRingMorphism,
                            instances: Sequence[Bimodule]) -> HeartVerdict:
    """Finite-instance heart identification for bimodules out of the S point:
    members with cohomology in degree 0 are identified, via the truncation
    zigzag, with their H^0(S)-linear functor data realized in degree 0."""
    from .dgcat import h0_ring
    ring_s = theta.target
    scat = one_object_category(ring_s)
    sobj = scat.objects[0]
    field = b_r.field
    h0s, h0s_proj = h0_ring(ring_s)
    members = []
    witnesses = {}
    realizations_ok = True
    s_linear_ok = True
    objectwise_ok = True
    for idx, x in enumerate(instances):
        in_heart = all(set(x.at(sobj, b).cohomology().support()) <= {0} for b in b_r.objects)
        if not in_heart:
            continue
        members.append(idx)
        wit = find_quasi_representative(x, sobj)
        witnesses[idx] = wit
        # H^0 functor datum: H^0(S)-action and H^0(b)-action on H^0 components
        h0_dims = {b: x.at(sobj, b).cohomology().dim(0) for b in b_r.objects}
        reps = {b: x.at(sobj, b).cohomology() for b in b_r.objects}
        # realization in degree 0
        comps = {(sobj, b): Complex(field, {0: h0_dims[b]} if h0_dims[b] else {}, {})
                 for b in b_r.objects}
        lact = {}
        ract = {}
        for b in b_r.objects:
            lay = TensorLayout([scat.hom(sobj, sobj), comps[(sobj, b)]])

            def entry(combo, idxv, b=b, x=x):
                ds, _ = combo
                if ds != 0 or h0_dims[b] == 0:
                    return None
                svec = Mat.basis_column(field, ring_s.dim(0), idxv[0])
                rep_vec = reps[b].rep(0).col(idxv[1])
                out = x.lact_apply(sobj, sobj, b, 0, svec, 0, rep_vec)
                return reps[b].class_of(0, out)

            lact[(sobj, sobj, b)] = lay.map_from_entries(comps[(sobj, b)], 0, entry)
        for b1 in b_r.objects:
            for b2 in b_r.objects:
                lay = TensorLayout([comps[(sobj, b2)], b_r.hom(b1, b2)])

                def entry(combo, idxv, b1=b1, b2=b2, x=x):
                    _, db = combo
                    if db != 0 or h0_dims[b2] == 0 or h0_dims[b1] == 0:
                        return None
                    rep_vec = reps[b2].rep(0).col(idxv[0])
                    bvec = Mat.basis_column(field, b_r.hom(b1, b2).dim(0), idxv[1])
                    out = x.ract_apply(sobj, b1, b2, 0, rep_vec, 0, bvec)
                    return reps[b1].class_of(0, out)

                ract[(sobj, b1, b2)] = lay.map_from_entries(comps[(sobj, b1)], 0, entry)
        try:
            xbar = Bimodule(scat, b_r, comps, lact, ract, name=f"H0({x.name})")
        except ValidationError:
            realizations_ok = False
            continue
        # zigzag: tle0(x) -> x and tle0(x) -> xbar, both quasi-isos componentwise
        trunc, incls = truncate_bimodule_le0(x)
        for b in b_r.objects:
            if not incls[(sobj, b)].is_quasi_iso():
                realizations_ok = False
            # projection onto H^0 classes
            t = trunc.at(sobj, b)
            cm = {}
            if h0_dims[b] and t.dim(0):
                cols = []
                for j in range(t.dim(0)):
                    v = incls[(sobj, b)].component(0) @ Mat.basis_column(field, t.dim(0), j)
                    cols.append(reps[b].class_of(0, v).column_values(0))
                cm[0] = Mat.from_columns(field, h0_dims[b], cols)
            pr = ChainMap(t, xbar.at(sobj, b), 0, cm)
            if not pr.is_quasi_iso():
                realizations_ok = False
        # H^0(S)-linearity: the S-action on the datum factors through H^0(S)
        for ds, si in ring_s.basis():
            if ds != 0:
                continue
            svec = ring_s.basis_vector(0, si)
            for b in b_r.objects:
                if h0_dims[b] == 0:
                    continue
                for j in range(h0_dims[b]):
                    rep_vec = reps[b].rep(0).col(j)
                    lhs = reps[b].class_of(0, x.lact_apply(sobj, sobj, b, 0, svec, 0, rep_vec))
                    # acting through any preimage of [s] in H^0(S) gives the same
                    cls = h0s_proj.apply(0, svec)
                    back = h0s_proj.map.component(0).solve(cls)
                    rhs = reps[b].class_of(0, x.lact_apply(sobj, sobj, b, 0, back, 0, rep_vec))
                    if lhs != rhs:
                        s_linear_ok = False
        # objectwise t-cohomology through the witness
        if wit is not None:
            for b in b_r.objects:
                lhs = x.at(sobj, b).cohomology().as_dict()
                rhs = b_r.hom(b, wit.obj).cohomology().as_dict()
                if lhs != rhs:
                    objectwise_ok = False
    return HeartVerdict(members, witnesses, realizations_ok, s_linear_ok, objectwise_ok)
