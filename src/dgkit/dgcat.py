"""Small dg-categories over a dg-ring: hom complexes, composition tensors,
identities, base-ring action, truncation, homotopy categories, opposites and
tensor products.

Composition is stored as one ``Pairing`` hom(B,C) @ hom(A,B) -> hom(A,C) per
object triple; the chain-map property of its map is the Leibniz rule.  Identity,
associativity, and compatibility of the base action are checked at
construction, each as one equation on whole pairings per object tuple (see
the structure laws in ``complexes``).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

from .complexes import (
    ChainMap,
    Complex,
    Pairing,
    TensorLayout,
    associativity_defect,
    h0_retract,
    koszul_swap,
    lifted_map,
    morphism_defect,
    permutation_sign,
    reorder_factors,
    sub_retract,
    swapped,
    truncate_le,
    unit_defect,
)
from .dgring import DgRing, DgRingMorphism
from .errors import ValidationError
from .matrix import Mat, kron, kron_product


class DgCategory:
    """Finite dg-category with explicit composition tensors and base action."""

    def __init__(self, base: DgRing, objects: Sequence, homs: Dict,
                 comp: Dict, ids: Dict, action: Optional[Dict] = None,
                 name: str = "C", check: bool = True):
        self.base = base
        self.field = base.field
        self.objects = tuple(objects)
        self.name = name
        self.homs = {}
        for a in self.objects:
            for b in self.objects:
                cx = homs.get((a, b))
                self.homs[(a, b)] = cx if cx is not None else Complex.zero(self.field)
        self.comp: Dict[Tuple, Pairing] = {
            (a, b, c): Pairing.of([self.hom(b, c), self.hom(a, b)], comp.get((a, b, c)), self.hom(a, c),
                                  f"{name}: composition {(a, b, c)}")
            for a, b, c in itertools.product(self.objects, repeat=3)}
        self.ids = dict(ids)
        self.opposite_of: Optional[DgCategory] = None  # set by ``opposite``
        self.action: Dict[Tuple, Pairing] = {}
        for a in self.objects:
            for b in self.objects:
                lay = TensorLayout([base.underlying, self.hom(a, b)])
                act = None if action is None else action.get((a, b))
                if act is None:
                    act = self._scalar_action(lay, self.hom(a, b))
                self.action[(a, b)] = Pairing(lay, act, self.hom(a, b), f"{name}: base action {(a, b)}")
        if check:
            self._check()

    def _scalar_action(self, lay: TensorLayout, target: Complex) -> ChainMap:
        """Default action when the base is the ground field: scalar rescaling."""
        if not self.base.is_ground_field():
            raise ValidationError(
                f"{self.name}: an explicit base action is required over {self.base.name}")
        # u . 1 on every block, u the unit of the ground field
        return lay.map_from_blocks(target, 0, lambda combo: kron(self.base.unit.transpose(),
                                                                 Mat.identity(self.field, target.dim(combo[1]))))

    # -- access -----------------------------------------------------------

    def hom(self, a, b) -> Complex:
        return self.homs[(a, b)]

    def id_vector(self, a) -> Mat:
        return self.ids[a]

    def hom_basis(self, a, b):
        cx = self.hom(a, b)
        for deg in cx.degrees():
            for i in range(cx.dim(deg)):
                yield deg, Mat.basis_column(self.field, cx.dim(deg), i)

    def is_strictly_nonpositive(self) -> bool:
        return all(cx.max_degree() is None or cx.max_degree() <= 0 for cx in self.homs.values())

    def has_nonpositive_cohomology(self) -> bool:
        return all(all(d <= 0 for d in cx.cohomology().support()) for cx in self.homs.values())

    # -- invariants ---------------------------------------------------------

    def _check(self):
        name = self.name
        for a in self.objects:
            ida = self.ids.get(a)
            if ida is None or (ida.rows, ida.cols) != (self.hom(a, a).dim(0), 1):
                raise ValidationError(f"{name}: missing or malformed identity at {a}")
            if not (self.hom(a, a).diff(0) @ ida).is_zero():
                raise ValidationError(f"{name}: identity at {a} is not closed")
        for a, b in itertools.product(self.objects, repeat=2):
            if unit_defect(self.comp[(a, b, b)], self.ids[b], 0) is not None:
                raise ValidationError(f"{name}: left identity fails on hom({a},{b})")
            if unit_defect(self.comp[(a, a, b)], self.ids[a], 1) is not None:
                raise ValidationError(f"{name}: right identity fails on hom({a},{b})")
        for a, b, c, d in itertools.product(self.objects, repeat=4):
            if associativity_defect(self.comp[(a, b, d)], self.comp[(b, c, d)],
                                    self.comp[(a, c, d)], self.comp[(a, b, c)]) is not None:
                raise ValidationError(f"{name}: associativity fails on triple "
                                      f"hom({c},{d}) x hom({b},{c}) x hom({a},{b})")
        self._check_action()

    def _check_action(self):
        name = self.name
        base = self.base
        for a, b in itertools.product(self.objects, repeat=2):
            act = self.action[(a, b)]
            if unit_defect(act, base.unit, 0) is not None:
                raise ValidationError(f"{name}: base action not unital on hom({a},{b})")
            if associativity_defect(act, base.product, act, act) is not None:
                raise ValidationError(f"{name}: base action not associative on hom({a},{b})")
        # centrality against composition: on r (x) g (x) f, (r.g) o f and
        # (-1)^{|r||g|} g o (r.f) both equal r.(g o f)
        eye_r = Mat.identity(self.field, base.total_dim())
        for a, b, c in itertools.product(self.objects, repeat=3):
            comp, act_ac = self.comp[(a, b, c)], self.action[(a, c)]
            if associativity_defect(comp, self.action[(b, c)], act_ac, comp) is not None:
                raise ValidationError(f"{name}: action not central (left) on hom({a},{b},{c})")
            # g o (r.f) on g (x) r (x) f, then reindexed to r (x) g (x) f
            g_rf = kron_product(comp.flat, Mat.identity(self.field, self.hom(b, c).total_dim()),
                                self.action[(a, b)].flat)
            r_gf = kron_product(act_ac.flat, eye_r, comp.flat)
            if koszul_swap(g_rf, base.underlying, self.hom(b, c)) != r_gf:
                raise ValidationError(f"{name}: action not central (right) on hom({a},{b},{c})")


def one_object_category(ring: DgRing) -> DgCategory:
    """The one-object category, its object ``*``, whose endomorphisms are the ring."""
    mult = ring.product.map
    return DgCategory(ring, ["*"], {("*", "*"): ring.underlying}, {("*", "*", "*"): mult}, {"*": ring.unit},
                      action={("*", "*"): mult}, name=ring.name, check=False)


class DgFunctor:
    """Strict dg-functor; may be linear over a base-ring morphism."""

    def __init__(self, source: DgCategory, target: DgCategory, obj_map: Dict,
                 hom_maps: Dict, base_change: Optional[DgRingMorphism] = None,
                 name: str = "F"):
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.hom_maps = dict(hom_maps)
        self.base_change = base_change
        self.name = name
        self._check()

    def hom_map(self, a, b) -> ChainMap:
        return self.hom_maps[(a, b)]

    def apply_hom(self, a, b, deg: int, vec: Mat) -> Mat:
        return self.hom_map(a, b).component(deg) @ vec

    def _check(self):
        s, t = self.source, self.target
        for a in s.objects:
            fa = self.obj_map[a]
            img = self.apply_hom(a, a, 0, s.id_vector(a))
            if img != t.id_vector(fa):
                raise ValidationError(f"{self.name}: identities not preserved at {a}")
        for a, b, c in itertools.product(s.objects, repeat=3):
            fa, fb, fc = self.obj_map[a], self.obj_map[b], self.obj_map[c]
            if morphism_defect(s.comp[(a, b, c)], t.comp[(fa, fb, fc)], self.hom_map(a, c),
                               self.hom_map(b, c), self.hom_map(a, b)) is not None:
                raise ValidationError(f"{self.name}: composition not preserved on hom({a},{b})xhom({b},{c})")
        # linearity over the base (or over a base-ring morphism)
        base = None if self.base_change is None else self.base_change.map   # None: the identity
        for a, b in itertools.product(s.objects, repeat=2):
            if morphism_defect(s.action[(a, b)], t.action[(self.obj_map[a], self.obj_map[b])],
                               self.hom_map(a, b), base, self.hom_map(a, b)) is not None:
                raise ValidationError(f"{self.name}: not linear over the base on hom({a},{b})")


class H0Category:
    """Homotopy category in degree 0: hom sets are H^0 classes.  Each hom is
    an ``h0_retract`` part and each composition one ``lifted_map`` over them,
    [g][f] = [g o f] read through the representatives."""

    def __init__(self, cat: DgCategory):
        self.cat = cat
        self.objects = cat.objects
        self.field = cat.field
        self.reports = {(a, b): cat.hom(a, b).cohomology()
                        for a in cat.objects for b in cat.objects}
        self.parts = {key: h0_retract(report) for key, report in self.reports.items()}
        self.ids = {a: self.class_of(a, a, cat.id_vector(a)) for a in cat.objects}
        self.comp = {}
        for a, b, c in itertools.product(cat.objects, repeat=3):
            mu = cat.comp[(a, b, c)]
            # well-definedness: representative o coboundary and coboundary o
            # representative have class zero
            out = self.parts[(a, c)].pieces[0].outward.get(0)
            block = mu.block((0, 0))
            if out is not None and not all((out @ kron_product(block, g, f)).is_zero() for g, f in (
                    (self.rep(b, c), self.reports[(a, b)].image(0)),
                    (self.reports[(b, c)].image(0), self.rep(a, b)))):
                raise ValidationError(f"H0({cat.name}): composition not well defined on classes")
            self.comp[(a, b, c)] = lifted_map([self.parts[(b, c)], self.parts[(a, b)]], self.parts[(a, c)],
                                              [mu.block])

    def dim(self, a, b) -> int:
        return self.reports[(a, b)].dim(0)

    def rep(self, a, b) -> Mat:
        return self.reports[(a, b)].rep(0)

    def class_of(self, a, b, cocycle: Mat) -> Mat:
        return self.reports[(a, b)].class_of(0, cocycle)

    def product(self, a, b, c) -> Mat:
        """The composition H^0(b,c) (x) H^0(a,b) -> H^0(a,c) as one matrix."""
        return self.comp[(a, b, c)].component(0)


def h0_ring(ring: DgRing) -> Tuple[DgRing, DgRingMorphism]:
    """H^0 of a (strictly nonpositive) dg-ring, with the projection morphism;
    the product is read through the representatives, [x][y] = [xy]."""
    cx = ring.underlying
    classes = h0_retract(cx.cohomology())
    if classes.complex.dim(0) and 0 in cx.d:
        # strictly nonpositive rings have Z^0 = R^0
        raise ValidationError(f"{ring.name}: degree-0 part is not closed")
    proj = ChainMap(cx, classes.complex, 0, classes.pieces[0].outward)
    mult = lifted_map([classes, classes], classes, [ring.product.block])
    out = DgRing(classes.complex, proj.component(0) @ ring.unit, mult, name=f"H0({ring.name})")
    return out, DgRingMorphism(ring, out, proj, name=f"h0proj_{ring.name}")


def h0_category(cat: DgCategory) -> H0Category:
    return H0Category(cat)


def h0_as_degree0_category(cat: DgCategory) -> Tuple[DgCategory, "H0Category"]:
    """H^0 of a category, materialized as a dg-category in degree 0 over
    H^0(base): composition and action read through the representatives."""
    h0 = H0Category(cat)
    base0, _ = h0_ring(cat.base)
    base = h0_retract(cat.base.underlying.cohomology())
    action = {key: lifted_map([base, part], part, [cat.action[key].block])
              for key, part in h0.parts.items()}
    out = DgCategory(base0, cat.objects, {key: part.complex for key, part in h0.parts.items()}, h0.comp,
                     h0.ids, action=action, name=f"H0({cat.name})")
    return out, h0


def truncate_cat(cat: DgCategory):
    """Degreewise smart truncation to degrees <= 0.

    Returns (truncated, inclusion functor, functor onto H^0 as a degree-0
    category).
    """
    trunc, incl_maps = {}, {}
    for key in itertools.product(cat.objects, repeat=2):
        trunc[key], incl_maps[key] = truncate_le(cat.hom(*key), 0)
    # composition and action read through the inclusions, each checked to stay in the truncation
    parts = {key: sub_retract(t, incl_maps[key]) for key, t in trunc.items()}
    ids = {a: parts[(a, a)].pieces[0].outward[0] @ cat.id_vector(a) for a in cat.objects}
    comp = {(a, b, c): lifted_map([parts[(b, c)], parts[(a, b)]], parts[(a, c)],
                                  [cat.comp[(a, b, c)].block])
            for a, b, c in itertools.product(cat.objects, repeat=3)}
    action = {key: lifted_map([cat.base.underlying, part], part, [cat.action[key].block])
              for key, part in parts.items()}
    tcat = DgCategory(cat.base, cat.objects, trunc, comp, ids, action=action,
                      name=f"tle0({cat.name})")
    incl = DgFunctor(tcat, cat, {a: a for a in cat.objects}, incl_maps, name=f"incl_tle0({cat.name})")
    # projection onto H^0 viewed in degree 0
    h0cat, h0 = h0_as_degree0_category(cat)
    base0, baseproj = h0_ring(cat.base)
    proj_maps = {key: ChainMap(t, h0cat.hom(*key), 0, {0: h0.class_of(*key, incl_maps[key].component(0))}
                               if h0.dim(*key) and t.dim(0) else {})
                 for key, t in trunc.items()}
    toh0 = DgFunctor(tcat, h0cat, {a: a for a in cat.objects}, proj_maps,
                     base_change=baseproj, name=f"toH0({cat.name})")
    return tcat, incl, toh0


def opposite(cat: DgCategory) -> DgCategory:
    """Opposite category; composition picks up the Koszul swap sign:
    hom_op(b,c) (x) hom_op(a,b) = hom(c,b) (x) hom(b,a) -> hom(c,a),
    g (x) f |-> (-1)^{|g||f|} f o g.  The swap squares to the identity, so
    the opposite of an opposite is the category it was built from."""
    if cat.opposite_of is not None:
        return cat.opposite_of
    homs = {(a, b): cat.hom(b, a) for a in cat.objects for b in cat.objects}
    comp = {(a, b, c): TensorLayout([cat.hom(c, b), cat.hom(b, a)]).map_from_blocks(
        cat.hom(c, a), 0, swapped(cat.comp[(c, b, a)]).block)
        for a, b, c in itertools.product(cat.objects, repeat=3)}
    action = {(a, b): cat.action[(b, a)].map for a in cat.objects for b in cat.objects}
    op = DgCategory(cat.base, cat.objects, homs, comp, cat.ids, action=action, name=f"op({cat.name})")
    op.opposite_of = cat
    return op


def tensor_cat(x: DgCategory, y: DgCategory) -> DgCategory:
    """Tensor product over the common ground-field base.  Composition on the
    flat tuple g_x (x) g_y (x) f_x (x) f_y is
    (-1)^{|g_y||f_x|} (g_x o f_x) (x) (g_y o f_y)."""
    if x.base != y.base and not (x.base.is_ground_field() and y.base.is_ground_field()
                                 and x.field == y.field):
        raise ValidationError("tensor product needs a common base ring")
    if not x.base.is_ground_field():
        raise ValidationError("tensor products of categories are supported over the ground field")
    objects = [(a, u) for a in x.objects for u in y.objects]
    lays = {((a, u), (b, v)): TensorLayout([x.hom(a, b), y.hom(u, v)])
            for (a, u), (b, v) in itertools.product(objects, repeat=2)}
    ids = {(a, u): lays[((a, u), (a, u))].place((0, 0), kron(x.id_vector(a), y.id_vector(u)))
           for a, u in objects}
    comp = {((a, u), (b, v), (c, w)): lifted_map(
        [lays[((b, v), (c, w))], lays[((a, u), (b, v))]], lays[((a, u), (c, w))],
        [_interchanged(x.comp[(a, b, c)], y.comp[(u, v, w)], lays[((a, u), (c, w))])])
        for (a, u), (b, v), (c, w) in itertools.product(objects, repeat=3)}
    return DgCategory(x.base, objects, {key: lay.complex for key, lay in lays.items()}, comp, ids,
                      name=f"({x.name}(x){y.name})")


def _interchanged(xcomp: Pairing, ycomp: Pairing, target: TensorLayout):
    """The flat blocks, on g_x (x) g_y (x) f_x (x) f_y, of the composition of
    a tensor product out of the compositions of its factors: the kron of the
    two blocks, its columns reordered to the flat order, with the Koszul sign
    of the interchange."""
    factors = (xcomp.factors[0], ycomp.factors[0], xcomp.factors[1], ycomp.factors[1])
    interchange = (0, 2, 1, 3)

    def block(combo):
        p, q, r, s = combo
        out = kron(xcomp.block((p, r)), ycomp.block((q, s)))
        out = target.place((p + r, q + s), reorder_factors(out, [f.dim(d) for f, d in zip(factors, combo)],
                                                           interchange))
        return -out if permutation_sign(combo, interchange) < 0 else out

    return block
