"""The nilpotent deformation pipeline: validate the ring surjection, factor
it through square-zero steps, extend an R-linear dg-category to S, and verify
the lifting properties on the instance.

Every certified or failed verdict is computed on the given finite instance
(long-exact-sequence rank bookkeeping, explicit mutually inverse tensor-lift
maps, H^0 base change, weak-cokernel searches).  hfp, H^0 additivity and the
Karoubianness of a noncommutative H^0(End) are reported unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional

from .bimodules import Module
from .changeofrings import (
    ScalarExtension,
    _right_action_through,
    extend_scalars_cat,
    restrict_ring_module,
    tensor_cancellation_check,
    transitivity_check,
)
from .complexes import (
    ChainMap,
    Pairing,
    Retract,
    h0_retract,
    lifted_map,
    quotient_retract,
    sub_retract,
    swap_leading_factors,
    swapped,
)
from .dgcat import DgCategory, H0Category, h0_category, h0_ring, one_object_category
from .dgring import (
    HFP_UNCHECKED,
    AssumptionReport,
    DgIdeal,
    DgRingMorphism,
    check_setup_assumptions,
    quotient,
)
from .derived import balanced_tensor_ring
from .errors import ValidationError
from .matrix import Mat, extend_columns_to_basis, kron, kron_product
from .verdict import CERTIFIED, FAILED, UNCHECKED, Verdict, passes


# -- factorization ------------------------------------------------------------------


@dataclass
class FactorizationChain:
    head: DgRingMorphism = dc_field(repr=False)  # R -> R/I^n, a quasi-iso
    steps: List[DgRingMorphism]                  # R/I^{k+1} -> R/I^k, ..., ending at S
    step_reports: List[AssumptionReport]
    square_zero_kernels: List[Verdict]
    composition_equals_theta: Verdict
    head_is_quasi_iso: Verdict


def _induced_quotient_step(p_fine: DgRingMorphism, p_coarse: DgRingMorphism,
                           name: str) -> DgRingMorphism:
    """The morphism fine -> coarse determined by p_coarse = step o p_fine."""
    comps = {}
    fine = p_fine.target
    coarse = p_coarse.target
    field = fine.field
    for deg in fine.degrees():
        pf = p_fine.map.component(deg)
        pc = p_coarse.map.component(deg)
        # solve X @ pf = pc  <=>  pf^T @ X^T = pc^T
        xt = pf.transpose().solve(pc.transpose())
        if xt is None:
            raise ValidationError(f"{name}: quotient step not solvable at degree {deg}")
        comps[deg] = xt.transpose()
    return DgRingMorphism(fine, coarse,
                          ChainMap(fine.underlying, coarse.underlying, 0, comps), name=name)


def factorize(theta: DgRingMorphism) -> FactorizationChain:
    """Factor a surjection through square-zero steps R/I^{k+1} -> R/I^k."""
    setup = check_setup_assumptions(theta)
    if not passes(setup):
        failing = [v.reason for v in (setup.surjective, setup.cohomologically_nilpotent) if v.status == FAILED]
        raise ValidationError("setup assumptions failed: " + "; ".join(failing))
    n = setup.nilpotency_order
    ring = theta.source
    if setup.kernel_powers[0].is_zero():
        return FactorizationChain(theta, [], [], [], Verdict(CERTIFIED, "no steps: the head is theta"),
                                  _quasi_iso(theta))
    # quotients R/I^k for k = n .. 1 with projections from R, on the powers the setup check formed
    projections = {}
    quotients = {}
    for k, power in enumerate(setup.kernel_powers, 1):
        if power.is_zero():
            quotients[k] = ring
            projections[k] = DgRingMorphism.identity(ring)
        else:
            q, p = quotient(ring, power)
            quotients[k] = q
            projections[k] = p
    # identify R/I with S through theta
    iso_comps = {}
    for deg in quotients[1].degrees():
        p1 = projections[1].map.component(deg)
        th = theta.map.component(deg)
        xt = p1.transpose().solve(th.transpose())
        if xt is None:
            raise ValidationError("cannot identify R/I with the morphism target")
        iso_comps[deg] = xt.transpose()
    iso = DgRingMorphism(quotients[1], theta.target,
                         ChainMap(quotients[1].underlying, theta.target.underlying, 0, iso_comps),
                         name="R/I=S")
    steps = []
    reports = []
    sq_zero = []
    for k in range(n - 1, 0, -1):
        step = _induced_quotient_step(projections[k + 1], projections[k],
                                      name=f"theta_{k + 1},{k}")
        if k == 1:
            step = iso.compose(step)
            step.name = f"theta_2,1"
        report = check_setup_assumptions(step)
        # its first kernel power is the step's kernel
        sq_zero.append(Verdict.of(report.kernel_powers[0].squares_to_zero(), "the step's kernel squares to zero"))
        reports.append(report)
        steps.append(step)
    head = projections[n]
    composed = head
    for step in steps:
        composed = step.compose(composed)
    comp_ok = all(composed.map.component(d) == theta.map.component(d)
                  for d in ring.degrees())
    return FactorizationChain(head, steps, reports, sq_zero,
                              Verdict.of(comp_ok, "the steps compose to theta on the nose"), _quasi_iso(head))


def _quasi_iso(head: DgRingMorphism) -> Verdict:
    return Verdict.of(head.map.is_quasi_iso(), f"{head.name} is a quasi-isomorphism")


# -- the kernel as an S-module --------------------------------------------------------


def ideal_as_S_module(theta: DgRingMorphism, scat: Optional[DgCategory] = None,
                      ideal: Optional[DgIdeal] = None, direct: Optional[Module] = None) -> Module:
    """For a square-zero kernel, the rule [r].x = r.x is a well-defined
    S-module structure on I whose restriction along theta is the original
    R-action (both facts checked, the second once per block).  ``ideal`` and
    ``direct`` are the kernel ideal and its ``ideal_as_R_module``, built here
    when not given."""
    if ideal is None:
        ideal = theta.kernel_ideal()
    if not ideal.squares_to_zero():
        raise ValidationError("the kernel does not square to zero")
    ring = theta.source
    s_ring = theta.target
    scat = scat or one_object_category(s_ring)
    sobj = scat.objects[0]
    # S read through a section of theta per degree: lifts differ by I, and I.I = 0
    sections = {}
    for ds in s_ring.degrees():
        sections[ds] = theta.map.component(ds).solve(Mat.identity(ring.field, s_ring.dim(ds)))
        if sections[ds] is None:
            raise ValidationError("theta is not surjective enough to lift")
    part = sub_retract(ideal.sub, ideal.inclusion)
    # right action: x . s = (-1)^{|s||x|} s . x = x r with graded commutativity
    act = lifted_map([part, quotient_retract(s_ring.underlying, theta.map, sections)], part,
                     [ring.product.block])
    mod = Module(scat, {sobj: ideal.sub}, {(sobj, sobj): act}, name=f"I({theta.name})")
    # restriction along theta gives back the R-action on I
    try:
        if direct is None:
            direct = ideal_as_R_module(theta, ideal=ideal)
    except ValidationError:
        raise ValidationError("R-action leaves the kernel") from None
    if {key: mu.map for key, mu in restrict_ring_module(mod, theta).act.items()} != \
            {key: mu.map for key, mu in direct.act.items()}:
        raise ValidationError("restriction along theta does not recover the R-action")
    return mod


# -- levelwise freeness ---------------------------------------------------------------


def levelwise_free_generators(cat: DgCategory):
    """For each hom pair, graded generators realizing hom = R (x) generators;
    raises if the hom is not levelwise free over the base."""
    ring = cat.base
    field = cat.field
    # the nonunit basis directions: in degree 0, those completing the unit line to a basis
    keep = extend_columns_to_basis(ring.unit)
    nonunit = [(dr, i) for dr, i in ring.basis() if dr != 0 or i in keep]
    out = {}
    for a in cat.objects:
        for b in cat.objects:
            v = cat.hom(a, b)
            if v.total_dim() == 0:
                out[(a, b)] = {}
                continue
            # span of rbar . hom where rbar runs over nonunit basis directions
            images: Dict[int, List] = {}
            for dr, i in nonunit:
                fam = cat.action[(a, b)].at(0, dr, ring.basis_vector(dr, i))
                for dx, mat in fam.items():
                    images.setdefault(dx + dr, []).extend(col for col in zip(*mat.entries) if any(col))
            gens = {}
            for deg in v.degrees():
                span = Mat.from_columns(field, v.dim(deg), images.get(deg, []))
                comp = extend_columns_to_basis(span.image_basis())
                if comp:
                    gens[deg] = Mat.identity(field, v.dim(deg)).take_columns(comp)
            # compare graded dimensions of R (x) gens with hom
            dims = {}
            for gdeg, g in gens.items():
                for dr in ring.degrees():
                    dims[gdeg + dr] = dims.get(gdeg + dr, 0) + ring.dim(dr) * g.cols
            if dims != {d: v.dim(d) for d in v.degrees()}:
                raise ValidationError(
                    f"hom({a},{b}) is not levelwise free over {ring.name}; "
                    "route through a windowed resolution instead")
            out[(a, b)] = gens
    return out


# -- H^0 additivity and Karoubianness ---------------------------------------------------


@dataclass
class H0StructureVerdict:
    additive: Verdict
    karoubian: Verdict


# no biproduct is constructed or searched for in H^0
ADDITIVE_UNCHECKED = Verdict(UNCHECKED, "no biproducts are demanded, so additivity is not tested")


def _algebra_power(mult: Mat, unit: Mat, x: Mat, k: int) -> Mat:
    """x^k by repeated squaring, in the algebra whose product is the matrix
    ``mult``, x * y = mult @ kron(x, y)."""
    result = unit
    while k:
        if k & 1:
            result = kron_product(mult, result, x)
        x = kron_product(mult, x, x)
        k >>= 1
    return result


def _nontrivial_idempotents_fp(mult: Mat, unit: Mat):
    """Idempotents of a commutative algebra A over F_p, decided exactly.

    The Berlekamp subalgebra {x : x^p = x}, the kernel of the F_p-linear map
    Frobenius - id, has dimension equal to the number of local factors of A
    (Berlekamp 1967), so A has a nontrivial idempotent iff that dimension
    exceeds 1.  A non-scalar x in it takes at least two values in F_p across
    the factors; for a value c, the Lagrange indicator polynomial of c on F_p,
    1 - (t - c)^(p-1), sends x to the idempotent that is 1 exactly on the
    factors where x is c.  Returns a one-element witness list or []."""
    field, n = unit.field, unit.rows
    p = field.char
    frob = Mat.from_columns(field, n, [
        (_algebra_power(mult, unit, e, p) - e).column_values(0)
        for e in (Mat.basis_column(field, n, i) for i in range(n))])
    fixed = frob.kernel_basis()
    if fixed.cols <= 1:
        return []
    x = next(fixed.col(j) for j in range(fixed.cols) if fixed.col(j).hstack(unit).rank() == 2)
    for c in range(p):
        e = unit - _algebra_power(mult, unit, x - unit.scale(c), p - 1)
        if not e.is_zero() and e != unit and kron_product(mult, e, e) == e:
            return [e]
    raise AssertionError("a non-scalar Frobenius-fixed element takes no value in F_p")


def _minimal_polynomial(mult: Mat, unit: Mat, x: Mat):
    """The minimal polynomial of x in the algebra whose product is ``mult``:
    the coefficients c_0, ..., c_{d-1} of x^d = sum c_i x^i at the first
    power x^d that the lower ones span, and those powers 1, x, ..., x^{d-1}."""
    powers = [unit]
    while True:
        nxt = kron_product(mult, powers[-1], x)
        coeffs = Mat.from_columns(unit.field, unit.rows, [p.column_values(0) for p in powers]).solve(nxt)
        if coeffs is not None:
            return coeffs.column_values(0), powers
        powers.append(nxt)


def _is_root_power(coeffs) -> bool:
    """Whether t^d - sum c_i t^i, for the coefficients c_0, ..., c_{d-1} over
    Q, is (t - c)^d; its t^{d-1} coefficient then gives c = c_{d-1}/d."""
    d = len(coeffs)
    c = Fraction(coeffs[-1]) / d
    return all(coeffs[k] == -comb(d, k) * (-c) ** (d - k) for k in range(d))


def _nontrivial_idempotents_commutative(mult: Mat, unit: Mat):
    """Idempotents of a commutative algebra A over Q, found by splitting the
    minimal polynomial of a basis element into coprime factors; returns a
    one-element witness list or [].

    Trying the basis elements decides the question.  A is a product of local
    algebras A_1 x ... x A_r with residue fields K_i.  If r >= 2, the
    functional phi(x) = Tr(x_1)/[K_1:Q] - Tr(x_2)/[K_2:Q], on the residues
    x_i of x in K_1 and K_2, takes 1 on the idempotent of A_1.  If the minimal
    polynomial of x is a power of one irreducible q, both residues are roots
    of q, and each normalised trace is the mean of the roots of q, so
    phi(x) = 0.  phi is not zero on A, so it is not zero on some basis
    element, whose minimal polynomial then has two coprime factors f and g;
    u f + v g = 1 (extended Euclid) makes (u f)(x) a nontrivial idempotent.

    A minimal polynomial (t - c)^d, with c = c_{d-1}/d, is a single factor,
    and needs no factorization; sympy is imported only for the others."""
    for gen in range(unit.rows):
        x = Mat.basis_column(unit.field, unit.rows, gen)
        coeffs, powers = _minimal_polynomial(mult, unit, x)
        if _is_root_power(coeffs):
            continue
        import sympy

        d = len(coeffs)
        t = sympy.symbols("t")
        poly = sympy.Poly(t**d - sum(sympy.Rational(str(coeffs[i])) * t**i for i in range(d)), t)
        factors = sympy.factor_list(poly)[1]
        if len(factors) < 2:
            continue
        f1 = sympy.Poly(factors[0][0] ** factors[0][1], t)
        rest = sympy.Poly(sympy.prod([f ** m for f, m in factors[1:]]), t)
        g, _, one = sympy.gcdex(f1, rest)
        # e(t) = g f1 / one has degree below d, so it is read on the powers
        e_poly = (g * f1 * (sympy.Rational(1) / one.coeffs()[0])).rem(poly)
        acc = Mat.zero(unit.field, unit.rows, 1)
        for (k,), coeff in zip(e_poly.monoms(), e_poly.coeffs()):
            acc = acc + powers[k].scale(unit.field.parse(str(Fraction(str(coeff)))))
        if kron_product(mult, acc, acc) == acc and not acc.is_zero() and acc != unit:
            return [acc]
    return []


def h0_structure_verdict(h0: H0Category) -> H0StructureVerdict:
    """Additivity, unchecked, and Karoubianness via explicit idempotent
    discovery in each commutative H^0(End(a)); a noncommutative one leaves
    it unchecked unless another object fails.  A failure's witness is the
    object and its nontrivial idempotent."""
    noncommutative = []
    for a in h0.objects:
        n, mult, unit = h0.dim(a, a), h0.product(a, a, a), h0.ids[a]
        if n <= 1:
            continue
        if mult != swap_leading_factors(mult, n, n):
            noncommutative.append(a)
            continue
        find = _nontrivial_idempotents_fp if h0.field.char else _nontrivial_idempotents_commutative
        for e in find(mult, unit):
            # an unsplit nontrivial idempotent breaks Karoubianness at desk scale
            return H0StructureVerdict(ADDITIVE_UNCHECKED, Verdict(
                FAILED, f"nontrivial idempotent in H^0(End({a})) with no designated splitting", (a, e)))
    if noncommutative:
        karoubian = Verdict(UNCHECKED, f"H^0(End) of {', '.join(map(str, noncommutative))} is "
                            "noncommutative; idempotents are decided for commutative algebras only")
    else:
        karoubian = Verdict(CERTIFIED, "no H^0(End(a)) has a nontrivial idempotent")
    return H0StructureVerdict(ADDITIVE_UNCHECKED, karoubian)


# -- hlc ---------------------------------------------------------------------------


@dataclass
class HlcVerdict:
    nonpositive_cohomology: Verdict
    h0_additive: Verdict
    h0_karoubian: Verdict
    weak_cokernels: Verdict
    failing_morphism: Optional[Dict]      # {source, target, class_index} of an H^0 basis morphism
    representables_hfp: Verdict


def _weak_cokernel_exists(h0: H0Category, a, b, fclass: Mat) -> bool:
    """Search objects C and candidates g in K(C) = {h: b -> C with h o f = 0}
    for exactness of H^0(C,-) -> H^0(b,-) -> H^0(a,-)."""
    field = h0.field

    def precomposed(s, t, x, f):
        """The matrix of h |-> h o f on H^0(t, x), for f in H^0(s, t)."""
        return kron_product(h0.product(s, t, x), Mat.identity(field, h0.dim(t, x)), f)

    kernels = {x: precomposed(a, b, x, fclass).kernel_basis() for x in h0.objects}
    for c in h0.objects:
        kc = kernels[c]
        candidates = [Mat.zero(field, h0.dim(b, c), 1)]  # the zero morphism
        candidates += [kc.col(i) for i in range(kc.cols)]
        if kc.cols > 1:
            total = kc.col(0)
            for i in range(1, kc.cols):
                total = total + kc.col(i)
            candidates.append(total)
        for g in candidates:
            if all(precomposed(b, c, x, g).rank() == kernels[x].cols for x in h0.objects):
                return True
    return False


def check_hlc(cat: DgCategory) -> HlcVerdict:
    """Verdicts for nonpositive cohomology, H^0 additivity/Karoubianness,
    weak cokernels for every H^0 basis morphism, and hfp of representables."""
    h0 = h0_category(cat)
    structure = h0_structure_verdict(h0)
    failing = next(({"source": str(a), "target": str(b), "class_index": i}
                    for a in cat.objects for b in cat.objects for i in range(h0.dim(a, b))
                    if not _weak_cokernel_exists(h0, a, b, Mat.basis_column(cat.field, h0.dim(a, b), i))), None)
    return HlcVerdict(
        Verdict.of(cat.has_nonpositive_cohomology(), "every hom has cohomology in degrees <= 0"),
        structure.additive, structure.karoubian,
        Verdict.of(failing is None, "every H^0 basis morphism has a weak cokernel"),
        failing, HFP_UNCHECKED)


# -- the deformation report ------------------------------------------------------------


def ideal_as_R_module(theta: DgRingMorphism, rcat: Optional[DgCategory] = None,
                      ideal: Optional[DgIdeal] = None) -> Module:
    """The kernel ideal (``ideal``, computed when not given) as a right module
    over the source ring: x . r = x r, checked to stay in the ideal."""
    if ideal is None:
        ideal = theta.kernel_ideal()
    ring = theta.source
    rcat = rcat or one_object_category(ring)
    robj = rcat.objects[0]
    part = sub_retract(ideal.sub, ideal.inclusion)
    act = lifted_map([part, ring.underlying], part, [ring.product.block])
    return Module(rcat, {robj: ideal.sub}, {(robj, robj): act}, name=f"I_{ring.name}")


def hom_as_right_module(cat: DgCategory, a, b,
                        rcat: Optional[DgCategory] = None) -> Module:
    """A hom complex as a right module over the base ring (right action from
    the left one by the Koszul swap)."""
    ring = cat.base
    rcat = rcat or one_object_category(ring)
    robj = rcat.objects[0]
    v = cat.hom(a, b)
    act = lifted_map([v, ring.underlying], v, [swapped(cat.action[(a, b)]).block])
    return Module(rcat, {robj: v}, {(robj, robj): act}, name=f"hom({a},{b})_{ring.name}")


@dataclass
class StepDeformationVerdict:
    step: str
    ses_exact: Verdict
    les_rank_bookkeeping: Verdict
    nonpositive_cohomology: Verdict
    tensor_lift_mutually_inverse: Verdict
    h0_comparison_bijective: Verdict
    ker_h0_theta_square_zero: Verdict
    hfp_preserved: Verdict


@dataclass
class DeformationReport:
    steps: List[StepDeformationVerdict]
    source_hlc: HlcVerdict
    deformed_hlc: HlcVerdict
    pipeline_coherent: Verdict
    factorization: FactorizationChain


def _square_zero_step_verdict(i_cat: DgCategory, step: DgRingMorphism,
                              ext: ScalarExtension) -> StepDeformationVerdict:
    """The lifting properties along one square-zero surjection, verified on the
    instance category."""
    ring = step.source
    s_ring = step.target
    field = ring.field
    rcat = one_object_category(ring)
    scat = one_object_category(s_ring)
    ideal = step.kernel_ideal()
    ideal_r = ideal_as_R_module(step, rcat, ideal)
    ideal_s = ideal_as_S_module(step, scat, ideal, ideal_r)
    j_cat = ext.category
    ses_ok = True
    les_ok = True
    nonpos = i_cat.has_nonpositive_cohomology() and j_cat.has_nonpositive_cohomology()
    lift_ok = True
    h0_ok = True
    for a in i_cat.objects:
        for b in i_cat.objects:
            v = i_cat.hom(a, b)
            if v.total_dim() == 0:
                continue
            v_mod = hom_as_right_module(i_cat, a, b, rcat)
            t_iv = balanced_tensor_ring(ideal_r, v_mod)
            tensor_iv = t_iv.complex
            nonpos = nonpos and all(d <= 0 for d in tensor_iv.cohomology().support())
            # SES maps: iota: I (x)_R V -> V (apply the ideal element), pi = unit insert
            incl_comp = ideal.inclusion
            act = i_cat.action[(a, b)]
            iota = lifted_map([t_iv], v, [lambda flat: kron_product(
                act.block(flat), incl_comp.component(flat[0]), Mat.identity(field, v.dim(flat[1])))])
            pi = ext.inclusion.hom_map(a, b)
            j_hom = j_cat.hom(a, b)
            for deg in set(v.degrees()) | set(tensor_iv.degrees()) | set(j_hom.degrees()):
                rank_iota = iota.component(deg).rank()
                rank_pi = pi.component(deg).rank()
                if rank_iota != tensor_iv.dim(deg):
                    ses_ok = False
                if rank_pi != j_hom.dim(deg):
                    ses_ok = False
                if v.dim(deg) != tensor_iv.dim(deg) + j_hom.dim(deg):
                    ses_ok = False
                if not (pi.component(deg) @ iota.component(deg)).is_zero():
                    ses_ok = False
            # LES rank bookkeeping: dim H^k(V) = rank H^k(iota) + rank H^k(pi)
            degrees = set(v.cohomology().as_dict()) | set(tensor_iv.cohomology().as_dict()) | \
                set(j_hom.cohomology().as_dict())
            for deg in degrees:
                lhs = v.cohomology().dim(deg)
                if lhs != iota.cohomology_map(deg).rank() + pi.cohomology_map(deg).rank():
                    les_ok = False
            # (b) tensor lift: I (x)_R V <-> I (x)_S (S (x)_R V)
            t_sj = balanced_tensor_ring(ideal_s, hom_as_right_module(j_cat, a, b, scat))
            if not tensor_cancellation_check(t_iv, t_sj, ext.tensors[(a, b)], pi,
                                             ideal_s.act[(scat.objects[0], scat.objects[0])]):
                lift_ok = False
            # (c) H^0 comparison
            if not _h0_comparison_bijective(i_cat, a, b, step, ext):
                h0_ok = False
    # ker H^0(theta) squares to zero
    # work in H^0(R): classes of the pairwise products of kernel-of-theta degree-0 elements
    ker0 = step.map.component(0).kernel_basis()
    prods = kron_product(ring.product.block((0, 0)), ker0, ker0)
    ker_sq = h0_ring(ring)[1].apply(0, prods).is_zero()
    return StepDeformationVerdict(
        step.name,
        Verdict.of(ses_ok, "I (x)_R V -> V -> S (x)_R V is exact in every degree"),
        Verdict.of(les_ok, "dim H^k(V) = rank H^k(iota) + rank H^k(pi) in every degree"),
        Verdict.of(nonpos, "both categories and every I (x)_R V have cohomology in degrees <= 0"),
        Verdict.of(lift_ok, "I (x)_R V -> I (x)_S (S (x)_R V) and back compose to identities"),
        Verdict.of(h0_ok, "H^0(S) (x)_{H^0(R)} H^0(V) -> H^0(S (x)_R V) is bijective"),
        Verdict.of(ker_sq, "ker H^0(theta) squares to zero in H^0(R)"),
        HFP_UNCHECKED)


def _h0_relations(step: DgRingMorphism, action: Pairing, hs: Retract, hv: Retract) -> Mat:
    """The relations of H^0(S) (x)_{H^0(R)} H^0(V), for the H^0 retracts of
    S and of an R-module V with its action: one column
    [s . theta(r)] (x) [f] - [s] (x) [r . f] per basis triple (s, r, f), in
    that order, rows (s, f)."""
    hr = h0_retract(step.source.underlying.cohomology())
    right = lifted_map([hs, hr], hs, [_right_action_through(step).block]).component(0)
    left = lifted_map([hr, hv], hv, [action.block]).component(0)
    field = step.source.field
    return (kron(right, Mat.identity(field, hv.complex.dim(0)))
            - kron(Mat.identity(field, hs.complex.dim(0)), left))


def _h0_comparison_bijective(i_cat: DgCategory, a, b, step: DgRingMorphism,
                             ext: ScalarExtension) -> bool:
    """H^0(S) (x)_{H^0(R)} H^0(V) -> H^0(S (x)_R V), [s] (x) [f] |-> [s (x) f]."""
    hs, hv = (h0_retract(cx.cohomology()) for cx in (step.target.underlying, i_cat.hom(a, b)))
    tensor = ext.tensors[(a, b)]
    hj = h0_retract(tensor.complex.cohomology())
    pairs, nj = hs.complex.dim(0) * hv.complex.dim(0), hj.complex.dim(0)
    if pairs == 0:
        return nj == 0
    rel = _h0_relations(step, i_cat.action[(a, b)], hs, hv)
    if pairs - rel.rank() != nj:
        return False
    # the explicit map on representatives must be surjective with the relations in its kernel
    projection = Pairing(tensor.layout, tensor.projection, tensor.complex, f"{tensor.complex.name}: projection")
    themap = lifted_map([hs, hv], hj, [projection.block]).component(0)
    return themap.rank() == nj and (themap @ rel).is_zero()


def deform_category(i_cat: DgCategory, theta: DgRingMorphism):
    """Extend an R-linear levelwise-free strictly nonpositive category along
    theta and verify the lifting properties along every square-zero step of the
    factorization.  Returns (final ScalarExtension, DeformationReport)."""
    if not i_cat.is_strictly_nonpositive():
        raise ValidationError("deformation instances must be strictly nonpositive")
    levelwise_free_generators(i_cat)  # raises when not levelwise free
    chain = factorize(theta)
    direct = extend_scalars_cat(i_cat, theta)
    # iterate extensions along the factorization; each transitivity square has
    # the previous step's direct extension (or the head's) as stage 1
    verdicts = []
    coherent = on_theta = True
    if chain.steps:
        stage1 = extend_scalars_cat(i_cat, chain.head)
        cur_cat = stage1.category
        for k, step in enumerate(chain.steps):
            ext = extend_scalars_cat(cur_cat, step)
            verdicts.append(_square_zero_step_verdict(cur_cat, step, ext))
            stage2 = ext if ext.source is stage1.category else extend_scalars_cat(stage1.category, step)
            cur_cat = ext.category
            composite = step.compose(stage1.theta)
            last = k == len(chain.steps) - 1
            # the composed morphism equals theta on the nose
            on_theta = last and all(composite.map.component(d) == theta.map.component(d)
                                     for d in theta.source.degrees())
            step_direct = direct if on_theta else extend_scalars_cat(i_cat, composite)
            coherent = coherent and passes(transitivity_check(step_direct, stage1, stage2))
            stage1 = step_direct
    report = DeformationReport(verdicts, check_hlc(i_cat), check_hlc(direct.category), Verdict.of(
        coherent and on_theta, "every transitivity square is mutually inverse and the steps compose to theta"),
        chain)
    return direct, report
